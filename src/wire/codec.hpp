// Binary wire-codec primitives: varints, zigzag, field codecs, and
// length-prefixed frames with a per-frame checksum.
//
// This is the bottom layer of the wire subsystem (docs/WIRE.md). It knows
// nothing about protocol messages — only how to put fields into a buffer
// and get them back out without ever reading past the end of untrusted
// input. The typed message codec (wire/messages.hpp), the dispatch table
// (wire/dispatch.hpp), the stream reassembler (wire/assembler.hpp) and the
// write-ahead log (storage/wal.hpp) all build on it: every frame in the
// system is sealed by append_frame and opened by open_frame below.
//
// Encoding conventions:
//   * unsigned integers  : LEB128 varints (7 bits per byte, LSB first)
//   * signed integers    : zigzag-mapped, then varint
//   * byte strings       : varint length prefix + raw bytes
//   * fixed 32-bit fields: little-endian (frame length and checksum only)
//   * typed fields       : see "field codecs" below
//
// Frame layout (all multi-byte fields little-endian):
//
//   +----------------+------+----------------+-------------------+
//   | u32 rest_len   | type | body ...       | u32 CRC32C(type + |
//   | (type..cksum)  | (u8) | (per-type)     |      body)        |
//   +----------------+------+----------------+-------------------+
//
// The length prefix makes the format self-delimiting on a byte stream; the
// checksum rejects corrupted frames before any field is interpreted.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace str::wire {

using Buffer = std::vector<std::uint8_t>;

/// Frame overhead around the body: length prefix + type tag + checksum.
inline constexpr std::size_t kFrameLenBytes = 4;
inline constexpr std::size_t kFrameTypeBytes = 1;
inline constexpr std::size_t kFrameChecksumBytes = 4;
inline constexpr std::size_t kFrameOverhead =
    kFrameLenBytes + kFrameTypeBytes + kFrameChecksumBytes;
/// Smallest well-formed frame: empty body.
inline constexpr std::size_t kMinFrameSize = kFrameOverhead;

/// Encoded size of an unsigned varint (1..10 bytes).
inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Zigzag mapping: small-magnitude signed values become small unsigned ones.
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// CRC32C (Castagnoli, as in iSCSI, RFC 3720; "123456789" -> 0xE3069283)
/// of a byte range: the per-frame checksum. It detects every single-byte
/// change, and every burst of up to 32 bits, in a frame. The CPU's crc32
/// instruction computes it where the CPU has one (SSE4.2 on x86-64, probed
/// once at first use); a portable table walk computes it everywhere else.
/// Both give the same value, so the choice never shows in any byte.
std::uint32_t checksum32(const std::uint8_t* data, std::size_t size);

/// The two implementations behind checksum32, for tests and benchmarks.
/// checksum32_hardware may be called only when
/// checksum32_hardware_available() (off x86-64 it is the portable one).
std::uint32_t checksum32_portable(const std::uint8_t* data, std::size_t size);
std::uint32_t checksum32_hardware(const std::uint8_t* data, std::size_t size);
bool checksum32_hardware_available();

/// The one little-endian u32 load (frame length and checksum fields).
inline std::uint32_t load_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline void store_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

/// Append-only encoder over a caller-owned Buffer.
class Writer {
 public:
  explicit Writer(Buffer& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u32le(std::uint32_t v) {
    out_.resize(out_.size() + 4);
    store_u32le(out_.data() + out_.size() - 4, v);
  }

  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  void zigzag(std::int64_t v) { varint(zigzag_encode(v)); }

  /// varint length prefix + raw bytes.
  void bytes(const void* data, std::size_t size) {
    varint(size);
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + size);
  }

  void str(const std::string& s) { bytes(s.data(), s.size()); }

  Buffer& buffer() { return out_; }

 private:
  Buffer& out_;
};

/// Writer stand-in that only counts bytes: Encoder<SizeCounter> is the
/// exact sizer — no buffer, no allocation.
class SizeCounter {
 public:
  void u8(std::uint8_t) { ++n_; }
  void varint(std::uint64_t v) { n_ += varint_size(v); }
  void str(const std::string& s) { n_ += varint_size(s.size()) + s.size(); }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Bounds-checked decoder over untrusted bytes. Every accessor returns a
/// neutral value and latches `ok() == false` on underflow or malformed
/// input; it NEVER reads outside [data, data + size). Callers check ok()
/// once at the end (reads after a failure are harmless no-ops).
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  /// Latch failure: a field decoded fine but its value is out of range.
  void fail() {
    ok_ = false;
    p_ = end_;
  }

  std::uint8_t u8() {
    if (remaining() < 1) return fail_u8();
    return *p_++;
  }

  std::uint32_t u32le() {
    if (remaining() < 4) return fail_u8();
    const std::uint32_t v = load_u32le(p_);
    p_ += 4;
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (std::size_t shift = 0; shift < 64; shift += 7) {
      if (remaining() < 1) return fail_u8();
      const std::uint8_t byte = *p_++;
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // The 10th byte of a u64 varint carries one significant bit; a
        // larger final byte would encode bits beyond 64 (overlong/overflow).
        if (shift == 63 && byte > 1) return fail_u8();
        return v;
      }
    }
    return fail_u8();  // continuation bit set past 10 bytes
  }

  std::int64_t zigzag() { return zigzag_decode(varint()); }

  /// varint length prefix + raw bytes; rejects lengths past the buffer end
  /// BEFORE allocating, so a corrupted length can never trigger a huge
  /// reservation or an out-of-bounds copy.
  bool str(std::string& out) {
    const std::uint64_t len = varint();
    if (!ok_ || len > remaining()) {
      fail();
      return false;
    }
    out.assign(reinterpret_cast<const char*>(p_), static_cast<std::size_t>(len));
    p_ += len;
    return true;
  }

 private:
  std::uint8_t fail_u8() {
    fail();
    return 0;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

// -- field codecs -------------------------------------------------------------
// A message describes its body once, as a field list in wire order:
//
//   void fields(auto& f, Of<protocol::AbortMessage> auto& m) {
//     f(m.tx);
//     f(m.partition);
//     f.trailing(m.tspan);
//   }
//
// and the visitors below run it: Encoder<Writer> appends the bytes,
// Encoder<SizeCounter> adds them up, Decoder parses untrusted bytes back.
// WAL records feed their fields to the same visitors (storage/wal.cpp).
// The C++ type of a field picks its encoding:
//
//   u64                    varint
//   u32 (node, partition)  varint; the decoder rejects values above 2^32-1
//   bool                   one byte; the decoder accepts exactly 0 or 1
//   (enum, max)            one byte; the decoder rejects values above max
//   TxId                   node (the u32 rule, so kInvalidNode is legal), seq
//   SharedValue            presence bool, then the string if present
//   vector<T>              varint count, then each element's field list; the
//                          decoder bounds the count by the bytes remaining
//                          before it reserves anything
//   shared_ptr<const vector<T>>  as vector<T>; null encodes as empty
//   trailing(u64)          written only when nonzero; read only when body
//                          bytes remain, and an explicit zero is rejected so
//                          the encoding stays bijective (docs/WIRE.md)

/// `M` is `T` or `const T`: one field list serves the encoder (const
/// values) and the decoder (mutable ones).
template <class M, class T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

/// Update-list element: key, optional value.
void fields(auto& f, Of<std::pair<Key, SharedValue>> auto& kv) {
  f(kv.first);
  f(kv.second);
}

template <class Out>
class Encoder {
 public:
  explicit Encoder(Out& out) : out_(out) {}

  void operator()(std::uint64_t v) { out_.varint(v); }
  void operator()(std::uint32_t v) { out_.varint(v); }
  void operator()(bool v) { out_.u8(v ? 1 : 0); }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E v, E /*max*/) {
    out_.u8(static_cast<std::uint8_t>(v));
  }
  void operator()(const TxId& id) {
    (*this)(id.node);
    (*this)(id.seq);
  }
  void operator()(const SharedValue& v) {
    (*this)(v != nullptr);
    if (v) out_.str(*v);
  }
  template <class T>
  void operator()(const std::vector<T>& xs) {
    out_.varint(xs.size());
    for (const T& x : xs) fields(*this, x);
  }
  template <class T>
  void operator()(const std::shared_ptr<const std::vector<T>>& xs) {
    if (xs) {
      (*this)(*xs);
    } else {
      out_.varint(0);
    }
  }
  void trailing(std::uint64_t v) {
    if (v != 0) out_.varint(v);
  }

 private:
  Out& out_;
};

class Decoder {
 public:
  explicit Decoder(Reader& r) : r_(r) {}

  void operator()(std::uint64_t& v) { v = r_.varint(); }
  void operator()(std::uint32_t& v) {
    const std::uint64_t x = r_.varint();
    if (x > std::numeric_limits<std::uint32_t>::max()) r_.fail();
    v = static_cast<std::uint32_t>(x);
  }
  void operator()(bool& v) { v = small(1) != 0; }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E& v, E max) {
    v = static_cast<E>(small(static_cast<std::uint8_t>(max)));
  }
  void operator()(TxId& id) {
    (*this)(id.node);
    (*this)(id.seq);
  }
  void operator()(SharedValue& v) {
    bool present = false;
    (*this)(present);
    v.reset();
    if (!present) return;
    auto s = std::make_shared<Value>();
    if (r_.str(*s)) v = std::move(s);
  }
  template <class T>
  void operator()(std::vector<T>& xs) {
    const std::uint64_t n = r_.varint();
    // Every element takes at least 2 bytes, so a count beyond remaining()/2
    // is forged — rejected before reserving, so it can never trigger a huge
    // allocation.
    if (n > r_.remaining() / 2 + 1) return r_.fail();
    xs.clear();
    xs.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && r_.ok(); ++i) {
      fields(*this, xs.emplace_back());
    }
  }
  template <class T>
  void operator()(std::shared_ptr<const std::vector<T>>& xs) {
    auto list = std::make_shared<std::vector<T>>();
    (*this)(*list);
    xs = std::move(list);
  }
  void trailing(std::uint64_t& v) {
    v = 0;
    if (r_.remaining() == 0) return;
    v = r_.varint();
    if (v == 0) r_.fail();
  }

 private:
  std::uint8_t small(std::uint8_t max) {
    const std::uint8_t b = r_.u8();
    if (b <= max) return b;
    r_.fail();
    return 0;
  }

  Reader& r_;
};

// -- frames -------------------------------------------------------------------
// The one sealer (append_frame) and the one opener (open_frame) of the frame
// layout above; wire messages and WAL records share both. A stream reader
// cuts frames out with frame_extent before opening them.

/// Why a frame was rejected. Anything but kOk means "not delivered".
enum class DecodeStatus : std::uint8_t {
  kOk,
  kTooShort,      ///< shorter than the fixed frame overhead
  kBadLength,     ///< length prefix disagrees with the datagram size
  kBadChecksum,   ///< checksum mismatch (bit corruption)
  kBadType,       ///< unknown message-type tag
  kBadBody,       ///< body malformed: underflow, bad enum, trailing bytes
};

inline const char* to_string(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTooShort: return "too_short";
    case DecodeStatus::kBadLength: return "bad_length";
    case DecodeStatus::kBadChecksum: return "bad_checksum";
    case DecodeStatus::kBadType: return "bad_type";
    case DecodeStatus::kBadBody: return "bad_body";
  }
  return "unknown";
}

/// Append one sealed frame to `out`: length prefix, `type`, whatever
/// `body(Writer&)` writes, checksum. Built in place — the length prefix is
/// patched once the body is known — so no scratch buffer is needed.
template <class Body>
void append_frame(Buffer& out, std::uint8_t type, Body&& body) {
  const std::size_t start = out.size();
  Writer w(out);
  w.u32le(0);
  w.u8(type);
  body(w);
  const std::size_t covered = out.size() - start - kFrameLenBytes;
  store_u32le(out.data() + start,
              static_cast<std::uint32_t>(covered + kFrameChecksumBytes));
  w.u32le(checksum32(out.data() + start + kFrameLenBytes, covered));
}

/// Total size, prefix included, that the frame starting at `data` claims
/// (kFrameLenBytes must be readable). Untrusted: stream readers bound it by
/// kMinFrameSize and the bytes at hand before relying on it.
inline std::size_t frame_extent(const std::uint8_t* data) {
  return kFrameLenBytes + load_u32le(data);
}

/// A verified frame's tag and body.
struct FrameView {
  std::uint8_t type = 0;
  const std::uint8_t* body = nullptr;
  std::size_t body_len = 0;
};

/// Verify the single frame occupying exactly [data, data + size): its
/// length prefix must match and its checksum must hold before any body
/// byte is trusted. On kOk `out` points into `data`.
inline DecodeStatus open_frame(const std::uint8_t* data, std::size_t size,
                               FrameView& out) {
  if (size < kMinFrameSize) return DecodeStatus::kTooShort;
  if (frame_extent(data) != size) return DecodeStatus::kBadLength;
  const std::size_t covered = size - kFrameLenBytes - kFrameChecksumBytes;
  if (checksum32(data + kFrameLenBytes, covered) !=
      load_u32le(data + size - kFrameChecksumBytes)) {
    return DecodeStatus::kBadChecksum;
  }
  out = {data[kFrameLenBytes], data + kFrameLenBytes + kFrameTypeBytes,
         covered - kFrameTypeBytes};
  return DecodeStatus::kOk;
}

}  // namespace str::wire
