// Incremental frame reassembly over a byte stream.
//
// The frame format (wire/codec.hpp) is self-delimiting — a 4-byte
// little-endian length prefix counts everything after itself — but the
// Reader assumes it is handed one complete frame. A stream transport
// (docs/TRANSPORT.md) hands us arbitrary read() chunks instead: half a
// frame, three frames and a tail, one byte at a time. FrameAssembler sits
// between the socket and decode_frame: feed it whatever arrived, and it
// emits exactly the complete frames, in order, prefix included.
//
// Safety properties, matching the decoder's posture toward untrusted input:
//   * a length prefix is validated the moment its 4 bytes are available —
//     BEFORE any body byte is awaited or buffered — so a forged 4 GiB
//     length can never cause a proportional reservation, only an error;
//   * a length below the minimum body-less frame is equally malformed
//     (nothing inside the prefix could satisfy the checksum field);
//   * any malformed length latches error() and the assembler goes inert —
//     resynchronizing inside a corrupt byte stream is guesswork, so the
//     owning connection must be torn down (reset() re-arms after that).
//
// The emitted frames still carry their checksums; the assembler verifies
// nothing beyond the length, leaving integrity to decode_frame exactly as
// in datagram mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wire/codec.hpp"

namespace str::wire {

/// Ceiling on a single reassembled frame. The largest legal protocol frame
/// is a prepare/replicate carrying a full write set — a few KiB on the
/// paper's workloads — so 1 MiB is generous headroom while still rejecting
/// a corrupt or hostile length prefix immediately.
inline constexpr std::size_t kDefaultMaxFrameSize = 1u << 20;

class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_frame_size = kDefaultMaxFrameSize)
      : max_frame_(max_frame_size) {}

  /// Feed one chunk of stream bytes; invokes `cb(const std::uint8_t* frame,
  /// std::size_t size)` once per completed frame (length prefix included, as
  /// decode_frame expects). Returns false — having latched error() — when a
  /// length prefix is malformed; the bytes up to the previous frame boundary
  /// were already emitted, everything after is discarded.
  template <class Cb>
  bool feed(const std::uint8_t* data, std::size_t size, Cb&& cb) {
    if (error_) return false;
    if (buf_.empty()) {
      // Fast path: emit complete frames straight out of the caller's chunk,
      // zero-copy; only a trailing partial frame is buffered.
      std::size_t used = 0;
      if (!scan(data, size, used, cb)) return false;
      buf_.assign(data + used, data + size);
      return true;
    }
    // A partial frame is pending: append, then emit from the joined buffer.
    buf_.insert(buf_.end(), data, data + size);
    std::size_t used = 0;
    if (!scan(buf_.data(), buf_.size(), used, cb)) return false;
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(used));
    return true;
  }

  /// A malformed length prefix was seen; the stream is unrecoverable.
  bool error() const { return error_; }

  /// Bytes of the pending partial frame (0 at a frame boundary).
  std::size_t buffered() const { return buf_.size(); }

  /// True when the stream ended cleanly: no partial frame, no error. A
  /// disconnect with mid_frame() true means the peer died mid-send and the
  /// residue must be discarded, never delivered.
  bool mid_frame() const { return !buf_.empty(); }

  std::size_t max_frame_size() const { return max_frame_; }

  /// Frames emitted since construction or the last reset().
  std::uint64_t frames_emitted() const { return frames_; }

  /// Drop any partial frame and clear the error latch (new connection).
  void reset() {
    buf_.clear();
    error_ = false;
  }

 private:
  /// Emit every complete frame in [data, data+size); `used` ends at the
  /// first incomplete frame boundary. False latches error_.
  template <class Cb>
  bool scan(const std::uint8_t* data, std::size_t size, std::size_t& used,
            Cb&& cb) {
    used = 0;
    while (size - used >= kFrameLenBytes) {
      const std::uint8_t* p = data + used;
      const std::size_t total = frame_extent(p);
      // Validate the claimed length before waiting for (or counting) a
      // single body byte. Below the tag+checksum minimum nothing could be a
      // frame; above the ceiling nothing should be.
      if (total < kMinFrameSize || total > max_frame_) {
        error_ = true;
        return false;
      }
      if (size - used < total) break;  // frame incomplete; wait for more
      cb(p, total);
      ++frames_;
      used += total;
    }
    return true;
  }

  std::size_t max_frame_;
  Buffer buf_;  ///< pending partial frame (empty at a frame boundary)
  bool error_ = false;
  std::uint64_t frames_ = 0;
};

}  // namespace str::wire
