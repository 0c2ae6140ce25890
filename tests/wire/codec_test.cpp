// Wire-codec primitives: varint/zigzag mappings, the CRC32C checksum (known
// answers, hardware against portable, every single-byte change of a frame),
// and the bounds-latched Reader that must never read past untrusted input.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "wire/messages.hpp"

namespace str::wire {
namespace {

std::uint64_t roundtrip_varint(std::uint64_t v, std::size_t* encoded_size) {
  Buffer buf;
  Writer w(buf);
  w.varint(v);
  if (encoded_size != nullptr) *encoded_size = buf.size();
  Reader r(buf.data(), buf.size());
  const std::uint64_t out = r.varint();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  return out;
}

TEST(Codec, VarintRoundTripAtBoundaries) {
  // Each 7-bit group boundary changes the encoded length by one byte.
  const struct {
    std::uint64_t value;
    std::size_t size;
  } cases[] = {
      {0, 1},
      {1, 1},
      {0x7f, 1},
      {0x80, 2},
      {0x3fff, 2},
      {0x4000, 3},
      {std::numeric_limits<std::uint32_t>::max(), 5},
      {std::numeric_limits<std::uint64_t>::max(), 10},
  };
  for (const auto& c : cases) {
    std::size_t size = 0;
    EXPECT_EQ(roundtrip_varint(c.value, &size), c.value);
    EXPECT_EQ(size, c.size) << "value " << c.value;
    EXPECT_EQ(varint_size(c.value), c.size) << "value " << c.value;
  }
}

TEST(Codec, VarintRejectsOverlongAndOverflow) {
  // 11 bytes of continuation: no u64 varint is that long.
  {
    Buffer buf(11, 0x80);
    Reader r(buf.data(), buf.size());
    r.varint();
    EXPECT_FALSE(r.ok());
  }
  // 10-byte encoding whose final byte carries more than the single bit a
  // u64 has left: would encode bits 64+.
  {
    Buffer buf(9, 0x80);
    buf.push_back(0x02);
    Reader r(buf.data(), buf.size());
    r.varint();
    EXPECT_FALSE(r.ok());
  }
  // The canonical 10-byte max encoding is accepted.
  {
    Buffer buf(9, 0xff);
    buf.push_back(0x01);
    Reader r(buf.data(), buf.size());
    EXPECT_EQ(r.varint(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(r.ok());
  }
  // Truncated mid-varint: continuation bit set, then end of buffer.
  {
    Buffer buf = {0x80, 0x80};
    Reader r(buf.data(), buf.size());
    r.varint();
    EXPECT_FALSE(r.ok());
  }
}

TEST(Codec, ZigzagMapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  EXPECT_EQ(zigzag_encode(2), 4u);
  const std::int64_t values[] = {0, 1, -1, 42, -42,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  Buffer buf;
  Writer w(buf);
  w.zigzag(-7);
  Reader r(buf.data(), buf.size());
  EXPECT_EQ(r.zigzag(), -7);
  EXPECT_TRUE(r.ok());
}

TEST(Codec, ChecksumIsSensitiveToEverySingleBitFlip) {
  std::uint8_t data[32];
  for (std::size_t i = 0; i < sizeof data; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint32_t base = checksum32(data, sizeof data);
  for (std::size_t bit = 0; bit < sizeof(data) * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(checksum32(data, sizeof data), base) << "bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(checksum32(data, sizeof data), base);  // restored
  EXPECT_NE(checksum32(data, sizeof data - 1), base);  // length matters
}

TEST(Codec, ChecksumIsCrc32c) {
  // RFC 3720 §B.4 known answers, and the conventional check value.
  std::uint8_t zeros[32] = {};
  std::uint8_t ones[32];
  std::uint8_t ascending[32];
  for (std::size_t i = 0; i < 32; ++i) {
    ones[i] = 0xff;
    ascending[i] = static_cast<std::uint8_t>(i);
  }
  const std::string check = "123456789";
  const auto* digits = reinterpret_cast<const std::uint8_t*>(check.data());
  for (auto* crc : {&checksum32, &checksum32_portable}) {
    EXPECT_EQ(crc(zeros, sizeof zeros), 0x8A9136AAu);
    EXPECT_EQ(crc(ones, sizeof ones), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending, sizeof ascending), 0x46DD794Eu);
    EXPECT_EQ(crc(digits, check.size()), 0xE3069283u);
    EXPECT_EQ(crc(zeros, 0), 0u);
  }
}

TEST(Codec, HardwareChecksumMatchesPortableAtEveryLengthAndOffset) {
  if (!checksum32_hardware_available()) {
    GTEST_SKIP() << "no CRC32C instruction on this CPU";
  }
  std::vector<std::uint8_t> data(1024 + 8);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + (i >> 3) * 7 + 5);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::uint8_t* p = data.data() + offset;
      ASSERT_EQ(checksum32_hardware(p, len), checksum32_portable(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Codec, EverySingleByteChangeOfAFrameIsRejected) {
  // A replicate request the size of tpcc-durable's mean frame. CRC32C
  // detects every error burst of up to 32 bits, so any one changed byte
  // covered by the checksum (or in the checksum itself) fails it; a changed
  // length prefix fails the length check first.
  auto updates = std::make_shared<protocol::UpdateList>();
  for (Key k = 0; k < 4; ++k) {
    updates->emplace_back(0x4000 + 977 * k,
                          std::make_shared<const Value>(std::string(38, 'v')));
  }
  const protocol::ReplicateRequest repl{TxId{3, 0x1234}, 3, 2, 7'100'000,
                                        updates};
  Buffer frame = encode_frame(repl);
  ASSERT_GE(frame.size(), 180u);
  ASSERT_LE(frame.size(), 200u);
  FrameView view;
  ASSERT_EQ(open_frame(frame.data(), frame.size(), view), DecodeStatus::kOk);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const std::uint8_t original = frame[i];
    const DecodeStatus expected = i < kFrameLenBytes
                                      ? DecodeStatus::kBadLength
                                      : DecodeStatus::kBadChecksum;
    for (int delta = 1; delta < 256; ++delta) {
      frame[i] = static_cast<std::uint8_t>(original ^ delta);
      ASSERT_EQ(open_frame(frame.data(), frame.size(), view), expected)
          << "byte " << i << " xor " << delta;
    }
    frame[i] = original;
  }
  EXPECT_EQ(open_frame(frame.data(), frame.size(), view), DecodeStatus::kOk);
}

TEST(Codec, ReaderLatchesFailureAndStopsAtTheEnd) {
  Buffer buf = {0x01, 0x02};
  Reader r(buf.data(), buf.size());
  EXPECT_EQ(r.u32le(), 0u);  // needs 4 bytes, only 2 available
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);  // latched to the end
  // Every subsequent read is a harmless zero, never a re-read of the data.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.varint(), 0u);
  std::string s;
  EXPECT_FALSE(r.str(s));
  EXPECT_FALSE(r.ok());
}

TEST(Codec, ReaderStrRejectsForgedLengthBeforeAllocating) {
  // Length prefix claims ~1 EiB with 3 bytes of payload behind it: str()
  // must refuse before touching memory, not allocate-then-fault.
  Buffer buf;
  Writer w(buf);
  w.varint(std::uint64_t{1} << 60);
  buf.push_back('a');
  buf.push_back('b');
  buf.push_back('c');
  Reader r(buf.data(), buf.size());
  std::string out = "untouched";
  EXPECT_FALSE(r.str(out));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(out, "untouched");
}

TEST(Codec, StrRoundTripsEmptyAndEmbeddedNul) {
  const std::string cases[] = {"", std::string("a\0b", 3),
                               std::string(300, 'x')};
  for (const std::string& s : cases) {
    Buffer buf;
    Writer w(buf);
    w.str(s);
    Reader r(buf.data(), buf.size());
    std::string out;
    ASSERT_TRUE(r.str(out));
    EXPECT_EQ(out, s);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Codec, U32leRoundTripIsLittleEndian) {
  Buffer buf;
  Writer w(buf);
  w.u32le(0x12345678u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x78);
  EXPECT_EQ(buf[1], 0x56);
  EXPECT_EQ(buf[2], 0x34);
  EXPECT_EQ(buf[3], 0x12);
  Reader r(buf.data(), buf.size());
  EXPECT_EQ(r.u32le(), 0x12345678u);
  EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace str::wire
