// CRC32C, the frame checksum (wire/codec.hpp "checksum32").
//
// Two implementations of one function: the SSE4.2 `crc32` instruction where
// the CPU has it, and a portable slicing-by-8 table walk everywhere else.
// checksum32 picks one once, at first use, from what the CPU reports; the
// portable one is also the oracle the tests hold the hardware one to.
#include <array>
#include <cstdint>
#include <cstring>

#include "wire/codec.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define STR_WIRE_HW_CRC32C 1
#include <nmmintrin.h>
#endif

namespace str::wire {

namespace {

/// Castagnoli polynomial, bit-reflected (CRC32C as in iSCSI, RFC 3720).
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte-at-a-time table; tables[k][b] advances the
/// CRC of byte b by k further zero bytes, so eight lookups consume a word.
constexpr Crc32cTables make_tables() {
  Crc32cTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32cPoly : 0u);
    }
    t[0][b] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xffu];
    }
  }
  return t;
}

constexpr Crc32cTables kTables = make_tables();

/// Raw CRC register update (no pre/post inversion), slicing-by-8.
std::uint32_t update_portable(std::uint32_t crc, const std::uint8_t* p,
                              std::size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_u32le(p);
    const std::uint32_t hi = load_u32le(p + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
          kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xffu];
  return crc;
}

#ifdef STR_WIRE_HW_CRC32C
/// Raw CRC register update with the SSE4.2 instruction: eight bytes per
/// step, read with memcpy so any start offset is fine, then the tail.
__attribute__((target("sse4.2"))) std::uint32_t update_hardware(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return c32;
}
#endif

}  // namespace

bool checksum32_hardware_available() {
#ifdef STR_WIRE_HW_CRC32C
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

std::uint32_t checksum32_portable(const std::uint8_t* data, std::size_t size) {
  return ~update_portable(~0u, data, size);
}

std::uint32_t checksum32_hardware(const std::uint8_t* data, std::size_t size) {
#ifdef STR_WIRE_HW_CRC32C
  return ~update_hardware(~0u, data, size);
#else
  return checksum32_portable(data, size);
#endif
}

std::uint32_t checksum32(const std::uint8_t* data, std::size_t size) {
  static const bool hardware = checksum32_hardware_available();
  return hardware ? checksum32_hardware(data, size)
                  : checksum32_portable(data, size);
}

}  // namespace str::wire
