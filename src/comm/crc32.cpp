#include "src/comm/crc32.hpp"

#include <array>
#include <cstddef>

namespace fedcav::comm {

namespace {

// kTables[0] is the classic bytewise table. kTables[s][b] is the CRC
// register after byte b is followed by s zero bytes, so one lookup per
// byte of a 16-byte block advances the register over the whole block.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Crc32Tables make_crc_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t s = 1; s < tables.size(); ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[s - 1][i];
      tables[s][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = make_crc_tables();

/// Little-endian 8-byte word, assembled from bytes so it is alignment-
/// and endian-independent (compilers fold it into one load).
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint32_t lookup(std::size_t table, std::uint64_t word, int byte) {
  return kTables[table][(word >> (8 * byte)) & 0xffu];
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // Slice-by-16: the register folds into the first word, and byte j of
  // the block is looked up in the table that shifts it past the 15 − j
  // bytes after it.
  for (; n >= 16; p += 16, n -= 16) {
    const std::uint64_t lo = load_le64(p) ^ crc;
    const std::uint64_t hi = load_le64(p + 8);
    crc = lookup(15, lo, 0) ^ lookup(14, lo, 1) ^ lookup(13, lo, 2) ^ lookup(12, lo, 3) ^
          lookup(11, lo, 4) ^ lookup(10, lo, 5) ^ lookup(9, lo, 6) ^ lookup(8, lo, 7) ^
          lookup(7, hi, 0) ^ lookup(6, hi, 1) ^ lookup(5, hi, 2) ^ lookup(4, hi, 3) ^
          lookup(3, hi, 4) ^ lookup(2, hi, 5) ^ lookup(1, hi, 6) ^ lookup(0, hi, 7);
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace fedcav::comm
