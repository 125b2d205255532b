// CRC-32 (ISO-HDLC polynomial, the zlib/PNG variant) for frame integrity.
//
// Checkpoint frames (core/checkpoint) carry two of these: one over the frame
// bytes themselves (detects a corrupted frame) and one over the full
// reconstructed state (detects a broken baseline+delta chain even when every
// individual frame is intact). The net/link Batch envelope carries one too.
//
// Slicing-by-8: eight 256-entry tables let the loop fold eight input bytes
// per step with eight independent table loads, instead of one byte per step
// where every load waits on the previous one. Same polynomial, init and final
// XOR as the bytewise loop, so the output is identical for every input.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "serial/serial.hpp"

namespace jacepp::serial {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic bytewise table; tables[k][i] is the CRC state
/// after byte i followed by k zero bytes.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian 32-bit load from any alignment; compilers fold it to one
/// load on little-endian hosts.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// CRC-32 of `size` bytes at `data` (init/final XOR 0xFFFFFFFF, reflected).
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ detail::load_le32(data);
    const std::uint32_t hi = detail::load_le32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const Bytes& data) {
  return crc32(data.data(), data.size());
}

}  // namespace jacepp::serial
