// CRC-32 contract: serial::crc32 (slicing-by-8) must give the published
// ISO-HDLC check values and agree with the bit-at-a-time definition of the
// polynomial for every length and every start alignment, so the 8-byte body,
// the unaligned head and the 1-7 byte tail are all covered.
#include "serial/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

namespace jacepp::serial {
namespace {

/// The polynomial definition itself: no tables, one bit per step.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_of(const std::string& s) {
  return crc32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32_of("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32_of("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  EXPECT_EQ(crc32(Bytes{}), 0u);
  EXPECT_EQ(crc32(Bytes(32, 0)), 0x190A55ADu);
}

TEST(Crc32, MatchesBitwiseReferenceForEveryLengthAndOffset) {
  std::mt19937_64 rng(7);
  Bytes buffer(1024 + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const std::uint8_t* p = buffer.data() + offset;
      ASSERT_EQ(crc32(p, length), crc32_bitwise(p, length))
          << "offset " << offset << " length " << length;
    }
  }
}

}  // namespace
}  // namespace jacepp::serial
