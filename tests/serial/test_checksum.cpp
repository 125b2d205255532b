// CRC-32 contract: serial::crc32 must give the published ISO-HDLC check
// values and agree with the definition of the polynomial for every length and
// every start alignment. crc32() folds with PCLMULQDQ where the CPU has it
// and runs slicing-by-8 otherwise; crc32_portable() is slicing-by-8 on every
// host, so both paths are checked against the references here wherever the
// suite runs. The lengths cover the 8-byte body, the unaligned head and the
// 1-7 byte tail of slicing-by-8, and the 64-byte minimum, the 64- and
// 16-byte fold steps and the 0-15 byte tail of the folding path.
#include "serial/checksum.hpp"

#include <gtest/gtest.h>

#include <array>
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

/// The classic bytewise table loop: one table load per byte.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Bytes random_bytes(std::size_t size, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Bytes b(size);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
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
      const std::uint32_t expected = crc32_bitwise(p, length);
      ASSERT_EQ(crc32(p, length), expected)
          << "offset " << offset << " length " << length;
      ASSERT_EQ(crc32_portable(p, length), expected)
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, PortableKnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32_portable(reinterpret_cast<const std::uint8_t*>(check.data()),
                           check.size()),
            0xCBF43926u);
  const Bytes zeros(32, 0);
  EXPECT_EQ(crc32_portable(zeros.data(), zeros.size()), 0x190A55ADu);
  EXPECT_EQ(crc32_portable(nullptr, 0), 0u);
}

TEST(Crc32, BytewiseReferenceMatchesTheBitwiseDefinition) {
  const Bytes buffer = random_bytes(300, 3);
  for (std::size_t length = 0; length <= buffer.size(); ++length) {
    ASSERT_EQ(crc32_bytewise(buffer.data(), length),
              crc32_bitwise(buffer.data(), length));
  }
}

TEST(Crc32, BothPathsMatchTheBytewiseReferenceUpToCheckpointSizes) {
  // Every length up to past a paper-workload checkpoint (~3.3 KB), at every
  // start offset within a 16-byte lane.
  const Bytes buffer = random_bytes(4200 + 16, 11);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const std::uint8_t* p = buffer.data() + offset;
    for (std::size_t length = 0; length <= 4200; ++length) {
      const std::uint32_t expected = crc32_bytewise(p, length);
      ASSERT_EQ(crc32(p, length), expected)
          << "offset " << offset << " length " << length;
      ASSERT_EQ(crc32_portable(p, length), expected)
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, BothPathsMatchOnLargeRandomBuffers) {
  // The threaded-runtime workload checkpoints ~89 KB states.
  constexpr std::size_t kSize = 89 * 1024 + 13;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Bytes buffer = random_bytes(kSize, 100 + seed);
    for (const std::size_t offset : {0, 1, 7, 15}) {
      const std::uint8_t* p = buffer.data() + offset;
      const std::size_t length = kSize - offset;
      const std::uint32_t expected = crc32_bytewise(p, length);
      EXPECT_EQ(crc32(p, length), expected) << "seed " << seed;
      EXPECT_EQ(crc32_portable(p, length), expected) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace jacepp::serial
