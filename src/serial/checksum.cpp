#include "serial/checksum.hpp"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define JACEPP_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace jacepp::serial {

namespace {

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

constexpr Crc32Tables kTables = make_crc32_tables();

/// Little-endian 32-bit load from any alignment; compilers fold it to one
/// load on little-endian hosts.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Slicing-by-8 over the raw (pre-final-XOR) CRC state `c`.
std::uint32_t update_portable(std::uint32_t c, const std::uint8_t* data,
                              std::size_t size) {
  const auto& t = kTables;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef JACEPP_CRC32_CLMUL

__attribute__((target("pclmul,sse4.1"))) inline __m128i load(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries the 128-bit lane x forward by the distance k encodes and adds
/// (XORs) it onto y.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x,
                                                             __m128i k,
                                                             __m128i y) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), y);
}

/// Carry-less-multiply folding over the raw CRC state `c`, after Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
/// (Intel, 2009), in the bit-reflected domain. `size` must be at least 64
/// and a multiple of 16. The fold constants are x^k mod P(x) for the
/// distances folded (k1/k2: 512 +- 32 bits, k3/k4: 128 +- 32, k5: 64), and
/// the last pair is P(x) and the Barrett constant floor(x^64 / P(x)), all
/// bit-reflected.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t update_clmul(
    std::uint32_t c, const std::uint8_t* data, std::size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load(data), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(data + 16);
  __m128i x3 = load(data + 32);
  __m128i x4 = load(data + 48);
  data += 64;
  size -= 64;

  // Four independent lanes, each folded 512 bits forward per step.
  for (; size >= 64; data += 64, size -= 64) {
    x1 = fold(x1, k1k2, load(data));
    x2 = fold(x2, k1k2, load(data + 16));
    x3 = fold(x3, k1k2, load(data + 32));
    x4 = fold(x4, k1k2, load(data + 48));
  }

  // Merge the lanes into one, then fold any 16-byte blocks left.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; data += 16, size -= 16) {
    x1 = fold(x1, k3k4, load(data));
  }

  // 128 -> 64 bits.
  __m128i x2r = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2r);
  x2r = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
  x1 = _mm_xor_si128(x1, x2r);

  // Barrett reduction 64 -> 32 bits.
  x2r = _mm_and_si128(x1, low32);
  x2r = _mm_clmulepi64_si128(x2r, poly_mu, 0x10);
  x2r = _mm_and_si128(x2r, low32);
  x2r = _mm_clmulepi64_si128(x2r, poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, x2r);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

/// CPUID, read once per process.
bool use_clmul() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return supported;
}

#endif  // JACEPP_CRC32_CLMUL

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
#ifdef JACEPP_CRC32_CLMUL
  if (size >= 64 && use_clmul()) {
    const std::size_t bulk = size & ~std::size_t{15};
    c = update_clmul(c, data, bulk);
    data += bulk;
    size -= bulk;
  }
#endif
  return update_portable(c, data, size) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_portable(const std::uint8_t* data, std::size_t size) {
  return update_portable(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

}  // namespace jacepp::serial
