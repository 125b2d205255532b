// Word-wise FNV-style digest folding for golden-pin tests and bench
// determinism checks: fold each observable (a counter, or a double's bit
// pattern) into one u64, and compare that u64 against a pinned value or a
// replay. The pinned digests in the tests depend on this exact shape, so it
// must not change.
#pragma once

#include <bit>
#include <cstdint>

namespace jacepp {

/// Folds one 64-bit word into `h` (XOR, then multiply by the FNV-1 prime).
[[nodiscard]] inline std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ull;
}

/// Bit pattern of a double, for folding sim times and norms exactly.
[[nodiscard]] inline std::uint64_t bits_of(double d) {
  return std::bit_cast<std::uint64_t>(d);
}

}  // namespace jacepp
