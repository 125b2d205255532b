// CRC-32 (ISO-HDLC polynomial, the zlib/PNG variant) for frame integrity.
//
// Checkpoint frames (core/checkpoint) carry two of these: one over the frame
// bytes themselves (detects a corrupted frame) and one over the full
// reconstructed state (detects a broken baseline+delta chain even when every
// individual frame is intact). The net/link Batch envelope carries one too.
//
// Two implementations, one answer (DESIGN.md §7):
//   * PCLMULQDQ folding: carry-less multiplies fold four 16-byte lanes per
//     64-byte step, then a Barrett reduction takes the 128-bit remainder to
//     32 bits. Chosen once, by CPUID, when the CPU has PCLMULQDQ and SSE4.1.
//   * Slicing-by-8, the portable path: eight 256-entry tables fold eight
//     input bytes per step with independent table loads. It also finishes
//     the tail the folding leaves (inputs under 64 bytes, the last 0-15
//     bytes otherwise).
// Same polynomial, init and final XOR as the bytewise loop, so every input
// gives the same value on either path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "serial/serial.hpp"

namespace jacepp::serial {

/// CRC-32 of `size` bytes at `data` (init/final XOR 0xFFFFFFFF, reflected).
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

inline std::uint32_t crc32(const Bytes& data) {
  return crc32(data.data(), data.size());
}

/// The slicing-by-8 path alone, whatever the CPU. crc32() returns the same
/// value; tests call this so the portable path stays covered on hosts where
/// crc32() folds with PCLMULQDQ.
std::uint32_t crc32_portable(const std::uint8_t* data, std::size_t size);

}  // namespace jacepp::serial
