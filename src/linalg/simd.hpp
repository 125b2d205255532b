// Portable-intrinsics SIMD layer for the iteration hot path (DESIGN.md §10).
//
// One binary carries two implementations of every BLAS-1 kernel — AVX2 and
// scalar — and picks AVX2 when the executing CPU supports it, once, via
// CPUID (detected_level()). Every chunk of the BLAS-1 and CSR kernels in
// vector_ops.cpp / fused.cpp / csr.cpp runs through these entry points; the
// scalar bodies in simd.cpp are the only scalar copy of those loops. The
// vector table sits behind the `perf.simd` knob: with set_enabled(false) (the
// default) active_level() is scalar, so every call runs the scalar table. The
// CSR row kernels are scalar at every level: the padded SELL layout
// (csr_sell.hpp) is the vector SpMV.
//
// Determinism contract (mirrors the fused-kernel contract in fused.hpp):
//   * enabled: each reduction uses FIXED-width lane accumulators and reduces
//     the lanes in a fixed order, so for a given (input, chunking, ISA level)
//     the result is bitwise reproducible run to run. Results may differ from
//     the scalar path only by floating-point reassociation across lanes;
//     solvers see off-vs-on agreement at solver precision (tested).
//   * element-wise kernels (axpy, axpby, scale, hadamard, sub) and the CSR
//     row kernels perform the exact per-element operations of the scalar
//     loop, so they stay bit-identical to scalar at every level.
//
// These are CHUNK kernels: the thread-pool call sites keep their existing
// grain-based chunking (support/thread_pool.hpp) and invoke one of these per
// chunk, so pool determinism (chunk boundaries, merge order) is unchanged.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jacepp::linalg {

/// Partial sums produced by one fused relaxation sweep (relax_sweep_fused in
/// fused.hpp, one chunk of it here).
struct SweepStats {
  double diff2 = 0.0;  ///< sum of squared per-row updates
  double norm2 = 0.0;  ///< sum of squared new values
};

}  // namespace jacepp::linalg

namespace jacepp::linalg::simd {

/// ISA dispatch level, ordered by width.
enum class Level : int { scalar = 0, avx2 = 1 };

/// Widest level the executing CPU supports (CPUID, evaluated once).
[[nodiscard]] Level detected_level();

/// Lowercase name for reports and bench metadata: "scalar" or "avx2".
[[nodiscard]] const char* level_name(Level level);

/// `perf.simd` knob: process-wide, set at deployment build time (like
/// set_kernel_grain). Off by default. Each chunk reads it, so flipping it
/// while a kernel is in flight can mix levels within that call.
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// detected_level() when enabled, Level::scalar otherwise.
[[nodiscard]] Level active_level();

/// Doubles per vector register at `level` (1 / 4) — the unit tests use it
/// to build remainder-lane edge cases (n = width ± 1).
[[nodiscard]] std::size_t lane_width(Level level);

// --- BLAS-1 chunk kernels ---------------------------------------------------

/// Σ x[i] * y[i].
[[nodiscard]] double dot(const double* x, const double* y, std::size_t n);

/// y[i] += alpha * x[i].
void axpy(double alpha, const double* x, double* y, std::size_t n);

/// y[i] = alpha * x[i] + beta * y[i].
void axpby(double alpha, const double* x, double beta, double* y,
           std::size_t n);

/// x[i] *= alpha.
void scale(double* x, double alpha, std::size_t n);

/// out[i] = x[i] * y[i].
void hadamard(const double* x, const double* y, double* out, std::size_t n);

/// out[i] = a[i] - b[i].
void sub(const double* a, const double* b, double* out, std::size_t n);

/// y[i] += alpha * x[i]; returns Σ y[i]² (post-update) — the fused
/// residual-update kernel of fused.cpp.
[[nodiscard]] double axpy_norm2sq(double alpha, const double* x, double* y,
                                  std::size_t n);

// --- CSR row-block chunk kernels -------------------------------------------
// All operate on rows [row_lo, row_hi) of a CsrMatrix's raw arrays. Scalar at
// every level: gathering 5-nnz stencil rows lost to the scalar loop, so the
// vector SpMV is SellMatrix (csr_sell.hpp).

/// y[r] += Σ_k values[k] * x[col_idx[k]].
void spmv_add(const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
              const double* values, const double* x, double* y,
              std::size_t row_lo, std::size_t row_hi);

/// r[row] = b[row] - (A x)[row]; returns Σ r[row]² over the range.
[[nodiscard]] double spmv_residual(const std::uint32_t* row_ptr,
                                   const std::uint32_t* col_idx,
                                   const double* values, const double* x,
                                   const double* b, double* r,
                                   std::size_t row_lo, std::size_t row_hi);

/// y[row] = (A x)[row]; returns Σ x[row] * y[row] over the range (square
/// sweep).
[[nodiscard]] double spmv_dot(const std::uint32_t* row_ptr,
                              const std::uint32_t* col_idx,
                              const double* values, const double* x, double* y,
                              std::size_t row_lo, std::size_t row_hi);

/// x_out[row] = x_in[row] + omega * inv_diag[row] * (b[row] - (A x_in)[row]);
/// accumulates diff2 / norm2 over the range.
[[nodiscard]] SweepStats relax_sweep(const std::uint32_t* row_ptr,
                                     const std::uint32_t* col_idx,
                                     const double* values,
                                     const double* inv_diag, const double* b,
                                     const double* x_in, double* x_out,
                                     double omega, std::size_t row_lo,
                                     std::size_t row_hi);

}  // namespace jacepp::linalg::simd
