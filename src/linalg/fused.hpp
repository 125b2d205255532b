// Fused iteration-hot-path kernels: each combines an SpMV or BLAS-1 update
// with the reduction that immediately follows it in the solvers, so the
// dominant per-iteration loops touch memory once instead of twice-to-three
// times.
//
// Determinism: every kernel performs exactly the floating-point operations of
// its unfused sequence, in the same per-element order, so with a pool of
// size 1 the results are bit-identical to running the unfused kernels
// back-to-back. With pool size >= 2 the fused reductions chunk by
// spmv_row_grain() / vector_op_grain() and merge partials in chunk-index
// order — stable across pool sizes >= 2 like every other kernel, though the
// chunk boundaries (and so the reassociation) may differ from the unfused
// two-pass sequence.
#pragma once

#include <cstddef>

#include "linalg/csr.hpp"
#include "linalg/simd.hpp"
#include "linalg/vector_ops.hpp"

namespace jacepp::linalg {

/// r = b - A x in one pass over the matrix rows; returns ||r||_2.
/// Replaces multiply() + residual() + norm2(). r is resized to a.rows().
double spmv_residual_norm2(const CsrMatrix& a, const Vector& x, const Vector& b,
                           Vector& r);

/// y = A x in one pass; returns <x, y>. Replaces multiply() + dot(x, y)
/// (the CG "p·Ap" step). y is resized to a.rows(); requires a square sweep
/// (x.size() == a.cols() == a.rows()).
double spmv_dot(const CsrMatrix& a, const Vector& x, Vector& y);

/// y += alpha * x in one pass; returns ||y||_2 afterwards. Replaces
/// axpy() + norm2() (the CG residual-update step). Chunks by
/// vector_op_grain() exactly like the unfused pair, so the result matches it
/// bit-for-bit at EVERY pool size, not just 1.
double axpy_norm2(double alpha, const Vector& x, Vector& y);

/// One weighted-Jacobi sweep over rows [row_lo, row_hi) of A, fused with the
/// update statistics:
///   x_out[r] = x_in[r] + omega * inv_diag[r] * (b[r] - (A x_in)[r])
/// Rows outside the window are untouched in x_out (it must already be sized
/// like x_in). x_in and x_out must be distinct buffers — every chunk reads
/// only x_in, keeping the sweep chunk-stable under parallel execution.
/// Used by the early-halo-publish path to pre-relax boundary rows before the
/// full inner solve.
SweepStats relax_sweep_fused(const CsrMatrix& a, const Vector& inv_diag,
                             const Vector& b, const Vector& x_in, Vector& x_out,
                             double omega, std::size_t row_lo,
                             std::size_t row_hi);

}  // namespace jacepp::linalg
