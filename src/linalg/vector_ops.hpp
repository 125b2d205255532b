// Dense vector kernels. Vectors are std::vector<double> over a 64-byte
// aligned allocator (support/aligned.hpp) so kernel operands start on a cache
// line; these free functions provide the BLAS-1 level operations the solvers
// need.
//
// Every kernel runs through compute_pool() (support/thread_pool.hpp): serial
// and bit-identical to a plain loop when the pool size is 1, chunked across
// workers in units of vector_op_grain() elements otherwise. Reductions merge
// their chunk partials in index order, so a given pool size >= 2 always
// reproduces the same floating-point result. Changing the grain moves chunk
// boundaries (and so may reassociate reductions for pool sizes >= 2), but for
// any FIXED grain the chunk-stability contract holds across all pool sizes
// >= 2, and the pool-size-1 result never depends on the grain at all.
//
// Each chunk body of the BLAS-1 kernels is a linalg/simd.hpp entry point.
// With `perf.simd` off (the default) that is the scalar table, a plain loop;
// on, it is the dispatched vector kernel: element-wise kernels stay
// bit-identical, reductions reassociate within fixed-width lanes (still
// bitwise reproducible run to run on a given ISA).
#pragma once

#include <cstddef>
#include <vector>

#include "support/aligned.hpp"

namespace jacepp::linalg {

/// Kernel operand vector: std::vector<double> semantics, 64-byte-aligned
/// storage. Interchangeable with std::vector<double> everywhere except the
/// type itself (the serializer templates over the allocator).
using Vector = support::AlignedVector<double>;

/// Default elements per parallel chunk: ranges shorter than this always run
/// serially. The live value is vector_op_grain().
inline constexpr std::size_t kVectorOpGrain = 4096;

/// Current elements-per-chunk for BLAS-1 kernels: the `perf.grain` override if
/// set_kernel_grain() installed one, else kVectorOpGrain.
[[nodiscard]] std::size_t vector_op_grain();

/// Current rows-per-chunk for CSR row-loop kernels: vector_op_grain() / 4
/// (clamped to >= 1), preserving the stock 4096:1024 ratio — a row of the
/// ~5 nnz stencils we sweep costs a few elements' worth of work.
[[nodiscard]] std::size_t spmv_row_grain();

/// Install a process-wide grain override (`perf.grain`); 0 restores the
/// built-in default. Not synchronized against kernels already
/// in flight — set it at deployment build time, like ScopedComputePool.
void set_kernel_grain(std::size_t grain);

/// y += alpha * x  (sizes must match).
void axpy(double alpha, const Vector& x, Vector& y);

/// y = alpha * x + beta * y.
void axpby(double alpha, const Vector& x, double beta, Vector& y);

/// Dot product <x, y>.
double dot(const Vector& x, const Vector& y);

/// Euclidean norm.
double norm2(const Vector& x);

/// Max-norm.
double norm_inf(const Vector& x);

/// ||x - y||_2 (sizes must match).
double distance2(const Vector& x, const Vector& y);

/// ||x - y||_inf.
double distance_inf(const Vector& x, const Vector& y);

/// out[i] = x[i] * y[i] (sizes must match; out is resized).
void hadamard(const Vector& x, const Vector& y, Vector& out);

/// x *= alpha.
void scale(Vector& x, double alpha);

/// x = value everywhere.
void fill(Vector& x, double value);

/// r = b - (matvec result), computed by caller; helper: r = b - ax.
void residual(const Vector& b, const Vector& ax, Vector& r);

}  // namespace jacepp::linalg
