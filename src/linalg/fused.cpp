#include "linalg/fused.hpp"

#include <cmath>

#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::linalg {

double spmv_residual_norm2(const CsrMatrix& a, const Vector& x, const Vector& b,
                           Vector& r) {
  JACEPP_ASSERT(x.size() == a.cols());
  JACEPP_ASSERT(b.size() == a.rows());
  r.resize(a.rows());
  const std::uint32_t* row_ptr = a.row_ptr().data();
  const std::uint32_t* col_idx = a.col_idx().data();
  const double* values = a.values().data();
  const double* xs = x.data();
  const double* bs = b.data();
  double* rs = r.data();
  const double acc = compute_pool().parallel_reduce(
      0, a.rows(), spmv_row_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        return simd::spmv_residual(row_ptr, col_idx, values, xs, bs, rs, lo, hi);
      },
      [](double a_, double b_) { return a_ + b_; });
  return std::sqrt(acc);
}

double spmv_dot(const CsrMatrix& a, const Vector& x, Vector& y) {
  JACEPP_ASSERT(x.size() == a.cols());
  JACEPP_ASSERT(a.rows() == a.cols());
  y.resize(a.rows());
  const std::uint32_t* row_ptr = a.row_ptr().data();
  const std::uint32_t* col_idx = a.col_idx().data();
  const double* values = a.values().data();
  const double* xs = x.data();
  double* ys = y.data();
  return compute_pool().parallel_reduce(
      0, a.rows(), spmv_row_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        return simd::spmv_dot(row_ptr, col_idx, values, xs, ys, lo, hi);
      },
      [](double a_, double b_) { return a_ + b_; });
}

double axpy_norm2(double alpha, const Vector& x, Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  double* ys = y.data();
  const double acc = compute_pool().parallel_reduce(
      0, x.size(), vector_op_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        return simd::axpy_norm2sq(alpha, xs + lo, ys + lo, hi - lo);
      },
      [](double a_, double b_) { return a_ + b_; });
  return std::sqrt(acc);
}

SweepStats relax_sweep_fused(const CsrMatrix& a, const Vector& inv_diag,
                             const Vector& b, const Vector& x_in, Vector& x_out,
                             double omega, std::size_t row_lo,
                             std::size_t row_hi) {
  JACEPP_ASSERT(row_lo <= row_hi && row_hi <= a.rows());
  JACEPP_ASSERT(x_in.size() == a.cols());
  JACEPP_ASSERT(x_out.size() == x_in.size());
  JACEPP_ASSERT(inv_diag.size() == a.rows() && b.size() == a.rows());
  JACEPP_ASSERT(x_in.data() != x_out.data());
  const std::uint32_t* row_ptr = a.row_ptr().data();
  const std::uint32_t* col_idx = a.col_idx().data();
  const double* values = a.values().data();
  const double* inv_d = inv_diag.data();
  const double* bs = b.data();
  const double* xin = x_in.data();
  double* xout = x_out.data();
  return compute_pool().parallel_reduce(
      row_lo, row_hi, spmv_row_grain(), SweepStats{},
      [=](std::size_t lo, std::size_t hi) {
        return simd::relax_sweep(row_ptr, col_idx, values, inv_d, bs, xin, xout,
                                 omega, lo, hi);
      },
      [](SweepStats a_, const SweepStats& b_) {
        a_.diff2 += b_.diff2;
        a_.norm2 += b_.norm2;
        return a_;
      });
}

}  // namespace jacepp::linalg
