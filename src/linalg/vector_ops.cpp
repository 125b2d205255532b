#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "linalg/simd.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::linalg {

namespace {

std::atomic<std::size_t> g_grain_override{0};

}  // namespace

std::size_t vector_op_grain() {
  const std::size_t override_grain = g_grain_override.load(std::memory_order_acquire);
  return override_grain != 0 ? override_grain : kVectorOpGrain;
}

std::size_t spmv_row_grain() {
  return std::max<std::size_t>(vector_op_grain() / 4, 1);
}

void set_kernel_grain(std::size_t grain) {
  g_grain_override.store(std::min<std::size_t>(grain, std::size_t{1} << 24),
                         std::memory_order_release);
}

void axpy(double alpha, const Vector& x, Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  double* ys = y.data();
  compute_pool().parallel_for(0, x.size(), vector_op_grain(),
                              [=](std::size_t lo, std::size_t hi) {
                                simd::axpy(alpha, xs + lo, ys + lo, hi - lo);
                              });
}

void axpby(double alpha, const Vector& x, double beta, Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  double* ys = y.data();
  compute_pool().parallel_for(0, x.size(), vector_op_grain(),
                              [=](std::size_t lo, std::size_t hi) {
                                simd::axpby(alpha, xs + lo, beta, ys + lo,
                                            hi - lo);
                              });
}

double dot(const Vector& x, const Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  const double* ys = y.data();
  return compute_pool().parallel_reduce(
      0, x.size(), vector_op_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        return simd::dot(xs + lo, ys + lo, hi - lo);
      },
      [](double a, double b) { return a + b; });
}

double norm2(const Vector& x) { return std::sqrt(dot(x, x)); }

double norm_inf(const Vector& x) {
  const double* xs = x.data();
  return compute_pool().parallel_reduce(
      0, x.size(), vector_op_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        double m = 0.0;
        for (std::size_t i = lo; i < hi; ++i) m = std::max(m, std::fabs(xs[i]));
        return m;
      },
      [](double a, double b) { return std::max(a, b); });
}

double distance2(const Vector& x, const Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  // Max-norm and distance kernels stay scalar: they live on convergence
  // checks, not the per-iteration hot path.
  const double* xs = x.data();
  const double* ys = y.data();
  const double acc = compute_pool().parallel_reduce(
      0, x.size(), vector_op_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        double partial = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          const double d = xs[i] - ys[i];
          partial += d * d;
        }
        return partial;
      },
      [](double a, double b) { return a + b; });
  return std::sqrt(acc);
}

double distance_inf(const Vector& x, const Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  const double* ys = y.data();
  return compute_pool().parallel_reduce(
      0, x.size(), vector_op_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        double m = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          m = std::max(m, std::fabs(xs[i] - ys[i]));
        }
        return m;
      },
      [](double a, double b) { return std::max(a, b); });
}

void hadamard(const Vector& x, const Vector& y, Vector& out) {
  JACEPP_ASSERT(x.size() == y.size());
  out.resize(x.size());
  const double* xs = x.data();
  const double* ys = y.data();
  double* os = out.data();
  compute_pool().parallel_for(0, x.size(), vector_op_grain(),
                              [=](std::size_t lo, std::size_t hi) {
                                simd::hadamard(xs + lo, ys + lo, os + lo,
                                               hi - lo);
                              });
}

void scale(Vector& x, double alpha) {
  double* xs = x.data();
  compute_pool().parallel_for(0, x.size(), vector_op_grain(),
                              [=](std::size_t lo, std::size_t hi) {
                                simd::scale(xs + lo, alpha, hi - lo);
                              });
}

void fill(Vector& x, double value) {
  double* xs = x.data();
  compute_pool().parallel_for(0, x.size(), vector_op_grain(),
                              [=](std::size_t lo, std::size_t hi) {
                                for (std::size_t i = lo; i < hi; ++i) xs[i] = value;
                              });
}

void residual(const Vector& b, const Vector& ax, Vector& r) {
  JACEPP_ASSERT(b.size() == ax.size());
  r.resize(b.size());
  const double* bs = b.data();
  const double* as = ax.data();
  double* rs = r.data();
  compute_pool().parallel_for(0, b.size(), vector_op_grain(),
                              [=](std::size_t lo, std::size_t hi) {
                                simd::sub(bs + lo, as + lo, rs + lo, hi - lo);
                              });
}

}  // namespace jacepp::linalg
