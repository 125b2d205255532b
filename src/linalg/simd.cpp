#include "linalg/simd.hpp"

#include <atomic>

// The intrinsics paths are x86-only and rely on GCC/Clang function
// multiversioning (`__attribute__((target(...)))`) so a TU compiled for
// baseline x86-64 can still define AVX2 bodies; the dispatcher guarantees a
// body only runs after CPUID proved the ISA. Everything else falls back to
// the scalar table.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define JACEPP_SIMD_X86 1
#include <immintrin.h>
#endif

namespace jacepp::linalg::simd {

namespace {

std::atomic<bool> g_enabled{false};

// --- scalar table ------------------------------------------------------------
// The only scalar copy of each BLAS-1 kernel: what every call site in
// vector_ops.cpp / fused.cpp runs when the layer is off (the default), and the
// portable fallback for non-x86 builds. The CSR row kernels, scalar at every
// level, follow the dispatch section.

double dot_scalar(const double* x, const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void axpy_scalar(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void axpby_scalar(double alpha, const double* x, double beta, double* y,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

void scale_scalar(double* x, double alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void hadamard_scalar(const double* x, const double* y, double* out,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * y[i];
}

void sub_scalar(const double* a, const double* b, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

double axpy_norm2sq_scalar(double alpha, const double* x, double* y,
                           std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
    acc += y[i] * y[i];
  }
  return acc;
}

#if defined(JACEPP_SIMD_X86)

// --- AVX2 table --------------------------------------------------------------

__attribute__((target("avx2"))) inline double hsum256(__m256d v) {
  // Fixed lane order: ((l0 + l1) + l2) + l3 — deterministic for a given input.
  double lanes[4];
  _mm256_storeu_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

__attribute__((target("avx2"))) double dot_avx2(const double* x,
                                                const double* y,
                                                std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                                             _mm256_loadu_pd(y + i + 4)));
  }
  if (i + 4 <= n) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    i += 4;
  }
  double acc = hsum256(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

__attribute__((target("avx2"))) void axpy_avx2(double alpha, const double* x,
                                               double* y, std::size_t n) {
  const __m256d a = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yv = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(yv, _mm256_mul_pd(a, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void axpby_avx2(double alpha, const double* x,
                                                double beta, double* y,
                                                std::size_t n) {
  const __m256d a = _mm256_set1_pd(alpha);
  const __m256d bb = _mm256_set1_pd(beta);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ax = _mm256_mul_pd(a, _mm256_loadu_pd(x + i));
    const __m256d by = _mm256_mul_pd(bb, _mm256_loadu_pd(y + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(ax, by));
  }
  for (; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

__attribute__((target("avx2"))) void scale_avx2(double* x, double alpha,
                                                std::size_t n) {
  const __m256d a = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), a));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2"))) void hadamard_avx2(const double* x,
                                                   const double* y, double* out,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] * y[i];
}

__attribute__((target("avx2"))) void sub_avx2(const double* a, const double* b,
                                              double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

__attribute__((target("avx2"))) double axpy_norm2sq_avx2(double alpha,
                                                         const double* x,
                                                         double* y,
                                                         std::size_t n) {
  const __m256d a = _mm256_set1_pd(alpha);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yv = _mm256_add_pd(_mm256_loadu_pd(y + i),
                                     _mm256_mul_pd(a, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(y + i, yv);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(yv, yv));
  }
  double partial = hsum256(acc);
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
    partial += y[i] * y[i];
  }
  return partial;
}

#endif  // JACEPP_SIMD_X86

// --- dispatch ---------------------------------------------------------------

struct Ops {
  double (*dot)(const double*, const double*, std::size_t);
  void (*axpy)(double, const double*, double*, std::size_t);
  void (*axpby)(double, const double*, double, double*, std::size_t);
  void (*scale)(double*, double, std::size_t);
  void (*hadamard)(const double*, const double*, double*, std::size_t);
  void (*sub)(const double*, const double*, double*, std::size_t);
  double (*axpy_norm2sq)(double, const double*, double*, std::size_t);
};

constexpr Ops kScalarOps = {
    dot_scalar,      axpy_scalar, axpby_scalar,       scale_scalar,
    hadamard_scalar, sub_scalar,  axpy_norm2sq_scalar,
};

#if defined(JACEPP_SIMD_X86)
constexpr Ops kAvx2Ops = {
    dot_avx2,      axpy_avx2, axpby_avx2,       scale_avx2,
    hadamard_avx2, sub_avx2,  axpy_norm2sq_avx2,
};
#endif

const Ops& active_ops() {
#if defined(JACEPP_SIMD_X86)
  if (active_level() == Level::avx2) return kAvx2Ops;
#endif
  return kScalarOps;
}

}  // namespace

Level detected_level() {
#if defined(JACEPP_SIMD_X86)
  static const Level level =
      __builtin_cpu_supports("avx2") ? Level::avx2 : Level::scalar;
  return level;
#else
  return Level::scalar;
#endif
}

const char* level_name(Level level) {
  return level == Level::avx2 ? "avx2" : "scalar";
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_release); }

bool enabled() { return g_enabled.load(std::memory_order_acquire); }

Level active_level() { return enabled() ? detected_level() : Level::scalar; }

std::size_t lane_width(Level level) { return level == Level::avx2 ? 4 : 1; }

double dot(const double* x, const double* y, std::size_t n) {
  return active_ops().dot(x, y, n);
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  active_ops().axpy(alpha, x, y, n);
}

void axpby(double alpha, const double* x, double beta, double* y,
           std::size_t n) {
  active_ops().axpby(alpha, x, beta, y, n);
}

void scale(double* x, double alpha, std::size_t n) {
  active_ops().scale(x, alpha, n);
}

void hadamard(const double* x, const double* y, double* out, std::size_t n) {
  active_ops().hadamard(x, y, out, n);
}

void sub(const double* a, const double* b, double* out, std::size_t n) {
  active_ops().sub(a, b, out, n);
}

double axpy_norm2sq(double alpha, const double* x, double* y, std::size_t n) {
  return active_ops().axpy_norm2sq(alpha, x, y, n);
}

// --- CSR row-block kernels ---------------------------------------------------
// Scalar at every level (see simd.hpp), so no dispatch: each entry point is
// the one copy of its loop, out of line here like the scalar table.

void spmv_add(const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
              const double* values, const double* x, double* y,
              std::size_t row_lo, std::size_t row_hi) {
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    double acc = 0.0;
    for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      acc += values[k] * x[col_idx[k]];
    }
    y[r] += acc;
  }
}

double spmv_residual(const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
                     const double* values, const double* x, const double* b,
                     double* r, std::size_t row_lo, std::size_t row_hi) {
  double partial = 0.0;
  for (std::size_t row = row_lo; row < row_hi; ++row) {
    double ax = 0.0;
    for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      ax += values[k] * x[col_idx[k]];
    }
    const double d = b[row] - ax;
    r[row] = d;
    partial += d * d;
  }
  return partial;
}

double spmv_dot(const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
                const double* values, const double* x, double* y,
                std::size_t row_lo, std::size_t row_hi) {
  double partial = 0.0;
  for (std::size_t row = row_lo; row < row_hi; ++row) {
    double ax = 0.0;
    for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      ax += values[k] * x[col_idx[k]];
    }
    y[row] = ax;
    partial += x[row] * ax;
  }
  return partial;
}

SweepStats relax_sweep(const std::uint32_t* row_ptr,
                       const std::uint32_t* col_idx, const double* values,
                       const double* inv_diag, const double* b,
                       const double* x_in, double* x_out, double omega,
                       std::size_t row_lo, std::size_t row_hi) {
  SweepStats partial;
  for (std::size_t row = row_lo; row < row_hi; ++row) {
    double ax = 0.0;
    for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      ax += values[k] * x_in[col_idx[k]];
    }
    const double update = omega * inv_diag[row] * (b[row] - ax);
    const double v = x_in[row] + update;
    x_out[row] = v;
    partial.diff2 += update * update;
    partial.norm2 += v * v;
  }
  return partial;
}

}  // namespace jacepp::linalg::simd
