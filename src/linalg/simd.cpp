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
// The only scalar copy of each kernel: what every call site in vector_ops.cpp
// / fused.cpp / csr.cpp runs when the layer is off (the default), and the
// portable fallback for non-x86 builds.

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

void spmv_add_scalar(const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
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

double spmv_residual_scalar(const std::uint32_t* row_ptr,
                            const std::uint32_t* col_idx, const double* values,
                            const double* x, const double* b, double* r,
                            std::size_t row_lo, std::size_t row_hi) {
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

double spmv_dot_scalar(const std::uint32_t* row_ptr,
                       const std::uint32_t* col_idx, const double* values,
                       const double* x, double* y, std::size_t row_lo,
                       std::size_t row_hi) {
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

SweepStats relax_sweep_scalar(const std::uint32_t* row_ptr,
                              const std::uint32_t* col_idx,
                              const double* values, const double* inv_diag,
                              const double* b, const double* x_in,
                              double* x_out, double omega, std::size_t row_lo,
                              std::size_t row_hi) {
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

#if defined(JACEPP_SIMD_X86)

// --- SSE2 table --------------------------------------------------------------
// 2-lane BLAS-1 kernels. SSE2 has no gather, so the CSR row kernels reuse the
// scalar bodies (the dispatcher fills those slots with the scalar pointers).

__attribute__((target("sse2"))) inline double hsum128(__m128d v) {
  // Fixed lane order: low + high.
  double lanes[2];
  _mm_storeu_pd(lanes, v);
  return lanes[0] + lanes[1];
}

__attribute__((target("sse2"))) double dot_sse2(const double* x,
                                                const double* y,
                                                std::size_t n) {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_loadu_pd(x + i), _mm_loadu_pd(y + i)));
    acc1 = _mm_add_pd(acc1,
                      _mm_mul_pd(_mm_loadu_pd(x + i + 2), _mm_loadu_pd(y + i + 2)));
  }
  if (i + 2 <= n) {
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_loadu_pd(x + i), _mm_loadu_pd(y + i)));
    i += 2;
  }
  double acc = hsum128(_mm_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

__attribute__((target("sse2"))) void axpy_sse2(double alpha, const double* x,
                                               double* y, std::size_t n) {
  const __m128d a = _mm_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d yv = _mm_loadu_pd(y + i);
    _mm_storeu_pd(y + i, _mm_add_pd(yv, _mm_mul_pd(a, _mm_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("sse2"))) void axpby_sse2(double alpha, const double* x,
                                                double beta, double* y,
                                                std::size_t n) {
  const __m128d a = _mm_set1_pd(alpha);
  const __m128d bb = _mm_set1_pd(beta);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d ax = _mm_mul_pd(a, _mm_loadu_pd(x + i));
    const __m128d by = _mm_mul_pd(bb, _mm_loadu_pd(y + i));
    _mm_storeu_pd(y + i, _mm_add_pd(ax, by));
  }
  for (; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

__attribute__((target("sse2"))) void scale_sse2(double* x, double alpha,
                                                std::size_t n) {
  const __m128d a = _mm_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(x + i, _mm_mul_pd(_mm_loadu_pd(x + i), a));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("sse2"))) void hadamard_sse2(const double* x,
                                                   const double* y, double* out,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, _mm_mul_pd(_mm_loadu_pd(x + i), _mm_loadu_pd(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] * y[i];
}

__attribute__((target("sse2"))) void sub_sse2(const double* a, const double* b,
                                              double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

__attribute__((target("sse2"))) double axpy_norm2sq_sse2(double alpha,
                                                         const double* x,
                                                         double* y,
                                                         std::size_t n) {
  const __m128d a = _mm_set1_pd(alpha);
  __m128d acc = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d yv =
        _mm_add_pd(_mm_loadu_pd(y + i), _mm_mul_pd(a, _mm_loadu_pd(x + i)));
    _mm_storeu_pd(y + i, yv);
    acc = _mm_add_pd(acc, _mm_mul_pd(yv, yv));
  }
  double partial = hsum128(acc);
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
    partial += y[i] * y[i];
  }
  return partial;
}

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

/// One CSR row: Σ_k values[k] * x[cols[k]] with 4-wide 32-bit gathers over
/// the nnz loop; the lane sum is hsum256's fixed order, then the scalar tail.
///
/// The gather uses the MASKED form with a freshly zeroed merge source on
/// purpose: vgatherdpd merges unmasked lanes from its destination register,
/// so the plain _mm256_i32gather_pd intrinsic lets the compiler create a
/// false dependency on whatever the register last held — which can chain
/// consecutive rows' gathers behind each other's multiplies and serialize the
/// row loop (observed 2x slowdown in the residual kernel). A zeroed source is
/// a dependency-breaking idiom, so rows stay independent for the OoO core.
__attribute__((target("avx2"))) inline double row_dot_avx2(
    const std::uint32_t* cols, const double* vals, std::uint32_t nnz,
    const double* x) {
  double acc = 0.0;
  std::uint32_t k = 0;
  if (nnz >= 4) {
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    __m256d vacc = _mm256_setzero_pd();
    for (; k + 4 <= nnz; k += 4) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols + k));
      const __m256d xv =
          _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx, all, 8);
      vacc = _mm256_add_pd(vacc, _mm256_mul_pd(_mm256_loadu_pd(vals + k), xv));
    }
    acc = hsum256(vacc);
  }
  for (; k < nnz; ++k) acc += vals[k] * x[cols[k]];
  return acc;
}

__attribute__((target("avx2"))) void spmv_add_avx2(
    const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
    const double* values, const double* x, double* y, std::size_t row_lo,
    std::size_t row_hi) {
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    const std::uint32_t begin = row_ptr[r];
    y[r] += row_dot_avx2(col_idx + begin, values + begin, row_ptr[r + 1] - begin, x);
  }
}

/// Two passes on purpose: interleaving the scalar b[] stream and its
/// dependent subtract/square chain with the gather loop stalls the gathers
/// (measured ~2x slower than scalar on 5-nnz stencil rows; the dot-shaped
/// kernel below is immune because its scalar load x[row] hits the line the
/// gather just touched). Pass 1 stores the raw row dots into r, pass 2 is a
/// 4-lane streaming fixup with the usual fixed-order hsum + scalar tail —
/// deterministic per ISA like every other on-path reduction. Requires r to
/// alias neither x nor b, which the fused.cpp wrappers guarantee.
__attribute__((target("avx2"))) double spmv_residual_avx2(
    const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
    const double* values, const double* x, const double* b, double* r,
    std::size_t row_lo, std::size_t row_hi) {
  for (std::size_t row = row_lo; row < row_hi; ++row) {
    const std::uint32_t begin = row_ptr[row];
    r[row] =
        row_dot_avx2(col_idx + begin, values + begin, row_ptr[row + 1] - begin, x);
  }
  __m256d acc = _mm256_setzero_pd();
  std::size_t row = row_lo;
  for (; row + 4 <= row_hi; row += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(b + row), _mm256_loadu_pd(r + row));
    _mm256_storeu_pd(r + row, d);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double partial = hsum256(acc);
  for (; row < row_hi; ++row) {
    const double d = b[row] - r[row];
    r[row] = d;
    partial += d * d;
  }
  return partial;
}

__attribute__((target("avx2"))) double spmv_dot_avx2(
    const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
    const double* values, const double* x, double* y, std::size_t row_lo,
    std::size_t row_hi) {
  double partial = 0.0;
  for (std::size_t row = row_lo; row < row_hi; ++row) {
    const std::uint32_t begin = row_ptr[row];
    const double ax =
        row_dot_avx2(col_idx + begin, values + begin, row_ptr[row + 1] - begin, x);
    y[row] = ax;
    partial += x[row] * ax;
  }
  return partial;
}

/// Same two-pass split as spmv_residual_avx2 (see comment there): pass 1
/// parks the raw row dots in x_out, pass 2 streams the Jacobi update over
/// them with 4-lane accumulators and the fixed-order hsum. Requires x_out
/// to alias none of the inputs, which a Jacobi sweep needs anyway.
__attribute__((target("avx2"))) SweepStats relax_sweep_avx2(
    const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
    const double* values, const double* inv_diag, const double* b,
    const double* x_in, double* x_out, double omega, std::size_t row_lo,
    std::size_t row_hi) {
  for (std::size_t row = row_lo; row < row_hi; ++row) {
    const std::uint32_t begin = row_ptr[row];
    x_out[row] = row_dot_avx2(col_idx + begin, values + begin,
                              row_ptr[row + 1] - begin, x_in);
  }
  const __m256d om = _mm256_set1_pd(omega);
  __m256d diff_acc = _mm256_setzero_pd();
  __m256d norm_acc = _mm256_setzero_pd();
  std::size_t row = row_lo;
  for (; row + 4 <= row_hi; row += 4) {
    const __m256d upd = _mm256_mul_pd(
        _mm256_mul_pd(om, _mm256_loadu_pd(inv_diag + row)),
        _mm256_sub_pd(_mm256_loadu_pd(b + row), _mm256_loadu_pd(x_out + row)));
    const __m256d v = _mm256_add_pd(_mm256_loadu_pd(x_in + row), upd);
    _mm256_storeu_pd(x_out + row, v);
    diff_acc = _mm256_add_pd(diff_acc, _mm256_mul_pd(upd, upd));
    norm_acc = _mm256_add_pd(norm_acc, _mm256_mul_pd(v, v));
  }
  SweepStats partial;
  partial.diff2 = hsum256(diff_acc);
  partial.norm2 = hsum256(norm_acc);
  for (; row < row_hi; ++row) {
    const double update = omega * inv_diag[row] * (b[row] - x_out[row]);
    const double v = x_in[row] + update;
    x_out[row] = v;
    partial.diff2 += update * update;
    partial.norm2 += v * v;
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
  void (*spmv_add)(const std::uint32_t*, const std::uint32_t*, const double*,
                   const double*, double*, std::size_t, std::size_t);
  double (*spmv_residual)(const std::uint32_t*, const std::uint32_t*,
                          const double*, const double*, const double*, double*,
                          std::size_t, std::size_t);
  double (*spmv_dot)(const std::uint32_t*, const std::uint32_t*, const double*,
                     const double*, double*, std::size_t, std::size_t);
  SweepStats (*relax_sweep)(const std::uint32_t*, const std::uint32_t*,
                            const double*, const double*, const double*,
                            const double*, double*, double, std::size_t,
                            std::size_t);
};

constexpr Ops kScalarOps = {
    dot_scalar,      axpy_scalar,        axpby_scalar,    scale_scalar,
    hadamard_scalar, sub_scalar,         axpy_norm2sq_scalar,
    spmv_add_scalar, spmv_residual_scalar, spmv_dot_scalar, relax_sweep_scalar,
};

#if defined(JACEPP_SIMD_X86)
constexpr Ops kSse2Ops = {
    dot_sse2,        axpy_sse2,          axpby_sse2,      scale_sse2,
    hadamard_sse2,   sub_sse2,           axpy_norm2sq_sse2,
    // No gather below AVX2: the CSR row kernels stay scalar at this level.
    spmv_add_scalar, spmv_residual_scalar, spmv_dot_scalar, relax_sweep_scalar,
};

constexpr Ops kAvx2Ops = {
    dot_avx2,        axpy_avx2,          axpby_avx2,      scale_avx2,
    hadamard_avx2,   sub_avx2,           axpy_norm2sq_avx2,
    spmv_add_avx2,   spmv_residual_avx2, spmv_dot_avx2,   relax_sweep_avx2,
};
#endif

const Ops& ops_for(Level level) {
#if defined(JACEPP_SIMD_X86)
  switch (level) {
    case Level::avx2:
      return kAvx2Ops;
    case Level::sse2:
      return kSse2Ops;
    case Level::scalar:
      break;
  }
#else
  (void)level;
#endif
  return kScalarOps;
}

const Ops& active_ops() { return ops_for(active_level()); }

}  // namespace

Level detected_level() {
#if defined(JACEPP_SIMD_X86)
  static const Level level = [] {
    if (__builtin_cpu_supports("avx2")) return Level::avx2;
    if (__builtin_cpu_supports("sse2")) return Level::sse2;
    return Level::scalar;
  }();
  return level;
#else
  return Level::scalar;
#endif
}

const char* level_name(Level level) {
  switch (level) {
    case Level::avx2:
      return "avx2";
    case Level::sse2:
      return "sse2";
    case Level::scalar:
      break;
  }
  return "scalar";
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_release); }

bool enabled() { return g_enabled.load(std::memory_order_acquire); }

Level active_level() { return enabled() ? detected_level() : Level::scalar; }

std::size_t lane_width(Level level) {
  switch (level) {
    case Level::avx2:
      return 4;
    case Level::sse2:
      return 2;
    case Level::scalar:
      break;
  }
  return 1;
}

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

void spmv_add(const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
              const double* values, const double* x, double* y,
              std::size_t row_lo, std::size_t row_hi) {
  active_ops().spmv_add(row_ptr, col_idx, values, x, y, row_lo, row_hi);
}

double spmv_residual(const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
                     const double* values, const double* x, const double* b,
                     double* r, std::size_t row_lo, std::size_t row_hi) {
  return active_ops().spmv_residual(row_ptr, col_idx, values, x, b, r, row_lo,
                                    row_hi);
}

double spmv_dot(const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
                const double* values, const double* x, double* y,
                std::size_t row_lo, std::size_t row_hi) {
  return active_ops().spmv_dot(row_ptr, col_idx, values, x, y, row_lo, row_hi);
}

SweepStats relax_sweep(const std::uint32_t* row_ptr,
                       const std::uint32_t* col_idx, const double* values,
                       const double* inv_diag, const double* b,
                       const double* x_in, double* x_out, double omega,
                       std::size_t row_lo, std::size_t row_hi) {
  return active_ops().relax_sweep(row_ptr, col_idx, values, inv_diag, b, x_in,
                                  x_out, omega, row_lo, row_hi);
}

}  // namespace jacepp::linalg::simd
