// Contract tests for the runtime-dispatched SIMD layer (linalg/simd.hpp,
// DESIGN.md §10):
//   * perf.simd OFF must be bit-identical to the pre-SIMD scalar kernels —
//     pinned against committed golden bit patterns, so any drift in the
//     scalar path (not just an off-vs-on divergence) fails loudly;
//   * perf.simd ON must be bitwise reproducible run to run on a given ISA
//     level, with element-wise kernels and the CSR row kernels (scalar at
//     every level) staying bit-identical to scalar;
//   * off-vs-on must agree at solver precision through CG and the
//     multisplitting engine;
//   * every kernel must handle the remainder lanes: n = 0, 1, width - 1,
//     width, width + 1 for the detected vector width.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "asynciter/multisplit.hpp"
#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/fused.hpp"
#include "linalg/simd.hpp"
#include "linalg/vector_ops.hpp"
#include "poisson/poisson.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::linalg {
namespace {

/// Toggles the `perf.simd` knob for a test body; always restores the default
/// (off) so test order never leaks dispatch state.
struct ScopedSimd {
  explicit ScopedSimd(bool on) { simd::set_enabled(on); }
  ~ScopedSimd() { simd::set_enabled(false); }
};

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- Dispatch plumbing ------------------------------------------------------

TEST(SimdDispatch, OffByDefaultAndKnobControlsActiveLevel) {
  // The knob defaults to off (PerfConfig::simd = false); ScopedSimd in every
  // other test restores that, so here the layer must be dormant.
  EXPECT_FALSE(simd::enabled());
  EXPECT_EQ(simd::active_level(), simd::Level::scalar);

  {
    ScopedSimd on(true);
    EXPECT_TRUE(simd::enabled());
    EXPECT_EQ(simd::active_level(), simd::detected_level());
  }
  EXPECT_FALSE(simd::enabled());
}

TEST(SimdDispatch, LevelNamesAndLaneWidths) {
  EXPECT_STREQ(simd::level_name(simd::Level::scalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::avx2), "avx2");
  EXPECT_EQ(simd::lane_width(simd::Level::scalar), 1u);
  EXPECT_EQ(simd::lane_width(simd::Level::avx2), 4u);
}

// --- Off path: bit-identity against committed goldens -----------------------
// Generated from the scalar kernels (pool size 1, simd off) at the commit
// that introduced the SIMD layer; the off path must reproduce them forever.

constexpr std::uint64_t kGoldenDot = 0xc017a646dfc2a07aULL;  // -5.9123797380963143
constexpr std::uint64_t kGoldenNorm2 = 0x40328d6df212a857ULL;  // 18.552458886675904
constexpr std::uint64_t kGoldenSpmv0 = 0x4097d34978e70f8cULL;  // 1524.8217502692451
constexpr std::uint64_t kGoldenSpmv511 = 0x40793dded6275844ULL;  // 403.86690345162447
constexpr std::uint64_t kGoldenSpmv1023 = 0x40a9c1c2e7d6aa40ULL;  // 3296.8806750376534
constexpr std::uint64_t kGoldenSpmvDot = 0x41367dcfe86bea32ULL;  // 1473999.9078966496

TEST(SimdOffPath, Blas1MatchesCommittedGoldens) {
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);
  ScopedSimd off(false);

  const Vector x = random_vector(1003, 42);
  const Vector y = random_vector(1003, 43);
  EXPECT_EQ(bits(dot(x, y)), kGoldenDot);
  EXPECT_EQ(bits(norm2(x)), kGoldenNorm2);
}

TEST(SimdOffPath, SpmvMatchesCommittedGoldens) {
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);
  ScopedSimd off(false);

  const auto a = poisson::assemble_laplacian(32);
  const Vector xs = random_vector(a.cols(), 7);
  Vector ys;
  a.multiply(xs, ys);
  ASSERT_EQ(ys.size(), 1024u);
  EXPECT_EQ(bits(ys[0]), kGoldenSpmv0);
  EXPECT_EQ(bits(ys[511]), kGoldenSpmv511);
  EXPECT_EQ(bits(ys[1023]), kGoldenSpmv1023);
  EXPECT_EQ(bits(dot(xs, ys)), kGoldenSpmvDot);
}

// --- Remainder lanes --------------------------------------------------------

/// The interesting sizes around the active vector width, plus a mid-size that
/// exercises the unrolled main loop AND a tail.
std::vector<std::size_t> edge_sizes() {
  const std::size_t w = simd::lane_width(simd::detected_level());
  std::vector<std::size_t> sizes = {0, 1, w, w + 1, 3 * w + 1, 1000};
  if (w > 1) sizes.push_back(w - 1);
  return sizes;
}

TEST(SimdRemainderLanes, ElementwiseKernelsBitIdenticalToScalar) {
  ScopedSimd on(true);
  for (const std::size_t n : edge_sizes()) {
    const Vector x = random_vector(n, 100 + n);
    const Vector y0 = random_vector(n, 200 + n);

    // axpy
    Vector y_simd = y0;
    simd::axpy(1.7, x.data(), y_simd.data(), n);
    Vector y_ref = y0;
    for (std::size_t i = 0; i < n; ++i) y_ref[i] += 1.7 * x[i];
    EXPECT_TRUE(bitwise_equal(y_simd, y_ref)) << "axpy n=" << n;

    // axpby
    y_simd = y0;
    simd::axpby(0.3, x.data(), -1.2, y_simd.data(), n);
    y_ref = y0;
    for (std::size_t i = 0; i < n; ++i) y_ref[i] = 0.3 * x[i] - 1.2 * y_ref[i];
    EXPECT_TRUE(bitwise_equal(y_simd, y_ref)) << "axpby n=" << n;

    // scale
    y_simd = y0;
    simd::scale(y_simd.data(), 0.9, n);
    y_ref = y0;
    for (double& v : y_ref) v *= 0.9;
    EXPECT_TRUE(bitwise_equal(y_simd, y_ref)) << "scale n=" << n;

    // hadamard
    Vector out_simd(n), out_ref(n);
    simd::hadamard(x.data(), y0.data(), out_simd.data(), n);
    for (std::size_t i = 0; i < n; ++i) out_ref[i] = x[i] * y0[i];
    EXPECT_TRUE(bitwise_equal(out_simd, out_ref)) << "hadamard n=" << n;

    // sub
    simd::sub(x.data(), y0.data(), out_simd.data(), n);
    for (std::size_t i = 0; i < n; ++i) out_ref[i] = x[i] - y0[i];
    EXPECT_TRUE(bitwise_equal(out_simd, out_ref)) << "sub n=" << n;
  }
}

TEST(SimdRemainderLanes, ReductionsMatchScalarWithinReassociation) {
  ScopedSimd on(true);
  for (const std::size_t n : edge_sizes()) {
    const Vector x = random_vector(n, 300 + n);
    const Vector y = random_vector(n, 400 + n);

    double dot_ref = 0.0, nrm_ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot_ref += x[i] * y[i];
      nrm_ref += x[i] * x[i];
    }
    const double dot_simd = simd::dot(x.data(), y.data(), n);
    const double nrm_simd = simd::dot(x.data(), x.data(), n);
    if (n <= 1) {
      // Empty lanes contribute exact zeros; no reassociation is possible.
      EXPECT_EQ(bits(dot_simd), bits(dot_ref)) << "n=" << n;
      EXPECT_EQ(bits(nrm_simd), bits(nrm_ref)) << "n=" << n;
    } else {
      EXPECT_NEAR(dot_simd, dot_ref, 1e-12 * static_cast<double>(n) + 1e-300)
          << "n=" << n;
      EXPECT_NEAR(nrm_simd, nrm_ref, 1e-12 * static_cast<double>(n) + 1e-300)
          << "n=" << n;
    }

    // axpy_norm2sq: the update half must be bit-identical, the reduction half
    // within reassociation.
    Vector y_simd = y;
    const double r_simd = simd::axpy_norm2sq(-0.8, x.data(), y_simd.data(), n);
    Vector y_ref2 = y;
    double r_ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      y_ref2[i] += -0.8 * x[i];
      r_ref += y_ref2[i] * y_ref2[i];
    }
    EXPECT_TRUE(bitwise_equal(y_simd, y_ref2)) << "axpy_norm2sq update n=" << n;
    EXPECT_NEAR(r_simd, r_ref, 1e-12 * static_cast<double>(n) + 1e-300)
        << "n=" << n;
  }
}

// --- On path: run-to-run bitwise reproducibility ----------------------------

TEST(SimdOnPath, ReductionsBitwiseReproducibleAcrossRuns) {
  ScopedSimd on(true);
  const std::size_t n = 4099;  // forces main loop + remainder lanes
  const Vector x0 = random_vector(n, 9);
  const Vector y0 = random_vector(n, 10);
  const double first = simd::dot(x0.data(), y0.data(), n);

  // Fresh heap copies: different addresses (and so, potentially, different
  // 32-byte phases for the unaligned-load kernels) must not change the bits.
  for (int run = 0; run < 3; ++run) {
    const Vector x(x0);
    const Vector y(y0);
    EXPECT_EQ(bits(simd::dot(x.data(), y.data(), n)), bits(first)) << run;
  }
}

TEST(SimdOnPath, SpmvKernelsBitwiseReproducibleAcrossRuns) {
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);
  ScopedSimd on(true);

  const auto a = poisson::assemble_laplacian(24);
  const Vector x = random_vector(a.cols(), 21);
  const Vector b = random_vector(a.rows(), 22);

  Vector r1, r2;
  const double n1 = spmv_residual_norm2(a, x, b, r1);
  const double n2 = spmv_residual_norm2(a, x, b, r2);
  EXPECT_EQ(bits(n1), bits(n2));
  EXPECT_TRUE(bitwise_equal(r1, r2));

  Vector y1, y2;
  a.multiply(x, y1);
  a.multiply(x, y2);
  EXPECT_TRUE(bitwise_equal(y1, y2));
}

// --- Off vs on: CSR bit-identity, solver-precision parity ------------------

/// Outputs of the four CSR kernels at the current `perf.simd` setting.
struct CsrOutputs {
  Vector y, r, ydot, x_out;
  double rnorm = 0.0, dot = 0.0;
  SweepStats sweep;
};

CsrOutputs run_csr_kernels(const CsrMatrix& a, const Vector& x,
                           const Vector& b, const Vector& inv_diag) {
  CsrOutputs o;
  a.multiply(x, o.y);
  o.rnorm = spmv_residual_norm2(a, x, b, o.r);
  o.dot = spmv_dot(a, x, o.ydot);
  o.x_out.assign(x.size(), 0.0);
  o.sweep = relax_sweep_fused(a, inv_diag, b, x, o.x_out, 0.8, 0, a.rows());
  return o;
}

/// Diagonally dominant band matrix with 13 entries per interior row: wider
/// than two vector registers, so a lane-split row sum cannot hide behind the
/// 5-point stencil's short rows.
CsrMatrix wide_band_matrix(std::size_t n) {
  CsrBuilder builder(n, n);
  Rng rng(33);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r >= 6 ? r - 6 : 0; c < std::min(n, r + 7); ++c) {
      builder.add(r, c, c == r ? 20.0 : rng.uniform(-1.0, 1.0));
    }
  }
  return builder.build();
}

TEST(SimdParity, CsrKernelsBitIdenticalOffVsOn) {
  // The CSR row kernels are scalar at every level (SELL is the vector SpMV),
  // so flipping perf.simd must not move a single bit of their outputs.
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);
  for (const CsrMatrix& a :
       {poisson::assemble_laplacian(32), wide_band_matrix(1000)}) {
    const Vector x = random_vector(a.cols(), 31);
    const Vector b = random_vector(a.rows(), 32);
    Vector inv_diag = a.diagonal();
    for (double& d : inv_diag) d = 1.0 / d;

    CsrOutputs off, on;
    {
      ScopedSimd simd_off(false);
      off = run_csr_kernels(a, x, b, inv_diag);
    }
    {
      ScopedSimd simd_on(true);
      on = run_csr_kernels(a, x, b, inv_diag);
    }
    const std::string rows = " rows=" + std::to_string(a.rows());
    EXPECT_TRUE(bitwise_equal(off.y, on.y)) << "multiply" << rows;
    EXPECT_TRUE(bitwise_equal(off.r, on.r)) << "spmv_residual_norm2" << rows;
    EXPECT_EQ(bits(off.rnorm), bits(on.rnorm)) << "spmv_residual_norm2" << rows;
    EXPECT_TRUE(bitwise_equal(off.ydot, on.ydot)) << "spmv_dot" << rows;
    EXPECT_EQ(bits(off.dot), bits(on.dot)) << "spmv_dot" << rows;
    EXPECT_TRUE(bitwise_equal(off.x_out, on.x_out))
        << "relax_sweep_fused" << rows;
    EXPECT_EQ(bits(off.sweep.diff2), bits(on.sweep.diff2))
        << "relax_sweep_fused" << rows;
    EXPECT_EQ(bits(off.sweep.norm2), bits(on.sweep.norm2))
        << "relax_sweep_fused" << rows;
  }
}

TEST(SimdParity, CgOffVsOnAgreesAtSolverPrecision) {
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);
  const auto problem = poisson::make_default_problem(24);

  CgOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 3000;

  Vector x_off, x_on;
  CgResult res_off, res_on;
  {
    ScopedSimd off(false);
    res_off = conjugate_gradient(problem.a, problem.b, x_off, options);
  }
  {
    ScopedSimd on(true);
    res_on = conjugate_gradient(problem.a, problem.b, x_on, options);
  }
  ASSERT_TRUE(res_off.converged);
  ASSERT_TRUE(res_on.converged);
  EXPECT_LT(distance_inf(x_off, x_on), 1e-7);
}

TEST(SimdParity, MultisplitOffVsOnAgreesAtSolverPrecision) {
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);
  const auto problem = poisson::make_default_problem(16);
  const auto blocks = partition_rows(256, 4, 16, 0);

  asynciter::MultisplitOptions opt;
  opt.tolerance = 1e-9;
  opt.inner.tolerance = 1e-12;
  opt.inner.max_iterations = 2000;
  opt.max_outer_iterations = 5000;

  asynciter::MultisplitResult off, on;
  {
    ScopedSimd simd_off(false);
    off = asynciter::run_multisplitting(problem.a, problem.b, blocks, opt);
  }
  {
    ScopedSimd simd_on(true);
    on = asynciter::run_multisplitting(problem.a, problem.b, blocks, opt);
  }
  ASSERT_TRUE(off.converged);
  ASSERT_TRUE(on.converged);
  EXPECT_LT(distance_inf(off.x, on.x), 1e-7);
}

}  // namespace
}  // namespace jacepp::linalg
