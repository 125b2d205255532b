// Iteration hot-path ablation: one layer at a time —
//   fused      : single-pass SpMV+reduction kernels vs the unfused sequences
//                (micro timings + CG end-to-end), with the pool-size-1
//                bit-identity gate (memcmp over doubles);
//   simd       : the runtime-dispatched vector kernels (linalg/simd.hpp) off
//                vs on — the BLAS-1 reductions and the SELL padded layout
//                (the CSR row kernels are scalar at every level) — with hard
//                gates: element-wise off-vs-on bit-identity, on-path bitwise
//                replay, and CG off-vs-on parity at solver precision.
//                `--simd-level` prints the CPUID-detected dispatch level and
//                exits (run_bench.sh stamps it into the result meta);
//   early_send : boundary-preview publish off vs on in the deployment sim
//                (execution time, iterations, preview traffic) with the same
//                parity discipline as bench_comm — off-vs-on agreement at
//                solver precision plus a bitwise same-seed replay gate;
//   pool       : send-buffer recycling off vs on (make_message encode loop
//                timing + BufferPool counters from a full deployment run).
//
// Output: JSON on stdout (run_bench.sh captures it into BENCH_hotpath.json
// and stamps provenance); human summary on stderr. Exit 0 iff every hard
// gate (bit-identity, parity, replay) holds.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "core/messages.hpp"
#include "linalg/cg.hpp"
#include "linalg/csr_sell.hpp"
#include "linalg/fused.hpp"
#include "linalg/simd.hpp"
#include "net/message.hpp"
#include "serial/buffer_pool.hpp"
#include "support/flags.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

using namespace jacepp;
using namespace jacepp::bench;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Average wall time of fn() over `repeats` runs (one warmup), in ns.
template <typename Fn>
double time_ns(std::size_t repeats, Fn&& fn) {
  fn();  // warmup: touch the pages, warm the pool
  const double start = now_ms();
  for (std::size_t i = 0; i < repeats; ++i) fn();
  return (now_ms() - start) * 1e6 / static_cast<double>(repeats);
}

bool bitwise_equal(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double max_abs_diff(const linalg::Vector& a, const linalg::Vector& b) {
  if (a.size() != b.size()) return -1.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

linalg::Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Vector v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// --- Layer 1: fused kernels ------------------------------------------------

struct KernelRow {
  double fused_ns = 0.0;
  double unfused_ns = 0.0;
  int passes_fused = 0;    ///< memory passes over the dominant array
  int passes_unfused = 0;
  bool bit_identical = false;  ///< pool-1 fused == unfused, memcmp
};

void print_kernel_row(const char* key, const KernelRow& r, bool last) {
  std::printf(
      "      \"%s\": {\"fused_ns\": %.0f, \"unfused_ns\": %.0f, "
      "\"speedup\": %.3f, \"passes_fused\": %d, \"passes_unfused\": %d, "
      "\"bit_identical_pool1\": %s}%s\n",
      key, r.fused_ns, r.unfused_ns,
      r.fused_ns > 0.0 ? r.unfused_ns / r.fused_ns : 0.0, r.passes_fused,
      r.passes_unfused, r.bit_identical ? "true" : "false", last ? "" : ",");
}

struct FusedReport {
  std::size_t side = 0;
  std::size_t repeats = 0;
  KernelRow residual;
  KernelRow dot;
  KernelRow axpy;
  double cg_fused_ms = 0.0;
  double cg_unfused_ms = 0.0;
  std::size_t cg_iterations = 0;
  bool cg_bit_identical = false;
  bool ok = false;
};

FusedReport run_fused(std::size_t side, std::size_t repeats) {
  // Pool size 1 throughout: the fusion payoff is fewer memory passes, which
  // shows serially, and serial is where the bit-identity contract is exact.
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);

  FusedReport rep;
  rep.side = side;
  rep.repeats = repeats;
  const auto a = poisson::assemble_laplacian(side);
  const std::size_t n = a.rows();
  const linalg::Vector x = random_vector(n, 1001);
  const linalg::Vector b = random_vector(n, 1002);

  // r = b - Ax, ||r||: fused single pass vs multiply + residual + norm2.
  {
    linalg::Vector r_f;
    linalg::Vector ax;
    linalg::Vector r_u;
    double nf = 0.0;
    double nu = 0.0;
    rep.residual.fused_ns = time_ns(
        repeats, [&] { nf = linalg::spmv_residual_norm2(a, x, b, r_f); });
    rep.residual.unfused_ns = time_ns(repeats, [&] {
      a.multiply(x, ax);
      linalg::residual(b, ax, r_u);
      nu = linalg::norm2(r_u);
    });
    rep.residual.passes_fused = 1;
    rep.residual.passes_unfused = 3;
    rep.residual.bit_identical = bitwise_equal(r_f, r_u) && nf == nu;
  }

  // y = Ax, <x,y>: fused vs multiply + dot.
  {
    linalg::Vector y_f;
    linalg::Vector y_u;
    double df = 0.0;
    double du = 0.0;
    rep.dot.fused_ns =
        time_ns(repeats, [&] { df = linalg::spmv_dot(a, x, y_f); });
    rep.dot.unfused_ns = time_ns(repeats, [&] {
      a.multiply(x, y_u);
      du = linalg::dot(x, y_u);
    });
    rep.dot.passes_fused = 1;
    rep.dot.passes_unfused = 2;
    rep.dot.bit_identical = bitwise_equal(y_f, y_u) && df == du;
  }

  // y += alpha x, ||y||: fused vs axpy + norm2. The mutation accumulates, but
  // both arms run the same count so the timing comparison stays fair; the
  // bit-identity check uses fresh copies.
  {
    linalg::Vector y_f = b;
    linalg::Vector y_u = b;
    double nf = 0.0;
    double nu = 0.0;
    rep.axpy.fused_ns =
        time_ns(repeats, [&] { nf = linalg::axpy_norm2(1e-6, x, y_f); });
    rep.axpy.unfused_ns = time_ns(repeats, [&] {
      linalg::axpy(1e-6, x, y_u);
      nu = linalg::norm2(y_u);
    });
    linalg::Vector cf = b;
    linalg::Vector cu = b;
    const double one_f = linalg::axpy_norm2(-0.5, x, cf);
    linalg::axpy(-0.5, x, cu);
    const double one_u = linalg::norm2(cu);
    rep.axpy.passes_fused = 1;
    rep.axpy.passes_unfused = 2;
    rep.axpy.bit_identical = bitwise_equal(cf, cu) && one_f == one_u;
  }

  // CG end-to-end: same matrix, zero start, fixed tolerance.
  {
    linalg::CgOptions opt;
    opt.tolerance = 1e-8;
    opt.max_iterations = 10 * n;
    linalg::Vector x_f;
    linalg::Vector x_u;
    linalg::CgResult res_f;
    linalg::CgResult res_u;
    opt.fused = true;
    rep.cg_fused_ms = time_ns(3, [&] {
                        x_f.assign(n, 0.0);
                        res_f = linalg::conjugate_gradient(a, b, x_f, opt);
                      }) /
                      1e6;
    opt.fused = false;
    rep.cg_unfused_ms = time_ns(3, [&] {
                          x_u.assign(n, 0.0);
                          res_u = linalg::conjugate_gradient(a, b, x_u, opt);
                        }) /
                        1e6;
    rep.cg_iterations = res_f.iterations;
    rep.cg_bit_identical = bitwise_equal(x_f, x_u) &&
                           res_f.iterations == res_u.iterations &&
                           res_f.residual_norm == res_u.residual_norm;
  }

  rep.ok = rep.residual.bit_identical && rep.dot.bit_identical &&
           rep.axpy.bit_identical && rep.cg_bit_identical;
  return rep;
}

// --- Layer 1b: SIMD dispatch -------------------------------------------------

struct SimdKernelRow {
  double off_ns = 0.0;
  double on_ns = 0.0;
};

void print_simd_row(const char* key, const SimdKernelRow& r, bool last) {
  std::printf("      \"%s\": {\"off_ns\": %.0f, \"on_ns\": %.0f, "
              "\"speedup\": %.3f}%s\n",
              key, r.off_ns, r.on_ns,
              r.on_ns > 0.0 ? r.off_ns / r.on_ns : 0.0, last ? "" : ",");
}

struct SimdReport {
  std::size_t side = 0;
  std::size_t repeats = 0;
  SimdKernelRow axpy_norm2;
  SimdKernelRow dot;
  SimdKernelRow sell_spmv;  ///< off = CSR (scalar), on = SELL simd-on
  double sell_fill_ratio = 0.0;
  double cg_off_ms = 0.0;
  double cg_on_ms = 0.0;
  double cg_parity_diff = -1.0;
  bool elementwise_bit_identical = false;
  bool replay_bitwise = false;
  double spmv_off_on_diff = -1.0;
  bool ok = false;
};

SimdReport run_simd(std::size_t side, std::size_t repeats) {
  // Pool size 1: isolates the vector-unit effect from thread scaling, and is
  // where the element-wise bit-identity gate is exact.
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);

  SimdReport rep;
  rep.side = side;
  rep.repeats = repeats;
  const auto a = poisson::assemble_laplacian(side);
  const std::size_t n = a.rows();
  const linalg::Vector x = random_vector(n, 2001);
  const linalg::Vector b = random_vector(n, 2002);

  const auto timed_both = [&](SimdKernelRow& row, auto&& fn) {
    linalg::simd::set_enabled(false);
    row.off_ns = time_ns(repeats, fn);
    linalg::simd::set_enabled(true);
    row.on_ns = time_ns(repeats, fn);
    linalg::simd::set_enabled(false);
  };

  double acc = 0.0;
  {
    linalg::Vector ym = b;
    timed_both(rep.axpy_norm2,
               [&] { acc = linalg::axpy_norm2(1e-9, x, ym); });
  }
  timed_both(rep.dot, [&] { acc = linalg::dot(x, b); });
  (void)acc;

  // SELL vs CSR with the vector unit on. CSR runs its scalar rows at every
  // level, so this is the whole gain of the vector SpMV.
  {
    const linalg::SellMatrix sell(a);
    linalg::Vector y;
    rep.sell_fill_ratio = sell.fill_ratio();
    linalg::simd::set_enabled(true);
    rep.sell_spmv.off_ns = time_ns(repeats, [&] { a.multiply(x, y); });
    rep.sell_spmv.on_ns = time_ns(repeats, [&] { sell.multiply(x, y); });
    linalg::simd::set_enabled(false);
  }

  // Gate 1: element-wise kernels must be bit-identical off vs on.
  {
    linalg::Vector y_off = b;
    linalg::Vector y_on = b;
    linalg::simd::set_enabled(false);
    linalg::axpy(0.37, x, y_off);
    linalg::simd::set_enabled(true);
    linalg::axpy(0.37, x, y_on);
    linalg::simd::set_enabled(false);
    rep.elementwise_bit_identical = bitwise_equal(y_off, y_on);
  }

  // Gate 2: on-path bitwise replay + off-vs-on SpMV parity.
  {
    linalg::Vector y_off, y_on, y_replay;
    linalg::simd::set_enabled(false);
    a.multiply(x, y_off);
    linalg::simd::set_enabled(true);
    a.multiply(x, y_on);
    a.multiply(x, y_replay);
    linalg::simd::set_enabled(false);
    rep.replay_bitwise = bitwise_equal(y_on, y_replay);
    rep.spmv_off_on_diff = max_abs_diff(y_off, y_on);
  }

  // Gate 3: CG end-to-end, off vs on, parity at solver precision.
  {
    linalg::CgOptions opt;
    opt.tolerance = 1e-8;
    opt.max_iterations = 10 * n;
    linalg::Vector x_off, x_on;
    linalg::simd::set_enabled(false);
    rep.cg_off_ms = time_ns(3, [&] {
                      x_off.assign(n, 0.0);
                      (void)linalg::conjugate_gradient(a, b, x_off, opt);
                    }) /
                    1e6;
    linalg::simd::set_enabled(true);
    rep.cg_on_ms = time_ns(3, [&] {
                     x_on.assign(n, 0.0);
                     (void)linalg::conjugate_gradient(a, b, x_on, opt);
                   }) /
                   1e6;
    linalg::simd::set_enabled(false);
    rep.cg_parity_diff = max_abs_diff(x_off, x_on);
  }

  rep.ok = rep.elementwise_bit_identical && rep.replay_bitwise &&
           rep.spmv_off_on_diff >= 0.0 && rep.spmv_off_on_diff < 1e-9 &&
           rep.cg_parity_diff >= 0.0 && rep.cg_parity_diff < 1e-6;
  return rep;
}

// --- Layer 2: early halo publish -------------------------------------------

struct EarlyRun {
  ExperimentOutcome outcome;
  linalg::Vector solution;
  std::uint64_t sent_data = 0;
  std::uint64_t iterations = 0;
};

EarlyRun run_early(const ExperimentParams& p, bool early_send) {
  auto config = make_config(p);
  config.perf.early_send = early_send;
  core::SimDeployment deployment(config);
  EarlyRun r;
  r.outcome.report = deployment.run();
  r.outcome.completed = r.outcome.report.spawner.completed;
  r.outcome.execution_time = r.outcome.report.spawner.execution_time();
  r.solution = poisson::assemble_solution(p.n, p.tasks,
                                          r.outcome.report.spawner.final_payloads);
  poisson::PoissonConfig pc;
  pc.n = static_cast<std::uint32_t>(p.n);
  r.outcome.residual = poisson::poisson_relative_residual(pc, r.solution);
  const auto& sent = r.outcome.report.net.sent_by_type;
  const auto it = sent.find(core::msg::TaskData::kType);
  r.sent_data = it == sent.end() ? 0 : it->second;
  r.iterations = r.outcome.report.total_iterations_completed;
  return r;
}

void print_early_run(const char* key, const EarlyRun& r, bool last) {
  std::printf(
      "      \"%s\": {\"completed\": %s, \"execution_time_s\": %.3f, "
      "\"residual\": %.6e, \"iterations\": %" PRIu64
      ", \"sent_data_messages\": %" PRIu64 "}%s\n",
      key, r.outcome.completed ? "true" : "false", r.outcome.execution_time,
      r.outcome.residual, r.iterations, r.sent_data, last ? "" : ",");
}

// --- Layer 3: pooled send buffers ------------------------------------------

struct PoolReport {
  double pooled_ns = 0.0;
  double unpooled_ns = 0.0;
  serial::BufferPool::Stats deploy_stats;  ///< counters from the early-off run
  bool deploy_completed = false;
};

PoolReport run_pool(const ExperimentParams& p, std::size_t encode_repeats) {
  PoolReport rep;
  auto& pool = serial::BufferPool::instance();

  // Encode loop: the per-message send path, pool on vs off. A boundary line
  // at the paper's n = 2000 is the payload.
  core::msg::TaskData data;
  data.app_id = 1;
  data.from_task = 0;
  data.to_task = 1;
  serial::Writer w;
  w.f64_vector(random_vector(2000, 7));
  data.payload = w.take();
  pool.set_enabled(true);
  pool.reset();
  rep.pooled_ns = time_ns(encode_repeats, [&] {
    const auto m = net::make_message(data);
    (void)m;
  });
  pool.set_enabled(false);
  rep.unpooled_ns = time_ns(encode_repeats, [&] {
    const auto m = net::make_message(data);
    (void)m;
  });
  pool.set_enabled(true);
  pool.reset();

  // Full deployment run with pooling on: how much of the real message
  // traffic the free list absorbs once warm.
  auto config = make_config(p);
  config.perf.pool_buffers = true;
  core::SimDeployment deployment(config);
  const auto report = deployment.run();
  rep.deploy_completed = report.spawner.completed;
  rep.deploy_stats = pool.stats();
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("bench_hotpath",
                "Iteration hot-path ablation: fused kernels, early halo "
                "publish and pooled send buffers, one layer at a time");
  auto smoke = flags.add_bool("smoke", false, "small fast run for CI");
  auto seed = flags.add_uint("seed", 42, "base seed");
  auto simd_level = flags.add_bool(
      "simd-level", false,
      "print the CPUID-detected SIMD dispatch level and exit");
  flags.parse(argc, argv);

  if (*simd_level) {
    std::printf("%s\n",
                linalg::simd::level_name(linalg::simd::detected_level()));
    return 0;
  }

  const std::size_t side = *smoke ? 64 : 160;
  const std::size_t repeats = *smoke ? 20 : 60;

  std::fprintf(stderr, "== fused kernels (side %zu, pool 1) ==\n", side);
  const FusedReport fused = run_fused(side, repeats);

  std::fprintf(stderr, "== simd dispatch (detected %s) ==\n",
               linalg::simd::level_name(linalg::simd::detected_level()));
  const SimdReport simd = run_simd(side, repeats);

  ExperimentParams p;
  p.seed = *seed;
  if (*smoke) {
    p.n = 48;
    p.tasks = 6;
    p.daemons = 10;
    p.super_peers = 2;
    p.max_sim_time = 2000.0;
  } else {
    p.n = 96;
    p.tasks = 12;
    p.daemons = 20;
    p.super_peers = 3;
    p.max_sim_time = 4000.0;
  }
  // Solver-precision convergence so the off-vs-on parity comparison means
  // something (same discipline as bench_comm).
  p.convergence_threshold = 1e-9;
  p.stable_required = 5;
  p.inner_tolerance = 1e-10;

  std::fprintf(stderr, "== early send OFF ==\n");
  const EarlyRun early_off = run_early(p, false);
  std::fprintf(stderr, "== early send ON ==\n");
  const EarlyRun early_on = run_early(p, true);
  std::fprintf(stderr, "== early send ON (replay) ==\n");
  const EarlyRun early_replay = run_early(p, true);

  const bool replay_bitwise =
      bitwise_equal(early_on.solution, early_replay.solution);
  const double off_on_diff = max_abs_diff(early_off.solution, early_on.solution);
  const bool early_parity = replay_bitwise && early_off.outcome.completed &&
                            early_on.outcome.completed &&
                            early_off.outcome.residual < 1e-4 &&
                            early_on.outcome.residual < 1e-4 &&
                            off_on_diff >= 0.0 && off_on_diff < 1e-4;

  std::fprintf(stderr, "== buffer pool ==\n");
  const PoolReport pool = run_pool(p, *smoke ? 2000 : 10000);
  const std::uint64_t pool_acquires =
      pool.deploy_stats.reuses + pool.deploy_stats.misses;
  const double reuse_rate =
      pool_acquires == 0
          ? 0.0
          : static_cast<double>(pool.deploy_stats.reuses) /
                static_cast<double>(pool_acquires);

  const bool pass =
      fused.ok && simd.ok && early_parity && pool.deploy_completed;

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_hotpath\",\n");
  std::printf("  \"smoke\": %s,\n", *smoke ? "true" : "false");
  std::printf("  \"fused\": {\n");
  std::printf("    \"grid_side\": %zu,\n", fused.side);
  std::printf("    \"repeats\": %zu,\n", fused.repeats);
  std::printf("    \"kernels\": {\n");
  print_kernel_row("spmv_residual_norm2", fused.residual, false);
  print_kernel_row("spmv_dot", fused.dot, false);
  print_kernel_row("axpy_norm2", fused.axpy, true);
  std::printf("    },\n");
  std::printf("    \"cg\": {\"fused_ms\": %.3f, \"unfused_ms\": %.3f, "
              "\"speedup\": %.3f, \"iterations\": %zu, "
              "\"bit_identical_pool1\": %s},\n",
              fused.cg_fused_ms, fused.cg_unfused_ms,
              fused.cg_fused_ms > 0.0 ? fused.cg_unfused_ms / fused.cg_fused_ms
                                      : 0.0,
              fused.cg_iterations, fused.cg_bit_identical ? "true" : "false");
  std::printf("    \"ok\": %s\n", fused.ok ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"simd\": {\n");
  std::printf("    \"level_detected\": \"%s\",\n",
              linalg::simd::level_name(linalg::simd::detected_level()));
  std::printf("    \"grid_side\": %zu,\n", simd.side);
  std::printf("    \"repeats\": %zu,\n", simd.repeats);
  std::printf("    \"kernels\": {\n");
  print_simd_row("axpy_norm2", simd.axpy_norm2, false);
  print_simd_row("dot", simd.dot, true);
  std::printf("    },\n");
  std::printf("    \"sell\": {\"fill_ratio\": %.4f, \"csr_on_ns\": %.0f, "
              "\"sell_on_ns\": %.0f, \"speedup\": %.3f},\n",
              simd.sell_fill_ratio, simd.sell_spmv.off_ns,
              simd.sell_spmv.on_ns,
              simd.sell_spmv.on_ns > 0.0
                  ? simd.sell_spmv.off_ns / simd.sell_spmv.on_ns
                  : 0.0);
  std::printf("    \"cg\": {\"off_ms\": %.3f, \"on_ms\": %.3f, "
              "\"speedup\": %.3f, \"parity_max_abs_diff\": %.6e},\n",
              simd.cg_off_ms, simd.cg_on_ms,
              simd.cg_on_ms > 0.0 ? simd.cg_off_ms / simd.cg_on_ms : 0.0,
              simd.cg_parity_diff);
  std::printf("    \"elementwise_bit_identical\": %s,\n",
              simd.elementwise_bit_identical ? "true" : "false");
  std::printf("    \"replay_bitwise\": %s,\n",
              simd.replay_bitwise ? "true" : "false");
  std::printf("    \"spmv_off_vs_on_max_abs_diff\": %.6e,\n",
              simd.spmv_off_on_diff);
  std::printf("    \"ok\": %s\n", simd.ok ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"early_send\": {\n");
  std::printf("    \"params\": {\"n\": %zu, \"tasks\": %u, \"daemons\": %zu, "
              "\"seed\": %" PRIu64 "},\n",
              p.n, p.tasks, p.daemons, static_cast<std::uint64_t>(*seed));
  std::printf("    \"runs\": {\n");
  print_early_run("off", early_off, false);
  print_early_run("on", early_on, true);
  std::printf("    },\n");
  std::printf("    \"execution_time_change\": %.4f,\n",
              early_off.outcome.execution_time > 0.0
                  ? early_on.outcome.execution_time /
                            early_off.outcome.execution_time -
                        1.0
                  : 0.0);
  std::printf("    \"replay_bitwise\": %s,\n", replay_bitwise ? "true" : "false");
  std::printf("    \"off_vs_on_max_abs_diff\": %.6e,\n", off_on_diff);
  std::printf("    \"ok\": %s\n", early_parity ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"pool\": {\n");
  std::printf("    \"encode\": {\"pooled_ns\": %.0f, \"unpooled_ns\": %.0f, "
              "\"speedup\": %.3f},\n",
              pool.pooled_ns, pool.unpooled_ns,
              pool.pooled_ns > 0.0 ? pool.unpooled_ns / pool.pooled_ns : 0.0);
  std::printf("    \"deployment\": {\"completed\": %s, \"reuses\": %" PRIu64
              ", \"misses\": %" PRIu64 ", \"returns\": %" PRIu64
              ", \"dropped\": %" PRIu64 ", \"reuse_rate\": %.4f}\n",
              pool.deploy_completed ? "true" : "false",
              pool.deploy_stats.reuses, pool.deploy_stats.misses,
              pool.deploy_stats.returns, pool.deploy_stats.dropped, reuse_rate);
  std::printf("  },\n");
  std::printf("  \"ok\": %s\n", pass ? "true" : "false");
  std::printf("}\n");

  std::fprintf(stderr,
               "\nfused      : residual %.0f->%.0f ns, dot %.0f->%.0f ns, "
               "axpy %.0f->%.0f ns, cg %.2f->%.2f ms, bit-identical %s\n",
               fused.residual.unfused_ns, fused.residual.fused_ns,
               fused.dot.unfused_ns, fused.dot.fused_ns, fused.axpy.unfused_ns,
               fused.axpy.fused_ns, fused.cg_unfused_ms, fused.cg_fused_ms,
               fused.ok ? "yes" : "NO");
  std::fprintf(stderr,
               "simd       : %s; axpy_norm2 %.0f->%.0f ns, dot %.0f->%.0f ns, "
               "sell spmv %.0f->%.0f ns, cg %.2f->%.2f ms, gates %s\n",
               linalg::simd::level_name(linalg::simd::detected_level()),
               simd.axpy_norm2.off_ns, simd.axpy_norm2.on_ns,
               simd.dot.off_ns, simd.dot.on_ns, simd.sell_spmv.off_ns,
               simd.sell_spmv.on_ns, simd.cg_off_ms, simd.cg_on_ms,
               simd.ok ? "yes" : "NO");
  std::fprintf(stderr,
               "early send : exec %.1f -> %.1f s, data msgs %" PRIu64
               " -> %" PRIu64 ", replay bitwise %s, off-vs-on |diff| %.3e\n",
               early_off.outcome.execution_time,
               early_on.outcome.execution_time, early_off.sent_data,
               early_on.sent_data, replay_bitwise ? "yes" : "NO", off_on_diff);
  std::fprintf(stderr,
               "pool       : encode %.0f -> %.0f ns, deployment reuse rate "
               "%.1f%% (%" PRIu64 " reuses / %" PRIu64 " acquires)\n",
               pool.unpooled_ns, pool.pooled_ns, 100.0 * reuse_rate,
               pool.deploy_stats.reuses, pool_acquires);
  std::fprintf(stderr, "acceptance : %s (bit-identity + parity + replay)\n",
               pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
