// Allocation regression suite (DESIGN.md §9). Global operator new/delete are
// replaced by counting versions, so a test can assert how many heap
// allocations a call makes. After a warm-up call has sized every scratch
// buffer, the iteration hot path must make none: the BLAS-1 and SpMV kernels,
// conjugate_gradient with a workspace, PoissonTask::iterate and on_data. A
// small simulated deployment pins a ceiling on allocations per iteration over
// a steady-state window, for the paths that still allocate by design (one
// shared holder per message, the simulator's event closures, message decode).
//
// Sanitizer runtimes install their own allocator, so under ASan and TSan the
// counters are not compiled in and every test skips.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/daemon.hpp"
#include "core/deployment.hpp"
#include "linalg/cg.hpp"
#include "linalg/fused.hpp"
#include "linalg/vector_ops.hpp"
#include "poisson/block_task.hpp"
#include "serial/serial.hpp"
#include "support/thread_pool.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define JACEPP_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define JACEPP_ALLOC_COUNTING 0
#endif
#endif
#ifndef JACEPP_ALLOC_COUNTING
#define JACEPP_ALLOC_COUNTING 1
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

#if JACEPP_ALLOC_COUNTING
// The array and nothrow forms of the standard library forward to these, so
// they see every allocation the program makes.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

// GCC pairs the inlined std::free with the operator new at each call site
// and warns, though both sides of the pair are the replacements above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
#endif

namespace jacepp {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = allocations();
  fn();
  return allocations() - before;
}

/// Skips under sanitizers and pins the kernel pool to one lane, whatever
/// JACEPP_THREADS says, so every kernel runs as one chunk on the caller.
class AllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!JACEPP_ALLOC_COUNTING) {
      GTEST_SKIP() << "allocation counting is off under sanitizers";
    }
  }

  ThreadPool pool_{1};
  ScopedComputePool scoped_{pool_};
};

linalg::Vector ramp(std::size_t n, double scale) {
  linalg::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = scale * static_cast<double>(i % 17) - 3.0;
  }
  return v;
}

TEST_F(AllocTest, CountersSeeAllocations) {
  // Guards the harness itself: a suite whose counter never moves would pass
  // every zero-allocation assertion below.
  std::vector<int> kept;
  EXPECT_EQ(allocations_during([&] { kept.assign(3, 7); }), 1u);
  EXPECT_EQ(allocations_during([] { linalg::Vector v(64, 1.0); }), 1u);
}

TEST_F(AllocTest, VectorKernelsAllocateNothing) {
  const std::size_t n = 3 * linalg::kVectorOpGrain + 5;
  const linalg::Vector x = ramp(n, 0.25);
  linalg::Vector y = ramp(n, -0.5);
  linalg::Vector out(n);
  const linalg::CsrMatrix a = poisson::assemble_local_laplacian(64, 0, 64 * 64);
  const linalg::Vector ax_in = ramp(a.cols(), 0.125);
  linalg::Vector ax(a.rows());
  double sink = 0.0;
  EXPECT_EQ(allocations_during([&] {
              linalg::axpy(0.5, x, y);
              linalg::axpby(1.0, x, 0.25, y);
              sink += linalg::dot(x, y) + linalg::norm2(y) +
                      linalg::norm_inf(y) + linalg::distance2(x, y);
              linalg::hadamard(x, y, out);
              linalg::scale(out, 0.5);
              linalg::residual(x, y, out);
              linalg::fill(out, 1.0);
              a.multiply(ax_in, ax);
              a.multiply_add(ax_in, ax);
              sink += linalg::spmv_dot(a, ax_in, ax);
              sink += linalg::spmv_residual_norm2(a, ax_in, ax_in, ax);
              sink += linalg::axpy_norm2(-0.5, ax_in, ax);
            }),
            0u);
  EXPECT_TRUE(sink == sink);  // keeps the reductions observable
}

TEST_F(AllocTest, ParallelForClosuresStayOffTheHeap) {
  // A closure larger than std::function's inline buffer: before
  // parallel_for became a template, every call heap-allocated its copy.
  double a = 1.0, b = 2.0, c = 3.0, d = 4.0, e = 5.0;
  double total = 0.0;
  EXPECT_EQ(allocations_during([&] {
              compute_pool().parallel_for(
                  0, 1000, 4096, [&, a, b, c, d, e](std::size_t lo,
                                                    std::size_t hi) {
                    total += static_cast<double>(hi - lo) * (a + b + c + d + e);
                  });
            }),
            0u);
  EXPECT_EQ(total, 15000.0);
}

TEST_F(AllocTest, ConjugateGradientWithWorkspaceAllocatesNothing) {
  const linalg::CsrMatrix a = poisson::assemble_local_laplacian(32, 0, 32 * 32);
  const linalg::Vector b = ramp(a.rows(), 1.0);
  linalg::CgOptions options;
  options.tolerance = 1e-8;
  linalg::CgWorkspace workspace;
  linalg::Vector x(a.rows(), 0.0);
  linalg::conjugate_gradient(a, b, x, options, workspace);  // sizes the workspace

  for (const bool fused : {true, false}) {
    options.fused = fused;
    linalg::Vector warm(a.rows(), 0.5);
    linalg::CgResult result;
    EXPECT_EQ(allocations_during([&] {
                result = linalg::conjugate_gradient(a, b, warm, options,
                                                    workspace);
              }),
              0u)
        << "fused=" << fused;
    EXPECT_TRUE(result.converged);
  }
}

TEST_F(AllocTest, PoissonIterateAndOnDataAllocateNothing) {
  poisson::PoissonConfig pc;
  pc.n = 24;
  pc.inner_tolerance = 1e-9;
  core::AppDescriptor app;
  app.task_count = 3;
  app.config = poisson::encode_config(pc);
  poisson::PoissonTask task;
  task.init(app, 1);  // the middle task: lines arrive from both sides

  auto line = [&](double value) {
    serial::Writer w;
    w.f64_vector(linalg::Vector(pc.n, value));
    return w.take();
  };
  // Two rounds of warm-up size the decode buffer and the CG scratch.
  for (int round = 0; round < 2; ++round) {
    task.on_data(0, 1, line(1.0 + round));
    task.on_data(2, 1, line(2.0 + round));
    task.iterate();
  }

  // Fresh content on both sides, so iterate() runs a real inner solve
  // instead of the starved shortcut.
  const serial::Bytes lower = line(5.0);
  const serial::Bytes upper = line(-3.0);
  const std::uint64_t informative_before = task.informative_iterations();
  EXPECT_EQ(allocations_during([&] {
              task.on_data(0, 2, lower);
              task.on_data(2, 2, upper);
            }),
            0u);
  EXPECT_EQ(allocations_during([&] { task.iterate(); }), 0u);
  EXPECT_EQ(task.informative_iterations(), informative_before + 1);

  // A malformed line is dropped without touching the buffers.
  serial::Writer bad;
  bad.varint(std::uint64_t{1} << 40);
  const serial::Bytes inflated = bad.take();
  EXPECT_EQ(allocations_during([&] { task.on_data(0, 3, inflated); }), 0u);
}

/// A small Poisson deployment on the simulator, like the integration tests'.
core::SimDeploymentConfig small_deployment() {
  poisson::force_registration();
  core::SimDeploymentConfig config;
  config.super_peer_count = 2;
  config.daemon_count = 12;
  config.sim.seed = 5;
  config.max_sim_time = 3000.0;
  poisson::PoissonConfig pc;
  pc.n = 48;
  pc.inner_tolerance = 1e-9;
  pc.work_scale = 50.0;
  config.app.app_id = 1;
  config.app.program = poisson::PoissonTask::kProgramName;
  config.app.config = poisson::encode_config(pc);
  config.app.task_count = 8;
  config.app.checkpoint_every = 5;
  config.app.backup_peer_count = 4;
  config.app.convergence_threshold = 1e-6;
  config.app.stable_iterations_required = 3;
  return config;
}

std::uint64_t total_iterations(core::SimDeployment& deployment) {
  std::uint64_t total = 0;
  for (const net::NodeId node : deployment.daemon_nodes()) {
    if (const auto* daemon =
            dynamic_cast<const core::Daemon*>(deployment.world().actor(node))) {
      total += daemon->iteration();
    }
  }
  return total;
}

TEST_F(AllocTest, SimDeploymentStaysUnderItsPerIterationCeiling) {
  // Per iteration a task sends two boundary lines and every fifth iteration
  // a checkpoint. What still allocates: each message's shared body holder,
  // the simulator's delivery and compute event closures, the decoded
  // TaskData payload and the vector outgoing() returns. The window measured
  // 8.0 allocations per iteration when the ceiling was set, and 38.7 before
  // the hot path stopped allocating.
  constexpr double kCeilingPerIteration = 10.0;
  core::SimDeployment deployment(small_deployment());
  deployment.build();
  auto& world = deployment.world();
  // The solve converges near 18 sim s; by 2 s every task is iterating.
  world.run_until(2.0);
  const std::uint64_t iterations_before = total_iterations(deployment);
  std::uint64_t iterations = 0;
  const std::uint64_t allocs = allocations_during([&] {
    world.run_until(12.0);
    iterations = total_iterations(deployment) - iterations_before;
  });
  ASSERT_GT(iterations, 1000u);
  const double per_iteration =
      static_cast<double>(allocs) / static_cast<double>(iterations);
  RecordProperty("allocations_per_iteration", std::to_string(per_iteration));
  EXPECT_LE(per_iteration, kCeilingPerIteration)
      << allocs << " allocations over " << iterations << " iterations";
}

}  // namespace
}  // namespace jacepp
