#include "poisson/block_task.hpp"

#include <gtest/gtest.h>

#include "linalg/vector_ops.hpp"
#include "poisson/poisson.hpp"
#include "support/rng.hpp"

namespace jacepp::poisson {
namespace {

core::AppDescriptor make_app(std::uint32_t n, std::uint32_t tasks,
                             std::uint32_t overlap_lines = 0,
                             std::uint32_t rhs_kind = 0) {
  PoissonConfig pc;
  pc.n = n;
  pc.overlap_lines = overlap_lines;
  pc.inner_tolerance = 1e-11;
  pc.rhs_kind = rhs_kind;
  pc.rhs_seed = 4242;
  core::AppDescriptor app;
  app.task_count = tasks;
  app.config = encode_config(pc);
  return app;
}

/// Drive a set of tasks with synchronous exchanges until quiescent.
void run_rounds(std::vector<PoissonTask>& tasks, std::size_t rounds) {
  for (std::size_t round = 0; round < rounds; ++round) {
    for (auto& t : tasks) t.iterate();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      for (auto& out : tasks[i].outgoing()) {
        tasks[out.to_task].on_data(static_cast<core::TaskId>(i), round + 1,
                                   out.payload);
      }
    }
  }
}

double assembled_residual(std::vector<PoissonTask>& tasks, std::uint32_t n) {
  std::vector<serial::Bytes> payloads;
  payloads.reserve(tasks.size());
  for (auto& t : tasks) payloads.push_back(t.final_payload());
  PoissonConfig pc;
  pc.n = n;
  const auto x =
      assemble_solution(n, static_cast<std::uint32_t>(tasks.size()), payloads);
  return poisson_relative_residual(pc, x);
}

TEST(BlockTask, LocalLaplacianMatchesGlobalBlock) {
  const std::size_t n = 6;
  const auto global = assemble_laplacian(n);
  const auto local = assemble_local_laplacian(n, 12, 24);
  const auto block = global.block(12, 24, 12, 24);
  ASSERT_EQ(local.rows(), block.rows());
  for (std::size_t r = 0; r < local.rows(); ++r) {
    for (std::size_t c = 0; c < local.cols(); ++c) {
      EXPECT_NEAR(local.at(r, c), block.at(r, c), 1e-12) << r << "," << c;
    }
  }
}

TEST(BlockTask, SynchronousDrivingConvergesToReference) {
  const std::uint32_t n = 20;
  auto app = make_app(n, 4);
  std::vector<PoissonTask> tasks(4);
  for (std::uint32_t t = 0; t < 4; ++t) tasks[t].init(app, t);
  run_rounds(tasks, 250);
  EXPECT_LT(assembled_residual(tasks, n), 1e-7);
}

TEST(BlockTask, ManufacturedRhsRecoversExactSolution) {
  const std::uint32_t n = 12;
  auto app = make_app(n, 3, 0, /*rhs_kind=*/1);
  std::vector<PoissonTask> tasks(3);
  for (std::uint32_t t = 0; t < 3; ++t) tasks[t].init(app, t);
  run_rounds(tasks, 300);

  std::vector<serial::Bytes> payloads;
  for (auto& t : tasks) payloads.push_back(t.final_payload());
  const auto x = assemble_solution(n, 3, payloads);

  PoissonConfig pc;
  pc.n = n;
  pc.rhs_kind = 1;
  pc.rhs_seed = 4242;
  jacepp::Rng rng(4242);
  linalg::Vector exact(n * n);
  for (double& v : exact) v = rng.uniform(-1.0, 1.0);
  EXPECT_LT(linalg::distance_inf(x, exact), 1e-5);
}

TEST(BlockTask, OverlapConvergesFasterPerRound) {
  const std::uint32_t n = 24;
  auto plain_app = make_app(n, 4, 0);
  auto overlap_app = make_app(n, 4, 2);
  std::vector<PoissonTask> plain(4);
  std::vector<PoissonTask> overlapped(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    plain[t].init(plain_app, t);
    overlapped[t].init(overlap_app, t);
  }
  run_rounds(plain, 40);
  run_rounds(overlapped, 40);
  EXPECT_LT(assembled_residual(overlapped, n), assembled_residual(plain, n));
}

TEST(BlockTask, BoundaryExchangeIsExactlyNComponents) {
  const std::uint32_t n = 16;
  for (const std::uint32_t overlap : {0u, 1u, 2u}) {
    auto app = make_app(n, 4, overlap);
    PoissonTask task;
    task.init(app, 1);  // interior task: two neighbours
    task.iterate();
    const auto out = task.outgoing();
    ASSERT_EQ(out.size(), 2u);
    for (const auto& o : out) {
      serial::Reader reader(o.payload);
      EXPECT_EQ(reader.f64_vector().size(), n)
          << "overlap=" << overlap << " — exchanged data must stay n";
    }
  }
}

TEST(BlockTask, EdgeTasksHaveOneNeighbour) {
  auto app = make_app(16, 4);
  PoissonTask first;
  PoissonTask last;
  first.init(app, 0);
  last.init(app, 3);
  first.iterate();
  last.iterate();
  const auto out_first = first.outgoing();
  const auto out_last = last.outgoing();
  ASSERT_EQ(out_first.size(), 1u);
  EXPECT_EQ(out_first[0].to_task, 1u);
  ASSERT_EQ(out_last.size(), 1u);
  EXPECT_EQ(out_last[0].to_task, 2u);
}

TEST(BlockTask, CheckpointRestoreRoundTrip) {
  const std::uint32_t n = 16;
  auto app = make_app(n, 4);
  std::vector<PoissonTask> tasks(4);
  for (std::uint32_t t = 0; t < 4; ++t) tasks[t].init(app, t);
  run_rounds(tasks, 10);

  const auto snapshot = tasks[1].checkpoint();
  const auto x_before = tasks[1].x_ext();

  PoissonTask replacement;
  replacement.init(app, 1);
  replacement.restore(snapshot);
  EXPECT_EQ(replacement.x_ext(), x_before);
  EXPECT_DOUBLE_EQ(replacement.local_error(), tasks[1].local_error());
}

TEST(BlockTask, RestoredTaskContinuesConverging) {
  const std::uint32_t n = 16;
  auto app = make_app(n, 4);
  std::vector<PoissonTask> tasks(4);
  for (std::uint32_t t = 0; t < 4; ++t) tasks[t].init(app, t);
  run_rounds(tasks, 15);

  // Replace task 2 with a restored copy mid-run; convergence must continue.
  const auto snapshot = tasks[2].checkpoint();
  PoissonTask replacement;
  replacement.init(app, 2);
  replacement.restore(snapshot);
  tasks[2] = std::move(replacement);

  run_rounds(tasks, 250);
  EXPECT_LT(assembled_residual(tasks, n), 1e-7);
}

/// `state` with its `field`-th f64 vector (0 = x_ext, 1 = owned_prev,
/// 2 = lower line, 3 = upper line) one entry short; the scalar tail is kept.
serial::Bytes shorten_field(const serial::Bytes& state, int field) {
  serial::Reader reader(state);
  serial::Writer writer;
  for (int f = 0; f < 4; ++f) {
    auto v = reader.f64_vector<linalg::Vector>();
    if (f == field) v.pop_back();
    writer.f64_vector(v);
  }
  serial::Bytes out = writer.take();
  out.insert(out.end(),
             state.end() - static_cast<std::ptrdiff_t>(reader.remaining()),
             state.end());
  return out;
}

TEST(BlockTaskDeathTest, RestoreRejectsShortVectors) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto app = make_app(16, 4);
  PoissonTask source;
  source.init(app, 1);
  source.iterate();
  const auto snapshot = source.checkpoint();
  for (const int field : {1, 2, 3}) {
    const auto bad = shorten_field(snapshot, field);
    EXPECT_DEATH(
        {
          PoissonTask replacement;
          replacement.init(app, 1);
          replacement.restore(bad);
        },
        "checkpoint shape mismatch")
        << "field " << field;
  }
}

TEST(BlockTask, MalformedDataDropped) {
  auto app = make_app(16, 2);
  PoissonTask task;
  task.init(app, 0);
  task.iterate();
  const double before = task.local_error();
  // Wrong length payload and garbage bytes: both ignored.
  serial::Writer w;
  w.f64_vector({1.0, 2.0});
  task.on_data(1, 5, w.take());
  task.on_data(1, 6, serial::Bytes{0xff, 0x03, 0x01});
  task.iterate();
  // No fresh (valid) data arrived: the spin path keeps the error untouched.
  EXPECT_DOUBLE_EQ(task.local_error(), before);
  EXPECT_FALSE(task.error_is_informative());
}

TEST(BlockTask, StarvedIterationsChargeFullCostButAreUninformative) {
  auto app = make_app(16, 2);
  PoissonTask task;
  task.init(app, 0);
  const double first = task.iterate();   // real solve
  EXPECT_TRUE(task.error_is_informative());
  const double spin = task.iterate();    // starved: no new data
  EXPECT_FALSE(task.error_is_informative());
  // The paper's implementation recomputes every iteration whether or not an
  // update arrived, so the starved iteration charges comparable virtual cost
  // — but it must not move the iterate or inform convergence detection.
  EXPECT_GT(spin, 0.0);
  EXPECT_LE(spin, first * 2.0 + 1.0);
  EXPECT_EQ(task.iterations_done(), 2u);
}

TEST(BlockTask, IdenticalContentDoesNotCountAsFresh) {
  auto app = make_app(16, 2);
  PoissonTask a;
  PoissonTask b;
  a.init(app, 0);
  b.init(app, 1);
  a.iterate();
  const auto out = a.outgoing();
  ASSERT_EQ(out.size(), 1u);
  b.iterate();
  b.on_data(0, 1, out[0].payload);
  b.iterate();
  EXPECT_TRUE(b.error_is_informative());  // content changed from zeros
  b.on_data(0, 2, out[0].payload);        // same content re-sent
  b.iterate();
  EXPECT_FALSE(b.error_is_informative());
}

TEST(BlockTask, AssembleSolutionSkipsMissingPayloads) {
  const std::uint32_t n = 8;
  std::vector<serial::Bytes> payloads(2);
  serial::Writer w;
  w.f64_vector(linalg::Vector(32, 1.5));
  payloads[0] = w.take();
  // payloads[1] left empty.
  const auto x = assemble_solution(n, 2, payloads);
  EXPECT_DOUBLE_EQ(x[0], 1.5);
  EXPECT_DOUBLE_EQ(x[31], 1.5);
  EXPECT_DOUBLE_EQ(x[32], 0.0);
}

}  // namespace
}  // namespace jacepp::poisson
