// GenericMultisplitTask: any SPD system on JaceP2P, dependency sets derived
// from the sparsity pattern.
#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "core/generic_task.hpp"
#include "linalg/vector_ops.hpp"
#include "poisson/poisson.hpp"
#include "support/rng.hpp"

namespace jacepp::core {
namespace {

/// Random SPD matrix: A = L Lᵀ + n·I from a sparse random L (diagonally
/// boosted to stay well-conditioned), plus some off-block coupling.
linalg::CsrMatrix random_spd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 4.0 + rng.next_double());
    // A few symmetric off-diagonals with |value| < diag/degree.
    for (int k = 0; k < 2; ++k) {
      const std::size_t j = rng.index(n);
      if (j == i) continue;
      const double v = rng.uniform(-0.4, 0.4);
      builder.add(i, j, v);
      builder.add(j, i, v);
    }
  }
  return builder.build();
}

AppDescriptor generic_app(const linalg::CsrMatrix& a, const linalg::Vector& b,
                          std::uint32_t tasks) {
  GenericMultisplitTask::force_registration();
  GenericConfig gc;
  gc.a = a;
  gc.b = b;
  gc.inner_tolerance = 1e-10;
  AppDescriptor app;
  app.app_id = 5;
  app.program = GenericMultisplitTask::kProgramName;
  app.config = serial::encode(gc);
  app.task_count = tasks;
  app.checkpoint_every = 4;
  app.backup_peer_count = 2;
  app.convergence_threshold = 1e-8;
  app.stable_iterations_required = 3;
  return app;
}

TEST(GenericTask, ExportSetsMatchSparsityPattern) {
  // Tridiagonal: each task's rows only reference the adjacent components.
  const std::size_t n = 12;
  linalg::CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 2.0);
    if (i > 0) builder.add(i, i - 1, -1.0);
    if (i + 1 < n) builder.add(i, i + 1, -1.0);
  }
  const auto a = builder.build();
  linalg::Vector b(n, 1.0);
  const auto app = generic_app(a, b, 3);

  GenericMultisplitTask middle;
  middle.init(app, 1);  // owns rows [4, 8)
  const auto& exports = middle.export_sets();
  // Task 0's rows reference column 4; task 2's rows reference column 7.
  ASSERT_EQ(exports.size(), 2u);
  EXPECT_EQ(exports.at(0), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(exports.at(2), (std::vector<std::uint32_t>{7}));
}

TEST(GenericTask, ManualDrivingConvergesToDirectSolution) {
  const std::size_t n = 40;
  const auto a = random_spd(n, 11);
  Rng rng(12);
  linalg::Vector exact(n);
  for (auto& v : exact) v = rng.uniform(-1, 1);
  linalg::Vector b;
  a.multiply(exact, b);

  const auto app = generic_app(a, b, 4);
  std::vector<GenericMultisplitTask> tasks(4);
  for (std::uint32_t t = 0; t < 4; ++t) tasks[t].init(app, t);

  for (int round = 0; round < 200; ++round) {
    for (auto& t : tasks) t.iterate();
    for (std::uint32_t t = 0; t < 4; ++t) {
      for (auto& out : tasks[t].outgoing()) {
        tasks[out.to_task].on_data(t, round + 1, out.payload);
      }
    }
  }

  std::vector<serial::Bytes> payloads;
  for (auto& t : tasks) payloads.push_back(t.final_payload());
  const auto x = assemble_generic_solution(a, 4, payloads);
  EXPECT_LT(linalg::distance_inf(x, exact), 1e-6);
}

TEST(GenericTask, CheckpointRestoreRoundTrip) {
  const std::size_t n = 24;
  const auto a = random_spd(n, 21);
  linalg::Vector b(n, 1.0);
  const auto app = generic_app(a, b, 3);

  GenericMultisplitTask task;
  task.init(app, 1);
  task.iterate();
  const auto snapshot = task.checkpoint();

  GenericMultisplitTask replica;
  replica.init(app, 1);
  replica.restore(snapshot);
  EXPECT_EQ(replica.final_payload(), task.final_payload());
  EXPECT_DOUBLE_EQ(replica.local_error(), task.local_error());
}

TEST(GenericTaskDeathTest, RestoreRejectsShortOwnedPrev) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::size_t n = 24;
  const auto a = random_spd(n, 21);
  linalg::Vector b(n, 1.0);
  const auto app = generic_app(a, b, 3);
  GenericMultisplitTask task;
  task.init(app, 1);
  task.iterate();
  const auto snapshot = task.checkpoint();

  // Re-encode x_local_ | owned_prev_ (one entry short) | x_halo_ + the tail.
  serial::Reader reader(snapshot);
  serial::Writer writer;
  writer.f64_vector(reader.f64_vector<linalg::Vector>());
  auto prev = reader.f64_vector<linalg::Vector>();
  prev.pop_back();
  writer.f64_vector(prev);
  writer.f64_vector(reader.f64_vector<linalg::Vector>());
  serial::Bytes bad = writer.take();
  bad.insert(bad.end(),
             snapshot.end() - static_cast<std::ptrdiff_t>(reader.remaining()),
             snapshot.end());

  EXPECT_DEATH(
      {
        GenericMultisplitTask replica;
        replica.init(app, 1);
        replica.restore(bad);
      },
      "checkpoint shape mismatch");
}

TEST(GenericTask, EndToEndOnP2PNetworkWithFailure) {
  const std::size_t n = 36;
  const auto a = random_spd(n, 31);
  Rng rng(32);
  linalg::Vector exact(n);
  for (auto& v : exact) v = rng.uniform(-1, 1);
  linalg::Vector b;
  a.multiply(exact, b);

  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 6;
  config.app = generic_app(a, b, 4);
  // Stretch the run so the failure lands mid-computation.
  {
    serial::Reader r(config.app.config);
    auto gc = GenericConfig::deserialize(r);
    gc.work_scale = 20000.0;
    config.app.config = serial::encode(gc);
  }
  config.max_sim_time = 2000.0;
  config.disconnect_times = {1.0};
  config.reconnect = false;
  SimDeployment deployment(config);
  const auto report = deployment.run();

  ASSERT_TRUE(report.spawner.completed);
  const auto x =
      assemble_generic_solution(a, 4, report.spawner.final_payloads);
  EXPECT_LT(linalg::distance_inf(x, exact), 1e-5);
}

// Property sweep: random systems of random sizes/partitions all converge on
// the full P2P runtime.
class GenericTaskSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GenericTaskSweep, RandomSystemSolvedOnNetwork) {
  Rng rng(GetParam());
  const std::size_t n = 16 + rng.index(32);
  const auto tasks = static_cast<std::uint32_t>(2 + rng.index(4));
  const auto a = random_spd(n, GetParam() * 13 + 1);
  linalg::Vector exact(n);
  for (auto& v : exact) v = rng.uniform(-1, 1);
  linalg::Vector b;
  a.multiply(exact, b);

  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = tasks + 1;
  config.sim.seed = GetParam();
  config.app = generic_app(a, b, tasks);
  config.max_sim_time = 2000.0;
  SimDeployment deployment(config);
  const auto report = deployment.run();

  ASSERT_TRUE(report.spawner.completed) << "n=" << n << " tasks=" << tasks;
  const auto x =
      assemble_generic_solution(a, tasks, report.spawner.final_payloads);
  // The update-distance stopping rule bounds the error only up to the
  // contraction factor of the random system; 1e-3 is the guaranteed band.
  EXPECT_LT(linalg::distance_inf(x, exact), 1e-3)
      << "n=" << n << " tasks=" << tasks;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenericTaskSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace jacepp::core
