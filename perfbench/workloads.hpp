// The benchmark's three workloads and one solve of each.
//
//   fig7-d0     The paper's Figure 7 cell (2-D Poisson, n=96 standing in for
//               the paper's n=2000, 80 tasks on 100 daemons, 3 super-peers) on
//               the simulator with no disconnection. Blocks are tiny, so host
//               time goes to the framework rather than the kernels.
//   fig7-d50    The same cell with 50 disconnections, each daemon back 20 s
//               later: adds the recovery path (detection, replacement, backup
//               query/fetch, decode and restore).
//   rt-poisson  A real solve on the threaded runtime: large blocks, real
//               clocks and threads, no event scheduler.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "core/deployment_rt.hpp"
#include "poisson/block_task.hpp"
#include "traced_task.hpp"

namespace perfbench {

/// fig7-d0's time-to-solution at seed 42, to the last bit.
inline constexpr double kCalibrationT0 = 27.382581260134508;

struct Workload {
  std::string name;
  bool simulated = true;
  std::size_t disconnections = 0;
  /// Disconnect window, sim seconds: 0.05 and 1.2 times t0, the seed-42
  /// zero-disconnection time that bench_fig7 calibrates. t0 is pinned so the
  /// workload does not depend on another run.
  double disconnect_start = 0.05 * kCalibrationT0;
  double disconnect_horizon = 1.2 * kCalibrationT0;
  double residual_bound = 0.5;
  /// rt only: a solve not finished by then counts as failed.
  double deadline_s = 30.0;
  /// Host seconds budgeted for one plain solve, near the slower solve times
  /// seen on a 4-vCPU x86-64 VM (README.md); a plain run makes
  /// floor(--seconds / nominal_solve_s) solves.
  double nominal_solve_s = 5.0;
  /// The Poisson problem. fig7: decoded from bench_common.hpp's
  /// make_config(), the configuration the solves run.
  jacepp::poisson::PoissonConfig poisson;
};

/// nullopt for an unknown name.
std::optional<Workload> find_workload(const std::string& name);

jacepp::core::SimDeploymentConfig sim_config(const Workload& w,
                                             std::uint64_t seed);
jacepp::core::RtDeploymentConfig rt_config(const Workload& w,
                                           std::uint64_t seed);

/// Effective configuration of a workload, as one JSON object.
std::string config_json(const Workload& w, std::uint64_t seed);

struct SolveResult {
  std::uint64_t seed = 0;
  bool converged = false;
  double residual = -1.0;
  bool residual_ok = false;
  double tts = 0.0;    ///< spawner convergence time on the deployment clock
  double wall_s = 0.0;
  double setup_s = 0.0;
  double cpu_s = 0.0;
  jacepp::core::SpawnerReport report;
  // Simulator only.
  std::uint64_t events = 0;
  jacepp::sim::NetStats net;
  std::uint64_t restores_from_backup = 0;
  std::uint64_t restarts_from_zero = 0;
  // Threaded runtime only.
  double launch_s = 0.0;  ///< SpawnerReport::launch_time, seconds after start()
  std::uint64_t rt_sent = 0;
  std::uint64_t rt_delivered = 0;
  std::uint64_t rt_lost = 0;
  // serial::BufferPool over the solve.
  std::uint64_t pool_reuses = 0;
  std::uint64_t pool_misses = 0;

  [[nodiscard]] bool ok() const { return converged && residual_ok; }
  /// FNV-1a over tts, per-task final iterations, events and net counters
  /// (the simulated outputs a traced run must reproduce).
  [[nodiscard]] std::uint64_t digest() const;
};

/// One stand-alone set-up: the constructor plus build() on the simulator, the
/// constructor plus start() on rt. Returns the seconds taken; the
/// configuration is made before the clock starts and the deployment is torn
/// down after it stops.
double time_setup(const Workload& w, std::uint64_t seed);

/// One solve. With a session, the program "poisson" is the traced decorator
/// for the duration of the solve.
SolveResult solve(const Workload& w, std::uint64_t seed,
                  TraceSession* session);

}  // namespace perfbench
