#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "bench_common.hpp"
#include "core/task.hpp"
#include "poisson/poisson.hpp"
#include "serial/buffer_pool.hpp"

namespace perfbench {

namespace core = jacepp::core;
namespace poisson = jacepp::poisson;

namespace {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

Workload fig7(std::string name, std::size_t disconnections) {
  Workload w;
  w.name = std::move(name);
  w.simulated = true;
  w.disconnections = disconnections;
  w.residual_bound = 0.5;
  w.nominal_solve_s = disconnections > 0 ? 16.0 : 5.5;
  const auto encoded = sim_config(w, 0).app.config;
  jacepp::serial::Reader reader(encoded);
  w.poisson = poisson::PoissonConfig::deserialize(reader);
  return w;
}

Workload rt_poisson() {
  Workload w;
  w.name = "rt-poisson";
  w.simulated = false;
  w.residual_bound = 1e-5;
  w.nominal_solve_s = 5.0;
  w.poisson.n = 128;
  w.poisson.inner_tolerance = 1e-9;
  return w;
}

void hash_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void register_program(TraceSession* session) {
  auto& registry = core::TaskProgramRegistry::instance();
  if (session == nullptr) {
    registry.register_program(poisson::PoissonTask::kProgramName, [] {
      return std::unique_ptr<core::Task>(new poisson::PoissonTask());
    });
  } else {
    registry.register_program(poisson::PoissonTask::kProgramName, [session] {
      return std::unique_ptr<core::Task>(new TracedTask(*session, session->open()));
    });
  }
}

void check_solution(const Workload& w, SolveResult& r) {
  r.converged = r.report.completed;
  if (!r.converged) return;
  const auto x = poisson::assemble_solution(
      w.poisson.n, static_cast<std::uint32_t>(r.report.final_payloads.size()),
      r.report.final_payloads);
  r.residual = poisson::poisson_relative_residual(w.poisson, x);
  r.residual_ok = std::isfinite(r.residual) && r.residual <= w.residual_bound;
}

SolveResult solve_sim(core::SimDeploymentConfig config, std::uint64_t seed) {
  SolveResult r;
  r.seed = seed;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  core::SimDeployment deployment(std::move(config));
  deployment.build();
  r.setup_s = seconds_since(t0);
  const auto t1 = Clock::now();
  const auto report = deployment.run();
  r.wall_s = seconds_since(t1);
  r.cpu_s = process_cpu_seconds() - cpu0;
  r.report = report.spawner;
  r.tts = report.spawner.execution_time();
  r.events = deployment.world().events_executed();
  r.net = report.net;
  r.restores_from_backup = report.restores_from_backup;
  r.restarts_from_zero = report.restarts_from_zero;
  return r;
}

SolveResult solve_rt(const Workload& w, core::RtDeploymentConfig config,
                     std::uint64_t seed) {
  SolveResult r;
  r.seed = seed;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  std::optional<core::SpawnerReport> report;
  {
    core::RtDeployment deployment(std::move(config));
    const auto t1 = Clock::now();
    deployment.start();
    const double construct_and_start = seconds_since(t0);
    report = deployment.wait(w.deadline_s);
    r.wall_s = seconds_since(t1);
    r.setup_s = construct_and_start;
    r.launch_s = report ? report->launch_time : 0.0;
    auto& stats = deployment.runtime().stats();
    r.rt_sent = stats.sent.load();
    r.rt_delivered = stats.delivered.load();
    r.rt_lost = stats.lost.load();
  }  // joins every entity thread
  r.cpu_s = process_cpu_seconds() - cpu0;
  if (report) {
    r.report = *report;
    r.tts = report->execution_time();
  }
  return r;
}

}  // namespace

std::optional<Workload> find_workload(const std::string& name) {
  if (name == "fig7-d0") return fig7(name, 0);
  if (name == "fig7-d50") return fig7(name, 50);
  if (name == "rt-poisson") return rt_poisson();
  return std::nullopt;
}

core::SimDeploymentConfig sim_config(const Workload& w, std::uint64_t seed) {
  // bench_fig7's cell at n=96; the other parameters keep bench_common.hpp's
  // defaults (80 tasks, 100 daemons, 3 super-peers, ...).
  jacepp::bench::ExperimentParams p;
  p.n = 96;
  p.seed = seed;
  p.disconnections = w.disconnections;
  p.disconnect_start = w.disconnect_start;
  p.disconnect_horizon = w.disconnect_horizon;
  return jacepp::bench::make_config(p);
}

core::RtDeploymentConfig rt_config(const Workload& w, std::uint64_t seed) {
  core::RtDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 3;
  config.seed = seed;
  config.app.app_id = 1;
  config.app.program = poisson::PoissonTask::kProgramName;
  config.app.config = poisson::encode_config(w.poisson);
  config.app.task_count = 3;
  config.app.checkpoint_every = 5;
  config.app.backup_peer_count = 2;
  config.app.convergence_threshold = 1e-8;
  config.app.stable_iterations_required = 5;
  return config;
}

std::uint64_t SolveResult::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  hash_u64(h, bits_of(tts));
  for (const auto it : report.final_iterations) hash_u64(h, it);
  hash_u64(h, events);
  hash_u64(h, net.sent);
  hash_u64(h, net.delivered);
  hash_u64(h, net.lost());
  hash_u64(h, net.bytes_sent);
  std::vector<std::pair<jacepp::net::MessageType, std::uint64_t>> by_type(
      net.sent_by_type.begin(), net.sent_by_type.end());
  std::sort(by_type.begin(), by_type.end());
  for (const auto& [type, count] : by_type) {
    hash_u64(h, type);
    hash_u64(h, count);
  }
  return h;
}

double time_setup(const Workload& w, std::uint64_t seed) {
  if (w.simulated) {
    auto config = sim_config(w, seed);
    register_program(nullptr);
    const auto t0 = Clock::now();
    core::SimDeployment deployment(std::move(config));
    deployment.build();
    return seconds_since(t0);
  }
  auto config = rt_config(w, seed);
  register_program(nullptr);
  const auto t0 = Clock::now();
  core::RtDeployment deployment(std::move(config));
  deployment.start();
  return seconds_since(t0);
}  // the destructor stops and joins the entity threads, untimed

SolveResult solve(const Workload& w, std::uint64_t seed,
                  TraceSession* session) {
  // make_config() registers the plain task, so the configs are built before
  // the traced one is registered.
  std::optional<core::SimDeploymentConfig> sim;
  std::optional<core::RtDeploymentConfig> rt;
  if (w.simulated) {
    sim = sim_config(w, seed);
  } else {
    rt = rt_config(w, seed);
  }
  register_program(session);
  auto& pool = jacepp::serial::BufferPool::instance();
  const auto pool0 = pool.stats();
  SolveResult r = sim ? solve_sim(std::move(*sim), seed)
                      : solve_rt(w, std::move(*rt), seed);
  const auto pool1 = pool.stats();
  r.pool_reuses = pool1.reuses - pool0.reuses;
  r.pool_misses = pool1.misses - pool0.misses;
  register_program(nullptr);
  check_solution(w, r);
  return r;
}

std::string config_json(const Workload& w, std::uint64_t seed) {
  std::ostringstream o;
  o.precision(17);
  const auto b = [](bool v) { return v ? "true" : "false"; };
  const auto timing = [&](const core::TimingConfig& t) {
    o << "{\"heartbeat_period\":" << t.heartbeat_period
      << ",\"daemon_timeout\":" << t.daemon_timeout
      << ",\"super_peer_timeout\":" << t.super_peer_timeout
      << ",\"sweep_period\":" << t.sweep_period
      << ",\"bootstrap_retry\":" << t.bootstrap_retry
      << ",\"reserve_retry\":" << t.reserve_retry
      << ",\"reserved_timeout\":" << t.reserved_timeout
      << ",\"backup_query_timeout\":" << t.backup_query_timeout
      << ",\"backup_fetch_timeout\":" << t.backup_fetch_timeout
      << ",\"final_state_timeout\":" << t.final_state_timeout
      << ",\"backup_retention\":" << t.backup_retention
      << ",\"backup_byte_budget\":" << t.backup_byte_budget << "}";
  };
  const auto app = [&](const core::AppDescriptor& a) {
    const auto& c = a.ckpt;
    const auto& p = w.poisson;
    o << "{\"program\":\"" << a.program << "\",\"task_count\":" << a.task_count
      << ",\"checkpoint_every\":" << a.checkpoint_every
      << ",\"backup_peer_count\":" << a.backup_peer_count
      << ",\"convergence_threshold\":" << a.convergence_threshold
      << ",\"stable_iterations_required\":" << a.stable_iterations_required
      << ",\"ckpt\":{\"chunk_size\":" << c.chunk_size
      << ",\"rebase_every\":" << c.rebase_every
      << ",\"chain_byte_budget\":" << c.chain_byte_budget
      << ",\"adaptive_interval\":" << b(c.adaptive_interval)
      << ",\"min_interval\":" << c.min_interval
      << ",\"max_interval\":" << c.max_interval
      << ",\"target_overhead\":" << c.target_overhead
      << ",\"net_bandwidth\":" << c.net_bandwidth
      << ",\"net_latency\":" << c.net_latency << "}"
      << ",\"poisson\":{\"n\":" << p.n << ",\"overlap_lines\":" << p.overlap_lines
      << ",\"inner_tolerance\":" << p.inner_tolerance
      << ",\"inner_max_iterations\":" << p.inner_max_iterations
      << ",\"rhs_kind\":" << p.rhs_kind << ",\"rhs_seed\":" << p.rhs_seed
      << ",\"work_scale\":" << p.work_scale << "}}";
  };
  const auto comm = [&](const core::CommConfig& c) {
    o << "{\"coalesce\":" << b(c.coalesce) << ",\"flush_window\":" << c.flush_window
      << ",\"serialize_links\":" << b(c.serialize_links)
      << ",\"max_queue_bytes\":" << c.max_queue_bytes
      << ",\"max_queue_messages\":" << c.max_queue_messages
      << ",\"max_batch_messages\":" << c.max_batch_messages
      << ",\"max_batch_bytes\":" << c.max_batch_bytes << "}";
  };
  const auto perf = [&](const core::PerfConfig& p) {
    o << "{\"early_send\":" << b(p.early_send) << ",\"grain\":" << p.grain
      << ",\"pool_buffers\":" << b(p.pool_buffers) << ",\"simd\":" << b(p.simd)
      << ",\"sell\":" << b(p.sell) << "}";
  };
  const auto cp = [&](const core::ControlPlaneConfig& c) {
    o << "{\"super_peers\":" << c.super_peers
      << ",\"shard_register\":" << b(c.shard_register)
      << ",\"max_forward_depth\":" << c.max_forward_depth
      << ",\"replicate_register\":" << b(c.replicate_register)
      << ",\"replica_count\":" << c.replica_count
      << ",\"diffusion\":" << b(c.diffusion) << ",\"wave_period\":" << c.wave_period
      << ",\"wave_timeout\":" << c.wave_timeout
      << ",\"reservation_ttl\":" << c.reservation_ttl
      << ",\"assign_ack_timeout\":" << c.assign_ack_timeout << "}";
  };

  o << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
    << ",\"runtime\":\"" << (w.simulated ? "sim" : "rt") << "\""
    << ",\"residual_bound\":" << w.residual_bound
    << ",\"nominal_solve_s\":" << w.nominal_solve_s;
  if (w.simulated) {
    const auto c = sim_config(w, seed);
    const auto& s = c.sim;
    const auto& f = c.fleet;
    o << ",\"super_peer_count\":" << c.super_peer_count
      << ",\"daemon_count\":" << c.daemon_count
      << ",\"disconnections\":" << w.disconnections
      << ",\"disconnect_start\":" << w.disconnect_start
      << ",\"disconnect_horizon\":" << w.disconnect_horizon
      << ",\"reconnect_delay\":" << c.reconnect_delay
      << ",\"max_sim_time\":" << c.max_sim_time << ",\"timing\":";
    timing(c.timing);
    o << ",\"app\":";
    app(c.app);
    o << ",\"comm\":";
    comm(c.comm);
    o << ",\"perf\":";
    perf(c.perf);
    o << ",\"cp\":";
    cp(c.cp);
    o << ",\"rep_enabled\":" << b(c.rep.enabled)
      << ",\"churn_active\":" << b(c.churn.active())
      << ",\"sim\":{\"seed\":" << s.seed << ",\"max_time\":" << s.max_time
      << ",\"message_jitter\":" << s.message_jitter
      << ",\"compute_jitter\":" << s.compute_jitter
      << ",\"serialize_links\":" << b(s.serialize_links)
      << ",\"shards\":" << s.shards << ",\"worker_threads\":" << s.worker_threads
      << ",\"adaptive_lookahead\":" << b(s.adaptive_lookahead)
      << ",\"rebalance\":" << b(s.rebalance) << "}"
      << ",\"fleet\":{\"min_flops\":" << f.min_flops
      << ",\"max_flops\":" << f.max_flops
      << ",\"fast_network_fraction\":" << f.fast_network_fraction
      << ",\"latency_s\":" << f.latency_s
      << ",\"message_overhead_s\":" << f.message_overhead_s << "}";
  } else {
    const auto c = rt_config(w, seed);
    o << ",\"super_peer_count\":" << c.super_peer_count
      << ",\"daemon_count\":" << c.daemon_count
      << ",\"deadline_s\":" << w.deadline_s << ",\"timing\":";
    timing(c.timing);
    o << ",\"app\":";
    app(c.app);
    o << ",\"comm\":";
    comm(c.comm);
    o << ",\"perf\":";
    perf(c.perf);
    o << ",\"cp\":";
    cp(c.cp);
  }
  o << "}";
  return o.str();
}

}  // namespace perfbench
