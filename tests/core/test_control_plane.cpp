// Decentralized control plane (DESIGN.md §13): golden pin of the default
// centralized path, deadline-heap failure detection, register sharding edges,
// Application Register replication + standby failover, diffusion-wave
// convergence detection, and the reservation-staleness fixes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/daemon.hpp"
#include "core/deadline_heap.hpp"
#include "core/deployment.hpp"
#include "core/messages.hpp"
#include "core/shard.hpp"
#include "core/spawner.hpp"
#include "core/super_peer.hpp"
#include "core/task.hpp"
#include "rmi/rmi.hpp"
#include "sim/world.hpp"
#include "support/digest.hpp"

namespace jacepp::core {
namespace {

// ---------------------------------------------------------------------------
// Synthetic task program (same shape as test_spawner's ticker)
// ---------------------------------------------------------------------------

class CpTickerTask : public Task {
 public:
  void init(const AppDescriptor& app, TaskId task_id) override {
    task_id_ = task_id;
    task_count_ = app.task_count;
  }
  double iterate() override {
    ++iterations_;
    error_ = 1.0 / static_cast<double>(iterations_);
    return 1e6;
  }
  std::vector<OutgoingData> outgoing() override {
    if (task_count_ < 2) return {};
    serial::Writer w;
    w.u64(iterations_);
    return {OutgoingData{(task_id_ + 1) % task_count_, w.take()}};
  }
  [[nodiscard]] double local_error() const override { return error_; }
  void on_data(TaskId, std::uint64_t, const serial::Bytes&) override {
    ++tokens_received_;
  }
  [[nodiscard]] serial::Bytes checkpoint() const override {
    serial::Writer w;
    w.u64(iterations_);
    w.u64(tokens_received_);
    return w.take();
  }
  void restore(const serial::Bytes& state) override {
    serial::Reader r(state);
    iterations_ = r.u64();
    tokens_received_ = r.u64();
    error_ = iterations_ ? 1.0 / static_cast<double>(iterations_) : 1.0;
  }

 private:
  TaskId task_id_ = 0;
  std::uint32_t task_count_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t tokens_received_ = 0;
  double error_ = 1.0;
};

const char* kGoldenTicker = "golden.ticker";

void register_golden_ticker() {
  static ProgramRegistrar registrar(kGoldenTicker, [] {
    return std::unique_ptr<Task>(new CpTickerTask());
  });
}

AppDescriptor golden_app() {
  register_golden_ticker();
  AppDescriptor app;
  app.app_id = 31;
  app.program = kGoldenTicker;
  app.task_count = 4;
  app.checkpoint_every = 5;
  app.backup_peer_count = 2;
  app.convergence_threshold = 0.002;  // stable once iteration >= 500
  app.stable_iterations_required = 3;
  return app;
}

std::uint64_t digest_of(const SimExperimentReport& report) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv(h, report.spawner.completed ? 1 : 0);
  h = fnv(h, bits_of(report.spawner.launch_time));
  h = fnv(h, bits_of(report.spawner.convergence_time));
  h = fnv(h, bits_of(report.spawner.finish_time));
  h = fnv(h, report.spawner.failures_detected);
  h = fnv(h, report.spawner.replacements);
  for (auto it : report.spawner.final_iterations) h = fnv(h, it);
  for (auto it : report.spawner.final_informative_iterations) h = fnv(h, it);
  h = fnv(h, report.net.sent);
  h = fnv(h, report.net.delivered);
  h = fnv(h, report.net.lost_down);
  h = fnv(h, report.net.lost_stale);
  h = fnv(h, report.net.bytes_sent);
  h = fnv(h, report.net.frames_on_wire);
  h = fnv(h, bits_of(report.sim_end_time));
  return h;
}

SimDeploymentConfig golden_config() {
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 6;
  config.app = golden_app();
  config.disconnect_times = {1.8};
  config.reconnect = false;
  config.max_sim_time = 300.0;
  return config;
}

// ---------------------------------------------------------------------------
// Golden pin: cp defaults replay the pre-control-plane scheduler bit-for-bit
// ---------------------------------------------------------------------------

// Captured from the tree as it stood before the decentralized control plane
// landed (same scenario, byte-identical entity behaviour). Any change to the
// default path — cp.super_peers=1-equivalent topology, centralized
// convergence detection, random bootstrap, reservation handling — breaks this
// pin and must be treated as a determinism regression.
constexpr std::uint64_t kGoldenControlPlaneDigest = 9060537021409396175ull;

TEST(ControlPlaneGolden, DefaultPathBitIdenticalToPrePlaneScheduler) {
  SimDeployment deployment(golden_config());
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_EQ(digest_of(report), kGoldenControlPlaneDigest);
}

// ---------------------------------------------------------------------------
// DeadlineHeap (satellite: O(log n) heartbeat failure detection)
// ---------------------------------------------------------------------------

TEST(DeadlineHeap, ExpiresOnlyPastDeadlinesInOrder) {
  DeadlineHeap<int> heap;
  heap.bump(1, 1.0);
  heap.bump(2, 3.0);
  heap.bump(3, 2.0);
  EXPECT_EQ(heap.size(), 3u);

  std::vector<int> expired;
  EXPECT_EQ(heap.expire(2.5, [&](int k) { expired.push_back(k); }), 2u);
  EXPECT_EQ(expired, (std::vector<int>{1, 3}));
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_TRUE(heap.contains(2));
}

TEST(DeadlineHeap, BumpSupersedesOlderEntries) {
  DeadlineHeap<int> heap;
  heap.bump(7, 1.0);
  heap.bump(7, 5.0);  // heartbeat arrived: old entry must be ignored
  std::vector<int> expired;
  EXPECT_EQ(heap.expire(2.0, [&](int k) { expired.push_back(k); }), 0u);
  EXPECT_TRUE(expired.empty());
  EXPECT_TRUE(heap.contains(7));
  EXPECT_EQ(heap.expire(6.0, [&](int k) { expired.push_back(k); }), 1u);
  EXPECT_EQ(expired, (std::vector<int>{7}));
  EXPECT_EQ(heap.size(), 0u);
}

TEST(DeadlineHeap, EraseInvalidatesPendingEntries) {
  DeadlineHeap<int> heap;
  heap.bump(1, 1.0);
  heap.bump(2, 1.0);
  heap.erase(1);
  std::vector<int> expired;
  EXPECT_EQ(heap.expire(2.0, [&](int k) { expired.push_back(k); }), 1u);
  EXPECT_EQ(expired, (std::vector<int>{2}));
}

TEST(DeadlineHeap, ReBumpInsideExpireCallback) {
  DeadlineHeap<int> heap;
  heap.bump(1, 1.0);
  heap.expire(2.0, [&](int k) { heap.bump(k, 10.0); });
  EXPECT_TRUE(heap.contains(1));
  std::vector<int> expired;
  EXPECT_EQ(heap.expire(5.0, [&](int k) { expired.push_back(k); }), 0u);
  EXPECT_EQ(heap.expire(11.0, [&](int k) { expired.push_back(k); }), 1u);
}

// ---------------------------------------------------------------------------
// Register sharding edges (harness mirrors test_super_peer's Scenario, with
// control-plane knobs threaded through)
// ---------------------------------------------------------------------------

struct ShardScenario {
  static sim::SimConfig sim_config(std::uint64_t seed) {
    sim::SimConfig c;
    c.seed = seed;
    c.max_time = 1e6;
    return c;
  }

  sim::SimWorld world;
  ControlPlaneConfig cp;
  std::vector<SuperPeer*> sps;
  std::vector<net::Stub> sp_stubs;
  std::vector<net::Stub> sp_addresses;
  std::vector<net::Stub> daemon_stubs;

  explicit ShardScenario(std::size_t sp_count, ControlPlaneConfig cp_in,
                         std::uint64_t seed = 1)
      : world(sim_config(seed)), cp(cp_in) {
    for (std::size_t i = 0; i < sp_count; ++i) {
      auto sp = std::make_unique<SuperPeer>(TimingConfig{}, cp);
      sps.push_back(sp.get());
      const auto stub =
          world.add_node(std::move(sp), sim::MachineSpec::super_peer_class(),
                         net::EntityKind::SuperPeer);
      sp_stubs.push_back(stub);
      sp_addresses.push_back(stub.address());
    }
    for (auto* sp : sps) sp->set_linked_peers(sp_stubs);
  }

  Daemon* add_daemon() {
    auto daemon =
        std::make_unique<Daemon>(sp_addresses, TimingConfig{}, PerfConfig{}, cp);
    Daemon* raw = daemon.get();
    daemon_stubs.push_back(world.add_node(std::move(daemon), sim::MachineSpec{},
                                          net::EntityKind::Daemon));
    return raw;
  }

  [[nodiscard]] std::size_t home_of(const net::Stub& daemon) const {
    return shard_of(daemon.node, sp_addresses.size());
  }
};

// The super-peer's heap-based sweep must behave exactly like the old linear
// scan: same daemons dropped at the same sweep ticks, survivors untouched.
TEST(ControlPlane, HeapSweepMatchesLinearScanSemantics) {
  ShardScenario s(1, ControlPlaneConfig{}, /*seed=*/17);
  std::vector<Daemon*> daemons;
  for (int i = 0; i < 5; ++i) daemons.push_back(s.add_daemon());
  s.world.run_until(2.0);
  ASSERT_EQ(s.sps[0]->registered_count(), 5u);

  // Kill two daemons; both must be swept once daemon_timeout elapses.
  s.world.disconnect(s.daemon_stubs[1].node);
  s.world.disconnect(s.daemon_stubs[3].node);
  s.world.run_until(10.0);
  EXPECT_EQ(s.sps[0]->registered_count(), 3u);
  EXPECT_EQ(s.sps[0]->daemons_swept(), 2u);
  // Survivors keep heartbeating and are never swept.
  s.world.run_until(30.0);
  EXPECT_EQ(s.sps[0]->registered_count(), 3u);
  EXPECT_EQ(s.sps[0]->daemons_swept(), 2u);
}

TEST(ControlPlane, ShardedRegisterLandsDaemonsOnHomeSuperPeer) {
  ControlPlaneConfig cp;
  cp.shard_register = true;
  ShardScenario s(4, cp);
  std::vector<Daemon*> daemons;
  for (int i = 0; i < 12; ++i) daemons.push_back(s.add_daemon());
  s.world.run_until(2.0);
  for (std::size_t i = 0; i < s.daemon_stubs.size(); ++i) {
    ASSERT_EQ(daemons[i]->state(), Daemon::State::Registered);
    const std::size_t home = s.home_of(s.daemon_stubs[i]);
    EXPECT_TRUE(s.sps[home]->has_registered(s.daemon_stubs[i]))
        << "daemon " << i << " not on home shard " << home;
  }
}

TEST(ControlPlane, ReRegisterAfterCrashLandsOnSameShard) {
  ControlPlaneConfig cp;
  cp.shard_register = true;
  ShardScenario s(4, cp);
  s.add_daemon();
  s.world.run_until(2.0);
  const std::size_t home = s.home_of(s.daemon_stubs[0]);
  ASSERT_TRUE(s.sps[home]->has_registered(s.daemon_stubs[0]));

  // Crash and revive: the new incarnation shares the NodeId, so the home
  // shard must be identical.
  s.world.disconnect(s.daemon_stubs[0].node);
  s.world.run_until(8.0);  // swept off the home register
  ASSERT_FALSE(s.sps[home]->has_registered(s.daemon_stubs[0]));
  const net::Stub revived = s.world.revive(
      s.daemon_stubs[0].node,
      std::make_unique<Daemon>(s.sp_addresses, TimingConfig{}, PerfConfig{},
                               s.cp));
  s.world.run_until(12.0);
  EXPECT_EQ(s.home_of(revived), home);
  EXPECT_TRUE(s.sps[home]->has_registered(revived));
  for (std::size_t i = 0; i < s.sps.size(); ++i) {
    if (i != home) {
      EXPECT_EQ(s.sps[i]->registered_count(), 0u);
    }
  }
}

TEST(ControlPlane, RingWalkWhenHomeSuperPeerIsDown) {
  ControlPlaneConfig cp;
  cp.shard_register = true;
  ShardScenario s(3, cp);
  auto* d = s.add_daemon();
  const std::size_t home = s.home_of(s.daemon_stubs[0]);
  s.world.disconnect(s.sp_stubs[home].node);
  s.world.run_until(5.0);
  // The deterministic ring walk must settle on the next live super-peer.
  const std::size_t next = (home + 1) % s.sps.size();
  EXPECT_EQ(d->state(), Daemon::State::Registered);
  EXPECT_TRUE(s.sps[next]->has_registered(s.daemon_stubs[0]));
}

/// Harness actor playing the Spawner side of the reservation protocol.
class ReserveProbe : public net::Actor {
 public:
  void on_start(net::Env& env) override { env_ = &env; }
  void on_message(const net::Message& m, net::Env&) override {
    if (m.type == msg::ReserveReply::kType) {
      const auto reply = net::payload_of<msg::ReserveReply>(m);
      for (const auto& d : reply.daemons) granted.push_back(d);
      if (reply.exhausted) exhausted = true;
      ++replies;
    }
  }
  void request(const net::Stub& sp, std::uint32_t count) {
    msg::ReserveRequest req;
    req.request_id = 1;
    req.count = count;
    req.requester = env_->self();
    rmi::invoke(*env_, sp, req);
  }

  net::Env* env_ = nullptr;
  std::vector<net::Stub> granted;
  int replies = 0;
  bool exhausted = false;
};

TEST(ControlPlane, ForwardDepthBoundsOverlayWalk) {
  ControlPlaneConfig cp;
  cp.max_forward_depth = 1;  // the receiving super-peer may not forward at all
  ShardScenario s(3, cp);
  auto probe = std::make_unique<ReserveProbe>();
  ReserveProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{},
                   net::EntityKind::Spawner);
  s.world.run_until(1.0);
  s.world.schedule_global(0.0, [&] { p->request(s.sp_stubs[0], 2); });
  s.world.run_until(3.0);
  EXPECT_TRUE(p->exhausted);
  EXPECT_EQ(s.sps[0]->requests_forwarded(), 0u);
  EXPECT_EQ(s.sps[0]->requests_depth_bounded(), 1u);
}

TEST(ControlPlane, ForwardDepthTwoReachesOneNeighbour) {
  ControlPlaneConfig cp;
  cp.max_forward_depth = 2;
  ShardScenario s(3, cp);
  auto probe = std::make_unique<ReserveProbe>();
  ReserveProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{},
                   net::EntityKind::Spawner);
  s.world.run_until(1.0);
  s.world.schedule_global(0.0, [&] { p->request(s.sp_stubs[0], 2); });
  s.world.run_until(3.0);
  EXPECT_TRUE(p->exhausted);
  EXPECT_EQ(s.sps[0]->requests_forwarded(), 1u);
  EXPECT_EQ(s.sps[1]->requests_forwarded(), 0u);
  EXPECT_EQ(s.sps[1]->requests_depth_bounded(), 1u);
  EXPECT_EQ(s.sps[2]->requests_forwarded() + s.sps[2]->requests_depth_bounded(),
            0u);
}

TEST(ControlPlane, ReservationServedWhenHomeShardEmpty) {
  // All daemons live on their home shards; a request landing on a super-peer
  // whose register is empty must still be served through forwarding.
  ControlPlaneConfig cp;
  cp.shard_register = true;
  ShardScenario s(2, cp);
  std::vector<Daemon*> daemons;
  for (int i = 0; i < 6; ++i) daemons.push_back(s.add_daemon());
  s.world.run_until(2.0);

  // Find the emptier super-peer (possibly empty) and aim the request at it:
  // the forwarding path has to make up the shortfall from the other shard.
  const std::size_t lean =
      s.sps[0]->registered_count() <= s.sps[1]->registered_count() ? 0 : 1;
  auto probe = std::make_unique<ReserveProbe>();
  ReserveProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{},
                   net::EntityKind::Spawner);
  s.world.run_until(2.5);
  s.world.schedule_global(0.0, [&] { p->request(s.sp_stubs[lean], 6); });
  s.world.run_until(5.0);
  EXPECT_EQ(p->granted.size(), 6u);
  EXPECT_FALSE(p->exhausted);
  EXPECT_GE(s.sps[lean]->requests_forwarded(), 1u);
}

// ---------------------------------------------------------------------------
// Reservation staleness (satellite: TTL + NACK-and-retry)
// ---------------------------------------------------------------------------

TEST(ControlPlane, PooledReservationExpiresWhenDaemonCrashesBeforeAssignment) {
  // 2 daemons, 3 tasks: the spawner pools both and stalls short of capacity.
  // One pooled daemon crashes in exactly the ReserveReply→assignment window;
  // its reservation must be written off by the TTL, and the launch must
  // proceed cleanly once fresh daemons join — no assignment to a dead stub,
  // no spurious failure/replacement.
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 2;
  config.app = golden_app();
  config.app.task_count = 3;
  config.max_sim_time = 400.0;
  SimDeployment deployment(config);
  deployment.build();

  auto& world = deployment.world();
  // By t=2 both daemons are Reserved (pooled, unassigned). Crash one.
  world.schedule_global(2.0, [&] {
    auto* d = dynamic_cast<Daemon*>(world.actor(deployment.daemon_nodes()[0]));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->state(), Daemon::State::Reserved);
    world.disconnect(deployment.daemon_nodes()[0]);
  });
  // Two fresh daemons join well after the reservation TTL (4 s) has pruned
  // the dead pool entry.
  world.schedule_global(8.0, [&] {
    for (int i = 0; i < 2; ++i) {
      world.add_node(
          std::make_unique<Daemon>(
              std::vector<net::Stub>(deployment.super_peer_addresses()),
              TimingConfig{}),
          sim::MachineSpec{}, net::EntityKind::Daemon);
    }
  });
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_GE(deployment.spawner()->reservations_expired(), 1u);
  EXPECT_EQ(deployment.spawner()->assign_nacks(), 0u);
  EXPECT_EQ(report.spawner.failures_detected, 0u);
  EXPECT_EQ(report.spawner.replacements, 0u);
}

TEST(ControlPlane, AssignmentToCrashedReservationIsNackedAndRetried) {
  // Same crash window, but capacity arrives BEFORE the TTL prunes the stale
  // entry: the launch assigns a task to the dead stub. The assign-ack NACK
  // must replace it within ~assign_ack_timeout instead of the full
  // daemon_timeout, and without counting a computing-daemon failure.
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 2;
  config.app = golden_app();
  config.app.task_count = 3;
  config.max_sim_time = 400.0;
  SimDeployment deployment(config);
  deployment.build();

  auto& world = deployment.world();
  world.schedule_global(2.0, [&] {
    auto* d = dynamic_cast<Daemon*>(world.actor(deployment.daemon_nodes()[0]));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->state(), Daemon::State::Reserved);
    world.disconnect(deployment.daemon_nodes()[0]);
  });
  // Capacity joins immediately: one daemon completes the launch trio (with
  // the dead stub still pooled), one spare serves the NACK replacement.
  world.schedule_global(2.2, [&] {
    for (int i = 0; i < 2; ++i) {
      world.add_node(
          std::make_unique<Daemon>(
              std::vector<net::Stub>(deployment.super_peer_addresses()),
              TimingConfig{}),
          sim::MachineSpec{}, net::EntityKind::Daemon);
    }
  });
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_GE(deployment.spawner()->assign_nacks(), 1u);
  // The NACK is not a computing-daemon failure; the retried assignment counts
  // as a replacement.
  EXPECT_EQ(report.spawner.failures_detected, 0u);
  EXPECT_GE(report.spawner.replacements, 1u);
}

// ---------------------------------------------------------------------------
// Application Register replication + standby failover
// ---------------------------------------------------------------------------

TEST(ControlPlane, ReplicasReachSuperPeersOnLaunch) {
  SimDeploymentConfig config = golden_config();
  config.disconnect_times.clear();
  config.super_peer_count = 3;
  config.cp.replicate_register = true;
  config.cp.replica_count = 2;
  SimDeployment deployment(config);
  deployment.build();
  auto& world = deployment.world();
  world.run_until(30.0);

  // The first two bootstrap super-peers hold a replica; the third does not.
  int with_replica = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    auto* sp = dynamic_cast<SuperPeer*>(
        world.actor(deployment.super_peer_addresses()[i].node));
    ASSERT_NE(sp, nullptr);
    if (sp->has_replica(config.app.app_id)) {
      ++with_replica;
      EXPECT_GE(sp->replica_version(config.app.app_id), 1u);
    }
  }
  EXPECT_EQ(with_replica, 2);
}

TEST(ControlPlane, StandbySpawnerAdoptsAfterPrimaryDies) {
  // Manual world: primary spawner (replicating), one SP, enough daemons.
  // Kill the primary mid-run; a standby started afterwards must fetch the
  // replica, adopt the application, re-target the daemons and carry the run
  // to completion.
  register_golden_ticker();
  sim::SimConfig sim_config;
  sim_config.seed = 23;
  sim_config.max_time = 1e6;
  sim::SimWorld world(sim_config);

  ControlPlaneConfig cp;
  cp.replicate_register = true;
  cp.replica_count = 1;

  auto sp_owned = std::make_unique<SuperPeer>(TimingConfig{}, cp);
  SuperPeer* sp = sp_owned.get();
  const net::Stub sp_stub =
      world.add_node(std::move(sp_owned), sim::MachineSpec::super_peer_class(),
                     net::EntityKind::SuperPeer);
  const std::vector<net::Stub> addresses{sp_stub.address()};

  for (int i = 0; i < 6; ++i) {
    world.add_node(
        std::make_unique<Daemon>(addresses, TimingConfig{}, PerfConfig{}, cp),
        sim::MachineSpec{}, net::EntityKind::Daemon);
  }

  AppDescriptor app = golden_app();
  // Slow convergence (stable from iteration 10000, ~50 s at the default
  // 200 Mflop/s machine) so the failover at t=15 lands mid-computation.
  app.convergence_threshold = 1e-4;

  bool primary_completed = false;
  auto primary = std::make_unique<Spawner>(
      app, addresses,
      [&](const SpawnerReport&) { primary_completed = true; }, TimingConfig{},
      cp);
  const net::Stub primary_stub =
      world.add_node(std::move(primary), sim::MachineSpec::spawner_class(),
                     net::EntityKind::Spawner);

  bool standby_completed = false;
  SpawnerReport standby_report;
  Spawner* standby_ptr = nullptr;
  world.schedule_global(15.0, [&] {
    world.disconnect(primary_stub.node);
    auto standby = std::make_unique<Spawner>(
        app, addresses,
        [&](const SpawnerReport& r) {
          standby_completed = true;
          standby_report = r;
          world.request_stop();
        },
        TimingConfig{}, cp);
    standby->set_standby(true);
    standby_ptr = standby.get();
    world.add_node(std::move(standby), sim::MachineSpec::spawner_class(),
                   net::EntityKind::Spawner);
  });

  world.run_until(1000.0);
  EXPECT_FALSE(primary_completed);
  ASSERT_NE(standby_ptr, nullptr);
  EXPECT_TRUE(standby_ptr->adopted());
  ASSERT_TRUE(standby_completed);
  EXPECT_TRUE(standby_report.completed);
  EXPECT_TRUE(sp->has_replica(app.app_id));
  // Every task reached the (slow) stability point under the standby.
  for (const auto it : standby_report.final_iterations) {
    EXPECT_GE(it, 10000u);
  }
}

// ---------------------------------------------------------------------------
// Diffusion-wave convergence detection
// ---------------------------------------------------------------------------

TEST(ControlPlane, DiffusionDetectsConvergenceWithO1SpawnerMessages) {
  SimDeploymentConfig config = golden_config();
  config.disconnect_times.clear();
  config.cp.diffusion = true;
  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  ASSERT_NE(deployment.spawner(), nullptr);
  EXPECT_GE(deployment.spawner()->verdicts_received(), 1u);

  // No per-transition reports funnel through the spawner, and the verdict
  // count is O(1) per application (re-sends are bounded by wave_period ×
  // halt latency, in practice a handful).
  const auto& delivered = report.net.delivered_by_type;
  const auto reports_it = delivered.find(msg::LocalStateReport::kType);
  EXPECT_TRUE(reports_it == delivered.end() || reports_it->second == 0u);
  const auto verdicts_it = delivered.find(msg::ConvergedVerdict::kType);
  ASSERT_NE(verdicts_it, delivered.end());
  EXPECT_GE(verdicts_it->second, 1u);
  EXPECT_LE(verdicts_it->second, 8u);
  // The wave itself ran: tokens circulated the task ring.
  const auto tokens_it = delivered.find(msg::WaveToken::kType);
  ASSERT_NE(tokens_it, delivered.end());
  EXPECT_GE(tokens_it->second, 2u * config.app.task_count);
}

TEST(ControlPlane, DiffusionConvergenceTimeMatchesCentralized) {
  // Off-vs-on parity: the wave protocol certifies the same convergence the
  // centralized board sees, within detection latency (a few wave periods +
  // the freshness gate the centralized path applies).
  SimDeploymentConfig base = golden_config();
  base.disconnect_times.clear();

  SimDeployment centralized(base);
  const auto centralized_report = centralized.run();
  ASSERT_TRUE(centralized_report.spawner.completed);

  SimDeploymentConfig diffusion_config = base;
  diffusion_config.cp.diffusion = true;
  SimDeployment diffusion(diffusion_config);
  const auto diffusion_report = diffusion.run();
  ASSERT_TRUE(diffusion_report.spawner.completed);

  // Same stability point (threshold 0.002 → iteration ~503), so detection
  // times must agree within a small number of seconds of detection latency.
  EXPECT_NEAR(diffusion_report.spawner.convergence_time,
              centralized_report.spawner.convergence_time, 5.0);
  for (std::size_t t = 0; t < base.app.task_count; ++t) {
    EXPECT_GE(diffusion_report.spawner.final_iterations[t], 503u);
  }
}

TEST(ControlPlane, DiffusionSurvivesMidWaveReplacement) {
  // Crash a computing daemon while waves are circulating: the token may die
  // with it; the initiator's wave_timeout must relaunch, the replacement
  // dirties the wave, and the run still completes.
  SimDeploymentConfig config = golden_config();
  config.cp.diffusion = true;
  config.disconnect_times = {1.8, 9.0};
  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_GE(report.spawner.replacements, 1u);
  EXPECT_GE(deployment.spawner()->verdicts_received(), 1u);
}

// ---------------------------------------------------------------------------
// Fully decentralized plane: bit-determinism across scheduler shards (this
// test also backs the TSan CI leg; keep "ShardedDiffusion" in its name).
// ---------------------------------------------------------------------------

std::uint64_t run_decentralized(std::size_t shards, std::size_t threads) {
  SimDeploymentConfig config;
  config.daemon_count = 24;
  config.app = golden_app();
  config.app.task_count = 6;
  config.max_sim_time = 600.0;
  // Shard-count invariance needs the §12 deviations quiet: zero jitter (the
  // jitter streams are per-shard by design) and no mid-flight crash (loss
  // classification moves from send to arrival time at shards > 1). The
  // decentralized plane itself draws no scheduler randomness — registration
  // and reservation spreading hash instead of sampling — which is what makes
  // this gate possible at all.
  config.sim.message_jitter = 0.0;
  config.sim.compute_jitter = 0.0;
  config.cp.super_peers = 4;
  config.cp.shard_register = true;
  config.cp.max_forward_depth = 4;
  config.cp.replicate_register = true;
  config.cp.diffusion = true;
  config.sim.shards = shards;
  config.sim.worker_threads = threads;
  SimDeployment deployment(config);
  const auto report = deployment.run();
  EXPECT_TRUE(report.spawner.completed);
  // Fold the protocol-visible outcome and the conserved wire totals. Two
  // quantities are deliberately left out: `delivered` and `sim_end_time` are
  // defined by where the scheduler's stop lands — the classic queue halts on
  // the exact completion event while a sharded round finishes the events
  // already inside its open horizon (§12 mid-round-stop semantics) — so a
  // handful of in-flight frames count as delivered at shards > 1 that the
  // classic run leaves on the wire. `sent`/`bytes_sent`/`frames_on_wire`
  // and the loss counters are send-side and conserved, hence comparable.
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv(h, report.spawner.completed ? 1 : 0);
  h = fnv(h, bits_of(report.spawner.launch_time));
  h = fnv(h, bits_of(report.spawner.convergence_time));
  h = fnv(h, bits_of(report.spawner.finish_time));
  h = fnv(h, report.spawner.failures_detected);
  h = fnv(h, report.spawner.replacements);
  for (auto it : report.spawner.final_iterations) h = fnv(h, it);
  for (auto it : report.spawner.final_informative_iterations) h = fnv(h, it);
  h = fnv(h, report.net.sent);
  h = fnv(h, report.net.lost_down);
  h = fnv(h, report.net.lost_stale);
  h = fnv(h, report.net.bytes_sent);
  h = fnv(h, report.net.frames_on_wire);
  return h;
}

TEST(ControlPlane, ShardedDiffusionDeterministicAcrossShardsAndThreads) {
  const std::uint64_t base = run_decentralized(1, 0);
  EXPECT_EQ(run_decentralized(4, 0), base);
  EXPECT_EQ(run_decentralized(4, 2), base);
}

}  // namespace
}  // namespace jacepp::core
