// Sharded-scheduler contract tests (DESIGN.md §12).
//
// The determinism contract has three legs:
//   1. `shards = 1` (the resolved default) is bit-identical to the classic
//      single-queue scheduler — pinned here against committed golden digests
//      captured before the sharded scheduler existed.
//   2. For a fixed (seed, scenario, shards) the run replays bit-for-bit.
//   3. The replay is independent of the worker-thread count driving the
//      shard rounds (these tests run under TSan in CI with shards >= 2 and
//      threads >= 2).
//
// The digest folds every externally observable effect of the scheduler into
// one u64: per-node message receive times (bit patterns), aggregated NetStats
// counters, and the final clock.
#include "sim/world.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/env.hpp"
#include "rmi/rmi.hpp"
#include "support/digest.hpp"

namespace jacepp::sim {
namespace {

// --- scenario ----------------------------------------------------------------
// A bounded echo mesh: every node starts a staggered ping to its ring
// neighbour; each received value below the cutoff is re-sent (after a modelled
// compute) to the next neighbour with a size that varies per hop. Node 3 is
// crashed and revived mid-run, so the guarded-timer, lost-in-flight and
// stale-incarnation paths all fire. Terminates because values grow past the
// cutoff and crashed nodes swallow messages.

struct Echo {
  static constexpr net::MessageType kType = 9100;
  std::uint32_t value = 0;
  serial::Bytes pad;
  void serialize(serial::Writer& w) const {
    w.u32(value);
    w.bytes(pad);
  }
  static Echo deserialize(serial::Reader& r) {
    Echo e;
    e.value = r.u32();
    e.pad = r.bytes();
    return e;
  }
};

class EchoActor : public net::Actor {
 public:
  EchoActor(std::uint32_t index, std::uint32_t fanout,
            std::vector<net::Stub>* peers)
      : index_(index), fanout_(fanout), peers_(peers) {}

  void on_start(net::Env& env) override {
    env_ = &env;
    env.schedule(0.01 * (index_ + 1), [this] { emit(index_); });
  }

  void on_message(const net::Message& m, net::Env& env) override {
    const auto echo = net::payload_of<Echo>(m);
    receive_times.push_back(env.now());
    values.push_back(echo.value);
    if (echo.value < 40) {
      const std::uint32_t next = echo.value + fanout_;
      env.compute([&echo] { return 1e6 * (echo.value % 5 + 1); },
                  [this, next] { emit(next); });
    }
  }

  void emit(std::uint32_t value) {
    if (peers_->empty()) return;
    Echo e;
    e.value = value;
    e.pad = serial::Bytes((value % 7) * 64, std::uint8_t(value));
    rmi::invoke(*env_, (*peers_)[(index_ + 1) % peers_->size()], e);
  }

  std::uint32_t index_;
  std::uint32_t fanout_;
  std::vector<net::Stub>* peers_;
  net::Env* env_ = nullptr;
  std::vector<double> receive_times;
  std::vector<std::uint32_t> values;
};

struct ScenarioResult {
  std::uint64_t digest = 0;
  NetStats stats;
  double end_time = 0.0;
};

ScenarioResult run_echo_scenario(SimConfig config, std::size_t node_count = 8) {
  SimWorld world(config);
  std::vector<net::Stub> stubs;
  std::vector<EchoActor*> actors;
  for (std::size_t i = 0; i < node_count; ++i) {
    auto actor = std::make_unique<EchoActor>(static_cast<std::uint32_t>(i),
                                             8, &stubs);
    actors.push_back(actor.get());
    MachineSpec spec;
    spec.flops_per_sec = 1e8 * (1.0 + static_cast<double>(i % 3));
    spec.bandwidth_bps = (i % 2 == 0) ? 100e6 : 1000e6;
    stubs.push_back(
        world.add_node(std::move(actor), spec, net::EntityKind::Daemon));
  }
  // Crash node 3 mid-run and bring back a fresh incarnation; messages to the
  // old one must be dropped (lost_down in flight, lost_stale afterwards).
  EchoActor* revived = nullptr;
  world.schedule_global(0.20, [&] { world.disconnect(stubs[3].node); });
  world.schedule_global(0.60, [&] {
    auto fresh = std::make_unique<EchoActor>(3, 8, &stubs);
    revived = fresh.get();
    world.revive(stubs[3].node, std::move(fresh));
  });
  world.run();

  ScenarioResult r;
  r.stats = world.stats();
  r.end_time = world.now();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const EchoActor* a : actors) {
    // Node 3's original actor was destroyed by revive(); its replacement is
    // digested below.
    if (a == actors[3]) continue;
    h = fnv(h, a->receive_times.size());
    for (double t : a->receive_times) h = fnv(h, bits_of(t));
    for (std::uint32_t v : a->values) h = fnv(h, v);
  }
  if (revived != nullptr) {
    h = fnv(h, revived->receive_times.size());
    for (double t : revived->receive_times) h = fnv(h, bits_of(t));
  }
  h = fnv(h, r.stats.sent);
  h = fnv(h, r.stats.delivered);
  h = fnv(h, r.stats.lost_down);
  h = fnv(h, r.stats.lost_stale);
  h = fnv(h, r.stats.bytes_sent);
  h = fnv(h, bits_of(r.end_time));
  r.digest = h;
  return r;
}

// --- golden pins: shards = 1 is the pre-shard scheduler ---------------------
// Captured from the single-queue scheduler before the sharded execution path
// existed (commit 84fa7f0). Any bit drift on the default path is a contract
// violation, not a tolerance question.

constexpr std::uint64_t kGoldenDirect = 10373930357449530871ull;
constexpr std::uint64_t kGoldenLinked = 16239751200383619476ull;

SimConfig direct_config() {
  SimConfig c;
  c.seed = 1234;
  return c;
}

SimConfig linked_config() {
  // Exercises the link layer: flush windows + one-frame-in-flight occupancy.
  SimConfig c;
  c.seed = 99;
  c.link.flush_window = 0.004;
  c.serialize_links = true;
  return c;
}

TEST(ShardedGolden, DefaultSchedulerMatchesCommittedDigest) {
  EXPECT_EQ(run_echo_scenario(direct_config()).digest, kGoldenDirect);
}

TEST(ShardedGolden, LinkLayerSchedulerMatchesCommittedDigest) {
  EXPECT_EQ(run_echo_scenario(linked_config()).digest, kGoldenLinked);
}

// --- shards >= 2: replay and thread-count independence ----------------------

SimConfig sharded_config(std::size_t shards, std::size_t workers) {
  SimConfig c = direct_config();
  c.shards = shards;
  c.worker_threads = workers;  // > 0 forces real worker threads (TSan food)
  return c;
}

TEST(ShardedContract, FixedSeedScenarioShardsReplaysBitForBit) {
  const ScenarioResult first = run_echo_scenario(sharded_config(4, 2));
  const ScenarioResult second = run_echo_scenario(sharded_config(4, 2));
  EXPECT_EQ(first.digest, second.digest);
  // The scenario must actually exercise the mailbox path.
  EXPECT_GT(first.stats.cross_shard_frames, 0u);
  EXPECT_GT(first.stats.delivered, 0u);
}

TEST(ShardedContract, ReplayIndependentOfWorkerThreadCount) {
  const std::uint64_t auto_sized = run_echo_scenario(sharded_config(4, 0)).digest;
  const std::uint64_t one = run_echo_scenario(sharded_config(4, 1)).digest;
  const std::uint64_t two = run_echo_scenario(sharded_config(4, 2)).digest;
  const std::uint64_t four = run_echo_scenario(sharded_config(4, 4)).digest;
  EXPECT_EQ(one, auto_sized);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(ShardedContract, LinkLayerReplayIndependentOfWorkerThreadCount) {
  SimConfig base = linked_config();
  base.shards = 3;
  base.worker_threads = 1;
  const std::uint64_t one = run_echo_scenario(base).digest;
  base.worker_threads = 3;
  const std::uint64_t three = run_echo_scenario(base).digest;
  EXPECT_EQ(one, three);
}

TEST(ShardedContract, WireFrameAccountingConserved) {
  // Every frame put on the wire ends up exactly one of delivered / lost_down /
  // lost_stale once the queues drain (corrupt batch envelopes count as
  // delivered first), with any shard count.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const ScenarioResult r = run_echo_scenario(sharded_config(shards, 2));
    EXPECT_EQ(r.stats.frames_on_wire,
              r.stats.delivered + r.stats.lost_down + r.stats.lost_stale)
        << "shards=" << shards;
    if (shards == 1) {
      EXPECT_EQ(r.stats.cross_shard_frames, 0u);
    } else {
      EXPECT_GT(r.stats.cross_shard_frames, 0u);
      EXPECT_LE(r.stats.cross_shard_frames, r.stats.frames_on_wire);
    }
  }
}

TEST(ShardedContract, ShardAssignmentStableAndReasonablyBalanced) {
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kIds = 4096;
  std::vector<std::size_t> count(kShards, 0);
  for (net::NodeId id = 1; id <= kIds; ++id) {
    const std::uint32_t s = SimWorld::shard_of(id, kShards);
    ASSERT_LT(s, kShards);
    EXPECT_EQ(s, SimWorld::shard_of(id, kShards));  // pure function of (id, n)
    EXPECT_EQ(SimWorld::shard_of(id, 1), 0u);
    ++count[s];
  }
  const std::size_t avg = kIds / kShards;
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(count[s], avg / 2) << "shard " << s << " starved";
    EXPECT_LT(count[s], avg * 2) << "shard " << s << " overloaded";
  }
}

TEST(ShardedContract, EnvKnobResolvesShardCount) {
  SimConfig explicit_cfg;
  explicit_cfg.shards = 2;
  EXPECT_EQ(SimWorld{explicit_cfg}.shard_count(), 2u);
  EXPECT_EQ(SimWorld{}.shard_count(), 1u);  // classic default
}

TEST(ShardedContract, CrossShardInFlightReviveDropsFrame) {
  // Cross-shard frames resolve liveness at *arrival* on the destination
  // shard: a frame addressed to incarnation 1 that lands after a crash +
  // revive (incarnation 2) is dropped as stale — the sharded analogue of the
  // classic lost-in-flight drop; either way the revived actor never sees it.
  class Quiet : public net::Actor {
   public:
    void on_start(net::Env& env) override { env_ = &env; }
    void on_message(const net::Message& m, net::Env& env) override {
      (void)m;
      receive_times.push_back(env.now());
    }
    net::Env* env_ = nullptr;
    std::vector<double> receive_times;
  };

  SimConfig config = sharded_config(2, 2);
  SimWorld world(config);
  std::vector<net::Stub> stubs;
  std::vector<Quiet*> actors;
  for (std::size_t i = 0; i < 4; ++i) {
    auto actor = std::make_unique<Quiet>();
    actors.push_back(actor.get());
    stubs.push_back(world.add_node(std::move(actor), MachineSpec{},
                                   net::EntityKind::Daemon));
  }
  // Find a sender/receiver pair on different shards (4 sequential ids over 2
  // shards always contain one; guard anyway).
  const std::size_t from = 0;
  std::size_t to = 0;
  for (std::size_t i = 1; i < stubs.size(); ++i) {
    if (SimWorld::shard_of(stubs[i].node, 2) !=
        SimWorld::shard_of(stubs[from].node, 2)) {
      to = i;
      break;
    }
  }
  ASSERT_NE(from, to) << "all test ids hashed to one shard";
  world.run_until(0.005);  // let on_start run so env_ is wired
  Quiet* revived = nullptr;
  world.schedule_global(0.006, [&] {
    net::Message m;
    Echo e;
    e.value = 100;
    m.type = Echo::kType;
    m.body = serial::encode(e);
    actors[from]->env_->send(stubs[to], m);  // flight time >= ~16 ms
    world.disconnect(stubs[to].node);
    auto fresh = std::make_unique<Quiet>();
    revived = fresh.get();
    world.revive(stubs[to].node, std::move(fresh));
  });
  world.run();
  ASSERT_NE(revived, nullptr);
  EXPECT_TRUE(revived->receive_times.empty());
  EXPECT_EQ(world.stats().lost_stale, 1u);
  EXPECT_EQ(world.stats().cross_shard_frames, 1u);
}

TEST(ShardedContract, ActorRequestedStopEndsRoundAndReArms) {
  // request_stop() from actor code on a worker thread: the requesting shard
  // ends its round at that event boundary, the world stops at the round
  // barrier, and clear_stop() re-arms so the run can finish — with a
  // thread-count-independent event count throughout.
  class TickActor : public net::Actor {
   public:
    TickActor(int limit, std::function<void()> on_limit)
        : limit_(limit), on_limit_(std::move(on_limit)) {}
    void on_start(net::Env& env) override { arm(env); }
    void on_message(const net::Message&, net::Env&) override {}
    void arm(net::Env& env) {
      env.schedule(0.05, [this, &env] {
        ++ticks;
        if (ticks == limit_ && on_limit_) on_limit_();
        if (ticks < 100) arm(env);
      });
    }
    int limit_;
    std::function<void()> on_limit_;
    int ticks = 0;
  };

  auto run_once = [](std::size_t workers, std::uint64_t* events_at_stop) {
    SimConfig config;
    config.seed = 7;
    config.shards = 4;
    config.worker_threads = workers;
    SimWorld world(config);
    std::vector<TickActor*> actors;
    for (int i = 0; i < 8; ++i) {
      auto actor = std::make_unique<TickActor>(
          i == 0 ? 37 : -1, i == 0 ? [&world] { world.request_stop(); }
                                   : std::function<void()>{});
      actors.push_back(actor.get());
      world.add_node(std::move(actor), MachineSpec{}, net::EntityKind::Daemon);
    }
    world.run();
    EXPECT_TRUE(world.stop_requested());
    EXPECT_EQ(actors[0]->ticks, 37);  // its shard stopped at that boundary
    *events_at_stop = world.events_executed();
    world.clear_stop();
    world.run();
    for (const TickActor* a : actors) EXPECT_EQ(a->ticks, 100);
    return world.events_executed();
  };

  std::uint64_t stop1 = 0, stop2 = 0;
  const std::uint64_t total1 = run_once(1, &stop1);
  const std::uint64_t total2 = run_once(4, &stop2);
  EXPECT_EQ(stop1, stop2);    // stop point is deterministic...
  EXPECT_EQ(total1, total2);  // ...and so is the re-armed completion
}

}  // namespace
}  // namespace jacepp::sim
