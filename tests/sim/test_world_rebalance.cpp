// Round-engine regression suite (DESIGN.md §12): pins the protocol digest of
// a skewed star + flash-crowd churn scenario across every engine toggle the
// PR introduced — adaptive per-shard horizons, the deterministic rebalancer,
// worker-thread counts and shard counts — against the digest committed by the
// pre-overhaul engine. The scenario uses commutative per-node tallies (sums,
// not sequences) so the digest is invariant to the arrival order of
// same-timestamp messages, which legitimately differs across shard counts;
// everything else (counters, end time, per-message arrival-time bit patterns)
// must be bit-identical.
//
// This binary carries the `chaos` ctest label: CI runs it as a dedicated
// fault-injection leg under TSan (`ctest -L chaos`), which exercises the
// RoundWorkerPool barrier handoff and the rebalancer's cross-shard event
// migration with real worker threads.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "net/env.hpp"
#include "sim/churn.hpp"
#include "sim/machine.hpp"
#include "sim/world.hpp"
#include "support/digest.hpp"

namespace jacepp::sim {
namespace {

// Digest of the star scenario produced by the pre-overhaul round engine
// (uniform lookahead, no rebalancing, concat+stable_sort merge). Every
// configuration below must still produce it bit for bit.
constexpr std::uint64_t kCommittedDigest = 11547216190727032663ull;

struct BeaconMsg {
  static constexpr net::MessageType kType = 9300;
  std::uint32_t value = 0;
  serial::Bytes pad;
  void serialize(serial::Writer& w) const {
    w.u32(value);
    w.bytes(pad);
  }
  static BeaconMsg deserialize(serial::Reader& r) {
    BeaconMsg m;
    m.value = r.u32();
    m.pad = r.bytes();
    return m;
  }
};

struct AckMsg {
  static constexpr net::MessageType kType = 9301;
  std::uint32_t value = 0;
  void serialize(serial::Writer& w) const { w.u32(value); }
  static AckMsg deserialize(serial::Reader& r) {
    AckMsg m;
    m.value = r.u32();
    return m;
  }
};

// Commutative per-node tallies: sums, not sequences, so the digest cannot
// depend on the arrival order of same-timestamp messages.
struct Tally {
  std::uint64_t received = 0;
  std::uint64_t value_sum = 0;
  std::uint64_t time_bits_sum = 0;  // wrapping sum of arrival-time bit patterns

  void note(double now, std::uint32_t value) {
    ++received;
    value_sum += value;
    time_bits_sum += bits_of(now);
  }
};

/// Hub of the star: acks every beacon back to its sender. Stateless per
/// message, so handler order at equal timestamps cannot change behaviour.
class HubActor : public net::Actor {
 public:
  explicit HubActor(Tally* tally) : tally_(tally) {}

  void on_start(net::Env& /*env*/) override {}

  void on_message(const net::Message& m, net::Env& env) override {
    if (m.type != BeaconMsg::kType) return;
    const auto beacon = net::payload_of<BeaconMsg>(m);
    tally_->note(env.now(), beacon.value);
    AckMsg ack;
    ack.value = beacon.value + 1;
    env.send(m.from, net::make_message(ack));
  }

 private:
  Tally* tally_;
};

/// Spoke: beacons to its hub on a fixed per-node stagger/period, counts acks.
class SpokeActor : public net::Actor {
 public:
  SpokeActor(std::uint32_t index, double deadline, std::vector<net::Stub>* hubs,
             Tally* tally)
      : index_(index), deadline_(deadline), hubs_(hubs), tally_(tally) {}

  void on_start(net::Env& env) override {
    const double stagger = env.rng().uniform(0.0, 0.25);
    env.schedule(stagger, [this, &env] { tick(env); });
  }

  void on_message(const net::Message& m, net::Env& env) override {
    if (m.type != AckMsg::kType) return;
    tally_->note(env.now(), net::payload_of<AckMsg>(m).value);
  }

  void tick(net::Env& env) {
    BeaconMsg b;
    b.value = index_ * 1000 + sent_;
    b.pad = serial::Bytes((sent_ % 5) * 48, std::uint8_t(index_));
    ++sent_;
    // Address stub (incarnation 0): traffic keeps flowing to a revived hub.
    env.send((*hubs_)[index_ % hubs_->size()].address(), net::make_message(b));
    if (env.now() + 0.25 <= deadline_) {
      env.schedule(0.25, [this, &env] { tick(env); });
    }
  }

  std::uint32_t index_;
  double deadline_;
  std::vector<net::Stub>* hubs_;
  Tally* tally_;
  std::uint32_t sent_ = 0;
};

/// Test-side ChurnDriver: flash crowds join fresh spokes, bursts crash/revive
/// live nodes, slowdowns throttle. All victim draws come from the per-op rng,
/// so the fault trace is identical for every engine configuration.
class StarDriver : public ChurnDriver {
 public:
  StarDriver(SimWorld* world, std::vector<net::Stub>* hubs, double deadline)
      : world_(world), hubs_(hubs), deadline_(deadline) {}

  void flash_join(std::size_t count, Rng& rng) override {
    (void)rng;
    for (std::size_t i = 0; i < count; ++i) add_spoke();
  }

  void failure_burst(std::size_t count, bool revive, double revive_delay,
                     Rng& rng) override {
    std::vector<net::NodeId> pool;
    for (const net::NodeId node : nodes_) {
      if (world_->is_up(node)) pool.push_back(node);
    }
    const std::size_t n = std::min(count, pool.size());
    for (std::size_t i = 0; i < n; ++i) {
      std::swap(pool[i], pool[i + rng.index(pool.size() - i)]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const net::NodeId victim = pool[i];
      world_->disconnect(victim);
      if (revive) {
        world_->schedule_global(revive_delay, [this, victim] {
          if (world_->is_up(victim)) return;
          world_->revive(victim, make_actor_for(victim));
        });
      }
    }
  }

  void slow_peers(std::size_t count, double factor, double wire_factor,
                  Rng& rng) override {
    (void)wire_factor;
    std::vector<net::NodeId> pool;
    for (const net::NodeId node : nodes_) {
      if (world_->is_up(node)) pool.push_back(node);
    }
    const std::size_t n = std::min(count, pool.size());
    for (std::size_t i = 0; i < n; ++i) {
      std::swap(pool[i], pool[i + rng.index(pool.size() - i)]);
    }
    for (std::size_t i = 0; i < n; ++i) world_->throttle(pool[i], factor);
  }

  void add_hub() {
    tallies_.push_back(std::make_unique<Tally>());
    const net::Stub stub = world_->add_node(
        std::make_unique<HubActor>(tallies_.back().get()),
        MachineSpec::super_peer_class(), net::EntityKind::SuperPeer);
    hubs_->push_back(stub);
    nodes_.push_back(stub.node);
    kinds_.push_back(Kind::Hub);
    indices_.push_back(0);
  }

  void add_spoke() {
    tallies_.push_back(std::make_unique<Tally>());
    const auto index = static_cast<std::uint32_t>(nodes_.size());
    MachineSpec spec;
    spec.flops_per_sec = 1e8 * (1.0 + index % 3);
    spec.bandwidth_bps = (index % 2 == 0) ? 100e6 : 1000e6;
    const net::Stub stub = world_->add_node(
        std::make_unique<SpokeActor>(index, deadline_, hubs_,
                                     tallies_.back().get()),
        spec, net::EntityKind::Daemon);
    nodes_.push_back(stub.node);
    kinds_.push_back(Kind::Spoke);
    indices_.push_back(index);
  }

  [[nodiscard]] std::uint64_t tally_digest() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto& tally : tallies_) {
      h = fnv(h, tally->received);
      h = fnv(h, tally->value_sum);
      h = fnv(h, tally->time_bits_sum);
    }
    return h;
  }

 private:
  enum class Kind { Hub, Spoke };

  std::unique_ptr<net::Actor> make_actor_for(net::NodeId node) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i] != node) continue;
      // The revived node reuses its original tally slot: counts accumulate
      // across incarnations, keeping the digest a pure function of traffic.
      if (kinds_[i] == Kind::Hub) {
        return std::make_unique<HubActor>(tallies_[i].get());
      }
      return std::make_unique<SpokeActor>(indices_[i], deadline_, hubs_,
                                          tallies_[i].get());
    }
    return nullptr;
  }

  SimWorld* world_;
  std::vector<net::Stub>* hubs_;
  double deadline_;
  std::vector<net::NodeId> nodes_;
  std::vector<Kind> kinds_;
  std::vector<std::uint32_t> indices_;
  std::vector<std::unique_ptr<Tally>> tallies_;
};

struct StarResult {
  std::uint64_t digest = 0;
  NetStats stats;
  double end_time = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t migrations = 0;
};

/// 8 hubs + 48 spokes (more arrive via flash crowd), a scripted churn trace
/// (crash/revive bursts, slowdowns) and a 20 s deadline so the world drains.
StarResult run_star_scenario(SimConfig config) {
  constexpr double kDeadline = 20.0;
  config.message_jitter = 0.0;  // shard-count invariance needs quiet jitter
  config.compute_jitter = 0.0;
  SimWorld world(config);
  std::vector<net::Stub> hubs;
  StarDriver driver(&world, &hubs, kDeadline);
  for (int i = 0; i < 8; ++i) driver.add_hub();
  for (int i = 0; i < 48; ++i) driver.add_spoke();

  ChurnScriptConfig churn;
  churn.seed = 17;
  churn.start = 2.0;
  churn.horizon = 10.0;
  churn.flash_crowds = 1;
  churn.flash_size = 8;
  churn.failure_bursts = 2;
  churn.burst_size = 2;
  churn.revive = true;
  churn.revive_delay = 4.0;
  churn.slowdowns = 1;
  churn.slowdown_size = 2;
  churn.slow_factor = 4.0;
  ChurnScript script(churn);
  script.install(world, driver);
  world.run();

  StarResult r;
  r.stats = world.stats();
  r.end_time = world.now();
  r.rounds = world.rounds_executed();
  r.migrations = world.migrations();
  std::uint64_t h = driver.tally_digest();
  h = fnv(h, r.stats.sent);
  h = fnv(h, r.stats.delivered);
  h = fnv(h, r.stats.lost());  // total only: the down/stale split is a
                               // documented shards>1 deviation (§12)
  h = fnv(h, r.stats.bytes_sent);
  h = fnv(h, r.stats.frames_on_wire);
  h = fnv(h, bits_of(r.end_time));
  r.digest = h;
  return r;
}

SimConfig star_config(std::size_t shards, std::size_t threads, bool adaptive,
                      bool rebalance) {
  SimConfig c;
  c.seed = 4242;
  c.shards = shards;
  c.worker_threads = threads;
  c.adaptive_lookahead = adaptive;
  c.rebalance = rebalance;
  // Aggressive window/threshold so the small scenario actually triggers
  // migrations inside its 20 s run.
  c.rebalance_every = 16;
  c.rebalance_threshold = 1.1;
  return c;
}

void expect_conserved(const StarResult& r) {
  EXPECT_EQ(r.stats.frames_on_wire,
            r.stats.delivered + r.stats.lost_down + r.stats.lost_stale);
}

TEST(WorldRebalance, DefaultsOffMatchesCommittedDigest) {
  // shards=1 is the classic single-queue engine; every defaults-off sharded
  // run must agree with it AND with the committed pre-overhaul digest.
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const StarResult r = run_star_scenario(star_config(shards, 1, false, false));
    EXPECT_EQ(r.digest, kCommittedDigest) << "shards=" << shards;
    expect_conserved(r);
  }
}

TEST(WorldRebalance, DigestInvariantAcrossEngineMatrix) {
  // Every engine toggle combination must replay the identical scenario:
  // adaptive horizons only widen the safe bound, migrations preserve event
  // keys, and the lane count never orders anything.
  for (const bool adaptive : {false, true}) {
    for (const bool rebalance : {false, true}) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
          const StarResult r = run_star_scenario(
              star_config(shards, threads, adaptive, rebalance));
          EXPECT_EQ(r.digest, kCommittedDigest)
              << "adaptive=" << adaptive << " rebalance=" << rebalance
              << " threads=" << threads << " shards=" << shards;
          expect_conserved(r);
        }
      }
    }
  }
}

TEST(WorldRebalance, RebalancerMigratesOnSkewedLoad) {
  // The star pins all delivery load on the hubs: with the aggressive window
  // the rebalancer must actually move nodes — this guards against a silently
  // disabled balancer making the matrix test vacuous. The migration count is
  // itself deterministic: the 2-thread rerun must reproduce it exactly.
  const StarResult t1 = run_star_scenario(star_config(4, 1, false, true));
  const StarResult t2 = run_star_scenario(star_config(4, 2, false, true));
  EXPECT_GT(t1.migrations, 0u);
  EXPECT_EQ(t1.migrations, t2.migrations);
  EXPECT_EQ(t1.digest, kCommittedDigest);
  EXPECT_EQ(t2.digest, kCommittedDigest);
}

TEST(WorldRebalance, AdaptiveHorizonsNeverIncreaseRounds) {
  // Per-shard horizons are always at least as wide as the uniform global
  // horizon, so the same drain can only take fewer (or equal) barrier rounds.
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const StarResult uniform =
        run_star_scenario(star_config(shards, 1, false, false));
    const StarResult adaptive =
        run_star_scenario(star_config(shards, 1, true, false));
    EXPECT_LE(adaptive.rounds, uniform.rounds) << "shards=" << shards;
    EXPECT_EQ(adaptive.digest, uniform.digest) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace jacepp::sim
