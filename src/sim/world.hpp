// SimWorld: the discrete-event P2P network simulator.
//
// Each entity (Actor) is attached to a simulated machine (MachineSpec). The
// world models:
//   * message latency + bandwidth (per the slower endpoint's NIC) with
//     deterministic jitter;
//   * crash-stop disconnections: messages to a down node are lost silently
//     (the paper's loss-tolerant asynchronous semantics);
//   * stale stubs: a revived node has a higher incarnation, and messages
//     addressed to an old incarnation are dropped;
//   * compute cost: real numerics execute inside `Env::compute`, and the
//     returned flop count is charged against the machine's sustained speed;
//     compute units on a node serialize while message handling continues
//     (modelling JaceP2P's communication/computation overlap).
//
// Execution (DESIGN.md §12): the world is split into `sim.shards` logical
// partitions — nodes map to shards by a stable hash of their NodeId — each
// owning its own EventQueue, jitter Rng stream, NetStats accumulator and
// outbound link queues. shards == 1 (the default) runs the classic
// single-queue scheduler and is bit-identical to the pre-shard implementation.
// shards >= 2 runs a conservative parallel protocol: every round the
// coordinator computes the global earliest event time and a lookahead (the
// lower bound on any cross-shard frame's flight time, derived from the
// MachineSpecs and the jitter config), shards execute their events below
// `t_min + lookahead` concurrently on a worker pool, and cross-shard frames
// are exchanged through per-shard outboxes merged in deterministic
// (time, shard, seq) order at the round barrier.
//
// Determinism: one seed drives every random draw, and simultaneous events fire
// in insertion order, so a (seed, scenario, shards) triple replays
// bit-for-bit — independent of the worker-thread count driving the rounds.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/env.hpp"
#include "net/link.hpp"
#include "net/message.hpp"
#include "net/stub.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

namespace jacepp {
class RoundWorkerPool;
}

namespace jacepp::sim {

struct NetStats {
  std::uint64_t sent = 0;         ///< actor-level sends (pre link layer)
  std::uint64_t delivered = 0;    ///< wire frames delivered (a Batch is one)
  std::uint64_t lost_down = 0;    ///< destination node disconnected
  std::uint64_t lost_stale = 0;   ///< destination incarnation outdated
  std::uint64_t bytes_sent = 0;   ///< wire bytes (post coalescing/batching)
  std::uint64_t corrupt_frames = 0;  ///< Batch envelopes failing CRC/framing
  std::uint64_t frames_on_wire = 0;  ///< frames put on the wire (pre delivery)
  /// Frames whose endpoints live on different shards, routed through the
  /// round-barrier mailboxes. Always 0 with shards == 1.
  std::uint64_t cross_shard_frames = 0;
  std::unordered_map<net::MessageType, std::uint64_t> sent_by_type;
  /// Actor-level messages delivered (Batch sub-messages counted one by one).
  std::unordered_map<net::MessageType, std::uint64_t> delivered_by_type;

  [[nodiscard]] std::uint64_t lost() const { return lost_down + lost_stale; }
};

struct SimConfig {
  std::uint64_t seed = 42;
  double max_time = 1e8;          ///< hard stop (simulated seconds)
  double message_jitter = 0.05;   ///< fractional +/- jitter on transfer delay
  double compute_jitter = 0.02;   ///< fractional +/- jitter on compute time
  /// Staleness-aware comm path (net/link.hpp). Dormant unless
  /// `link.flush_window > 0` or `serialize_links` — when dormant, every send
  /// bypasses the link layer and behaves exactly as before it existed.
  net::LinkConfig link;
  /// Model one in-flight frame per directed link: the next frame leaves only
  /// after the previous one's transmission occupancy (overhead + bytes/bw)
  /// elapses. Makes slow-consumer backlogs — and what coalescing saves — show
  /// up in delivered-message counts instead of just queue lengths.
  bool serialize_links = false;
  /// Logical world partitions (`sim.shards`), clamped to [1, 4096]; 0 means
  /// 1. 1 is the classic single-queue scheduler, bit-identical to the
  /// pre-shard implementation.
  std::size_t shards = 0;
  /// Worker threads driving shard rounds. 0 sizes the pool automatically
  /// (min(shards, hardware threads)); an explicit value forces that many
  /// lanes even on fewer cores (determinism tests exercise thread-count
  /// independence this way). Never affects results — only wall time.
  std::size_t worker_threads = 0;
  /// Per-shard conservative horizons (`sim.adaptive_lookahead`). Off (the
  /// default), every shard uses the global 2 * min-wire-cost lookahead — the
  /// pre-adaptive behavior, bit for bit. On, shard d's lookahead is
  /// 0.999 * (1 - jitter) * (m_d + min over OTHER shards of m_s), where m_s
  /// is shard s's own wire-cost minimum: a slow link pinned inside one shard
  /// stops throttling every other shard's rounds. Results are unchanged —
  /// only how many rounds it takes to produce them (DESIGN.md §12).
  bool adaptive_lookahead = false;
  /// Deterministic shard load balancing (`sim.rebalance`). Off (the
  /// default), node placement is the static SplitMix64 hash — bit-identical
  /// to the pre-rebalance scheduler. On, per-node event counters accumulate
  /// over a window of `rebalance_every` rounds; at those deterministic round
  /// boundaries, if the hottest shard's window load exceeds
  /// `rebalance_threshold` times the mean, up to `rebalance_max_moves` of
  /// its hottest nodes migrate to the coldest shard. The decision is a pure
  /// function of (seed, counters) — never of worker-thread timing — so a
  /// rebalanced run still replays bit-for-bit across thread counts.
  bool rebalance = false;
  std::size_t rebalance_every = 64;    ///< rounds per load window (>= 1)
  double rebalance_threshold = 1.25;   ///< trigger: max/mean window load
  std::size_t rebalance_max_moves = 8; ///< node migrations per trigger
};

/// Directed link identity (sender, receiver), used as a hash key for the
/// per-shard outbound link queues.
struct LinkKey {
  net::NodeId from = 0;
  net::NodeId to = 0;
  bool operator==(const LinkKey& other) const {
    return from == other.from && to == other.to;
  }
};

/// SplitMix64 finalizer: a full-avalanche 64-bit mix, stable across platforms
/// (pure integer arithmetic — the shard assignment below must replay).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Two-step hash combine over (from, to). The previous implementation hashed
/// `from * C ^ to` — `to` entered unmixed, so with libstdc++'s identity
/// std::hash the low bits of `to` mapped straight onto bucket indices and
/// dense all-to-all worlds clustered. Each id is now avalanched before it is
/// folded in (boost::hash_combine shape, 64-bit constants);
/// tests/sim/test_world.cpp checks the collision distribution.
struct LinkKeyHash {
  std::size_t operator()(const LinkKey& k) const {
    std::uint64_t h = mix64(k.from + 0x9E3779B97F4A7C15ull);
    h ^= mix64(k.to + 0x9E3779B97F4A7C15ull) + 0x9E3779B97F4A7C15ull +
         (h << 6) + (h >> 2);
    return static_cast<std::size_t>(mix64(h));
  }
};

class SimWorld {
 public:
  explicit SimWorld(SimConfig config = {});
  ~SimWorld();

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  /// Attach an actor to a fresh simulated machine; it is up immediately and
  /// its on_start runs as a time-now event.
  net::Stub add_node(std::unique_ptr<net::Actor> actor, const MachineSpec& spec,
                     net::EntityKind kind);

  /// Crash-stop: the node stops processing instantly and silently; pending
  /// timers die; in-flight messages to it are lost.
  void disconnect(net::NodeId node);

  /// Bring a previously disconnected node back with a NEW actor and a bumped
  /// incarnation (the paper's "reconnected about 20 seconds later" peers are
  /// fresh daemons). Stubs of the old incarnation become stale.
  net::Stub revive(net::NodeId node, std::unique_ptr<net::Actor> actor);

  [[nodiscard]] bool is_up(net::NodeId node) const;
  /// Up AND the stub's incarnation is current.
  [[nodiscard]] bool is_current(const net::Stub& stub) const;

  /// Direct access to a node's actor, for harness-side result extraction.
  /// Returns nullptr for unknown/disconnected nodes.
  [[nodiscard]] net::Actor* actor(net::NodeId node);

  [[nodiscard]] const MachineSpec& spec_of(net::NodeId node) const;
  [[nodiscard]] std::size_t live_node_count() const;

  /// Slow-peer fault injection (DESIGN.md §14): divide the node's sustained
  /// flop rate and NIC bandwidth by `factor` (>= 1), and multiply its
  /// latency_s + message_overhead_s by `wire_factor` (>= 1, default 1 =
  /// unchanged). Both directions only LENGTHEN delays, so the cached
  /// wire-cost minimum feeding lookahead() stays conservative even before
  /// the invalidation below is observed — a stale (smaller) cached minimum
  /// can only shrink horizons, never admit an unsafe frame. A wire_factor
  /// > 1 marks the cache dirty so the next lookahead() rescans and recovers
  /// the larger (faster) horizon. Call from a schedule_global event (round
  /// barrier) only.
  void throttle(net::NodeId node, double factor, double wire_factor = 1.0);

  /// Run until stop is requested, the event queue drains, or max_time passes.
  void run();
  /// Run at most until absolute time `t`; returns true if stop was requested.
  bool run_until(double t);
  /// Stop at the next event boundary (classic) or round boundary (sharded;
  /// the requesting shard additionally ends its round early). Safe to call
  /// from actor code on any shard.
  void request_stop();
  /// Re-arm a stopped world so a harness can keep simulating past the point
  /// where a completion callback requested the stop.
  void clear_stop();
  [[nodiscard]] bool stop_requested() const {
    return stopped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] double now() const { return now_; }

  /// Harness-level event not tied to any node's liveness. With shards >= 2
  /// these run single-threaded at round barriers, before any shard event with
  /// an equal or later timestamp — they may safely touch any node.
  EventId schedule_global(double delay, std::function<void()> fn);
  void cancel_global(EventId id);

  Rng& rng() { return rng_; }
  /// Aggregated network counters. With shards >= 2 this folds the per-shard
  /// accumulators into one snapshot on every call; treat the reference as
  /// read-only between calls.
  NetStats& stats();
  const NetStats& stats() const;
  net::CommStats& comm_stats() { return comm_stats_; }
  const net::CommStats& comm_stats() const { return comm_stats_; }

  /// True when sends go through per-link queues instead of straight onto the
  /// wire (see SimConfig::link / serialize_links).
  [[nodiscard]] bool link_layer_active() const {
    return config_.serialize_links || config_.link.flush_window > 0.0;
  }

  // --- sharded-scheduler introspection (bench_scale, contract tests) ---
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Stable shard assignment: pure function of (id, shard_count), identical
  /// across runs, platforms and worker-thread counts.
  [[nodiscard]] static std::uint32_t shard_of(net::NodeId id,
                                              std::size_t shard_count) {
    return shard_count <= 1
               ? 0u
               : static_cast<std::uint32_t>(mix64(id) % shard_count);
  }
  /// Current conservative lookahead (seconds): the lower bound on any
  /// cross-shard frame's flight time. 0 when no node has been added yet (the
  /// round loop then degrades to lock-step rounds).
  [[nodiscard]] double lookahead() const;
  /// Events executed so far, summed over shards (and the classic loop).
  [[nodiscard]] std::uint64_t events_executed() const;
  /// Parallel rounds completed (0 in classic mode).
  [[nodiscard]] std::uint64_t rounds_executed() const { return rounds_; }
  /// Node migrations performed by the rebalancer (0 unless sim.rebalance).
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  /// Cumulative events executed per shard — the skew observability feed for
  /// BENCH_scale.json (max/mean of this vector is the occupancy ratio).
  [[nodiscard]] std::vector<std::uint64_t> shard_event_counts() const;
  /// The shard currently owning `id` (hash placement unless migrated).
  [[nodiscard]] std::uint32_t shard_of_node(net::NodeId id) const {
    return node_ref(id).shard;
  }

 private:
  class NodeEnv;
  struct Shard;

  struct Node {
    std::unique_ptr<net::Actor> actor;
    std::unique_ptr<NodeEnv> env;
    MachineSpec spec;
    net::Stub stub;
    bool up = false;
    double busy_until = 0.0;
    Rng rng{0};
    std::uint32_t shard = 0;
  };

  struct LinkState {
    net::Link link;
    bool busy = false;          ///< a frame occupies the wire (serialize_links)
    double next_flush = 0.0;    ///< earliest time the next flush may start
    bool flush_armed = false;   ///< a flush event is already scheduled
    LinkState(const net::LinkConfig* config, net::CommStats* stats)
        : link(config, stats) {}
  };

  /// A cross-shard wire frame parked in its sender's outbox until the round
  /// barrier. Liveness/incarnation checks happen at arrival on the
  /// destination shard (the sender must not read another shard's state).
  struct CrossFrame {
    double arrival = 0.0;
    net::Stub to;
    net::Message message;
    Node* dest = nullptr;  ///< stable: nodes_ never erases
    std::uint32_t dest_shard = 0;
    /// Send order within the owning outbox: the per-shard sort key is
    /// (arrival, seq), so equal-arrival frames keep send order and the k-way
    /// merge reproduces the old concat + stable_sort order exactly.
    std::uint64_t seq = 0;
  };

  /// One world partition: everything a round executes without touching
  /// another shard's mutable state.
  struct Shard {
    EventQueue queue;
    double now = 0.0;
    Rng rng{0};                 ///< per-shard jitter stream (shards >= 2)
    Rng* link_rng = nullptr;    ///< &world.rng_ classic, &rng sharded
    NetStats local;             ///< per-shard counters (shards >= 2)
    NetStats* stats = nullptr;  ///< &world.stats_ classic, &local sharded
    std::unordered_map<LinkKey, LinkState, LinkKeyHash> links;
    std::vector<CrossFrame> outbox;
    std::uint64_t executed = 0;
    bool stop_round = false;    ///< set by request_stop() on this shard
    /// This round's conservative horizon, written by the coordinator before
    /// the crew is released (uniform, or per-shard with adaptive_lookahead).
    double round_horizon = 0.0;
    /// Per-node events executed this load window (sim.rebalance only).
    /// Bumped only by the owning shard's lane, reset at every window check.
    std::unordered_map<net::NodeId, std::uint64_t> window_events;
    /// Arena slots whose parked frame this shard delivered during the round;
    /// drained back to the world free list at the barrier, in shard order,
    /// so slot reuse is a pure function of the event history.
    std::vector<std::uint32_t> released_slots;
  };

  Node& node_ref(net::NodeId id);
  const Node& node_ref(net::NodeId id) const;
  [[nodiscard]] bool alive_at(net::NodeId id, net::Incarnation inc) const;
  Shard& shard_for(net::NodeId id) { return *shards_[node_ref(id).shard]; }

  /// Schedule an event that only fires if (node, inc) is still the live
  /// incarnation at fire time.
  EventId schedule_guarded(net::NodeId id, net::Incarnation inc, double when,
                           std::function<void()> fn);

  void send_from(net::NodeId from, const net::Stub& to, net::Message message);
  double transfer_delay(const Node& from, const MachineSpec& to_spec,
                        std::size_t bytes, Rng& rng);

  /// Transmit queued frames of (from, to) subject to the flush window and,
  /// with serialize_links, one-frame-in-flight occupancy.
  void pump_link(net::NodeId from, net::NodeId to);
  /// Put one frame on the wire: same-shard frames run the classic
  /// liveness/incarnation checks and schedule local delivery; cross-shard
  /// frames are parked in the sender's outbox. `ls` is non-null when the
  /// frame came off a link queue (occupancy accounting).
  void transmit_wire(net::NodeId from, const net::Stub& to,
                     net::Message message, LinkState* ls);
  double occupancy_delay(const Node& from, const MachineSpec& to_spec,
                         std::size_t bytes);
  /// Deliver a frame to (dest, inc): the classic delivery path (lost-in-
  /// flight check, then deliver_body). Runs on the destination's shard.
  void deliver_wire(net::NodeId dest, net::Incarnation inc, net::Message msg);
  /// The shared delivery body: counters, Batch unpack, actor dispatch.
  void deliver_body(Node& dest, Shard& sh, net::NodeId dest_id,
                    net::Incarnation dest_inc, net::Message msg);
  /// Cross-shard arrival: re-resolve liveness/incarnation on the destination
  /// shard, then deliver.
  void deliver_cross(Node& dest, const net::Stub& to, net::Message msg);

  // --- conservative round loop (shards >= 2) ---
  void run_rounds(double until);
  /// Write each Shard::round_horizon for a round starting at t_min: the
  /// uniform global-lookahead horizon, or per-shard horizons with
  /// adaptive_lookahead. Every horizon is additionally capped at `limit`
  /// (the next global event / the run cap, whichever is earlier).
  void set_round_horizons(double t_min, double limit);
  void run_round();
  void merge_outboxes();
  /// Execute the arrival parked in arena slot `slot` and hand the slot to
  /// the executing shard's release list. Runs on the destination's shard.
  void deliver_parked(std::uint32_t slot);
  /// Every rebalance_every rounds: compare per-shard window loads and
  /// migrate the hottest nodes hot -> cold (sim.rebalance only).
  void maybe_rebalance();
  /// Move a node's ownership (pending events, outbound links, env binding)
  /// to `to_shard`. Returns false — and changes nothing — if any pending
  /// event of the node lies before the destination shard's clock (executing
  /// it there would deliver into that shard's past).
  bool migrate_node(net::NodeId id, std::uint32_t to_shard);
  RoundWorkerPool& round_crew();
  /// Rescan nodes_ for the wire-cost minimum iff wire_cost_dirty_. O(nodes),
  /// but runs only after an invalidating op — never once per round.
  void refresh_wire_cost() const;
  /// Fold per-shard counters into stats_ (no-op with shards == 1).
  void aggregate_stats() const;

  SimConfig config_;
  Rng rng_;
  double now_ = 0.0;
  std::atomic<bool> stopped_{false};
  net::NodeId next_node_ = 1;
  std::unordered_map<net::NodeId, Node> nodes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Harness events (shards >= 2 only; classic mode keeps them in shard 0's
  /// queue so event-id tie-breaks stay bit-identical to the old scheduler).
  EventQueue global_queue_;
  std::unique_ptr<RoundWorkerPool> crew_;
  /// Cursor heap for the k-way outbox merge, keyed (arrival, shard). Reused
  /// across rounds; capacity is bounded by the shard count.
  struct MergeCursor {
    double arrival = 0.0;
    std::uint32_t shard = 0;
    std::size_t index = 0;
  };
  std::vector<MergeCursor> merge_heap_;
  /// Parked cross-shard frames awaiting delivery. Slots are acquired and
  /// recycled only at round barriers (single-threaded); during a round each
  /// live slot is touched exclusively by the one shard whose queue holds its
  /// arrival event. Keeping the frame here lets the arrival closure capture
  /// just (this, slot) — small enough for std::function's inline buffer, so
  /// the merge schedules without allocating.
  std::vector<CrossFrame> arena_;
  std::vector<std::uint32_t> arena_free_;
  std::vector<TakenEvent> migrate_scratch_;
  std::uint64_t rounds_ = 0;
  std::uint64_t migrations_ = 0;
  /// Cached min over nodes of MachineSpec::min_wire_cost() — the lookahead
  /// input. Maintained incrementally by add_node (a new node can only lower
  /// the min, so `min(cached, spec)` is exact); every operation that can
  /// RAISE a node's wire cost (throttle with wire_factor > 1) must set
  /// wire_cost_dirty_ instead, and lookahead() rescans on demand. A stale
  /// cached value is always <= the true minimum, so horizons computed from
  /// it remain conservative — the dirty flag buys back horizon width, it is
  /// never needed for safety.
  mutable double min_wire_cost_ = std::numeric_limits<double>::infinity();
  /// Per-shard wire-cost minima (adaptive_lookahead input), cached under the
  /// same dirty flag: add_node updates both incrementally, throttle and
  /// migration invalidate.
  mutable std::vector<double> shard_wire_min_;
  mutable bool wire_cost_dirty_ = false;
  mutable NetStats stats_;  ///< classic: the live counters; sharded: aggregate
  net::CommStats comm_stats_;
};

}  // namespace jacepp::sim
