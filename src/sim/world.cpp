#include "sim/world.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "support/assert.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::sim {

namespace {

/// The executing shard's round-stop flag. request_stop() may be called from
/// actor code while a round is in flight on several worker threads; the
/// requesting shard ends its own round at the next event boundary via this
/// thread-local, while every OTHER shard finishes its round normally —
/// checking the global stop flag mid-round would make the event count depend
/// on cross-thread timing.
thread_local bool* tls_round_stop = nullptr;

struct RoundStopGuard {
  explicit RoundStopGuard(bool* flag) { tls_round_stop = flag; }
  ~RoundStopGuard() { tls_round_stop = nullptr; }
};

void accumulate(NetStats& into, const NetStats& from) {
  into.sent += from.sent;
  into.delivered += from.delivered;
  into.lost_down += from.lost_down;
  into.lost_stale += from.lost_stale;
  into.bytes_sent += from.bytes_sent;
  into.corrupt_frames += from.corrupt_frames;
  into.frames_on_wire += from.frames_on_wire;
  into.cross_shard_frames += from.cross_shard_frames;
  for (const auto& [type, count] : from.sent_by_type) {
    into.sent_by_type[type] += count;
  }
  for (const auto& [type, count] : from.delivered_by_type) {
    into.delivered_by_type[type] += count;
  }
}

}  // namespace

/// Per-node Env implementation; all side effects route back into the world.
/// Every method runs on the node's shard (events for a node live in its
/// shard's queue), so it may touch the shard and the node freely but nothing
/// owned by another shard.
class SimWorld::NodeEnv : public net::Env {
 public:
  NodeEnv(SimWorld* world, net::NodeId id, Shard* shard)
      : world_(world), id_(id), shard_(shard) {}

  [[nodiscard]] double now() const override { return shard_->now; }

  [[nodiscard]] net::Stub self() const override {
    return world_->node_ref(id_).stub;
  }

  void send(const net::Stub& to, net::Message message) override {
    world_->send_from(id_, to, std::move(message));
  }

  net::TimerId schedule(double delay, std::function<void()> fn) override {
    Node& node = world_->node_ref(id_);
    return world_->schedule_guarded(id_, node.stub.incarnation,
                                    shard_->now + delay, std::move(fn));
  }

  void cancel(net::TimerId timer) override { shard_->queue.cancel(timer); }

  void compute(std::function<double()> work, std::function<void()> done) override {
    Node& node = world_->node_ref(id_);
    // The real numerics run now (so the actor's state is already advanced);
    // the *virtual* cost is charged to the machine, serializing with any
    // compute still in flight on this node. Message handling proceeds in the
    // meantime — the multi-threaded overlap of the paper.
    const double flops = work();
    JACEPP_ASSERT(flops >= 0.0);
    double duration = flops / node.spec.flops_per_sec;
    const double j = world_->config_.compute_jitter;
    if (j > 0.0) duration *= node.rng.uniform(1.0 - j, 1.0 + j);
    const double start = std::max(shard_->now, node.busy_until);
    node.busy_until = start + duration;
    world_->schedule_guarded(id_, node.stub.incarnation, node.busy_until,
                             std::move(done));
  }

  Rng& rng() override { return world_->node_ref(id_).rng; }

  void shutdown_self() override {
    Node& node = world_->node_ref(id_);
    if (!node.up) return;
    node.up = false;
    if (node.actor) node.actor->on_stop(*this);
  }

  /// Point this env at the node's new owning shard (rebalancer migrations;
  /// runs at round barriers only, never while the node's events are in
  /// flight).
  void rebind(Shard* shard) { shard_ = shard; }

 private:
  SimWorld* world_;
  net::NodeId id_;
  Shard* shard_;
};

SimWorld::SimWorld(SimConfig config) : config_(config), rng_(config.seed) {
  config_.shards = std::clamp<std::size_t>(config_.shards, 1, 4096);
  const std::size_t n = config_.shards;
  shards_.reserve(n);
  shard_wire_min_.assign(n, std::numeric_limits<double>::infinity());
  // Disjoint id residues mod (n + 1): shard s allocates s+1, s+1+(n+1), ...
  // and the global queue allocates multiples of n+1. An event id then names
  // one event world-wide, so migrate_node can move tagged events between
  // queues with their ids — and the TimerIds actors hold stay cancellable —
  // without any renumbering. Relabeling each queue's ids from (1,2,3,...) to
  // an arithmetic progression is monotonic per queue, so every (time, id)
  // tie-break inside a queue is unchanged and pre-existing goldens replay
  // bit-for-bit (including classic shards == 1, which gets stride 2).
  global_queue_.set_id_stream(n + 1, n + 1);
  for (std::size_t s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->queue.set_id_stream(s + 1, n + 1);
    if (n == 1) {
      // Classic mode: shard 0 *is* the old scheduler — the world rng drives
      // message jitter (interleaving with harness draws exactly as before)
      // and counters land directly in stats_.
      shard->link_rng = &rng_;
      shard->stats = &stats_;
    } else {
      // Per-shard jitter stream: a pure function of (seed, shard index),
      // never of rng_'s mutable state — replay must not depend on how many
      // draws the harness or other shards made.
      shard->rng = Rng(mix64(config_.seed ^
                             (0x9E3779B97F4A7C15ull * (s + 1))));
      shard->link_rng = &shard->rng;
      shard->stats = &shard->local;
    }
    shards_.push_back(std::move(shard));
  }
}

SimWorld::~SimWorld() = default;

SimWorld::Node& SimWorld::node_ref(net::NodeId id) {
  auto it = nodes_.find(id);
  JACEPP_CHECK(it != nodes_.end(), "unknown node id");
  return it->second;
}

const SimWorld::Node& SimWorld::node_ref(net::NodeId id) const {
  auto it = nodes_.find(id);
  JACEPP_CHECK(it != nodes_.end(), "unknown node id");
  return it->second;
}

bool SimWorld::alive_at(net::NodeId id, net::Incarnation inc) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return false;
  return it->second.up && it->second.stub.incarnation == inc;
}

net::Stub SimWorld::add_node(std::unique_ptr<net::Actor> actor,
                             const MachineSpec& spec, net::EntityKind kind) {
  const net::NodeId id = next_node_++;
  Node node;
  node.actor = std::move(actor);
  node.spec = spec;
  node.stub = net::Stub{id, 1, kind};
  node.up = true;
  node.rng = rng_.split(id);
  node.shard = shard_of(id, shards_.size());
  node.env = std::make_unique<NodeEnv>(this, id, shards_[node.shard].get());
  // A new node can only LOWER a minimum, so min(cached, spec) is exact even
  // while wire_cost_dirty_ is pending — no need to force a rescan here.
  min_wire_cost_ = std::min(min_wire_cost_, spec.min_wire_cost());
  shard_wire_min_[node.shard] =
      std::min(shard_wire_min_[node.shard], spec.min_wire_cost());
  auto [it, inserted] = nodes_.emplace(id, std::move(node));
  JACEPP_ASSERT(inserted);
  Node& ref = it->second;
  schedule_guarded(id, ref.stub.incarnation, now_, [this, id] {
    Node& n = node_ref(id);
    n.actor->on_start(*n.env);
  });
  return ref.stub;
}

void SimWorld::disconnect(net::NodeId node_id) {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end() || !it->second.up) return;
  it->second.up = false;
  // Outbound link queues die with the sender: a crashed node emits nothing,
  // and a revived incarnation starts with empty queues.
  auto& links = shards_[it->second.shard]->links;
  for (auto link_it = links.begin(); link_it != links.end();) {
    link_it = link_it->first.from == node_id ? links.erase(link_it)
                                             : std::next(link_it);
  }
  JACEPP_LOG(Debug, "sim", "node %llu disconnected at %.3f",
             static_cast<unsigned long long>(node_id), now_);
}

net::Stub SimWorld::revive(net::NodeId node_id, std::unique_ptr<net::Actor> actor) {
  Node& node = node_ref(node_id);
  JACEPP_CHECK(!node.up, "revive: node is still up");
  node.actor = std::move(actor);
  node.stub.incarnation += 1;
  node.up = true;
  node.busy_until = now_;
  schedule_guarded(node_id, node.stub.incarnation, now_, [this, node_id] {
    Node& n = node_ref(node_id);
    n.actor->on_start(*n.env);
  });
  return node.stub;
}

bool SimWorld::is_up(net::NodeId node_id) const {
  auto it = nodes_.find(node_id);
  return it != nodes_.end() && it->second.up;
}

bool SimWorld::is_current(const net::Stub& stub) const {
  auto it = nodes_.find(stub.node);
  return it != nodes_.end() && it->second.up &&
         it->second.stub.incarnation == stub.incarnation;
}

net::Actor* SimWorld::actor(net::NodeId node_id) {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return nullptr;
  return it->second.actor.get();
}

const MachineSpec& SimWorld::spec_of(net::NodeId node_id) const {
  return node_ref(node_id).spec;
}

void SimWorld::throttle(net::NodeId node, double factor, double wire_factor) {
  JACEPP_CHECK(factor >= 1.0, "throttle: factor must be >= 1 (slowdown only)");
  JACEPP_CHECK(wire_factor >= 1.0,
               "throttle: wire_factor must be >= 1 (slowdown only)");
  Node& n = node_ref(node);
  n.spec.flops_per_sec /= factor;
  n.spec.bandwidth_bps /= factor;
  if (wire_factor > 1.0) {
    // Raising a node's wire cost may raise the global minimum; the cached
    // value stays a valid (conservative) lower bound meanwhile, so only the
    // horizon width is at stake — rescan lazily at the next lookahead().
    n.spec.latency_s *= wire_factor;
    n.spec.message_overhead_s *= wire_factor;
    wire_cost_dirty_ = true;
  }
}

std::size_t SimWorld::live_node_count() const {
  std::size_t count = 0;
  for (const auto& [id, node] : nodes_) {
    if (node.up) ++count;
  }
  return count;
}

EventId SimWorld::schedule_guarded(net::NodeId id, net::Incarnation inc,
                                   double when, std::function<void()> fn) {
  // Tagged with the owning node's id so the rebalancer can migrate the
  // node's pending events (timers, compute completions, on_start) with it.
  return shard_for(id).queue.schedule_tagged(
      when, id, [this, id, inc, fn = std::move(fn)] {
        if (alive_at(id, inc)) fn();
      });
}

EventId SimWorld::schedule_global(double delay, std::function<void()> fn) {
  // Classic mode keeps harness events in shard 0's queue so event-id
  // tie-breaking is bit-identical to the single-queue scheduler they shared.
  EventQueue& q = shards_.size() > 1 ? global_queue_ : shards_[0]->queue;
  return q.schedule(now_ + delay, std::move(fn));
}

void SimWorld::cancel_global(EventId id) {
  EventQueue& q = shards_.size() > 1 ? global_queue_ : shards_[0]->queue;
  q.cancel(id);
}

void SimWorld::request_stop() {
  stopped_.store(true, std::memory_order_relaxed);
  if (tls_round_stop != nullptr) *tls_round_stop = true;
}

void SimWorld::clear_stop() {
  stopped_.store(false, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->stop_round = false;
}

NetStats& SimWorld::stats() {
  aggregate_stats();
  return stats_;
}

const NetStats& SimWorld::stats() const {
  aggregate_stats();
  return stats_;
}

void SimWorld::aggregate_stats() const {
  if (shards_.size() <= 1) return;  // stats_ is the live accumulator
  NetStats total;
  for (const auto& shard : shards_) accumulate(total, shard->local);
  stats_ = std::move(total);
}

std::uint64_t SimWorld::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->executed;
  return total;
}

void SimWorld::refresh_wire_cost() const {
  if (!wire_cost_dirty_) return;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double min_cost = kInf;
  std::fill(shard_wire_min_.begin(), shard_wire_min_.end(), kInf);
  // Down nodes stay in the scan: a revived incarnation keeps its spec, so
  // excluding it here could briefly overstate the minimum. The per-shard
  // minima are grouped by CURRENT ownership (node.shard), which is why a
  // migration must set the dirty flag: a cheap-wire node moving INTO a shard
  // would otherwise leave that shard's cached minimum stale-large — and a
  // too-large minimum widens adaptive horizons, the unsafe direction.
  for (const auto& [id, node] : nodes_) {
    const double cost = node.spec.min_wire_cost();
    min_cost = std::min(min_cost, cost);
    shard_wire_min_[node.shard] = std::min(shard_wire_min_[node.shard], cost);
  }
  min_wire_cost_ = min_cost;
  wire_cost_dirty_ = false;
}

double SimWorld::lookahead() const {
  refresh_wire_cost();
  if (!std::isfinite(min_wire_cost_)) return 0.0;
  // Any wire transfer costs at least (1 - jitter) times the two endpoints'
  // latency + per-message overhead, each bounded below by min_wire_cost_.
  // The 0.999 shave absorbs floating-point rounding in transfer_delay's
  // sum/multiply so a frame can never arrive strictly inside the horizon
  // that was open when it was sent.
  const double j = std::min(config_.message_jitter, 1.0);
  const double la = 0.999 * (1.0 - j) * 2.0 * min_wire_cost_;
  return la > 0.0 ? la : 0.0;
}

double SimWorld::transfer_delay(const Node& from, const MachineSpec& to_spec,
                                std::size_t bytes, Rng& rng) {
  const double latency = from.spec.latency_s + to_spec.latency_s +
                         from.spec.message_overhead_s + to_spec.message_overhead_s;
  const double bandwidth = std::min(from.spec.bandwidth_bps, to_spec.bandwidth_bps);
  double delay = latency + static_cast<double>(bytes) * 8.0 / bandwidth;
  const double j = config_.message_jitter;
  if (j > 0.0) delay *= rng.uniform(1.0 - j, 1.0 + j);
  return delay;
}

void SimWorld::send_from(net::NodeId from_id, const net::Stub& to,
                         net::Message message) {
  Node& from = node_ref(from_id);
  if (!from.up) return;  // a crashed sender emits nothing
  message.from = from.stub;
  Shard& sh = *shards_[from.shard];

  ++sh.stats->sent;
  ++sh.stats->sent_by_type[message.type];

  if (!link_layer_active()) {
    transmit_wire(from_id, to, std::move(message), nullptr);
    return;
  }
  auto [it, inserted] =
      sh.links.try_emplace(LinkKey{from_id, to.node}, &config_.link, &comm_stats_);
  it->second.link.enqueue(std::move(message), to);
  pump_link(from_id, to.node);
}

void SimWorld::pump_link(net::NodeId from_id, net::NodeId to_node) {
  Shard& sh = shard_for(from_id);
  auto it = sh.links.find(LinkKey{from_id, to_node});
  if (it == sh.links.end()) return;
  LinkState& ls = it->second;
  auto from_it = nodes_.find(from_id);
  // A crashed sender's queues die with it (disconnect() erases them; this
  // also guards flush/occupancy events that were already in flight).
  if (from_it == nodes_.end() || !from_it->second.up) return;

  while (!(config_.serialize_links && ls.busy)) {
    if (ls.link.empty()) break;
    if (sh.now < ls.next_flush) {
      // Nagle-style accumulation: the first send after an idle period left
      // immediately and opened a window; everything arriving inside it
      // coalesces/batches until the flush event fires.
      if (!ls.flush_armed) {
        ls.flush_armed = true;
        const LinkKey key{from_id, to_node};
        // Tagged with the sender: the link queue migrates with its owner, and
        // the closure re-resolves the owning shard fresh at fire time.
        sh.queue.schedule_tagged(ls.next_flush, key.from, [this, key] {
          Shard& s2 = shard_for(key.from);
          auto it2 = s2.links.find(key);
          if (it2 == s2.links.end()) return;
          it2->second.flush_armed = false;
          pump_link(key.from, key.to);
        });
      }
      break;
    }
    auto frame = ls.link.next_wire_frame();
    if (!frame) break;
    transmit_wire(from_id, frame->to, std::move(frame->message), &ls);
    if (ls.link.empty() && config_.link.flush_window > 0.0) {
      ls.next_flush = sh.now + config_.link.flush_window;
    }
  }
}

double SimWorld::occupancy_delay(const Node& from, const MachineSpec& to_spec,
                                 std::size_t bytes) {
  // Sender-side wire occupancy: software overhead plus serialization onto
  // the slower NIC. Deterministic (no jitter), so frame ordering on a link
  // is stable across runs regardless of the jitter draws on delivery.
  const double bandwidth = std::min(from.spec.bandwidth_bps, to_spec.bandwidth_bps);
  return from.spec.message_overhead_s + static_cast<double>(bytes) * 8.0 / bandwidth;
}

void SimWorld::transmit_wire(net::NodeId from_id, const net::Stub& to,
                             net::Message message, LinkState* ls) {
  Node& from = node_ref(from_id);
  Shard& sh = *shards_[from.shard];
  sh.stats->bytes_sent += message.wire_size();
  ++sh.stats->frames_on_wire;

  auto dest_it = nodes_.find(to.node);
  if (dest_it == nodes_.end()) {
    ++sh.stats->lost_down;
    return;
  }
  Node& dest = dest_it->second;

  if (dest.shard != from.shard) {
    // Cross-shard: the sender may only read the destination's immutable
    // fields (spec, shard). Liveness and incarnation resolve at *arrival*
    // on the destination shard — deliver_cross — which also means sender-side
    // wire occupancy is charged whether or not the destination turns out to
    // be up (a NIC does not know its peer died).
    if (ls != nullptr && config_.serialize_links) {
      ls->busy = true;
      const double occupancy = occupancy_delay(from, dest.spec, message.wire_size());
      const LinkKey key{from_id, to.node};
      sh.queue.schedule_tagged(sh.now + occupancy, key.from, [this, key] {
        Shard& s2 = shard_for(key.from);
        auto it = s2.links.find(key);
        if (it == s2.links.end()) return;
        it->second.busy = false;
        pump_link(key.from, key.to);
      });
    }
    const double delay =
        transfer_delay(from, dest.spec, message.wire_size(), *sh.link_rng);
    ++sh.stats->cross_shard_frames;
    // seq = position in this outbox: the per-shard (arrival, seq) sort at the
    // end of the round then reproduces send order for equal arrivals.
    sh.outbox.push_back(CrossFrame{sh.now + delay, to, std::move(message),
                                   &dest, dest.shard, sh.outbox.size()});
    return;
  }

  // Same-shard (and the whole world when shards == 1): the classic path,
  // checks at send time, bit-identical draw and event-id order.
  if (!dest.up) {
    ++sh.stats->lost_down;
    return;
  }
  // Incarnation 0 is an "address stub" (the bootstrap IP-address analogue):
  // it matches whatever incarnation currently lives at the node.
  if (to.incarnation != 0 && dest.stub.incarnation != to.incarnation) {
    ++sh.stats->lost_stale;
    return;
  }

  if (ls != nullptr && config_.serialize_links) {
    ls->busy = true;
    const double occupancy = occupancy_delay(from, dest.spec, message.wire_size());
    const LinkKey key{from_id, to.node};
    sh.queue.schedule_tagged(sh.now + occupancy, key.from, [this, key] {
      Shard& s2 = shard_for(key.from);
      auto it = s2.links.find(key);
      if (it == s2.links.end()) return;
      it->second.busy = false;
      pump_link(key.from, key.to);
    });
  }

  const double delay =
      transfer_delay(from, dest.spec, message.wire_size(), *sh.link_rng);
  const net::NodeId dest_id = to.node;
  const net::Incarnation dest_inc = dest.stub.incarnation;
  // Deliver only if the destination is still the same live incarnation when
  // the bits arrive; otherwise the message is lost in flight. Tagged with the
  // DESTINATION: if the receiver migrates, its in-flight deliveries must
  // follow it, or another shard's lane would run this closure concurrently
  // with the receiver's own events.
  sh.queue.schedule_tagged(
      sh.now + delay, dest_id,
      [this, dest_id, dest_inc, msg = std::move(message)]() mutable {
        deliver_wire(dest_id, dest_inc, std::move(msg));
      });
}

void SimWorld::deliver_wire(net::NodeId dest_id, net::Incarnation dest_inc,
                            net::Message msg) {
  auto it = nodes_.find(dest_id);
  if (it == nodes_.end()) return;  // unreachable: nodes are never erased
  Node& dest = it->second;
  Shard& sh = *shards_[dest.shard];
  if (!dest.up || dest.stub.incarnation != dest_inc) {
    ++sh.stats->lost_down;  // lost in flight, same as the classic alive_at drop
    return;
  }
  deliver_body(dest, sh, dest_id, dest_inc, std::move(msg));
}

void SimWorld::deliver_body(Node& dest, Shard& sh, net::NodeId dest_id,
                            net::Incarnation dest_inc, net::Message msg) {
  ++sh.stats->delivered;
  if (msg.type == net::kBatchMessageType) {
    std::vector<net::Message> parts;
    if (!net::unpack_batch(msg, parts)) {
      ++sh.stats->corrupt_frames;
      return;
    }
    for (net::Message& part : parts) {
      // An earlier sub-message may have shut the actor down mid-batch.
      if (!alive_at(dest_id, dest_inc)) break;
      ++sh.stats->delivered_by_type[part.type];
      dest.actor->on_message(part, *dest.env);
    }
  } else {
    ++sh.stats->delivered_by_type[msg.type];
    dest.actor->on_message(msg, *dest.env);
  }
}

void SimWorld::deliver_cross(Node& dest, const net::Stub& to, net::Message msg) {
  // Runs on the destination shard: resolve the checks the sender deferred.
  Shard& sh = *shards_[dest.shard];
  if (!dest.up) {
    ++sh.stats->lost_down;
    return;
  }
  if (to.incarnation != 0 && dest.stub.incarnation != to.incarnation) {
    ++sh.stats->lost_stale;
    return;
  }
  deliver_body(dest, sh, to.node, dest.stub.incarnation, std::move(msg));
}

// --- schedulers --------------------------------------------------------------

void SimWorld::run() {
  if (shards_.size() > 1) {
    run_rounds(config_.max_time);
    return;
  }
  Shard& sh = *shards_[0];
  while (!stopped_.load(std::memory_order_relaxed) && !sh.queue.empty()) {
    if (sh.queue.next_time() > config_.max_time) break;
    auto fn = sh.queue.pop(&sh.now);
    now_ = sh.now;
    ++sh.executed;
    fn();
  }
}

bool SimWorld::run_until(double t) {
  if (shards_.size() > 1) {
    run_rounds(t);
    if (!stopped_.load(std::memory_order_relaxed) && now_ < t) now_ = t;
    return stopped_.load(std::memory_order_relaxed);
  }
  Shard& sh = *shards_[0];
  while (!stopped_.load(std::memory_order_relaxed) && !sh.queue.empty() &&
         sh.queue.next_time() <= t) {
    auto fn = sh.queue.pop(&sh.now);
    now_ = sh.now;
    ++sh.executed;
    fn();
  }
  if (!stopped_.load(std::memory_order_relaxed) && now_ < t) {
    now_ = t;
    sh.now = t;
  }
  return stopped_.load(std::memory_order_relaxed);
}

RoundWorkerPool& SimWorld::round_crew() {
  if (!crew_) {
    std::size_t lanes = config_.worker_threads;
    const bool force = lanes > 0;
    if (lanes == 0) {
      const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
      lanes = std::min(shards_.size(), hw);
    }
    // The world owns its crew rather than sharing compute_pool(): actor
    // numerics run through compute_pool and their chunking (JACEPP_THREADS)
    // must stay independent of how many lanes drive shard rounds, or
    // "bit-identical across worker-thread counts" would be false.
    crew_ = std::make_unique<RoundWorkerPool>(lanes, force);
  }
  return *crew_;
}

void SimWorld::run_rounds(double until) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Events at exactly `until` still run (the classic loop's `next > max_time`
  // break has the same inclusive boundary).
  const double cap = std::nextafter(until, kInf);
  while (!stopped_.load(std::memory_order_relaxed)) {
    const double t_global = global_queue_.empty() ? kInf : global_queue_.next_time();
    double t_shard = kInf;
    for (const auto& shard : shards_) {
      if (!shard->queue.empty()) {
        t_shard = std::min(t_shard, shard->queue.next_time());
      }
    }
    const double t_min = std::min(t_global, t_shard);
    if (t_min == kInf || t_min > until) break;

    if (t_global <= t_shard) {
      // Harness events run single-threaded at the barrier, *before* any
      // shard event with an equal timestamp — they may mutate global state
      // (disconnect/revive/add_node) that the next round then observes.
      now_ = t_global;
      auto fn = global_queue_.pop(&now_);
      fn();
      continue;
    }

    set_round_horizons(t_min, std::min(t_global, cap));
    run_round();
    merge_outboxes();
    ++rounds_;
    maybe_rebalance();
  }
  for (const auto& shard : shards_) now_ = std::max(now_, shard->now);
}

void SimWorld::set_round_horizons(double t_min, double limit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!config_.adaptive_lookahead) {
    // Uniform conservative horizon — computation kept byte-identical to the
    // pre-adaptive scheduler: every cross-shard frame sent at time t arrives
    // no earlier than t + lookahead >= t_min + lookahead, so events strictly
    // below the horizon cannot be affected by frames still unsent on other
    // shards. Zero lookahead (no nodes / degenerate specs / jitter >= 1)
    // degrades to lock-step rounds of the earliest timestamp only.
    const double la = lookahead();
    const double horizon = std::min(
        la > 0.0 ? t_min + la : std::nextafter(t_min, kInf), limit);
    for (auto& shard : shards_) shard->round_horizon = horizon;
    return;
  }

  // Adaptive per-shard horizons. A frame into shard d was sent by some shard
  // s != d at a time u >= t_min, and costs at least (1 - j) * (m_s + m_d)
  // where m_x is shard x's own wire-cost minimum — the sender's and the
  // receiver's endpoint each contribute their latency + per-message overhead
  // to transfer_delay. So no frame can land in d before
  //   t_min + (1 - j) * (m_d + min over s != d of m_s),
  // and shard d may run events strictly below that, even while a slow link
  // pinned inside some OTHER pair of shards would throttle the uniform
  // horizon. The 0.999 shave absorbs floating-point rounding exactly as in
  // lookahead(). min-over-others needs only the global min and second-min of
  // the per-shard minima (the min itself for every shard except the argmin).
  refresh_wire_cost();
  const double f = 0.999 * (1.0 - std::min(config_.message_jitter, 1.0));
  double m1 = kInf, m2 = kInf;
  std::size_t arg1 = 0;
  for (std::size_t s = 0; s < shard_wire_min_.size(); ++s) {
    const double m = shard_wire_min_[s];
    if (m < m1) {
      m2 = m1;
      m1 = m;
      arg1 = s;
    } else if (m < m2) {
      m2 = m;
    }
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    double horizon;
    if (f > 0.0) {
      // m_d = +inf means shard s owns no node, hence no events: the horizon
      // value is irrelevant, and t_min + inf folds to `limit` harmlessly.
      const double width = f * (shard_wire_min_[s] + (s == arg1 ? m2 : m1));
      horizon = width > 0.0 ? t_min + width : std::nextafter(t_min, kInf);
    } else {
      // f <= 0 (jitter >= 1): no positive flight-time bound exists; fall
      // back to lock-step rounds. Guarded up front so f * inf never forms
      // the 0 * inf NaN.
      horizon = std::nextafter(t_min, kInf);
    }
    shards_[s]->round_horizon = std::min(horizon, limit);
  }
}

void SimWorld::run_round() {
  // Static shard -> lane mapping (s % lanes): shards touch disjoint state,
  // so which lane runs a shard never matters — only the per-shard event
  // order does. The persistent crew replaces a per-round parallel_for; at
  // round counts in the tens of thousands per simulated second the dispatch
  // cost at the barrier is the round engine's fixed overhead.
  round_crew().run([this](std::size_t lane) {
    const std::size_t lanes = crew_->lanes();
    for (std::size_t s = lane; s < shards_.size(); s += lanes) {
      Shard& sh = *shards_[s];
      RoundStopGuard guard(&sh.stop_round);
      std::uint64_t tag = 0;
      while (!sh.stop_round && !sh.queue.empty() &&
             sh.queue.next_time() < sh.round_horizon) {
        auto fn = sh.queue.pop(&sh.now, &tag);
        ++sh.executed;
        // Load accounting for the rebalancer: every event is tagged with the
        // node it belongs to, and only this shard's lane touches this map.
        if (config_.rebalance && tag != 0) ++sh.window_events[tag];
        fn();
      }
      // Sort this shard's outbox by (arrival, seq) here, inside the parallel
      // region: the barrier's k-way merge then only walks sorted runs.
      // std::sort, not stable_sort — the latter allocates a merge buffer, and
      // (arrival, seq) is already a total order (seq is unique per outbox).
      std::sort(sh.outbox.begin(), sh.outbox.end(),
                [](const CrossFrame& a, const CrossFrame& b) {
                  if (a.arrival != b.arrival) return a.arrival < b.arrival;
                  return a.seq < b.seq;
                });
    }
  });
}

void SimWorld::merge_outboxes() {
  // Recycle the arena slots whose frames were delivered during the round.
  // Drained in shard order so the free-list state — and therefore which slot
  // the next frame lands in — is a pure function of the event history, never
  // of lane timing.
  for (auto& shard : shards_) {
    for (const std::uint32_t slot : shard->released_slots) {
      arena_free_.push_back(slot);
    }
    shard->released_slots.clear();
  }

  // Deterministic (arrival, shard, seq) merge, equivalent to the former
  // concatenate + stable_sort but allocation-free in steady state: each
  // outbox is already (arrival, seq)-sorted, so a cursor heap keyed
  // (arrival, shard) emits the frames in exactly the order the stable sort
  // produced — equal arrivals break by shard index (concatenation order),
  // then by seq (send order within a shard). Destination event-ids depend
  // only on this order, never on worker-thread interleaving.
  const auto later = [](const MergeCursor& a, const MergeCursor& b) {
    if (a.arrival != b.arrival) return a.arrival > b.arrival;
    return a.shard > b.shard;
  };
  merge_heap_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]->outbox.empty()) {
      merge_heap_.push_back(MergeCursor{shards_[s]->outbox.front().arrival,
                                        static_cast<std::uint32_t>(s), 0});
    }
  }
  std::make_heap(merge_heap_.begin(), merge_heap_.end(), later);
  while (!merge_heap_.empty()) {
    std::pop_heap(merge_heap_.begin(), merge_heap_.end(), later);
    const MergeCursor cur = merge_heap_.back();
    merge_heap_.pop_back();
    std::vector<CrossFrame>& outbox = shards_[cur.shard]->outbox;

    // Park the frame in a reusable arena slot. The arrival closure captures
    // just (this, slot) — inside std::function's inline buffer, so the
    // schedule itself allocates nothing; the arena and free list grow to the
    // per-round high-water mark once and are reused thereafter.
    std::uint32_t slot;
    if (!arena_free_.empty()) {
      slot = arena_free_.back();
      arena_free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(arena_.size());
      arena_.emplace_back();
    }
    arena_[slot] = std::move(outbox[cur.index]);
    CrossFrame& frame = arena_[slot];
    // Tagged with the destination node so in-flight cross-shard arrivals
    // migrate with their receiver, like same-shard deliveries.
    shards_[frame.dest_shard]->queue.schedule_tagged(
        frame.arrival, frame.to.node, [this, slot] { deliver_parked(slot); });

    if (cur.index + 1 < outbox.size()) {
      merge_heap_.push_back(MergeCursor{outbox[cur.index + 1].arrival,
                                        cur.shard, cur.index + 1});
      std::push_heap(merge_heap_.begin(), merge_heap_.end(), later);
    }
  }
  for (auto& shard : shards_) shard->outbox.clear();
}

void SimWorld::deliver_parked(std::uint32_t slot) {
  CrossFrame& frame = arena_[slot];
  // Re-read the destination's shard fresh: the node (and this very event,
  // which shares its tag) may have migrated since the frame was parked.
  Node& dest = *frame.dest;
  deliver_cross(dest, frame.to, std::move(frame.message));
  // Release to the EXECUTING shard's list — dest.shard, by the invariant
  // that a node's events live in its owning shard's queue. deliver_cross
  // cannot change it: migrations happen at barriers only.
  shards_[dest.shard]->released_slots.push_back(slot);
}

void SimWorld::maybe_rebalance() {
  if (!config_.rebalance || shards_.size() <= 1) return;
  const std::size_t every = std::max<std::size_t>(config_.rebalance_every, 1);
  if (rounds_ % every != 0) return;

  std::vector<std::uint64_t> totals(shards_.size(), 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (const auto& [id, count] : shards_[s]->window_events) {
      totals[s] += count;
    }
  }
  std::uint64_t sum = 0;
  std::size_t hot = 0;
  std::size_t cold = 0;
  for (std::size_t s = 0; s < totals.size(); ++s) {
    sum += totals[s];
    if (totals[s] > totals[hot]) hot = s;  // first index wins ties
    if (totals[s] < totals[cold]) cold = s;
  }
  const bool skewed =
      sum > 0 && hot != cold &&
      static_cast<double>(totals[hot]) * static_cast<double>(shards_.size()) >
          config_.rebalance_threshold * static_cast<double>(sum);
  if (skewed) {
    // Candidates: the hot shard's window entries, hottest first. The sort key
    // (count desc, mix64(seed ^ id), id) is a total order — node ids are
    // unique — so the outcome is independent of the unordered_map's iteration
    // order, and the seeded hash breaks count ties without favoring low ids.
    std::vector<std::pair<net::NodeId, std::uint64_t>> candidates(
        shards_[hot]->window_events.begin(), shards_[hot]->window_events.end());
    std::sort(candidates.begin(), candidates.end(),
              [this](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                const std::uint64_t ha = mix64(config_.seed ^ a.first);
                const std::uint64_t hb = mix64(config_.seed ^ b.first);
                if (ha != hb) return ha < hb;
                return a.first < b.first;
              });
    // Move the hottest nodes until the hot shard's window excess over the
    // mean is covered (or the per-trigger cap is hit). Greedy by count: a
    // single dominating node moves alone; a flat tail moves several.
    std::uint64_t excess = totals[hot] - sum / shards_.size();
    std::size_t moves = 0;
    for (const auto& [id, count] : candidates) {
      if (moves >= config_.rebalance_max_moves || excess == 0) break;
      if (!migrate_node(id, static_cast<std::uint32_t>(cold))) continue;
      ++moves;
      ++migrations_;
      excess = count >= excess ? 0 : excess - count;
    }
  }
  // A fresh window either way: stale counts from a skew that resolved on its
  // own must not trigger a late migration.
  for (auto& shard : shards_) shard->window_events.clear();
}

bool SimWorld::migrate_node(net::NodeId id, std::uint32_t to_shard) {
  Node& node = node_ref(id);
  if (node.shard == to_shard) return false;
  const std::uint32_t from_shard = node.shard;
  Shard& from = *shards_[from_shard];
  Shard& to = *shards_[to_shard];

  migrate_scratch_.clear();
  from.queue.take_tagged(id, migrate_scratch_);
  // Causality check: shard clocks drift apart between barriers (each stops at
  // its own horizon). An event of this node lying before the destination's
  // clock would execute in that shard's past — its handler could observe a
  // node state later than its own timestamp. Skip the migration; the node
  // stays hot and a later window (with the destination caught up) retries.
  for (const TakenEvent& event : migrate_scratch_) {
    if (event.time < to.now) {
      from.queue.restore(std::move(migrate_scratch_));
      return false;
    }
  }
  to.queue.restore(std::move(migrate_scratch_));

  // Outbound link queues (and their armed flush/occupancy bookkeeping) move
  // with the sender; the pending flush events just moved in the same batch,
  // and their closures re-resolve the owning shard via shard_for at fire
  // time.
  for (auto it = from.links.begin(); it != from.links.end();) {
    if (it->first.from == id) {
      to.links.insert(from.links.extract(it++));
    } else {
      ++it;
    }
  }

  node.shard = to_shard;
  node.env->rebind(&to);
  // Ownership moved between shards: both shards' cached wire-cost minima are
  // stale now (the destination's possibly stale-LARGE, the unsafe direction
  // for adaptive horizons — see refresh_wire_cost).
  wire_cost_dirty_ = true;
  JACEPP_LOG(Debug, "sim", "node %llu migrated shard %u -> %u at round %llu",
             static_cast<unsigned long long>(id), from_shard, to_shard,
             static_cast<unsigned long long>(rounds_));
  return true;
}

std::vector<std::uint64_t> SimWorld::shard_event_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) counts.push_back(shard->executed);
  return counts;
}

}  // namespace jacepp::sim
