// Substrate microbenchmarks (google-benchmark): the kernels and runtime
// primitives everything else is built on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/csr_sell.hpp"
#include "linalg/fused.hpp"
#include "linalg/simd.hpp"
#include "core/deadline_heap.hpp"
#include "core/messages.hpp"
#include "net/message.hpp"
#include "poisson/block_task.hpp"
#include "poisson/poisson.hpp"
#include "serial/serial.hpp"
#include "sim/event_queue.hpp"
#include "sim/world.hpp"
#include "support/queue.hpp"
#include "support/rng.hpp"

namespace {

using namespace jacepp;

void BM_SpMV(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = poisson::assemble_laplacian(n);
  linalg::Vector x(n * n, 1.0);
  linalg::Vector y(n * n);
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SpMV)->Arg(32)->Arg(64)->Arg(128);

/// Flips `perf.simd` on for one benchmark body; restores the default (off) so
/// row order never leaks dispatch state into the scalar rows above.
struct ScopedSimdOn {
  ScopedSimdOn() { linalg::simd::set_enabled(true); }
  ~ScopedSimdOn() { linalg::simd::set_enabled(false); }
};

/// SELL padded layout with the vector unit on — compare against BM_SpMV (same
/// matrix, CSR layout, scalar at every level) for the vector SpMV's gain.
void BM_SpMVSellSimd(benchmark::State& state) {
  ScopedSimdOn simd;
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::SellMatrix a(poisson::assemble_laplacian(n));
  linalg::Vector x(n * n, 1.0);
  linalg::Vector y(n * n);
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
  state.SetLabel(linalg::simd::level_name(linalg::simd::detected_level()));
}
BENCHMARK(BM_SpMVSellSimd)->Arg(32)->Arg(64)->Arg(128);

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Vector x(n, 0.5);
  linalg::Vector y(n, 2.0);
  for (auto _ : state) {
    const double d = linalg::dot(x, y);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Dot)->Arg(4096)->Arg(65536);

void BM_DotSimd(benchmark::State& state) {
  ScopedSimdOn simd;
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Vector x(n, 0.5);
  linalg::Vector y(n, 2.0);
  for (auto _ : state) {
    const double d = linalg::dot(x, y);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(linalg::simd::level_name(linalg::simd::detected_level()));
}
BENCHMARK(BM_DotSimd)->Arg(4096)->Arg(65536);

// Unfused residual evaluation: r = b - Ax then ||r|| — three passes over the
// vectors. Pairs with BM_SpmvResidualFused below (one pass).
void BM_SpmvResidualUnfused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = poisson::assemble_laplacian(n);
  linalg::Vector x(n * n, 1.0);
  linalg::Vector b(n * n, 2.0);
  linalg::Vector ax(n * n);
  linalg::Vector r(n * n);
  for (auto _ : state) {
    a.multiply(x, ax);
    linalg::residual(b, ax, r);
    const double norm = linalg::norm2(r);
    benchmark::DoNotOptimize(norm);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SpmvResidualUnfused)->Arg(32)->Arg(64)->Arg(128);

void BM_SpmvResidualFused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = poisson::assemble_laplacian(n);
  linalg::Vector x(n * n, 1.0);
  linalg::Vector b(n * n, 2.0);
  linalg::Vector r(n * n);
  for (auto _ : state) {
    const double norm = linalg::spmv_residual_norm2(a, x, b, r);
    benchmark::DoNotOptimize(norm);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SpmvResidualFused)->Arg(32)->Arg(64)->Arg(128);

void BM_AxpyNorm2Unfused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Vector x(n, 1.0 / static_cast<double>(n));
  linalg::Vector y(n, 1.0);
  for (auto _ : state) {
    linalg::axpy(1e-9, x, y);
    const double norm = linalg::norm2(y);
    benchmark::DoNotOptimize(norm);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AxpyNorm2Unfused)->Arg(4096)->Arg(65536);

void BM_AxpyNorm2Fused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Vector x(n, 1.0 / static_cast<double>(n));
  linalg::Vector y(n, 1.0);
  for (auto _ : state) {
    const double norm = linalg::axpy_norm2(1e-9, x, y);
    benchmark::DoNotOptimize(norm);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AxpyNorm2Fused)->Arg(4096)->Arg(65536);

void BM_AxpyNorm2FusedSimd(benchmark::State& state) {
  ScopedSimdOn simd;
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Vector x(n, 1.0 / static_cast<double>(n));
  linalg::Vector y(n, 1.0);
  for (auto _ : state) {
    const double norm = linalg::axpy_norm2(1e-9, x, y);
    benchmark::DoNotOptimize(norm);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(linalg::simd::level_name(linalg::simd::detected_level()));
}
BENCHMARK(BM_AxpyNorm2FusedSimd)->Arg(4096)->Arg(65536);

void BM_ConjugateGradient(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto mp = poisson::make_manufactured_problem(n, 7);
  linalg::CgOptions options;
  options.tolerance = 1e-8;
  options.max_iterations = 10 * n * n;
  for (auto _ : state) {
    linalg::Vector x;
    const auto result =
        linalg::conjugate_gradient(mp.problem.a, mp.problem.b, x, options);
    benchmark::DoNotOptimize(result.residual_norm);
  }
}
BENCHMARK(BM_ConjugateGradient)->Arg(16)->Arg(32)->Arg(64);

// Same solve with the fused kernels disabled (CgOptions::fused = false): the
// pre-fusion hot path, kept as the ablation baseline.
void BM_ConjugateGradientUnfused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto mp = poisson::make_manufactured_problem(n, 7);
  linalg::CgOptions options;
  options.tolerance = 1e-8;
  options.max_iterations = 10 * n * n;
  options.fused = false;
  for (auto _ : state) {
    linalg::Vector x;
    const auto result =
        linalg::conjugate_gradient(mp.problem.a, mp.problem.b, x, options);
    benchmark::DoNotOptimize(result.residual_norm);
  }
}
BENCHMARK(BM_ConjugateGradientUnfused)->Arg(16)->Arg(32)->Arg(64);

void BM_SerializeBoundaryLine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Vector line(n, 1.25);
  for (auto _ : state) {
    serial::Writer w;
    w.f64_vector(line);
    auto bytes = w.take();
    serial::Reader r(bytes);
    auto decoded = r.f64_vector();
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(double)));
}
BENCHMARK(BM_SerializeBoundaryLine)->Arg(96)->Arg(2000)->Arg(5000);

void BM_CheckpointRoundTrip(benchmark::State& state) {
  poisson::PoissonConfig pc;
  pc.n = static_cast<std::uint32_t>(state.range(0));
  core::AppDescriptor app;
  app.task_count = 4;
  app.config = poisson::encode_config(pc);
  poisson::PoissonTask task;
  task.init(app, 1);
  task.iterate();
  for (auto _ : state) {
    auto snapshot = task.checkpoint();
    poisson::PoissonTask replica;
    replica.init(app, 1);
    replica.restore(snapshot);
    benchmark::DoNotOptimize(replica.x_ext().data());
  }
}
BENCHMARK(BM_CheckpointRoundTrip)->Arg(32)->Arg(96);

void BM_EventQueue(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      q.schedule(rng.next_double(), [] {});
    }
    double now = 0;
    while (!q.empty()) q.pop(&now)();
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(10000);

// Cancel-heavy load: the periodic-timer reschedule pattern that triggers the
// eager tombstone purge. Every other event is cancelled before draining, so
// one round exercises push, cancel (with purges) and pop together.
void BM_EventQueueCancel(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      ids.push_back(q.schedule(rng.next_double(), [] {}));
    }
    for (std::size_t i = 0; i < batch; i += 2) q.cancel(ids[i]);
    double now = 0;
    while (!q.empty()) q.pop(&now)();
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueCancel)->Arg(1000)->Arg(10000);

// Sharded-scheduler micro-costs (DESIGN.md §12). Same event batch pushed
// through one queue vs hash-partitioned across N shard queues: the work is
// identical, but each heap is ~1/N the size, so sift depth shrinks — the
// serial-side win bench_scale measures at the 10k-daemon tier.
void BM_EventQueueShardedPushPop(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kEvents = 10000;
  Rng rng(5);
  std::vector<std::pair<double, std::uint64_t>> events;  // (time, node id)
  events.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    events.emplace_back(rng.next_double(), rng.next_u64());
  }
  for (auto _ : state) {
    std::vector<sim::EventQueue> queues(shards);
    for (const auto& [t, id] : events) {
      queues[sim::SimWorld::shard_of(id, shards)].schedule(t, [] {});
    }
    double now = 0;
    for (auto& q : queues) {
      while (!q.empty()) q.pop(&now)();
    }
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_EventQueueShardedPushPop)->Arg(1)->Arg(4)->Arg(8);

// The between-rounds mailbox merge: concatenate per-shard outboxes (each
// already in send order), stable-sort pointers by arrival, and re-schedule
// into destination queues — the serial coordination cost every round pays.
void BM_ShardOutboxMerge(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kFrames = 10000;
  struct Frame {
    double arrival;
    std::uint32_t dest_shard;
  };
  Rng rng(6);
  std::vector<std::vector<Frame>> outboxes(shards);
  for (std::size_t i = 0; i < kFrames; ++i) {
    outboxes[i % shards].push_back(
        Frame{rng.next_double(), static_cast<std::uint32_t>(rng.index(shards))});
  }
  for (auto _ : state) {
    std::vector<const Frame*> merged;
    merged.reserve(kFrames);
    for (const auto& outbox : outboxes) {
      for (const Frame& f : outbox) merged.push_back(&f);
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Frame* a, const Frame* b) {
                       return a->arrival < b->arrival;
                     });
    std::vector<sim::EventQueue> queues(shards);
    for (const Frame* f : merged) {
      queues[f->dest_shard].schedule(f->arrival, [] {});
    }
    benchmark::DoNotOptimize(queues.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFrames));
}
BENCHMARK(BM_ShardOutboxMerge)->Arg(2)->Arg(4)->Arg(8);

// The merge the round engine actually runs now (DESIGN.md §12): each outbox
// is sorted in place by (arrival, seq) inside the round, and the barrier
// walks the sorted runs with a cursor heap keyed (arrival, shard) — emitting
// the exact order of the concat + stable_sort above while reusing every
// buffer across rounds. This version also drains the destination queues each
// iteration (to keep them bounded), so it carries pop costs the baseline
// skips; the pairing is conservative. meta.ablation_pairs.outbox_merge in
// BENCH_micro.json labels the pair.
void BM_OutboxKWayMerge(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kFrames = 10000;
  struct Frame {
    double arrival;
    std::uint32_t dest_shard;
    std::uint64_t seq;
  };
  Rng rng(6);  // seed 6: identical frame set to BM_ShardOutboxMerge
  std::vector<std::vector<Frame>> outboxes(shards);
  for (std::size_t i = 0; i < kFrames; ++i) {
    auto& box = outboxes[i % shards];
    box.push_back(Frame{rng.next_double(),
                        static_cast<std::uint32_t>(rng.index(shards)),
                        box.size()});
  }
  struct Cursor {
    double arrival;
    std::uint32_t shard;
    std::size_t index;
  };
  const auto later = [](const Cursor& a, const Cursor& b) {
    if (a.arrival != b.arrival) return a.arrival > b.arrival;
    return a.shard > b.shard;
  };
  std::vector<std::vector<Frame>> scratch(shards);
  std::vector<Cursor> heap;
  heap.reserve(shards);
  std::vector<sim::EventQueue> queues(shards);
  for (auto _ : state) {
    for (std::size_t s = 0; s < shards; ++s) {
      scratch[s] = outboxes[s];  // capacity reused after the first iteration
      std::sort(scratch[s].begin(), scratch[s].end(),
                [](const Frame& a, const Frame& b) {
                  if (a.arrival != b.arrival) return a.arrival < b.arrival;
                  return a.seq < b.seq;
                });
    }
    heap.clear();
    for (std::size_t s = 0; s < shards; ++s) {
      if (!scratch[s].empty()) {
        heap.push_back(Cursor{scratch[s].front().arrival,
                              static_cast<std::uint32_t>(s), 0});
      }
    }
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const Cursor cur = heap.back();
      heap.pop_back();
      const Frame& frame = scratch[cur.shard][cur.index];
      queues[frame.dest_shard].schedule(frame.arrival, [] {});
      if (cur.index + 1 < scratch[cur.shard].size()) {
        heap.push_back(Cursor{scratch[cur.shard][cur.index + 1].arrival,
                              cur.shard, cur.index + 1});
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    double now = 0;
    for (auto& q : queues) {
      while (!q.empty()) q.pop(&now)();
    }
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFrames));
}
BENCHMARK(BM_OutboxKWayMerge)->Arg(2)->Arg(4)->Arg(8);

class NullActor : public net::Actor {
 public:
  void on_start(net::Env&) override {}
  void on_message(const net::Message&, net::Env&) override {}
};

void add_lookahead_fleet(sim::SimWorld& world, std::size_t nodes,
                         net::NodeId* first) {
  Rng rng(7);
  for (std::size_t i = 0; i < nodes; ++i) {
    sim::MachineSpec spec;
    spec.latency_s = 100e-6 + rng.next_double() * 400e-6;
    spec.message_overhead_s = 1e-3 + rng.next_double() * 7e-3;
    const net::Stub stub =
        world.add_node(std::make_unique<NullActor>(), spec, net::EntityKind::Daemon);
    if (i == 0) *first = stub.node;
  }
}

// The horizon question every round asks, on the steady-state path: nothing
// changed since the last round, so the cached wire-cost minimum answers in
// O(1) regardless of fleet size.
void BM_LookaheadCached(benchmark::State& state) {
  sim::SimConfig config;
  config.shards = 4;
  sim::SimWorld world(config);
  net::NodeId first = 0;
  add_lookahead_fleet(world, static_cast<std::size_t>(state.range(0)), &first);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.lookahead());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LookaheadCached)->Arg(1024)->Arg(16384)->Arg(100000);

// Worst case for the cache: a wire-cost invalidation (throttle with a wire
// factor) every iteration, forcing the O(nodes) minimum rescan each time —
// what every round would pay without the cache. Pairs with BM_LookaheadCached.
void BM_LookaheadRescan(benchmark::State& state) {
  sim::SimConfig config;
  config.shards = 4;
  sim::SimWorld world(config);
  net::NodeId first = 0;
  add_lookahead_fleet(world, static_cast<std::size_t>(state.range(0)), &first);
  for (auto _ : state) {
    world.throttle(first, 1.0, 1.0 + 1e-12);
    benchmark::DoNotOptimize(world.lookahead());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LookaheadRescan)->Arg(1024)->Arg(16384)->Arg(100000);

void BM_MessageEncodeDecode(benchmark::State& state) {
  core::AppRegister reg;
  reg.app_id = 1;
  reg.version = 5;
  reg.spawner = net::Stub{1, 1, net::EntityKind::Spawner};
  for (std::uint32_t t = 0; t < 80; ++t) {
    reg.tasks.push_back(
        core::TaskEntry{t, net::Stub{t + 2, 1, net::EntityKind::Daemon}});
  }
  core::msg::RegisterUpdate update{reg};
  for (auto _ : state) {
    const auto m = net::make_message(update);
    const auto decoded = net::payload_of<core::msg::RegisterUpdate>(m);
    benchmark::DoNotOptimize(decoded.reg.version);
  }
}
BENCHMARK(BM_MessageEncodeDecode);

void BM_BlockingQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    BlockingQueue<int> q;
    for (int i = 0; i < 1000; ++i) q.push(i);
    int sum = 0;
    for (int i = 0; i < 1000; ++i) sum += *q.try_pop();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_BlockingQueueThroughput);

// Super-peer failure detection (DESIGN.md §13 satellite): the old per-sweep
// linear scan over the whole register vs the indexed deadline min-heap
// (core/deadline_heap.hpp). Timed region = the sweep alone; heartbeat
// bookkeeping runs untimed between sweeps for both variants (that cost lives
// on the heartbeat-handler path, where both structures pay an O(log n)-class
// map update). Workload per sweep: fleet of `n`, 10 crashed daemons to
// collect — the realistic regime where almost everyone heartbeated in time.
constexpr std::size_t kSweepCrashed = 10;

void BM_HeartbeatScanLinear(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::map<std::uint64_t, double> last;
  for (std::size_t i = 0; i < n; ++i) last[i] = 0.0;
  double now = 0.0;
  const double timeout = 2.5;
  std::size_t swept = 0;
  for (auto _ : state) {
    state.PauseTiming();
    now += 0.5;
    // Daemons [0, kSweepCrashed) are dead and stop heartbeating; everyone
    // else refreshed since the last sweep.
    for (auto& [id, t] : last) {
      if (id < kSweepCrashed && now > timeout) continue;
      t = now;
    }
    state.ResumeTiming();
    // The pre-§13 sweep: walk the whole register.
    for (auto& [id, t] : last) {
      if (t < now - timeout) {
        ++swept;
        t = now;  // re-registers, keeping the fleet at n
      }
    }
  }
  benchmark::DoNotOptimize(swept);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HeartbeatScanLinear)->Arg(1000)->Arg(10000)->Arg(100000)->Iterations(200);

void BM_HeartbeatScanHeap(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::DeadlineHeap<std::uint64_t> heap;
  for (std::size_t i = 0; i < n; ++i) heap.bump(i, 0.0);
  double now = 0.0;
  const double timeout = 2.5;
  std::size_t swept = 0;
  for (auto _ : state) {
    state.PauseTiming();
    now += 0.5;
    for (std::size_t i = 0; i < n; ++i) {
      if (i < kSweepCrashed && now > timeout) continue;  // dead, no heartbeat
      heap.bump(i, now);
    }
    state.ResumeTiming();
    heap.expire(now - timeout, [&](std::uint64_t id) {
      ++swept;
      heap.bump(id, now);  // re-registers, keeping the fleet at n
    });
  }
  benchmark::DoNotOptimize(swept);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HeartbeatScanHeap)->Arg(1000)->Arg(10000)->Arg(100000)->Iterations(200);

void BM_RngU64(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc ^= rng.next_u64();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngU64);

}  // namespace

BENCHMARK_MAIN();
