// Fixed-size worker pool for data-parallel kernels (SpMV, BLAS-1 reductions,
// relaxation sweeps). One global pool — compute_pool(), sized from the
// JACEPP_THREADS environment variable — is shared by every kernel call site.
//
// Determinism contract:
//   * size() == 1 (the default): every parallel_for/parallel_reduce executes
//     the whole range as ONE chunk on the calling thread — bit-identical to a
//     plain serial loop, so the simulator stays reproducible.
//   * size() >= 2: ranges are split into fixed chunks of `grain` elements.
//     Chunk boundaries depend only on (range, grain), never on the thread
//     count or scheduling, and reduction partials are merged in chunk-index
//     order — so results are identical across runs AND across any pool size
//     >= 2 (they may differ from the serial result only by floating-point
//     reassociation across chunk boundaries).
//
// Concurrency contract: parallel_for/parallel_reduce may be called from any
// number of threads at once (the rt runtime's per-entity worker threads all
// share one pool). The calling thread always participates in executing its own
// chunks, so progress never depends on pool workers being free.
//
// The sharded simulator (sim::SimWorld::round_crew(); DESIGN.md §12) owns a
// SEPARATE RoundWorkerPool instance rather than sharing compute_pool(): shard
// rounds must replay bit-for-bit for any lane count, while compute kernels
// are allowed to reassociate across JACEPP_THREADS-sized chunks. Keeping the
// pools apart means resizing one contract never perturbs the other.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace jacepp {

class ThreadPool {
 public:
  /// A pool of logical size `threads` spawns up to `threads - 1` workers; the
  /// caller of parallel_for is the remaining lane. threads == 0 is treated as
  /// 1 (fully serial, no worker threads at all). Worker lanes are additionally
  /// capped at hardware_concurrency(): extra threads on an oversubscribed host
  /// only add context switches, and because chunk boundaries and merge order
  /// depend solely on (range, grain), executing the chunks on fewer lanes —
  /// or inline on the caller — produces the identical result. Pass
  /// force_workers = true (tests) to spawn all `threads - 1` workers
  /// regardless of the hardware.
  explicit ThreadPool(std::size_t threads, bool force_workers = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return threads_; }

  /// Invoke fn(lo, hi) over disjoint sub-ranges covering [begin, end), each at
  /// most `grain` long. Blocks until the whole range is done. Exceptions
  /// thrown by fn are rethrown (first one wins) after the range completes.
  /// A template, like parallel_reduce: the single-chunk path calls fn
  /// directly, so a kernel's closure is never copied into a heap-allocated
  /// std::function.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    Fn&& fn) {
    if (end <= begin) return;
    if (grain == 0) grain = 1;
    const std::size_t n = end - begin;
    const std::size_t chunks = (n + grain - 1) / grain;
    if (threads_ <= 1 || chunks <= 1) {
      fn(begin, end);
      return;
    }
    run_chunked(begin, end, grain, chunks,
                [&fn](std::size_t, std::size_t lo, std::size_t hi) { fn(lo, hi); });
  }

  /// Chunked reduction: `chunk(lo, hi)` produces a partial T per sub-range,
  /// and partials are folded left-to-right in chunk order with
  /// `acc = merge(acc, partial)`. With a single chunk the result is exactly
  /// chunk(begin, end) — the serial loop, bit for bit.
  template <typename T, typename ChunkFn, typename MergeFn>
  T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                    T identity, ChunkFn chunk, MergeFn merge) {
    if (end <= begin) return identity;
    if (grain == 0) grain = 1;
    const std::size_t n = end - begin;
    const std::size_t chunks = (n + grain - 1) / grain;
    if (threads_ <= 1 || chunks <= 1) return chunk(begin, end);

    std::vector<T> partial(chunks, identity);
    run_chunked(begin, end, grain, chunks,
                [&](std::size_t index, std::size_t lo, std::size_t hi) {
                  partial[index] = chunk(lo, hi);
                });
    T acc = std::move(partial[0]);
    for (std::size_t i = 1; i < chunks; ++i) acc = merge(std::move(acc), partial[i]);
    return acc;
  }

 private:
  /// One submitted range: workers and the submitter claim chunk indices from
  /// `next` until exhausted; the submitter waits for `done` to reach
  /// `chunk_count`.
  struct Batch {
    std::function<void(std::size_t, std::size_t, std::size_t)> body;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t chunk_count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable finished;
    std::exception_ptr error;
  };

  void run_chunked(std::size_t begin, std::size_t end, std::size_t grain,
                   std::size_t chunks,
                   std::function<void(std::size_t, std::size_t, std::size_t)> body);
  void execute(Batch& batch);
  void worker_loop();

  std::size_t threads_;
  std::vector<std::thread> workers_;
  std::mutex queue_mutex_;
  std::condition_variable work_ready_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stopping_ = false;
};

/// Persistent crew for the sharded scheduler's rounds: N-1 pinned worker
/// threads plus the caller as lane 0, woken together by an epoch broadcast
/// and joined by a countdown. Unlike ThreadPool (a work-stealing chunk queue,
/// built for many concurrent submitters), this is a single-submitter barrier
/// crew: run(body) invokes body(lane) exactly once per lane — lanes 1..N-1 on
/// the workers, lane 0 inline on the caller — and returns when all lanes
/// finish. The lane -> work mapping is the caller's (SimWorld assigns shard s
/// to lane s % lanes(), which is deterministic because shard state is
/// disjoint: which thread runs a shard cannot affect any result). Keeping the
/// threads alive across rounds removes the per-round spawn/teardown the old
/// parallel_for path paid at every barrier — at 100k daemons the scheduler
/// crosses that barrier tens of thousands of times per simulated second.
class RoundWorkerPool {
 public:
  /// A crew of logical size `lanes` spawns `lanes - 1` workers (capped at
  /// hardware_concurrency() unless force_workers — extra lanes on an
  /// oversubscribed host only add wakeup latency, and the lane mapping is
  /// result-neutral). lanes == 0 is treated as 1: run() degenerates to a
  /// plain body(0) call on the caller, no synchronization at all.
  explicit RoundWorkerPool(std::size_t lanes, bool force_workers = false);
  ~RoundWorkerPool();

  RoundWorkerPool(const RoundWorkerPool&) = delete;
  RoundWorkerPool& operator=(const RoundWorkerPool&) = delete;

  /// Actual crew size (workers + caller lane), after the hardware cap.
  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  /// Invoke body(lane) once per lane in [0, lanes()) — lane 0 on the calling
  /// thread — and block until every lane returns. Exceptions thrown by body
  /// are rethrown on the caller (first one wins) after the barrier. Not
  /// reentrant: one run() at a time (the scheduler's coordinator is the sole
  /// submitter).
  void run(const std::function<void(std::size_t)>& body);

 private:
  void worker_loop(std::size_t lane);

  std::size_t lanes_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  std::uint64_t epoch_ = 0;
  std::size_t remaining_ = 0;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::exception_ptr error_;
  bool stopping_ = false;
};

/// Thread count for the global pool: JACEPP_THREADS if set (clamped to
/// [1, 1024]); 1 otherwise, which keeps every kernel serial and the simulator
/// bit-reproducible.
[[nodiscard]] std::size_t configured_compute_threads();

/// The process-wide kernel pool (lazily built at configured_compute_threads()
/// size on first use, or whatever ScopedComputePool currently installs).
[[nodiscard]] ThreadPool& compute_pool();

/// RAII override of compute_pool() for tests and benchmarks that need a
/// specific pool size. Install/restore is not synchronized against concurrent
/// kernel calls; swap only while no kernels are in flight.
class ScopedComputePool {
 public:
  explicit ScopedComputePool(ThreadPool& pool);
  ~ScopedComputePool();

  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace jacepp
