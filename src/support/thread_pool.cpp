#include "support/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace jacepp {

ThreadPool::ThreadPool(std::size_t threads, bool force_workers)
    : threads_(std::max<std::size_t>(threads, 1)) {
  const std::size_t hardware =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  const std::size_t lanes =
      force_workers ? threads_ : std::min(threads_, hardware);
  workers_.reserve(lanes - 1);
  for (std::size_t i = 0; i + 1 < lanes; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::run_chunked(
    std::size_t begin, std::size_t end, std::size_t grain, std::size_t chunks,
    std::function<void(std::size_t, std::size_t, std::size_t)> body) {
  if (workers_.empty()) {
    // No worker lanes (single-CPU host): execute the chunks in index order on
    // the caller. Same chunk boundaries, same merge order — bit-identical to
    // a genuinely parallel run, minus the wakeup traffic.
    for (std::size_t index = 0; index < chunks; ++index) {
      const std::size_t lo = begin + index * grain;
      body(index, lo, std::min(end, lo + grain));
    }
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->body = std::move(body);
  batch->begin = begin;
  batch->end = end;
  batch->grain = grain;
  batch->chunk_count = chunks;

  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(batch);
  }
  work_ready_.notify_all();

  // The submitter is a full participant: even if every worker is busy with
  // other batches, this thread alone drains the range.
  execute(*batch);

  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->finished.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->chunk_count;
    });
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    auto it = std::find(queue_.begin(), queue_.end(), batch);
    if (it != queue_.end()) queue_.erase(it);
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

void ThreadPool::execute(Batch& batch) {
  for (;;) {
    const std::size_t index = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch.chunk_count) return;
    const std::size_t lo = batch.begin + index * batch.grain;
    const std::size_t hi = std::min(batch.end, lo + batch.grain);
    try {
      batch.body(index, lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.mutex);
      if (!batch.error) batch.error = std::current_exception();
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch.chunk_count) {
      // Last chunk: wake the submitter. The lock pairs with its predicate
      // check so the notification cannot be missed.
      std::lock_guard<std::mutex> lock(batch.mutex);
      batch.finished.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      work_ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      batch = queue_.front();
      if (batch->next.load(std::memory_order_relaxed) >= batch->chunk_count) {
        // Fully claimed; the submitter may still be running its last chunk.
        // Drop it from the queue so waiters don't spin on it.
        queue_.pop_front();
        continue;
      }
    }
    execute(*batch);
  }
}

RoundWorkerPool::RoundWorkerPool(std::size_t lanes, bool force_workers)
    : lanes_(std::max<std::size_t>(lanes, 1)) {
  const std::size_t hardware =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  if (!force_workers) lanes_ = std::min(lanes_, hardware);
  workers_.reserve(lanes_ - 1);
  for (std::size_t i = 1; i < lanes_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

RoundWorkerPool::~RoundWorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void RoundWorkerPool::run(const std::function<void(std::size_t)>& body) {
  if (workers_.empty()) {
    body(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    error_ = nullptr;
    remaining_ = workers_.size();
    ++epoch_;
  }
  start_.notify_all();
  try {
    body(0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return remaining_ == 0; });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void RoundWorkerPool::worker_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_.wait(lock, [&] { return stopping_ || epoch_ != seen; });
      if (stopping_) return;
      seen = epoch_;
      body = body_;
    }
    try {
      (*body)(lane);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--remaining_ == 0) done_.notify_all();
    }
  }
}

std::size_t configured_compute_threads() {
  const char* env = std::getenv("JACEPP_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* parse_end = nullptr;
  const unsigned long parsed = std::strtoul(env, &parse_end, 10);
  if (parse_end == env || parsed == 0) return 1;
  return std::min<std::size_t>(parsed, 1024);
}

namespace {
std::atomic<ThreadPool*> g_pool_override{nullptr};
}  // namespace

ThreadPool& compute_pool() {
  ThreadPool* override_pool = g_pool_override.load(std::memory_order_acquire);
  if (override_pool != nullptr) return *override_pool;
  static ThreadPool pool(configured_compute_threads());
  return pool;
}

ScopedComputePool::ScopedComputePool(ThreadPool& pool)
    : previous_(g_pool_override.exchange(&pool, std::memory_order_acq_rel)) {}

ScopedComputePool::~ScopedComputePool() {
  g_pool_override.store(previous_, std::memory_order_release);
}

}  // namespace jacepp
