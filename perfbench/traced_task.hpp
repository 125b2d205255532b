// Task-API tracer: a decorator around poisson::PoissonTask that records one
// in-memory span per call across the core::Task boundary (the line between
// the daemon and the application) and captures a bounded sample of the
// inputs the layer replays need (checkpoint states, dirty-range hints,
// boundary payloads).
//
// The decorator is registered under the program name "poisson", so the
// AppDescriptor, and with it every wire byte, is the same as in a plain run:
// the simulated outputs of a traced run must equal the plain run's.
//
// Trivial getters (local_error, error_is_informative, informative_iterations)
// are forwarded without a span: they read one field each.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/task.hpp"
#include "poisson/block_task.hpp"

namespace perfbench {

enum class Call : std::uint8_t {
  Init,
  Iterate,
  Outgoing,
  OnData,
  Checkpoint,
  DirtyRanges,
  Restore,
  FinalPayload,
  kCount
};

inline const char* call_name(Call c) {
  static const char* const kNames[] = {"init",     "iterate",      "outgoing",
                                       "on_data",  "checkpoint",   "dirty_ranges",
                                       "restore",  "final_payload"};
  return kNames[static_cast<int>(c)];
}

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  double start_s = 0.0;  ///< seconds since the session epoch
  double end_s = 0.0;
  std::uint32_t task = 0;
  Call call = Call::Init;
};

/// Everything one task instance (one daemon incarnation) recorded. Written
/// only by the thread driving that task; read after the deployment is gone.
struct TaskLog {
  std::uint32_t task = 0;
  std::vector<Span> spans;
  double flops = 0.0;  ///< sum of iterate() returns (work_scale included)
  double work_scale = 1.0;
  std::uint64_t state_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t outgoing_messages = 0;
  std::vector<jacepp::serial::Bytes> states;
  std::vector<std::optional<jacepp::core::checkpoint::DirtyRanges>> hints;
  std::vector<jacepp::serial::Bytes> payloads;  ///< first outgoing payloads
  std::size_t block_rows = 0;  ///< rows of the task's extended block
  std::size_t row_lo = 0;      ///< first global row of the extended block
};

/// Process-wide registry of the logs of one traced solve.
class TraceSession {
 public:
  std::shared_ptr<TaskLog> open() {
    auto log = std::make_shared<TaskLog>();
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(log);
    return log;
  }

  [[nodiscard]] double now() const {
    return seconds_since(epoch_);
  }

  /// Only valid once every task instance is destroyed (deployment torn down).
  [[nodiscard]] std::vector<std::shared_ptr<TaskLog>> logs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return logs_;
  }

 private:
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<TaskLog>> logs_;
};

class TracedTask final : public jacepp::core::Task {
 public:
  TracedTask(TraceSession& session, std::shared_ptr<TaskLog> log)
      : session_(session), log_(std::move(log)) {}

  void init(const jacepp::core::AppDescriptor& app,
            jacepp::core::TaskId task_id) override {
    log_->task = task_id;
    const Timer t(*this, Call::Init);
    inner_.init(app, task_id);
    log_->work_scale = inner_.config().work_scale;
    log_->block_rows = inner_.block().ext_size();
    log_->row_lo = inner_.block().ext_lo;
  }

  double iterate() override {
    const Timer t(*this, Call::Iterate);
    const double flops = inner_.iterate();
    log_->flops += flops;
    return flops;
  }

  std::vector<jacepp::core::OutgoingData> outgoing() override {
    const Timer t(*this, Call::Outgoing);
    auto out = inner_.outgoing();
    log_->outgoing_messages += out.size();
    if (log_->payloads.size() < kPayloadSamples) {
      for (const auto& o : out) log_->payloads.push_back(o.payload);
    }
    return out;
  }

  [[nodiscard]] double local_error() const override {
    return inner_.local_error();
  }
  [[nodiscard]] bool error_is_informative() const override {
    return inner_.error_is_informative();
  }

  void on_data(jacepp::core::TaskId from_task, std::uint64_t iteration,
               const jacepp::serial::Bytes& payload) override {
    const Timer t(*this, Call::OnData);
    inner_.on_data(from_task, iteration, payload);
  }

  [[nodiscard]] jacepp::serial::Bytes checkpoint() const override {
    const Timer t(*this, Call::Checkpoint);
    auto state = inner_.checkpoint();
    const auto index = log_->checkpoints++;
    log_->state_bytes += state.size();
    capture_next_hint_ = in_window(index);
    if (capture_next_hint_) log_->states.push_back(state);
    return state;
  }

  void restore(const jacepp::serial::Bytes& state) override {
    const Timer t(*this, Call::Restore);
    inner_.restore(state);
  }

  std::optional<jacepp::core::checkpoint::DirtyRanges> take_dirty_ranges()
      override {
    const Timer t(*this, Call::DirtyRanges);
    auto hints = inner_.take_dirty_ranges();
    if (capture_next_hint_) {
      log_->hints.push_back(hints);
      capture_next_hint_ = false;
    }
    return hints;
  }

  [[nodiscard]] jacepp::serial::Bytes final_payload() const override {
    const Timer t(*this, Call::FinalPayload);
    return inner_.final_payload();
  }

  [[nodiscard]] std::uint64_t informative_iterations() const override {
    return inner_.informative_iterations();
  }

 private:
  static constexpr std::size_t kPayloadSamples = 16;
  /// Checkpoint calls captured per task for the codec replay: kCaptureCount
  /// consecutive states from call kCaptureSkip on, past the start-up saves.
  static constexpr std::uint64_t kCaptureSkip = 8;
  static constexpr std::uint64_t kCaptureCount = 24;

  class Timer {
   public:
    Timer(const TracedTask& owner, Call call)
        : owner_(owner), call_(call), start_(owner.session_.now()) {}
    ~Timer() {
      owner_.log_->spans.push_back(
          Span{start_, owner_.session_.now(), owner_.log_->task, call_});
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    const TracedTask& owner_;
    Call call_;
    double start_;
  };

  [[nodiscard]] static bool in_window(std::uint64_t index) {
    return index >= kCaptureSkip && index < kCaptureSkip + kCaptureCount;
  }

  TraceSession& session_;
  std::shared_ptr<TaskLog> log_;
  jacepp::poisson::PoissonTask inner_;
  /// The daemon calls take_dirty_ranges() right after checkpoint(); this
  /// pairs a captured state with the hint that describes it.
  mutable bool capture_next_hint_ = false;
};

}  // namespace perfbench
