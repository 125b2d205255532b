#include "replay.hpp"

#include <algorithm>
#include <chrono>

#include "core/checkpoint.hpp"
#include "core/messages.hpp"
#include "linalg/cg.hpp"
#include "poisson/block_task.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace perfbench {

namespace core = jacepp::core;
namespace msg = jacepp::core::msg;
namespace net = jacepp::net;

namespace {

/// Compiler barrier: the replayed result counts as used.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Repeat `pass` until `min_seconds` have elapsed (at least three passes)
/// and return the median of its per-pass results.
template <typename Pass>
double median_of_passes(double min_seconds, Pass pass) {
  jacepp::SampleSet samples;
  const auto start = Clock::now();
  while (samples.count() < 3 || seconds_since(start) < min_seconds) {
    samples.add(pass());
  }
  return samples.median();
}

template <typename T>
CodecCost time_codec(const std::vector<T>& samples, double min_seconds) {
  CodecCost cost;
  if (samples.empty()) return cost;
  std::vector<net::Message> encoded;
  encoded.reserve(samples.size());
  cost.serialize_us = median_of_passes(min_seconds, [&] {
    encoded.clear();
    const auto start = Clock::now();
    for (const T& s : samples) encoded.push_back(net::make_message(s));
    return seconds_since(start) * 1e6 / static_cast<double>(samples.size());
  });
  cost.deserialize_us = median_of_passes(min_seconds, [&] {
    const auto start = Clock::now();
    for (const net::Message& m : encoded) {
      const T decoded = net::payload_of<T>(m);
      keep(decoded);
    }
    return seconds_since(start) * 1e6 / static_cast<double>(encoded.size());
  });
  return cost;
}

template <typename T>
std::vector<T> one_default() {
  return std::vector<T>(1);
}

core::AppRegister full_register(const core::AppDescriptor& app) {
  core::AppRegister reg;
  reg.app_id = app.app_id;
  reg.version = 1;
  reg.spawner = net::Stub{1, 1, net::EntityKind::Spawner};
  for (core::TaskId t = 0; t < app.task_count; ++t) {
    reg.tasks.push_back(core::TaskEntry{
        t, net::Stub{static_cast<net::NodeId>(10 + t), 1,
                     net::EntityKind::Daemon}});
  }
  return reg;
}

}  // namespace

CheckpointReplay replay_checkpoint(
    const std::vector<std::shared_ptr<TaskLog>>& logs,
    const core::AppDescriptor& app, double min_seconds) {
  CheckpointReplay out;
  std::vector<const TaskLog*> sequences;
  for (const auto& log : logs) {
    if (!log->states.empty() && log->hints.size() == log->states.size()) {
      sequences.push_back(log.get());
    }
  }
  if (sequences.empty()) return out;

  std::uint64_t deltas = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t chain_deltas = 0;
  out.emit_us = median_of_passes(min_seconds, [&] {
    out.frames.clear();
    deltas = 0;
    frame_bytes = 0;
    chain_deltas = 0;
    double seconds = 0.0;
    for (const TaskLog* log : sequences) {
      const std::size_t holders = std::max<std::size_t>(
          1, core::backup_peers_of(log->task, app.task_count,
                                   app.backup_peer_count)
                 .size());
      core::checkpoint::DeltaEncoder encoder(app.ckpt, holders);
      std::vector<std::uint64_t> chain(holders, 0);
      for (std::size_t i = 0; i < log->states.size(); ++i) {
        const std::size_t holder = i % holders;
        const auto start = Clock::now();
        auto emitted = encoder.emit(holder, log->states[i], log->hints[i]);
        seconds += seconds_since(start);
        if (emitted.kind == core::checkpoint::FrameKind::Delta) {
          ++deltas;
          ++chain[holder];
        } else {
          chain[holder] = 0;
        }
        chain_deltas += chain[holder];
        frame_bytes += emitted.frame.size();
        out.frames.push_back(std::move(emitted.frame));
      }
    }
    return seconds * 1e6 / static_cast<double>(out.frames.size());
  });
  out.emits = out.frames.size();
  out.delta_ratio =
      static_cast<double>(deltas) / static_cast<double>(out.emits);
  out.frame_bytes_mean =
      static_cast<double>(frame_bytes) / static_cast<double>(out.emits);
  out.chain_deltas_mean =
      static_cast<double>(chain_deltas) / static_cast<double>(out.emits);

  out.decode_us = median_of_passes(min_seconds, [&] {
    std::size_t valid = 0;
    const auto start = Clock::now();
    for (const auto& frame : out.frames) {
      if (core::checkpoint::decode_frame(frame).has_value()) ++valid;
    }
    const double us =
        seconds_since(start) * 1e6 / static_cast<double>(out.frames.size());
    out.frames_valid = valid == out.frames.size();
    return us;
  });
  return out;
}

std::map<net::MessageType, CodecCost> replay_messages(
    const std::vector<net::MessageType>& types,
    const std::vector<std::shared_ptr<TaskLog>>& logs,
    const CheckpointReplay& checkpoint, const core::AppDescriptor& app,
    double min_seconds_per_type) {
  // Samples carrying the run's own bytes; the other types are fixed-size
  // control messages whose default instances have the run's encoded size.
  std::vector<msg::TaskData> task_data;
  std::vector<msg::FinalState> final_states;
  std::vector<msg::BackupData> backup_data;
  for (const auto& log : logs) {
    for (const auto& p : log->payloads) {
      msg::TaskData m;
      m.app_id = app.app_id;
      m.from_task = log->task;
      m.to_task = log->task + 1;
      m.iteration = 100;
      m.payload = p;
      task_data.push_back(std::move(m));
    }
    if (!log->states.empty()) {
      msg::FinalState m;
      m.app_id = app.app_id;
      m.task_id = log->task;
      m.payload = log->states.front();
      final_states.push_back(std::move(m));
    }
    for (const auto& state : log->states) {
      msg::BackupData d;
      d.app_id = app.app_id;
      d.task_id = log->task;
      d.state = state;
      backup_data.push_back(std::move(d));
    }
  }
  std::vector<msg::SaveBackup> saves;
  for (const auto& frame : checkpoint.frames) {
    msg::SaveBackup s;
    s.app_id = app.app_id;
    s.state = frame;
    saves.push_back(std::move(s));
  }
  const core::AppRegister reg = full_register(app);
  std::vector<msg::TaskAssignment> assignments(1);
  assignments[0].app = app;
  assignments[0].reg = reg;
  const std::vector<msg::RegisterUpdate> updates{msg::RegisterUpdate{reg}};

  const double t = min_seconds_per_type;
  std::map<net::MessageType, CodecCost> costs;
  for (const net::MessageType type : types) {
    switch (type) {
      case msg::RegisterDaemon::kType:
        costs[type] = time_codec(one_default<msg::RegisterDaemon>(), t);
        break;
      case msg::RegisterAck::kType:
        costs[type] = time_codec(one_default<msg::RegisterAck>(), t);
        break;
      case msg::Heartbeat::kType:
        costs[type] = time_codec(one_default<msg::Heartbeat>(), t);
        break;
      case msg::HeartbeatAck::kType:
        costs[type] = time_codec(one_default<msg::HeartbeatAck>(), t);
        break;
      case msg::ReserveRequest::kType:
        costs[type] = time_codec(one_default<msg::ReserveRequest>(), t);
        break;
      case msg::ReserveReply::kType:
        costs[type] = time_codec(one_default<msg::ReserveReply>(), t);
        break;
      case msg::Reserved::kType:
        costs[type] = time_codec(one_default<msg::Reserved>(), t);
        break;
      case msg::TaskAssignment::kType:
        costs[type] = time_codec(assignments, t);
        break;
      case msg::RegisterUpdate::kType:
        costs[type] = time_codec(updates, t);
        break;
      case msg::TaskData::kType:
        costs[type] = time_codec(task_data, t);
        break;
      case msg::SaveBackup::kType:
        costs[type] = time_codec(saves, t);
        break;
      case msg::BackupAck::kType:
        costs[type] = time_codec(one_default<msg::BackupAck>(), t);
        break;
      case msg::QueryBackup::kType:
        costs[type] = time_codec(one_default<msg::QueryBackup>(), t);
        break;
      case msg::BackupInfo::kType:
        costs[type] = time_codec(one_default<msg::BackupInfo>(), t);
        break;
      case msg::FetchBackup::kType:
        costs[type] = time_codec(one_default<msg::FetchBackup>(), t);
        break;
      case msg::BackupData::kType:
        costs[type] = time_codec(backup_data, t);
        break;
      case msg::LocalStateReport::kType:
        costs[type] = time_codec(one_default<msg::LocalStateReport>(), t);
        break;
      case msg::GlobalHalt::kType:
        costs[type] = time_codec(one_default<msg::GlobalHalt>(), t);
        break;
      case msg::FinalState::kType:
        costs[type] = time_codec(final_states, t);
        break;
      default:
        break;  // control-plane variants the shipped workloads leave off
    }
  }
  return costs;
}

LinalgReplay replay_linalg(const std::vector<std::shared_ptr<TaskLog>>& logs,
                           std::size_t n, double inner_tolerance,
                           double min_seconds) {
  LinalgReplay out;
  const TaskLog* largest = nullptr;
  for (const auto& log : logs) {
    if (largest == nullptr || log->block_rows > largest->block_rows) {
      largest = log.get();
    }
  }
  if (largest == nullptr || largest->block_rows == 0) return out;

  const auto a = jacepp::poisson::assemble_local_laplacian(
      n, largest->row_lo, largest->row_lo + largest->block_rows);
  // A fixed pseudo-random right-hand side excites every mode of the block,
  // so the cold solve takes the iteration count a generic block solve needs
  // (the smooth global rhs restricted to one grid line converges in two).
  jacepp::poisson::PoissonConfig pc;
  jacepp::Rng rng(0x5eedull);
  jacepp::linalg::Vector b(a.rows());
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  jacepp::linalg::CgOptions options;
  options.tolerance = inner_tolerance;
  options.max_iterations = pc.inner_max_iterations;

  std::size_t iterations = 0;
  out.cg_us_per_solve = median_of_passes(min_seconds, [&] {
    jacepp::linalg::Vector x(b.size(), 0.0);
    const auto start = Clock::now();
    const auto result = jacepp::linalg::conjugate_gradient(a, b, x, options);
    iterations = result.iterations;
    keep(x);
    return seconds_since(start) * 1e6;
  });
  out.cg_iterations = static_cast<double>(iterations);

  // Computed bytes of one CSR SpMV: values + column indices per nonzero,
  // row pointers, one read of x and one write of y per row.
  const double bytes = static_cast<double>(a.nnz()) * 12.0 +
                       static_cast<double>(a.rows() + 1) * 4.0 +
                       static_cast<double>(a.cols()) * 8.0 +
                       static_cast<double>(a.rows()) * 8.0;
  jacepp::linalg::Vector y;
  const std::size_t reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(4e6 / std::max(bytes, 1.0)));
  const double spmv_s = median_of_passes(min_seconds, [&] {
    const auto start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      a.multiply(b, y);
      keep(y);
    }
    return seconds_since(start) / static_cast<double>(reps);
  });
  out.spmv_bytes_per_s = bytes / spmv_s;
  return out;
}

}  // namespace perfbench
