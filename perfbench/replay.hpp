// Layer replays: time the public functions of core/checkpoint, core/messages
// and linalg on inputs captured from a traced run, so each layer's share of
// the run's wall time can be estimated as (cost per call) x (calls the run
// made). The replays run after the solve, on the calling thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/app.hpp"
#include "net/message.hpp"
#include "traced_task.hpp"

namespace perfbench {

struct CheckpointReplay {
  double emit_us = 0.0;    ///< DeltaEncoder::emit, per call
  double decode_us = 0.0;  ///< checkpoint::decode_frame, per frame
  double frame_bytes_mean = 0.0;
  double delta_ratio = 0.0;  ///< delta frames / frames emitted
  /// Deltas stored after the newest full frame of a holder's chain, averaged
  /// over the frames emitted: what BackupStore::materialize decodes per fetch.
  double chain_deltas_mean = 0.0;
  std::uint64_t emits = 0;   ///< frames emitted in one replay pass
  bool frames_valid = true;  ///< every replayed frame decoded
  std::vector<jacepp::serial::Bytes> frames;  ///< one pass's frames
};

/// Replay each captured state sequence through a fresh DeltaEncoder with the
/// daemon's holder count and round-robin holder order, then decode every
/// frame. Repeats the pass until `min_seconds` have elapsed and reports the
/// median pass.
CheckpointReplay replay_checkpoint(
    const std::vector<std::shared_ptr<TaskLog>>& logs,
    const jacepp::core::AppDescriptor& app, double min_seconds);

struct CodecCost {
  double serialize_us = 0.0;    ///< net::make_message, per message
  double deserialize_us = 0.0;  ///< net::payload_of, per message
};

/// Per-type msg:: codec cost on samples built from the run's own payloads,
/// states and frames: SaveBackup carries frames, BackupData the full states
/// a holder materializes.
std::map<jacepp::net::MessageType, CodecCost> replay_messages(
    const std::vector<jacepp::net::MessageType>& types,
    const std::vector<std::shared_ptr<TaskLog>>& logs,
    const CheckpointReplay& checkpoint, const jacepp::core::AppDescriptor& app,
    double min_seconds_per_type);

struct LinalgReplay {
  double cg_us_per_solve = 0.0;    ///< cold-start CG on one task block
  double spmv_bytes_per_s = 0.0;   ///< computed bytes / SpMV time
  double cg_iterations = 0.0;
};

/// assemble_local_laplacian + conjugate_gradient on the largest captured
/// task block, at the workload's inner tolerance.
LinalgReplay replay_linalg(const std::vector<std::shared_ptr<TaskLog>>& logs,
                           std::size_t n, double inner_tolerance,
                           double min_seconds);

}  // namespace perfbench
