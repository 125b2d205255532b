// Timing (and a few capacity) parameters shared by all JaceP2P entities.
// Defaults are tuned for the simulator (sub-second heartbeats keep failure
// detection fast relative to iteration times); the threaded runtime uses the
// same knobs with smaller values in tests.
//
// Simulator-only scale knobs — `shards` / `worker_threads` — live in
// sim::SimConfig (sim/world.hpp; DESIGN.md §12) and reach experiments through
// SimDeploymentConfig::sim. They are listed here because this header is the
// knob index for deployments.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jacepp::core {

struct TimingConfig {
  double heartbeat_period = 0.5;     ///< daemon liveness signal period (§5.3)
  double daemon_timeout = 2.5;       ///< SP/Spawner declare a daemon dead after
                                     ///< this long without a heartbeat
  double super_peer_timeout = 2.0;   ///< daemon declares its SP dead after this
                                     ///< long without a heartbeat ack
  double sweep_period = 0.5;         ///< monitor scan period
  double bootstrap_retry = 0.5;      ///< retry delay when a bootstrap SP is
                                     ///< unreachable (§5.1)
  double reserve_retry = 1.0;        ///< spawner re-requests unfilled
                                     ///< reservations after this long (§5.2)
  double reserved_timeout = 6.0;     ///< a Reserved daemon that never receives
                                     ///< a task re-registers after this long
  double backup_query_timeout = 1.0; ///< replacement daemon waits this long
                                     ///< for BackupInfo replies (§5.4)
  double backup_fetch_timeout = 2.0; ///< ... and this long for the BackupData
  double final_state_timeout = 3.0;  ///< spawner waits this long for
                                     ///< FinalState after broadcasting halt
  double backup_retention = 30.0;    ///< daemons keep a finished app's
                                     ///< Backups this long after halt so
                                     ///< post-halt result recovery can read
                                     ///< them
  std::size_t backup_byte_budget = 0;  ///< BackupStore cap, bytes; exceeding
                                       ///< it evicts whole apps (finished,
                                       ///< then stalest, first); 0 = unbounded
};

/// Control-plane topology knobs (DESIGN.md §13): how many super-peers carry
/// the daemon Register, how daemons map onto them, whether the Application
/// Register is replicated off the spawner, and which global-convergence
/// detector runs. Defaults reproduce the paper's centralized control plane
/// bit-for-bit (`cp.super_peers = 1` via the deployment default + centralized
/// detection is golden-pinned in tests/core/test_control_plane.cpp).
struct ControlPlaneConfig {
  /// Number of linked super-peers. 0 defers to the deployment's
  /// `super_peer_count`; > 0 overrides it in both deployments.
  std::size_t super_peers = 0;
  /// Shard the daemon Register by consistent hash: a daemon registers at its
  /// home super-peer `mix64(node_id) % N` (stable across crash/revive
  /// incarnations) and walks the ring deterministically when the home SP is
  /// down; reservation requests are spread over the overlay by request id.
  /// Off (default): the paper's random-bootstrap choice, bit-identical to the
  /// pre-PR behaviour.
  bool shard_register = false;
  /// Bound on reservation-forwarding hops across the super-peer overlay
  /// (counted as super-peers visited). 0 = unbounded: the whole overlay may
  /// be walked, the pre-PR behaviour.
  std::uint32_t max_forward_depth = 0;
  /// Replicate the Application Register to the first `replica_count`
  /// super-peers on every version change, so a standby spawner can adopt a
  /// running application after the primary dies (Spawner recover mode).
  bool replicate_register = false;
  std::uint32_t replica_count = 2;
  /// Distributed diffusion/wave convergence detection (Bui–Flauzac–Rabat
  /// style ring waves over the task graph) instead of the spawner's
  /// centralized AND-of-states board. The spawner then receives only the
  /// final ConvergedVerdict — O(1) convergence messages per application.
  bool diffusion = false;
  double wave_period = 0.5;   ///< initiator launch/retry scan period
  double wave_timeout = 3.0;  ///< relaunch a wave whose token went missing
  /// Spawner-side reservation TTL: a reserved daemon that sits unassigned in
  /// the spawner's pool longer than this is written off (it re-registers on
  /// its own via `reserved_timeout`). 0 disables. Keep it below the daemons'
  /// `reserved_timeout` so both sides agree the reservation lapsed.
  double reservation_ttl = 4.0;
  /// NACK-and-retry window for a freshly assigned task: if the daemon never
  /// heartbeats after the assignment within this long, the spawner retries
  /// with another daemon instead of waiting out the full `daemon_timeout`
  /// (covers a daemon that crashed between ReserveReply and assignment).
  /// 0 disables. Must exceed `heartbeat_period` with margin.
  double assign_ack_timeout = 1.5;
};

/// Reputation and redundant-execution knobs (DESIGN.md §14). Defaults keep
/// every path off: no scores are kept, reservation grants stay FIFO, backup
/// placement stays round-robin and no verification round runs — bit-identical
/// to the pre-§14 behaviour (golden-pinned in tests/core/test_churn.cpp).
struct ReputationConfig {
  /// Keep EWMA availability/speed scores per daemon (super-peer side, fed by
  /// heartbeats, sweeps and spawner reports) and grant reservations in
  /// descending-score order instead of FIFO. The spawner mirrors the scores
  /// it observes and prefers high-scoring pooled daemons for launch slots and
  /// replacements.
  bool enabled = false;
  double ewma_alpha = 0.25;     ///< smoothing for availability/speed updates
  double initial_score = 0.5;   ///< neutral prior for never-observed peers
  double speed_weight = 0.25;   ///< speed's share of the placement score
  /// Reputation-ranked backup-peer placement (extends PR 2's adaptive
  /// checkpointing): the spawner broadcasts a ranking of tasks by their
  /// daemon's score and daemons save checkpoints to the top-ranked peers
  /// instead of the round-robin neighbours. Requires `enabled`.
  bool backup_placement = false;
  /// Redundant-execution verification round (Davtyan et al.): before halting,
  /// the spawner challenges k daemons per task with a deterministic re-run,
  /// majority-votes the result digests and demotes outvoted peers as liars.
  /// 0 or 1 disables voting.
  std::uint32_t redundancy = 0;
  std::uint32_t audit_iterations = 3;  ///< iterations per audit re-run
  double audit_timeout = 2.0;          ///< close the vote after this long
};

/// Knobs for the staleness-aware comm path (net/link.hpp; DESIGN.md §8).
/// Defaults keep the link layer dormant — `flush_window == 0` (and
/// `serialize_links == false`) means both transports bypass it entirely and
/// behave exactly as before this subsystem existed.
struct CommConfig {
  bool coalesce = true;          ///< latest-wins replacement of queued
                                 ///< dependency data (only with a window)
  double flush_window = 0.0;     ///< seconds a link accumulates between
                                 ///< flushes; 0 disables the link layer
  bool serialize_links = false;  ///< sim only: one in-flight frame per
                                 ///< directed link (models a busy NIC, makes
                                 ///< backlogs — and coalescing — visible)
  std::size_t max_queue_bytes = 4u << 20;   ///< per-link byte budget
  std::size_t max_queue_messages = 4096;    ///< per-link count budget
  std::size_t max_batch_messages = 32;      ///< control messages per Batch
  std::size_t max_batch_bytes = 16 * 1024;  ///< body bytes per Batch
};

/// Iteration hot-path knobs (DESIGN.md §9). Defaults preserve the previous
/// behaviour except for the send-buffer pool, which is transparent to
/// results (it only recycles heap storage).
struct PerfConfig {
  /// Publish boundary/halo data from INSIDE iterate() — pre-relaxed boundary
  /// lines (Poisson) or the post-solve export values (generic) leave while
  /// the rest of the iteration still runs, overlapping compute with
  /// communication. Off by default: it changes WHEN (and, for Poisson, WHAT
  /// preview) neighbours see, so trajectories differ; converged solutions
  /// agree at solver precision (bench_hotpath checks this parity).
  bool early_send = false;
  /// Kernel chunk size override: elements per BLAS-1 chunk (rows-per-chunk
  /// for SpMV is grain / 4, clamped >= 1). 0 keeps the built-in default
  /// (linalg::kVectorOpGrain). Applied process-wide at deployment build time
  /// via linalg::set_kernel_grain().
  std::size_t grain = 0;
  /// Recycle message-body buffers through serial::BufferPool instead of
  /// freeing them on last-ref release. Bit-transparent to results.
  bool pool_buffers = true;
  /// Select the vector tables of the runtime-dispatched SIMD layer
  /// (linalg/simd.hpp; DESIGN.md §10). Off — the default — runs its scalar
  /// table. On, element-wise kernels stay bit-identical and reductions
  /// reassociate within fixed-width lanes: bitwise reproducible run to run
  /// on a given ISA level, and off-vs-on agree at solver precision. Applied
  /// process-wide at deployment build time via linalg::simd::set_enabled().
  bool simd = false;
  /// Build a SELL-slice twin of each Poisson block matrix and route the inner
  /// CG's SpMV-shaped kernels through it (linalg/csr_sell.hpp). Only pays off
  /// with `simd` on and AVX2 detected; correct (padded scalar loop)
  /// everywhere. Applied via linalg::set_sell_enabled().
  bool sell = false;
};

}  // namespace jacepp::core
