#include "poisson/block_task.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/fused.hpp"
#include "poisson/poisson.hpp"
#include "serial/buffer_pool.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::poisson {

linalg::CsrMatrix assemble_local_laplacian(std::size_t n, std::size_t row_lo,
                                           std::size_t row_hi) {
  JACEPP_ASSERT(row_lo < row_hi && row_hi <= n * n);
  JACEPP_ASSERT(row_lo % n == 0 && row_hi % n == 0);
  const double h = 1.0 / static_cast<double>(n + 1);
  const double inv_h2 = 1.0 / (h * h);
  const std::size_t rows = row_hi - row_lo;
  linalg::CsrBuilder builder(rows, rows);
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    const std::size_t i = r % n;  // position within the grid line
    const std::size_t local = r - row_lo;
    builder.add(local, local, 4.0 * inv_h2);
    if (i > 0) builder.add(local, local - 1, -inv_h2);
    if (i + 1 < n) builder.add(local, local + 1, -inv_h2);
    if (r >= n && r - n >= row_lo) builder.add(local, local - n, -inv_h2);
    if (r + n < n * n && r + n < row_hi) builder.add(local, local + n, -inv_h2);
  }
  return builder.build();
}

linalg::Vector global_rhs(const PoissonConfig& config) {
  const std::size_t n = config.n;
  if (config.rhs_kind == 1) {
    Rng rng(config.rhs_seed);
    linalg::Vector exact(n * n);
    for (double& v : exact) v = rng.uniform(-1.0, 1.0);
    linalg::Vector b;
    assemble_laplacian(n).multiply(exact, b);
    return b;
  }
  return assemble_rhs(n, [](double x, double y) {
    return 2.0 * M_PI * M_PI * std::sin(M_PI * x) * std::sin(M_PI * y);
  });
}

serial::Bytes encode_config(const PoissonConfig& config) {
  return serial::encode(config);
}

void PoissonTask::init(const core::AppDescriptor& app, core::TaskId task_id) {
  serial::Reader reader(app.config);
  config_ = PoissonConfig::deserialize(reader);
  JACEPP_CHECK(reader.ok(), "PoissonTask: malformed config");
  JACEPP_CHECK(config_.n >= 2, "PoissonTask: grid side must be >= 2");

  task_id_ = task_id;
  task_count_ = app.task_count;
  const std::size_t n = config_.n;
  const std::size_t overlap_rows = config_.overlap_lines * n;

  blocks_ = linalg::partition_rows(n * n, task_count_, n, overlap_rows);
  block_ = blocks_[task_id_];

  // The boundary-line exchange requires every block to own at least
  // overlap + 1 full lines (see outgoing()).
  for (const auto& blk : blocks_) {
    JACEPP_CHECK(blk.owned_size() >= overlap_rows + n,
                 "PoissonTask: overlap too large for this block size");
  }

  const double h = 1.0 / static_cast<double>(n + 1);
  inv_h2_ = 1.0 / (h * h);

  a_local_ = assemble_local_laplacian(n, block_.ext_lo, block_.ext_hi);

  const linalg::Vector full_rhs = global_rhs(config_);
  b_ext_.assign(full_rhs.begin() + static_cast<std::ptrdiff_t>(block_.ext_lo),
                full_rhs.begin() + static_cast<std::ptrdiff_t>(block_.ext_hi));

  inv_diag_ = a_local_.diagonal();
  for (double& d : inv_diag_) d = 1.0 / d;  // 4/h² on every row, never zero

  sell_.reset();
  if (linalg::sell_enabled()) sell_.emplace(a_local_);

  x_ext_.assign(block_.ext_size(), 0.0);
  early_x_.clear();
  owned_prev_.assign(block_.owned_size(), 0.0);
  lower_boundary_.assign(n, 0.0);
  upper_boundary_.assign(n, 0.0);
  lower_tag_ = upper_tag_ = 0;
  lower_fresh_ = upper_fresh_ = false;
  local_error_ = 1.0;
  iterations_done_ = 0;
  total_flops_ = 0.0;
}

void PoissonTask::build_rhs(linalg::Vector& rhs) const {
  const std::size_t n = config_.n;
  rhs = b_ext_;
  // Dirichlet data at the extended boundary comes from the neighbours' latest
  // published lines; the outermost tasks use the domain boundary (zero).
  if (task_id_ > 0) {
    for (std::size_t i = 0; i < n; ++i) rhs[i] += inv_h2_ * lower_boundary_[i];
  }
  if (task_id_ + 1 < task_count_) {
    const std::size_t base = block_.ext_size() - n;
    for (std::size_t i = 0; i < n; ++i) {
      rhs[base + i] += inv_h2_ * upper_boundary_[i];
    }
  }
}

double PoissonTask::iterate() {
  // Starved iteration: no new boundary content since the last converged
  // solve. Re-solving would return x unchanged bit-for-bit, so the real math
  // is skipped — but the VIRTUAL cost charged is that of the full solve the
  // paper's implementation performs regardless of updates. These are exactly
  // the paper's "iterations without update" that do not make the computation
  // progress (§7): same price, no progress.
  if (iterations_done_ > 0 && !lower_fresh_ && !upper_fresh_ &&
      last_solve_converged_) {
    ++iterations_done_;
    last_iteration_informative_ = task_count_ == 1;
    total_flops_ += last_solve_flops_;
    return last_solve_flops_;
  }

  build_rhs(rhs_);

  // Early halo publish (perf.early_send): pre-relax the two outgoing boundary
  // lines with one fused weighted-Jacobi sweep against the FRESH rhs and ship
  // those preview lines now, so neighbours receive a better boundary estimate
  // while the full inner solve below still runs. The final lines still go out
  // through outgoing() after the solve (previews never mark anything as sent).
  double preview_flops = 0.0;
  if (early_publish_enabled() && task_count_ > 1) {
    preview_flops = publish_boundary_preview(rhs_);
  }

  linalg::CgOptions options;
  options.tolerance = config_.inner_tolerance;
  options.max_iterations = config_.inner_max_iterations;
  if (sell_) options.sell = &*sell_;
  const auto cg =
      linalg::conjugate_gradient(a_local_, rhs_, x_ext_, options, cg_workspace_);
  last_solve_converged_ = cg.converged;
  sent_since_last_solve_ = false;
  ckpt_solve_dirty_ = true;

  // Relative change of the OWNED components — the published iterate. Fused
  // map+reduce: each chunk updates its disjoint owned_prev_ slice while
  // accumulating both sums.
  struct DiffNorm {
    double diff2 = 0.0;
    double norm2 = 0.0;
  };
  const std::size_t off = block_.owned_offset();
  const double* x_ext = x_ext_.data();
  double* prev = owned_prev_.data();
  const DiffNorm dn = compute_pool().parallel_reduce(
      0, block_.owned_size(), linalg::vector_op_grain(), DiffNorm{},
      [=](std::size_t lo, std::size_t hi) {
        DiffNorm partial;
        for (std::size_t i = lo; i < hi; ++i) {
          const double v = x_ext[off + i];
          const double d = v - prev[i];
          partial.diff2 += d * d;
          partial.norm2 += v * v;
          prev[i] = v;
        }
        return partial;
      },
      [](DiffNorm a, const DiffNorm& b) {
        a.diff2 += b.diff2;
        a.norm2 += b.norm2;
        return a;
      });
  local_error_ = std::sqrt(dn.diff2) / std::max(std::sqrt(dn.norm2), 1e-300);

  ++iterations_done_;
  // The very first iteration is informative too: it moves x off the initial
  // guess regardless of neighbour data.
  last_iteration_informative_ =
      lower_fresh_ || upper_fresh_ || task_count_ == 1 || iterations_done_ == 1;
  if (last_iteration_informative_) ++iterations_with_fresh_data_;
  lower_fresh_ = upper_fresh_ = false;

  const double flops =
      (cg.flops + preview_flops + 6.0 * static_cast<double>(block_.ext_size())) *
      config_.work_scale;
  // Starved iterations will charge the cost of a representative solve; use a
  // slowly-tracking maximum so early cheap warm-started solves do not
  // underprice them.
  last_solve_flops_ = std::max(flops, 0.5 * last_solve_flops_);
  total_flops_ += flops;
  return flops;
}

double PoissonTask::publish_boundary_preview(const linalg::Vector& rhs) {
  const std::size_t n = config_.n;
  const std::size_t overlap_rows = config_.overlap_lines * n;
  if (early_x_.size() != x_ext_.size()) early_x_.assign(x_ext_.size(), 0.0);

  // ω = 2/3: the classic damped-Jacobi weight — the preview only needs to be
  // closer to the post-solve line than the stale one, not converged.
  constexpr double kOmega = 2.0 / 3.0;
  const auto& row_ptr = a_local_.row_ptr();
  double flops = 0.0;
  std::vector<core::OutgoingData> out;

  auto preview_line = [&](std::size_t global_start) {
    const std::size_t lo = global_start - block_.ext_lo;
    linalg::relax_sweep_fused(a_local_, inv_diag_, rhs, x_ext_, early_x_,
                              kOmega, lo, lo + n);
    flops += 2.0 * static_cast<double>(row_ptr[lo + n] - row_ptr[lo]) +
             4.0 * static_cast<double>(n);
    serial::Writer writer;
    writer.f64_vector(early_x_.data() + lo, n);
    return writer.take();
  };

  // Same lines and stream tags as outgoing(): the preview and the final line
  // share one latest-wins stream per (pair, direction).
  if (task_id_ > 0) {
    const std::size_t start = block_.owned_lo + overlap_rows;
    out.push_back(core::OutgoingData{task_id_ - 1, preview_line(start), 1});
  }
  if (task_id_ + 1 < task_count_) {
    const std::size_t start = block_.owned_hi - overlap_rows - n;
    out.push_back(core::OutgoingData{task_id_ + 1, preview_line(start), 0});
  }
  publish_early(std::move(out));
  return flops;
}

std::vector<core::OutgoingData> PoissonTask::outgoing() {
  // Send boundary lines after every real solve; during starved spins resend
  // only every kResendInterval iterations — a low-rate refresh that feeds
  // replacement daemons (which join with empty boundary buffers) without
  // flooding the network with bit-identical lines.
  constexpr std::uint64_t kResendInterval = 8;
  if (sent_since_last_solve_ &&
      iterations_done_ - last_send_iteration_ < kResendInterval) {
    return {};
  }
  sent_since_last_solve_ = true;
  last_send_iteration_ = iterations_done_;

  std::vector<core::OutgoingData> out;
  out.reserve(2);
  const std::size_t n = config_.n;
  const std::size_t overlap_rows = config_.overlap_lines * n;

  // Each line is written straight from x_ext_ into a recycled buffer; the
  // daemon hands the buffer back to the pool once the message is encoded.
  auto extract_line = [&](std::size_t global_start) {
    JACEPP_ASSERT(global_start >= block_.owned_lo &&
                  global_start + n <= block_.owned_hi);
    const std::size_t local = global_start - block_.ext_lo;
    serial::Writer writer(serial::BufferPool::instance().acquire());
    writer.reserve(serial::varint_size(n) + sizeof(double) * n);
    writer.f64_vector(x_ext_.data() + local, n);
    return writer.take();
  };

  // Stream tags name the boundary direction: the line a neighbour receives
  // from below (tag 0) vs from above (tag 1). Each (pair, tag) is one
  // latest-wins stream in the link layer.
  if (task_id_ > 0) {
    // The predecessor's extended block ends at my owned_lo + overlap; it
    // needs the line right above that boundary.
    const std::size_t start = block_.owned_lo + overlap_rows;
    out.push_back(core::OutgoingData{task_id_ - 1, extract_line(start), 1});
  }
  if (task_id_ + 1 < task_count_) {
    // The successor's extended block starts at my owned_hi - overlap; it
    // needs the line right below that boundary.
    const std::size_t start = block_.owned_hi - overlap_rows - n;
    out.push_back(core::OutgoingData{task_id_ + 1, extract_line(start), 0});
  }
  return out;
}

void PoissonTask::on_data(core::TaskId from_task, std::uint64_t iteration,
                          const serial::Bytes& payload) {
  serial::Reader reader(payload);
  linalg::Vector& line = incoming_;
  reader.f64_vector_into(line);
  if (!reader.ok() || line.size() != config_.n) return;  // malformed: drop
  // Last-received-wins: after a neighbour restarts from a checkpoint its
  // iteration counter regresses, yet its data is the freshest available, so
  // arrival order (not the counter) decides. The tag is kept for diagnostics.
  //
  // Freshness is CONTENT-based: a starved neighbour keeps re-sending an
  // unchanged line every spin iteration, and treating those arrivals as new
  // information would let update-distance hit zero and fake local stability
  // (the paper's "no update received" iterations).
  if (from_task + 1 == task_id_) {
    if (line != lower_boundary_) {
      lower_fresh_ = true;
      ckpt_lower_dirty_ = true;
    }
    lower_boundary_.swap(line);
    lower_tag_ = iteration;
  } else if (from_task == task_id_ + 1) {
    if (line != upper_boundary_) {
      upper_fresh_ = true;
      ckpt_upper_dirty_ = true;
    }
    upper_boundary_.swap(line);
    upper_tag_ = iteration;
  }
}

std::size_t PoissonTask::checkpoint_size() const {
  std::size_t size = 4 * sizeof(std::uint64_t);
  for (const linalg::Vector* v :
       {&x_ext_, &owned_prev_, &lower_boundary_, &upper_boundary_}) {
    size += serial::varint_size(v->size()) + sizeof(double) * v->size();
  }
  return size;
}

serial::Bytes PoissonTask::checkpoint() const {
  serial::Writer writer(serial::BufferPool::instance().acquire());
  writer.reserve(checkpoint_size());
  writer.f64_vector(x_ext_);
  writer.f64_vector(owned_prev_);
  writer.f64_vector(lower_boundary_);
  writer.f64_vector(upper_boundary_);
  writer.u64(lower_tag_);
  writer.u64(upper_tag_);
  writer.f64(local_error_);
  writer.u64(iterations_done_);
  return writer.take();
}

void PoissonTask::restore(const serial::Bytes& state) {
  serial::Reader reader(state);
  x_ext_ = reader.f64_vector<linalg::Vector>();
  owned_prev_ = reader.f64_vector<linalg::Vector>();
  lower_boundary_ = reader.f64_vector<linalg::Vector>();
  upper_boundary_ = reader.f64_vector<linalg::Vector>();
  lower_tag_ = reader.u64();
  upper_tag_ = reader.u64();
  local_error_ = reader.f64();
  iterations_done_ = reader.u64();
  JACEPP_CHECK(reader.ok(), "PoissonTask: malformed checkpoint");
  JACEPP_CHECK(x_ext_.size() == block_.ext_size() &&
                   owned_prev_.size() == block_.owned_size() &&
                   lower_boundary_.size() == config_.n &&
                   upper_boundary_.size() == config_.n,
               "PoissonTask: checkpoint shape mismatch");
  lower_fresh_ = upper_fresh_ = false;
  ckpt_solve_dirty_ = ckpt_lower_dirty_ = ckpt_upper_dirty_ = true;
}

std::optional<core::checkpoint::DirtyRanges> PoissonTask::take_dirty_ranges() {
  // Byte layout of checkpoint(): x_ext_ | owned_prev_ | lower | upper |
  // tags + error + iteration counter. Vector sizes are fixed after init, so
  // the field offsets are stable across checkpoints.
  const std::size_t n = config_.n;
  const std::size_t x_end = serial::varint_size(x_ext_.size()) +
                            sizeof(double) * x_ext_.size();
  const std::size_t prev_end = x_end +
                               serial::varint_size(owned_prev_.size()) +
                               sizeof(double) * owned_prev_.size();
  const std::size_t lower_end =
      prev_end + serial::varint_size(n) + sizeof(double) * n;
  const std::size_t upper_end =
      lower_end + serial::varint_size(n) + sizeof(double) * n;
  const std::size_t total = upper_end + 4 * sizeof(std::uint64_t);

  core::checkpoint::DirtyRanges d;
  d.ranges.reserve(4);
  if (ckpt_solve_dirty_) d.mark(0, prev_end);
  if (ckpt_lower_dirty_) d.mark(prev_end, lower_end);
  if (ckpt_upper_dirty_) d.mark(lower_end, upper_end);
  d.mark(upper_end, total);  // scalars change every iteration
  ckpt_solve_dirty_ = ckpt_lower_dirty_ = ckpt_upper_dirty_ = false;
  return d;
}

linalg::Vector PoissonTask::owned_slice() const {
  const std::size_t off = block_.owned_offset();
  return linalg::Vector(
      x_ext_.begin() + static_cast<std::ptrdiff_t>(off),
      x_ext_.begin() + static_cast<std::ptrdiff_t>(off + block_.owned_size()));
}

serial::Bytes PoissonTask::final_payload() const {
  serial::Writer writer;
  writer.f64_vector(owned_slice());
  return writer.take();
}

std::size_t PoissonTask::boundary_payload_bytes() const {
  return config_.n * sizeof(double) + 4;
}

linalg::Vector assemble_solution(std::size_t n, std::uint32_t task_count,
                                 const std::vector<serial::Bytes>& payloads,
                                 std::size_t overlap_lines) {
  const auto blocks =
      linalg::partition_rows(n * n, task_count, n, overlap_lines * n);
  linalg::Vector x(n * n, 0.0);
  for (std::uint32_t t = 0; t < task_count && t < payloads.size(); ++t) {
    if (payloads[t].empty()) continue;
    serial::Reader reader(payloads[t]);
    const linalg::Vector slice = reader.f64_vector<linalg::Vector>();
    if (!reader.ok() || slice.size() != blocks[t].owned_size()) continue;
    std::copy(slice.begin(), slice.end(),
              x.begin() + static_cast<std::ptrdiff_t>(blocks[t].owned_lo));
  }
  return x;
}

double poisson_relative_residual(const PoissonConfig& config,
                                 const linalg::Vector& x) {
  const auto a = assemble_laplacian(config.n);
  const auto b = global_rhs(config);
  linalg::Vector ax;
  a.multiply(x, ax);
  double r2 = 0.0;
  double b2 = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = b[i] - ax[i];
    r2 += d * d;
    b2 += b[i] * b[i];
  }
  return std::sqrt(r2) / std::max(std::sqrt(b2), 1e-300);
}

void force_registration() {
  static core::ProgramRegistrar registrar(PoissonTask::kProgramName, [] {
    return std::unique_ptr<core::Task>(new PoissonTask());
  });
  (void)registrar;
}

namespace {
/// Registers "poisson" whenever this translation unit is linked in.
const bool kRegistered = [] {
  force_registration();
  return true;
}();
}  // namespace

}  // namespace jacepp::poisson
