// jacepp benchmark: time-to-solution on the paper's Figure 7 cell and on a
// threaded Poisson solve, with a Task-API traced run for the per-layer split.
//
//   jacepp_perfbench --workload fig7-d0 --seed 1042 --seconds 30 --trace 0
//
// --trace 0 runs plain solves for `--seconds` and reports the end-to-end
// metrics (medians over the solves). --trace 1 runs two plain and two traced
// solves of the same seed, replays the checkpoint, message and linalg layers
// on inputs captured by the tracer, and reports the per-layer metrics. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.hpp"
#include "linalg/simd.hpp"
#include "replay.hpp"
#include "sim/world.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace msg = jacepp::core::msg;

namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  void print_table() const {
    for (const auto& m : metrics_) {
      std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  [[nodiscard]] std::string json() const {
    std::ostringstream o;
    o.precision(17);
    o << "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
        << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit
        << "\"}";
    }
    o << "}";
    return o.str();
  }

 private:
  std::vector<Metric> metrics_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Seed of the i-th solve of a run: the run's seed itself first (so the
/// default seed reproduces bench_fig7's cell), then well-mixed successors.
std::uint64_t solve_seed(std::uint64_t seed, std::size_t i) {
  return i == 0 ? seed : jacepp::sim::mix64(seed * 0x9e3779b97f4a7c15ull + i);
}

double median(std::vector<double> v) {
  jacepp::SampleSet s;
  for (double x : v) s.add(x);
  return s.count() ? s.median() : 0.0;
}

std::uint64_t sent_of(const jacepp::sim::NetStats& net,
                      jacepp::net::MessageType type) {
  const auto it = net.sent_by_type.find(type);
  return it == net.sent_by_type.end() ? 0 : it->second;
}

std::uint64_t delivered_of(const jacepp::sim::NetStats& net,
                           jacepp::net::MessageType type) {
  const auto it = net.delivered_by_type.find(type);
  return it == net.delivered_by_type.end() ? 0 : it->second;
}

void print_solve(const Workload& w, const SolveResult& r, const char* kind) {
  std::printf(
      "solve %-6s seed=%llu converged=%d residual=%.3e tts=%.4f wall_s=%.4f "
      "setup_s=%.5f cpu_s=%.4f",
      kind, static_cast<unsigned long long>(r.seed), r.converged ? 1 : 0,
      r.residual, r.tts, r.wall_s, r.setup_s, r.cpu_s);
  if (w.simulated) {
    std::printf(" events=%llu digest=%016llx",
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.digest()));
  } else {
    std::printf(" launch_s=%.5f", r.launch_s);
  }
  std::printf("\n");
  if (w.simulated) {
    std::printf(
        "  digest-inputs tts_sim_s=%.6f sim.events=%llu net.sent=%llu "
        "net.delivered=%llu net.lost=%llu net.bytes_sent=%llu final_iterations=",
        r.tts, static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.net.sent),
        static_cast<unsigned long long>(r.net.delivered),
        static_cast<unsigned long long>(r.net.lost()),
        static_cast<unsigned long long>(r.net.bytes_sent));
    for (std::size_t i = 0; i < r.report.final_iterations.size(); ++i) {
      std::printf("%s%llu", i ? "," : "",
                  static_cast<unsigned long long>(r.report.final_iterations[i]));
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

struct RunOutcome {
  Report report;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
};

// ---------------------------------------------------------------------------
// Plain run: end-to-end metrics
// ---------------------------------------------------------------------------

/// Wall time a plain run spends on stand-alone set-ups. A set-up takes a
/// fraction of a millisecond, so this is thousands of them. The speed of a
/// shared host can change within a second (simulator set-ups of 125 us and
/// 210 us a few hundred milliseconds apart on a 4-vCPU VM), so they are
/// spread over the run rather than taken at once.
constexpr double kSetupSeconds = 2.0;

RunOutcome run_plain(const Workload& w, std::uint64_t seed, double seconds) {
  RunOutcome out;
  const auto start = Clock::now();
  std::vector<double> tts, wall, cpu, setup;

  // The solve count comes from the budget and a nominal solve time, not from
  // a clock reading, so a run's seeds (and with them its simulated outputs)
  // do not depend on how loaded the host is. Only a host far slower than
  // nominal hits the ceiling, which the output then records.
  const auto solves = static_cast<std::size_t>(
      std::max(1.0, std::floor(seconds / w.nominal_solve_s)));
  const double ceiling_s = 1.5 * seconds;

  // setup_s is the median of stand-alone set-ups, made in batches before
  // each solve and after the last. A set-up inside a solve is timed too but
  // only printed: one per solve is too few for a steady median.
  const double batch_s = kSetupSeconds / static_cast<double>(solves + 1);
  const auto sample_setups = [&] {
    const auto batch_start = Clock::now();
    do {
      setup.push_back(time_setup(w, solve_seed(seed, setup.size())));
    } while (seconds_since(batch_start) < batch_s);
  };

  for (std::size_t i = 0; i < solves; ++i) {
    if (i > 0 && seconds_since(start) > ceiling_s) {
      // The `solves` metric records the shortfall too.
      std::printf("wall ceiling: %.0f s passed, stopped after %zu of %zu solves\n",
                  ceiling_s, i, solves);
      break;
    }
    sample_setups();
    const SolveResult r = solve(w, solve_seed(seed, i), nullptr);
    print_solve(w, r, "plain");
    ++out.attempted;
    if (!r.ok()) {
      ++out.failed;
    } else {
      tts.push_back(r.tts);
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
    }
  }
  sample_setups();

  out.report.add("tts_sim_s", median(tts), "s");
  out.report.add("wall_s", median(wall), "s");
  out.report.add("setup_s", median(setup), "s");
  out.report.add("cpu_s", median(cpu), "s");
  out.report.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.report.add("solves", static_cast<double>(out.attempted), "count");
  out.report.add("setups", static_cast<double>(setup.size()), "count");
  out.report.add("fail_ratio",
                 static_cast<double>(out.failed) /
                     static_cast<double>(out.attempted),
                 "ratio");
  return out;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------------

struct TaskTotals {
  double seconds[static_cast<int>(Call::kCount)] = {};
  std::uint64_t calls[static_cast<int>(Call::kCount)] = {};
  double self_s = 0.0;
  jacepp::SampleSet iterate_us;
  double flops = 0.0;
  std::uint64_t state_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t outgoing_messages = 0;
};

TaskTotals totals_of(const std::vector<std::shared_ptr<TaskLog>>& logs) {
  TaskTotals t;
  for (const auto& log : logs) {
    for (const Span& s : log->spans) {
      const double d = s.end_s - s.start_s;
      const int c = static_cast<int>(s.call);
      t.seconds[c] += d;
      ++t.calls[c];
      t.self_s += d;
      if (s.call == Call::Iterate) t.iterate_us.add(d * 1e6);
    }
    t.flops += log->flops / log->work_scale;
    t.state_bytes += log->state_bytes;
    t.checkpoints += log->checkpoints;
    t.outgoing_messages += log->outgoing_messages;
  }
  return t;
}

/// Spans as CSV (call, task, start_us, end_us), written after the solve.
void write_spans(const std::string& path,
                 const std::vector<std::shared_ptr<TaskLog>>& logs) {
  std::ofstream f(path);
  if (!f) return;
  f << "call,task,start_us,end_us\n";
  f.setf(std::ios::fixed);
  f.precision(1);
  for (const auto& log : logs) {
    for (const Span& s : log->spans) {
      f << call_name(s.call) << ',' << s.task << ',' << s.start_s * 1e6 << ','
        << s.end_s * 1e6 << '\n';
    }
  }
}

RunOutcome run_traced(const Workload& w, std::uint64_t seed,
                      const std::string& spans_path) {
  RunOutcome out;
  // Plain, traced, traced, plain: the order cancels a linear drift of the
  // host's speed out of trace_overhead_ratio. The layer split comes from the
  // second traced solve.
  const SolveResult plain = solve(w, seed, nullptr);
  print_solve(w, plain, "plain");
  const SolveResult traced_first = [&] {
    TraceSession first;
    return solve(w, seed, &first);
  }();
  print_solve(w, traced_first, "traced");
  TraceSession session;
  const SolveResult traced = solve(w, seed, &session);
  print_solve(w, traced, "traced");
  const SolveResult plain_last = solve(w, seed, nullptr);
  print_solve(w, plain_last, "plain");
  const auto logs = session.logs();
  if (!spans_path.empty()) write_spans(spans_path, logs);

  for (const SolveResult* r : {&plain, &traced_first, &traced, &plain_last}) {
    ++out.attempted;
    if (!r->ok()) ++out.failed;
    if (w.simulated && r->digest() != plain.digest()) out.correct = false;
  }
  if (!out.correct) {
    out.notes.push_back("same-seed solves differ in their simulated outputs");
  }

  const auto app = w.simulated ? sim_config(w, seed).app : rt_config(w, seed).app;
  const TaskTotals t = totals_of(logs);
  const auto idx = [](Call c) { return static_cast<int>(c); };
  const double tasks = static_cast<double>(app.task_count);

  // --- Layer replays on captured inputs ---
  const CheckpointReplay ck = replay_checkpoint(logs, app, 0.3);
  if (!ck.frames_valid) {
    out.correct = false;
    out.notes.push_back("a replayed checkpoint frame failed to decode");
  }
  std::map<jacepp::net::MessageType, std::pair<double, double>> msg_counts;
  if (w.simulated) {
    for (const auto& [type, n] : traced.net.sent_by_type) {
      msg_counts[type].first = static_cast<double>(n);
    }
    for (const auto& [type, n] : traced.net.delivered_by_type) {
      msg_counts[type].second = static_cast<double>(n);
    }
  } else {
    // The threaded runtime keeps no per-type counts; the data plane is
    // counted at the Task boundary (control messages stay unattributed).
    const double data = static_cast<double>(t.outgoing_messages);
    const double saves = static_cast<double>(t.checkpoints);
    msg_counts[msg::TaskData::kType] = {data, data};
    msg_counts[msg::SaveBackup::kType] = {saves, saves};
  }
  std::vector<jacepp::net::MessageType> types;
  for (const auto& [type, counts] : msg_counts) types.push_back(type);
  const auto codec = replay_messages(types, logs, ck, app, 0.02);
  double msg_est_s = 0.0;
  for (const auto& [type, counts] : msg_counts) {
    const auto it = codec.find(type);
    if (it == codec.end()) continue;
    msg_est_s += (counts.first * it->second.serialize_us +
                  counts.second * it->second.deserialize_us) * 1e-6;
  }
  const LinalgReplay la =
      replay_linalg(logs, w.poisson.n, w.poisson.inner_tolerance, 0.2);

  // Frames the run decoded: BackupStore::store_frame decodes each delivered
  // SaveBackup, materialize() each stored delta of a fetched chain. The
  // threaded runtime loses nothing without a crash and keeps no per-type
  // counts: every checkpoint is one SaveBackup, every restore one fetch.
  const double saves_decoded =
      w.simulated
          ? static_cast<double>(delivered_of(traced.net, msg::SaveBackup::kType))
          : static_cast<double>(t.checkpoints);
  const double fetches =
      w.simulated
          ? static_cast<double>(delivered_of(traced.net, msg::FetchBackup::kType))
          : static_cast<double>(t.calls[idx(Call::Restore)]);
  const double decodes = saves_decoded + fetches * ck.chain_deltas_mean;
  const double checkpoint_est_s =
      (ck.emit_us * static_cast<double>(t.checkpoints) + ck.decode_us * decodes) *
      1e-6;

  // The split must add up to the traced wall time. On the simulator every
  // layer runs on the one event-loop thread; on the threaded runtime the
  // Task, codec and message work is spread over one thread per task, so the
  // terms are per task thread.
  const double per = w.simulated ? 1.0 : 1.0 / tasks;
  const double task_self = t.self_s * per;
  const double ck_share = checkpoint_est_s * per;
  const double msg_share = msg_est_s * per;
  const double unattributed = traced.wall_s - task_self - ck_share - msg_share;
  std::printf(
      "layer split: poisson.self_s %.4f + checkpoint.est_s %.4f + msg.est_s "
      "%.4f + core.unattributed_s %.4f = trace.wall_s %.4f s%s\n",
      task_self, ck_share, msg_share, unattributed, traced.wall_s,
      w.simulated ? "" : " (per task thread)");

  auto& m = out.report;
  m.add("trace.wall_s", traced.wall_s, "s");
  m.add("trace_overhead_ratio",
        (traced_first.wall_s + traced.wall_s) / (plain.wall_s + plain_last.wall_s),
        "ratio");
  m.add("poisson.self_s", task_self, "s");
  m.add("poisson.iterate_s", t.seconds[idx(Call::Iterate)], "s");
  m.add("poisson.iterate_calls", static_cast<double>(t.calls[idx(Call::Iterate)]), "count");
  jacepp::SampleSet iter = t.iterate_us;
  m.add("poisson.iterate_us_p50", iter.count() ? iter.percentile(50) : 0.0, "us");
  m.add("poisson.iterate_us_p99", iter.count() ? iter.percentile(99) : 0.0, "us");
  m.add("poisson.flops", t.flops, "flop");
  m.add("poisson.halo_s",
        t.seconds[idx(Call::Outgoing)] + t.seconds[idx(Call::OnData)], "s");
  m.add("poisson.state_s",
        t.seconds[idx(Call::Checkpoint)] + t.seconds[idx(Call::Restore)] +
            t.seconds[idx(Call::DirtyRanges)],
        "s");
  m.add("poisson.checkpoint_calls", static_cast<double>(t.checkpoints), "count");
  m.add("poisson.restore_calls", static_cast<double>(t.calls[idx(Call::Restore)]), "count");
  m.add("poisson.state_bytes_mean",
        t.checkpoints ? static_cast<double>(t.state_bytes) /
                            static_cast<double>(t.checkpoints)
                      : 0.0,
        "B");
  m.add("linalg.cg_us_per_solve", la.cg_us_per_solve, "us");
  m.add("linalg.cg_iterations", la.cg_iterations, "count");
  m.add("linalg.spmv_bytes_per_s", la.spmv_bytes_per_s, "B/s");
  m.add("checkpoint.emit_us", ck.emit_us, "us");
  m.add("checkpoint.decode_us", ck.decode_us, "us");
  m.add("checkpoint.est_s", ck_share, "s");
  m.add("checkpoint.frame_bytes_mean", ck.frame_bytes_mean, "B");
  m.add("checkpoint.delta_ratio", ck.delta_ratio, "ratio");
  m.add("msg.est_s", msg_share, "s");
  const double pool_total =
      static_cast<double>(traced.pool_reuses + traced.pool_misses);
  m.add("serial.pool_reuse_ratio",
        pool_total > 0 ? static_cast<double>(traced.pool_reuses) / pool_total : 0.0,
        "ratio");
  m.add("net.sent", static_cast<double>(traced.net.sent), "count");
  m.add("net.delivered", static_cast<double>(traced.net.delivered), "count");
  m.add("net.lost", static_cast<double>(traced.net.lost()), "count");
  m.add("net.bytes_sent", static_cast<double>(traced.net.bytes_sent), "B");
  m.add("net.sent.TaskData",
        static_cast<double>(sent_of(traced.net, msg::TaskData::kType)), "count");
  m.add("net.sent.SaveBackup",
        static_cast<double>(sent_of(traced.net, msg::SaveBackup::kType)), "count");
  m.add("net.sent.Heartbeat",
        static_cast<double>(sent_of(traced.net, msg::Heartbeat::kType)), "count");
  m.add("sim.events", static_cast<double>(traced.events), "count");
  m.add("sim.wall_us_per_event",
        traced.events ? traced.wall_s * 1e6 / static_cast<double>(traced.events) : 0.0,
        "us");
  m.add("core.framework_s", traced.wall_s - task_self, "s");
  m.add("core.unattributed_s", unattributed, "s");
  const auto inits = t.calls[idx(Call::Init)];
  const auto restores = t.calls[idx(Call::Restore)];
  const auto replaced = inits > app.task_count ? inits - app.task_count : 0;
  m.add("core.failures_detected",
        static_cast<double>(traced.report.failures_detected), "count");
  m.add("core.replacements", static_cast<double>(traced.report.replacements), "count");
  m.add("core.restores_from_backup",
        static_cast<double>(w.simulated ? traced.restores_from_backup : restores),
        "count");
  m.add("core.restarts_from_zero",
        static_cast<double>(w.simulated ? traced.restarts_from_zero
                                        : (replaced > restores ? replaced - restores : 0)),
        "count");
  double iters = 0.0, informative = 0.0;
  for (auto v : traced.report.final_iterations) iters += static_cast<double>(v);
  for (auto v : traced.report.final_informative_iterations) {
    informative += static_cast<double>(v);
  }
  m.add("asynciter.iterations_mean", traced.report.mean_iteration(), "count");
  m.add("asynciter.informative_ratio", iters > 0 ? informative / iters : 0.0, "ratio");
  m.add("rt.sent", static_cast<double>(traced.rt_sent), "count");
  m.add("rt.delivered", static_cast<double>(traced.rt_delivered), "count");
  m.add("rt.lost", static_cast<double>(traced.rt_lost), "count");
  m.add("rt.compute_busy_ratio",
        w.simulated ? 0.0 : t.self_s / (tasks * traced.wall_s), "ratio");
  return out;
}

std::string provenance_json(const Workload& w, std::uint64_t seed,
                            const std::string& git_sha,
                            const std::string& source_sha,
                            const std::string& build_type) {
  namespace simd = jacepp::linalg::simd;
  std::ostringstream o;
  const char* threads_env = std::getenv("JACEPP_THREADS");
  o << "{\"git_sha\":\"" << git_sha << "\",\"source_sha256\":\"" << source_sha
    << "\",\"build_type\":\"" << build_type
    << "\",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"simd_detected\":\"" << simd::level_name(simd::detected_level())
    << "\",\"simd_active\":\"" << simd::level_name(simd::active_level())
    << "\",\"JACEPP_THREADS\":\"" << (threads_env ? threads_env : "")
    << "\",\"compute_threads\":" << jacepp::configured_compute_threads()
    << ",\"seed\":" << seed << ",\"config\":" << config_json(w, seed) << "}";
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  jacepp::FlagSet flags("jacepp_perfbench",
                        "Time-to-solution benchmark with a traced per-layer run");
  auto workload_name = flags.add_string("workload", "", "fig7-d0 | fig7-d50 | rt-poisson");
  auto seed = flags.add_uint("seed", 1042, "workload seed");
  auto seconds = flags.add_double("seconds", 30.0, "measurement budget (plain runs)");
  auto trace = flags.add_int("trace", 0, "0 = end-to-end metrics, 1 = per-layer");
  auto out_dir = flags.add_string("out-dir", "", "directory for result files");
  auto git_sha = flags.add_string("git-sha", "unknown", "provenance: commit");
  auto source_sha = flags.add_string("source-sha", "unknown", "provenance: source digest");
  auto build_type = flags.add_string("build-type", "unknown", "provenance: build type");
  auto describe = flags.add_bool("describe", false,
                                 "print the workload's effective config and exit");
  flags.parse(argc, argv);

  const auto w = find_workload(*workload_name);
  if (!w || (*trace != 0 && *trace != 1) || !(*seconds > 0.0)) {
    std::fprintf(stderr, "jacepp_perfbench: bad arguments\n%s",
                 flags.usage().c_str());
    return 2;
  }
  if (*describe) {
    std::printf("%s\n", config_json(*w, *seed).c_str());
    return 0;
  }

  const std::string provenance =
      provenance_json(*w, *seed, *git_sha, *source_sha, *build_type);
  std::printf("provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  const std::string stem = *out_dir + "/" + w->name + "-seed" +
                           std::to_string(*seed) + "-trace" +
                           std::to_string(*trace);
  // One spans file per workload, overwritten by its next traced run.
  const std::string spans =
      out_dir->empty() ? "" : *out_dir + "/" + w->name + ".spans.csv";
  RunOutcome out = *trace == 0 ? run_plain(*w, *seed, *seconds)
                               : run_traced(*w, *seed, spans);

  std::printf("%s trace=%lld metrics:\n", w->name.c_str(),
              static_cast<long long>(*trace));
  out.report.print_table();
  for (const auto& note : out.notes) std::printf("check failed: %s\n", note.c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (out.correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
         << ", \"metrics\": " << out.report.json() << "}";
  if (!out_dir->empty()) {
    std::ofstream f(stem + ".json");
    f << "{\"provenance\": " << provenance << ", \"result\": " << result.str()
      << "}\n";
  }
  std::printf("%s\n", result.str().c_str());
  return 0;
}
