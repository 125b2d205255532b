#!/usr/bin/env bash
# Perf-regression guard: compare freshly written BENCH_*.json files against
# the committed baseline (git HEAD) and flag every lower-is-better metric that
# got more than BENCH_GUARD_TOL (default 30%) worse.
#
# Default mode is warn-only (always exits 0) because bench numbers move with
# the machine; the point is to make a perf cliff visible in the run log.
# BENCH_GUARD_STRICT=1 makes violations FAIL (non-zero exit) — used by the CI
# release job.
#
# Two kinds of checks:
#  1. Baseline timings — fresh lower-is-better numbers vs the committed
#     BENCH_*.json at git HEAD. Only meaningful when the fresh run used the
#     same machine class and bench scale as the committed one, so strict CI
#     runs (different runner, --smoke scale) skip them via
#     BENCH_GUARD_SKIP_BASELINE=1.
#  2. SIMD speedup floors — the off-vs-on ratios inside BENCH_hotpath.json
#     are measured within one run on one machine, so they are portable across
#     machines. On an AVX2 machine the BLAS-1 reductions must clear 1.5x and
#     the SELL SpMV (against the scalar CSR rows) 1.2x. Floors only apply when
#     the runtime dispatcher actually selected avx2.
#  3. Sharded-scheduler floor — inside BENCH_scale.json, best sharded
#     events/sec at the 1k-daemon tier vs single-queue, measured within one
#     run. The floor is 1.0x with the guard tolerance applied (passes while
#     ratio >= 1 - BENCH_GUARD_TOL): on a 1-core runner sharding is
#     parity-at-best (smaller heaps vs round overhead) and the measured ratio
#     hovers around 1.0 with scheduler noise, so this is a cliff detector for
#     bugs like an accidentally serializing round barrier, not a speedup
#     target. The real speedup lives at the 10k tier (see EXPERIMENTS.md).
#
# The other within-run floors in BENCH_scale.json (control plane, churn /
# voting, skew rebalance, adaptive lookahead) are not re-checked here:
# bench_scale itself exits non-zero when any of them fails.
#
# Usage: scripts/bench_guard.sh BENCH_micro.json [BENCH_hotpath.json ...]
#        BENCH_GUARD_STRICT=1 BENCH_GUARD_SKIP_BASELINE=1 scripts/bench_guard.sh BENCH_hotpath.json
set -uo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
TOL="${BENCH_GUARD_TOL:-0.30}"
STRICT="${BENCH_GUARD_STRICT:-0}"
SKIP_BASELINE="${BENCH_GUARD_SKIP_BASELINE:-0}"

# Emit "metric value" lines for the lower-is-better timings of a bench file.
metrics_for() {
  local file="$1"
  case "$(basename "${file}")" in
    BENCH_micro.json)
      jq -r '
        ((.serial.benchmarks // [])[] | "serial/\(.name) \(.real_time)"),
        ((.parallel.benchmarks // [])[] | "parallel/\(.name) \(.real_time)")
      ' "${file}" ;;
    BENCH_checkpoint.json)
      jq -r '(.benchmarks // [])[] | "\(.name) \(.real_time)"' "${file}" ;;
    BENCH_comm.json)
      jq -r '
        ((.slow_consumer.runs // {}) | to_entries[]
          | "slow/\(.key)/exec_s \(.value.execution_time_s)"),
        ((.flaky_consumer.runs // {}) | to_entries[]
          | "flaky/\(.key)/exec_s \(.value.execution_time_s)")
      ' "${file}" ;;
    BENCH_hotpath.json)
      jq -r '
        ((.fused.kernels // {}) | to_entries[]
          | "fused/\(.key)_ns \(.value.fused_ns)"),
        "fused/cg_ms \(.fused.cg.fused_ms)",
        ((.early_send.runs // {}) | to_entries[]
          | "early/\(.key)/exec_s \(.value.execution_time_s)"),
        "pool/encode_ns \(.pool.encode.pooled_ns)"
      ' "${file}" ;;
    BENCH_scale.json)
      jq -r '
        ((.cases // [])[] | "scale/d\(.daemons)/s\(.shards)/wall_s \(.wall_s)"),
        ((.cases // [])[] | "scale/d\(.daemons)/s\(.shards)/rounds \(.rounds)"),
        ((.skew_cases // [])[]
          | "skew/rebalance_\(.rebalance)/t\(.worker_threads)/rounds \(.rounds)")
      ' "${file}" ;;
    *) ;;
  esac
}

# SIMD speedup floors (see header). Emits one "FLOOR ..." line per violation.
simd_floor_checks() {
  local file="$1"
  jq -r '
    (.simd // empty) |
    select(.level_detected == "avx2") |
    [
      {metric: "simd/dot",                 value: (.kernels.dot.off_ns / .kernels.dot.on_ns),                                 floor: 1.5},
      {metric: "simd/axpy_norm2",          value: (.kernels.axpy_norm2.off_ns / .kernels.axpy_norm2.on_ns),                   floor: 1.5},
      {metric: "simd/sell_spmv",           value: .sell.speedup,                                                              floor: 1.2}
    ][] |
    select(.value < .floor) |
    "bench-guard: FLOOR \(.metric): \(.value * 1000 | floor / 1000)x below floor \(.floor)x"
  ' "${file}" 2>/dev/null
}

# Sharded-scheduler floor (see header, check 3). Within-run ratio, so it is
# machine-portable; tolerance-adjusted because the 1k tier sits at parity.
scale_floor_checks() {
  local file="$1"
  jq -r --argjson tol "${TOL}" '
    (.floor // empty) |
    select(.single_eps > 0) |
    select(.ratio < 1.0 - $tol) |
    "bench-guard: FLOOR scale/sharded_vs_single@\(.daemons): \(.ratio)x below floor 1.0x (tolerance \($tol * 100 | floor)%)"
  ' "${file}" 2>/dev/null
}

total_warnings=0
for file in "$@"; do
  name="$(basename "${file}")"
  if [[ ! -f "${file}" ]]; then
    echo "bench-guard: ${name}: missing, skipped"
    continue
  fi

  if [[ "${name}" == "BENCH_hotpath.json" ]]; then
    floor_violations="$(simd_floor_checks "${file}")"
    if [[ -n "${floor_violations}" ]]; then
      echo "${floor_violations}"
      total_warnings=$((total_warnings + $(echo "${floor_violations}" | wc -l)))
    else
      echo "bench-guard: ${name}: simd speedup floors hold"
    fi
  fi

  if [[ "${name}" == "BENCH_scale.json" ]]; then
    scale_violations="$(scale_floor_checks "${file}")"
    if [[ -n "${scale_violations}" ]]; then
      echo "${scale_violations}"
      total_warnings=$((total_warnings + $(echo "${scale_violations}" | wc -l)))
    else
      echo "bench-guard: ${name}: sharded throughput floor holds"
    fi
  fi

  if [[ "${SKIP_BASELINE}" == "1" ]]; then
    continue
  fi
  baseline="$(mktemp)"
  if ! git -C "${REPO_ROOT}" show "HEAD:${name}" > "${baseline}" 2>/dev/null; then
    echo "bench-guard: ${name}: no committed baseline, skipped"
    rm -f "${baseline}"
    continue
  fi

  fresh_metrics="$(metrics_for "${file}")"
  base_metrics="$(metrics_for "${baseline}")"
  rm -f "${baseline}"

  warnings="$(awk -v tol="${TOL}" -v file="${name}" '
    NR == FNR { base[$1] = $2; next }
    ($1 in base) && base[$1] > 0 && $2 > base[$1] * (1 + tol) {
      printf "bench-guard: WARNING %s %s: %.0f -> %.0f (+%.0f%%, tolerance %.0f%%)\n",
             file, $1, base[$1], $2, ($2 / base[$1] - 1) * 100, tol * 100
      n++
    }
    END { exit n > 0 ? 1 : 0 }
  ' <(echo "${base_metrics}") <(echo "${fresh_metrics}"))" && status=0 || status=1

  if [[ ${status} -ne 0 ]]; then
    echo "${warnings}"
    total_warnings=$((total_warnings + $(echo "${warnings}" | wc -l)))
  else
    echo "bench-guard: ${name}: within ${TOL} of committed baseline"
  fi
done

if [[ ${total_warnings} -gt 0 ]]; then
  if [[ "${STRICT}" == "1" ]]; then
    echo "bench-guard: FAIL — ${total_warnings} check(s) violated (BENCH_GUARD_STRICT=1)"
    exit 1
  fi
  echo "bench-guard: ${total_warnings} check(s) violated (warn-only, not failing)"
fi
exit 0
