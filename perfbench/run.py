#!/usr/bin/env python3
"""Build and run the jacepp time-to-solution benchmark.

One workload, as the benchmark contract runs it (from the repository root):

    python3 perfbench/run.py --workload fig7-d0 --seed 1042 --seconds 30 --trace 0

Every workload, plain and traced, in one command:

    python3 perfbench/run.py

The benchmark is built from source into .bench_build/ (CMake, Release) on
first use. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metrics are the end_to_end
(--trace 0) or per_layer (--trace 1) names of BENCHMARK.json. Per-run result
files, provenance and trace spans go to .bench_results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_results"
BINARY = BUILD / "jacepp_perfbench"
BUILD_TYPE = "Release"
TRACED_SOLVES = 4  # plain, traced, traced, plain of one seed


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_sha256():
    """Digest of the sources the benchmark builds: identifies the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    return json.loads(spec_path.read_text())


def nominal_solve_s(workload):
    """Host seconds jacepp_perfbench budgets for one solve of the workload."""
    done = subprocess.run([str(BINARY), "--workload", workload,
                           "--describe"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=60)
    if done.returncode != 0:
        fail(f"{workload}: could not read its configuration")
    return float(json.loads(done.stdout)["nominal_solve_s"])


def run_timeout_s(workload, seconds, trace):
    """Hang guard for one run. A plain run starts no solve after 1.5 x
    seconds and a solve may take three times its nominal time on a slow
    host; a traced run makes a fixed number of solves whatever --seconds
    says."""
    nominal = nominal_solve_s(workload)
    if trace:
        return TRACED_SOLVES * nominal * 3 + 60
    return 1.5 * seconds + nominal * 3 + 60


def run_one(workload, seed, seconds, trace, spec, provenance):
    RESULTS.mkdir(parents=True, exist_ok=True)
    timeout = run_timeout_s(workload, seconds, trace)
    env = dict(os.environ)
    env["JACEPP_THREADS"] = "1"  # serial kernels: every workload pins it
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--out-dir", str(RESULTS), "--git-sha", provenance["git_sha"],
           "--source-sha", provenance["source_sha256"],
           "--build-type", BUILD_TYPE]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:.0f} s")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        fail(f"{workload} printed no result")

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in result["metrics"]:
            fail(f"{workload} did not report {name}")
        metrics[name] = result["metrics"][name]
        if metrics[name]["unit"] != metric["unit"]:
            fail(f"{workload}: {name} has unit {metrics[name]['unit']}, "
                 f"BENCHMARK.json says {metric['unit']}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, plain and traced)")
    parser.add_argument("--seed", type=int, default=1042)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    provenance = {"git_sha": git_sha(), "source_sha256": source_sha256()}

    if args.workload is not None:
        result = run_one(args.workload, args.seed, args.seconds,
                         args.trace or 0, spec, provenance)
        print(json.dumps(result))
        return

    summary = {}
    traces = (0, 1) if args.trace is None else (args.trace,)
    for workload in names:
        for trace in traces:
            result = run_one(workload, args.seed, args.seconds, trace, spec,
                             provenance)
            summary[f"{workload}/trace{trace}"] = result
    print("\nsummary (median over the solves of each run):")
    for key, result in summary.items():
        print(f"  {key}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"    {name:32s} {m['value']:>20.6f} {m['unit']}")
    all_correct = all(r["correct"] and r["failed"] == 0
                      for r in summary.values())
    print(json.dumps({"correct": all_correct, "runs": summary}))
    if not all_correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
