#!/usr/bin/env python3
"""Builds the benchmark from source and runs its workloads. Stdlib only.

One workload, as BENCHMARK.json's command runs it:

  python3 benchmark/run.py --workload fleet-small --seed 1 --seconds 10 --trace 0

Every workload, each in its own process so peak RSS is per workload:

  python3 benchmark/run.py --seed 1             # end-to-end metrics
  python3 benchmark/run.py --seed 1 --trace 1   # + traced rerun, per-layer
                                                #   metrics, tracing overhead

The first call configures and builds `build-bench/` (Release, vectorised
MAC kernel); later calls rebuild only what changed. Each run prints one
`workload metric value unit` line per metric. A single-workload call ends
with one JSON line {"correct", "attempted", "failed", "metrics"} holding
the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
Run reports and traces are kept under --out for benchmark/compare.py.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the program could not be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "chainnn_bench")
# A run measures for --seconds plus warm-ups, set-ups and checks; the
# slowest traced workload takes about three times --seconds.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds; build output goes to stderr."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no chainnn sources at " + os.path.join(ROOT, needed))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "chainnn_bench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, traced, out_dir):
    """Runs the binary once; returns its report (a dict) and exit code."""
    stem = os.path.join(out_dir, "%s-seed%d%s" %
                        (workload, seed, "-traced" if traced else ""))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--json", stem + ".json",
           "--workdir", os.path.join(out_dir, "work"), "--spec", SPEC]
    if traced:
        cmd += ["--trace", stem + ".trace.json"]
    if os.path.exists(stem + ".json"):
        os.remove(stem + ".json")
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if code not in (0, 1) or not os.path.exists(stem + ".json"):
        fail("%s exited %d without a report" % (workload, code))
    with open(stem + ".json") as f:
        return json.load(f), code


def pick(report, section):
    """Value and unit of each metric of one section of the report. The
    binary reports exactly the metrics BENCHMARK.json names."""
    return {name: {"value": m["value"], "unit": m["unit"]}
            for name, m in report[section].items()}


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print("%s %s %.6g %s" % (workload, name, m["value"], m["unit"]))


def print_checks(report):
    for f in report["failed_checks"]:
        print("%s FAILED CHECK %s: %s" %
              (report["workload"], f["check"], f["detail"]), file=sys.stderr)
    for w in report["warnings"]:
        print("%s WARNING %s" % (report["workload"], w), file=sys.stderr)


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(BUILD, "runs"),
                        help="directory for run reports and traces")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    build()
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)

    if args.workload:
        report, code = run_once(args.workload, args.seed, args.seconds,
                                args.trace == 1, out_dir)
        metrics = pick(report, "per_layer" if args.trace else "metrics")
        print_metrics(args.workload, metrics)
        print_checks(report)
        print(json.dumps({"correct": report["correct"],
                          "attempted": report["attempted"],
                          "failed": report["failed"],
                          "metrics": metrics}))
        return 0 if code == 0 and report["correct"] else 1

    status = 0
    for workload in workloads:
        plain, code = run_once(workload, args.seed, args.seconds, False,
                               out_dir)
        print_metrics(workload, pick(plain, "metrics"))
        print("%s failed_share %.6g fraction" %
              (workload, plain["failed"] / max(1, plain["attempted"])))
        print_checks(plain)
        status = max(status, 0 if code == 0 and plain["correct"] else 1)
        if not args.trace:
            continue
        traced, code = run_once(workload, args.seed, args.seconds, True,
                                out_dir)
        print_metrics(workload, pick(traced, "per_layer"))
        # Tracing overhead: the traced run's end-to-end figures against the
        # untraced run of the same seed, as a share of the untraced value.
        for m in spec["end_to_end"]:
            base = plain["metrics"][m["name"]]["value"]
            with_trace = traced["metrics"][m["name"]]["value"]
            print("%s tracing_overhead.%s %+.4f share" %
                  (workload, m["name"], (with_trace - base) / base))
        print_checks(traced)
        status = max(status, 0 if code == 0 and traced["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
