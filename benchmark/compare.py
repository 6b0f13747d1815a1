#!/usr/bin/env python3
"""Compares two sets of benchmark runs, parent against change. Stdlib only.

  python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced run reports run.py leaves under --out
(`<workload>-seed<N>.json`); traced reports and trace files are skipped.
For every workload found on both sides and every end-to-end metric of
BENCHMARK.json it prints one row: each side's median and quartiles, the
share of pairs the change won (runs paired in seed order, ties count for
neither side) and a verdict:

  regression   the change's median is worse than the parent's by more
               than the metric's bound;
  gain         the change won at least 90% of the pairs and its median is
               better by more than the parent's interquartile range;
  unresolved   either side's interquartile range, as a share of its
               median, is wider than the bound, and not every change run
               beats every parent run;
  unchanged    otherwise.

Simulated invariants (total cycles of the verification set, the design
frontier, ...) depend only on the workload and seed, so runs of the same
seed must report them identically on both sides; a difference is listed.

Exit status: 0, or 1 when a row is a regression, a run was incorrect or
an invariant changed.
"""

import argparse
import glob
import json
import os
import statistics
import sys

GAIN_PAIR_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def load_runs(directory):
    """Untraced, non-smoke run reports by workload, each list in seed order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            report = json.load(f)
        if report.get("traced") or report.get("smoke") or \
                "workload" not in report:
            continue
        runs.setdefault(report["workload"], []).append(report)
    for reports in runs.values():
        reports.sort(key=lambda r: r["seed"])
    return runs


def verdict(parent, change, better, bound):
    """Returns (verdict, share of pairs won) for one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    improvement = sign * (c_med - p_med)
    if -improvement > bound * abs(p_med):
        return "regression", won
    if won >= GAIN_PAIR_SHARE and improvement > p_q3 - p_q1:
        return "gain", won
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    every_run_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread > bound and not every_run_better:
        return "unresolved", won
    return "unchanged", won


def compare(parent_runs, change_runs, spec):
    """Rows of the comparison table and whether any row is a regression."""
    rows = []
    regressed = False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        for m in spec["end_to_end"]:
            name = m["name"]
            parent = [r["metrics"][name]["value"] for r in parent_runs[workload]]
            change = [r["metrics"][name]["value"] for r in change_runs[workload]]
            result, won = verdict(parent, change, m["better"], m["bound"])
            regressed = regressed or result == "regression"
            rows.append((workload, name, m["unit"], quartiles(parent),
                         quartiles(change), won, len(parent), len(change),
                         result))
    return rows, regressed


def changed_invariants(parent_runs, change_runs):
    """(workload, seed, name) of every invariant that differs by seed."""
    changed = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent = {r["seed"]: r["invariants"] for r in parent_runs[workload]}
        for r in change_runs[workload]:
            before = parent.get(r["seed"])
            if before is None:
                continue
            for name in sorted(set(before) | set(r["invariants"])):
                if before.get(name) != r["invariants"].get(name):
                    changed.append((workload, r["seed"], name))
    return changed


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec",
                        default=os.path.join(os.path.dirname(here),
                                             "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    incorrect = [(side, r["workload"], r["seed"])
                 for side, runs in (("parent", parent_runs),
                                    ("change", change_runs))
                 for reports in runs.values() for r in reports
                 if not r["correct"]]
    rows, regressed = compare(parent_runs, change_runs, spec)
    if not rows:
        print("compare.py: no workload has runs on both sides",
              file=sys.stderr)
        return 1
    print("| workload | metric | unit | parent median [q1, q3] | "
          "change median [q1, q3] | pairs won | runs | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, name, unit, p, c, won, n_p, n_c, result in rows:
        print("| %s | %s | %s | %s | %s | %.0f%% | %d / %d | %s |" %
              (workload, name, unit, fmt(p), fmt(c), 100 * won, n_p, n_c,
               result))
    for side, workload, seed in incorrect:
        print("incorrect run: %s %s seed %d" % (side, workload, seed))
    changed = changed_invariants(parent_runs, change_runs)
    for workload, seed, name in changed:
        print("invariant changed: %s seed %d %s" % (workload, seed, name))
    return 1 if regressed or incorrect or changed else 0


if __name__ == "__main__":
    sys.exit(main())
