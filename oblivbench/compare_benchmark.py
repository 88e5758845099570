#!/usr/bin/env python3
"""Summarizes and compares benchmark passes (stdlib only).

A result directory holds one file per run: the driver's standard output,
as written by `run.py --pass DIR`.  The driver's summary line names the
workload; its last line carries the metrics.

    compare_benchmark.py spread DIR [--json [--note TEXT]]
        Per workload and metric: run count, median, quartiles, the spread
        (q3 - q1) / median and the range (max - min) / median, next to the
        metric's bound.  --json prints the same as one JSON document, with
        TEXT saying how the runs were made (the committed baseline is this
        output).

    compare_benchmark.py compare PARENT_DIR CHANGE_DIR
        One row per workload x metric: each side's median and quartiles,
        and a verdict.  Runs are paired in seed order, so make each pair
        from one seed and alternate which side runs first.

Verdicts, per BENCHMARK.json's direction and bound for each metric:

    improved       the change wins at least 9 of 10 pairs (ties count for
                   neither side) and the medians differ by more than the
                   parent's own quartile spread;
    regressed      the change's median is worse than the parent's by more
                   than the bound;
    unresolved     the run-to-run spread of either side is wider than the
                   bound, and not every change run beats every parent run;
    within bound   otherwise.

Quartiles are statistics.quantiles(values, n=4).  Exit status is 1 when
any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

MANIFEST = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def load_manifest():
    with open(MANIFEST) as f:
        manifest = json.load(f)
    specs = {}
    for kind in ("end_to_end", "per_layer"):
        for m in manifest[kind]:
            specs[m["name"]] = dict(m, kind=kind)
    return manifest, specs


def load_runs(directory):
    """Returns {workload: [(seed, {metric: value}, env)]}, seed-ordered."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        summary, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                record = json.loads(line)
                if "workload" in record:
                    summary = record
                result = record
        if summary is None or result is None or "metrics" not in result:
            print(f"skipping {path}: no result line", file=sys.stderr)
            continue
        if not result["correct"]:
            print(f"warning: {path}: outputs were not correct",
                  file=sys.stderr)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(summary["workload"], []).append(
            (summary["seed"], metrics, summary.get("env", {})))
    for entries in runs.values():
        entries.sort(key=lambda e: e[0])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(values):
    q1, median, q3 = quartiles(values)
    scale = abs(median) if median else 1.0
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / scale,
            "range": (max(values) - min(values)) / scale}


def ordered_metrics(runs, specs):
    present = {m for entries in runs.values() for _, ms, _ in entries
               for m in ms}
    return [m for m in specs if m in present]


def spread_command(args):
    manifest, specs = load_manifest()
    runs = load_runs(args.dir)
    report = {"note": args.note,
              "env": next((e for entries in runs.values()
                           for _, _, e in entries), {}),
              "workloads": {}}
    rows = []
    for workload in (w["name"] for w in manifest["workloads"]):
        if workload not in runs:
            continue
        report["workloads"][workload] = {}
        for metric in ordered_metrics({workload: runs[workload]}, specs):
            values = [ms[metric] for _, ms, _ in runs[workload]
                      if metric in ms]
            s = summarize(values)
            report["workloads"][workload][metric] = s
            bound = specs[metric].get("bound")
            if bound is None:
                flag = ""
            elif s["spread"] > bound:
                flag = "OVER BOUND"
            elif s["spread"] > bound / 3:
                flag = "over bound/3"
            else:
                flag = "ok"
            rows.append((workload, metric, s, bound, flag))
    if args.json:
        json.dump(report, sys.stdout, indent=1, sort_keys=False)
        print()
        return 0
    print(f"{'workload':<14} {'metric':<28} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'range':>7} {'bound':>6}")
    for workload, metric, s, bound, flag in rows:
        bound_text = f"{bound:.3f}" if bound is not None else "-"
        print(f"{workload:<14} {metric:<28} {s['runs']:>3} "
              f"{s['median']:>12.4f} {s['q1']:>12.4f} {s['q3']:>12.4f} "
              f"{s['spread']:>7.3f} {s['range']:>7.3f} {bound_text:>6} "
              f"{flag}")
    return 0


def verdict(parent, change, spec):
    lower = spec["better"] == "lower"
    bound = spec.get("bound")

    def better(a, b):
        return a < b if lower else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    p, c = summarize(parent), summarize(change)
    parent_iqr = p["q3"] - p["q1"]
    if (pairs and wins >= 0.9 * len(pairs) and better(c["median"], p["median"])
            and abs(c["median"] - p["median"]) > parent_iqr):
        return "improved", wins, len(pairs)
    if bound is None:
        return "no bound", wins, len(pairs)
    worse = (c["median"] - p["median"]) / abs(p["median"]) if p["median"] \
        else 0.0
    if not lower:
        worse = -worse
    all_better = all(better(x, y) for x in change for y in parent)
    if max(p["spread"], c["spread"]) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if worse > bound:
        return "regressed", wins, len(pairs)
    return "within bound", wins, len(pairs)


def compare_command(args):
    manifest, specs = load_manifest()
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    regressed = False
    print(f"{'workload':<14} {'metric':<28} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'delta':>8} {'wins':>6}  verdict")
    for workload in (w["name"] for w in manifest["workloads"]):
        if workload not in parent_runs or workload not in change_runs:
            continue
        both = {workload: parent_runs[workload] + change_runs[workload]}
        for metric in ordered_metrics(both, specs):
            parent = [ms[metric] for _, ms, _ in parent_runs[workload]
                      if metric in ms]
            change = [ms[metric] for _, ms, _ in change_runs[workload]
                      if metric in ms]
            if not parent or not change:
                continue
            p, c = summarize(parent), summarize(change)
            result, wins, pairs = verdict(parent, change, specs[metric])
            regressed = regressed or result == "regressed"
            delta = (c["median"] - p["median"]) / abs(p["median"]) \
                if p["median"] else 0.0

            def cell(s):
                return (f"{s['median']:.4g} [{s['q1']:.4g}, "
                        f"{s['q3']:.4g}]")
            print(f"{workload:<14} {metric:<28} {cell(p):>36} {cell(c):>36} "
                  f"{100 * delta:>7.2f}% {wins:>3}/{pairs:<2}  {result}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    spread = sub.add_parser("spread")
    spread.add_argument("dir")
    spread.add_argument("--json", action="store_true")
    spread.add_argument("--note", default="")
    compare = sub.add_parser("compare")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args()
    if args.command == "spread":
        return spread_command(args)
    return compare_command(args)


if __name__ == "__main__":
    sys.exit(main())
