#!/usr/bin/env python3
"""Paired benchmark of two checkouts: alternating base/change runs per workload.

    python3 tools/bench_pairs.py --base DIR --change DIR --out BENCH_<pr>.json \\
        [--workloads NAME ...] [--pairs 10] [--seconds 20] [--seed 11]
    python3 tools/bench_pairs.py --change DIR --record BENCH_<pr>_record.json \\
        [--workloads NAME ...] [--runs 5] [--seconds 20] [--seed 11]

Each checkout runs its own, unchanged ``perfbench/run.py --trace 0`` in a
fresh process.  Within a workload the runs come in pairs, and the side that
runs first alternates from pair to pair, so a drift of the host hits both
sides alike.  The output holds, per workload and side, the median and the
interquartile range of every end-to-end metric named in the change's
BENCHMARK.json, the per-pair values, the number of pairs the change won, and
the Python, numpy and scipy versions and the core count of the host.  It
also holds per side the host speed that ``run.py`` rescales op times by (the
``at host speed X`` of its ``# workload`` line).  Next to the pooled
metrics, ``item_median_ms`` holds per op key (``batch,n=1``, ``ryser,n=14``,
...) and side the median and IQR over the runs of each run's median op time,
from the ``# item median ms:`` line that ``run.py`` prints, so a pooled
``op_p50_ms`` can be traced to the ops that moved it.

``--record`` runs one checkout alone, ``--runs`` times per workload, and
writes a chained baseline that a later change is compared against: per
workload, the median, IQR and values of every end-to-end metric and of the
host speed, the same ``item_median_ms``, the failure counts, and the
versions and core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")
ITEM_LINE = "# item median ms: "
HOST_SPEED = re.compile(r"^# workload .* at host speed ([0-9.]+) ", re.MULTILINE)


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``perfbench/run.py`` run; its metrics, failure counts, host speed
    and median op time in ms per op key."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    items = next(line for line in lines if line.startswith(ITEM_LINE))[len(ITEM_LINE):]
    return {"metrics": {k: m["value"] for k, m in last["metrics"].items()},
            "items": {k: float(v) for k, v in (item.rsplit(" ", 1) for item in items.split(", "))},
            "host_speed": float(HOST_SPEED.search(proc.stdout).group(1)),
            "attempted": last["attempted"], "failed": last["failed"], "correct": last["correct"]}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(values: list[float]) -> dict:
    return {**quartiles(values), "runs": values}


def item_medians(runs: dict) -> dict:
    """Per op key and side, the quartiles and the values of the runs' median
    op times in ms."""
    per: dict = {}
    for side, side_runs in runs.items():
        for run in side_runs:
            for key, ms in run["items"].items():
                per.setdefault(key, {}).setdefault(side, []).append(ms)
    return {key: {side: summary(v) for side, v in sides.items()} for key, sides in per.items()}


def versions() -> dict:
    import numpy

    out = {"python": platform.python_version(), "numpy": numpy.__version__,
           "cores": len(os.sched_getaffinity(0))}
    try:
        import scipy
        out["scipy"] = scipy.__version__
    except ImportError:
        out["scipy"] = None
    return out


def record(checkout: Path, names: list[str], metrics: dict, args) -> None:
    """The chained baseline of one checkout: ``args.runs`` runs per workload."""
    report = {"env": versions(), "runs": args.runs, "seconds": args.seconds,
              "seed": args.seed, "workloads": {}}
    for name in names:
        runs = []
        for r in range(args.runs):
            runs.append(run_once(checkout, name, args.seconds, args.seed))
            print(f"{name} run {r + 1}/{args.runs}: ops_per_s {runs[-1]['metrics'].get('ops_per_s')}",
                  file=sys.stderr)
        entry = {metric: summary([run["metrics"][metric] for run in runs]) for metric in metrics}
        entry["host_speed"] = summary([run["host_speed"] for run in runs])
        entry["item_median_ms"] = {key: sides["change"] for key, sides in item_medians({"change": runs}).items()}
        entry["failed"] = [run["failed"] for run in runs]
        entry["correct"] = all(run["correct"] for run in runs)
        report["workloads"][name] = entry
        args.record.write_text(json.dumps(report, indent=1) + "\n")  # keep what finished


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--out", type=Path, help="the paired report, with --base")
    ap.add_argument("--record", type=Path, help="the chained baseline of --change alone")
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--runs", type=int, default=5, help="runs per workload of --record")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)
    if args.record is not None and args.base is not None:
        ap.error("--record runs --change alone: drop --base")
    if args.record is None and (args.base is None or args.out is None):
        ap.error("give --base and --out for a paired report, or --record for a baseline")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    if args.record is not None:
        record(args.change.resolve(), names, metrics, args)
        return 0
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    report = {"env": versions(), "pairs": args.pairs, "seconds": args.seconds,
              "seed": args.seed, "workloads": {}}
    for name in names:
        runs = {side: [] for side in SIDES}
        for p in range(args.pairs):
            for side in (SIDES if p % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(checkouts[side], name, args.seconds, args.seed))
            print(f"{name} pair {p + 1}/{args.pairs}: " + "  ".join(
                f"{side} ops_per_s {runs[side][-1]['metrics'].get('ops_per_s')}" for side in SIDES),
                file=sys.stderr)
        entry = {}
        for metric, better in metrics.items():
            values = {side: [r["metrics"][metric] for r in runs[side]] for side in SIDES}
            sign = 1.0 if better == "higher" else -1.0
            entry[metric] = {
                **{side: summary(values[side]) for side in SIDES},
                "change_won": sum(sign * (c - b) > 0.0 for b, c in zip(values["base"], values["change"])),
            }
        entry["host_speed"] = {side: summary([r["host_speed"] for r in runs[side]]) for side in SIDES}
        entry["item_median_ms"] = item_medians(runs)
        entry["failed"] = {side: [r["failed"] for r in runs[side]] for side in SIDES}
        entry["correct"] = {side: all(r["correct"] for r in runs[side]) for side in SIDES}
        report["workloads"][name] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # keep what finished
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
