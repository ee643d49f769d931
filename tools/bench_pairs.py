#!/usr/bin/env python3
"""Paired benchmark of two checkouts: alternating base/change runs per workload.

    python3 tools/bench_pairs.py --base DIR --change DIR --out BENCH_<pr>.json \\
        [--workloads NAME ...] [--pairs 10] [--seconds 20] [--seed 11]

Each checkout runs its own, unchanged ``perfbench/run.py --trace 0`` in a
fresh process.  Within a workload the runs come in pairs, and the side that
runs first alternates from pair to pair, so a drift of the host hits both
sides alike.  The output holds, per workload and side, the median and the
interquartile range of every end-to-end metric named in the change's
BENCHMARK.json, the per-pair values, the number of pairs the change won, and
the Python, numpy and scipy versions and the core count of the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``perfbench/run.py`` run; its metrics and failure counts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {k: m["value"] for k, m in last["metrics"].items()},
            "attempted": last["attempted"], "failed": last["failed"], "correct": last["correct"]}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
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
                **{side: {**quartiles(values[side]), "runs": values[side]} for side in SIDES},
                "change_won": sum(sign * (c - b) > 0.0 for b, c in zip(values["base"], values["change"])),
            }
        entry["failed"] = {side: [r["failed"] for r in runs[side]] for side in SIDES}
        entry["correct"] = {side: all(r["correct"] for r in runs[side]) for side in SIDES}
        report["workloads"][name] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # keep what finished
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
