#!/usr/bin/env python3
"""Solver-quality counts of one checkout: deterministic, with no timing.

    PYTHONPATH=src python3 tools/quality.py [--out QUALITY.json]

Prints (or writes) one JSON object with four reports, each a list of rows
and the counts read off them:

- ``probe``: |x|, exp(x), cos(5x) and sqrt(1 + x) at n = 2, 3, 4, 6 and 8,
  default options, each binned as ``certified``, ``alternance_hypothesis``
  (n + 1 sign-alternating extrema within ``certify_level_rtol`` of the
  level, but the poles fail the criterion's hypothesis) or
  ``no_alternance`` (fewer such extrema);
- ``monotonicity``: the degrees n = 2..32 where the error rises above the
  best error of a lower degree, E_n > min_{k<n} E_k (1 + 1e-12) +
  1e-15 max |f| (a degree-k fraction with n - k poles taken far away is of
  degree n, so the best error cannot rise), for the four probe targets,
  counted together, and for tanh(x), counted on its own: an odd target has
  no best fraction with poles off the closed disk at odd n;
- ``fixed_pole_unweighted``: f = 0 with the fixed pole a, n = 8, 10, 12,
  16 and 20, a = 2, 3 and 5; a row is ``far_pole`` where the error is the
  level 1/(a - 1) of the pole a alone, ``above_bracket`` where it lies
  above ``dvp_bracket``'s upper end (relative slack 1e-9), else ``inside``;
- ``fixed_pole_weighted``: f = 0 with the weight and the fixed pole a,
  n = 4, 6, 8, 12, 16 and 24, a = 2, 3 and 5, against the paper's closed
  form n/sqrt(T_n(a)^2 - 1); a row is ``far_pole`` where the error is the
  level 1/sqrt(a^2 - 1) of the pole a alone, ``within_1e-10`` where its
  relative excess over the closed form is at most 1e-10, else ``above``.

The package does not import this tool; ``tests/test_quality.py`` holds its
counts to floors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from simplefrac.config import DEFAULTS
from simplefrac.extremal import FixedPoleClass, dvp_bracket, extremal_weighted_norm
from simplefrac.minimax import (ApproxOptions, TargetFunction, _check_pole_hypotheses,
                                residual_alternance, solve_best_ld)

TARGETS = {"abs": np.abs, "exp": np.exp, "cos5x": lambda x: np.cos(5.0 * x),
           "sqrt1px": lambda x: np.sqrt(1.0 + x)}
PROBE_N = (2, 3, 4, 6, 8)
MONOTONE_N = 32
FIXED_POLE_A = (2.0, 3.0, 5.0)
UNWEIGHTED_N = (8, 10, 12, 16, 20)
WEIGHTED_N = (4, 6, 8, 12, 16, 24)
ZERO = TargetFunction(lambda x: np.zeros_like(np.asarray(x, dtype=float)), "zero")
# a level within this relative distance of the pole a's own is that level
FAR_RTOL = 1e-6


def _counts(rows, bins) -> dict:
    return {b: sum(r["bin"] == b for r in rows) for b in bins}


def probe() -> dict:
    rows = []
    for name, fn in TARGETS.items():
        f = TargetFunction(fn, name)
        for n in PROBE_N:
            res = solve_best_ld(f, n)
            rtol = DEFAULTS.certify_level_rtol
            if res.certified:
                kind = "certified"
            elif not residual_alternance(f, res.rho, n + 1, level_rtol=rtol).sign_pattern_ok:
                kind = "no_alternance"
            elif _check_pole_hypotheses(res.rho, DEFAULTS):
                kind = "alternance_hypothesis"
            else:
                raise AssertionError(f"{name} at n = {n}: uncertified, yet meets the criterion")
            rows.append({"target": name, "n": n, "error": res.error, "bin": kind})
    return {"rows": rows,
            "counts": _counts(rows, ("certified", "alternance_hypothesis", "no_alternance"))}


def monotonicity() -> dict:
    grid = np.linspace(-1.0, 1.0, 2001)
    rises = {}
    for name, fn in dict(TARGETS, tanh=np.tanh).items():
        f = TargetFunction(fn, name)
        slack = 1e-15 * float(np.max(np.abs(fn(grid))))
        best, rises[name] = solve_best_ld(f, 1).error, []
        for n in range(2, MONOTONE_N + 1):
            error = solve_best_ld(f, n).error
            if error > best * (1.0 + 1e-12) + slack:
                rises[name].append(n)
            best = min(best, error)
    return {"rises": rises,
            "count": sum(len(v) for k, v in rises.items() if k != "tanh"),
            "count_tanh": len(rises["tanh"])}


def _far(error: float, level: float) -> bool:
    return abs(error - level) <= FAR_RTOL * level


def fixed_pole_unweighted() -> dict:
    rows = []
    for a in FIXED_POLE_A:
        for n in UNWEIGHTED_N:
            error = solve_best_ld(ZERO, n, ApproxOptions(fixed_pole=a)).error
            lower, upper, _ = dvp_bracket(FixedPoleClass(n, a))
            kind = ("far_pole" if _far(error, 1.0 / (a - 1.0))
                    else "above_bracket" if error > upper * (1.0 + 1e-9) else "inside")
            rows.append({"a": a, "n": n, "error": error, "bracket": [lower, upper],
                         "excess": error / upper - 1.0, "bin": kind})
    return {"rows": rows, "counts": _counts(rows, ("inside", "above_bracket", "far_pole"))}


def fixed_pole_weighted() -> dict:
    rows = []
    for a in FIXED_POLE_A:
        for n in WEIGHTED_N:
            error = solve_best_ld(ZERO, n, ApproxOptions(weighted=True, fixed_pole=a)).error
            level = extremal_weighted_norm(FixedPoleClass(n, a))
            excess = (error - level) / level
            kind = ("far_pole" if _far(error, 1.0 / math.sqrt(a * a - 1.0))
                    else "within_1e-10" if excess <= 1e-10 else "above")
            rows.append({"a": a, "n": n, "error": error, "level": level, "excess": excess,
                         "bin": kind})
    return {"rows": rows, "counts": _counts(rows, ("within_1e-10", "above", "far_pole"))}


def report() -> dict:
    return {"probe": probe(), "monotonicity": monotonicity(),
            "fixed_pole_unweighted": fixed_pole_unweighted(),
            "fixed_pole_weighted": fixed_pole_weighted()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the JSON here instead of to stdout")
    args = ap.parse_args(argv)
    text = json.dumps(report(), indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
