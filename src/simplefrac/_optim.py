"""Deterministic grid scan + batched bracketing refinement on [-1, 1].

Shared by the sup-norm engines, the alternance detectors, and the minimax
solver.  ``fn`` takes a 1-D float array and returns its values there: one
row, shaped like x, or for :func:`suprema_on_grid` an (m, len(x)) array of m
rows that share one evaluation (say |P'| and |P| from one pass over the
roots of P).  The grid values locate a bracket around every local extremum
of every row, and all brackets are refined together: each call to ``fn``
samples every open bracket at several evenly spaced points and shrinks it
around its best sample, and each bracket reads its own row.  A call costs
far more in fixed overhead than per point, so several points per bracket per
call beat golden section's one, which is the best search only by point
count.  Each bracket does exactly the arithmetic of a scalar loop, so
results are reproducible bit for bit, and row j of a multi-row scan is what
a one-row scan of that row alone returns.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ToleranceNotMetError

_N = 8  # samples per bracket per call to fn: each call shrinks a bracket to 2/(_N + 1)
_T = np.arange(1, _N + 1) / (_N + 1)


def _bracket_refine(fn: Callable, lo: np.ndarray, hi: np.ndarray, sign: np.ndarray,
                    xtol: float, maxiter: int,
                    row: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Parallel bracketing maximization of sign[j] * fn on every [lo[j], hi[j]].

    With ``row``, fn returns an (m, len(x)) array and bracket j reads row
    row[j]; without it, fn returns one row shaped like x.  Each call samples
    every open bracket [a, b] at the _N points a + (b - a) * i/(_N + 1) and
    shrinks it to the two neighbours of its best sample (the first on ties;
    NaN never wins), until it is no wider than xtol; every bracket is sampled
    at least once.  Returns arrays (x, v) with v[j] = sign[j] * fn(x[j]), the
    best sample of bracket j over all its calls.  Raises ToleranceNotMetError (carrying the best
    pair of the first failing bracket) if a bracket stops shrinking, or is
    still wider than xtol after maxiter calls.
    """
    xs, vs, width = np.empty(len(lo)), np.empty(len(lo)), np.zeros(len(lo))
    idx, a, b, s, r = np.arange(len(lo)), lo, hi, sign, row
    bx = bv = np.empty(len(lo))
    bkey = np.full(len(lo), math.nan)  # no best yet: the first sample replaces NaN
    for _ in range(maxiter):
        k = len(idx)
        if not k:
            break
        j = np.arange(k)
        x = a[:, None] + (b - a)[:, None] * _T
        f = fn(x.ravel())
        f = s[:, None] * (f.reshape(k, _N) if r is None else f.reshape(-1, k, _N)[r, j])
        key = np.fmax(f, -math.inf)  # NaN never wins
        i = np.argmax(key, axis=1)
        better = ~(key[j, i] <= bkey)
        bx, bv, bkey = (np.where(better, new[j, i], old)
                        for new, old in ((x, bx), (f, bv), (key, bkey)))
        na = np.where(i == 0, a, x[j, i - 1])
        nb = np.where(i == _N - 1, b, x[j, (i + 1) % _N])
        # a bracket that did not move never will: fn and the arithmetic repeat
        fin = (nb - na <= xtol) | ((na == a) & (nb == b))
        xs[idx[fin]], vs[idx[fin]], width[idx[fin]] = bx[fin], bv[fin], (nb - na)[fin]
        keep = ~fin
        idx, a, b, s, bx, bv, bkey = (arr[keep] for arr in (idx, na, nb, s, bx, bv, bkey))
        if r is not None:
            r = r[keep]
    xs[idx], vs[idx], width[idx] = bx, bv, b - a
    failed = np.flatnonzero(width > xtol)
    if len(failed):
        f0 = failed[0]
        raise ToleranceNotMetError(
            f"bracket cannot shrink below xtol {xtol:.3e}: width {width[f0]:.3e}",
            best=(float(xs[f0]), float(vs[f0])))
    return xs, vs


def suprema_on_grid(fn: Callable, grid: np.ndarray, xtol: float,
                    maxiter: int = 500) -> list[tuple[float, float]]:
    """Maximize every row of fn over the interval spanned by ``grid``.

    fn takes a 1-D float array x and returns an (m, len(x)) array, or a 1-D
    array shaped like x for one row.  Returns m (value, location) pairs; pair
    j is what a scan of row j alone returns, bit for bit.  Each refinement
    step calls fn once for the brackets of all rows, so rows that share
    their work (one polynomial pass giving both P and P') pay for it once.
    """
    ys = np.asarray(fn(grid), dtype=float)
    one_row = ys.ndim == 1
    if one_row:
        ys = ys[None]  # and the refinement reads fn's output as is
    m = len(grid)
    peak = np.ones(ys.shape, dtype=bool)
    peak[:, 1:] &= ys[:, 1:] >= ys[:, :-1]
    peak[:, :-1] &= ys[:, :-1] >= ys[:, 1:]
    rows, at = np.nonzero(peak)  # row by row, each row's peaks left to right
    lo, hi = grid[np.maximum(at - 1, 0)], grid[np.minimum(at + 1, m - 1)]
    xs, vs = _bracket_refine(fn, lo, hi, np.ones(len(at)), xtol, maxiter,
                            None if one_row else rows)
    ends = np.searchsorted(rows, np.arange(len(ys) + 1))
    out = []
    for j, (s, e) in enumerate(zip(ends[:-1], ends[1:])):
        # candidates in scan order: grid value i, then the refinement of peak i
        order = np.argsort(np.concatenate([2 * np.arange(m), 2 * at[s:e] + 1]), kind="stable")
        cx = np.concatenate([grid, xs[s:e]])[order]
        cv = np.concatenate([ys[j], vs[s:e]])[order]
        cv[np.isnan(cv)] = -math.inf  # NaN never wins, as under a strict ">" scan
        i = int(np.argmax(cv))
        out.append((float(cv[i]), float(cx[i])))
    return out


def supremum_on_grid(fn: Callable, grid: np.ndarray, xtol: float,
                     maxiter: int = 500) -> tuple[float, float]:
    """Maximize fn over the interval spanned by ``grid``.

    fn takes a 1-D float array.  Every strict or flat local maximum of the
    grid values is refined by bracketing search in its neighbor bracket, all
    brackets together; grid values themselves (including the exact
    endpoints) also compete.  Returns (value, location); ties resolve to the
    leftmost, a grid value ahead of its own refinement.  This is the one-row
    case of :func:`suprema_on_grid`.
    """
    return suprema_on_grid(fn, grid, xtol, maxiter)[0]


def local_extrema(fn: Callable, grid: np.ndarray, xtol: float,
                  maxiter: int = 500) -> list[tuple[float, float]]:
    """Refined local extrema (maxima and minima) of a signed function.

    fn takes a 1-D float array; all extrema are refined together, minima as
    maxima of -fn.  Returns (x, fn(x)) pairs sorted by x, endpoints
    included, with refined points closer than 10*xtol merged (larger
    magnitude wins).
    """
    ys = np.asarray(fn(grid), dtype=float)
    left = ys - np.concatenate([ys[:1], ys[:-1]])
    right = np.concatenate([ys[1:], ys[-1:]]) - ys
    is_max = (left >= 0.0) & (right <= 0.0)
    is_min = (left <= 0.0) & (right >= 0.0)
    at = np.flatnonzero(is_max | is_min)
    is_max, is_min = is_max[at], is_min[at]
    sign = np.where(is_max, 1.0, -1.0)
    lo, hi = grid[np.maximum(at - 1, 0)], grid[np.minimum(at + 1, len(grid) - 1)]
    xs, vs = _bracket_refine(fn, lo, hi, sign, xtol, maxiter)
    vs = sign * vs
    # an exact grid endpoint may beat the interior refinement; a flat point
    # (both max and min) keeps whichever is larger in magnitude
    gx, gv = grid[at], ys[at]
    grid_wins = np.where(is_max & is_min, np.abs(gv) > np.abs(vs),
                         np.where(is_max, gv > vs, gv < vs))
    found = list(zip(np.where(grid_wins, gx, xs).tolist(),
                     np.where(grid_wins, gv, vs).tolist()))

    found.sort(key=lambda p: p[0])
    merged: list[tuple[float, float]] = []
    for x, v in found:
        if merged and abs(x - merged[-1][0]) <= 10.0 * xtol:
            if abs(v) > abs(merged[-1][1]):
                merged[-1] = (x, v)
        else:
            merged.append((x, v))
    return merged
