"""Deterministic grid scan + batched bracketing refinement on [-1, 1].

Shared by the sup-norm engines, the alternance detectors, and the minimax
solver, through two front-ends: :func:`supremum_on_grid` and
:func:`local_extrema`.  ``fn`` takes a 1-D float array and returns its
values there: one row, shaped like x, or an (m, len(x)) array of m rows.
Both front-ends take m rows the same way: fn(grid) gives every row at every
grid point, and during refinement fn(x, row) returns row row[i] at x[i], so
each bracket's points are evaluated for its own row (rows that share their
work, say |P'| and |P| from one pass over the roots of P, may compute all
rows and pick).  The grid values locate a bracket around every local
extremum of every row, and all brackets are refined together: each call to
``fn`` samples every open bracket at several evenly spaced points and
shrinks it around its best sample.  A call costs far more in fixed overhead
than per point, so several points per bracket per call beat golden
section's one, which is the best search only by point count.  For the same
reason one refinement step is one call to fn plus a fixed set of array
operations on the samples of all open brackets, whatever their number; the
sample layout is rebuilt only on a step where a bracket finishes.  Each
bracket does exactly the arithmetic of a scalar loop, so results are
reproducible bit for bit, and row j of a multi-row scan is what a one-row
scan of that row alone returns.
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

    With ``row``, bracket j reads row row[j] through fn(x, r), the value of
    row r[i] at x[i]; without it, fn(x) is one row.  Each call samples
    every open bracket [a, b] at the _N points a + (b - a) * i/(_N + 1) and
    shrinks it to the two neighbours of its best sample (the first on ties;
    NaN never wins), until it is no wider than xtol; every bracket is sampled
    at least once.  Returns arrays (x, v) with v[j] = sign[j] * fn(x[j]), the
    best sample of bracket j over all its calls.  Raises ToleranceNotMetError
    (carrying the best pair of the first failing bracket) if a bracket stops
    shrinking, or is still wider than xtol after maxiter calls.

    A step is one fn call plus a fixed set of array operations.  The state
    is compacted only on a step where a bracket finishes, which a shrink to
    2/(_N + 1) of the width per step makes rare.
    """
    xs, vs, width = np.empty(len(lo)), np.empty(len(lo)), np.zeros(len(lo))
    idx, a, b, r = np.arange(len(lo)), lo, hi, row
    s = sign if (sign != 1.0).any() else None  # 1.0 * f is f, bit for bit
    bx, bv = np.empty(len(lo)), np.empty(len(lo))
    bkey = np.full(len(lo), math.nan)  # no best yet: the first sample replaces NaN
    k = -1
    for _ in range(maxiter):
        if k != len(idx):  # the first step, or a bracket finished: lay the samples out
            k = len(idx)
            if not k:
                break
            # x[j*_N + t] is sample t of bracket j, and z = [x, a, b] holds the
            # neighbours: sample t's are z[left], z[right], the ends a or b
            flat, j = np.arange(k * _N), np.arange(k)
            rep, tt, at = flat // _N, _T[flat % _N], j * _N
            left, right = flat - 1, flat + 1
            left[at], right[at + _N - 1] = k * _N + j, k * _N + k + j
            rr = None if r is None else r[rep]
            sr = None if s is None else s[rep]
        x = (b - a)[rep]
        x *= tt
        x += a[rep]
        f = fn(x) if rr is None else fn(x, rr)
        if sr is not None:
            f = sr * f
        key = np.fmax(f, -math.inf)  # NaN never wins
        i = at + key.reshape(k, _N).argmax(axis=1)
        better = ~(key[i] <= bkey)
        np.copyto(bx, x[i], where=better)
        np.copyto(bv, f[i], where=better)
        np.copyto(bkey, key[i], where=better)
        z = np.concatenate((x, a, b))
        na, nb = z[left[i]], z[right[i]]
        # a bracket that did not move never will: fn and the arithmetic repeat
        fin = (nb - na <= xtol) | ((na == a) & (nb == b))
        if np.count_nonzero(fin):
            xs[idx[fin]], vs[idx[fin]], width[idx[fin]] = bx[fin], bv[fin], (nb - na)[fin]
            keep = ~fin
            idx, na, nb, bx, bv, bkey = (arr[keep] for arr in (idx, na, nb, bx, bv, bkey))
            s = None if s is None else s[keep]
            r = None if r is None else r[keep]
        a, b = na, nb
    xs[idx], vs[idx], width[idx] = bx, bv, b - a
    failed = np.flatnonzero(width > xtol)
    if len(failed):
        f0 = failed[0]
        raise ToleranceNotMetError(
            f"bracket cannot shrink below xtol {xtol:.3e}: width {width[f0]:.3e}",
            best=(float(xs[f0]), float(vs[f0])))
    return xs, vs


def supremum_on_grid(fn: Callable, grid: np.ndarray, xtol: float,
                     maxiter: int = 500) -> tuple[float, float] | list[tuple[float, float]]:
    """Maximize fn over the interval spanned by ``grid``.

    Every strict or flat local maximum of the grid values is refined by
    bracketing search in its neighbor bracket, all brackets together; grid
    values themselves (including the exact endpoints) also compete, and NaN
    never wins.  Returns (value, location); ties resolve to the leftmost, a
    grid value ahead of its own refinement.  When fn(grid) has m rows,
    fn(x, row) evaluates each point for its own row, and the result is m
    such pairs: pair j is what a scan of row j alone returns, bit for bit.
    """
    ys = np.asarray(fn(grid), dtype=float)
    one_row = ys.ndim == 1
    ys = ys.reshape(-1, len(grid))
    peak = np.ones(ys.shape, dtype=bool)
    peak[:, 1:] &= ys[:, 1:] >= ys[:, :-1]
    peak[:, :-1] &= ys[:, :-1] >= ys[:, 1:]
    rows, at = np.nonzero(peak)  # row by row, each row's peaks left to right
    lo, hi = grid[np.maximum(at - 1, 0)], grid[np.minimum(at + 1, len(grid) - 1)]
    xs, vs = _bracket_refine(fn, lo, hi, np.ones(len(at)), xtol, maxiter, None if one_row else rows)
    gkey, vkey = np.fmax(ys, -math.inf), np.fmax(vs, -math.inf)  # NaN never wins
    ends = np.searchsorted(rows, np.arange(len(ys) + 1)).tolist()
    out = []
    for j, (s, e) in enumerate(zip(ends[:-1], ends[1:])):
        # scan order puts grid value i before the refinement of peak i: the row's
        # first refined maximum r beats its first grid maximum g if larger, or equal and ahead
        g = int(gkey[j].argmax())
        best = (float(gkey[j, g]), float(grid[g]))
        if e > s:
            r = s + int(vkey[s:e].argmax())
            if vkey[r] > best[0] or (vkey[r] == best[0] and at[r] < g):
                best = (float(vkey[r]), float(xs[r]))
        out.append(best)
    return out[0] if one_row else out


def local_extrema(fn: Callable, grid: np.ndarray, xtol: float,
                  maxiter: int = 500) -> list:
    """Refined local extrema (maxima and minima) of a signed function.

    fn takes a 1-D float array; all extrema are refined together, minima as
    maxima of -fn.  Returns (x, fn(x)) pairs sorted by x, endpoints
    included, with refined points closer than 10*xtol merged (larger
    magnitude wins).  When fn(grid) has m rows, fn(x, row) evaluates each
    point for its own row (see the module docstring), and the result is m
    such lists: list j is what a scan of row j alone returns, bit for bit.
    A multi-row scan raises what the first failing row's scan raises.
    """
    ys = np.asarray(fn(grid), dtype=float)
    one_row = ys.ndim == 1
    ys = ys.reshape(-1, len(grid))
    left = ys - np.concatenate([ys[:, :1], ys[:, :-1]], axis=1)
    right = np.concatenate([ys[:, 1:], ys[:, -1:]], axis=1) - ys
    is_max = (left >= 0.0) & (right <= 0.0)
    is_min = (left <= 0.0) & (right >= 0.0)
    rows, at = np.nonzero(is_max | is_min)  # row by row, left to right
    is_max, is_min = is_max[rows, at], is_min[rows, at]
    sign = np.where(is_max, 1.0, -1.0)
    lo, hi = grid[np.maximum(at - 1, 0)], grid[np.minimum(at + 1, len(grid) - 1)]
    xs, vs = _bracket_refine(fn, lo, hi, sign, xtol, maxiter, None if one_row else rows)
    vs = sign * vs
    # an exact grid endpoint may beat the interior refinement; a flat point
    # (both max and min) keeps whichever is larger in magnitude
    gx, gv = grid[at], ys[rows, at]
    grid_wins = np.where(is_max & is_min, np.abs(gv) > np.abs(vs),
                         np.where(is_max, gv > vs, gv < vs))
    px, pv = np.where(grid_wins, gx, xs).tolist(), np.where(grid_wins, gv, vs).tolist()
    ends = np.searchsorted(rows, np.arange(len(ys) + 1)).tolist()
    out = []
    for s, e in zip(ends[:-1], ends[1:]):
        merged: list[tuple[float, float]] = []
        for x, v in sorted(zip(px[s:e], pv[s:e]), key=lambda p: p[0]):
            if merged and abs(x - merged[-1][0]) <= 10.0 * xtol:
                if abs(v) > abs(merged[-1][1]):
                    merged[-1] = (x, v)
            else:
                merged.append((x, v))
        out.append(merged)
    return out[0] if one_row else out
