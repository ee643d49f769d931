"""Deterministic grid scan + batched golden-section refinement on [-1, 1].

Shared by the sup-norm engines, the alternance detectors, and the minimax
solver.  ``fn`` takes a 1-D float array and returns its values there: one
row, shaped like x, or for :func:`suprema_on_grid` an (m, len(x)) array of m
rows that share one evaluation (say |P'| and |P| from one pass over the
roots of P).  The grid values locate a bracket around every local extremum
of every row, and all brackets are refined together: each call to ``fn``
moves every open bracket one golden-section step, and each bracket reads its
own row.  Each bracket does exactly the arithmetic of a scalar
golden-section loop, so results are reproducible bit for bit, and row j of a
multi-row scan is what a one-row scan of that row alone returns.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ToleranceNotMetError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_refine(fn: Callable, lo: np.ndarray, hi: np.ndarray, sign: np.ndarray,
                   xtol: float, maxiter: int,
                   row: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization of sign[j] * fn on every [lo[j], hi[j]].

    With ``row``, fn returns an (m, len(x)) array and bracket j reads row
    row[j]; without it, fn returns one row shaped like x.  Returns arrays
    (x, v) with v[j] = sign[j] * fn(x[j]).  A bracket already no wider than
    xtol returns its midpoint.  Raises ToleranceNotMetError (carrying the
    best pair of the first failing bracket) if a bracket fails to shrink
    below xtol within maxiter steps.
    """
    xs, vs = np.empty(len(lo)), np.empty(len(lo))
    if len(lo) == 0:
        return xs, vs
    h = hi - lo
    narrow = h <= xtol
    idx = np.flatnonzero(~narrow)
    a, b, h = lo[idx], hi[idx], h[idx]
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    mid = 0.5 * (lo[narrow] + hi[narrow])
    k, s = len(idx), sign[idx]
    f = fn(np.concatenate([mid, c, d]))
    if row is not None:
        f = f[np.concatenate([row[narrow], row[idx], row[idx]]), np.arange(len(mid) + 2 * k)]
        r = row[idx]
    xs[narrow], vs[narrow] = mid, sign[narrow] * f[: len(mid)]
    fc, fd = s * f[len(mid): len(mid) + k], s * f[len(mid) + k:]
    for _ in range(maxiter):
        if not k:
            break
        # left: the maximum lies in [a, d]; d moves to c and a new c enters
        left = fc > fd
        keep, fkeep = np.where(left, c, d), np.where(left, fc, fd)
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = b - a
        x = a + np.where(left, _INVPHI2, _INVPHI) * h
        f = fn(x)
        fx = s * (f if row is None else f[r, np.arange(k)])
        c, fc = np.where(left, x, keep), np.where(left, fx, fkeep)
        d, fd = np.where(left, keep, x), np.where(left, fkeep, fx)
        done = h <= xtol
        if done.any():
            cwins = fc > fd
            xs[idx[done]] = np.where(cwins, c, d)[done]
            vs[idx[done]] = np.where(cwins, fc, fd)[done]
            live = ~done
            idx, a, b, c, d, fc, fd, h, s = (
                arr[live] for arr in (idx, a, b, c, d, fc, fd, h, s))
            if row is not None:
                r = r[live]
            k = len(idx)
    if k:
        best = (float(c[0]), float(fc[0])) if fc[0] > fd[0] else (float(d[0]), float(fd[0]))
        raise ToleranceNotMetError(
            f"golden-section bracket stuck at width {h[0]:.3e} > xtol {xtol:.3e}", best=best
        )
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
    xs, vs = _golden_refine(fn, lo, hi, np.ones(len(at)), xtol, maxiter,
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
    grid values is refined by golden section in its neighbor bracket, all
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
    xs, vs = _golden_refine(fn, lo, hi, sign, xtol, maxiter)
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
