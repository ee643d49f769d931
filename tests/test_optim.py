"""The batched extremum engine against the scalar bracketing loop.

The engine refines every bracket at once but must do, per bracket, exactly
the arithmetic of the scalar loop below, so the comparisons are bit for bit.
The test functions use only + - * /, which round the same way whether numpy
evaluates them on a scalar or inside an array.  The scalar golden-section
loop, which the engine ran before, stays as an accuracy oracle.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplefrac._optim import _N, _bracket_refine, local_extrema, supremum_on_grid
from simplefrac.cheb import chebyshev_points
from simplefrac.config import DEFAULTS
from simplefrac.errors import ToleranceNotMetError
from simplefrac.extremal import LogDerivative, weighted_sup_norm

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def bracket_max(fn, lo, hi, xtol, maxiter=500):
    """Reference: scalar bracketing maximization of fn on [lo, hi].

    Each step samples _N evenly spaced interior points and keeps the two
    neighbours of the best one (the first on ties; NaN never wins).
    """
    a, b = float(lo), float(hi)
    best_x = best_v = best_key = math.nan  # the first sample replaces NaN
    for _ in range(maxiter):
        xs = [a] + [a + (b - a) * (i / (_N + 1)) for i in range(1, _N + 1)] + [b]
        for j in range(1, _N + 1):
            v = fn(xs[j])
            k = -math.inf if math.isnan(v) else v
            if j == 1 or k > key:
                i, vi, key = j, v, k
        if not (key <= best_key):
            best_x, best_v, best_key = xs[i], vi, key
        na, nb = xs[i - 1], xs[i + 1]
        if nb - na <= xtol:
            return best_x, best_v
        if na == a and nb == b:
            break
        a, b = na, nb
    raise ToleranceNotMetError("stuck", best=(best_x, best_v))


def golden_max(fn, lo, hi, xtol, maxiter=500):
    """Oracle: scalar golden-section maximization of fn on [lo, hi]."""
    a, b = float(lo), float(hi)
    h = b - a
    if h <= xtol:
        x = 0.5 * (a + b)
        return x, fn(x)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = fn(c), fn(d)
    for _ in range(maxiter):
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = fn(d)
        if h <= xtol:
            return (c, fc) if fc > fd else (d, fd)
    best = (c, fc) if fc > fd else (d, fd)
    raise ToleranceNotMetError("stuck", best=best)


def ref_supremum(fn, grid, xtol, search=bracket_max):
    """Reference: scan each grid point, refining local maxima one by one."""
    ys = fn(grid)
    m = len(grid)
    best_val, best_x = -math.inf, float(grid[0])
    for i in range(m):
        cands = [(float(grid[i]), float(ys[i]))]
        if (i == 0 or ys[i] >= ys[i - 1]) and (i == m - 1 or ys[i] >= ys[i + 1]):
            x, v = search(fn, grid[max(i - 1, 0)], grid[min(i + 1, m - 1)], xtol)
            cands.append((float(x), float(v)))
        for x, v in cands:
            if v > best_val:
                best_val, best_x = v, x
    return best_val, best_x


def ref_extrema(fn, grid, xtol):
    """Reference: refine each local extremum one by one, then merge."""
    ys = fn(grid)
    m = len(grid)
    found = []
    for i in range(m):
        left = ys[i] - (ys[i - 1] if i > 0 else ys[i])
        right = (ys[i + 1] if i < m - 1 else ys[i]) - ys[i]
        is_max = left >= 0.0 and right <= 0.0
        is_min = left <= 0.0 and right >= 0.0
        if not (is_max or is_min):
            continue
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, m - 1)]
        if is_max:
            x, v = bracket_max(fn, lo, hi, xtol)
        else:
            x, v = bracket_max(lambda t: -fn(t), lo, hi, xtol)
            v = -v
        gv = ys[i]
        if (abs(gv) > abs(v)) if is_max == is_min else (gv > v if is_max else gv < v):
            x, v = grid[i], gv
        found.append((float(x), float(v)))
    found.sort(key=lambda p: p[0])
    merged = []
    for x, v in found:
        if merged and abs(x - merged[-1][0]) <= 10.0 * xtol:
            if abs(v) > abs(merged[-1][1]):
                merged[-1] = (x, v)
        else:
            merged.append((x, v))
    return merged


def rational(coeffs, pole):
    """p(x) / (x - pole) with p in Horner form: smooth on [-1, 1] for |pole| > 1."""
    def fn(x):
        acc = 0.0 * x + coeffs[0]
        for c in coeffs[1:]:
            acc = acc * x + c
        return acc / (x - pole)
    return fn


def bits(pairs):
    return [(float(x).hex(), float(v).hex()) for x, v in pairs]


coeff_lists = st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=8)
poles = st.one_of(st.floats(1.05, 5.0), st.floats(-5.0, -1.05))


def nan_below(fn, cut):
    """fn, but NaN left of cut, on scalars and arrays alike."""
    return lambda x: np.where(np.asarray(x) < cut, math.nan, fn(x))


widths = st.one_of(st.floats(0.0, 0.5), st.floats(-12.0, math.log10(0.5)).map(lambda e: 10.0 ** e))


@settings(max_examples=150, deadline=None)
@given(coeffs=coeff_lists, pole=poles,
       ends=st.lists(st.tuples(st.floats(-1.0, 1.0), widths, st.booleans()),
                     min_size=1, max_size=6),
       xtol=st.sampled_from([1e-10, 1e-6, 1e-3, 0.2]),
       all_up=st.booleans(), nan_cut=st.none() | st.floats(-1.0, 1.5),
       two_rows=st.booleans(), maxiter=st.sampled_from([1, 2, 3, 500]))
def test_batched_refinement_matches_scalar_loop(coeffs, pole, ends, xtol, all_up, nan_cut,
                                                two_rows, maxiter):
    # brackets 1e-12 to 0.5 wide finish on different steps; all +1 signs skip
    # the sign multiply; a NaN part never wins; with two rows, bracket j reads
    # row j % 2; a small maxiter fails, with the scalar loop's best pair
    fns = [rational(coeffs, pole), rational(coeffs[::-1], -pole)]
    if nan_cut is not None:
        fns = [nan_below(f, nan_cut) for f in fns]
    lo = np.array([a for a, _, _ in ends])
    hi = np.array([a + w for a, w, _ in ends])
    sign = np.array([1.0 if up or all_up else -1.0 for _, _, up in ends])
    row = np.arange(len(ends)) % 2 if two_rows else None
    want = []
    for j, (a, b, s) in enumerate(zip(lo, hi, sign)):
        f = fns[j % 2 if two_rows else 0]
        try:
            want.append(bracket_max(f if s > 0 else (lambda t, f=f: -f(t)), a, b, xtol, maxiter))
        except ToleranceNotMetError as exc:
            want.append(exc)
    fn = (lambda x, r: np.where(r == 0, fns[0](x), fns[1](x))) if two_rows else fns[0]
    failed = [w for w in want if isinstance(w, ToleranceNotMetError)]
    if failed:
        with pytest.raises(ToleranceNotMetError) as got:
            _bracket_refine(fn, lo, hi, sign, xtol, maxiter, row)
        assert bits([got.value.best]) == bits([failed[0].best])
    else:
        xs, vs = _bracket_refine(fn, lo, hi, sign, xtol, maxiter, row)
        assert bits(zip(xs, vs)) == bits(want)


# rows that tie (a plateau, a constant), are NaN everywhere or in places,
# or are plain rational functions
SPECIAL_ROWS = {
    "plateau": lambda x: np.minimum(1.0, 2.0 - 4.0 * x * x),
    "constant": lambda x: 0.0 * x + 3.0,
    "nan": lambda x: np.full_like(x, math.nan),
    "nan-left": lambda x: np.where(x < -0.2, math.nan, 1.0 - x * x),
    "ramp": lambda x: 1.0 * x,
}
row_draws = st.one_of(st.sampled_from(sorted(SPECIAL_ROWS)), st.tuples(coeff_lists, poles))


def row_fn(row):
    return SPECIAL_ROWS[row] if isinstance(row, str) else rational(*row)


@settings(max_examples=60, deadline=None)
@given(row=row_draws, m=st.integers(2, 80))
def test_sup_and_extrema_match_scalar_reference(row, m):
    # the special rows check the tie and NaN rules against the references
    fn = row_fn(row)
    grid = chebyshev_points(m)
    got = supremum_on_grid(fn, grid, 1e-10)
    assert bits([got]) == bits([ref_supremum(fn, grid, 1e-10)])
    assert bits(local_extrema(fn, grid, 1e-10)) == bits(ref_extrema(fn, grid, 1e-10))


@settings(max_examples=60, deadline=None)
@given(coeffs=coeff_lists, pole=poles, m=st.integers(2, 80))
def test_supremum_as_high_as_golden_section(coeffs, pole, m):
    # golden section, the best sequential search by point count, finds no
    # higher maximum beyond rounding noise
    fn = rational(coeffs, pole)
    grid = chebyshev_points(m)
    value, _ = supremum_on_grid(fn, grid, 1e-10)
    golden, _ = ref_supremum(fn, grid, 1e-10, search=golden_max)
    assert value >= golden - 4.0 * np.spacing(np.max(np.abs(fn(grid))))


def counted(fn):
    def wrapper(x, *row):
        wrapper.calls += 1
        return fn(x, *row)
    wrapper.calls = 0
    return wrapper


def row_wise(fns, calls):
    """A multi-row fn: all rows at every point, or each point for its own
    row only."""
    def fn(x, row=None):
        calls.append(row)
        if row is None:
            return np.array([f(x) for f in fns])
        out = np.empty_like(x)
        for j, f in enumerate(fns):
            out[row == j] = f(x[row == j])
        return out
    return fn


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(row_draws, min_size=1, max_size=4),
       m=st.integers(2, 80), xtol=st.sampled_from([1e-10, 1e-6, 0.05, 1e-17]))
def test_suprema_rows_match_one_row_scans(rows, m, xtol):
    fns = [row_fn(r) for r in rows]
    grid = chebyshev_points(m)
    multi = counted(row_wise(fns, []))
    singles = [counted(f) for f in fns]
    want = []
    for f in singles:
        try:
            want.append(supremum_on_grid(f, grid, xtol))
        except ToleranceNotMetError as exc:
            want.append(exc)
    failed = [w for w in want if isinstance(w, ToleranceNotMetError)]
    if failed:
        # the multi-row scan raises what the first failing row's scan raises
        with pytest.raises(ToleranceNotMetError) as got:
            supremum_on_grid(multi, grid, xtol)
        assert str(got.value) == str(failed[0])
        assert bits([got.value.best]) == bits([failed[0].best])
    else:
        assert bits(supremum_on_grid(multi, grid, xtol)) == bits(want)
    # one evaluation per refinement step serves every row
    assert multi.calls == max(f.calls for f in singles)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(row_draws, min_size=1, max_size=4),
       m=st.integers(2, 80), xtol=st.sampled_from([1e-10, 1e-6, 0.05, 1e-17]))
def test_extrema_rows_match_one_row_scans(rows, m, xtol):
    # rows with NaN values leave the others alone; at xtol 1e-17 a row with
    # an extremum to refine gets stuck, and the scan raises what the first
    # stuck row's own scan raises
    fns = [row_fn(r) for r in rows]
    grid = chebyshev_points(m)
    want = []
    for f in fns:
        try:
            want.append(local_extrema(f, grid, xtol))
        except ToleranceNotMetError as exc:
            want.append(exc)
    calls = []
    failed = [w for w in want if isinstance(w, ToleranceNotMetError)]
    if failed:
        with pytest.raises(ToleranceNotMetError) as got:
            local_extrema(row_wise(fns, calls), grid, xtol)
        assert str(got.value) == str(failed[0])
        assert bits([got.value.best]) == bits([failed[0].best])
    else:
        got = local_extrema(row_wise(fns, calls), grid, xtol)
        assert len(got) == len(fns)
        assert [bits(g) for g in got] == [bits(w) for w in want]
    # one call for the grid, then one per refinement step, each point for its
    # own row
    assert calls[0] is None
    assert all(len(r) % _N == 0 and r.dtype.kind == "i" for r in calls[1:])


def test_suprema_failure_names_the_first_stuck_row():
    # the NaN row has no peak to refine; the parabola's bracket cannot
    # shrink below 1e-17, and the error is the one its own scan raises
    grid = chebyshev_points(33)
    rows = [SPECIAL_ROWS["nan"], rational([-1.0, 0.5, 2.0], 3.0)]
    with pytest.raises(ToleranceNotMetError) as multi:
        supremum_on_grid(row_wise(rows, []), grid, 1e-17)
    with pytest.raises(ToleranceNotMetError) as single:
        supremum_on_grid(rows[1], grid, 1e-17)
    assert str(multi.value) == str(single.value)
    assert bits([multi.value.best]) == bits([single.value.best])


def test_ties_resolve_to_the_leftmost_point():
    grid = chebyshev_points(65)
    value, loc = supremum_on_grid(lambda x: np.minimum(1.0, 2.0 - 4.0 * x * x), grid, 1e-10)
    assert value == 1.0
    assert loc == grid[grid >= -0.5][0]
    # a constant: every grid point is a flat peak, the first one wins
    assert supremum_on_grid(lambda x: 0.0 * x + 3.0, grid, 1e-10) == (3.0, -1.0)


def test_exact_grid_endpoint_beats_its_refinement():
    grid = chebyshev_points(33)
    assert local_extrema(lambda x: 1.0 * x, grid, 1e-10) == [(-1.0, -1.0), (1.0, 1.0)]
    assert supremum_on_grid(lambda x: 1.0 * x, grid, 1e-10) == (1.0, 1.0)


def test_extrema_within_ten_xtol_merge():
    # a maximum near 0.0106 (about 7e-6) and a minimum near 0.0394 (about
    # -5e-6), plus the two endpoints
    def fn(x):
        t = x - 0.025
        return t * t * t - 0.000625 * t + 1e-6

    grid = np.linspace(-1.0, 1.0, 401)
    apart = local_extrema(fn, grid, 1e-10)
    assert [round(x, 3) for x, _ in apart] == [-1.0, 0.011, 0.039, 1.0]
    merged = local_extrema(fn, grid, 1e-2)
    assert len(merged) == 3
    # the larger magnitude of the merged pair survives
    assert merged[1][1] > 0.0 and abs(merged[1][0] - apart[1][0]) < 0.005



def test_weighted_sup_norm_tolerance_not_met():
    # no search can shrink a bracket near x = 0.5 below one ulp
    # (1.1e-16), so the tolerance is never met; best is plain floats
    with pytest.raises(ToleranceNotMetError) as excinfo:
        weighted_sup_norm(LogDerivative((2.0,)), cfg=replace(DEFAULTS, supnorm_xtol=1e-17))
    best = excinfo.value.best
    assert type(best) is tuple and len(best) == 2
    assert all(type(b) is float for b in best)


def test_extrema_refinement_calls():
    # a residual with 10 extrema; the brackets of the 513-point grid are at
    # most 0.0123 wide and each call shrinks them to 2/9 of that, so 13 calls
    # after the grid's one reach 1e-10 (golden section took 40)
    coef = np.polynomial.chebyshev.chebinterpolate(np.exp, 8)
    fn = counted(lambda x: np.exp(x) - np.polynomial.chebyshev.chebval(x, coef))
    assert len(local_extrema(fn, chebyshev_points(513), 1e-10)) == 10
    assert fn.calls <= 14
