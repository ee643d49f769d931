"""Extremal fractions: constructions, norms, alternance, brackets."""

import dataclasses
import decimal
import functools
import json
import math
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simplefrac import _dd, extremal
from simplefrac.bernstein import witness_ratio_empirical
from simplefrac.cheb import (
    ChebKind,
    EllipseParam,
    PointLocation,
    cheb_t,
    cheb_u,
    chebyshev_points,
    ellipse_classify,
    eval_cheb,
)
from simplefrac.cli import main
from simplefrac.config import DEFAULTS
from simplefrac.errors import DomainError, EvaluationError, TheoremRangeError, ToleranceNotMetError
from simplefrac.extremal import (
    FixedPoleClass,
    LogDerivative,
    NormEstimate,
    WeightedExtremalFraction,
    _check_pole_hypotheses,
    alternance_points_weighted,
    build_candidate_unweighted,
    build_extremal_weighted,
    corollary_min_a,
    dvp_bracket,
    eval_ld,
    extremal_weighted_norm,
    lambda_bounds,
    pole_sums,
    sup_norm,
    verify_pole_annulus,
    weighted_sup_norm,
)

T = ChebKind.FIRST_KIND


def tn_int(n, a):
    """Exact integer/float recurrence oracle for T_n at exact arguments."""
    prev, cur = 1, a
    if n == 0:
        return prev
    for _ in range(n - 1):
        cur, prev = 2 * a * cur - prev, cur
    return cur


# ---------------------------------------------------------------- builds

def test_build_weighted_degree_one():
    rho = build_extremal_weighted(FixedPoleClass(1, 2.0))
    assert rho.poles == (complex(2.0, 0.0),)


def test_build_weighted_degree_two():
    rho = build_extremal_weighted(FixedPoleClass(2, 2.0))
    assert sorted(z.real for z in rho.poles) == [-2.0, 2.0]
    assert all(z.imag == 0.0 for z in rho.poles)
    # oracle: T_2(x) = T_2(2) = 7 means 2x^2 - 1 = 7, x = ±2
    assert set(np.round(np.roots([2.0, 0.0, -8.0]), 12)) == {2.0, -2.0}


def test_build_weighted_contains_fixed_pole_and_conjugate_closed():
    for n in (1, 2, 3, 5, 8, 11):
        rho = build_extremal_weighted(FixedPoleClass(n, 3.0))
        assert complex(3.0, 0.0) in rho.poles
        assert rho.degree == n
        assert sorted((z.conjugate().real, z.conjugate().imag) for z in rho.poles) == \
            sorted((z.real, z.imag) for z in rho.poles)


def test_build_weighted_theorem_gate():
    with pytest.raises(TheoremRangeError):
        build_extremal_weighted(FixedPoleClass(2, 1.2))
    rho = build_extremal_weighted(FixedPoleClass(2, 1.2), force=True)
    assert not rho.within_theorem_range
    with pytest.raises(DomainError):
        FixedPoleClass(2, 0.9)


def test_weighted_poles_on_ellipse():
    for n, a in [(3, 1.5), (6, 2.0), (9, 3.0), (12, 5.0)]:
        rho = build_extremal_weighted(FixedPoleClass(n, a), force=True)
        ea = EllipseParam(a)
        for z in rho.poles:
            c = ellipse_classify(ea, z, cfg=replace(DEFAULTS, ellipse_on_tol=1e-10))
            assert c.location is PointLocation.ON, (n, a, z, c.residual)


# ---------------------------------------------------------------- norms

def test_weighted_norm_degree_one_grid_oracle():
    # max of sqrt(1-x^2)/(2-x) by brute grid search
    xs = np.linspace(-1.0, 1.0, 2_000_001)
    grid_max = np.max(np.sqrt(1 - xs * xs) / (2.0 - xs))
    val = extremal_weighted_norm(FixedPoleClass(1, 2.0))
    assert val == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
    assert val == pytest.approx(grid_max, rel=1e-10)


def test_weighted_norm_degree_two():
    val = extremal_weighted_norm(FixedPoleClass(2, 2.0))
    assert val == pytest.approx(2.0 / math.sqrt(48.0), rel=1e-15)
    est = weighted_sup_norm(build_extremal_weighted(FixedPoleClass(2, 2.0)))
    assert est.value == pytest.approx(val, rel=1e-12)


def test_weighted_norm_vanishes_for_large_pole():
    values = [extremal_weighted_norm(FixedPoleClass(1, a)) for a in (2.0, 10.0, 1e4, 1e8)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-7
    # the log-domain tail: 400 * exp(-1381.6) is no float, so the level raises
    # rather than underflow to a silent 0
    with pytest.raises(TheoremRangeError, match="smallest normal float"):
        extremal_weighted_norm(FixedPoleClass(200, 500.0))


def test_closed_forms_past_the_float_range_raise():
    # at a = 3, T_n(a) overflows from n = 404 on: every closed form that
    # needs T_n(a) raises a DomainError naming log T_n(a)
    below, above = FixedPoleClass(403, 3.0), FixedPoleClass(404, 3.0)
    assert math.isfinite(build_extremal_weighted(below).tna)
    assert 0.0 < lambda_bounds(below).lower <= lambda_bounds(below).upper
    for fn in (build_extremal_weighted, lambda_bounds, alternance_points_weighted):
        with pytest.raises(DomainError, match=r"log \|T_404\(z\)\| = 711\.45"):
            fn(above)


def test_class_computes_its_scalars_once(monkeypatch):
    # every closed form and bound reads T_n(a) and T_{n-2}(a) off the class
    calls = []

    def counted(kind, n, z):
        calls.append((kind, n, z))
        return eval_cheb(kind, n, z)

    monkeypatch.setattr(extremal, "eval_cheb", counted)
    cls = FixedPoleClass(16, 3.0)
    build_extremal_weighted(cls)
    alternance_points_weighted(cls)
    verify_pole_annulus(cls, build_candidate_unweighted(cls))
    lambda_bounds(cls)
    dvp_bracket(cls)
    assert calls == [(T, 16, 3.0), (T, 14, 3.0)]
    # the cached scalars are not fields: eq, hash and repr see (n, a) only
    assert [f.name for f in dataclasses.fields(cls)] == ["n", "a"]
    assert cls == FixedPoleClass(16, 3.0) and hash(cls) == hash(FixedPoleClass(16, 3.0))
    assert repr(cls) == "FixedPoleClass(n=16, a=3.0)"


def test_weighted_level_never_underflows():
    # the level n/sqrt(T_n(a)^2 - 1) at a = 3 is a normal float up to n = 405
    level = extremal_weighted_norm(FixedPoleClass(405, 3.0))
    assert sys.float_info.min <= level < 1e-307
    # the class's scalars are lazy: the level is read where T_n(a) overflows
    cls = FixedPoleClass(404, 3.0)
    assert extremal_weighted_norm(cls) == 4.2136417431422095e-307
    with pytest.raises(DomainError, match=r"log \|T_404\(z\)\|"):
        build_extremal_weighted(cls)
    for n in (406, 423):
        with pytest.raises(TheoremRangeError, match="smallest normal float"):
            extremal_weighted_norm(FixedPoleClass(n, 3.0))


def test_sup_norm_examples():
    rho = LogDerivative((2.0,))
    w = weighted_sup_norm(rho, cfg=replace(DEFAULTS, supnorm_xtol=1e-10))
    assert w.value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-10)
    assert w.location == pytest.approx(0.5, abs=1e-6)
    assert w.weighted
    u = sup_norm(rho, cfg=replace(DEFAULTS, supnorm_xtol=1e-10))
    assert u.value == pytest.approx(1.0, abs=1e-12)
    assert u.location == 1.0
    assert not u.weighted


def test_sup_norm_rejects_pole_on_segment():
    with pytest.raises(DomainError):
        sup_norm(LogDerivative((0.5,)))
    with pytest.raises(DomainError):
        weighted_sup_norm(LogDerivative((2.0,)), cfg=replace(DEFAULTS, supnorm_xtol=0.0))


def test_on_segment_rule_is_elementwise():
    # the array rule is the scalar rule at each pole, ends, tolerance edges
    # and NaN included; a fraction asks it once for all its poles
    tol = DEFAULTS.pole_on_segment_tol
    edge = 1.0 + tol
    zs = [complex(r, i) for r in (-edge, np.nextafter(-edge, -2.0), 0.0, edge,
                                  np.nextafter(edge, 2.0), 3.0, math.nan)
          for i in (0.0, tol, -tol, np.nextafter(tol, 1.0), math.nan)]
    want = [abs(z.imag) <= tol and -1.0 - tol <= z.real <= 1.0 + tol for z in zs]
    assert extremal._on_segment(np.array(zs), DEFAULTS).tolist() == want
    assert [bool(extremal._on_segment(z, DEFAULTS)) for z in zs] == want
    rho = LogDerivative((2.0, complex(0.5, tol), complex(0.5, -tol)))
    assert rho.has_pole_on_segment()
    assert not rho.has_pole_on_segment(cfg=replace(DEFAULTS, pole_on_segment_tol=tol / 2))


def test_sup_norm_unreachable_tolerance_carries_best():
    from simplefrac.errors import ToleranceNotMetError

    with pytest.raises(ToleranceNotMetError) as excinfo:
        weighted_sup_norm(LogDerivative((2.0,)), cfg=replace(DEFAULTS, supnorm_xtol=1e-300))
    x, value = excinfo.value.best
    assert value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)


def test_scan_grid_is_shared_and_read_only():
    grid = extremal._norm_grid(7, DEFAULTS)
    assert extremal._norm_grid(7, DEFAULTS) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 0.0
    cfg = replace(DEFAULTS, supnorm_grid_per_degree=11)
    assert np.array_equal(extremal._norm_grid(7, cfg), chebyshev_points(77))
    # the public grid stays a fresh, writable array
    assert chebyshev_points(77).flags.writeable
    # the alternance's zeros are one tuple per degree
    zeros = alternance_points_weighted(FixedPoleClass(7, 3.0))[1]
    assert alternance_points_weighted(FixedPoleClass(7, 2.0))[1] is zeros
    assert zeros == tuple(chebyshev_points(8).tolist())


def closed_form_composition(rho, x):
    """Reference: the closed form from one cheb_t or cheb_u call per degree."""
    x = np.asarray(x, dtype=float)
    if isinstance(rho, WeightedExtremalFraction):
        return rho.n * cheb_u(rho.n - 1, x) / (cheb_t(rho.n, x) - rho.tna)
    fx = cheb_t(rho.n, x) / rho.n - cheb_t(rho.n - 2, x) / (rho.n - 2)
    return cheb_t(rho.n - 1, x) / (0.5 * (fx - rho.fa))


def value_bits(fn):
    """Shape and float.hex of the values, or the error's type and message."""
    try:
        out = fn()
    except (DomainError, RuntimeWarning) as exc:
        return type(exc), str(exc)
    return np.shape(out), [float(v).hex() for v in np.ravel(out)]


@functools.lru_cache(maxsize=None)
def closed_forms(n, a):
    """The weighted extremal and, where it builds, the unweighted candidate."""
    cls = FixedPoleClass(n, a)
    forms = [build_extremal_weighted(cls, force=True)]
    if n >= 4:
        forms.append(build_candidate_unweighted(cls))
    return forms


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 40), a=st.sampled_from([1.5, 2.0, 3.0, 5.0]),
       xs=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0, math.nan]),
                             st.floats(-6.0, 6.0)), max_size=12),
       zero_d=st.booleans())
def test_closed_form_values_share_one_arccos_bit_for_bit(n, a, xs, zero_d):
    # values_on takes the angles once for all its kernels; the values, their
    # shape and the first error are those of one kernel call per degree
    x = np.array(xs[0] if zero_d and xs else xs)
    for rho in closed_forms(n, a):
        assert value_bits(lambda: rho.values_on(x)) == value_bits(
            lambda: closed_form_composition(rho, x))


# ---------------------------------------------------------------- alternance

def test_alternance_degree_one():
    rep, zeros = alternance_points_weighted(FixedPoleClass(1, 2.0))
    assert rep.points == pytest.approx([0.5], abs=1e-14)  # T_1(x) = 1/T_1(2) = 1/2
    assert abs(rep.values[0]) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)
    assert zeros == pytest.approx([-1.0, 1.0])


def test_alternance_degree_two():
    rep, zeros = alternance_points_weighted(FixedPoleClass(2, 2.0))
    x = math.sqrt(4.0 / 7.0)  # roots of T_2 = 1/7
    assert rep.points == pytest.approx([-x, x], abs=1e-14)
    assert [abs(v) for v in rep.values] == pytest.approx([2.0 / math.sqrt(48.0)] * 2, abs=1e-12)
    assert rep.values[0] * rep.values[1] < 0.0
    assert rep.sign_pattern_ok
    assert zeros == pytest.approx([-1.0, 0.0, 1.0], abs=1e-15)


def test_equioscillation_across_grid():
    for n in (1, 3, 6, 9, 12):
        for a in (1.5, 2.0, 3.0, 5.0):
            cls = FixedPoleClass(n, a)
            rep, zeros = alternance_points_weighted(cls)
            level = extremal_weighted_norm(cls)
            assert len(rep.points) == n
            assert len(zeros) == n + 1
            assert rep.sign_pattern_ok
            for v in rep.values:
                assert abs(abs(v) - level) <= 1e-10


def test_alternance_points_at_high_degree():
    # near +-1 one ulp of x moves T_n by about n^2 eps, so from n = 59 on an
    # absolute 1e-13 gate on |T_n(x) - c| rejected correctly rounded roots
    for a in (2.0, 3.0, 5.0):
        for n in range(2, 130):
            rep, _ = alternance_points_weighted(FixedPoleClass(n, a))
            assert len(rep.points) == n
    mpmath = pytest.importorskip("mpmath")
    eps = sys.float_info.epsilon
    with mpmath.workdps(60):
        for a in (2, 3):
            for n in (59, 61, 66, 129, 402):
                rep, _ = alternance_points_weighted(FixedPoleClass(n, float(a)))
                # the n roots of T_n(x) = 1/T_n(a): cos((theta0 + 2 pi k)/n)
                theta0 = mpmath.acos(1 / mpmath.cosh(n * mpmath.acosh(a)))
                exact = sorted(mpmath.cos((theta0 + 2 * mpmath.pi * k) / n) for k in range(n))
                assert max(abs(mpmath.mpf(x) - e) for x, e in zip(rep.points, exact)) <= eps


# ---------------------------------------------------------------- candidates

def test_candidate_4_3_quartic_oracle():
    # Q_4(3;x) = 0 reduces to 2x^4 - 3x^2 - 135 = 0, x^2 in {9, -7.5}
    disc = math.sqrt(9.0 + 4.0 * 2.0 * 135.0)
    assert disc == 33.0
    expected = {3.0, -3.0, complex(0.0, math.sqrt(7.5)), complex(0.0, -math.sqrt(7.5))}
    cand = build_candidate_unweighted(FixedPoleClass(4, 3.0))
    for z in cand.poles:
        assert min(abs(z - e) for e in expected) < 1e-12
    assert complex(3.0, 0.0) in cand.poles
    assert sorted((z.conjugate().real, z.conjugate().imag) for z in cand.poles) == \
        sorted((z.real, z.imag) for z in cand.poles)


def test_candidate_gates():
    with pytest.raises(TheoremRangeError):
        build_candidate_unweighted(FixedPoleClass(3, 3.0))
    with pytest.raises(TheoremRangeError):
        build_candidate_unweighted(FixedPoleClass(4, 1.2))
    # a > 1 + 1/n, strictly, for the candidate and the lambda bounds
    for n in (4, 8):
        a_min = 1.0 + 1.0 / n
        at, above = FixedPoleClass(n, a_min), FixedPoleClass(n, math.nextafter(a_min, math.inf))
        for fn in (build_candidate_unweighted, lambda_bounds):
            with pytest.raises(TheoremRangeError):
                fn(at)
            assert fn(above) is not None


@pytest.mark.parametrize("n,a", [(233, 10.0), (237, 10.0), (265, 7.0), (269, 7.0)])
def test_f_of_a_beyond_double_double_range(n, a):
    # T_n(a) is a float here, but T_n(a)/n overflowed the double-double
    # splitter that f(a) once used: f(a) came out NaN, then was refused
    cls = FixedPoleClass(n, a)
    assert math.isfinite(cls.tn)
    assert cls.fa == _rounded_difference(cls.tn, n, cls.tn2)
    assert build_candidate_unweighted(cls).fa == cls.fa
    assert 0.0 < witness_ratio_empirical(n, a, 2) < 1.0


def _fa_sweep_degrees(a):
    """n from 4 while T_n(a) is a float; at a = 1.05 (n to 2256) every
    fifth n and the last ten, as each eval_cheb there runs n steps."""
    lo, hi = 4, 4096  # T_lo(a) is a float, T_hi(a) is not; bisect
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            FixedPoleClass(mid, a).tn
            lo = mid
        except DomainError:
            hi = mid
    ns = list(range(4, hi))
    return ns if a > 1.1 else sorted(set(ns[::5] + ns[-10:]))


def _rounded_difference(tn, n, tn2):
    """tn/n - tn2/(n - 2), correctly rounded, by way of decimal: at 1000
    digits the numerator over n(n - 2) is exact, and the one division is
    exact wherever the quotient is a float midpoint, else far from one."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1000
        num = decimal.Decimal(tn) * (n - 2) - decimal.Decimal(tn2) * n
        return float(num / (n * (n - 2)))


# the last n where T_n(a) is a float; the double-double f(a) first
# overflowed at n = 233 for a = 10, 265 for a = 7 and 396 for a = 3
_FA_LAST_N = {1.05: 2256, 1.2: 1141, 1.5: 738, 2.0: 539, 3.0: 403, 5.0: 309, 7.0: 269,
              10.0: 237}


@pytest.mark.parametrize("a", sorted(_FA_LAST_N))
def test_f_of_a_is_the_rounded_exact_difference(a):
    ns = _fa_sweep_degrees(a)
    assert ns[-1] == _FA_LAST_N[a]
    for n in ns:
        cls = FixedPoleClass(n, a)
        assert math.isfinite(cls.fa) and cls.fa == _rounded_difference(cls.tn, n, cls.tn2), n
        # the same bits as the double-double form it replaced, where that was finite
        dd = _dd.dd_to_float(_dd.dd_sub(_dd.dd_div((cls.tn, 0.0), (float(n), 0.0)),
                                        _dd.dd_div((cls.tn2, 0.0), (float(n - 2), 0.0))))
        assert dd == cls.fa or not math.isfinite(dd), n
    with pytest.raises(DomainError):
        FixedPoleClass(ns[-1] + 1, a).fa


@pytest.mark.parametrize("n", [1, 2])
def test_f_of_a_needs_degree_three(n):
    # f divides T_(n-2) by n - 2: n = 2 once raised a raw ZeroDivisionError,
    # and n = 1 a DomainError about degree -1
    with pytest.raises(DomainError, match=rf"f\(a\) .* needs n >= 3, got n={n}$"):
        FixedPoleClass(n, 3.0).fa


@pytest.mark.parametrize("a,ns,first_out", [(3.0, (396, 402), 403), (10.0, (233, 237), 238)])
def test_candidate_and_bracket_to_the_end_of_the_float_range(a, ns, first_out):
    for n in ns:
        cls = FixedPoleClass(n, a)
        assert build_candidate_unweighted(cls).fa == cls.fa
        lower, upper, _ = dvp_bracket(cls)
        assert 0.0 < lower <= upper
    # at a = 3, n = 403, T_n(a) is a float but the Newton run's w^n is not;
    # at a = 10, n = 238, T_n(a) overflows
    for fn in (build_candidate_unweighted, dvp_bracket):
        with pytest.raises(DomainError):
            fn(FixedPoleClass(first_out, a))


def test_candidate_residual_gate_across_grid():
    for n in range(4, 129):
        for a in (2.0, 3.0, 5.0, 1.0 + 1.0 / n + 1e-3):
            cand = build_candidate_unweighted(FixedPoleClass(n, a))
            fa = cand.fa
            for z in cand.poles:
                fz = (
                    eval_cheb(T, n, z) / n
                    - eval_cheb(T, n - 2, z) / (n - 2)
                )
                q = 0.5 * (fz - fa)
                scale = max(1.0, abs(eval_cheb(T, n - 1, z)))
                assert abs(q) <= 1e-10 * scale


def _q_roots_exact(n, a, poles, mpmath):
    """The exact roots of Q = (f - f(a))/2 at 60 digits, one per float pole:
    Newton on Q in the Joukowski variable from each pole's w, |w| > 1."""
    big_a = mpmath.mpf(a)
    r = big_a + mpmath.sqrt(big_a * big_a - 1)

    def f(w):
        return (w**n + w**-n) / (2 * n) - (w ** (n - 2) + w ** (2 - n)) / (2 * (n - 2))

    fa = f(r)
    roots = []
    for z in poles:
        x = mpmath.mpc(z.real, z.imag)
        w = x + mpmath.sqrt(x - 1) * mpmath.sqrt(x + 1)
        for _ in range(60):
            dq = (w ** (n - 1) - w ** (-n - 1) - w ** (n - 3) + w ** (1 - n)) / 4
            step = (f(w) - fa) / 2 / dq
            w -= step
            if abs(step) < mpmath.mpf(10) ** -50 * abs(w):
                break
        roots.append((w + 1 / w) / 2)
    return roots


@pytest.mark.parametrize("n", [48, 128])
@pytest.mark.parametrize("a", [2.0, 3.0, 5.0])
def test_closed_forms_match_mpmath_at_high_degree(n, a):
    mpmath = pytest.importorskip("mpmath")
    eps = sys.float_info.epsilon
    cls = FixedPoleClass(n, a)
    with mpmath.workdps(60):
        # candidate poles: n distinct exact roots of the degree-n Q, so all of them
        cand = build_candidate_unweighted(cls)
        exact = _q_roots_exact(n, a, cand.poles, mpmath)
        assert min(abs(p - q) for i, p in enumerate(exact) for q in exact[i + 1:]) > 1e-3
        for z, e in zip(cand.poles, exact):
            assert abs(mpmath.mpc(z.real, z.imag) - e) <= 4 * eps * abs(e)
        ell = mpmath.acosh(mpmath.mpf(a))

        def rel(got, want):
            return abs(mpmath.mpf(got) - want) / abs(want)

        # alternance values: sqrt(1-x^2) n U_{n-1}(x) / (T_n(x) - T_n(a)) at
        # the same float x, = n sin(n t) / (cos(n t) - cosh(n ell)), x = cos t
        rep, _ = alternance_points_weighted(cls)
        for x, v in zip(rep.points, rep.values):
            t = mpmath.acos(mpmath.mpf(x))
            assert rel(v, n * mpmath.sin(n * t) / (mpmath.cos(n * t) - mpmath.cosh(n * ell))) <= 1e-14
        # the bracket's lower end: min |T_{n-1}(x) / ((f(x) - f(a))/2)| over
        # the float points cos(k pi/(n-1)) the bracket reads
        points = np.sin(np.pi * (n - 1 - 2 * np.arange(n)) / (2 * (n - 1)))
        fa = mpmath.cosh(n * ell) / n - mpmath.cosh((n - 2) * ell) / (n - 2)
        lows = []
        for x in points.tolist():
            t = mpmath.acos(mpmath.mpf(x))
            fx = mpmath.cos(n * t) / n - mpmath.cos((n - 2) * t) / (n - 2)
            lows.append(abs(mpmath.cos((n - 1) * t) / ((fx - fa) / 2)))
        assert rel(dvp_bracket(cls).lower, min(lows)) <= 1e-14


def test_lambda_bounds_4_3_integer_oracle():
    # T_4(3) = 577, T_2(3) = 17 by exact integer recurrence
    assert tn_int(4, 3) == 577 and tn_int(2, 3) == 17
    lb = lambda_bounds(FixedPoleClass(4, 3.0))
    assert lb.lower == pytest.approx(8.0 / 546.0, rel=1e-15)
    assert lb.upper == pytest.approx(8.0 / 540.0, rel=1e-15)
    assert lb.lower < lb.upper


def test_lambda_bounds_large_a():
    lb = lambda_bounds(FixedPoleClass(4, 1e4))
    assert 0.0 < lb.lower <= lb.upper < 1e-12


def test_pole_annulus_4_3():
    rep = verify_pole_annulus(FixedPoleClass(4, 3.0))
    assert rep.t == pytest.approx(3.0 * (3.0 * 2.0) ** -0.25, rel=1e-15)
    assert rep.all_in_closure_ea
    assert rep.all_outside_et
    assert rep.min_abs_pole == pytest.approx(math.sqrt(7.5), rel=1e-12)
    assert rep.min_abs_pole > 1.0
    # semi-minor of E_t below the imaginary pole modulus
    assert math.sqrt(rep.t**2 - 1.0) < math.sqrt(7.5)


def test_pole_annulus_degenerate_t():
    # a = 1.3 > 1 + 1/4 but t = 1.3 * 6^(-1/4) < 1: outside-check not applicable
    rep = verify_pole_annulus(FixedPoleClass(4, 1.3))
    assert rep.t < 1.0
    assert rep.all_outside_et is None
    assert rep.et_residuals is None


# ---------------------------------------------------------------- dvp bracket

def test_dvp_bracket_4_3():
    # lower = min_k |rho(a_k)| at a_k = cos(k pi/3) = {±1, ±1/2}; by hand
    # rho = 2 T_3 / (2x^4 - 3x^2 - 135 - ...): |rho(±1)| = 2/136, |rho(±1/2)| = 2/135.625
    br = dvp_bracket(FixedPoleClass(4, 3.0))
    assert br.lower == pytest.approx(1.0 / 68.0, rel=1e-12)
    lb = lambda_bounds(FixedPoleClass(4, 3.0))
    assert lb.lower * (1 - 1e-6) <= br.lower <= br.upper <= lb.upper * (1 + 1e-6)
    assert br.lower <= br.upper
    # grid oracle for the upper end
    cand = build_candidate_unweighted(FixedPoleClass(4, 3.0))
    xs = np.linspace(-1.0, 1.0, 200_001)
    grid_max = np.max(np.abs(cand.values_on(xs)))
    assert grid_max <= br.upper * (1 + 1e-9)
    assert br.upper == pytest.approx(grid_max, rel=1e-8)
    # weak-equivalence ratio reported against 2n/(T_n - T_{n-2})
    assert br.weak_equiv_ratio == pytest.approx(br.upper * (577 - 17) / 8.0, rel=1e-15)


def test_dvp_bracket_raises_when_inverted(monkeypatch):
    cls = FixedPoleClass(8, 3.0)
    br = dvp_bracket(cls)
    monkeypatch.setattr(
        extremal, "sup_norm",
        lambda rho, cfg=DEFAULTS: NormEstimate(0.5 * br.lower, 0.0, False, cfg.supnorm_xtol),
    )
    with pytest.raises(ToleranceNotMetError, match="inverted") as info:
        dvp_bracket(cls)
    assert info.value.best.lower == br.lower
    assert info.value.best.upper == 0.5 * br.lower


def test_dvp_bracket_gates():
    with pytest.raises(TheoremRangeError):
        dvp_bracket(FixedPoleClass(3, 3.0))
    with pytest.raises(TheoremRangeError):
        dvp_bracket(FixedPoleClass(4, 1.5))  # below sqrt(2)*(3 sqrt n)^(1/n)
    for n in (4, 8):
        a_min = corollary_min_a(n)
        with pytest.raises(TheoremRangeError):
            dvp_bracket(FixedPoleClass(n, a_min))
        br = dvp_bracket(FixedPoleClass(n, math.nextafter(a_min, math.inf)))
        assert br.lower <= br.upper


SEPARATION_FAULT = "poles not pairwise distinct"
DISK_FAULT = "|z_k| <= 1 for some pole"


@pytest.mark.parametrize("poles,faults", [
    ((2.0, 2.0 + 1e-12, -3.0, 4.0), [SEPARATION_FAULT]),
    ((complex(0.3, 0.5), complex(0.3, -0.5), -3.0, 4.0), [DISK_FAULT]),
    ((2.0, 2.0 + 1e-12, complex(0.3, 0.5), complex(0.3, -0.5)), [SEPARATION_FAULT, DISK_FAULT]),
])
def test_dvp_bracket_names_each_failed_pole_hypothesis(monkeypatch, capsys, poles, faults):
    # no candidate in the theorem's range fails the hypotheses, so stand one in
    monkeypatch.setattr(extremal, "build_candidate_unweighted",
                        lambda cls, cfg=DEFAULTS: LogDerivative(poles))
    reasons = _check_pole_hypotheses(LogDerivative(poles), DEFAULTS)
    assert [r.split(" (")[0] for r in reasons] == faults
    with pytest.raises(TheoremRangeError) as info:
        dvp_bracket(FixedPoleClass(4, 3.0))
    assert str(info.value) == "bracket hypotheses fail at n=4, a=3.0: " + "; ".join(reasons)
    # the CLI reports the bracket as unavailable and still succeeds
    code = main(["candidate", "--n", "4", "--a", "3", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert f"deviation bracket unavailable: {info.value}" in data["diagnostics"]
    assert "bracket" not in data["outputs"]


# ---------------------------------------------------------------- eval_ld

def test_eval_ld_examples():
    assert eval_ld(LogDerivative((2.0,)), 0.0) == -0.5
    assert eval_ld(LogDerivative((2.0, -2.0)), 0.0) == 0.0
    assert eval_ld(LogDerivative((1j, -1j)), 1.0) == 1.0  # 2*1/|1-i|^2


def test_eval_ld_pole_proximity_error():
    with pytest.raises(EvaluationError):
        eval_ld(LogDerivative((2.0,)), 2.0 + 5e-15)


@pytest.mark.filterwarnings("error")
def test_values_on_at_a_pole_raises_like_eval_ld():
    rho = LogDerivative((2.0, 1 + 1j, 1 - 1j))
    for x in (np.array([2.0]), np.array([0.0, 2.0, 1.0])):
        with pytest.raises(EvaluationError, match="at x = 2.0"):
            rho.values_on(x)
        with pytest.raises(EvaluationError):
            eval_ld(rho, x)
    with pytest.raises(EvaluationError, match="at x = nan"):
        rho.values_on(np.array([math.nan]))


def eval_ld_reference(rho, x):
    """Reference: the scalar compensated pole sum at one point."""
    tol = DEFAULTS.pole_proximity_tol
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"non-finite evaluation point {x!r}")
    for z in rho.poles:
        if abs(complex(x, 0.0) - z) <= tol:
            raise EvaluationError(f"evaluation point {x} is within {tol} of pole {z}")
    acc = (0.0, 0.0)
    for r in rho._reals:
        acc = _dd.dd_add(acc, _dd.dd_div((1.0, 0.0), _dd.two_diff(x, r)))
    for u, v in rho._pairs:
        d = _dd.two_diff(x, u)
        den = _dd.dd_add(_dd.dd_sqr(d), _dd.two_prod(v, v))
        acc = _dd.dd_add(acc, _dd.dd_div((2.0 * d[0], 2.0 * d[1]), den))
    return _dd.dd_to_float(acc)


def ld_outcome(fn):
    try:
        return [float(v).hex() for v in fn()]
    except DomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(reals=st.lists(st.floats(-3.0, 3.0), max_size=5),
       pairs=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(1e-3, 3.0)), max_size=5),
       xs=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([math.nan, -math.inf])),
                   min_size=1, max_size=10),
       hit=st.integers(-1, 9))
def test_eval_ld_array_matches_per_point_loop(reals, pairs, xs, hit):
    poles = [complex(r) for r in reals]
    for u, v in pairs:
        poles += [complex(u, v), complex(u, -v)]
    assume(poles)
    rho = LogDerivative(tuple(poles))
    if 0 <= hit < len(xs) and reals:
        xs[hit] = reals[0] + 5e-15  # within the proximity gate of a pole
    got = ld_outcome(lambda: eval_ld(rho, np.array(xs)))
    assert got == ld_outcome(lambda: [eval_ld_reference(rho, x) for x in xs])
    tol = DEFAULTS.pole_proximity_tol
    ok = [x for x in xs if math.isfinite(x) and all(abs(complex(x) - z) > tol for z in poles)]
    for x in ok[:3]:
        assert eval_ld(rho, x).hex() == eval_ld_reference(rho, x).hex()


def test_eval_ld_reports_the_first_bad_point():
    rho = LogDerivative((2.0, -0.5))
    with pytest.raises(EvaluationError, match="point -0.5 is within"):
        eval_ld(rho, np.array([0.0, -0.5, math.nan]))
    with pytest.raises(DomainError, match="non-finite evaluation point nan"):
        eval_ld(rho, np.array([0.0, math.nan, -0.5]))


def test_eval_ld_shapes():
    rho = LogDerivative((2.0, complex(0.5, 1.0), complex(0.5, -1.0)))
    assert type(eval_ld(rho, 0.25)) is float
    assert type(eval_ld(rho, np.float64(0.25))) is float
    got = eval_ld(rho, np.array([0.25, -0.5]))
    assert isinstance(got, np.ndarray) and got.shape == (2,)
    assert got[0] == eval_ld(rho, 0.25)
    assert eval_ld(rho, np.array([])).shape == (0,)
    with pytest.raises(DomainError, match="1-D"):
        eval_ld(rho, np.zeros((2, 2)))


def test_log_derivative_validation():
    with pytest.raises(DomainError):
        LogDerivative(())
    with pytest.raises(DomainError):
        LogDerivative((1j,))  # not conjugate-closed
    with pytest.raises(DomainError):
        LogDerivative((complex(1, 2), complex(1.5, -2)))


def test_representation_identity():
    # pole-sum (compensated) vs n U_{n-1} / (T_n - T_n(a)); binary64 pole
    # storage limits this to moderate T_n(a), see decisions ledger
    rng = np.random.default_rng(202)
    for n in (1, 2, 4, 6, 8):
        for a in (1.5, 2.0) + ((3.0,) if n <= 6 else ()):
            rho = build_extremal_weighted(FixedPoleClass(n, a), force=True)
            xs = rng.uniform(-0.999, 0.999, 200)
            rational = rho.values_on(xs)
            keep = np.abs(rational) >= 0.3 * rho.level
            for x, expect in zip(xs[keep], rational[keep]):
                got = eval_ld(rho, float(x))
                assert abs(got - expect) <= 1e-11 * abs(expect)


def test_local_optimality_small():
    rng = np.random.default_rng(5)
    cls = FixedPoleClass(4, 2.0)
    rho = build_extremal_weighted(cls)
    closed = extremal_weighted_norm(cls)
    pairs = sorted(set((z.real, abs(z.imag)) for z in rho.poles if z.imag > 0.0))
    for _ in range(60):
        delta = 10.0 ** rng.uniform(-3, -1)
        poles = [complex(2.0, 0.0), complex(-2.0 * (1 + delta * rng.uniform(-1, 1)), 0.0)]
        for u, v in pairs:
            z = complex(u * (1 + delta * rng.uniform(-1, 1)), v * (1 + delta * rng.uniform(-1, 1)))
            poles += [z, z.conjugate()]
        perturbed = LogDerivative(tuple(poles[: rho.degree]))
        assert weighted_sup_norm(perturbed).value >= closed - 1e-9


def test_scaling_covariance():
    # ||rho||_{[nu-mu, nu+mu]} = mu^{-1} ||rho(mu x + nu)||_{[-1,1]}
    base = LogDerivative((4.0, complex(0.5, 1.5), complex(0.5, -1.5)))
    xs = np.linspace(-1.0, 1.0, 400_001)
    for mu in (0.5, 2.0):
        for nu in (0.0, 1.0):
            ys = mu * xs + nu
            direct = np.max(np.abs(base.values_on(ys)))
            mapped = LogDerivative(tuple((z - nu) / mu for z in base.poles))
            assert sup_norm(mapped).value / mu == pytest.approx(direct, rel=1e-6)


# ---------------------------------------------------------------- pole-sum kernel

def loop_pole_sums(x, reals, pairs):
    """Reference: one pole at a time, the term formulas of the kernel."""
    rho = np.zeros_like(x)
    for r in reals:
        rho += 1.0 / (x - r)
    for u, v in pairs:
        d = x - u
        rho += 2.0 * d / (d * d + v * v)
    return rho


def kernel_form(reals, pairs):
    """The poles as pole_sums reads them: a column of the reals and pair
    centres, and one of the pairs' v^2."""
    v = np.array([v for _, v in pairs], dtype=float).reshape(-1, 1)
    return np.array([*reals, *(u for u, _ in pairs)], dtype=float).reshape(-1, 1), v * v


real_poles = st.one_of(st.floats(1.05, 5.0), st.floats(-5.0, -1.05))
many_reals = [1.5, -2.0, 3.25, -1.1, 4.0, 2.2, -3.3, 1.05, -4.75]


@settings(max_examples=50, deadline=None)
@given(reals=st.lists(real_poles, max_size=20),
       pairs=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.05, 3.0)), max_size=20),
       m=st.integers(1, 40))
@example(reals=many_reals, pairs=[(0.5, 0.25), (-1.5, 2.0)], m=1)  # one point, 11 rows
@example(reals=[], pairs=[], m=3)  # no poles
@example(reals=[], pairs=[(0.0, 1.0), (0.0, 2.0)], m=2)  # -0.0 terms at x = -0.0
def test_pole_sums_match_per_pole_loop(reals, pairs, m):
    # a single point is summed apart from a grid (numpy would pair its
    # terms up), so it is checked as a 1-point array and as a 0-d x; an
    # empty x has no points at all.  At x = -0.0 a pair centred at 0 gives
    # the term -0.0, and a sum from +0.0 must still read +0.0.
    grid = np.cos(np.linspace(0.0, math.pi, m))
    for x in (grid, grid[0], grid[:0], np.array([-0.0]), np.array([-0.0, -0.0])):
        want, got = loop_pole_sums(x, reals, pairs), pole_sums(x, *kernel_form(reals, pairs))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(reals=st.lists(real_poles, max_size=20),
       pairs=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.05, 3.0)), max_size=20),
       step=st.integers(1, 5), blocks=st.integers(0, 8))
@example(reals=many_reals, pairs=[(0.5, 0.25), (-1.5, 2.0)], step=4, blocks=2)
@example(reals=[], pairs=[], step=2, blocks=3)  # no poles
def test_pole_sums_blocks_keep_bits(reals, pairs, step, blocks):
    # a workspace of `step` points' rows splits a grid of blocks * step + 1
    # points into full blocks and a last block of one point; the same bits
    # as one pole at a time, with shared poles and with poles per point
    nr, npairs = len(reals), len(pairs)
    grid = np.cos(np.linspace(0.0, math.pi, blocks * step + 1))
    # point i: the first i % (nr + 1) reals and i % (npairs + 1) pairs, moved
    # by 1e-3 i, padded as minimax._residuals pads them
    centres, vv = np.full((grid.size, nr + npairs), math.inf), np.full((grid.size, npairs), math.inf)
    centres[:, nr:] = 0.0
    per_point = []
    for i, x in enumerate(grid):
        ri = [r + 1e-3 * i for r in reals[:i % (nr + 1)]]
        pi = [(u + 1e-3 * i, v) for u, v in pairs[:i % (npairs + 1)]]
        centres[i, :len(ri)] = ri
        centres[i, nr:nr + len(pi)] = [u for u, _ in pi]
        vv[i, :len(pi)] = [v * v for _, v in pi]
        per_point.append(loop_pole_sums(grid[i:i + 1], ri, pi))
    with mock.patch.object(extremal, "_WORKSPACE", max(nr + 2 * npairs, 1) * step):
        for x in (grid, grid[:-1], grid[0], grid[:0]):
            want, got = loop_pole_sums(x, reals, pairs), pole_sums(x, *kernel_form(reals, pairs))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        got = pole_sums(grid, centres.T, vv.T)
        assert got.tobytes() == np.concatenate(per_point).tobytes()


@pytest.mark.filterwarnings("error")
def test_values_on_workspace_is_bounded():
    # degree 256 on its 7,680-point scan grid: the blocks share one
    # workspace, so the peak stays near it and the output, not O(n * points)
    rng = np.random.default_rng(256)
    poles = [complex(2.5), complex(-1.5)]
    for u, v in zip(rng.uniform(-1.5, 1.5, 127), rng.uniform(0.05, 1.0, 127)):
        poles += [complex(u, v), complex(u, -v)]
    rho = LogDerivative(tuple(poles))
    grid = extremal._norm_grid(256, DEFAULTS)
    assert grid.size == 7680
    tracemalloc.start()
    try:
        y = rho.values_on(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * extremal._WORKSPACE * 8 + y.nbytes


def test_cached_pole_arrays():
    rho = LogDerivative((2.0, complex(0.5, 1.5), -3.0, complex(0.5, -1.5)))
    same = LogDerivative((complex(0.5, -1.5), -3.0, complex(0.5, 1.5), 2.0))
    # the arrays are not fields: equality, hash and repr see the poles only
    assert rho == same and hash(rho) == hash(same)
    assert repr(rho) == f"LogDerivative(poles={rho.poles!r})"
    assert rho._reals.tolist() == [-3.0, 2.0] and rho._pairs.tolist() == [[0.5, 1.5]]
    centres, vv = rho._columns
    assert centres.tolist() == [[-3.0], [2.0], [0.5]] and vv.tolist() == [[2.25]]
    for arr in (rho._reals, rho._pairs, rho._zs, centres, vv):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    moved = replace(rho, poles=(4.0, complex(-1.0, 2.0), complex(-1.0, -2.0)))
    assert moved._reals.tolist() == [4.0] and moved._pairs.tolist() == [[-1.0, 2.0]]
    assert not moved._reals.flags.writeable and not moved._pairs.flags.writeable
    x = np.linspace(-1.0, 1.0, 5)
    assert moved.values_on(x).tobytes() == LogDerivative(moved.poles).values_on(x).tobytes()
    assert rho.values_on(x).tobytes() == same.values_on(x).tobytes()
