"""Derivative lower bounds and their asymptotic-precision witnesses."""

import dataclasses
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplefrac import bernstein
from simplefrac._optim import supremum_on_grid
from simplefrac.bernstein import (
    CorollaryReport,
    RootedPolynomial,
    asymptotic_ratios,
    check_corollary,
    corollary_min_a,
    random_rooted_polynomial,
    witness_ratio_empirical,
)
from simplefrac.cheb import ChebKind, eval_cheb
from simplefrac.config import DEFAULTS
from simplefrac.errors import DomainError, TheoremRangeError, ToleranceNotMetError
from simplefrac.extremal import FixedPoleClass, _norm_grid, _weight, build_extremal_weighted


def witness_first_kind(n, a):
    """The shifted Chebyshev witness T_n(x) - T_n(a) as a rooted polynomial
    (roots via the closed-form construction, leading coefficient 2^(n-1))."""
    rho = build_extremal_weighted(FixedPoleClass(n, a), force=True)
    cof = [z for z in rho.poles if z != complex(a, 0.0)]
    return RootedPolynomial(a=a, cofactor_roots=tuple(cof), lead=2.0 ** (n - 1))


def check_corollary_reference(poly, cfg=DEFAULTS):
    """Reference: one engine scan per extremal quantity, three in all."""
    tol = cfg.supnorm_xtol
    n = poly.n
    grid = _norm_grid(n, cfg)
    lhs_w, _ = supremum_on_grid(
        lambda x: np.abs(poly.value_and_derivative(x)[1]) * _weight(x), grid, tol)
    lhs_u, _ = supremum_on_grid(lambda x: np.abs(poly.value_and_derivative(x)[1]), grid, tol)
    neg_min, _ = supremum_on_grid(lambda x: -np.abs(poly.value_and_derivative(x)[0]), grid, tol)
    min_abs_p = -neg_min
    tn = eval_cheb(ChebKind.FIRST_KIND, n, poly.a)
    tn2 = eval_cheb(ChebKind.FIRST_KIND, n - 2, poly.a) if n >= 2 else 1.0
    rhs_w = n * min_abs_p / math.sqrt((tn - 1.0) * (tn + 1.0))
    rhs_u = 2.0 * n * min_abs_p / (tn - tn2 + 3.0)
    return CorollaryReport(lhs_w=lhs_w, rhs_w=rhs_w, lhs_u=lhs_u, rhs_u=rhs_u,
                           both_hold=(lhs_w >= rhs_w) and (lhs_u >= rhs_u),
                           min_abs_p=min_abs_p)


def witness_one_reference(n, a, cfg=DEFAULTS):
    """Reference: the first witness ratio from two separate scans."""
    tol = cfg.supnorm_xtol
    grid = _norm_grid(n, cfg)
    tna = eval_cheb(ChebKind.FIRST_KIND, n, a)
    lhs_w, _ = supremum_on_grid(
        lambda x: n * np.abs(np.sin(n * np.arccos(np.clip(x, -1.0, 1.0)))), grid, tol)
    neg_min, _ = supremum_on_grid(
        lambda x: -np.abs(np.cos(n * np.arccos(np.clip(x, -1.0, 1.0))) - tna), grid, tol)
    return n * -neg_min / math.sqrt((tna - 1.0) * (tna + 1.0)) / lhs_w


def hexed(fn):
    """Fields or value as float.hex, or the error's type, message and best."""
    try:
        out = fn()
    except ToleranceNotMetError as exc:
        return type(exc), str(exc), [float(b).hex() for b in exc.best]
    if dataclasses.is_dataclass(out):
        return [v if isinstance(v, bool) else float(v).hex() for v in dataclasses.astuple(out)]
    return float(out).hex()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), a=st.sampled_from([1.5, 2.0, 2.5, 3.0, 5.0]),
       seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([None, 1e-6, 1e-17]))
def test_one_scan_corollary_matches_three_scans(n, a, seed, tol):
    poly = random_rooted_polynomial(n, a, np.random.default_rng(seed))
    cfg = DEFAULTS if tol is None else replace(DEFAULTS, supnorm_xtol=tol)
    got = hexed(lambda: check_corollary(poly, cfg=cfg))
    assert got == hexed(lambda: check_corollary_reference(poly, cfg))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 90), a=st.floats(1.05, 8.0), tol=st.sampled_from([None, 1e-6, 1e-17]))
def test_one_scan_first_witness_matches_two_scans(n, a, tol):
    # the witness reads min |P| = T_n(a) - 1 where the reference scans the
    # min row, which is flat in floats and at xtol 1e-17 may fail to converge
    cfg = DEFAULTS if tol is None else replace(DEFAULTS, supnorm_xtol=tol)
    grid, tna = _norm_grid(n, cfg), eval_cheb(ChebKind.FIRST_KIND, n, a)
    got = hexed(lambda: witness_ratio_empirical(n, a, 1, cfg=cfg))
    want = hexed(lambda: witness_one_reference(n, a, cfg))
    neg_min = hexed(lambda: supremum_on_grid(
        lambda x: -np.abs(np.cos(n * np.arccos(np.clip(x, -1.0, 1.0))) - tna),
        grid, cfg.supnorm_xtol)[0])
    if isinstance(neg_min, str):
        assert neg_min == (-(tna - 1.0)).hex()  # whenever the min-row scan returns
    if isinstance(want, str) or isinstance(got, tuple):
        assert got == want  # the reference returns, or both raise
    else:
        # only the reference raises, at its min-row scan
        assert isinstance(neg_min, tuple)
        lhs_w, _ = supremum_on_grid(
            lambda x: n * np.abs(np.sin(n * np.arccos(np.clip(x, -1.0, 1.0)))),
            grid, cfg.supnorm_xtol)
        assert got == (n * (tna - 1.0) / math.sqrt((tna - 1.0) * (tna + 1.0)) / lhs_w).hex()


def witness_two_reference(n, a, cfg=DEFAULTS):
    """Reference: the second witness ratio with min |Q| from a scan of -|Q|."""
    fa = FixedPoleClass(n, a).fa

    def neg_absq(x):
        theta = np.arccos(np.clip(x, -1.0, 1.0))
        fx = np.cos(n * theta) / n - np.cos((n - 2) * theta) / (n - 2)
        return -np.abs(0.5 * (fx - fa))

    neg_min, _ = supremum_on_grid(neg_absq, _norm_grid(n, cfg), cfg.supnorm_xtol)
    tn = eval_cheb(ChebKind.FIRST_KIND, n, a)
    tn2 = eval_cheb(ChebKind.FIRST_KIND, n - 2, a)
    return 2.0 * n * -neg_min / (tn - tn2 + 3.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 90), a=st.floats(1.05, 8.0, exclude_max=True),
       tol=st.sampled_from([None, 1e-6, 1e-17]))
@example(n=9, a=1.05078125, tol=None)  # the closed form is 5 ulp above the scan
def test_second_witness_closed_form_against_scan(n, a, tol):
    # a scan can only underestimate max f, so overestimate the ratio; only
    # one-sided, as where Q has a root on the segment the scan's min |Q| is
    # about xtol |Q'|.  Both sides round f(a) and max f, whose difference
    # cancels as a -> 1, so the slack is that rounding carried through to the
    # ratio, and 2 ulp where the cancellation is mild.
    cfg = DEFAULTS if tol is None else replace(DEFAULTS, supnorm_xtol=tol)
    got = witness_ratio_empirical(n, a, 2, cfg=cfg)
    try:
        want = witness_two_reference(n, a, cfg)
    except ToleranceNotMetError:
        return
    slack = 2 * math.ulp(want)
    if got > 0.0:  # so f(a) > max f, taken as the witness takes it
        fa = FixedPoleClass(n, a).fa
        theta = np.pi * np.append(np.arange(1, 2 * n - 2, 2) / (2 * n - 2), (0.0, 1.0))
        fmax = float(np.max(np.cos(n * theta) / n - np.cos((n - 2) * theta) / (n - 2)))
        slack = max(slack, got * np.finfo(float).eps * (abs(fa) + abs(fmax)) / (fa - fmax))
    assert got <= want + slack


@pytest.mark.parametrize("n", [4, 8, 16, 30, 63, 64, 128])
@pytest.mark.parametrize("a", [1.05, 1.1, 1.5, 2.0, 3.0, 5.0])
def test_second_witness_closed_form_against_mpmath(n, a):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        def f(theta, trig=mp.cos):  # T_n/n - T_{n-2}/(n-2) at cos theta (cosh theta)
            return trig(n * theta) / n - trig((n - 2) * theta) / (n - 2)

        # f' = 2 T_{n-1}: max f is at a zero of T_{n-1} or at +-1
        fmax = max(f(mp.pi * k / (2 * n - 2)) for k in [*range(1, 2 * n - 2, 2), 0, 2 * n - 2])
        q = max(0, f(mp.acosh(a), mp.cosh) - fmax) / 2
        tn, tn2 = (mp.cosh(k * mp.acosh(a)) for k in (n, n - 2))
        exact = float(2 * n * q / (tn - tn2 + 3))
    assert abs(witness_ratio_empirical(n, a, 2) - exact) <= 2 * math.ulp(exact)


def test_second_witness_vanishes_when_f_of_a_is_below_max_f():
    # f = 2x^4 - 3x^2 + 3/4 peaks at 3/4 (x = 0) above f(1.2) = 0.5772, so Q
    # has a root on the segment
    assert witness_ratio_empirical(4, 1.2, 2) == 0.0


@pytest.mark.parametrize("fn, args", [
    (witness_ratio_empirical, (0, 3.0, 1)),
    (witness_ratio_empirical, (4, 1.0, 1)),
    (witness_ratio_empirical, (4, 0.5, 1)),
    (witness_ratio_empirical, (4, 0.5, 2)),
    (witness_ratio_empirical, (4, -3.0, 2)),
    (corollary_min_a, (0,)),
    (corollary_min_a, (-2,)),
    (corollary_min_a, (2.5,)),
])
def test_witness_and_threshold_inputs_raise_domain_error(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_witness_index_is_checked_before_the_class():
    # T_404(3) overflows a float; an invalid index is named before that
    with pytest.raises(DomainError, match="witness index must be 1 or 2, got 7"):
        witness_ratio_empirical(404, 3.0, 7)
    with pytest.raises(DomainError, match="witness index must be 1 or 2, got 0"):
        witness_ratio_empirical(0, 0.5, 0)
    for which in (1, 2):
        with pytest.raises(DomainError, match="T_404 out of range at z = 3.0"):
            witness_ratio_empirical(404, 3.0, which)


def test_shifted_cheb_degree_two_example():
    # P = T_2 - 7 = 2(x-2)(x+2): below the n >= 4 gate, so force
    poly = RootedPolynomial(a=2.0, cofactor_roots=(-2.0,), lead=2.0, force=True)
    rep = check_corollary(poly)
    assert rep.lhs_w == pytest.approx(2.0, abs=1e-10)  # ||4x sqrt(1-x^2)|| at 1/sqrt 2
    assert rep.rhs_w == pytest.approx(12.0 / math.sqrt(48.0), rel=1e-12)
    assert rep.min_abs_p == pytest.approx(6.0, abs=1e-12)
    assert rep.both_hold


def test_rooted_polynomial_gates():
    with pytest.raises(TheoremRangeError):
        RootedPolynomial(a=2.0, cofactor_roots=(-2.0,), lead=2.0)  # n = 2 < 4
    with pytest.raises(TheoremRangeError):
        RootedPolynomial(a=1.5, cofactor_roots=(-3.0, 2j, -2j))  # a below threshold
    with pytest.raises(DomainError):
        RootedPolynomial(a=3.0, cofactor_roots=(0.5, 2j, -2j))  # root on segment
    with pytest.raises(DomainError):
        RootedPolynomial(a=0.9, cofactor_roots=(-3.0,), force=True)  # a <= 1
    # the gate is a > corollary_min_a(n), strictly
    cofactors = {4: (-3.0, 2j, -2j), 8: (-3.0, 2j, -2j, 3j, -3j, 1 + 2j, 1 - 2j)}
    for n, roots in cofactors.items():
        a_min = corollary_min_a(n)
        with pytest.raises(TheoremRangeError):
            RootedPolynomial(a=a_min, cofactor_roots=roots)
        assert RootedPolynomial(a=math.nextafter(a_min, math.inf), cofactor_roots=roots).n == n


def test_value_and_derivative_against_expansion():
    # P = 3 (x - 2)(x^2 + 1): compare against the expanded cubic
    poly = RootedPolynomial(a=2.0, cofactor_roots=(1j, -1j), lead=3.0, force=True)
    xs = np.linspace(-1.0, 1.0, 101)
    val, der = poly.value_and_derivative(xs)
    expanded = 3.0 * (xs**3 - 2.0 * xs**2 + xs - 2.0)
    expanded_der = 3.0 * (3.0 * xs**2 - 4.0 * xs + 1.0)
    assert np.max(np.abs(val - expanded)) < 1e-12
    assert np.max(np.abs(der - expanded_der)) < 1e-12


def value_and_derivative_reference(poly, x):
    """Reference: the product rule with one allocating step per factor."""
    x = np.asarray(x, dtype=float)
    val, der = np.full_like(x, poly.lead), np.zeros_like(x)
    for r in (poly.a,) + tuple(z.real for z in poly.cofactor_roots if z.imag == 0.0):
        fac = x - r
        der = der * fac + val
        val = val * fac
    for u, v in ((z.real, z.imag) for z in poly.cofactor_roots if z.imag > 0.0):
        d = x - u
        fac = d * d + v * v
        der = der * fac + val * (2.0 * d)
        val = val * fac
    return val, der


def cofactors(draw_reals, draw_pairs):
    """Cofactor roots: real ones off [-1.1, 1.1] and conjugate pairs."""
    roots = [complex(r, 0.0) for r in draw_reals]
    for u, v in draw_pairs:
        roots += [complex(u, v), complex(u, -v)]
    return tuple(roots)


@settings(max_examples=100, deadline=None)
@given(reals=st.lists(st.floats(1.1, 4.0) | st.floats(-4.0, -1.1), max_size=7),
       pairs=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 3.0)), max_size=16),
       lead=st.floats(-4.0, 4.0).filter(lambda v: v != 0.0), a=st.floats(1.05, 4.0),
       xs=st.lists(st.floats(-1.0, 1.0) | st.floats(-5.0, 5.0), min_size=1, max_size=20))
@example(reals=[], pairs=[], lead=1.0, a=2.0, xs=[0.5])  # degree 1
def test_value_and_derivative_matches_per_factor_loop(reals, pairs, lead, a, xs):
    # degrees 1 to 40, at a 0-d x, one point, many points, points off the
    # segment and the scan grid, in one block of points or in blocks of a few:
    # the same bits and shapes as one step per factor
    poly = RootedPolynomial(a=a, cofactor_roots=cofactors(reals, pairs), lead=lead, force=True)
    assert 1 <= poly.n <= 40
    for workspace in (bernstein._WORKSPACE, 150):
        with mock.patch.object(bernstein, "_WORKSPACE", workspace):
            for x in (np.array(xs[0]), np.array(xs[:1]), np.array(xs), np.array([]),
                      _norm_grid(poly.n, DEFAULTS)):
                got = poly.value_and_derivative(x)
                want = value_and_derivative_reference(poly, x)
                for g, w in zip(got, want):
                    assert np.shape(g) == np.shape(w)
                    assert [v.hex() for v in np.ravel(g).tolist()] == [
                        v.hex() for v in np.ravel(w).tolist()]


def test_first_witness_weighted_derivative_norm():
    # the shifted Chebyshev witness has weighted derivative norm exactly n
    rep = check_corollary(witness_first_kind(4, 3.0))
    assert rep.lhs_w == pytest.approx(4.0, abs=1e-9)


def test_asymptotic_ratio_example():
    r = asymptotic_ratios(2, 2.0, force=True)
    assert r.r1 == pytest.approx(math.sqrt(0.75), rel=1e-15)
    assert r.r2_lower is None  # undefined for n = 2
    poly = RootedPolynomial(a=2.0, cofactor_roots=(-2.0,), lead=2.0, force=True)
    rep = check_corollary(poly)
    assert rep.rhs_w / rep.lhs_w == pytest.approx(r.r1, rel=1e-10)


def test_asymptotic_ratio_gates():
    with pytest.raises(TheoremRangeError):
        asymptotic_ratios(3, 3.0)
    with pytest.raises(TheoremRangeError):
        asymptotic_ratios(4, 2.0)  # below corollary_min_a(4) = 2.2134
    assert corollary_min_a(4) == pytest.approx(math.sqrt(2.0) * 6.0**0.25, rel=1e-15)
    for n in (4, 8):
        with pytest.raises(TheoremRangeError):
            asymptotic_ratios(n, corollary_min_a(n))
        assert asymptotic_ratios(n, math.nextafter(corollary_min_a(n), math.inf)).r2_lower > 0.0
    with pytest.raises(DomainError):  # a = 1 lies outside the domain, not the theorem's range
        asymptotic_ratios(4, 1.0)


def test_r1_strictly_increasing_then_both_monotone():
    r1s = [asymptotic_ratios(n, 3.0).r1 for n in range(4, 21)]
    assert all(b > a for a, b in zip(r1s, r1s[1:]))  # strict in {4..20}
    rs = [asymptotic_ratios(n, 3.0) for n in range(4, 31)]
    assert all(b.r1 >= a.r1 for a, b in zip(rs, rs[1:]))
    assert all(b.r2_lower >= a.r2_lower for a, b in zip(rs, rs[1:]))
    assert all(r.r1 <= 1.0 and r.r2_lower <= 1.0 for r in rs)
    assert rs[-1].r1 > 1.0 - 1e-6  # exponential approach


def test_witness_consistency_checks():
    # generic engine reproduces r1 for moderate degrees (root representation)
    for n in (4, 6, 8):
        rep = check_corollary(witness_first_kind(n, 3.0))
        r1 = asymptotic_ratios(n, 3.0).r1
        assert rep.rhs_w / rep.lhs_w == pytest.approx(r1, abs=1e-10)
    # closed-form route holds to machine precision at any degree
    for n in (4, 12, 30):
        assert witness_ratio_empirical(n, 3.0, 1) == pytest.approx(
            asymptotic_ratios(n, 3.0).r1, rel=1e-12
        )


def test_second_witness_unit_derivative_ratio():
    # measured unweighted ratio of the integrated witness approaches 1
    vals = [witness_ratio_empirical(n, 3.0, 2) for n in (4, 8, 16, 30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0.9 and vals[-1] < 1.0


@pytest.mark.parametrize("a", [2.5, 3.0, 5.0])
def test_r2_lower_never_exceeds_measured_witness_ratio(a):
    # r2_lower puts n*max(T_n/n - T_{n-2}/(n-2)) <= 3 into the witness ratio,
    # so it may sit above the measured ratio only by float rounding
    for n in range(4, 31):
        measured = witness_ratio_empirical(n, a, 2)
        assert asymptotic_ratios(n, a).r2_lower <= measured + 4 * math.ulp(measured)
    # n = 4: T_4/4 - T_2/2 = 2x^4 - 3x^2 + 3/4 peaks at 3/4 (x = 0), so 4M = 3
    assert asymptotic_ratios(4, a).r2_lower == pytest.approx(
        witness_ratio_empirical(4, a, 2), rel=1e-12
    )


def test_random_admissible_instances_hold():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(4, 11))
        a = float(rng.choice([2.5, 3.0, 5.0]))
        rep = check_corollary(random_rooted_polynomial(n, a, rng))
        assert rep.both_hold


def test_asymptotic_ratios_past_the_float_range_raise():
    assert asymptotic_ratios(403, 3.0).r1 == 1.0
    with pytest.raises(DomainError, match=r"log \|T_404\(z\)\| = 711\.45"):
        asymptotic_ratios(404, 3.0)


def test_witness_one_and_corollary_past_the_product_overflow():
    # (T_n - 1)(T_n + 1) overflows from T_n(a) of about 1.3e154, n = 202 at
    # a = 3: witness 1 then read 0.0, and NaN for n = 400..403, where
    # n (T_n - 1) overflows too
    for n in range(190, 404):
        r1 = asymptotic_ratios(n, 3.0, force=True).r1
        assert abs(witness_ratio_empirical(n, 3.0, 1) - r1) <= 1e-9, n
    rep = check_corollary(random_rooted_polynomial(210, 3.0, np.random.default_rng(0)))
    assert rep.rhs_w > 0.0 and rep.lhs_w >= rep.rhs_w
