"""Derivative lower bounds and their asymptotic-precision witnesses."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplefrac._optim import supremum_on_grid
from simplefrac.bernstein import (
    CorollaryReport,
    RootedPolynomial,
    asymptotic_ratios,
    check_corollary,
    corollary_min_a,
    random_rooted_polynomial,
    witness_first_kind,
    witness_ratio_empirical,
)
from simplefrac.cheb import ChebKind, eval_cheb
from simplefrac.config import DEFAULTS
from simplefrac.errors import DomainError, TheoremRangeError, ToleranceNotMetError
from simplefrac.extremal import _norm_grid, _weight


def check_corollary_reference(poly, tol=None):
    """Reference: one engine scan per extremal quantity, three in all."""
    tol = DEFAULTS.supnorm_xtol if tol is None else tol
    n = poly.n
    grid = _norm_grid(n)
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


def witness_one_reference(n, a, tol=None):
    """Reference: the first witness ratio from two separate scans."""
    tol = DEFAULTS.supnorm_xtol if tol is None else tol
    grid = _norm_grid(n)
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
    got = hexed(lambda: check_corollary(poly, tol))
    assert got == hexed(lambda: check_corollary_reference(poly, tol))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 90), a=st.floats(1.05, 8.0), tol=st.sampled_from([None, 1e-6, 1e-17]))
def test_one_scan_first_witness_matches_two_scans(n, a, tol):
    got = hexed(lambda: witness_ratio_empirical(n, a, 1, tol))
    assert got == hexed(lambda: witness_one_reference(n, a, tol))


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


def test_value_and_derivative_against_expansion():
    # P = 3 (x - 2)(x^2 + 1): compare against the expanded cubic
    poly = RootedPolynomial(a=2.0, cofactor_roots=(1j, -1j), lead=3.0, force=True)
    xs = np.linspace(-1.0, 1.0, 101)
    val, der = poly.value_and_derivative(xs)
    expanded = 3.0 * (xs**3 - 2.0 * xs**2 + xs - 2.0)
    expanded_der = 3.0 * (3.0 * xs**2 - 4.0 * xs + 1.0)
    assert np.max(np.abs(val - expanded)) < 1e-12
    assert np.max(np.abs(der - expanded_der)) < 1e-12


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
    assert asymptotic_ratios(402, 3.0).r1 == 1.0
    with pytest.raises(DomainError, match=r"log \|T_403\(z\)\| = 709\.69"):
        asymptotic_ratios(403, 3.0)
