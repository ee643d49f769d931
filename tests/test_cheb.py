"""Chebyshev kernel, Joukowski map, equation solving, ellipse geometry."""

import cmath
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplefrac import _dd, cheb
from simplefrac.cheb import (
    ChebKind,
    _cheb_recurrence_dd,
    EllipseParam,
    PointLocation,
    cheb_t,
    cheb_u,
    chebyshev_points,
    ellipse_classify,
    eval_cheb,
    joukowski,
    solve_t_equals,
)
from simplefrac.config import DEFAULTS
from simplefrac.errors import DomainError, ToleranceNotMetError

T, U = ChebKind.FIRST_KIND, ChebKind.SECOND_KIND


def cheb_exact(kind, n, x):
    """Exact-rational recurrence oracle; x is converted to its exact value."""
    xq = Fraction(x)
    prev = Fraction(1)
    cur = xq if kind is T else 2 * xq
    if n == 0:
        return prev
    for _ in range(n - 1):
        cur, prev = 2 * xq * cur - prev, cur
    return cur


def test_trivial_values():
    assert eval_cheb(T, 0, 0.37) == 1.0
    assert eval_cheb(T, 3, 0.5) == -1.0  # 4x^3 - 3x at 1/2
    assert eval_cheb(U, 1, 0.25) == 0.5  # 2x


def test_t4_at_2_matches_horner_oracle():
    # direct polynomial 8x^4 - 8x^2 + 1 evaluated by Horner
    x = 2.0
    horner = ((8.0 * x * x - 8.0) * x * x) + 1.0
    assert horner == 97.0
    assert eval_cheb(T, 4, 2.0) == horner


@pytest.mark.parametrize("x", [0.37, 0.5, -0.99, 0.999999, 2.0, 3.0, -2.5, 1.0000001])
def test_ulp_accuracy_against_exact_recurrence(x):
    for n in range(65):
        for kind in (T, U):
            got = eval_cheb(kind, n, x)
            exact = float(cheb_exact(kind, n, x))
            budget = 4.0 * math.ulp(abs(exact) if exact != 0.0 else 1.0)
            assert abs(got - exact) <= budget, (kind, n, x)


def test_endpoint_values_exact():
    for n in range(0, 40):
        assert eval_cheb(T, n, 1.0) == 1.0
        assert eval_cheb(T, n, -1.0) == (-1.0) ** n
        assert cheb_t(n, np.array([1.0, -1.0])).tolist() == [1.0, (-1.0) ** n]
        assert cheb_u(n, np.array([1.0, -1.0])).tolist() == [n + 1.0, (-1.0) ** n * (n + 1)]


def test_rejects_nonfinite():
    with pytest.raises(DomainError):
        eval_cheb(T, 3, float("nan"))
    with pytest.raises(DomainError):
        eval_cheb(T, 3, float("inf"))
    with pytest.raises(DomainError):
        eval_cheb(T, -1, 0.5)


@pytest.mark.parametrize("fn", [
    cheb_t, cheb_u, lambda n, x: eval_cheb(T, n, float(x[0]))], ids=["cheb_t", "cheb_u", "eval_cheb"])
@pytest.mark.parametrize("n", [2.5, -1, 3.0, "3", None])
def test_degree_must_be_a_non_negative_integer(fn, n):
    # cheb_t(2.5, x) once raised a raw TypeError, and cheb_t(-1, x) returned x
    with pytest.raises(DomainError, match=r"degree must be a non-negative integer, got "):
        fn(n, np.array([0.5, 2.0]))


def test_vectorized_kernels_take_numpy_integer_degrees():
    xs = np.array([-2.0, -1.0, 0.3, 1.0, 1.5])
    for fn in (cheb_t, cheb_u):
        assert fn(np.int64(5), xs).tolist() == fn(5, xs).tolist()
        assert fn(0, xs).tolist() == [1.0] * 5


def test_branch_normalization_at_sqrt2():
    # sqrt(z^2 - 1) with the cut on [-1,1] must equal +1 at z = sqrt(2)
    z = complex(math.sqrt(2.0), 0.0)
    w = cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)
    assert abs(w - 1.0) < 5e-16
    # and the complex path must agree with the real path off the cut
    for n in (1, 5, 16):
        assert eval_cheb(T, n, complex(2.0, 0.0)).real == pytest.approx(
            eval_cheb(T, n, 2.0), rel=1e-13
        )


def test_joukowski_examples():
    assert joukowski(1.0) == 1.0
    assert abs(joukowski(cmath.exp(1j * math.pi / 2))) < 1e-16
    assert joukowski(2.0) == 1.25
    with pytest.raises(DomainError):
        joukowski(0.0)
    with pytest.raises(DomainError, match="1e-320"):
        joukowski(1e-320)


def test_joukowski_cheb_identity_on_circles():
    # T_n((w + 1/w)/2) = (w^n + w^-n)/2 for |w| in [1.1, 4]
    rng = np.random.default_rng(11)
    for _ in range(200):
        r = rng.uniform(1.1, 4.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        w = r * cmath.exp(1j * phi)
        n = int(rng.integers(1, 33))
        lhs = eval_cheb(T, n, joukowski(w))
        rhs = 0.5 * (w**n + w**-n)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_solve_t_equals_examples():
    roots = solve_t_equals(2, 0.0)
    assert roots == pytest.approx([-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], abs=1e-15)

    # T_2(x) = 1/7 analytically: x^2 = (1 + 1/7)/2 = 4/7; cross-check by bisection
    roots = solve_t_equals(2, 1.0 / 7.0)
    assert roots == pytest.approx([-math.sqrt(4.0 / 7.0), math.sqrt(4.0 / 7.0)], abs=1e-14)
    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 2.0 * mid * mid - 1.0 < 1.0 / 7.0:
            lo = mid
        else:
            hi = mid
    assert roots[1] == pytest.approx(0.5 * (lo + hi), abs=1e-13)

    assert solve_t_equals(1, 0.5) == [0.5]


def test_solve_t_equals_contract():
    for n in (1, 2, 3, 5, 8, 12, 31):
        for c in (-0.999, -0.5, 0.0, 1.0 / 7.0, 0.93):
            roots = solve_t_equals(n, c)
            assert len(roots) == n
            assert all(-1.0 < x < 1.0 for x in roots)
            assert roots == sorted(roots)
            assert all(abs(ra - rb) > 1e-12 for ra, rb in zip(roots, roots[1:]))
            for x in roots:
                assert abs(eval_cheb(T, n, x) - c) <= 1e-13


def test_solve_t_equals_domain_errors():
    for c in (1.0, -1.0, 1.5):
        with pytest.raises(DomainError):
            solve_t_equals(3, c)
    with pytest.raises(DomainError):
        solve_t_equals(0, 0.5)


def cheb_recurrence_dd_reference(kind, n, x):
    """Reference: the scalar double-double recurrence at one float point."""
    prev, cur = (1.0, 0.0), ((x, 0.0) if kind is T else (2.0 * x, 0.0))
    if n == 0:
        return _dd.dd_to_float(prev)
    twox = 2.0 * x
    for _ in range(n - 1):
        cur, prev = _dd.dd_sub(_dd.dd_mul_f(cur, twox), prev), cur
    return _dd.dd_to_float(cur)


def solve_t_equals_reference(n, c, cfg=DEFAULTS, rec=cheb_recurrence_dd_reference):
    """Reference: enumerate the arccos roots and polish them one at a time,
    gating each on backward error."""
    tol = cfg.solve_t_residual_tol
    theta0 = math.acos(c)
    thetas = [(theta0 + 2.0 * math.pi * k) / n
              for k in range(int((n * math.pi - theta0) // (2.0 * math.pi)) + 1)]
    thetas += [(2.0 * math.pi * k - theta0) / n
               for k in range(1, int((n * math.pi + theta0) // (2.0 * math.pi)) + 1)]
    roots = []
    for theta in thetas:
        xr = math.cos(theta)
        for _ in range(2):
            tn = rec(T, n, xr)
            deriv = n * rec(U, n - 1, xr)
            if deriv == 0.0:
                break
            xr -= (tn - c) / deriv
        resid = rec(T, n, xr) - c
        bound = tol * (1.0 + abs(xr * deriv))  # deriv of the last step
        if abs(resid) > bound:
            raise ToleranceNotMetError(
                f"root polish stalled at x={xr} with |T_n(x)-c|={abs(resid):.3e} > {bound:.3e}",
                best=xr)
        roots.append(xr)
    roots.sort()
    return roots


def outcome(fn, *args, **kwargs):
    """A result, or the type, message and best of the error, floats as hex."""
    try:
        return [float(v).hex() for v in fn(*args, **kwargs)]
    except ToleranceNotMetError as exc:
        return type(exc), str(exc), float(exc.best).hex()


def first_term(kind, x):
    """p_1 of the recurrence: T_1(x) = x or U_1(x) = 2x."""
    return x if kind is T else 2.0 * x


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from([T, U]), n=st.integers(1, 90),
       xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12))
def test_array_recurrence_matches_scalar_loop(kind, n, xs):
    # the recurrence with its split of 2x hoisted, against the unhoisted
    # loop: at a float, elementwise over an array and over stacked rows of
    # both kinds, each giving the last two terms
    x = np.array(xs)
    got, prev = _cheb_recurrence_dd(first_term(kind, x), x, n - 1)
    assert got.shape == prev.shape == (len(xs),)
    want = [cheb_recurrence_dd_reference(kind, n, v) for v in xs]
    want_prev = [cheb_recurrence_dd_reference(kind, n - 1, v) for v in xs]
    assert [float(v).hex() for v in got] == [v.hex() for v in want]
    assert [float(v).hex() for v in prev] == [v.hex() for v in want_prev]
    one = _cheb_recurrence_dd(first_term(kind, xs[0]), xs[0], n - 1)
    assert [v.hex() for v in one] == [want[0].hex(), want_prev[0].hex()]
    rows = _cheb_recurrence_dd(np.stack([x, 2.0 * x]), np.stack([x, x]), n - 1)[0]
    row = 0 if kind is T else 1
    assert [float(v).hex() for v in rows[row]] == [v.hex() for v in want]
    # and within an ulp of the exact rational recurrence, plus the double-double
    # rounding that the terms' size allows where T_n or U_n cancels
    for v, w in zip(xs, want):
        exact = float(cheb_exact(kind, n, v))
        assert abs(w - exact) <= math.ulp(exact) + (n + 1) ** 3 * 2.0**-104 * max(1.0, 2.0 * abs(v)) ** n


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 120), c=st.floats(-0.999999, 0.999999),
       tol=st.sampled_from([None, 1e-15, 1e-16, 3e-17, 0.0]))
def test_batched_polish_matches_per_root_loop(n, c, tol):
    # tight tolerances make some roots fail: the error must name the same
    # root, with the same message and best, as the per-root loop
    cfg = DEFAULTS if tol is None else replace(DEFAULTS, solve_t_residual_tol=tol)
    got = outcome(solve_t_equals, n, c, cfg=cfg)
    assert got == outcome(solve_t_equals_reference, n, c, cfg)


def test_batched_polish_masks_a_zero_derivative(monkeypatch):
    # a root whose derivative vanishes stays where it is, as under the
    # per-root loop's break, and its division is never evaluated: a
    # RuntimeWarning would fail this test
    n, c = 5, 0.3
    x0 = math.cos(math.acos(c) / n)  # where the first root starts

    def flat_at_x0(p1, x, steps, rec=cheb._cheb_recurrence_dd):
        last, prev = rec(p1, x, steps)
        if np.ndim(p1) == 2:  # the [T, U] pass: U_(n-1) is the U row's previous term
            prev[1] = np.where(x[1] == x0, 0.0, prev[1])
        return last, prev

    monkeypatch.setattr(cheb, "_cheb_recurrence_dd", flat_at_x0)
    loose = replace(DEFAULTS, solve_t_residual_tol=1.0)
    got = solve_t_equals(n, c, cfg=loose)

    def flat_reference(kind, m, x):
        v = cheb_recurrence_dd_reference(kind, m, x)
        return 0.0 if kind is U and x == x0 else v

    want = solve_t_equals_reference(n, c, loose, rec=flat_reference)
    assert x0 in got
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_eval_cheb_overflow_is_a_domain_error():
    # at a = 3, T_n(a) overflows from n = 404 on (w^n of the exponential
    # form from n = 403 on)
    assert math.isfinite(eval_cheb(T, 403, 3.0))
    with pytest.raises(DomainError, match=r"log \|T_404\(z\)\| = 711\.45"):
        eval_cheb(T, 404, 3.0)
    with pytest.raises(DomainError, match=r"log \|U_403\(z\)\|"):
        eval_cheb(U, 403, -3.0)
    with pytest.raises(DomainError, match=r"log \|T_403\(z\)\|"):
        eval_cheb(T, 403, 3.0 + 1.0j)
    # from |z| of about 9e307 on, w = z + sqrt(z^2 - 1) itself overflows
    with pytest.raises(DomainError, match=r"log \|T_5\(z\)\| = 3548\.75"):
        eval_cheb(T, 5, 1e308)
    with pytest.raises(DomainError, match=r"log \|U_5\(z\)\| = 3549\.44"):
        eval_cheb(U, 5, -1e308)
    assert eval_cheb(T, 0, 1e308j) == 1.0
    # the vectorized kernels name the first point off the segment that overflows
    with pytest.raises(DomainError, match=r"T_500 .* x = 3\.0"):
        cheb_t(500, np.array([0.5, 3.0]))
    with pytest.raises(DomainError, match=r"U_500 .* x = -3\.0"):
        cheb_u(500, np.array([0.5, -3.0]))
    with pytest.raises(DomainError, match=r"U_3 .* x = nan"):
        cheb_u(3, np.array([math.nan]))


def cheb_t_reference(n, x):
    """Reference: T_n masked over the whole array, one arccos per call."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    inside = np.abs(x) <= 1.0
    out[inside] = np.cos(n * np.arccos(x[inside]))
    if not inside.all():
        xo = x[~inside]
        with np.errstate(over="ignore"):
            vals = np.cosh(n * np.arccosh(np.abs(xo)))
        cheb._reject_overflow("T", n, xo, vals)
        out[~inside] = np.where(xo < 0, -vals, vals) if n % 2 else vals
    out[x == 1.0] = 1.0
    out[x == -1.0] = (-1.0) ** n
    return out


def cheb_u_reference(n, x):
    """Reference: U_n masked over the whole array, one arccos per call."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    ax = np.abs(x)
    strict = ax < 1.0
    if strict.any():
        xi = x[strict]
        out[strict] = np.sin((n + 1) * np.arccos(xi)) / np.sqrt((1.0 - xi) * (1.0 + xi))
    outside = ~(ax <= 1.0)
    if outside.any():
        xo = x[outside]
        ell = np.arccosh(np.abs(xo))
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.sinh((n + 1) * ell) / np.sinh(ell)
        big = ~np.isfinite(vals)
        if big.any():
            lb = ell[big]
            with np.errstate(over="ignore"):
                vals[big] = np.exp(n * lb) * (np.expm1(-2.0 * (n + 1) * lb) / np.expm1(-2.0 * lb))
            cheb._reject_overflow("U", n, xo, vals)
        out[outside] = np.where(xo < 0, -vals, vals) if n % 2 else vals
    out[x == 1.0] = float(n + 1)
    out[x == -1.0] = (-1.0) ** n * (n + 1)
    return out


def bits_or_error(fn, *args):
    """Shape and float.hex of an array result, or the error's type and message."""
    try:
        out = fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    return np.shape(out), [float(v).hex() for v in np.ravel(out)]


# points inside the segment, its ends, points off it and NaN
POINTS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0, math.nan, 1e200]),
                   st.floats(-40.0, 40.0))


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(0, 70), st.sampled_from([200, 500])),
       xs=st.lists(POINTS, max_size=14), zero_d=st.booleans())
def test_vectorized_kernels_match_the_masked_reference(n, xs, zero_d):
    # one arccos shared through _angles, gathering only the rim points, gives
    # the bits, the shape and the first error of the masked kernels
    x = np.array(xs[0] if zero_d and xs else xs)
    for fn, ref in ((cheb_t, cheb_t_reference), (cheb_u, cheb_u_reference)):
        want = bits_or_error(ref, n, x)
        assert bits_or_error(fn, n, x) == want
        assert bits_or_error(fn, n, cheb._angles(x)) == want
    strided = np.repeat(x.reshape(-1), 2)[::2]
    assert bits_or_error(cheb_t, n, strided) == bits_or_error(cheb_t_reference, n, strided)


def sinh_ratio(n, x):
    """U_n at points x off [-1, 1], as cheb_u forms it where sinh((n+1) l)
    is finite."""
    ell = np.arccosh(np.abs(x))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.sinh((n + 1) * ell) / np.sinh(ell)
    return np.where(x < 0, -vals, vals) if n % 2 else vals


def test_values_past_the_exponential_form_are_floats():
    # U_1(1e300) = 2e300 and T_1(1e308) = 1e308 are floats, though
    # sinh(2 arccosh 1e300) and w = 1e308 + sqrt(1e308^2 - 1) overflow
    x = np.array([-1e300, -3.0, 2.0, 1e300, 1.7e308 / 2.0001])
    got = cheb_u(1, x)
    assert got == pytest.approx(2.0 * x, rel=1e-12)
    # the points whose sinh ratio is finite keep its bits
    old = sinh_ratio(1, x)
    finite = np.isfinite(old)
    assert finite.tolist() == [False, True, True, False, False]
    assert [v.hex() for v in got[finite]] == [v.hex() for v in old[finite]]
    assert cheb_u(2, np.array([-1e150]))[0] == pytest.approx(4e300, rel=1e-12)
    assert cheb_u(0, np.array([1.7e308]))[0] == 1.0
    with pytest.raises(DomainError, match=r"U_2 .* x = 1e\+154"):
        cheb_u(2, np.array([3.0, 1e154]))  # 4e308 is no float
    for z in (1e308, -1e308, 1.7e308):
        assert eval_cheb(T, 1, z) == pytest.approx(z, rel=1e-12)
    assert eval_cheb(U, 1, -8e307) == pytest.approx(-1.6e308, rel=1e-12)
    z = complex(1e308, 1e307)
    assert eval_cheb(T, 1, z) == pytest.approx(z, rel=1e-12)
    exact = [1, 3]  # T_{k+1}(3) = 6 T_k(3) - T_{k-1}(3)
    while len(exact) <= 403:
        exact.append(6 * exact[-1] - exact[-2])
    for x in (3.0, -3.0):
        got = eval_cheb(T, 403, x)
        assert type(got) is float
        assert got == pytest.approx(math.copysign(float(exact[403]), x), rel=1e-12)
    with pytest.raises(DomainError, match=r"log \|U_1\(z\)\| = 709\.88"):
        eval_cheb(U, 1, 1e308)  # 2e308 is no float
    with pytest.raises(DomainError, match=r"log \|T_2\(z\)\| = 709\.88"):
        eval_cheb(T, 2, 1e154)


def test_second_kind_near_the_float_limit_is_finite_or_an_error():
    # U_402(3) ~ e^708.7 is a float although w^403 of the exponential form is
    # not; U_403(3) is not a float.  Exact values: U_{k+1}(3) = 6 U_k - U_{k-1}
    exact = [1, 6]
    while len(exact) <= 403:
        exact.append(6 * exact[-1] - exact[-2])
    for n in (401, 402):
        for x in (3.0, -3.0):
            got = eval_cheb(U, n, x)
            assert math.isfinite(got)
            assert got == pytest.approx((-1) ** (n * (x < 0)) * float(exact[n]), rel=1e-12)
    assert math.log(exact[403]) > math.log(sys.float_info.max)
    for x in (3.0, -3.0):
        with pytest.raises(DomainError, match=r"log \|U_403\(z\)\| = 710\.4169"):
            eval_cheb(U, 403, x)


def test_ellipse_examples():
    e2 = EllipseParam(2.0)
    assert ellipse_classify(e2, 2.0).location is PointLocation.ON
    assert ellipse_classify(e2, 0.0).location is PointLocation.INSIDE
    out = ellipse_classify(e2, 3j)
    assert out.location is PointLocation.OUTSIDE
    assert out.residual == pytest.approx(9.0 / 3.0 - 1.0, abs=1e-15)
    assert e2.semi_major == 2.0
    assert e2.semi_minor == pytest.approx(math.sqrt(3.0))
    with pytest.raises(DomainError):
        EllipseParam(1.0)
    with pytest.raises(DomainError):
        EllipseParam(0.5)
    with pytest.raises(DomainError, match="1e[+]200"):
        ellipse_classify(EllipseParam(1e200), 1e200)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    x=st.floats(min_value=-3.0, max_value=3.0),
    n=st.integers(min_value=1, max_value=32),
)
def test_pell_identity(x, n):
    tn = eval_cheb(T, n, x)
    un1 = eval_cheb(U, n - 1, x)
    resid = tn * tn - (x * x - 1.0) * un1 * un1 - 1.0
    scale = max(tn * tn, abs((x * x - 1.0) * un1 * un1), 1.0)
    assert abs(resid) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    x=st.floats(min_value=-0.95, max_value=0.95),
    n=st.integers(min_value=1, max_value=24),
)
def test_derivative_identity_vs_finite_differences(x, n):
    # (x^2 - 1) U'_{n-1}(x) = n T_n(x) - x U_{n-1}(x), U' by central differences
    h = 1e-6
    up = (eval_cheb(U, n - 1, x + h) - eval_cheb(U, n - 1, x - h)) / (2.0 * h)
    lhs = (x * x - 1.0) * up
    rhs = n * eval_cheb(T, n, x) - x * eval_cheb(U, n - 1, x)
    assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_vectorized_kernels_match_scalar():
    xs = np.linspace(-0.999, 0.999, 211)
    for n in (0, 1, 7, 20):
        tv = cheb_t(n, xs)
        uv = cheb_u(n, xs)
        for i in (0, 57, 140, 210):
            assert tv[i] == pytest.approx(eval_cheb(T, n, float(xs[i])), abs=5e-14)
            assert uv[i] == pytest.approx(eval_cheb(U, n, float(xs[i])), abs=5e-13)


def test_chebyshev_points_grid():
    pts = chebyshev_points(5)
    assert pts[0] == -1.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)
    assert np.array_equal(pts, -pts[::-1])  # exact antisymmetry
    with pytest.raises(DomainError):
        chebyshev_points(1)


def _exact_cheb(kind, n, x):
    """T_n(x) or U_n(x) by the three-term recurrence in exact rationals."""
    fx = Fraction(x)
    prev, cur = Fraction(1), (fx if kind is ChebKind.FIRST_KIND else 2 * fx)
    for _ in range(n - 1):
        prev, cur = cur, 2 * fx * cur - prev
    return cur if n else prev


@pytest.mark.parametrize("x", [1.05, 1.5, 3.0, -3.0, 10.0, 1e10, 1e100])
def test_eval_cheb_is_within_one_ulp_inside_the_dd_limit(x):
    # the compensated recurrence holds while n log(|x| + sqrt(x^2-1)) <= 640
    # (at x = 3 up to n = 363, at x = 1e100 up to n = 2)
    top = min(400, int(cheb._DD_LOG_LIMIT / math.log(abs(x) + math.sqrt(x * x - 1.0))))
    for kind in (ChebKind.FIRST_KIND, ChebKind.SECOND_KIND):
        for n in sorted(n for n in {1, 2, 3, top // 2, top - 1, top} if 1 <= n <= top):
            exact = float(_exact_cheb(kind, n, x))
            assert abs(eval_cheb(kind, n, x) - exact) <= math.ulp(exact), (kind, n)


@pytest.mark.parametrize("n,x", [(364, 3.0), (400, 3.0), (1, 1e300), (3, 1e100)])
def test_eval_cheb_past_the_dd_limit_is_within_1e13_relative(n, x):
    # past the limit a real point takes the exponential form: about 5e-14
    # relative, not a few ulp (T_364(3) is 4.8e-14 off)
    exact = float(_exact_cheb(ChebKind.FIRST_KIND, n, x))
    assert abs(eval_cheb(ChebKind.FIRST_KIND, n, x) - exact) <= 1e-13 * abs(exact)
