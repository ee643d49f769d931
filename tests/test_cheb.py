"""Chebyshev kernel, Joukowski map, equation solving, ellipse geometry."""

import cmath
import math
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


def solve_t_equals_reference(n, c, residual_tol=None, rec=cheb_recurrence_dd_reference):
    """Reference: enumerate the arccos roots and polish them one at a time."""
    tol = DEFAULTS.solve_t_residual_tol if residual_tol is None else residual_tol
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
        if abs(resid) > tol:
            raise ToleranceNotMetError(
                f"root polish stalled at x={xr} with |T_n(x)-c|={abs(resid):.3e}", best=xr)
        roots.append(xr)
    roots.sort()
    return roots


def outcome(fn, *args, **kwargs):
    """A result, or the type, message and best of the error, floats as hex."""
    try:
        return [float(v).hex() for v in fn(*args, **kwargs)]
    except ToleranceNotMetError as exc:
        return type(exc), str(exc), float(exc.best).hex()


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from([T, U]), n=st.integers(0, 90),
       xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12))
def test_array_recurrence_matches_scalar_loop(kind, n, xs):
    got = _cheb_recurrence_dd(kind, n, np.array(xs))
    assert got.shape == (len(xs),)
    want = [cheb_recurrence_dd_reference(kind, n, x) for x in xs]
    assert [float(v).hex() for v in got] == [v.hex() for v in want]
    assert _cheb_recurrence_dd(kind, n, xs[0]).hex() == want[0].hex()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 120), c=st.floats(-0.999999, 0.999999),
       tol=st.sampled_from([None, 1e-15, 1e-16, 3e-17, 0.0]))
def test_batched_polish_matches_per_root_loop(n, c, tol):
    # tight tolerances make some roots fail: the error must name the same
    # root, with the same message and best, as the per-root loop
    got = outcome(solve_t_equals, n, c, residual_tol=tol)
    assert got == outcome(solve_t_equals_reference, n, c, tol)


def test_batched_polish_masks_a_zero_derivative(monkeypatch):
    # a root whose derivative vanishes stays where it is, as under the
    # per-root loop's break, and its division is never evaluated: a
    # RuntimeWarning would fail this test
    n, c = 5, 0.3
    x0 = math.cos(math.acos(c) / n)  # where the first root starts

    def flat_at_x0(kind, m, x, rec=cheb._cheb_recurrence_dd):
        v = rec(kind, m, x)
        return np.where(np.asarray(x) == x0, 0.0, v) if kind is U else v

    monkeypatch.setattr(cheb, "_cheb_recurrence_dd", flat_at_x0)
    got = solve_t_equals(n, c, residual_tol=1.0)
    def flat_reference(kind, m, x):
        return float(flat_at_x0(kind, m, x, cheb_recurrence_dd_reference))

    want = solve_t_equals_reference(n, c, 1.0, rec=flat_reference)
    assert x0 in got
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_eval_cheb_overflow_is_a_domain_error():
    # at a = 3 the exponential form's w^n overflows from n = 403 on
    assert math.isfinite(eval_cheb(T, 402, 3.0))
    with pytest.raises(DomainError, match=r"log \|T_403\(z\)\| = 709\.69"):
        eval_cheb(T, 403, 3.0)
    with pytest.raises(DomainError, match=r"log \|U_403\(z\)\|"):
        eval_cheb(U, 403, -3.0)
    with pytest.raises(DomainError, match=r"log \|T_403\(z\)\|"):
        eval_cheb(T, 403, 3.0 + 1.0j)


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
