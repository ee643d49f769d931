"""Chebyshev polynomial kernels, the Joukowski map, and ellipse geometry.

Evaluation is split into two layers.  The scalar entry point
:func:`eval_cheb` runs the three-term recurrence in compensated
(double-double) arithmetic, which keeps real-axis results within 1 ulp
while n log(|x| + sqrt(x^2-1)) <= 640, even far outside ``[-1, 1]``; past
that bound a real point takes the exponential form, within about 5e-14
relative.  One loop, :func:`_cheb_recurrence_dd`, serves it and the
root polish of :func:`solve_t_equals`, which runs the rows [T, U] of its
roots together, and after the first pass only the roots whose x moved; it
splits the constant 2x once per run, not per step.
The vectorized kernels :func:`cheb_t` / :func:`cheb_u` use the
trigonometric form on the segment and the exponential form off it; they
trade a few digits for speed and feed the grid scans.  Both read the
angles theta = arccos(x) of :func:`_angles`, so a closed form that needs
several of them at one x takes one arccos, and they gather the points on or
off the segment's ends only when there are any.  Monomial coefficients are
never formed.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _dd
from .config import DEFAULTS, Config
from .errors import DomainError, ToleranceNotMetError, require_complex, require_int, require_real


class ChebKind(enum.Enum):
    FIRST_KIND = "first"
    SECOND_KIND = "second"


class PointLocation(enum.Enum):
    INSIDE = "inside"
    ON = "on"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class EllipseParam:
    """Ellipse with foci ±1, semi-major axis ``p`` and semi-minor ``sqrt(p^2-1)``."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", require_real("ellipse parameter p", self.p, 1.0))

    @property
    def semi_major(self) -> float:
        return self.p

    @property
    def semi_minor(self) -> float:
        return math.sqrt(self.p * self.p - 1.0)


class EllipseClassification(NamedTuple):
    location: PointLocation
    residual: float


def _cheb_recurrence_dd(p1, x, steps: int):
    """The three-term recurrence p_(k+1) = 2x p_k - p_(k-1) from p_0 = 1 and
    p_1 = p1, run for ``steps`` steps in double-double arithmetic.

    Returns the last two terms (p_(steps+1), p_steps), each rounded to a
    float: p1 = x gives T_(steps+1)(x) and T_steps(x), p1 = 2x the U's.  x is
    a float or an array, and p1 has its shape, so a stack of x's rows runs
    several recurrences at once; each point gets the same bits either way.
    The split of the constant 2x is formed once, not at every step.
    """
    twox = 2.0 * x  # exact
    twox_split = _dd.split(twox)
    prev = (np.ones_like(p1), np.zeros_like(p1)) if isinstance(p1, np.ndarray) else (1.0, 0.0)
    cur = (p1, 0.0)
    for _ in range(steps):
        cur, prev = _dd.dd_sub(_dd.dd_mul_f(cur, twox, twox_split), prev), cur
    return _dd.dd_to_float(cur), _dd.dd_to_float(prev)


def _sqrt_branch(z: complex) -> complex:
    """sqrt(z^2-1) with branch cut on [-1, 1], equal to +1 at z = sqrt(2)."""
    return cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)


def _cheb_exponential(kind: ChebKind, n: int, z: complex) -> complex:
    """Exponential form via w = z + sqrt(z^2-1); |w| >= 1 by branch choice."""
    w = z + _sqrt_branch(z)
    if not cmath.isfinite(w):  # complex arithmetic overflows to inf silently
        if n == 0:
            return complex(1.0)
        raise OverflowError
    if abs(w) < 1.0:  # guard rounding on the unit circle
        w = 1.0 / w
    logw = cmath.log(w)
    wn = cmath.exp(n * logw)
    if kind is ChebKind.FIRST_KIND:
        return 0.5 * (wn + 1.0 / wn)
    winv = 1.0 / w
    denom = w - winv
    if abs(denom) < 1e-12:
        # z near ±1: U_n(±1) = (±1)^n (n+1)
        sign = 1.0 if z.real >= 0 else (-1.0) ** n
        return complex(sign * (n + 1))
    wn1 = wn * w
    # w^(n+1) may overflow where U_n does not; w^-(n+1) is then negligible
    val = (wn1 - 1.0 / wn1) / denom if cmath.isfinite(wn1) else wn * (w / denom)
    if not cmath.isfinite(val):
        raise OverflowError  # complex arithmetic overflows to inf silently
    return val


# degree * log(|x|+sqrt(x^2-1)) beyond this would overflow the dd splitter
_DD_LOG_LIMIT = 640.0
_LOG2 = math.log(2.0)


def eval_cheb(kind: ChebKind, n: int, z) -> float | complex:
    """Evaluate T_n or U_n at a scalar point.

    Real arguments run through the compensated recurrence, within 1 ulp of
    the exact value while n log(|x| + sqrt(x^2-1)) <= _DD_LOG_LIMIT = 640
    (at x = 3 up to n = 363).  Past that bound they take the exponential
    form, as accurate as for complex z: about 5e-14 relative (T_364(3) is
    4.8e-14 off, T_1(1e300) 3.5e-14).  Complex arguments use the
    exponential form with the branch of sqrt(z^2-1) cut along [-1, 1] and
    normalized to +1 at z = sqrt(2).  Returns a float for real input,
    complex otherwise, never inf.  Where w^n overflows a float (at z = 3
    from n = 403 on, and for n >= 1 from |z| of about 9e307 on, where
    w = z + sqrt(z^2-1) itself does) the value comes from its log, formed
    from h = w/2, as accurate as the exponential form (about 1e-13
    relative).  Raises DomainError, naming log |T_n(z)| (or log |U_n(z)|),
    only where that value overflows too: at z = 3 from n = 404 on for T_n
    and from n = 403 on for U_n.
    """
    n = require_int("degree", n, 0)
    if kind not in (ChebKind.FIRST_KIND, ChebKind.SECOND_KIND):
        raise DomainError(f"unknown Chebyshev kind {kind!r}")
    zc = require_complex("point z", z)
    x = zc.real
    try:
        if zc.imag != 0.0:
            return _cheb_exponential(kind, n, zc)
        if abs(x) > 1.0 and n * math.log(abs(x) + math.sqrt(x * x - 1.0)) > _DD_LOG_LIMIT:
            return complex(_cheb_exponential(kind, n, complex(x))).real
    except OverflowError:
        # |w| >= 1 on the branch used, and w^-n is negligible beside w^n here:
        # with h = w/2, T_n = 2^(n-1) h^n and U_n = 2^n h^(n+1) / (h - 1/(4h)),
        # whose log form holds the value wherever it is a float
        h = 0.5 * zc + cmath.sqrt(0.5 * zc - 0.5) * cmath.sqrt(0.5 * zc + 0.5)  # finite
        if kind is ChebKind.FIRST_KIND:
            name, log_val = "T", (n - 1) * _LOG2 + n * cmath.log(h)
        else:
            name, log_val = "U", n * _LOG2 + (n + 1) * cmath.log(h) - cmath.log(h - 0.25 / h)
        try:
            val = cmath.exp(log_val)
        except OverflowError:
            raise DomainError(
                f"{name}_{n} out of range at z = {z}: {name}_{n}(z) overflows a float, "
                f"log |{name}_{n}(z)| = {log_val.real:.6f}"
            ) from None
        return val if zc.imag != 0.0 else val.real
    if n == 0:
        return 1.0
    return _cheb_recurrence_dd(x if kind is ChebKind.FIRST_KIND else 2.0 * x, x, n - 1)[0]


def _reject_overflow(name: str, n: int, x: np.ndarray, vals: np.ndarray) -> None:
    """DomainError at the first x (off [-1, 1], or NaN) where vals is not finite."""
    bad = ~np.isfinite(vals)
    if bad.any():
        raise DomainError(f"{name}_{n} is out of float range at x = {float(x[bad][0])!r}")


class _Angles(NamedTuple):
    """Points on the real line with their angles, which cheb_t and cheb_u
    read in place of the points, so several kernels at one x share one
    arccos.  Built by :func:`_angles`."""

    x: np.ndarray  # the points, flat and contiguous
    xin: np.ndarray  # x, with 0.0 at the rim points
    theta: np.ndarray  # arccos(xin)
    rim: np.ndarray | None  # where |x| >= 1 or x is NaN; None when nowhere
    shape: tuple[int, ...]  # the shape of the points as given
    size: int  # the number of points, so that np.size counts them


def _angles(x) -> _Angles:
    """The angles of points x for cheb_t and cheb_u.  The rim points, off
    the open segment, are gathered only when there are any."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.ravel()
    if not x.size or np.abs(x).max() < 1.0:  # NaN fails the test
        return _Angles(x, x, np.arccos(x), None, shape, x.size)
    inner = np.abs(x) < 1.0
    xin = np.where(inner, x, 0.0)
    return _Angles(x, xin, np.arccos(xin), np.flatnonzero(~inner), shape, x.size)


def cheb_t(n: int, x) -> np.ndarray:
    """Vectorized T_n on the real line (trig inside [-1,1], cosh outside);
    DomainError, naming the point, where T_n overflows or x is NaN, and for
    a degree n that is not a non-negative integer.  x may be the
    :func:`_angles` of the points."""
    n = require_int("degree", n, 0)
    ang = x if isinstance(x, _Angles) else _angles(x)
    out = np.cos(n * ang.theta)
    if ang.rim is not None:
        xo = ang.x[ang.rim]
        with np.errstate(over="ignore"):
            vals = np.cosh(n * np.arccosh(np.abs(xo)))
        _reject_overflow("T", n, xo, vals)
        if n % 2:
            vals = np.where(xo < 0, -vals, vals)
        # endpoints exactly
        vals[xo == 1.0] = 1.0
        vals[xo == -1.0] = (-1.0) ** n
        out[ang.rim] = vals
    return out.reshape(ang.shape)


def cheb_u(n: int, x) -> np.ndarray:
    """Vectorized U_n on the real line (sin ratio inside, sinh ratio outside,
    scaled where sinh((n+1) arccosh|x|) overflows); DomainError, naming the
    point, where U_n overflows or x is NaN, and for a degree n that is not a
    non-negative integer.  x may be the :func:`_angles` of the points."""
    n = require_int("degree", n, 0)
    ang = x if isinstance(x, _Angles) else _angles(x)
    out = np.sin((n + 1) * ang.theta) / np.sqrt((1.0 - ang.xin) * (1.0 + ang.xin))
    if ang.rim is not None:
        xo = ang.x[ang.rim]
        vals = np.where(xo > 0.0, float(n + 1), (-1.0) ** n * (n + 1))  # endpoints exactly
        outside = np.abs(xo) != 1.0  # NaN included, and rejected below
        if outside.any():
            xo = xo[outside]
            ell = np.arccosh(np.abs(xo))
            with np.errstate(over="ignore", invalid="ignore"):
                vo = np.sinh((n + 1) * ell) / np.sinh(ell)
            big = ~np.isfinite(vo)
            if big.any():
                # sinh((n+1) l) overflows before U_n does: e^(n l) (1 - e^(-2(n+1) l))
                # / (1 - e^(-2 l)) holds it wherever it is a float
                lb = ell[big]
                with np.errstate(over="ignore"):
                    vo[big] = np.exp(n * lb) * (np.expm1(-2.0 * (n + 1) * lb) / np.expm1(-2.0 * lb))
                _reject_overflow("U", n, xo, vo)
            vals[outside] = np.where(xo < 0, -vo, vo) if n % 2 else vo
        out[ang.rim] = vals
    return out.reshape(ang.shape)


def joukowski(w) -> float | complex:
    """The map w -> (w + 1/w)/2.  Rejects w = 0, and w whose image overflows."""
    wc = require_complex("point w", w)
    if wc == 0:
        raise DomainError("joukowski map undefined at w = 0")
    val = 0.5 * (wc + 1.0 / wc)
    if not cmath.isfinite(val):
        raise DomainError(f"joukowski map overflows a float at w = {w!r}")
    if isinstance(w, complex) or (isinstance(w, np.generic) and np.iscomplexobj(w)):
        return val
    return val.real if wc.imag == 0.0 else val


def solve_t_equals(n: int, c: float, *, cfg: Config = DEFAULTS) -> list[float]:
    """All n solutions of T_n(x) = c in (-1, 1), ascending.

    Requires |c| < 1, which makes the roots simple and interior.  Roots come
    from the arccos representation and two Newton steps, all roots together.
    Each recurrence pass runs only on the roots whose x the step before
    moved: the first Newton pass on all n, the second on those the first
    step moved, the residual pass on those the second moved, and a pass
    with no roots is skipped.  Every other root keeps the T_n and U_(n-1)
    its last pass gave at the same x, the same bits, as the recurrence
    gives a point the same bits alone or in a stack.  At c = 1/T_n(a) for
    the paper sweep's n = 4..64 and a = 2, 3, 5 the first step moves some
    roots and the second none, so two passes are run.

    Each root is gated on backward error,
    |T_n(x) - c| <= cfg.solve_t_residual_tol * (1 + |x T_n'(x)|), with T_n'
    from the last Newton step: near +-1, |T_n'| is about n^2, and one ulp of
    x moves T_n by about n^2 eps there, so an absolute gate would reject
    correctly rounded roots from n of about 60 on.  Otherwise the first
    failing root in enumeration order is reported.
    """
    n = require_int("degree", n, 1)
    c = require_real("c", c)
    if abs(c) >= 1.0:
        raise DomainError(f"solve_t_equals requires |c| < 1, got c={c}")
    tol = cfg.solve_t_residual_tol

    theta0 = math.acos(c)
    k_plus = int((n * math.pi - theta0) // (2.0 * math.pi))
    k_minus = int((n * math.pi + theta0) // (2.0 * math.pi))
    thetas = [(theta0 + 2.0 * math.pi * k) / n for k in range(k_plus + 1)]
    thetas += [(2.0 * math.pi * k - theta0) / n for k in range(1, k_minus + 1)]
    if len(thetas) != n:
        raise ToleranceNotMetError(f"expected {n} roots of T_{n}(x) = {c}, enumerated {len(thetas)}")

    xr = np.array([math.cos(theta) for theta in thetas])
    tn, deriv = np.empty(n), np.empty(n)  # T_n and T_n' = n U_(n-1) at xr
    live = np.ones(n, dtype=bool)  # a root whose derivative vanishes stops moving
    moved = np.arange(n)  # the roots whose tn and deriv are not yet at xr
    for _ in range(2):
        if moved.size:
            x = xr[moved]
            # one pass over the rows [T, U]: after n - 1 steps the U row's
            # previous term is U_(n-1), with its own recurrence's bits
            t, u = _cheb_recurrence_dd(np.stack([x, 2.0 * x]), np.stack([x, x]), n - 1)
            tn[moved], deriv[moved] = t[0], n * u[1]
        live &= deriv != 0.0
        x = xr - np.divide(tn - c, deriv, out=np.zeros(n), where=live)
        # no root is ever -0.0, so a root changes bits only where it changes value
        moved, xr = np.flatnonzero(x != xr), x
    if moved.size:
        tn[moved] = _cheb_recurrence_dd(xr[moved], xr[moved], n - 1)[0]
    resid = np.abs(tn - c)
    bound = tol * (1.0 + np.abs(xr * deriv))
    bad = np.flatnonzero(resid > bound)
    if len(bad):
        i = bad[0]
        x0 = float(xr[i])
        raise ToleranceNotMetError(
            f"root polish stalled at x={x0} with |T_n(x)-c|={resid[i]:.3e} > {bound[i]:.3e}",
            best=x0,
        )
    return sorted(xr.tolist())


def _ellipse_residuals(ellipse: EllipseParam, points) -> np.ndarray:
    """The canonical-form residuals re^2/p^2 + im^2/(p^2-1) - 1 of a
    sequence of complex points against the ellipse, as one array.  Raises
    DomainError, naming the first point, where a residual is not a finite
    float."""
    z = np.asarray(points, dtype=complex)
    p2 = ellipse.p * ellipse.p
    with np.errstate(all="ignore"):
        residual = z.real * z.real / p2 + z.imag * z.imag / (p2 - 1.0) - 1.0
    bad = np.flatnonzero(~np.isfinite(residual))
    if bad.size:
        raise DomainError(f"ellipse residual out of float range at z = {points[bad[0]]!r}, "
                          f"p = {ellipse.p}")
    return residual


def ellipse_classify(ellipse: EllipseParam, z, *, cfg: Config = DEFAULTS) -> EllipseClassification:
    """Classify z against the ellipse via the canonical-form residual
    re^2/p^2 + im^2/(p^2-1) - 1; |residual| <= cfg.ellipse_on_tol is ON.
    Raises DomainError where the residual is not a finite float."""
    require_complex("point z", z)
    residual = float(_ellipse_residuals(ellipse, (z,))[0])
    if abs(residual) <= cfg.ellipse_on_tol:
        loc = PointLocation.ON
    elif residual < 0.0:
        loc = PointLocation.INSIDE
    else:
        loc = PointLocation.OUTSIDE
    return EllipseClassification(loc, residual)


def chebyshev_points(m: int) -> np.ndarray:
    """m Chebyshev-spaced points on [-1, 1], ascending, endpoints included.

    The sine form keeps the grid exactly antisymmetric about 0.
    """
    m = require_int("grid size m", m, 2)
    j = np.arange(m)
    return np.sin(np.pi * (2 * j - (m - 1)) / (2 * (m - 1)))
