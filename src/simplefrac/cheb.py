"""Chebyshev polynomial kernels, the Joukowski map, and ellipse geometry.

Evaluation is split into two layers.  The scalar entry point
:func:`eval_cheb` runs the three-term recurrence in compensated
(double-double) arithmetic, which keeps real-axis results within a few ulp
up to degree 64 even far outside ``[-1, 1]``.  The vectorized kernels
:func:`cheb_t` / :func:`cheb_u` use the trigonometric form on the segment
and the exponential form off it; they trade a few digits for speed and feed
the grid scans.  Monomial coefficients are never formed.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _dd
from .config import DEFAULTS
from .errors import DomainError, ToleranceNotMetError


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
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise DomainError(f"ellipse parameter must satisfy p > 1, got p={self.p}")

    @property
    def semi_major(self) -> float:
        return self.p

    @property
    def semi_minor(self) -> float:
        return math.sqrt(self.p * self.p - 1.0)


class EllipseClassification(NamedTuple):
    location: PointLocation
    residual: float


def _require_finite_scalar(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite input {z!r}")
    return z


def _cheb_recurrence_dd(kind: ChebKind, n: int, x):
    """Three-term recurrence in double-double arithmetic at a real point or
    elementwise over a float array of points (the same bits either way)."""
    if kind is ChebKind.FIRST_KIND:
        prev, cur = (1.0, 0.0), (x, 0.0)
    else:
        prev, cur = (1.0, 0.0), (2.0 * x, 0.0)
    if n == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else _dd.dd_to_float(prev)
    twox = 2.0 * x  # exact
    for _ in range(n - 1):
        cur, prev = _dd.dd_sub(_dd.dd_mul_f(cur, twox), prev), cur
    return _dd.dd_to_float(cur)


def _sqrt_branch(z: complex) -> complex:
    """sqrt(z^2-1) with branch cut on [-1, 1], equal to +1 at z = sqrt(2)."""
    return cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)


def _cheb_exponential(kind: ChebKind, n: int, z: complex) -> complex:
    """Exponential form via w = z + sqrt(z^2-1); |w| >= 1 by branch choice."""
    w = z + _sqrt_branch(z)
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
    return (wn1 - 1.0 / wn1) / denom


# degree * log(|x|+sqrt(x^2-1)) beyond this would overflow the dd splitter
_DD_LOG_LIMIT = 640.0


def eval_cheb(kind: ChebKind, n: int, z) -> float | complex:
    """Evaluate T_n or U_n at a scalar point.

    Real arguments run through the compensated recurrence (a few ulp up to
    n = 64); complex arguments use the exponential form with the branch of
    sqrt(z^2-1) cut along [-1, 1] and normalized to +1 at z = sqrt(2).
    Returns a float for real input, complex otherwise.  Raises DomainError,
    naming log |T_n(z)| (or log |U_n(z)|), where w^n of the exponential form
    overflows a float: at z = 3 that is from n = 403 on.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"degree must be a non-negative integer, got {n!r}")
    n = int(n)
    if kind not in (ChebKind.FIRST_KIND, ChebKind.SECOND_KIND):
        raise DomainError(f"unknown Chebyshev kind {kind!r}")
    zc = _require_finite_scalar(z)
    x = zc.real
    try:
        if zc.imag != 0.0:
            return _cheb_exponential(kind, n, zc)
        if abs(x) > 1.0 and n * math.log(abs(x) + math.sqrt(x * x - 1.0)) > _DD_LOG_LIMIT:
            return complex(_cheb_exponential(kind, n, complex(x))).real
    except OverflowError:
        # |w| >= 1 on the branch used, and w^-n is negligible beside w^n here
        w = zc + _sqrt_branch(zc)
        lw = abs(math.log(abs(w)))
        if kind is ChebKind.FIRST_KIND:
            name, log_val = "T", n * lw - math.log(2.0)
        else:
            name, log_val = "U", (n + 1) * lw - math.log(abs(w - 1.0 / w))
        raise DomainError(
            f"{name}_{n} out of range at z = {z}: w^n overflows a float, "
            f"log |{name}_{n}(z)| = {log_val:.6f}"
        ) from None
    return _cheb_recurrence_dd(kind, n, x)


def cheb_t(n: int, x) -> np.ndarray:
    """Vectorized T_n on the real line (trig inside [-1,1], cosh outside)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    ax = np.abs(x)
    inside = ax <= 1.0
    out[inside] = np.cos(n * np.arccos(x[inside]))
    if not inside.all():
        xo = ax[~inside]
        vals = np.cosh(n * np.arccosh(xo))
        neg = x[~inside] < 0
        if n % 2:
            vals = np.where(neg, -vals, vals)
        out[~inside] = vals
    # endpoints exactly
    out[x == 1.0] = 1.0
    out[x == -1.0] = (-1.0) ** n
    return out


def cheb_u(n: int, x) -> np.ndarray:
    """Vectorized U_n on the real line (sin ratio inside, sinh ratio outside)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    ax = np.abs(x)
    strict = ax < 1.0
    if strict.any():
        xi = x[strict]
        theta = np.arccos(xi)
        out[strict] = np.sin((n + 1) * theta) / np.sqrt((1.0 - xi) * (1.0 + xi))
    outside = ax > 1.0
    if outside.any():
        xo = ax[outside]
        ell = np.arccosh(xo)
        vals = np.sinh((n + 1) * ell) / np.sinh(ell)
        neg = x[outside] < 0
        if n % 2:
            vals = np.where(neg, -vals, vals)
        out[outside] = vals
    out[x == 1.0] = float(n + 1)
    out[x == -1.0] = (-1.0) ** n * (n + 1)
    return out


def joukowski(w) -> float | complex:
    """The map w -> (w + 1/w)/2.  Rejects w = 0."""
    wc = _require_finite_scalar(w)
    if wc == 0:
        raise DomainError("joukowski map undefined at w = 0")
    val = 0.5 * (wc + 1.0 / wc)
    if isinstance(w, complex) or (isinstance(w, np.generic) and np.iscomplexobj(w)):
        return val
    if wc.imag == 0.0 and not isinstance(w, complex):
        return val.real
    return val


def solve_t_equals(n: int, c: float, *, residual_tol: float | None = None) -> list[float]:
    """All n solutions of T_n(x) = c in (-1, 1), ascending.

    Requires |c| < 1, which makes the roots simple and interior.  Roots come
    from the arccos representation and two Newton steps, all roots together;
    each satisfies |T_n(x) - c| <= residual_tol, and otherwise the first
    failing root in enumeration order is reported.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"degree must be a positive integer, got {n!r}")
    n = int(n)
    c = float(c)
    if not math.isfinite(c) or abs(c) >= 1.0:
        raise DomainError(f"solve_t_equals requires |c| < 1, got c={c}")
    tol = DEFAULTS.solve_t_residual_tol if residual_tol is None else residual_tol

    theta0 = math.acos(c)
    thetas = []
    k_plus = int((n * math.pi - theta0) // (2.0 * math.pi))
    for k in range(k_plus + 1):
        thetas.append((theta0 + 2.0 * math.pi * k) / n)
    k_minus = int((n * math.pi + theta0) // (2.0 * math.pi))
    for k in range(1, k_minus + 1):
        thetas.append((2.0 * math.pi * k - theta0) / n)
    if len(thetas) != n:
        raise ToleranceNotMetError(
            f"expected {n} roots of T_{n}(x) = {c}, enumerated {len(thetas)}"
        )

    xr = np.array([math.cos(theta) for theta in thetas])
    live = np.ones(n, dtype=bool)  # a root whose derivative vanishes stops moving
    for _ in range(2):
        tn = _cheb_recurrence_dd(ChebKind.FIRST_KIND, n, xr)
        deriv = n * _cheb_recurrence_dd(ChebKind.SECOND_KIND, n - 1, xr)
        live &= deriv != 0.0
        xr -= np.divide(tn - c, deriv, out=np.zeros(n), where=live)
    resid = np.abs(_cheb_recurrence_dd(ChebKind.FIRST_KIND, n, xr) - c)
    bad = np.flatnonzero(resid > tol)
    if len(bad):
        x0 = float(xr[bad[0]])
        raise ToleranceNotMetError(
            f"root polish stalled at x={x0} with |T_n(x)-c|={resid[bad[0]]:.3e}",
            best=x0,
        )
    return sorted(xr.tolist())


def ellipse_classify(ellipse: EllipseParam, z, tol: float | None = None) -> EllipseClassification:
    """Classify z against the ellipse via the canonical-form residual
    re^2/p^2 + im^2/(p^2-1) - 1."""
    if tol is None:
        tol = DEFAULTS.ellipse_on_tol
    zc = _require_finite_scalar(z)
    p2 = ellipse.p * ellipse.p
    residual = zc.real * zc.real / p2 + zc.imag * zc.imag / (p2 - 1.0) - 1.0
    if abs(residual) <= tol:
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
    if m < 2:
        raise DomainError(f"need at least 2 grid points, got {m}")
    j = np.arange(m)
    return np.sin(np.pi * (2 * j - (m - 1)) / (2 * (m - 1)))
