"""Extremal logarithmic derivatives on [-1, 1] with a fixed real pole.

A logarithmic derivative of degree n is the simple partial fraction
``sum_k 1/(x - z_k)`` with a conjugate-closed pole multiset.  This module
builds the weighted-norm minimizer of the fixed-pole class in closed form
(poles are Joukowski images of equispaced points on a circle), the
near-minimal candidate for the unweighted norm (poles are roots of an
integrated Chebyshev polynomial), and the supporting machinery: sup norms
with grid + golden-section refinement, alternance reports, pole-location
checks against Bernstein ellipses, and the deviation bracket obtained from
sign-alternating values.

Closed-form fractions carry exact Chebyshev rational evaluators that the
norm engines use; the generic pole-sum path stays available through
:func:`eval_ld` (compensated arithmetic) and serves as the independent
cross-check of the rational forms.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from . import _dd
from ._optim import supremum_on_grid
from .cheb import (
    ChebKind,
    EllipseParam,
    PointLocation,
    cheb_t,
    cheb_u,
    chebyshev_points,
    ellipse_classify,
    eval_cheb,
    solve_t_equals,
)
from .config import DEFAULTS
from .errors import (
    DomainError,
    EvaluationError,
    TheoremRangeError,
    ToleranceNotMetError,
)

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FixedPoleClass:
    """Degree and fixed real pole of the class under study (a > 1)."""

    n: int
    a: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise DomainError(f"degree must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if not (math.isfinite(self.a) and self.a > 1.0):
            raise DomainError(f"fixed pole must satisfy a > 1, got a={self.a}")
        object.__setattr__(self, "a", float(self.a))


def _canonical_poles(raw, match_tol: float = 1e-8):
    """Sort poles, enforce conjugate closure, and split into reals/pairs."""
    poles = [complex(z) for z in raw]
    if not poles:
        raise DomainError("a logarithmic derivative needs at least one pole")
    for z in poles:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError(f"non-finite pole {z!r}")
    reals = [z.real for z in poles if z.imag == 0.0]
    upper = sorted((z for z in poles if z.imag > 0.0), key=lambda z: (z.real, z.imag))
    lower = sorted((z for z in poles if z.imag < 0.0), key=lambda z: (z.real, -z.imag))
    if len(upper) != len(lower):
        raise DomainError("pole multiset is not closed under complex conjugation")
    pairs: list[tuple[float, float]] = []
    for zu, zl in zip(upper, lower):
        if abs(zu - zl.conjugate()) > match_tol * max(1.0, abs(zu)):
            raise DomainError(
                f"pole multiset is not closed under complex conjugation: "
                f"{zu!r} has no conjugate partner"
            )
        mid = 0.5 * (zu + zl.conjugate())
        pairs.append((mid.real, abs(mid.imag)))
    canon = [complex(r, 0.0) for r in reals]
    for u, v in pairs:
        canon.append(complex(u, v))
        canon.append(complex(u, -v))
    canon.sort(key=lambda z: (z.real, z.imag))
    return tuple(canon), tuple(sorted(reals)), tuple(sorted(pairs))


@dataclass(frozen=True)
class LogDerivative:
    """Simple partial fraction sum_k 1/(x - z_k), conjugate-closed poles."""

    poles: tuple[complex, ...]

    def __post_init__(self):
        canon, reals, pairs = _canonical_poles(self.poles)
        object.__setattr__(self, "poles", canon)
        object.__setattr__(self, "_reals", reals)
        object.__setattr__(self, "_pairs", pairs)

    @property
    def degree(self) -> int:
        return len(self.poles)

    def has_pole_on_segment(self, tol: float | None = None) -> bool:
        tol = DEFAULTS.pole_on_segment_tol if tol is None else tol
        return any(
            abs(z.imag) <= tol and -1.0 - tol <= z.real <= 1.0 + tol for z in self.poles
        )

    def values_on(self, x):
        """Vectorized pole-sum evaluation (plain float arithmetic).

        Conjugate pairs are combined as 2(x-u)/((x-u)^2 + v^2), so real input
        gives exactly real output.  For high-cancellation pointwise work use
        :func:`eval_ld`.
        """
        return pole_sums(x, self._reals, self._pairs)[0][0]

    def second_derivative_on(self, x):
        return pole_sums(x, self._reals, self._pairs, order=2)[0][2]


def pole_sums(x, reals, pairs, order: int = 0, dz=None):
    """Float pole sum rho(x) = sum_k 1/(x - z_k) and its x-derivatives.

    ``reals`` are the real poles and ``pairs`` the (u, v) of the conjugate
    pairs u +- iv, each pair combined as 2(x-u)/((x-u)^2 + v^2).  Terms are
    accumulated reals first, then pairs, each in the order given, so the
    caller's order fixes the rounding.  Returns ``(sums, grads)``: sums is
    [rho, rho', rho''] up to ``order`` (at most 2), each shaped like x.

    With ``dz`` (one entry per real pole: the derivative of that pole in its
    parameter) and order <= 1, grads is [d rho/d theta, d rho'/d theta] up to
    ``order``, with one row per real pole, then two per pair: the center u
    and the log-offset log v.  Without dz, grads is None.
    """
    x = np.asarray(x, dtype=float)
    col = (-1,) + (1,) * x.ndim
    nr, npair = len(reals), len(pairs)
    top = order + (dz is not None)  # highest x-derivative of a term needed
    rterms = pterms = [()] * (top + 1)
    if nr:
        d = x - np.array(reals, dtype=float).reshape(col)
        rterms = [1.0 / d]
        if top >= 1:
            d2 = d * d
            rterms.append(-1.0 / d2)
        if top >= 2:
            d3 = d2 * d
            rterms.append(2.0 / d3)
    if npair:
        u, v = np.array(pairs, dtype=float).reshape(-1, 2).T.reshape((2,) + col)
        dp = x - u
        vv = v * v
        den = dp * dp + vv
        pterms = [2.0 * dp / den]
        if top >= 1:
            den2 = den * den
            pterms.append(2.0 * (vv - dp * dp) / den2)
        if top >= 2:
            den3 = den2 * den
            pterms.append(-4.0 * dp * (3.0 * v * v - dp * dp) / den3)
    sums = []
    for k in range(order + 1):
        total = np.zeros(x.shape)
        for t in (*rterms[k], *pterms[k]):
            total += t
        sums.append(total)
    if dz is None:
        return sums, None
    dz = np.array(dz, dtype=float).reshape(col)
    grads = []
    for k in range(order + 1):
        g = np.empty((nr + 2 * npair,) + x.shape)
        if nr:
            g[:nr] = dz / d2 if k == 0 else -2.0 * dz / d3
        if npair:
            g[nr::2] = -pterms[k + 1]
            g[nr + 1::2] = (-4.0 * dp * v * v / den2 if k == 0
                            else 4.0 * v * v * (3.0 * dp * dp - v * v) / den3)
        grads.append(g)
    return sums, grads


@dataclass(frozen=True)
class WeightedExtremalFraction(LogDerivative):
    """Closed-form minimizer of the weighted sup norm in the fixed-pole class.

    Poles are the roots of T_n(x) - T_n(a); evaluation goes through the
    equivalent rational form n*U_{n-1}(x)/(T_n(x) - T_n(a)), which is free of
    the cancellation the raw pole sum suffers on [-1, 1].
    """

    n: int = 0
    a: float = 0.0
    level: float = 0.0
    tna: float = 0.0
    within_theorem_range: bool = True

    def values_on(self, x):
        if not math.isfinite(self.tna):
            return super().values_on(x)
        x = np.asarray(x, dtype=float)
        return self.n * cheb_u(self.n - 1, x) / (cheb_t(self.n, x) - self.tna)


@dataclass(frozen=True)
class UnweightedCandidateFraction(LogDerivative):
    """Near-minimal fraction for the unweighted norm: poles are the roots of
    the antiderivative of T_{n-1} taken from the fixed pole a."""

    n: int = 0
    a: float = 0.0
    fa: float = 0.0

    def values_on(self, x):
        x = np.asarray(x, dtype=float)
        fx = cheb_t(self.n, x) / self.n - cheb_t(self.n - 2, x) / (self.n - 2)
        return cheb_t(self.n - 1, x) / (0.5 * (fx - self.fa))


@dataclass(frozen=True)
class AlternanceReport:
    """Sign-alternating points of a residual, their values, and the level."""

    points: tuple[float, ...]
    values: tuple[float, ...]
    level: float
    sign_pattern_ok: bool


@dataclass(frozen=True)
class NormEstimate:
    value: float
    location: float
    weighted: bool
    refinement_tol: float


@dataclass(frozen=True)
class PoleAnnulusReport:
    """Pole localization: inside the closure of E_a, outside E_t when t > 1."""

    t: float
    all_in_closure_ea: bool
    all_outside_et: bool | None
    ea_residuals: tuple[float, ...]
    et_residuals: tuple[float, ...] | None
    min_abs_pole: float
    poles: tuple[complex, ...]


class LambdaBounds(NamedTuple):
    lower: float
    upper: float


class DvpBracket(NamedTuple):
    lower: float
    upper: float
    weak_equiv_ratio: float


def eval_ld(rho: LogDerivative, x, proximity_tol: float | None = None):
    """Pointwise pole-sum value of the fraction at a real x or at each point
    of a 1-D array x.

    Conjugate pairs are combined analytically as 2(x-u)/((x-u)^2+v^2) and the
    terms are evaluated and accumulated in compensated (double-double)
    arithmetic, so the result stays accurate even when the sum is many orders
    of magnitude below the individual terms.  The arithmetic is elementwise,
    so a point gets the same bits alone or in an array.  Returns a float for
    scalar x and an ndarray for an array.  Rejects a non-finite point, and a
    point closer than ``proximity_tol`` to a pole; for an array, the first
    point that fails either check is reported.
    """
    tol = DEFAULTS.pole_proximity_tol if proximity_tol is None else proximity_tol
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise DomainError(f"evaluation points must form a scalar or a 1-D array, got {xs.shape}")
    x = np.atleast_1d(xs)
    poles = np.array(rho.poles)
    near = np.hypot(x[:, None] - poles.real, 0.0 - poles.imag) <= tol
    bad = ~np.isfinite(x) | near.any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if not math.isfinite(x[i]):
            raise DomainError(f"non-finite evaluation point {float(x[i])!r}")
        z = rho.poles[int(np.argmax(near[i]))]
        raise EvaluationError(f"evaluation point {float(x[i])} is within {tol} of pole {z}")
    acc = (0.0, 0.0)
    one = (1.0, 0.0)
    for r in rho._reals:
        acc = _dd.dd_add(acc, _dd.dd_div(one, _dd.two_diff(x, r)))
    for u, v in rho._pairs:
        d = _dd.two_diff(x, u)
        den = _dd.dd_add(_dd.dd_sqr(d), _dd.two_prod(v, v))
        num = (2.0 * d[0], 2.0 * d[1])
        acc = _dd.dd_add(acc, _dd.dd_div(num, den))
    value = _dd.dd_to_float(acc)
    return float(value[0]) if xs.ndim == 0 else value


def _weighted_level(n: int, a: float) -> float:
    """n / sqrt(T_n(a)^2 - 1) through the stable circle-radius form.

    Raises TheoremRangeError where the level is below the smallest normal
    float (at a = 3, from n = 406 on) rather than return a subnormal or 0.
    """
    r = a + math.sqrt(a * a - 1.0)
    nlr = n * math.log(r)
    if nlr < 350.0:
        rn = r**n
        return 2.0 * n / (rn - 1.0 / rn)
    # log-domain tail; the r^(-2n) correction has already underflowed
    level = 2.0 * n * math.exp(-nlr)
    if level < sys.float_info.min:
        raise TheoremRangeError(
            f"the weighted level n/sqrt(T_n(a)^2 - 1) = exp({math.log(2.0 * n) - nlr:.6f}) "
            f"is below the smallest normal float at n={n}, a={a}: "
            f"log T_n(a) = {nlr - math.log(2.0):.6f}"
        )
    return level


def extremal_weighted_norm(cls: FixedPoleClass) -> float:
    """Closed-form weighted deviation n / sqrt(T_n(a)^2 - 1) of the minimizer."""
    return _weighted_level(cls.n, cls.a)


def build_extremal_weighted(cls: FixedPoleClass, force: bool = False) -> WeightedExtremalFraction:
    """Construct the weighted-norm minimizer of the fixed-pole class.

    Poles are the n roots of T_n(x) = T_n(a), obtained in closed form as
    Joukowski images of equispaced points on the circle of radius
    a + sqrt(a^2 - 1); the set contains a and is conjugate-closed by
    construction.  The optimality theorem needs a > sqrt(2); smaller a > 1
    still constructs the fraction but raises unless ``force`` is given, in
    which case the result is tagged ``within_theorem_range=False``.
    """
    n, a = cls.n, cls.a
    within = a > SQRT2
    if not within and not force:
        raise TheoremRangeError(
            f"optimality requires a > sqrt(2) (= {SQRT2:.6f}); got a={a}. "
            "Pass force=True to build anyway (construction is valid for a > 1)."
        )
    r = a + math.sqrt(a * a - 1.0)
    poles = [complex(a, 0.0)]
    if n % 2 == 0:
        poles.append(complex(-a, 0.0))
    for j in range(1, (n + 1) // 2):
        w = r * cmath.exp(complex(0.0, 2.0 * math.pi * j / n))
        x = 0.5 * (w + 1.0 / w)
        poles.append(x)
        poles.append(x.conjugate())
    tna = eval_cheb(ChebKind.FIRST_KIND, n, a)
    return WeightedExtremalFraction(
        poles=tuple(poles),
        n=n,
        a=a,
        level=_weighted_level(n, a),
        tna=float(tna),
        within_theorem_range=within,
    )


def alternance_points_weighted(
    cls: FixedPoleClass, force: bool = True
) -> tuple[AlternanceReport, tuple[float, ...]]:
    """Alternance of the weighted minimizer and the zeros of its weighted form.

    Returns the n roots of T_n(x) = 1/T_n(a) together with the values of
    sqrt(1-x^2) * rho there (alternating signs, common magnitude equal to the
    closed-form level), plus the n+1 zeros cos(pi*k/n) of the weighted
    function.
    """
    n, a = cls.n, cls.a
    rho = build_extremal_weighted(cls, force=force)
    tna = rho.tna
    c = 1.0 / tna if math.isfinite(tna) else 0.0
    points = solve_t_equals(n, c)
    xs = np.array(points)
    values = (np.sqrt(np.maximum(1.0 - xs * xs, 0.0)) * eval_ld(rho, xs)).tolist()
    level = rho.level
    signs_ok = all(values[i] * values[i + 1] < 0.0 for i in range(len(values) - 1))
    j = np.arange(n + 1)
    zeros = np.sin(np.pi * (n - 2 * j) / (2 * n))
    zeros_sorted = tuple(sorted(float(z) for z in zeros))
    report = AlternanceReport(
        points=tuple(points),
        values=tuple(values),
        level=level,
        sign_pattern_ok=signs_ok,
    )
    return report, zeros_sorted


def _f_and_fa(n: int, a: float) -> float:
    """f(a) with f(x) = T_n(x)/n - T_{n-2}(x)/(n-2), in compensated arithmetic."""
    tn = eval_cheb(ChebKind.FIRST_KIND, n, a)
    tn2 = eval_cheb(ChebKind.FIRST_KIND, n - 2, a)
    fa = _dd.dd_sub(
        _dd.dd_div((tn, 0.0), (float(n), 0.0)),
        _dd.dd_div((tn2, 0.0), (float(n - 2), 0.0)),
    )
    return _dd.dd_to_float(fa)


def _candidate_q(n: int, fa: float, z: complex) -> complex:
    fz = (
        eval_cheb(ChebKind.FIRST_KIND, n, z) / n
        - eval_cheb(ChebKind.FIRST_KIND, n - 2, z) / (n - 2)
    )
    return 0.5 * (fz - fa)


def build_candidate_unweighted(
    cls: FixedPoleClass, residual_tol: float | None = None
) -> UnweightedCandidateFraction:
    """Construct the unweighted-norm candidate fraction.

    Its poles are the n roots of the integral of T_{n-1} from a, i.e. of
    (f(x) - f(a))/2 with f(x) = T_n(x)/n - T_{n-2}(x)/(n-2).  Roots come from
    the colleague-matrix solver on the Chebyshev-basis coefficients and are
    polished by Newton steps (the derivative is exactly T_{n-1}); each must
    pass the residual gate |Q(z)| <= tol * max(1, |T_{n-1}(z)|).
    """
    n, a = cls.n, cls.a
    if n < 4:
        raise TheoremRangeError(f"the unweighted candidate needs degree n >= 4, got n={n}")
    if a <= 1.0 + 1.0 / n:
        raise TheoremRangeError(
            f"the unweighted candidate needs a > 1 + 1/n = {1 + 1/n:.6f}, got a={a}"
        )
    tol = DEFAULTS.candidate_root_residual_tol if residual_tol is None else residual_tol
    fa = _f_and_fa(n, a)

    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0 / n
    coeffs[n - 2] = -1.0 / (n - 2)
    coeffs[0] = -fa
    roots = [complex(z) for z in npcheb.chebroots(coeffs)]

    polished = []
    for z in roots:
        for _ in range(6):
            q = _candidate_q(n, fa, z)
            dq = eval_cheb(ChebKind.FIRST_KIND, n - 1, z)
            if dq == 0:
                break
            step = q / dq
            z = z - step
            if abs(step) < 1e-15 * max(1.0, abs(z)):
                break
        q = _candidate_q(n, fa, z)
        scale = max(1.0, abs(eval_cheb(ChebKind.FIRST_KIND, n - 1, z)))
        if abs(q) > tol * scale:
            raise ToleranceNotMetError(
                f"candidate pole at {z} kept residual {abs(q):.3e} > {tol:.1e} * scale",
                best=z,
            )
        polished.append(z)

    # Q(a) = 0 by construction; for even n, Q(-a) = 0 by symmetry of f
    idx_a = min(range(len(polished)), key=lambda i: abs(polished[i] - a))
    polished[idx_a] = complex(a, 0.0)
    if n % 2 == 0:
        idx_ma = min(range(len(polished)), key=lambda i: abs(polished[i] + a))
        polished[idx_ma] = complex(-a, 0.0)
    # real coefficients: snap near-real roots onto the axis before pairing
    snapped = [
        complex(z.real, 0.0) if abs(z.imag) <= 1e-10 * max(1.0, abs(z)) else z
        for z in polished
    ]
    return UnweightedCandidateFraction(poles=tuple(snapped), n=n, a=a, fa=fa)


def lambda_bounds(cls: FixedPoleClass) -> LambdaBounds:
    """Two-sided bound on the alternating values of the unweighted candidate:
    2n / (T_n(a) - n/(n-2) T_{n-2}(a) +- 2(n-1)/(n-2))."""
    n, a = cls.n, cls.a
    if n < 4:
        raise TheoremRangeError(f"lambda bounds need n >= 4, got n={n}")
    if a <= 1.0 + 1.0 / n:
        raise TheoremRangeError(f"lambda bounds need a > 1 + 1/n, got a={a}")
    tn = eval_cheb(ChebKind.FIRST_KIND, n, a)
    tn2 = eval_cheb(ChebKind.FIRST_KIND, n - 2, a)
    base = tn - (n / (n - 2)) * tn2
    wiggle = 2.0 * (n - 1) / (n - 2)
    low_den = base + wiggle
    high_den = base - wiggle
    if high_den <= 0.0 or low_den <= 0.0:
        raise DomainError(
            "lambda-bound denominator not positive; parameters outside the valid range"
        )
    return LambdaBounds(2.0 * n / low_den, 2.0 * n / high_den)


def verify_pole_annulus(
    cls: FixedPoleClass,
    candidate: UnweightedCandidateFraction | None = None,
    closure_tol: float | None = None,
) -> PoleAnnulusReport:
    """Check the candidate's poles against the ellipse annulus.

    Every pole must lie in the closure of E_a; when t = a*(3*sqrt(n))^(-1/n)
    exceeds 1, every pole must also lie strictly outside E_t (reported as
    None otherwise).  Per-pole canonical-form residuals are returned.
    """
    if candidate is None:
        candidate = build_candidate_unweighted(cls)
    tol = DEFAULTS.ellipse_closure_tol if closure_tol is None else closure_tol
    n, a = cls.n, cls.a
    t = a * (3.0 * math.sqrt(n)) ** (-1.0 / n)
    ea = EllipseParam(a)
    ea_res = tuple(ellipse_classify(ea, z).residual for z in candidate.poles)
    all_in = all(res <= tol for res in ea_res)
    if t > 1.0:
        et = EllipseParam(t)
        et_cls = [ellipse_classify(et, z) for z in candidate.poles]
        et_res = tuple(c.residual for c in et_cls)
        all_out = all(c.location is PointLocation.OUTSIDE for c in et_cls)
    else:
        et_res = None
        all_out = None
    return PoleAnnulusReport(
        t=t,
        all_in_closure_ea=all_in,
        all_outside_et=all_out,
        ea_residuals=ea_res,
        et_residuals=et_res,
        min_abs_pole=min(abs(z) for z in candidate.poles),
        poles=candidate.poles,
    )


def _norm_grid(degree: int, floor: int | None = None) -> np.ndarray:
    """Chebyshev scan grid: supnorm_grid_per_degree points per unit degree,
    and at least ``floor`` (default supnorm_min_grid)."""
    floor = DEFAULTS.supnorm_min_grid if floor is None else floor
    return chebyshev_points(max(DEFAULTS.supnorm_grid_per_degree * degree, floor))


def _weight(x):
    """The weight sqrt(1 - x^2) of the weighted norm, clipped at 0 off [-1, 1]."""
    return np.sqrt(np.clip((1.0 - x) * (1.0 + x), 0.0, None))


def _sup_norm(rho: LogDerivative, tol: float | None, weighted: bool) -> NormEstimate:
    tol = DEFAULTS.supnorm_xtol if tol is None else float(tol)
    if tol <= 0.0:
        raise DomainError(f"refinement tolerance must be positive, got {tol}")
    if rho.has_pole_on_segment():
        raise DomainError("fraction has a pole on [-1, 1]; sup norm undefined")

    def fn(x):
        y = rho.values_on(x)
        return np.abs(_weight(x) * y if weighted else y)

    value, loc = supremum_on_grid(fn, _norm_grid(rho.degree), tol)
    return NormEstimate(value=value, location=loc, weighted=weighted, refinement_tol=tol)


def weighted_sup_norm(rho: LogDerivative, tol: float | None = None) -> NormEstimate:
    """max over [-1,1] of |sqrt(1-x^2) * rho(x)| by grid scan + refinement."""
    return _sup_norm(rho, tol, weighted=True)


def sup_norm(rho: LogDerivative, tol: float | None = None) -> NormEstimate:
    """max over [-1,1] of |rho(x)| by grid scan + refinement."""
    return _sup_norm(rho, tol, weighted=False)


def dvp_bracket(cls: FixedPoleClass, tol: float | None = None) -> DvpBracket:
    """Two-sided bracket for the least unweighted deviation of the class.

    lower is the smallest magnitude of the candidate at the alternation
    points cos(k*pi/(n-1)); upper is the candidate's sup norm.  The third
    field reports upper * (T_n(a) - T_{n-2}(a)) / (2n), the ratio against the
    weak-equivalence scale (no bound on it is asserted here).
    """
    n, a = cls.n, cls.a
    if n < 4:
        raise TheoremRangeError(f"the deviation bracket needs n >= 4, got n={n}")
    a_min = SQRT2 * (3.0 * math.sqrt(n)) ** (1.0 / n)
    if a <= a_min:
        raise TheoremRangeError(
            f"the deviation bracket needs a > sqrt(2)*(3*sqrt(n))^(1/n) = {a_min:.6f}, got a={a}"
        )
    candidate = build_candidate_unweighted(cls)
    seps = [
        abs(p - q)
        for i, p in enumerate(candidate.poles)
        for q in candidate.poles[i + 1 :]
    ]
    if seps and min(seps) <= DEFAULTS.min_pole_separation:
        raise DomainError("candidate poles are not pairwise distinct")
    annulus = verify_pole_annulus(cls, candidate)
    if annulus.min_abs_pole <= 1.0:
        raise TheoremRangeError(
            f"bracket hypotheses need every |z_k| > 1; min |z_k| = {annulus.min_abs_pole:.6f}"
        )
    j = np.arange(n)
    points = np.sin(np.pi * (n - 1 - 2 * j) / (2 * (n - 1)))
    lower = min(np.abs(eval_ld(candidate, points)).tolist())
    upper = sup_norm(candidate, tol).value
    tn = eval_cheb(ChebKind.FIRST_KIND, n, a)
    tn2 = eval_cheb(ChebKind.FIRST_KIND, n - 2, a)
    ratio = upper * (tn - tn2) / (2.0 * n)
    return DvpBracket(lower, upper, ratio)
