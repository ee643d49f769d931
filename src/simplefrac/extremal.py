"""Extremal logarithmic derivatives on [-1, 1] with a fixed real pole.

A logarithmic derivative of degree n is the simple partial fraction
``sum_k 1/(x - z_k)`` with a conjugate-closed pole multiset.  This module
builds the weighted-norm minimizer of the fixed-pole class in closed form
(poles are Joukowski images of equispaced points on a circle), the
near-minimal candidate for the unweighted norm (poles are roots of an
integrated Chebyshev polynomial), and the supporting machinery: sup norms
with grid + bracketing refinement, alternance reports, pole-location
checks against Bernstein ellipses, and the deviation bracket obtained from
sign-alternating values.

Closed-form fractions are evaluated only through their exact Chebyshev
rational forms, never through their rounded poles; generic fractions go
through :func:`pole_sums`, whose blocks of points share one workspace of
at most ``_WORKSPACE`` floats (owned here, read by :mod:`simplefrac.bernstein`
too): memory O(points), not O(n * points), and the same bits at every block
seam.  :func:`eval_ld` is a public compensated pole sum that no routine
here calls, kept because ``perfbench/tracer.py`` binds it by name.  The
candidate's poles come from one Newton run in the Joukowski variable, seeded
at the weighted poles.  The alternance criterion's pole hypotheses have one
test, :func:`_check_pole_hypotheses`.

Every closed form and bound here and in :mod:`simplefrac.bernstein` reads
T_n(a), T_{n-2}(a), f(a) and the weighted level off :class:`FixedPoleClass`,
which also keeps the weighted extremal and the candidate, each built once
per instance.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _dd
from ._optim import supremum_on_grid
from .cheb import (
    ChebKind,
    EllipseParam,
    _angles,
    _ellipse_residuals,
    cheb_t,
    cheb_u,
    chebyshev_points,
    eval_cheb,
    solve_t_equals,
)
from .config import DEFAULTS, Config
from .errors import (
    DomainError,
    EvaluationError,
    TheoremRangeError,
    ToleranceNotMetError,
    require_complex,
    require_int,
    require_real,
)

SQRT2 = math.sqrt(2.0)


def corollary_min_a(n: int) -> float:
    """Parameter threshold sqrt(2) * (3*sqrt(n))^(1/n) of the unweighted bound."""
    n = require_int("degree", n, 1)
    return SQRT2 * (3.0 * math.sqrt(n)) ** (1.0 / n)


@dataclass(frozen=True)
class FixedPoleClass:
    """Degree and fixed real pole of the class under study (a > 1).

    The one owner of the scalars of (n, a) that the closed forms and bounds
    read: T_n(a), T_{n-2}(a), f(a) and the weighted level, each computed on
    first use and then kept, and of the theorem's range gate.  They stay
    lazy because they exist over different ranges: at a = 3 the level is a
    float up to n = 405, T_n(a) only up to n = 403; f(a) exists wherever
    T_n(a) and T_{n-2}(a) do.

    It also owns the class's two closed-form fractions, kept the same way:
    the weighted extremal, and the unweighted candidate's Newton run with
    the fraction built from it, so every routine that takes the class
    reuses one build.  What is kept reads no config and no ``force``; the
    gates that do run on every call.  An error is not kept, and what is
    kept dies with the instance: nothing is shared between two instances.
    None of it is a field, so eq, hash and repr see (n, a) only.
    """

    n: int
    a: float

    def __post_init__(self):
        object.__setattr__(self, "n", require_int("degree", self.n, 1))
        object.__setattr__(self, "a", require_real("fixed pole a", self.a, 1.0))

    @functools.cached_property
    def tn(self) -> float:
        """T_n(a); raises DomainError where it overflows a float."""
        return eval_cheb(ChebKind.FIRST_KIND, self.n, self.a)

    @functools.cached_property
    def tn2(self) -> float:
        """T_{n-2}(a), for n >= 2."""
        return eval_cheb(ChebKind.FIRST_KIND, self.n - 2, self.a)

    @functools.cached_property
    def fa(self) -> float:
        """f(a) with f(x) = T_n(x)/n - T_{n-2}(x)/(n-2), correctly rounded.

        The difference is formed exactly in rational arithmetic from the
        floats T_n(a) and T_{n-2}(a), so f(a) exists wherever they do.
        Raises DomainError for n < 3, where f is not defined.
        """
        if self.n < 3:
            raise DomainError(f"f(a) = T_n(a)/n - T_(n-2)(a)/(n-2) needs n >= 3, got n={self.n}")
        return float(Fraction(self.tn) / self.n - Fraction(self.tn2) / (self.n - 2))

    @functools.cached_property
    def level(self) -> float:
        """The weighted level n / sqrt(T_n(a)^2 - 1), through the stable
        circle-radius form.

        Raises TheoremRangeError where the level is below the smallest normal
        float (at a = 3, from n = 406 on) rather than return a subnormal or 0.
        """
        n, a = self.n, self.a
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

    @functools.cached_property
    def _extremal(self) -> WeightedExtremalFraction:
        """The weighted extremal, which build_extremal_weighted returns."""
        n, a = self.n, self.a
        tna = float(self.tn)  # first: where T_n(a) overflows, that is the error
        return WeightedExtremalFraction(
            poles=_joukowski_poles(n, a, _circle_points(n, a)),
            n=n,
            a=a,
            level=self.level,
            tna=tna,
            within_theorem_range=a > SQRT2,
        )

    @functools.cached_property
    def _candidate_run(self):
        """The unweighted candidate's Newton run, which reads no config (see
        _candidate_newton); build_candidate_unweighted gates it."""
        return _candidate_newton(self.n, self.a, self.fa)

    @functools.cached_property
    def _candidate(self) -> UnweightedCandidateFraction:
        """The unweighted candidate from the kept run, built once a gate passed."""
        n, a = self.n, self.a
        w = self._candidate_run[0]
        return UnweightedCandidateFraction(poles=_joukowski_poles(n, a, w.tolist()), n=n, a=a, fa=self.fa)

    def require(self, what: str, a_min: float) -> None:
        """The range of the unweighted results: raise TheoremRangeError
        unless n >= 4 and a > a_min."""
        if self.n < 4 or self.a <= a_min:
            raise TheoremRangeError(
                f"{what} needs n >= 4 and a > {a_min:.6f}, got n={self.n}, a={self.a}"
            )


def _conjugate_halves(poles, match_tol: float = 1e-8):
    """Check that finite complex poles are nonempty and closed under
    conjugation; return the reals and the upper and lower halves, sorted so
    that zip(upper, lower) pairs each pole with its conjugate."""
    if not poles:
        raise DomainError("a logarithmic derivative needs at least one pole")
    reals = [z.real for z in poles if z.imag == 0.0]
    upper = sorted((z for z in poles if z.imag > 0.0), key=lambda z: (z.real, z.imag))
    lower = sorted((z for z in poles if z.imag < 0.0), key=lambda z: (z.real, -z.imag))
    if len(upper) != len(lower):
        raise DomainError("pole multiset is not closed under complex conjugation")
    for zu, zl in zip(upper, lower):
        if abs(zu - zl.conjugate()) > match_tol * max(1.0, abs(zu)):
            raise DomainError(
                f"pole multiset is not closed under complex conjugation: "
                f"{zu!r} has no conjugate partner"
            )
    return reals, upper, lower


def _canonical_poles(raw, match_tol: float = 1e-8):
    """Sort poles, enforce conjugate closure, and split into reals/pairs."""
    reals, upper, lower = _conjugate_halves([require_complex("pole", z) for z in raw], match_tol)
    pairs: list[tuple[float, float]] = []
    for zu, zl in zip(upper, lower):
        mid = 0.5 * (zu + zl.conjugate())
        pairs.append((mid.real, abs(mid.imag)))
    canon = [complex(r, 0.0) for r in reals]
    for u, v in pairs:
        canon.append(complex(u, v))
        canon.append(complex(u, -v))
    canon.sort(key=lambda z: (z.real, z.imag))
    return tuple(canon), tuple(sorted(reals)), tuple(sorted(pairs))


def _on_segment(z, cfg: Config):
    """Whether z, a complex or an array of them, lies within
    cfg.pole_on_segment_tol of [-1, 1], elementwise."""
    tol = cfg.pole_on_segment_tol
    z = np.asarray(z)
    return (np.abs(z.imag) <= tol) & (np.abs(z.real) <= 1.0 + tol)


def _min_pole_separation(poles, within: float) -> float:
    """The least distance |p - q| of two poles if it is at most ``within``,
    else inf.  The poles are swept in real-part order, and the sweep from p
    stops at the first q with Re q - Re p > ``within``: no pair it skips is
    that close, since a faithful hypot is never below either leg."""
    swept = sorted(poles, key=operator.attrgetter("real"))
    least = math.inf
    for j, p in enumerate(swept):
        for q in swept[j + 1 :]:
            if q.real - p.real > within:
                break
            d = abs(p - q)
            if d < least:
                least = d
    return least if least <= within else math.inf


def _check_pole_hypotheses(rho: LogDerivative, cfg: Config) -> list[str]:
    """One reason per pole hypothesis of the alternance criterion that rho
    fails: poles more than cfg.min_pole_separation apart, all |z_k| > 1."""
    reasons = []
    sep = _min_pole_separation(rho.poles, cfg.min_pole_separation)
    if sep <= cfg.min_pole_separation:
        reasons.append(f"poles not pairwise distinct (min separation {sep:.3e} <= "
                       f"{cfg.min_pole_separation:.1e})")
    min_abs = min(abs(z) for z in rho.poles)
    if min_abs <= 1.0:
        reasons.append(f"|z_k| <= 1 for some pole (min |z_k| = {min_abs:.6f})")
    return reasons


@dataclass(frozen=True)
class LogDerivative:
    """Simple partial fraction sum_k 1/(x - z_k), conjugate-closed poles."""

    poles: tuple[complex, ...]

    def __post_init__(self):
        canon, reals, pairs = _canonical_poles(self.poles)
        object.__setattr__(self, "poles", canon)
        # the poles as one read-only complex array (so the frozen value cannot
        # change through it): r for each real pole r, then u + iv for each
        # pair u +- iv
        zs = np.array([complex(r) for r in reals] + [complex(u, v) for u, v in pairs], dtype=complex)
        zs.flags.writeable = False
        object.__setattr__(self, "_zs", zs)
        object.__setattr__(self, "_n_real", len(reals))

    @property
    def _reals(self):
        """The real poles (n_real,), a view of _zs."""
        return self._zs.real[:self._n_real]

    @property
    def _pairs(self):
        """The (u, v) of the pairs (n_pairs, 2), a view of _zs."""
        return self._zs[self._n_real:].view(float).reshape(-1, 2)

    @functools.cached_property
    def _columns(self):
        """The columns pole_sums reads, built on first use (the closed forms
        never use them): the reals and pair centres, and the pairs' v^2."""
        v = self._zs.imag[self._n_real:, None]
        vv = v * v
        vv.flags.writeable = False
        return self._zs.real[:, None], vv

    @property
    def degree(self) -> int:
        return len(self.poles)

    def has_pole_on_segment(self, *, cfg: Config = DEFAULTS) -> bool:
        # u + iv stands for both poles u +- iv
        return bool(_on_segment(self._zs, cfg).any())

    def values_on(self, x):
        """Vectorized pole-sum evaluation (plain float arithmetic).

        Conjugate pairs are combined as 2(x-u)/((x-u)^2 + v^2), so real input
        gives exactly real output.  For high-cancellation pointwise work use
        :func:`eval_ld`.  Raises EvaluationError, naming the first such
        point, where a value is not finite (x at a pole, or x not finite).
        """
        with np.errstate(all="ignore"):
            y = pole_sums(x, *self._columns)
        if not np.isfinite(y).all():
            i = int(np.argmin(np.isfinite(y).reshape(-1)))
            x0 = float(np.asarray(x, dtype=float).reshape(-1)[i])
            raise EvaluationError(f"fraction value {float(y.reshape(-1)[i])} at x = {x0!r}: "
                                  "x is not finite or lies at a pole")
        return y


# floats in the workspace of pole_sums and RootedPolynomial.value_and_derivative
# (256 KiB): larger blocks gain little speed and raise the peak memory of a scan
_WORKSPACE = 1 << 15


def _row_sums(terms, out):
    """Sum the rows of a C-ordered (terms, points) array in row order from
    +0.0 into ``out``.

    At two or more points ``np.add.reduce`` over axis 0 adds row after row
    into its start value, each point on its own.  At one point the
    reduction runs along a contiguous column, where numpy switches to
    pairwise summation (other bits from 9 rows on), so that case takes the
    last running sum instead.  A running sum starts from the first row, not
    from 0.0; adding +0.0 turns the -0.0 of an all -0.0 column into the +0.0
    that a sum from 0.0 gives.
    """
    if terms.shape[1] == 1 and len(terms):
        return np.add(np.add.accumulate(terms, axis=0)[-1], 0.0, out=out)
    return np.add.reduce(terms, axis=0, initial=0.0, out=out)


def pole_sums(x, centres, vv):
    """Float pole sum rho(x) = sum_k 1/(x - z_k), shaped like x.

    The column ``centres`` holds the real poles r, then the centres u of the
    conjugate pairs u +- iv, and ``vv`` their v^2; a pair adds
    2(x-u)/((x-u)^2 + v^2).  One column per point instead gives each point
    poles of its own.  A real pole at +inf, or u = 0 with v^2 = inf, adds a
    +-0.0 term, which leaves a sum from +0.0 unchanged: such padding keeps bits.

    Summation order, the contract that fixes every bit: at each point the
    terms are added one at a time, starting from +0.0, reals first, then
    pairs, each in the order given.  Blocks of points share one workspace
    of at most _WORKSPACE floats, a row per term and per pair, so memory is
    O(points), not O(n * points); the terms are written in place and summed
    with no Python step per pole.  The sum of one point is formed apart
    from that of many (see ``_row_sums``), so a point gets the same bits
    alone, in a 0-d x, in a grid of any size, or as a last block of one.
    """
    x = np.asarray(x, dtype=float)
    flat, k, nr, rows = x.reshape(-1), len(centres), len(centres) - len(vv), len(centres) + len(vv)
    step = max(1, _WORKSPACE // max(rows, 1))
    out, buf = np.empty(flat.size), np.empty(rows * min(step, flat.size))
    for start in range(0, flat.size, step):
        stop = start + step
        xb = flat[start:stop]
        ws = buf[:rows * len(xb)].reshape(rows, len(xb))
        terms, d, den = ws[:k], ws[nr:k], ws[k:]
        cs, vvs = (centres, vv) if centres.shape[1] == 1 else (centres[:, start:stop], vv[:, start:stop])
        np.subtract(xb, cs, out=terms)
        np.divide(1.0, terms[:nr], out=terms[:nr])
        if len(den):
            np.multiply(d, d, out=den)
            den += vvs
            np.add(d, d, out=d)  # 2(x - u), exactly
            np.divide(d, den, out=d)
        _row_sums(terms, out[start:stop])
    return out.reshape(x.shape)


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
        ang = _angles(x)
        return self.n * cheb_u(self.n - 1, ang) / (cheb_t(self.n, ang) - self.tna)


@dataclass(frozen=True)
class UnweightedCandidateFraction(LogDerivative):
    """Near-minimal fraction for the unweighted norm: poles are the roots of
    the antiderivative of T_{n-1} taken from the fixed pole a."""

    n: int = 0
    a: float = 0.0
    fa: float = 0.0

    def values_on(self, x):
        ang = _angles(x)
        fx = cheb_t(self.n, ang) / self.n - cheb_t(self.n - 2, ang) / (self.n - 2)
        return cheb_t(self.n - 1, ang) / (0.5 * (fx - self.fa))


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


def eval_ld(rho: LogDerivative, x, *, cfg: Config = DEFAULTS):
    """Pointwise pole-sum value of the fraction at a real x or at each point
    of a 1-D array x.

    Conjugate pairs are combined analytically as 2(x-u)/((x-u)^2+v^2) and the
    terms are evaluated and accumulated in compensated (double-double)
    arithmetic, so the result stays accurate even when the sum is many orders
    of magnitude below the individual terms.  The arithmetic is elementwise,
    so a point gets the same bits alone or in an array.  Returns a float for
    scalar x and an ndarray for an array.  Rejects a non-finite point, and a
    point within ``cfg.pole_proximity_tol`` of a pole; for an array, the
    first point that fails either check is reported.
    """
    tol = cfg.pole_proximity_tol
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
    for r in rho._reals.tolist():
        acc = _dd.dd_add(acc, _dd.dd_div(one, _dd.two_diff(x, r)))
    for u, v in rho._pairs.tolist():
        d = _dd.two_diff(x, u)
        den = _dd.dd_add(_dd.dd_sqr(d), _dd.two_prod(v, v))
        num = (2.0 * d[0], 2.0 * d[1])
        acc = _dd.dd_add(acc, _dd.dd_div(num, den))
    value = _dd.dd_to_float(acc)
    return float(value[0]) if xs.ndim == 0 else value


def extremal_weighted_norm(cls: FixedPoleClass) -> float:
    """Closed-form weighted deviation n / sqrt(T_n(a)^2 - 1) of the minimizer."""
    return cls.level


def _circle_points(n: int, a: float) -> list[complex]:
    """r e^(2 pi i j/n), j = 1 .. ceil(n/2) - 1, r = a + sqrt(a^2 - 1)."""
    r = a + math.sqrt(a * a - 1.0)
    return [r * cmath.exp(complex(0.0, 2.0 * math.pi * j / n)) for j in range(1, (n + 1) // 2)]


def _joukowski_poles(n: int, a: float, ws) -> tuple[complex, ...]:
    """The closed forms' pole layout: a, -a for even n, then each
    x = (w + 1/w)/2 followed by its conjugate."""
    poles = [complex(a, 0.0)]
    if n % 2 == 0:
        poles.append(complex(-a, 0.0))
    for w in ws:
        x = 0.5 * (w + 1.0 / w)
        poles += [x, x.conjugate()]
    return tuple(poles)


def build_extremal_weighted(cls: FixedPoleClass, force: bool = False) -> WeightedExtremalFraction:
    """Construct the weighted-norm minimizer of the fixed-pole class.

    Poles are the n roots of T_n(x) = T_n(a), obtained in closed form as
    Joukowski images of equispaced points on the circle of radius
    a + sqrt(a^2 - 1); the set contains a and is conjugate-closed by
    construction.  The optimality theorem needs a > sqrt(2); smaller a > 1
    still constructs the fraction but raises unless ``force`` is given, in
    which case the result is tagged ``within_theorem_range=False``.  The
    fraction is built once per class instance and then returned again, the
    same object whatever ``force``; the ``force`` gate runs on every call.
    """
    if cls.a <= SQRT2 and not force:
        raise TheoremRangeError(
            f"optimality requires a > sqrt(2) (= {SQRT2:.6f}); got a={cls.a}. "
            "Pass force=True to build anyway (construction is valid for a > 1)."
        )
    return cls._extremal


def alternance_points_weighted(
    cls: FixedPoleClass, force: bool = True, *, cfg: Config = DEFAULTS
) -> tuple[AlternanceReport, tuple[float, ...]]:
    """Alternance of the weighted minimizer and the zeros of its weighted form.

    Returns the n roots of T_n(x) = 1/T_n(a) together with the values of
    sqrt(1-x^2) * rho there (alternating signs, common magnitude equal to the
    closed-form level), plus the n+1 zeros cos(pi*k/n) of the weighted
    function.
    """
    n, a = cls.n, cls.a
    rho = build_extremal_weighted(cls, force=force)
    points = solve_t_equals(n, 1.0 / rho.tna, cfg=cfg)
    xs = np.array(points)
    values = (_weight(xs) * rho.values_on(xs)).tolist()
    level = rho.level
    signs_ok = all(values[i] * values[i + 1] < 0.0 for i in range(len(values) - 1))
    report = AlternanceReport(
        points=tuple(points),
        values=tuple(values),
        level=level,
        sign_pattern_ok=signs_ok,
    )
    return report, _lobatto_points(n + 1)


def _q_joukowski(n: int, fa: float, w):
    """Q(x) = (f(x) - f(a))/2 and Q'(x) = T_{n-1}(x) at x = (w + 1/w)/2,
    from T_k(x) = (w^k + w^-k)/2; raises DomainError where Q is not finite."""
    wn = w**n
    inv = 1.0 / wn
    w2 = w * w
    q = (wn + inv) / (4 * n) - (wn / w2 + inv * w2) / (4 * (n - 2)) - 0.5 * fa
    if not np.isfinite(q).all():
        raise DomainError(f"the candidate's Newton run leaves the float range at n = {n}: "
                          "Q(x) = (f(x) - f(a))/2 is not finite")
    return q, 0.5 * (wn / w + inv * w)


def build_candidate_unweighted(
    cls: FixedPoleClass, *, cfg: Config = DEFAULTS
) -> UnweightedCandidateFraction:
    """Construct the unweighted-norm candidate fraction.

    Its poles are the n roots of Q, the integral of T_{n-1} from a, i.e. of
    (f(x) - f(a))/2 with f(x) = T_n(x)/n - T_{n-2}(x)/(n-2): a, -a for even
    n (f is then even), and conjugate pairs found by one Newton run on Q in
    the Joukowski variable w, seeded at the weighted extremal's circle
    points.  Each pole must pass |Q(z)| <= cfg.candidate_root_residual_tol *
    max(1, |T_{n-1}(z)|).  A Q that is not finite on the way raises
    DomainError: w^n overflows from n = 403 at a = 3.

    The Newton run, which reads no config, and the fraction are kept by the
    class instance, so later calls (``verify_pole_annulus`` and
    ``dvp_bracket`` on the class among them) return the same object.  The
    range check and the residual gate, at the ``cfg`` given, run on every
    call; an error is not kept.
    """
    cls.require("the unweighted candidate", 1.0 + 1.0 / cls.n)
    tol = cfg.candidate_root_residual_tol
    w, resid, scale = cls._candidate_run
    with np.errstate(all="ignore"):
        bad = ~(resid <= tol * scale)
    if bad.any():
        i = int(np.argmax(bad))
        z = 0.5 * (complex(w[i]) + 1.0 / complex(w[i]))
        raise ToleranceNotMetError(
            f"candidate pole at {z} kept residual {resid[i]:.3e} > {tol:.1e} * scale", best=z
        )
    return cls._candidate


def _candidate_newton(n: int, a: float, fa: float):
    """The candidate's Newton run on Q in the Joukowski variable w, seeded at
    the weighted extremal's circle points: the last w, and |Q| and
    max(1, |T_{n-1}|) there, the two sides of the residual gate."""
    w = np.array(_circle_points(n, a))
    with np.errstate(all="ignore"):
        for _ in range(50):
            q, dq = _q_joukowski(n, fa, w)
            step = q / (dq * (0.5 - 0.5 / (w * w)))  # dQ/dw = T_{n-1}(x) (1 - w^-2)/2
            w = w - step
            if not np.any(np.abs(step) > 4.0 * np.finfo(float).eps * np.abs(w)):
                break
        q, dq = _q_joukowski(n, fa, w)
        return w, np.abs(q), np.maximum(1.0, np.abs(dq))


def lambda_bounds(cls: FixedPoleClass) -> LambdaBounds:
    """Two-sided bound on the alternating values of the unweighted candidate:
    2n / (T_n(a) - n/(n-2) T_{n-2}(a) +- 2(n-1)/(n-2))."""
    n = cls.n
    cls.require("the lambda bound", 1.0 + 1.0 / n)
    base = cls.tn - (n / (n - 2)) * cls.tn2
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
    *, cfg: Config = DEFAULTS,
) -> PoleAnnulusReport:
    """Check the candidate's poles against the ellipse annulus.

    Every pole must lie in the closure of E_a (residual <= cfg.ellipse_closure_tol);
    when t = a*(3*sqrt(n))^(-1/n) exceeds 1, every pole must also lie strictly
    outside E_t (None otherwise).  Per-pole canonical-form residuals are returned.
    With no ``candidate``, the class's kept candidate is checked, through
    :func:`build_candidate_unweighted` and its gate at ``cfg``.
    """
    if candidate is None:
        candidate = build_candidate_unweighted(cls, cfg=cfg)
    n, a = cls.n, cls.a
    t = a * (3.0 * math.sqrt(n)) ** (-1.0 / n)
    ea_res = tuple(_ellipse_residuals(EllipseParam(a), candidate.poles).tolist())
    all_in = all(res <= cfg.ellipse_closure_tol for res in ea_res)
    if t > 1.0:
        et_res = tuple(_ellipse_residuals(EllipseParam(t), candidate.poles).tolist())
        # ellipse_classify's OUTSIDE: neither ON, |res| <= tol, nor negative
        all_out = all(res > cfg.ellipse_on_tol for res in et_res)
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


@functools.lru_cache(maxsize=64)
def _scan_grid(m: int) -> np.ndarray:
    """chebyshev_points(m), built once and read-only, as every scan shares it."""
    grid = chebyshev_points(m)
    grid.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=64)
def _lobatto_points(m: int) -> tuple[float, ...]:
    """chebyshev_points(m) as a tuple of floats, built once per m."""
    return tuple(_scan_grid(m).tolist())


def _norm_grid(degree: int, cfg: Config, floor: int | None = None) -> np.ndarray:
    """Chebyshev scan grid: cfg.supnorm_grid_per_degree points per unit
    degree, and at least ``floor`` (default cfg.supnorm_min_grid).  The
    array is shared and read-only."""
    floor = cfg.supnorm_min_grid if floor is None else floor
    return _scan_grid(max(cfg.supnorm_grid_per_degree * degree, floor))


def _weight(x):
    """The weight sqrt(1 - x^2) of the weighted norm, clipped at 0 off [-1, 1]."""
    return np.sqrt(np.maximum((1.0 - x) * (1.0 + x), 0.0))


def _sup_norm(rho: LogDerivative, cfg: Config, weighted: bool) -> NormEstimate:
    tol = cfg.supnorm_xtol
    if rho.has_pole_on_segment(cfg=cfg):
        raise DomainError("fraction has a pole on [-1, 1]; sup norm undefined")

    def fn(x):
        y = rho.values_on(x)
        return np.abs(_weight(x) * y if weighted else y)

    value, loc = supremum_on_grid(fn, _norm_grid(rho.degree, cfg), tol)
    return NormEstimate(value=value, location=loc, weighted=weighted, refinement_tol=tol)


def weighted_sup_norm(rho: LogDerivative, *, cfg: Config = DEFAULTS) -> NormEstimate:
    """max over [-1,1] of |sqrt(1-x^2) * rho(x)|, refined to cfg.supnorm_xtol."""
    return _sup_norm(rho, cfg, weighted=True)


def sup_norm(rho: LogDerivative, *, cfg: Config = DEFAULTS) -> NormEstimate:
    """max over [-1,1] of |rho(x)| by grid scan + refinement to cfg.supnorm_xtol."""
    return _sup_norm(rho, cfg, weighted=False)


def dvp_bracket(cls: FixedPoleClass, *, cfg: Config = DEFAULTS) -> DvpBracket:
    """Two-sided bracket for the least unweighted deviation of the class.

    lower is the smallest magnitude of the candidate at the alternation
    points cos(k*pi/(n-1)); upper is the candidate's sup norm.  The third
    field reports upper * (T_n(a) - T_{n-2}(a)) / (2n), the ratio against the
    weak-equivalence scale (no bound on it is asserted here).  Both ends
    read the candidate's rational form; a lower end above the upper one
    raises ToleranceNotMetError carrying the bracket as ``best``, and a
    candidate off the pole hypotheses one TheoremRangeError naming them.
    """
    n, a = cls.n, cls.a
    cls.require("the deviation bracket", corollary_min_a(n))
    candidate = build_candidate_unweighted(cls, cfg=cfg)
    if hyp := _check_pole_hypotheses(candidate, cfg):
        raise TheoremRangeError(f"bracket hypotheses fail at n={n}, a={a}: {'; '.join(hyp)}")
    lower = float(np.min(np.abs(candidate.values_on(_scan_grid(n)))))
    upper = sup_norm(candidate, cfg=cfg).value
    bracket = DvpBracket(lower, upper, upper * (cls.tn - cls.tn2) / (2.0 * n))
    if lower > upper:
        raise ToleranceNotMetError(
            f"deviation bracket inverted at n={n}, a={a}: lower {lower:.6e} > upper {upper:.6e}",
            best=bracket,
        )
    return bracket
