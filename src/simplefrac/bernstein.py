"""Derivative lower bounds for polynomials with a distinguished real root.

For P(x) = lead * (x - a) * prod_j (x - r_j) with a > 1 and no cofactor root
on [-1, 1], the weighted and unweighted sup norms of P' on [-1, 1] are
bounded below by multiples of min |P|:

    ||P'||_w >= n * min|P| / sqrt(T_n(a)^2 - 1)
    ||P'||   >= 2n * min|P| / (T_n(a) - T_{n-2}(a) + 3)

This module evaluates both sides on concrete polynomials (grid + refinement
through the shared engine) and computes the two witness ratios that quantify
how tight the bounds are as the degree grows.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np

from ._optim import suprema_on_grid, supremum_on_grid
from .cheb import ChebKind, eval_cheb
from .config import DEFAULTS, Config
from .errors import DomainError, TheoremRangeError
from .extremal import (
    FixedPoleClass,
    _canonical_poles,
    _f_and_fa,
    _norm_grid,
    _on_segment,
    _weight,
    build_extremal_weighted,
)

SQRT2 = math.sqrt(2.0)


def corollary_min_a(n: int) -> float:
    """Parameter threshold sqrt(2) * (3*sqrt(n))^(1/n) of the unweighted bound."""
    return SQRT2 * (3.0 * math.sqrt(n)) ** (1.0 / n)


@dataclass(frozen=True)
class RootedPolynomial:
    """P(x) = lead * (x - a) * prod (x - r_j), cofactor roots off [-1, 1].

    The unweighted inequality is stated for n >= 4 and a above
    :func:`corollary_min_a`; ``force=True`` skips those gates (the weighted
    inequality already holds for a > sqrt(2), n >= 1) but still requires
    a > 1 and a conjugate-closed cofactor with no root within
    ``cfg.pole_on_segment_tol`` of the segment (``cfg`` is init-only).
    """

    a: float
    cofactor_roots: tuple[complex, ...]
    lead: float = 1.0
    force: bool = False
    _: KW_ONLY
    cfg: InitVar[Config] = DEFAULTS

    def __post_init__(self, cfg: Config):
        if not (math.isfinite(self.a) and self.a > 1.0):
            raise DomainError(f"distinguished root must satisfy a > 1, got {self.a}")
        if self.lead == 0.0 or not math.isfinite(self.lead):
            raise DomainError(f"leading coefficient must be finite nonzero, got {self.lead}")
        roots = tuple(complex(z) for z in self.cofactor_roots)
        canon = _canonical_poles(roots)[0] if roots else ()
        for z in canon:
            if _on_segment(z, cfg):
                raise DomainError(f"cofactor root {z} lies on [-1, 1]")
        n = len(canon) + 1
        if not self.force:
            if n < 4:
                raise TheoremRangeError(
                    f"the unweighted bound needs degree n >= 4, got n={n}; "
                    "pass force=True for the weighted-only range"
                )
            if self.a <= corollary_min_a(n):
                raise TheoremRangeError(
                    f"need a > {corollary_min_a(n):.6f} for n={n}, got a={self.a}; "
                    "pass force=True for the weighted-only range"
                )
        object.__setattr__(self, "cofactor_roots", canon)
        # the real and quadratic factors, in the order the product rule takes them
        reals = tuple(z.real for z in canon if z.imag == 0.0)
        object.__setattr__(self, "_reals", (self.a,) + reals)
        object.__setattr__(self, "_pairs", tuple((z.real, z.imag) for z in canon if z.imag > 0.0))

    @property
    def n(self) -> int:
        return len(self.cofactor_roots) + 1

    def value_and_derivative(self, x):
        """P(x) and P'(x) by the product rule over real/quadratic factors."""
        x = np.asarray(x, dtype=float)
        val = np.full_like(x, self.lead)
        der = np.zeros_like(x)
        for r in self._reals:
            fac = x - r
            der = der * fac + val
            val = val * fac
        for u, v in self._pairs:
            d = x - u
            fac = d * d + v * v
            der = der * fac + val * (2.0 * d)
            val = val * fac
        return val, der


@dataclass(frozen=True)
class CorollaryReport:
    lhs_w: float
    rhs_w: float
    lhs_u: float
    rhs_u: float
    both_hold: bool
    min_abs_p: float


def check_corollary(poly: RootedPolynomial, *, cfg: Config = DEFAULTS) -> CorollaryReport:
    """Evaluate both derivative bounds on a concrete polynomial.

    The three extremal quantities (weighted and plain sup of |P'|, min of
    |P|) come from one multi-row scan of the shared grid + bracketing
    engine, refined to cfg.supnorm_xtol, all three rows from one
    product-rule pass.  Evaluation is
    from the root representation, so polynomials whose derivative sits many
    orders of magnitude below |P| on the segment (the extremal witnesses at
    large degree) lose accuracy to root rounding; use
    :func:`witness_ratio_empirical` for those families.
    """
    n = poly.n
    grid = _norm_grid(n, cfg)

    def rows(x):
        val, der = poly.value_and_derivative(x)
        absder = np.abs(der)
        return np.array([absder * _weight(x), absder, -np.abs(val)])

    (lhs_w, _), (lhs_u, _), (neg_min, _) = suprema_on_grid(rows, grid, cfg.supnorm_xtol)
    min_abs_p = -neg_min

    tn = eval_cheb(ChebKind.FIRST_KIND, n, poly.a)
    tn2 = eval_cheb(ChebKind.FIRST_KIND, n - 2, poly.a) if n >= 2 else 1.0
    rhs_w = n * min_abs_p / math.sqrt((tn - 1.0) * (tn + 1.0))
    rhs_u = 2.0 * n * min_abs_p / (tn - tn2 + 3.0)
    return CorollaryReport(
        lhs_w=lhs_w,
        rhs_w=rhs_w,
        lhs_u=lhs_u,
        rhs_u=rhs_u,
        both_hold=(lhs_w >= rhs_w) and (lhs_u >= rhs_u),
        min_abs_p=min_abs_p,
    )


@dataclass(frozen=True)
class AsymptoticRatios:
    """Lower bounds on the sharpness ratios of the two witnesses.

    r1 is exact for the shifted Chebyshev witness; r2_lower bounds the
    integrated-Chebyshev witness from below and is None for n <= 2 where
    its formula is undefined.  r1 tends to 1 exponentially in n; r2_lower
    only like O(1/n): (n-2)(1 - r2_lower) -> 2q^2/(1-q^2) with
    q = a - sqrt(a^2-1).
    """

    r1: float
    r2_lower: float | None


def asymptotic_ratios(n: int, a: float, force: bool = False) -> AsymptoticRatios:
    """Witness sharpness ratios r1 = sqrt(1 - 2/(T_n(a)+1)) and
    r2_lower = 1 - 2(T_{n-2}(a)/(n-2) + 3)/(T_n(a) - T_{n-2}(a) + 3).

    With f = T_n/n - T_{n-2}/(n-2) and M = max f on [-1, 1], the integrated
    witness has ratio n(f(a) - M)/(T_n(a) - T_{n-2}(a) + 3); r2_lower puts
    n*M <= 1 + n/(n-2) <= 3 (n >= 4) into it, with equality at n = 4."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"degree must be a positive integer, got {n!r}")
    n = int(n)
    if not force:
        if n < 4:
            raise TheoremRangeError(f"asymptotic ratios need n >= 4, got n={n}")
        if a <= corollary_min_a(n):
            raise TheoremRangeError(
                f"asymptotic ratios need a > {corollary_min_a(n):.6f}, got a={a}"
            )
    if a <= 1.0:
        raise DomainError(f"need a > 1, got a={a}")
    tn = eval_cheb(ChebKind.FIRST_KIND, n, a)
    r1 = math.sqrt(1.0 - 2.0 / (tn + 1.0))
    if n <= 2:
        return AsymptoticRatios(r1=r1, r2_lower=None)
    tn2 = eval_cheb(ChebKind.FIRST_KIND, n - 2, a)
    r2 = 1.0 - 2.0 * (tn2 / (n - 2) + 3.0) / (tn - tn2 + 3.0)
    return AsymptoticRatios(r1=r1, r2_lower=r2)


def witness_first_kind(n: int, a: float, force: bool = False, *,
                       cfg: Config = DEFAULTS) -> RootedPolynomial:
    """The shifted Chebyshev witness T_n(x) - T_n(a) as a rooted polynomial
    (roots via the closed-form construction, leading coefficient 2^(n-1))."""
    rho = build_extremal_weighted(FixedPoleClass(n, a), force=True)
    cof = [z for z in rho.poles if z != complex(a, 0.0)]
    return RootedPolynomial(a=a, cofactor_roots=tuple(cof), lead=2.0 ** (n - 1), force=force,
                            cfg=cfg)


def witness_ratio_empirical(n: int, a: float, which: int, *, cfg: Config = DEFAULTS) -> float:
    """Measured bound-to-derivative-norm ratio of a witness family, from
    scans refined to cfg.supnorm_xtol.

    which=1: rhs_w / lhs_w for the shifted Chebyshev polynomial (should
    reproduce r1).  which=2: the unweighted ratio for the integrated
    Chebyshev polynomial, whose derivative has unit sup norm; its minimum
    modulus is evaluated from the closed antiderivative form rather than
    quadrature.
    """
    tol = cfg.supnorm_xtol
    grid1 = _norm_grid(n, cfg)
    if which == 1:
        # evaluate the shifted Chebyshev witness in closed form: its
        # derivative is n*U_{n-1}, and min |T_n(x) - T_n(a)| = T_n(a) - 1;
        # the root-product representation cannot hold these digits once
        # T_n(a) is large
        tna = eval_cheb(ChebKind.FIRST_KIND, n, a)

        def rows(x):
            theta = np.arccos(np.clip(x, -1.0, 1.0))
            # sqrt(1-x^2) * |n U_{n-1}(x)|, and -|T_n(x) - T_n(a)|
            return np.array([n * np.abs(np.sin(n * theta)), -np.abs(np.cos(n * theta) - tna)])

        (lhs_w, _), (neg_min, _) = suprema_on_grid(rows, grid1, tol)
        min_p = -neg_min
        return n * min_p / math.sqrt((tna - 1.0) * (tna + 1.0)) / lhs_w
    if which == 2:
        if n < 4:
            raise TheoremRangeError(f"the integrated witness needs n >= 4, got n={n}")
        fa = _f_and_fa(n, a)

        def neg_absq(x):
            theta = np.arccos(np.clip(x, -1.0, 1.0))
            fx = np.cos(n * theta) / n - np.cos((n - 2) * theta) / (n - 2)
            return -np.abs(0.5 * (fx - fa))

        neg_min, _ = supremum_on_grid(neg_absq, grid1, tol)
        min_q = -neg_min
        tn = eval_cheb(ChebKind.FIRST_KIND, n, a)
        tn2 = eval_cheb(ChebKind.FIRST_KIND, n - 2, a)
        # || d/dx of the antiderivative || = ||T_{n-1}|| = 1 exactly
        return 2.0 * n * min_q / (tn - tn2 + 3.0)
    raise DomainError(f"witness index must be 1 or 2, got {which!r}")


def random_rooted_polynomial(n: int, a: float, rng: np.random.Generator, *,
                             cfg: Config = DEFAULTS) -> RootedPolynomial:
    """Random admissible instance: cofactor roots sampled on ellipses E_p
    with p >= 1.3 (hence outside E_1.2, never on the segment)."""
    if n < 2:
        raise DomainError("need n >= 2")
    k_pairs = (n - 1) // 2
    k_real = (n - 1) - 2 * k_pairs
    roots: list[complex] = []
    for _ in range(k_pairs):
        p = rng.uniform(1.3, 3.0)
        t = rng.uniform(0.15, math.pi - 0.15)
        z = complex(p * math.cos(t), math.sqrt(p * p - 1.0) * math.sin(t))
        roots.append(z)
        roots.append(z.conjugate())
    for _ in range(k_real):
        mag = rng.uniform(1.3, 3.0)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        roots.append(complex(sign * mag, 0.0))
    return RootedPolynomial(a=a, cofactor_roots=tuple(roots), force=True, cfg=cfg)
