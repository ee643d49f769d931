"""Derivative lower bounds for polynomials with a distinguished real root.

For P(x) = lead * (x - a) * prod_j (x - r_j) with a > 1 and no cofactor root
on [-1, 1], the weighted and unweighted sup norms of P' on [-1, 1] are
bounded below by multiples of min |P|:

    ||P'||_w >= n * min|P| / sqrt(T_n(a)^2 - 1)
    ||P'||   >= 2n * min|P| / (T_n(a) - T_{n-2}(a) + 3)

This module evaluates both sides on concrete polynomials (grid + refinement
through the shared engine) and computes the two witness ratios that quantify
how tight the bounds are as the degree grows.  The witnesses' minimum moduli
are closed forms: the first witness scans only its weighted derivative, and
the second is a closed form throughout.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np

from ._optim import supremum_on_grid
from .config import DEFAULTS, Config
from .errors import DomainError, require_int, require_real
from .extremal import (
    FixedPoleClass,
    _canonical_poles,
    _norm_grid,
    _on_segment,
    _weight,
    corollary_min_a,
)


# floats in value_and_derivative's workspace (256 KiB): larger blocks gain
# little speed and raise the peak memory of a scan
_WORKSPACE = 1 << 15


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
        object.__setattr__(self, "lead", require_real("leading coefficient", self.lead))
        if self.lead == 0.0:
            raise DomainError("leading coefficient must be nonzero")
        roots = tuple(self.cofactor_roots)
        canon = _canonical_poles(roots)[0] if roots else ()
        for z in canon:
            if _on_segment(z, cfg):
                raise DomainError(f"cofactor root {z} lies on [-1, 1]")
        cls = FixedPoleClass(len(canon) + 1, self.a)  # checks a > 1
        if not self.force:
            cls.require("the unweighted bound (force=True skips it)", corollary_min_a(cls.n))
        object.__setattr__(self, "a", cls.a)
        object.__setattr__(self, "cofactor_roots", canon)
        # T_n(a) and T_{n-2}(a) for the bounds, computed on first use
        object.__setattr__(self, "_cls", cls)
        # the factors in the order the product rule takes them: x - r for the
        # real roots, a first, then (x - u)^2 + v^2 for the pairs u +- iv
        reals = np.array([self.a] + [z.real for z in canon if z.imag == 0.0])
        pairs = np.array([(z.real, z.imag) for z in canon if z.imag > 0.0]).reshape(-1, 2)
        # read-only, so the frozen value cannot change through them
        for name, arr in (("_reals", reals[:, None]), ("_u", pairs[:, :1]),
                          ("_vv", pairs[:, 1:] * pairs[:, 1:])):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.cofactor_roots) + 1

    def value_and_derivative(self, x):
        """P(x) and P'(x) by the product rule over real/quadratic factors.

        With P_0 = lead and P_k = P_(k-1) f_k, the rule runs
        P'_k = P'_(k-1) f_k + P_(k-1) f_k' from P'_0 = 0, where f_k' is 1 for
        x - r and 2(x - u) for (x - u)^2 + v^2.  The factors and every P_k
        are formed for all k at once, so only the P' steps loop, two in-place
        operations per factor.  The rows of a block of points share one
        workspace of at most _WORKSPACE floats: one large array costs far
        less to allocate than several, and the memory stays bounded in n.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        nr, k = len(self._reals), len(self._reals) + len(self._u)
        rows = 2 * k + 2 + len(self._u)
        val, der = np.empty(flat.size), np.zeros(flat.size)
        step = max(1, _WORKSPACE // rows)
        for start in range(0, flat.size, step):
            xr = flat[start:start + step].reshape(1, -1)
            ws = np.empty((rows, xr.shape[1]))
            ws[0] = self.lead
            facs, prods, d = ws[1:k + 1], ws[k + 1:2 * k + 2], ws[2 * k + 2:]
            np.subtract(xr, self._reals, out=facs[:nr])
            np.subtract(xr, self._u, out=d)
            np.multiply(d, d, out=facs[nr:])
            facs[nr:] += self._vv
            np.multiply.accumulate(ws[:k + 1], axis=0, out=prods)  # P_0 .. P_k = P
            incs = prods[:-1]  # P_(k-1) f_k'
            d *= 2.0
            incs[nr:] *= d
            block = der[start:start + step]
            for fac, inc in zip(facs, incs):
                block *= fac
                block += inc
            val[start:start + step] = prods[-1]
        return val.reshape(x.shape), der.reshape(x.shape)


def _over_sqrt_tn2m1(n: int, num: float, tn: float) -> float:
    """n * num / sqrt((T_n - 1)(T_n + 1)) for T_n = T_n(a), the weighted
    bound's factor.  The product form is within 1.23 ulp of 60-digit mpmath
    over n = 4..128, a in {1.5, 2, 3, 5, 10}, where FixedPoleClass.level's
    form is up to 214 ulp off; it is kept while the product is a float, up
    to T_n of about 1.3e154.  Past that the two square roots are taken apart."""
    prod = (tn - 1.0) * (tn + 1.0)
    if math.isfinite(prod):
        return n * num / math.sqrt(prod)
    return n * (num / math.sqrt(tn - 1.0)) / math.sqrt(tn + 1.0)


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

    def rows(x, row=None):
        val, der = poly.value_and_derivative(x)
        absder = np.abs(der)
        ys = np.array([absder * _weight(x), absder, -np.abs(val)])
        return ys if row is None else ys[row, np.arange(len(x))]

    (lhs_w, _), (lhs_u, _), (neg_min, _) = supremum_on_grid(rows, grid, cfg.supnorm_xtol)
    min_abs_p = -neg_min

    tn = poly._cls.tn
    tn2 = poly._cls.tn2 if n >= 2 else 1.0
    rhs_w = _over_sqrt_tn2m1(n, min_abs_p, tn)
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
    cls = FixedPoleClass(n, a)
    n = cls.n
    if not force:
        cls.require("asymptotic_ratios", corollary_min_a(n))
    tn = cls.tn
    r1 = math.sqrt(1.0 - 2.0 / (tn + 1.0))
    if n <= 2:
        return AsymptoticRatios(r1=r1, r2_lower=None)
    tn2 = cls.tn2
    r2 = 1.0 - 2.0 * (tn2 / (n - 2) + 3.0) / (tn - tn2 + 3.0)
    return AsymptoticRatios(r1=r1, r2_lower=r2)


def witness_ratio_empirical(n: int, a: float, which: int, *, cfg: Config = DEFAULTS) -> float:
    """Measured bound-to-derivative-norm ratio of a witness family; raises
    DomainError unless which is 1 or 2 (checked first), n is an integer >= 1
    and a > 1 is finite.

    which=1: rhs_w / lhs_w for the shifted Chebyshev polynomial T_n - T_n(a)
    (should reproduce r1), with lhs_w scanned to cfg.supnorm_xtol and the
    minimum modulus T_n(a) - 1.  which=2: the unweighted ratio for the
    integrated Chebyshev polynomial Q = (f - f(a))/2, f = T_n/n - T_{n-2}/(n-2),
    whose derivative T_{n-1} has unit sup norm, as a closed form with no scan.
    """
    if require_int("witness index", which, 0) not in (1, 2):
        raise DomainError(f"witness index must be 1 or 2, got {which!r}")
    cls = FixedPoleClass(n, a)
    n, tn = cls.n, cls.tn
    if which == 1:
        # the closed form, as the root product loses these digits once T_n(a)
        # is large: sqrt(1-x^2) |P'| = n |sin n theta|, and min |P| = T_n(a) - 1,
        # in floats too since cos n theta <= 1
        lhs_w, _ = supremum_on_grid(
            lambda x: n * np.abs(np.sin(n * np.arccos(np.clip(x, -1.0, 1.0)))),
            _norm_grid(n, cfg), cfg.supnorm_xtol)
        return _over_sqrt_tn2m1(n, tn - 1.0, tn) / lhs_w
    cls.require("the integrated witness", 1.0)
    # f' = 2 T_{n-1}: max f sits at a zero of T_{n-1} or at +-1, and f(a) > f(1)
    # > min f, so min |Q| = (f(a) - max f)/2, or 0 where Q has a root on the segment
    theta = np.pi * np.append(np.arange(1, 2 * n - 2, 2) / (2 * n - 2), (0.0, 1.0))
    fmax = float(np.max(np.cos(n * theta) / n - np.cos((n - 2) * theta) / (n - 2)))
    min_q = 0.5 * max(0.0, cls.fa - fmax)
    return 2.0 * n * min_q / (tn - cls.tn2 + 3.0)


def random_rooted_polynomial(n: int, a: float, rng: np.random.Generator, *,
                             cfg: Config = DEFAULTS) -> RootedPolynomial:
    """Random admissible instance: cofactor roots sampled on ellipses E_p
    with p >= 1.3 (hence outside E_1.2, never on the segment)."""
    n = require_int("degree", n, 2)
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
