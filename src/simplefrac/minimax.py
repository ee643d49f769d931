"""Best uniform approximation by logarithmic derivatives on [-1, 1].

The solver is heuristic-with-certificate: a deterministic linearized
Lawson fit of P'/P (the start of AAA-Lawson, Nakatsukasa and Trefethen,
SIAM J. Sci. Comput. 42, 2020) gives start poles, a damped Newton solve of
the equioscillation system runs from them and from seeded perturbations of
them, then an a-posteriori optimality check.  The solver needs numpy
only.  The certificate is the alternance criterion: for a fraction with
pairwise-distinct poles all outside the closed unit disk, optimality is
equivalent to n+1 sign-alternating extremal points of the residual, and the
optimum is then unique.  Outside those pole hypotheses best approximations
can be non-unique, so uncertified results are labeled heuristic.

A de-la-Vallee-Poussin-style lower bound derived from any n+1
sign-alternating residual values brackets the achievable error and yields
the reported gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._optim import local_extrema, supremum_on_grid
from .cheb import chebyshev_points
from .config import DEFAULTS, Config
from .errors import DomainError, SimplefracError, ToleranceNotMetError
from .extremal import (AlternanceReport, FixedPoleClass, LogDerivative, _min_pole_separation,
                       _norm_grid, _on_segment, _weight, build_extremal_weighted, pole_sums)


@dataclass(frozen=True)
class TargetFunction:
    """Deterministic real target on [-1, 1].

    ``evaluator`` may be scalar-only or numpy-vectorized; values_on sorts
    that out and always returns a float array of the input shape.
    """

    evaluator: Callable
    description: str = ""

    def values_on(self, x):
        xs = np.asarray(x, dtype=float)
        try:
            out = np.asarray(self.evaluator(xs), dtype=float)
            if out.shape != xs.shape:
                raise ValueError
        except (TypeError, ValueError):
            out = np.array([float(self.evaluator(float(t))) for t in np.atleast_1d(xs)])
            out = out.reshape(xs.shape)
        if not np.all(np.isfinite(out)):
            raise DomainError(f"target {self.description!r} returned non-finite values")
        return out


def _weight_fns(weighted: bool):
    """The residual weight (sqrt(1 - x^2), or 1) and its first two derivatives."""
    if not weighted:
        return (lambda x: np.ones_like(x)), (lambda x: np.zeros_like(x)), (lambda x: np.zeros_like(x))
    return _weight, (lambda x: -x / _weight(x)), (lambda x: -1.0 / _weight(x) ** 3)


def _residual_fn(f: TargetFunction, rho: LogDerivative, weighted: bool):
    w, _, _ = _weight_fns(weighted)

    def r(x):
        return w(x) * (f.values_on(x) - rho.values_on(x))

    return r


def _alternating_subsequence(extrema):
    """Longest sign-alternating subsequence, keeping the largest magnitude
    within each run of equal signs.  Zero values break runs and are dropped."""
    chosen: list[tuple[float, float]] = []
    for x, v in extrema:
        s = math.copysign(1.0, v) if v != 0.0 else 0.0
        if s == 0.0:
            continue
        if chosen and math.copysign(1.0, chosen[-1][1]) == s:
            if abs(v) > abs(chosen[-1][1]):
                chosen[-1] = (x, v)
        else:
            chosen.append((x, v))
    return chosen


def residual_alternance(
    f: TargetFunction,
    rho: LogDerivative,
    min_points: int,
    weighted: bool = False,
    level_rtol: float | None = None,
    grid_points: int | None = None,
    *,
    cfg: Config = DEFAULTS,
) -> AlternanceReport:
    """Sign-alternating extrema of the residual f - rho.

    Local extrema are located on a dense Chebyshev grid (at least 257 points
    and 30 per unit degree; raise ``grid_points`` for targets with finer
    structure) and refined by golden section to cfg.supnorm_xtol; the
    report carries the longest
    sign-alternating subsequence and the sup-norm level.  With ``level_rtol``
    set, only extrema within that relative distance of the sup norm
    participate (the equioscillation-certificate reading); by default every
    alternating extremum counts.  A residual indistinguishable from zero
    yields an empty report with sign_pattern_ok False.
    """
    if min_points < 1:
        raise DomainError(f"min_points must be positive, got {min_points}")
    if rho.has_pole_on_segment(cfg=cfg):
        raise DomainError("fraction has a pole on [-1, 1]")
    r = _residual_fn(f, rho, weighted)
    grid = _norm_grid(rho.degree, cfg, max(257, grid_points or 0))
    extrema = local_extrema(r, grid, cfg.supnorm_xtol)
    if not extrema:
        return AlternanceReport(points=(), values=(), level=0.0, sign_pattern_ok=False)
    level = max(abs(v) for _, v in extrema)
    scale = 1.0 + float(np.max(np.abs(f.values_on(grid))))
    if level <= cfg.degenerate_residual_tol * scale:
        return AlternanceReport(points=(), values=(), level=level, sign_pattern_ok=False)
    pool = extrema
    if level_rtol is not None:
        pool = [(x, v) for x, v in extrema if abs(v) >= (1.0 - level_rtol) * level]
    chosen = _alternating_subsequence(pool)
    return AlternanceReport(
        points=tuple(x for x, _ in chosen),
        values=tuple(v for _, v in chosen),
        level=level,
        sign_pattern_ok=len(chosen) >= min_points,
    )


def _check_pole_hypotheses(rho: LogDerivative, cfg: Config) -> list[str]:
    reasons = []
    sep = _min_pole_separation(rho.poles)
    if sep <= cfg.min_pole_separation:
        reasons.append(
            f"poles not pairwise distinct (min separation {sep:.3e} <= "
            f"{cfg.min_pole_separation:.1e})"
        )
    min_abs = min(abs(z) for z in rho.poles)
    if min_abs <= 1.0:
        reasons.append(f"|z_k| <= 1 for some pole (min |z_k| = {min_abs:.6f})")
    return reasons


def dvp_lower_bound(f: TargetFunction, rho: LogDerivative, weighted: bool = False, *,
                    free: bool = False, cfg: Config = DEFAULTS) -> float:
    """Lower bound on the best deviation from sign-alternating residual
    values.

    With one of rho's n poles fixed (the fixed-pole class) the bound takes
    n alternating values; with ``free`` (all n poles free, the problem
    solve_best_ld solves) it takes n + 1, as in the alternance criterion:
    n values alone can sit above the true optimum there.  Requires
    pairwise-distinct poles outside the closed unit disk.  Among the
    detected alternating extrema, the window of that length with the
    largest minimum magnitude is used; that minimum is the bound.  Raises
    when the residual shows too few alternating points.
    """
    need = rho.degree + (1 if free else 0)
    hyp = _check_pole_hypotheses(rho, cfg)
    if hyp:
        raise DomainError("; ".join(hyp))
    rep = residual_alternance(f, rho, min_points=need, weighted=weighted, cfg=cfg)
    window = _best_window(list(zip(rep.points, rep.values)), need)
    if window is None:
        raise DomainError(
            f"residual shows only {len(rep.values)} alternating points; need {need}"
        )
    return min(abs(v) for _, v in window)


@dataclass(frozen=True)
class CertificateReport:
    certified: bool
    reasons: tuple[str, ...]


def certify_optimality(
    f: TargetFunction,
    rho: LogDerivative,
    *,
    cfg: Config = DEFAULTS,
) -> CertificateReport:
    """Alternance certificate for best uniform approximation.

    Certified iff (i) the poles are pairwise distinct, (ii) every pole lies
    strictly outside the closed unit disk (|z_k| = 1 counts as failure), and
    (iii) the residual shows at least n+1 sign-alternating extrema whose
    magnitudes sit within cfg.certify_level_rtol (relative) of the sup
    norm.  Under (i) and (ii) the criterion is both necessary and
    sufficient, and the certified fraction is the unique optimum; without
    them best approximations can be non-unique and nothing is claimed.
    """
    reasons = _check_pole_hypotheses(rho, cfg)
    try:
        rep = residual_alternance(f, rho, min_points=rho.degree + 1,
                                  level_rtol=cfg.certify_level_rtol, cfg=cfg)
        if not rep.sign_pattern_ok:
            reasons.append(
                f"found {len(rep.points)} near-level alternating extrema; "
                f"need {rho.degree + 1}"
            )
    except DomainError as exc:
        reasons.append(str(exc))
    return CertificateReport(certified=not reasons, reasons=tuple(reasons))


@dataclass(frozen=True)
class ApproxOptions:
    """Options of solve_best_ld.

    ``starts`` counts Newton starts: start 0 is the Lawson fit's poles, and
    starts 1, 2, ... perturb them by draws taken in order from
    ``default_rng(seed)``, so more starts never give a worse answer.  The
    Lawson fit and the sup-norm refinement use ``refine_grid`` points, and
    Newton scans max(refine_grid, 4 grid + 1).
    """

    grid: int = 129
    starts: int = 8
    seed: int = 0
    tol: float = 1e-10
    weighted: bool = False
    fixed_pole: float | None = None
    newton_max_iter: int = 40
    refine_grid: int = 513


@dataclass(frozen=True)
class ApproxResult:
    rho: LogDerivative
    error: float
    alternance: AlternanceReport
    dvp_lower: float
    certified: bool
    gap: float
    diagnostics: tuple[str, ...]


@dataclass(frozen=True)
class _Shape:
    """Start-specific pole parametrization: real poles as sign*(1+e^s),
    conjugate pairs as (center, log-offset)."""

    signs: tuple[float, ...]
    n_pairs: int
    fixed_pole: float | None

    @property
    def dim(self) -> int:
        return len(self.signs) + 2 * self.n_pairs


def _theta_poles(theta, shape: _Shape):
    """Real poles (the fixed one first) with their derivatives in theta, and
    the (center, offset) pairs."""
    reals, dz = [], []
    if shape.fixed_pole is not None:
        reals.append(shape.fixed_pole)
        dz.append(0.0)
    for s, t in zip(shape.signs, theta):
        reals.append(s * (1.0 + math.exp(t)))
        dz.append(s * math.exp(t))
    pairs = [(theta[i], math.exp(theta[i + 1])) for i in range(len(shape.signs), shape.dim, 2)]
    return reals, dz, pairs


def _poles_from_theta(theta, shape: _Shape) -> tuple[complex, ...]:
    reals, _, pairs = _theta_poles(theta, shape)
    return tuple(complex(r, 0.0) for r in reals) + tuple(
        z for c, v in pairs for z in (complex(c, v), complex(c, -v)))


def _rho_eval(theta, shape: _Shape, x, want_grad: bool, want_deriv: bool = False):
    """rho(x), optionally d(rho)/d(theta), rho'(x), d(rho')/d(theta)."""
    reals, dz, pairs = _theta_poles(theta, shape)
    sums, grads = pole_sums(x, reals, pairs, order=int(want_deriv),
                            dz=dz if want_grad else None)
    rho, rhop = sums[0], sums[1] if want_deriv else None
    grad = gradp = None
    if want_grad:
        # the fixed pole has no parameter
        skip = 0 if shape.fixed_pole is None else 1
        grad = grads[0][skip:]
        gradp = grads[1][skip:] if want_deriv else None
    return rho, grad, rhop, gradp


def _param_bounds(shape: _Shape):
    """Box (lo, hi) for theta.  s <= 40 caps real poles near 2.4e17
    (numerically a pole at infinity); s >= -30 keeps 1 + e^s strictly above
    1 in binary64 so a pole can never round onto the segment endpoint."""
    lo = [-30.0] * len(shape.signs) + [-8.0, -30.0] * shape.n_pairs
    hi = [40.0] * len(shape.signs) + [8.0, 40.0] * shape.n_pairs
    return np.array(lo), np.array(hi)


def _theta_from_poles(poles, fixed_pole: float | None):
    """Shape and in-box theta of free poles off the segment (real ones with
    |z| > 1, pairs given by either member)."""
    reals = [z.real for z in poles if z.imag == 0.0]
    pairs = [(z.real, z.imag) for z in poles if z.imag > 0.0]
    shape = _Shape(signs=tuple(math.copysign(1.0, r) for r in reals), n_pairs=len(pairs),
                   fixed_pole=fixed_pole)
    theta = [math.log(abs(r) - 1.0) for r in reals] + [t for c, v in pairs for t in (c, math.log(v))]
    lo, hi = _param_bounds(shape)
    return shape, np.clip(theta, lo, hi)


# Lawson stops after _LAWSON_MAX_ITER iterations, or once its best grid
# error has not fallen by a relative _LAWSON_STALL_RTOL for
# _LAWSON_STALL_ITER iterations in a row.
_LAWSON_MAX_ITER = 100
_LAWSON_STALL_ITER = 40
_LAWSON_STALL_RTOL = 1e-3
# standard deviation of the theta perturbations of starts 1, 2, ...
_PERTURB_SIGMA = 0.3


def _lawson_poles(x, g, w, m: int, cfg: Config):
    """Linearized Lawson fit of P'/P to g on the points x, with weight w.

    P = T_m + sum_{k<m} c_k T_k (scaling P leaves P'/P alone); each iteration
    solves min |w (g P - P') sqrt(lam) / P_prev| for c by least squares, with
    Sanathanan-Koerner weights 1/|P_prev| and Lawson weights
    lam <- lam |w (g - P'/P)|.  Returns the chebroots of the iterate of least
    grid error among those with no pole on the segment (or None), and a
    one-line summary.
    """
    from numpy.polynomial import chebyshev as C

    vander = C.chebvander(x, m)
    deriv = C.chebval(x, C.chebder(np.eye(m + 1))).T  # T_k' on x, by Clenshaw
    # rows of g T_k - T_k', and one reused buffer for their weighted copy
    lin = g[:, None] * vander - deriv
    scaled = np.empty_like(lin)
    lam = np.full(x.size, 1.0 / x.size)
    p_prev = np.ones(x.size)
    coef = np.ones(m + 1)
    best_err, best_poles, stall, why = math.inf, None, 0, "iteration cap"
    for it in range(1, _LAWSON_MAX_ITER + 1):
        np.multiply(lin, (w * np.sqrt(lam) / p_prev)[:, None], out=scaled)
        coef[:m], _, rank, _ = np.linalg.lstsq(scaled[:, :m], -scaled[:, m], rcond=None)
        p = vander @ coef
        if rank < m or not np.all(np.isfinite(p)) or np.any(p == 0.0):
            why = "breakdown: singular least-squares system or P = 0 on the grid"
            break
        err_vec = np.abs(w * (g - (deriv @ coef) / p))
        err = float(np.max(err_vec))
        stall = 0 if err < best_err * (1.0 - _LAWSON_STALL_RTOL) else stall + 1
        if err < best_err:
            roots = C.chebroots(coef)
            if not any(_on_segment(complex(z), cfg) for z in roots):
                best_err, best_poles = err, tuple(complex(z) for z in roots)
        total = float(np.sum(lam * err_vec))
        if stall >= _LAWSON_STALL_ITER or total == 0.0:
            why = "stalled"
            break
        lam *= err_vec / total
        p_prev = np.abs(p)
    return best_poles, f"lawson: {it} iterations ({why}), best grid error {best_err:.6e}"


def _fd_derivs(f: TargetFunction, ts: np.ndarray):
    """Finite-difference f' and f'' at the points ts of [-1, 1], on stencils
    clamped to [-1, 1] (one-sided at the ends for f', shifted inward for f''),
    so the target is never evaluated outside it."""
    h1, h2 = 1e-6, 1e-5
    lo, hi = np.maximum(ts - h1, -1.0), np.minimum(ts + h1, 1.0)
    fp = (f.values_on(hi) - f.values_on(lo)) / (hi - lo)
    mid = np.clip(ts, -1.0 + h2, 1.0 - h2)
    lo, hi = np.maximum(mid - h2, -1.0), np.minimum(mid + h2, 1.0)
    fl, fm, fh = f.values_on(lo), f.values_on(mid), f.values_on(hi)
    return fp, 2.0 * ((fh - fm) / (hi - mid) - (fm - fl) / (mid - lo)) / (hi - lo)


def _best_window(alt, m):
    """The length-m window of the alternating extrema ``alt`` whose smallest
    magnitude is largest (the first on ties), or None when len(alt) < m."""
    best, best_min = None, -1.0
    for i in range(len(alt) - m + 1):
        window = alt[i : i + m]
        wmin = min(abs(v) for _, v in window)
        if wmin > best_min:
            best, best_min = window, wmin
    return best


def _newton_equioscillate(theta, shape: _Shape, f: TargetFunction, weighted: bool,
                          opts: ApproxOptions, scale: float, cfg: Config):
    """Damped Newton solve of the equioscillation system in (poles, t, h).

    Levels: R(t_i) = sigma*(-1)^i h for all m = dim+1 points; stationarity
    R'(t_i) = 0 at interior points.  Boundary points (unweighted runs only)
    keep their level equation but are not unknowns.  Returns the improved
    theta or None when the structure is not there.
    """
    w, wp, wpp = _weight_fns(weighted)
    rho0 = LogDerivative(_poles_from_theta(theta, shape))
    if rho0.has_pole_on_segment(cfg=cfg):
        return None
    r_fn = _residual_fn(f, rho0, weighted)
    grid = chebyshev_points(max(opts.refine_grid, 4 * opts.grid + 1))
    ext = local_extrema(r_fn, grid, cfg.supnorm_xtol)
    if weighted:
        ext = [(x, v) for x, v in ext if abs(x) < 1.0 - 1e-9]
    m_levels = shape.dim + 1
    window = _best_window(_alternating_subsequence(ext), m_levels)
    if window is None:
        return None
    ts = np.array([x for x, _ in window])
    sigma = math.copysign(1.0, window[0][1])
    signs = sigma * (-1.0) ** np.arange(m_levels)
    boundary = np.abs(ts) >= 1.0 - 1e-11
    interior = ~boundary
    h = float(np.mean([abs(v) for _, v in window]))

    theta = np.array(theta, dtype=float)
    lo, hi = _param_bounds(shape)
    for _ in range(opts.newton_max_iter):
        k = int(np.sum(interior))
        rho, grad, rhop, gradp = _rho_eval(theta, shape, ts, want_grad=True, want_deriv=True)
        fvals = f.values_on(ts)
        fp, fpp = _fd_derivs(f, ts)
        wv, wpv, wppv = w(ts), wp(ts), wpp(ts)
        res = fvals - rho
        resp = fp - rhop
        big_r = wv * res
        big_rp = wpv * res + wv * resp

        F = np.concatenate([big_r - signs * h, big_rp[interior]])
        dim = shape.dim
        J = np.zeros((m_levels + k, dim + k + 1))
        # level equations
        J[:m_levels, :dim] = (-wv[None, :] * grad).T
        idx = np.flatnonzero(interior)
        J[idx, dim + np.arange(k)] = big_rp[idx]
        J[:m_levels, dim + k] = -signs
        # stationarity equations at interior points
        rho2 = LogDerivative(_poles_from_theta(theta, shape)).second_derivative_on(ts[idx])
        big_rpp = wppv[idx] * res[idx] + 2.0 * wpv[idx] * resp[idx] + wv[idx] * (fpp[idx] - rho2)
        J[m_levels:, :dim] = -(wpv[idx] * grad[:, idx] + wv[idx] * gradp[:, idx]).T
        J[m_levels + np.arange(k), dim + np.arange(k)] = big_rpp

        fnorm = float(np.max(np.abs(F)))
        if fnorm <= 1e-13 * max(1.0, abs(h), scale):
            break
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None

        # backtrack; theta steps are clipped to the box, so exp() cannot overflow
        for step in (1.0, 0.5, 0.25, 0.125, 0.0625):
            th = np.clip(theta + step * delta[:dim], lo, hi)
            tnew = ts.copy()
            tnew[idx] = np.clip(ts[idx] + step * delta[dim : dim + k], -1.0 + 1e-12, 1.0 - 1e-12)
            hnew = h + step * delta[dim + k]
            if np.any(np.diff(tnew) <= 0.0):
                continue
            rho_n, _, rhop_n, _ = _rho_eval(th, shape, tnew, want_grad=False, want_deriv=True)
            fv = f.values_on(tnew)
            fpn, _ = _fd_derivs(f, tnew)
            big_rpn = wp(tnew) * (fv - rho_n) + w(tnew) * (fpn - rhop_n)
            fn = np.concatenate([w(tnew) * (fv - rho_n) - signs * hnew, big_rpn[idx]])
            if float(np.max(np.abs(fn))) < fnorm:
                theta, ts, h = th, tnew, hnew
                break
        else:
            break
    return theta


def _refined_error(f: TargetFunction, rho: LogDerivative, weighted: bool, opts: ApproxOptions,
                   cfg: Config):
    r_fn = _residual_fn(f, rho, weighted)
    grid = _norm_grid(rho.degree, cfg, opts.refine_grid)
    return supremum_on_grid(lambda x: np.abs(r_fn(x)), grid, min(opts.tol, cfg.supnorm_xtol))[0]


def _project_poles(poles) -> tuple[complex, ...]:
    """Hard projection: push any non-real pole with |z| <= 1 just outside the disk."""
    return tuple(z / abs(z) * (1.0 + 1e-9) if abs(z) <= 1.0 and z.imag != 0.0 else z for z in poles)


def solve_best_ld(f: TargetFunction, n: int, opts: ApproxOptions | None = None, *,
                  cfg: Config = DEFAULTS) -> ApproxResult:
    """Approximate f on [-1, 1] by a degree-n logarithmic derivative.

    Phase 1 is one deterministic linearized Lawson fit (see _lawson_poles;
    exact for representable targets), or, if it has no pole layout off the
    segment, the poles of the weighted extremal at a = 2.  Phase 2 runs the
    damped-Newton equioscillation solve from those poles (start 0) and from
    ``opts.starts`` - 1 seeded perturbations; a start that raises is
    discarded with a diagnostic.  The least refined sup error among the
    start layout, the fraction with all free poles far away and the Newton
    outputs wins; it is certified through the alternance criterion and
    bracketed from below by the de-la-Vallee-Poussin-style bound; the
    relative bracket width is the gap.

    With ``opts.weighted`` the residual carries the sqrt(1-x^2) weight and
    ``opts.fixed_pole`` pins one real pole; the optimality certificate and
    the lower bound are specific to the unweighted free-pole problem, so
    those runs always come back uncertified (with a diagnostic).  ``cfg``
    supplies every tolerance the phases and the certificate use.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"degree must be a positive integer, got {n!r}")
    n = int(n)
    opts = ApproxOptions() if opts is None else opts
    n_free = n - (1 if opts.fixed_pole is not None else 0)
    if n_free < 1:
        raise DomainError("need at least one free pole")
    if opts.fixed_pole is not None and abs(opts.fixed_pole) <= 1.0:
        raise DomainError(f"fixed pole must satisfy |a| > 1, got {opts.fixed_pole}")
    if opts.grid < 8:
        raise DomainError(f"grid too small: {opts.grid}")
    if opts.starts < 1:
        raise DomainError(f"need at least one start, got {opts.starts}")

    x = chebyshev_points(opts.refine_grid)
    fx = f.values_on(x)
    scale = 1.0 + float(np.max(np.abs(fx)))
    fixed = () if opts.fixed_pole is None else (complex(opts.fixed_pole),)
    g = fx if opts.fixed_pole is None else fx - 1.0 / (x - opts.fixed_pole)
    try:
        poles, summary = _lawson_poles(x, g, _weight_fns(opts.weighted)[0](x), n_free, cfg)
    except np.linalg.LinAlgError as exc:
        poles, summary = None, f"lawson: {exc}"
    diagnostics: list[str] = [summary]
    if poles is None:
        poles = build_extremal_weighted(FixedPoleClass(n_free, 2.0)).poles
        diagnostics.append(f"lawson: no admissible pole layout; starting from the poles "
                           f"of the weighted extremal of degree {n_free} at a = 2")
    # every free pole at the box's far end makes rho numerically 0, so no
    # answer is worse than the trivial one
    far = tuple(complex((-1.0) ** k * (1.0 + math.exp(40.0))) for k in range(n_free))
    candidates = [("far poles", fixed + far), ("start layout", fixed + poles)]
    shape, theta0 = _theta_from_poles(poles, opts.fixed_pole)
    lo, hi = _param_bounds(shape)
    rng = np.random.default_rng(opts.seed)
    no_window = []
    for start in range(opts.starts):
        theta = theta0
        if start > 0:
            theta = np.clip(theta0 + _PERTURB_SIGMA * rng.standard_normal(shape.dim), lo, hi)
        try:
            theta = _newton_equioscillate(theta, shape, f, opts.weighted, opts, scale, cfg)
        except (SimplefracError, np.linalg.LinAlgError) as exc:
            diagnostics.append(f"start {start}: {exc}; discarded")
            continue
        if theta is None:
            no_window.append(str(start))
        else:
            candidates.append((f"start {start}", _project_poles(_poles_from_theta(theta, shape))))
    if no_window:
        diagnostics.append(f"starts {', '.join(no_window)}: no alternating window for Newton; discarded")

    best: tuple[float, LogDerivative, str] | None = None
    for label, cand in candidates:
        try:
            rho = LogDerivative(cand)
            if rho.has_pole_on_segment(cfg=cfg):
                diagnostics.append(f"{label}: pole on [-1, 1]; discarded")
                continue
            err = _refined_error(f, rho, opts.weighted, opts, cfg)
        except SimplefracError as exc:
            diagnostics.append(f"{label}: {exc}; discarded")
            continue
        if best is None or err < best[0]:
            best = (err, rho, label)
    if best is None:
        raise ToleranceNotMetError("no start produced a valid pole configuration")
    error, rho, label = best
    diagnostics.append(f"best: {label}")
    alternance = residual_alternance(
        f, rho, min_points=n_free + 1, weighted=opts.weighted,
        grid_points=opts.refine_grid, cfg=cfg,
    )

    certified = False
    dvp = 0.0
    if opts.weighted or opts.fixed_pole is not None:
        diagnostics.append(
            "certificate and lower bound apply to the unweighted free-pole "
            "problem only; result labeled heuristic"
        )
    else:
        cert = certify_optimality(f, rho, cfg=cfg)
        certified = cert.certified
        diagnostics.extend(cert.reasons)
        try:
            dvp = dvp_lower_bound(f, rho, free=True, cfg=cfg)
        except DomainError as exc:
            diagnostics.append(f"lower bound unavailable: {exc}")
    if not certified:
        diagnostics.append("heuristic (uncertified) result")
    gap = (error - dvp) / error if error > 0.0 else 0.0
    return ApproxResult(
        rho=rho,
        error=error,
        alternance=alternance,
        dvp_lower=dvp,
        certified=certified,
        gap=gap,
        diagnostics=tuple(diagnostics),
    )
