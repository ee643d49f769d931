"""Best uniform approximation by logarithmic derivatives on [-1, 1].

The solver is heuristic-with-certificate: a multistart smooth-minimax
descent (p-norm continuation over pole coordinates) followed by a damped
Newton solve of the equioscillation system, then an a-posteriori optimality
check.  The certificate is the alternance criterion: for a fraction with
pairwise-distinct poles all outside the closed unit disk, optimality is
equivalent to n+1 sign-alternating extremal points of the residual, and the
optimum is then unique.  Outside those pole hypotheses best approximations
can be non-unique, so uncertified results are labeled heuristic.

A de-la-Vallee-Poussin-style lower bound derived from any n sign-alternating
residual values brackets the achievable error and yields the reported gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._optim import local_extrema, supremum_on_grid
from .cheb import chebyshev_points
from .config import DEFAULTS, Config
from .errors import DomainError, ToleranceNotMetError
from .extremal import (AlternanceReport, LogDerivative, _min_pole_separation, _norm_grid,
                       _weight, pole_sums)


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
    if not weighted:
        return (lambda x: np.ones_like(x)), (lambda x: np.zeros_like(x)), (lambda x: np.zeros_like(x))

    def wp(x):
        return -x / _weight(x)

    def wpp(x):
        return -1.0 / _weight(x) ** 3

    return _weight, wp, wpp


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
                    cfg: Config = DEFAULTS) -> float:
    """Lower bound on the best deviation from n sign-alternating residual
    values (n = degree of rho).

    Requires pairwise-distinct poles outside the closed unit disk.  Among
    the detected alternating extrema, the length-n window with the largest
    minimum magnitude is used; that minimum is the bound.  Raises when the
    residual shows fewer than n alternating points.
    """
    n = rho.degree
    hyp = _check_pole_hypotheses(rho, cfg)
    if hyp:
        raise DomainError("; ".join(hyp))
    rep = residual_alternance(f, rho, min_points=n, weighted=weighted, cfg=cfg)
    window = _best_window(list(zip(rep.points, rep.values)), n)
    if window is None:
        raise DomainError(
            f"residual shows only {len(rep.values)} alternating points; need {n}"
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
    grid: int = 129
    starts: int = 8
    seed: int = 0
    tol: float = 1e-10
    weighted: bool = False
    fixed_pole: float | None = None
    p_schedule: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256)
    newton_max_iter: int = 40
    polish_rtol: float = 1e-7
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
    reals, dz, pairs = [], [], []
    if shape.fixed_pole is not None:
        reals.append(shape.fixed_pole)
        dz.append(0.0)
    i = 0
    for s in shape.signs:
        reals.append(s * (1.0 + math.exp(theta[i])))
        dz.append(s * math.exp(theta[i]))
        i += 1
    for _ in range(shape.n_pairs):
        pairs.append((theta[i], math.exp(theta[i + 1])))
        i += 2
    return reals, dz, pairs


def _poles_from_theta(theta, shape: _Shape) -> tuple[complex, ...]:
    reals, _, pairs = _theta_poles(theta, shape)
    poles = [complex(r, 0.0) for r in reals]
    for c, v in pairs:
        poles.append(complex(c, v))
        poles.append(complex(c, -v))
    return tuple(poles)


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


def _pnorm_objective(theta, shape: _Shape, xg, fg, wg, p):
    rho, grad, _, _ = _rho_eval(theta, shape, xg, want_grad=True)
    r = wg * (fg - rho)
    dr = -wg[None, :] * grad
    mx = float(np.max(np.abs(r)))
    if mx == 0.0:
        return 0.0, np.zeros(shape.dim)
    u = np.abs(r) / mx
    up = u**p
    ssum = float(np.sum(up))
    phi = mx * ssum ** (1.0 / p)
    coef = ssum ** (1.0 / p - 1.0) * u ** (p - 1) * np.sign(r)
    return phi, dr @ coef


def _start_theta(cfg_index: int, n_free: int, rng: np.random.Generator):
    """Deterministic draw of one start's pole layout and initial parameters."""
    configs = [(n_free - 2 * k, k) for k in range(n_free // 2 + 1)]
    n_real, n_pairs = configs[cfg_index % len(configs)]
    signs = tuple(1.0 if rng.uniform() < 0.5 else -1.0 for _ in range(n_real))
    theta = []
    for _ in range(n_real):
        theta.append(rng.normal(0.3, 0.8))
    for _ in range(n_pairs):
        theta.append(rng.uniform(-0.9, 0.9))
        theta.append(rng.normal(-0.3, 0.8))
    return signs, n_pairs, np.asarray(theta)


def _fd_derivs(f: TargetFunction, ts: np.ndarray):
    """Central-difference f' and f'' at the points ts."""
    h1, h2 = 1e-6, 1e-5
    fp = (f.values_on(ts + h1) - f.values_on(ts - h1)) / (2.0 * h1)
    fpp = (f.values_on(ts + h2) - 2.0 * f.values_on(ts) + f.values_on(ts - h2)) / (h2 * h2)
    return fp, fpp


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
        for row, i in enumerate(idx):
            J[m_levels + row, :dim] = -(wpv[i] * grad[:, i] + wv[i] * gradp[:, i])
            J[m_levels + row, dim + row] = big_rpp[row]

        fnorm = float(np.max(np.abs(F)))
        if fnorm <= 1e-13 * max(1.0, abs(h), scale):
            break
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None

        def apply(step):
            th = theta + step * delta[:dim]
            tnew = ts.copy()
            tnew[interior] = np.clip(
                ts[interior] + step * delta[dim : dim + k], -1.0 + 1e-12, 1.0 - 1e-12
            )
            hnew = h + step * delta[dim + k]
            return th, tnew, hnew

        accepted = False
        for step in (1.0, 0.5, 0.25, 0.125, 0.0625):
            th, tnew, hnew = apply(step)
            if np.any(np.diff(tnew) <= 0.0):
                continue
            rho_n, _, rhop_n, _ = _rho_eval(th, shape, tnew, want_grad=False, want_deriv=True)
            fv = f.values_on(tnew)
            fpn, _ = _fd_derivs(f, tnew)
            big_rn = w(tnew) * (fv - rho_n)
            big_rpn = wp(tnew) * (fv - rho_n) + w(tnew) * (fpn - rhop_n)
            fn = np.concatenate([big_rn - signs * hnew, big_rpn[np.flatnonzero(interior)]])
            if float(np.max(np.abs(fn))) < fnorm:
                theta, ts, h = th, tnew, hnew
                accepted = True
                break
        if not accepted:
            break
    return theta


def _refined_error(f: TargetFunction, rho: LogDerivative, weighted: bool, opts: ApproxOptions,
                   cfg: Config):
    r_fn = _residual_fn(f, rho, weighted)

    def absr(x):
        return np.abs(r_fn(x))

    grid = _norm_grid(rho.degree, cfg, opts.refine_grid)
    value, _ = supremum_on_grid(absr, grid, min(opts.tol, cfg.supnorm_xtol))
    return value


def _project_poles(rho: LogDerivative) -> LogDerivative:
    """Hard projection: push any pole with |z| <= 1 just outside the disk."""
    out = []
    changed = False
    for z in rho.poles:
        if abs(z) <= 1.0 and z.imag != 0.0:
            out.append(z / abs(z) * (1.0 + 1e-9))
            changed = True
        else:
            out.append(z)
    return LogDerivative(tuple(out)) if changed else rho


def solve_best_ld(f: TargetFunction, n: int, opts: ApproxOptions | None = None, *,
                  cfg: Config = DEFAULTS) -> ApproxResult:
    """Approximate f on [-1, 1] by a degree-n logarithmic derivative.

    Phase 1 minimizes the residual p-norm on a Chebyshev grid with
    p-continuation over pole coordinates (real poles as sign*(1+e^s),
    conjugate pairs as center plus log-offset), multistarted from the seed;
    exactly representable targets get a final least-squares polish.  Phase 2
    runs the damped-Newton equioscillation solve per start and keeps
    whatever refines the sup error.  The best result is certified through
    the alternance criterion and bracketed from below by the
    de-la-Vallee-Poussin-style bound; the relative bracket width is the gap.

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

    # scipy is imported by the solver alone, so `import simplefrac` does not
    # pay for it
    from scipy import optimize as sciopt

    rng = np.random.default_rng(opts.seed)
    xg = chebyshev_points(opts.grid)
    fg = f.values_on(xg)
    wfun, _, _ = _weight_fns(opts.weighted)
    wg = wfun(xg)
    scale = 1.0 + float(np.max(np.abs(fg)))

    def param_bounds(shape: _Shape):
        # s <= 40 caps real poles near 2.4e17 (numerically a pole at
        # infinity); s >= -30 keeps 1 + e^s strictly above 1 in binary64 so
        # a pole can never round onto the segment endpoint
        out = [(-30.0, 40.0)] * len(shape.signs)
        out += [(-8.0, 8.0), (-30.0, 40.0)] * shape.n_pairs
        return out

    diagnostics: list[str] = []
    best: tuple[float, int, LogDerivative] | None = None

    for start in range(opts.starts):
        signs, n_pairs, theta = _start_theta(start, n_free, rng)
        shape = _Shape(signs=signs, n_pairs=n_pairs, fixed_pole=opts.fixed_pole)
        ok = True
        for p in opts.p_schedule:
            res = sciopt.minimize(
                _pnorm_objective,
                theta,
                args=(shape, xg, fg, wg, p),
                jac=True,
                method="L-BFGS-B",
                bounds=param_bounds(shape),
                options={"maxiter": 200, "ftol": 1e-16, "gtol": 1e-14},
            )
            if not np.all(np.isfinite(res.x)):
                ok = False
                break
            theta = res.x
        if not ok:
            diagnostics.append(f"start {start}: continuation diverged; discarded")
            continue

        # representable targets: finish with a least-squares polish
        r_now = wg * (fg - _rho_eval(theta, shape, xg, want_grad=False)[0])
        if float(np.max(np.abs(r_now))) <= opts.polish_rtol * scale:
            lo, hi = np.array(param_bounds(shape)).T

            def residvec(th):
                rho, _, _, _ = _rho_eval(np.clip(th, lo, hi), shape, xg, want_grad=False)
                return wg * (fg - rho)

            def residjac(th):
                _, grad, _, _ = _rho_eval(np.clip(th, lo, hi), shape, xg, want_grad=True)
                return (-wg[None, :] * grad).T

            ls = sciopt.least_squares(
                residvec, theta, jac=residjac, method="lm",
                xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=400,
            )
            if np.all(np.isfinite(ls.x)):
                theta = np.clip(ls.x, lo, hi)

        try:
            rho1 = _project_poles(LogDerivative(_poles_from_theta(theta, shape)))
        except DomainError:
            diagnostics.append(f"start {start}: invalid pole set; discarded")
            continue
        if rho1.has_pole_on_segment(cfg=cfg):
            diagnostics.append(f"start {start}: pole drifted onto [-1, 1]; discarded")
            continue
        err1 = _refined_error(f, rho1, opts.weighted, opts, cfg)
        cand_err, cand_rho = err1, rho1

        theta2 = _newton_equioscillate(theta, shape, f, opts.weighted, opts, scale, cfg)
        if theta2 is not None:
            try:
                rho2 = _project_poles(LogDerivative(_poles_from_theta(theta2, shape)))
                if not rho2.has_pole_on_segment(cfg=cfg):
                    err2 = _refined_error(f, rho2, opts.weighted, opts, cfg)
                    if err2 < cand_err:
                        cand_err, cand_rho = err2, rho2
            except DomainError:
                pass

        if best is None or cand_err < best[0]:
            best = (cand_err, start, cand_rho)

    if best is None:
        raise ToleranceNotMetError("no start produced a valid pole configuration")

    error, _, rho = best
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
            dvp = dvp_lower_bound(f, rho, cfg=cfg)
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
