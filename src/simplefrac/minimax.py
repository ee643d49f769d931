"""Best uniform approximation by logarithmic derivatives on [-1, 1].

The solver is heuristic-with-certificate: a deterministic linearized
Lawson fit of rho = P'/P (the start of AAA-Lawson, Nakatsukasa and
Trefethen, SIAM J. Sci. Comput. 42, 2020) gives the Chebyshev coefficients
of P; a Remez exchange on the alternance reference runs on those
coefficients and on seeded perturbations of their poles, then an
a-posteriori optimality check.  The solver needs numpy only, and target
values only (no derivatives).  The certificate is the alternance
criterion: for a fraction with pairwise-distinct poles all outside the
closed unit disk, optimality is equivalent to n+1 sign-alternating
extremal points of the residual, and the optimum is then unique.  The
exchange is that criterion turned into an iteration: solve the level
equations on an n+1 point reference, then move the reference to the new
residual's extrema, with the safeguards of Filip, Nakatsukasa, Trefethen
and Beckermann (SIAM J. Sci. Comput. 40, 2018): keep a step only if the
sup level falls.  By the same criterion's uniqueness, once a start of the
unweighted free-pole problem equioscillates with such poles, the later
starts are skipped.  Outside those pole hypotheses best approximations can
be non-unique, so uncertified results are labeled heuristic.

A de-la-Vallee-Poussin-style lower bound derived from any n+1
sign-alternating residual values brackets the achievable error and yields
the reported gap.

One residual scan serves everything: _scan finds the refined local extrema
of the residual on one grid, and _pick reads an alternance report off
them.  The solver scans each fraction it considers once, the exchange's
own scan of each iterate included, and takes the error, the pick, the
alternance, the certificate and the bound from those scans;
residual_alternance, certify_optimality and dvp_lower_bound make the same
scan on the same grid.  The solver scans in rounds (_lockstep), one
iterate of every live start as the rows of one local_extrema call
(_scans), each row _scan bit for bit: every start runs as it would alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._optim import local_extrema
from .cheb import chebyshev_points
from .config import DEFAULTS, Config
from .errors import DomainError, EvaluationError, SimplefracError, require_int, require_real
from .extremal import (AlternanceReport, FixedPoleClass, LogDerivative, _min_pole_separation,
                       _norm_grid, _on_segment, _weight, build_extremal_weighted, pole_sums)


@dataclass(frozen=True)
class TargetFunction:
    """Deterministic real target on [-1, 1].

    ``evaluator`` may be scalar-only or numpy-vectorized; values_on sorts
    that out and always returns a float array of the input shape.  A
    SimplefracError raised by the evaluator propagates as is; any other
    error of the vectorized call falls back to point-by-point evaluation,
    where an error becomes a DomainError that names the target and the
    point.  The evaluator must not write to its input: the solver's scans
    hand it a shared read-only grid, where a write raises ValueError and
    values_on falls back to evaluating point by point.
    """

    evaluator: Callable
    description: str = ""

    def values_on(self, x):
        xs = np.asarray(x, dtype=float)
        try:
            out = np.asarray(self.evaluator(xs), dtype=float)
            if out.shape != xs.shape:
                raise ValueError
        except SimplefracError:
            raise
        except Exception:  # noqa: BLE001 - retried point by point, where _at reports it
            out = np.array([self._at(float(t)) for t in np.atleast_1d(xs)]).reshape(xs.shape)
        if not np.isfinite(out).all():
            raise DomainError(f"target {self.description!r} returned non-finite values")
        return out

    def _at(self, t: float) -> float:
        """The evaluator's value at the one point t, as a float."""
        try:
            return float(self.evaluator(t))
        except SimplefracError:
            raise
        except Exception as exc:  # noqa: BLE001 - the caller's evaluator, reported as a DomainError
            raise DomainError(f"target {self.description!r} failed at x = {t!r}: {exc}") from exc


def _weight_fn(weighted: bool):
    """The residual weight: sqrt(1 - x^2), or 1."""
    return _weight if weighted else np.ones_like


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


# points of the Lawson grid, and the floor of the residual scan grid
_GRID = 513


def _scan(f: TargetFunction, rho: LogDerivative, weighted: bool, cfg: Config):
    """The one residual scan: the local extrema (x, value) of w (f - rho),
    located on _norm_grid(n, cfg, _GRID) for rho of degree n and refined by
    bracketing search to cfg.supnorm_xtol.  Raises DomainError when rho has a
    pole on [-1, 1]."""
    if rho.has_pole_on_segment(cfg=cfg):
        raise DomainError("fraction has a pole on [-1, 1]")

    def fn(x):
        res = f.values_on(x) - rho.values_on(x)
        return _weight(x) * res if weighted else res  # 1.0 * v is v, bit for bit

    return local_extrema(fn, _norm_grid(rho.degree, cfg, _GRID), cfg.supnorm_xtol)


def _residuals(f: TargetFunction, rhos, weighted: bool):
    """The residuals w (f - rho) of the plain pole-sum fractions ``rhos`` (no
    closed-form values_on) as one multi-row fn (see local_extrema), row j
    bit for bit the one _scan(f, rhos[j], ...) scans: one pole_sums pass
    gives each point its row's poles, padded with poles at infinity.
    Raises EvaluationError at a non-finite value."""
    m = len(rhos)
    reals = np.full((m, max(len(rho._reals) for rho in rhos)), math.inf)
    pairs = np.tile([0.0, math.inf], (m, max(len(rho._pairs) for rho in rhos), 1))
    for j, rho in enumerate(rhos):
        reals[j, :len(rho._reals)], pairs[j, :len(rho._pairs)] = rho._reals, rho._pairs

    def r(x, row=None):
        if row is None:  # every row at every point
            at, xs = np.repeat(np.arange(m), len(x)), np.resize(x, m * len(x))
        else:  # point i in row row[i]
            at, xs = row, x
        with np.errstate(all="ignore"):
            y = pole_sums(xs, reals[at].T, pairs[at].transpose(1, 2, 0))
        if not np.isfinite(y).all():
            raise EvaluationError("a fraction value is not finite")
        res = f.values_on(x) - (y if row is not None else y.reshape(m, len(x)))
        return _weight(x) * res if weighted else res  # 1.0 * v is v, bit for bit

    return r


def _scans(f: TargetFunction, rhos, weighted: bool, cfg: Config) -> list:
    """_scan of each fraction of one degree, as rows of one local_extrema
    call: entry j is _scan(f, rhos[j], weighted, cfg) bit for bit, or the
    exception it raises.  If the multi-row scan raises, each fraction is
    scanned on its own."""
    if len(rhos) > 1 and not any(rho.has_pole_on_segment(cfg=cfg) for rho in rhos):
        try:
            return local_extrema(_residuals(f, rhos, weighted),
                                 _norm_grid(rhos[0].degree, cfg, _GRID), cfg.supnorm_xtol)
        except Exception:  # noqa: BLE001 - the rows' own scans say what failed
            pass
    out = []
    for rho in rhos:
        try:
            out.append(_scan(f, rho, weighted, cfg))
        except Exception as exc:  # noqa: BLE001 - the caller raises or discards it
            out.append(exc)
    return out


def _level(extrema) -> float:
    """The sup level of a scan: its largest extremum magnitude."""
    return max((abs(v) for _, v in extrema), default=0.0)


def _f_max(f: TargetFunction, degree: int, cfg: Config) -> float:
    """max |f| on the scan grid of a degree-``degree`` fraction."""
    return float(np.max(np.abs(f.values_on(_norm_grid(degree, cfg, _GRID)))))


def _pick(extrema, f_max: float, min_points: int, level_rtol: float | None,
          cfg: Config) -> AlternanceReport:
    """The report of one scan: residual_alternance documents the pick;
    ``f_max`` (_f_max) scales the degenerate-residual rule."""
    level = _level(extrema)
    if level <= cfg.degenerate_residual_tol * (1.0 + f_max):
        extrema = []
    if level_rtol is not None:
        extrema = [(x, v) for x, v in extrema if abs(v) >= (1.0 - level_rtol) * level]
    chosen = _alternating_subsequence(extrema)
    return AlternanceReport(
        points=tuple(x for x, _ in chosen),
        values=tuple(v for _, v in chosen),
        level=level,
        sign_pattern_ok=len(chosen) >= min_points,
    )


def _report(f: TargetFunction, rho: LogDerivative, min_points: int, level_rtol: float | None,
            weighted: bool, cfg: Config) -> AlternanceReport:
    """One scan of the residual f - rho, and one pick from it."""
    return _pick(_scan(f, rho, weighted, cfg), _f_max(f, rho.degree, cfg), min_points, level_rtol, cfg)


def residual_alternance(
    f: TargetFunction,
    rho: LogDerivative,
    min_points: int,
    weighted: bool = False,
    level_rtol: float | None = None,
    *,
    cfg: Config = DEFAULTS,
) -> AlternanceReport:
    """Sign-alternating extrema of the residual f - rho.

    Local extrema are located on the solver's scan grid (a Chebyshev grid of
    at least 513 points and cfg.supnorm_grid_per_degree per unit degree)
    and refined by bracketing search to cfg.supnorm_xtol; the report carries
    the longest sign-alternating subsequence and the sup-norm level.  With
    ``level_rtol`` set, only extrema within that relative distance of the
    sup norm participate (the equioscillation-certificate reading); by
    default every alternating extremum counts.  A residual indistinguishable
    from zero (level at most cfg.degenerate_residual_tol times 1 + max |f|
    on the grid) yields an empty report with sign_pattern_ok False.
    ``level_rtol`` must be None or a finite real >= 0.
    """
    min_points = require_int("min_points", min_points, 1)
    if level_rtol is not None:
        level_rtol = require_real("level_rtol", level_rtol, 0.0, inclusive=True)
    return _report(f, rho, min_points, level_rtol, weighted, cfg)


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


def _lower_bound(hyp: list[str], rep: AlternanceReport | None, need: int) -> float:
    """The smallest magnitude of the best window of ``need`` alternating
    extrema (_best_window) in the report ``rep``; raises on the
    pole-hypothesis faults ``hyp`` (rep is then unused) or when rep has
    fewer extrema."""
    if hyp:
        raise DomainError("; ".join(hyp))
    window = _best_window(list(zip(rep.points, rep.values)), need)
    if window is None:
        raise DomainError(
            f"residual shows only {len(rep.values)} alternating points; need {need}"
        )
    return min(abs(v) for _, v in window)


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
    rep = None if hyp else _report(f, rho, need, None, weighted, cfg)
    return _lower_bound(hyp, rep, need)


@dataclass(frozen=True)
class CertificateReport:
    certified: bool
    reasons: tuple[str, ...]


def _certificate(hyp: list[str], rep: AlternanceReport, need: int) -> CertificateReport:
    """The certificate from the pole-hypothesis faults ``hyp`` and the
    near-level report ``rep`` of the residual."""
    if not rep.sign_pattern_ok:
        hyp = hyp + [f"found {len(rep.points)} near-level alternating extrema; need {need}"]
    return CertificateReport(certified=not hyp, reasons=tuple(hyp))


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
    hyp = _check_pole_hypotheses(rho, cfg)
    need = rho.degree + 1
    try:
        rep = _report(f, rho, need, cfg.certify_level_rtol, False, cfg)
    except DomainError as exc:
        return CertificateReport(certified=False, reasons=tuple(hyp + [str(exc)]))
    return _certificate(hyp, rep, need)


@dataclass(frozen=True)
class ApproxOptions:
    """Options of solve_best_ld.

    ``starts`` counts exchange starts: start 0 is the Lawson fit, and
    starts 1, 2, ... perturb its poles by draws taken in order from
    ``default_rng(seed)``, so more starts never give a worse answer.  Each
    start competes with the best iterate its exchange kept, its start
    iterate when it had no alternating window.  In the unweighted free-pole
    problem the starts after one that equioscillates with pairwise-distinct
    poles outside the closed unit disk are skipped: the alternance criterion
    makes that start the unique optimum.  Every residual scan runs on the
    grid of residual_alternance and refines to cfg.supnorm_xtol, so
    ``cfg.supnorm_xtol`` and ``cfg.supnorm_grid_per_degree`` set its
    resolution.
    """

    starts: int = 8
    seed: int = 0
    weighted: bool = False
    fixed_pole: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "starts", require_int("starts", self.starts, 1))
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0))
        if self.fixed_pole is not None:
            object.__setattr__(self, "fixed_pole", require_real("fixed pole", self.fixed_pole))
            if abs(self.fixed_pole) <= 1.0:
                raise DomainError(f"fixed pole must satisfy |a| > 1, got {self.fixed_pole}")


@dataclass(frozen=True)
class ApproxResult:
    rho: LogDerivative
    error: float
    alternance: AlternanceReport
    dvp_lower: float
    certified: bool
    gap: float
    diagnostics: tuple[str, ...]


def _cheb_basis(x, m: int):
    """T_k(x) and T_k'(x) for k <= m (m >= 1), shaped (2, points, m + 1).

    Differentiating T_{k+1} = 2x T_k - T_{k-1} gives the recurrence
    T_{k+1}' = 2x T_k' + 2 T_k - T_{k-1}'.
    """
    x = np.asarray(x, dtype=float).ravel()
    t = np.zeros((m + 1, 2, x.size))
    t[0, 0] = 1.0
    t[1, 0], t[1, 1] = x, 1.0
    for k in range(1, m):
        t[k + 1] = 2.0 * x * t[k] - t[k - 1]
        t[k + 1, 1] += 2.0 * t[k, 0]
    return t.transpose(1, 2, 0)


def _cheb_poles(coef) -> tuple[complex, ...]:
    """The free poles of rho = P'/P: the roots of P = sum_k coef_k T_k, a
    float series of degree at least 1 whose leading coefficient is not 0.

    Bit for bit numpy's chebroots, without its per-call conversions: the
    eigenvalues of the rotated companion matrix, sorted, and -c_0/c_1 at
    degree 1.  A non-finite coefficient raises LinAlgError there too.
    """
    c = np.asarray(coef, dtype=float)
    n = len(c) - 1
    if n == 1:
        return (complex(-c[0] / c[1]),)
    # numpy's chebcompanion(c), rotated as chebroots rotates it
    mat = np.zeros((n, n))
    top, bot = mat.reshape(-1)[1::n + 1], mat.reshape(-1)[n::n + 1]
    top[0] = np.sqrt(.5)
    top[1:] = 1 / 2
    bot[...] = top
    scl = np.array([1.] + [np.sqrt(.5)] * (n - 1))
    mat[:, -1] -= (c[:-1] / c[-1]) * (scl / scl[-1]) * .5
    r = np.linalg.eigvals(mat[::-1, ::-1])
    r.sort()
    return tuple(r.astype(complex).tolist())


def _coef_from_poles(poles) -> np.ndarray:
    """Chebyshev coefficients of prod_k (x - z_k), scaled to a leading
    coefficient of 1 (scaling P leaves P'/P alone)."""
    coef = np.polynomial.chebyshev.chebfromroots(poles).real
    return coef / coef[-1]


def _rho_from_coef(coef, x, fixed_pole: float | None, grad: bool = False, basis=None):
    """[rho] at the points x, for rho = P'/P plus 1/(x - a) for a fixed
    pole a and P = sum_k coef_k T_k; or None where P = 0 or a value is not
    finite.

    With ``grad``, [rho, d(rho)/dc_k] for the free coefficients c_k (all
    but the leading one), the gradient shaped (points, m):
    d(rho)/dc_k = (T_k' - (P'/P) T_k)/P.  ``basis`` is _cheb_basis(x,
    len(coef) - 1), built here when not given.
    """
    t = _cheb_basis(x, len(coef) - 1) if basis is None else basis
    with np.errstate(all="ignore"):
        p, p1 = t @ coef
        q1 = p1 / p
        out = [q1 if fixed_pole is None else q1 + 1.0 / (x - fixed_pole)]
        if grad:
            t0, t1 = t[:, :, :-1]
            out.append((t1 - q1[:, None] * t0) / p[:, None])
    return out if all(np.isfinite(a).all() for a in out) else None


# Lawson stops after _LAWSON_MAX_ITER iterations, or once its best grid
# error has not fallen by a relative _LAWSON_STALL_RTOL for
# _LAWSON_STALL_ITER iterations in a row.
_LAWSON_MAX_ITER = 100
_LAWSON_STALL_ITER = 40
_LAWSON_STALL_RTOL = 1e-3
# standard deviation of the pole-coordinate perturbations of starts 1, 2, ...
_PERTURB_SIGMA = 0.3
# cap on the exchange steps of one start, and on the Newton steps of one
# level solve
_MAX_ITER = 40


def _lawson_fit(x, g, w, m: int, cfg: Config):
    """Linearized Lawson fit of P'/P to g on the points x, with weight w.

    P = T_m + sum_{k<m} c_k T_k (scaling P leaves P'/P alone); each iteration
    solves min |w (g P - P') sqrt(lam) / P_prev| for c by least squares, with
    Sanathanan-Koerner weights 1/|P_prev| and Lawson weights
    lam <- lam |w (g - P'/P)|.  Returns the coefficients of the iterate of
    least grid error among those with no pole on the segment (or None), and
    a one-line summary.

    A row weight w sqrt(lam) / |P_prev| that would overflow its row of
    g T_k - T_k' ends the fit as a breakdown, before the least-squares solve.
    No bound on g alone rules that out: the weight 1/|P_prev| can grow with g
    (to 1e191 at g = 1e200, weighted, m = 1).
    """
    vander, deriv = _cheb_basis(x, m)[:2]
    # rows of g T_k - T_k', and one reused buffer for their weighted copy
    lin = g[:, None] * vander - deriv
    # the largest weight each row takes without overflow (a weight is itself
    # a float, so a row with no entry above 1 takes any)
    weight_max = sys.float_info.max / np.maximum(np.abs(lin).max(axis=1), 1.0)
    scaled = np.empty_like(lin)
    lam = np.full(x.size, 1.0 / x.size)
    p_prev = np.ones(x.size)
    coef = np.ones(m + 1)
    best_err, best_coef, stall, why = math.inf, None, 0, "iteration cap"
    for it in range(1, _LAWSON_MAX_ITER + 1):
        weight = w * np.sqrt(lam) / p_prev
        if (weight > weight_max).any():
            why = "breakdown: a row (g T_k - T_k') w sqrt(lam) / |P| would overflow"
            break
        np.multiply(lin, weight[:, None], out=scaled)
        coef[:m], _, rank, _ = np.linalg.lstsq(scaled[:, :m], -scaled[:, m], rcond=None)
        p = vander @ coef
        if rank < m or not np.isfinite(p).all() or (p == 0.0).any():
            why = "breakdown: singular least-squares system or P = 0 on the grid"
            break
        err_vec = np.abs(w * (g - (deriv @ coef) / p))
        err = float(err_vec.max())
        stall = 0 if err < best_err * (1.0 - _LAWSON_STALL_RTOL) else stall + 1
        if err < best_err and not any(_on_segment(z, cfg) for z in _cheb_poles(coef)):
            best_err, best_coef = err, coef.copy()
        total = float((lam * err_vec).sum())
        if stall >= _LAWSON_STALL_ITER or total == 0.0:
            why = "stalled"
            break
        lam *= err_vec / total
        p_prev = np.abs(p)
    return best_coef, f"lawson: {it} iterations ({why}), best grid error {best_err:.6e}"


def _perturbed_poles(poles, d) -> list[complex]:
    """The poles moved by the draws d, in order: |r| - 1 of each real pole r
    scaled by e^d, then each pair's centre shifted by d and its imaginary
    part scaled by e^d."""
    reals = [z.real for z in poles if z.imag == 0.0]
    out = [math.copysign(1.0 + (abs(r) - 1.0) * math.exp(s), r) for r, s in zip(reals, d)]
    for z, du, dv in zip([z for z in poles if z.imag > 0.0], d[len(reals)::2], d[len(reals) + 1::2]):
        moved = complex(z.real + du, z.imag * math.exp(dv))
        out += [moved, moved.conjugate()]
    return out


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


def _solve_levels(coef, ts, ft, wt, signs, h: float, fixed_pole: float | None):
    """Damped Newton solve of the level equations wt (ft - rho(ts)) = signs h
    for (c, h), the free coefficients of P and the level, from (coef, h).

    A trial step with P = 0 or a non-finite rho is rejected.  The solve
    stops once the residual is within a relative 1e-13 of h, or once no
    step lowers it.
    """
    dim = len(coef) - 1
    tol = 1e-13 * h
    basis = _cheb_basis(ts, dim)
    # the Jacobian [-wt d(rho)/dc | -signs], its last column fixed
    jac = np.empty((len(ts), dim + 1))
    jac[:, dim] = -signs
    neg_wt = -wt[:, None]
    for _ in range(_MAX_ITER):
        ev = _rho_from_coef(coef, ts, fixed_pole, grad=True, basis=basis)
        if ev is None:
            break
        F = wt * (ft - ev[0]) - signs * h
        fnorm = float(np.abs(F).max())
        if fnorm <= tol:
            break
        np.multiply(neg_wt, ev[1], out=jac[:, :dim])
        try:
            delta = np.linalg.solve(jac, -F)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(delta).all():
            break
        for step in (1.0, 0.5, 0.25, 0.125, 0.0625):
            cnew = coef.copy()
            cnew[:dim] += step * delta[:dim]
            hnew = h + step * delta[dim]
            ev = _rho_from_coef(cnew, ts, fixed_pole, basis=basis)
            if ev is not None and float(np.abs(wt * (ft - ev[0]) - signs * hnew).max()) < fnorm:
                coef, h = cnew, hnew
                break
        else:
            break
    return coef


def _exchange(coef, f: TargetFunction, opts: ApproxOptions, cfg: Config):
    """Remez exchange on the free Chebyshev coefficients c of P (rho = P'/P,
    plus the fixed pole if any), on a reference of m = len(coef) points.

    A generator run by _lockstep: it yields each iterate's fraction and is
    sent back that fraction's scan (_scan).  The reference t is the
    alternating window of m of the scanned extrema whose smallest magnitude
    is largest (_best_window; the weighted run leaves out extrema within
    1e-9 of +-1, where the weight vanishes).  The exchange stops once that
    smallest magnitude is within a relative 1e-12 of the scanned sup level,
    once the level no longer falls, or when there is no window; otherwise
    it solves the level equations w(t_i)(f(t_i) - rho(t_i)) = sigma (-1)^i h
    for (c, h) and yields the next iterate.  Only target values are used.

    Returns (level, rho, extrema) of the iterate of least scanned level,
    the number of level solves and why the exchange stopped; a start with
    no window returns its start iterate.  A later iterate with a pole on
    [-1, 1] is not yielded: the exchange stops at the one before.
    """
    w = _weight_fn(opts.weighted)
    fixed = () if opts.fixed_pole is None else (complex(opts.fixed_pole),)
    m = len(coef)
    coef = np.array(coef, dtype=float)
    best, steps = None, 0
    while True:
        rho = LogDerivative(fixed + _cheb_poles(coef))
        if best is not None and rho.has_pole_on_segment(cfg=cfg):
            why = "pole on [-1, 1]"
            break
        ext = yield rho
        level = _level(ext)
        if best is not None and level >= best[0]:
            why = "level stopped falling"
            break
        best = (level, rho, ext)
        if opts.weighted:
            ext = [(x, v) for x, v in ext if abs(x) < 1.0 - 1e-9]
        window = _best_window(_alternating_subsequence(ext), m)
        if window is None:
            why = "no alternating window"
            break
        if min(abs(v) for _, v in window) >= (1.0 - 1e-12) * level:
            why = "equioscillated"
            break
        if steps == _MAX_ITER:
            why = "step cap"
            break
        steps += 1
        ts = np.array([x for x, _ in window])
        signs = math.copysign(1.0, window[0][1]) * (-1.0) ** np.arange(m)
        h = float(np.mean([abs(v) for _, v in window]))
        coef = _solve_levels(coef, ts, f.values_on(ts), w(ts), signs, h, opts.fixed_pole)
    return best, steps, why


def _scanned(rho: LogDerivative):
    """A run of _lockstep that asks for one scan and returns it."""
    return (yield rho)


def _lockstep(runs, f: TargetFunction, weighted: bool, cfg: Config):
    """Drive the generators ``runs`` (see _exchange) in rounds: each round
    scans the fraction every live run yielded (_scans) and sends each run
    its scan, or throws in the exception it raised.  Yields each run's return
    value, or the exception it raised, in order, once it and every earlier
    run have ended, so a consumer that stops reading drops the later runs'
    remaining work."""
    runs, ended, asked = list(runs), {}, {}

    def advance(i, ext):
        try:
            asked[i] = runs[i].throw(ext) if isinstance(ext, Exception) else runs[i].send(ext)
        except StopIteration as stop:
            ended[i] = stop.value
        except Exception as exc:  # noqa: BLE001 - the consumer raises or discards it
            ended[i] = exc

    for i in range(len(runs)):
        advance(i, None)
    for i in range(len(runs)):
        while i not in ended:
            live = list(asked)
            for k, ext in zip(live, _scans(f, [asked.pop(k) for k in live], weighted, cfg)):
                advance(k, ext)
        yield ended.pop(i)


def solve_best_ld(f: TargetFunction, n: int, opts: ApproxOptions | None = None, *,
                  cfg: Config = DEFAULTS) -> ApproxResult:
    """Approximate f on [-1, 1] by a degree-n logarithmic derivative.

    Phase 1 is one deterministic linearized Lawson fit of P'/P (see
    _lawson_fit; exact for representable targets), or, if it has no pole
    layout off the segment (as when its rows would overflow on a target
    near the float limit), P with the poles of the weighted extremal at
    a = 2.  Phase 2 runs the exchange (_exchange) on P's Chebyshev
    coefficients from that P (start 0) and from ``opts.starts`` - 1 seeded
    perturbations of its poles; each start reports its exchange steps and
    why it stopped, and a start that raises is discarded with a diagnostic.
    In the unweighted free-pole problem, a start that equioscillates with
    poles meeting the certificate's hypotheses (_check_pole_hypotheses) is
    the unique optimum by the alternance criterion, so the later starts are
    skipped, with one diagnostic naming them.

    Every fraction considered is scanned once (_scan): the fraction with
    all free poles far away, then each exchange iterate, in rounds
    (_lockstep): the far fraction with start 0's start iterate, start 0's
    later iterates alone, so its early stop still skips the other starts,
    then starts 1, 2, ... in lockstep.  The least scanned
    level among the far fraction and each start's output wins (the first on
    ties), and that level is the error.  The winner's stored scan gives the
    alternance report (n_free + 1 points), the alternance certificate and
    the de-la-Vallee-Poussin-style lower bound; the relative bracket width
    is the gap.

    With ``opts.weighted`` the residual carries the sqrt(1-x^2) weight and
    ``opts.fixed_pole`` pins one real pole; the optimality certificate and
    the lower bound are specific to the unweighted free-pole problem, so
    those runs always come back uncertified (with a diagnostic).  ``cfg``
    supplies every tolerance the phases and the certificate use.
    """
    opts = ApproxOptions() if opts is None else opts
    fixed = () if opts.fixed_pole is None else (complex(opts.fixed_pole),)
    n = require_int("degree with a fixed pole" if fixed else "degree", n, len(fixed) + 1)
    n_free = n - len(fixed)
    free = not opts.weighted and opts.fixed_pole is None

    x = chebyshev_points(_GRID)
    fx = f.values_on(x)
    g = fx if opts.fixed_pole is None else fx - 1.0 / (x - opts.fixed_pole)
    try:
        coef0, summary = _lawson_fit(x, g, _weight_fn(opts.weighted)(x), n_free, cfg)
    except np.linalg.LinAlgError as exc:
        coef0, summary = None, f"lawson: {exc}"
    diagnostics: list[str] = [summary]
    if coef0 is None:
        coef0 = _coef_from_poles(build_extremal_weighted(FixedPoleClass(n_free, 2.0)).poles)
        diagnostics.append(f"lawson: no admissible pole layout; starting from the poles "
                           f"of the weighted extremal of degree {n_free} at a = 2")
    poles = _cheb_poles(coef0)
    # free poles at +-(1 + e^40), about 2.4e17, make rho numerically 0, so no
    # answer is worse than the trivial one
    far = LogDerivative(fixed + tuple(complex((-1.0) ** k * (1.0 + math.exp(40.0)))
                                      for k in range(n_free)))

    def outcomes():
        # round 1 scans the far fraction with start 0's start iterate; start 0
        # then runs alone, so that its early stop skips the other starts
        yield from _lockstep([_scanned(far), _exchange(coef0, f, opts, cfg)], f, opts.weighted, cfg)
        rng = np.random.default_rng(opts.seed)
        coefs = [_coef_from_poles(_perturbed_poles(poles, _PERTURB_SIGMA * rng.standard_normal(n_free)))
                 for _ in range(1, opts.starts)]
        yield from _lockstep([_exchange(c, f, opts, cfg) for c in coefs], f, opts.weighted, cfg)

    runs = outcomes()
    ext = next(runs)
    if isinstance(ext, Exception):
        raise ext
    best = (_level(ext), far, ext, "far poles")
    for start, out in enumerate(runs):
        if isinstance(out, (SimplefracError, np.linalg.LinAlgError)):
            diagnostics.append(f"start {start}: {out}; discarded")
            continue
        if isinstance(out, Exception):
            raise out
        (level, rho, ext), steps, why = out
        diagnostics.append(f"start {start}: {steps} exchange step{'' if steps == 1 else 's'}; {why}")
        if level < best[0]:
            best = (level, rho, ext, f"start {start}")
        # the alternance criterion makes this start the unique optimum
        if why == "equioscillated" and free and not _check_pole_hypotheses(rho, cfg):
            if skipped := range(start + 1, opts.starts):
                diagnostics.append(f"starts {', '.join(map(str, skipped))}: skipped; start {start} "
                                   "equioscillates with poles outside the closed unit disk")
            break

    error, rho, ext, label = best
    diagnostics.append(f"best: {label}")
    f_max = _f_max(f, n, cfg)
    alternance = _pick(ext, f_max, n_free + 1, None, cfg)
    certified = False
    dvp = 0.0
    if not free:
        diagnostics.append(
            "certificate and lower bound apply to the unweighted free-pole "
            "problem only; result labeled heuristic"
        )
    else:
        # certify_optimality and dvp_lower_bound(free=True), from the same scan
        hyp = _check_pole_hypotheses(rho, cfg)
        cert = _certificate(hyp, _pick(ext, f_max, n + 1, cfg.certify_level_rtol, cfg), n + 1)
        certified = cert.certified
        diagnostics.extend(cert.reasons)
        try:
            dvp = _lower_bound(hyp, alternance, n + 1)
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
