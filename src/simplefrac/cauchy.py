"""Cauchy-type matrix machinery.

Matrices built from nodes c_j in [-1, 1] and poles z_k off the unit disk:
B[j,k] = 1/(c_j - z_k) and its elementwise square A.  Provides the classical
closed-form Cauchy determinant (an independent oracle for the LU route), an
exact permanent by Ryser's inclusion-exclusion blocked over columns, the
Borchardt determinant-permanent identity check, a non-vanishing witness for
the hypothesis-gated determinant, and the residue decomposition that writes
a difference of two logarithmic derivatives over a common denominator.

Everything is complex128 throughout; conjugate-closed pole sets are the
common case and keep all the headline quantities real.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .cheb import chebyshev_points
from .config import DEFAULTS
from .errors import DomainError, ToleranceNotMetError
from .extremal import _canonical_poles

# low columns tabulated by the Ryser kernel: 2^10 subsets per numpy product
_RYSER_BLOCK = 10
# complex entries in one stacked Ryser table (n x matrices x 2^b): 256 KB,
# the size of one n = 16 permanent's table, so a batch's two tables take no
# more memory than that permanent does
_RYSER_TABLE = 1 << 14

# most draws one borchardt_batch chunk holds, which bounds its memory
_BATCH_CHUNK = 1024

# conditioning flags, in the order conditioning_flags reports them
CONDITIONING_FLAGS = ("node-separation", "pole-interval-distance", "determinant-conditioning")


@dataclass(frozen=True)
class CauchyPair:
    """Node set {c_j} and pole set {z_k} of equal size n.

    Nodes must be pairwise distinct reals, poles pairwise distinct and
    conjugate-closed, and the two sets disjoint.  The lemma-mode hypotheses
    (nodes inside [-1, 1], all |z_k| > 1) are checked separately by
    :meth:`lemma_violations`.
    """

    nodes: tuple[float, ...]
    poles: tuple[complex, ...]

    def __post_init__(self):
        nodes = tuple(float(c) for c in self.nodes)
        if len(nodes) == 0:
            raise DomainError("a Cauchy pair needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise DomainError("nodes must be pairwise distinct")
        for c in nodes:
            if not math.isfinite(c):
                raise DomainError(f"non-finite node {c!r}")
        poles = tuple(complex(z) for z in self.poles)
        # validate conjugate closure without touching the given column order
        _canonical_poles(poles)
        if len(poles) != len(nodes):
            raise DomainError(
                f"node and pole counts differ: {len(nodes)} vs {len(poles)}"
            )
        pole_set = set(poles)
        if len(pole_set) != len(poles):
            raise DomainError("poles must be pairwise distinct")
        # complex == and hash agree (also for -0.0), so set membership is
        # the pairwise equality test
        for c in nodes:
            if complex(c, 0.0) in pole_set:
                raise DomainError(f"node {c} coincides with a pole")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "poles", poles)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def lemma_violations(self) -> tuple[str, ...]:
        """Names of violated non-vanishing hypotheses (empty when all hold)."""
        out = []
        if any(not (-1.0 <= c <= 1.0) for c in self.nodes):
            out.append("nodes must lie in [-1, 1]")
        if any(abs(z) <= 1.0 for z in self.poles):
            out.append("|z_k| <= 1 for some pole (need |z_k| > 1)")
        return tuple(out)

    def conditioning_flags(self, cfg=None) -> tuple[str, ...]:
        """Ill-conditioning markers that route an instance to the
        conditioning report instead of pass/fail assertions.

        Besides the node-separation and pole-to-interval gates, instances
        with cond(B) above ``det_condition_gate`` are flagged: the LU
        determinants on both sides of the identity lose roughly
        cond(B) * eps relative accuracy, so no tolerance below that is
        meaningful for them.
        """
        cond_b = np.linalg.cond(matrix_b(self)) if self.size > 1 else 1.0
        return _conditioning_flags(self, cond_b, DEFAULTS if cfg is None else cfg)


def _conditioning_flags(pair: CauchyPair, cond_b: float, cfg) -> tuple[str, ...]:
    """The gates of :meth:`CauchyPair.conditioning_flags`, given cond(B)
    (not consulted for a single node)."""
    flags = []
    ns = sorted(pair.nodes)
    if len(ns) > 1:
        sep = min(b - a for a, b in zip(ns, ns[1:]))
        if sep < cfg.node_separation_gate:
            flags.append("node-separation")
    for z in pair.poles:
        dx = max(abs(z.real) - 1.0, 0.0)
        if math.hypot(dx, z.imag) < cfg.pole_interval_gate:
            flags.append("pole-interval-distance")
            break
    if pair.size > 1 and cond_b > cfg.det_condition_gate:
        flags.append("determinant-conditioning")
    return tuple(flags)


def matrix_b(pair: CauchyPair) -> np.ndarray:
    """B[j,k] = 1/(c_j - z_k)."""
    c = np.asarray(pair.nodes, dtype=complex)[:, None]
    z = np.asarray(pair.poles, dtype=complex)[None, :]
    return 1.0 / (c - z)


def matrix_a(pair: CauchyPair) -> np.ndarray:
    """A[j,k] = 1/(c_j - z_k)^2, formed as the elementwise square of B."""
    b = matrix_b(pair)
    return b * b


def cauchy_det_closed_form(pair: CauchyPair) -> complex:
    """Product formula for det B: prod_{i<j}(c_j-c_i) * prod_{i<j}(z_i-z_j)
    / prod_{i,j}(c_i-z_j).  Serves as the oracle for the LU determinant."""
    c = pair.nodes
    z = pair.poles
    n = pair.size
    num = complex(1.0)
    for i in range(n):
        for j in range(i + 1, n):
            num *= (c[j] - c[i]) * (z[i] - z[j])
    den = complex(1.0)
    for ci in c:
        for zj in z:
            den *= ci - zj
    return num / den


def permanent_ryser(m) -> complex:
    """Exact permanent by Ryser's inclusion-exclusion, blocked over columns.

    per M = (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} m_ij over column
    subsets S (Nijenhuis and Wilf, *Combinatorial Algorithms*, 1978).  The
    low b = min(n, 10) columns are tabulated once: an n x 2^b table of the
    row sums of every low subset, with the matching (-1)^|L| signs.  Python
    then walks only the 2^(n-b) Gray-code subsets of the high columns,
    updating one row-sum vector and folding in a 2^b-wide product per step,
    so the cost is 2^(n-10) Python steps of a 1024-column product, O(2^n n)
    flops in all.  The working set is two n x 2^b complex tables (under
    1 MB at n = 20), never 2^n rows.  Gated at n <= permanent_max_n.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"permanent needs a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n == 0:
        raise DomainError("permanent of an empty matrix is not defined here")
    if n > DEFAULTS.permanent_max_n:
        raise DomainError(
            f"permanent gated at n <= {DEFAULTS.permanent_max_n} (exponential cost); got n={n}"
        )
    return _ryser_stack(m[None])[0]


@functools.lru_cache(maxsize=None)
def _ryser_signs(b: int) -> np.ndarray:
    """(-1)^|L| for the 2^b subsets L of the low columns; read-only."""
    sign_lo = np.ones(1 << b, dtype=complex)
    for k in range(b):
        h = 1 << k
        sign_lo[h : 2 * h] = -sign_lo[:h]
    sign_lo.flags.writeable = False
    return sign_lo


def _ryser_stack(ms: np.ndarray, work: np.ndarray | None = None) -> list[complex]:
    """Blocked Ryser permanents of a stack of K complex n x n matrices.

    The table of low-subset row sums is laid out rows x (matrix, subset),
    n x K x 2^b, so one product over axis 0 serves every matrix, and the
    Gray walk over the high columns updates an n x K row-sum block.  Each
    matrix's products are then reduced on their own by ``sign_lo @ p``:
    per element, the arithmetic is that of a single-matrix table, so every
    permanent is the same bit for bit whatever K is.

    The table is built subset-major, 2^b x (row, matrix), where each
    doubling step adds one column to a contiguous block, and then copied
    into place.  ``work``, when it holds two tables, provides that memory:
    a caller making many calls passes one buffer, so the tables' pages are
    not faulted in anew each time.
    """
    kk, n, _ = ms.shape
    b = min(n, _RYSER_BLOCK)
    w = 1 << b
    size = n * kk * w
    if work is None or work.size < 2 * size:
        work = np.empty(2 * size, dtype=complex)
    low = work[:size].reshape(n, kk, w)
    spare = work[size : 2 * size]
    by_subset = spare.reshape(w, n * kk)
    cols = ms.transpose(2, 1, 0).reshape(n, n * kk)  # cols[k][i * K + m] = ms[m, i, k]
    by_subset[0] = 0.0
    for k in range(b):
        h = 1 << k
        np.add(by_subset[:h], cols[k], out=by_subset[h : 2 * h])
    np.copyto(low, by_subset.T.reshape(n, kk, w))
    sign_lo = _ryser_signs(b)
    prods = low.prod(axis=0)
    sign = -1.0 if n % 2 else 1.0
    totals = [sign * (sign_lo @ p) for p in prods]
    if n > b:
        # high column j of every matrix, shaped like the row-sum block
        high = cols[b:].reshape(n - b, n, kk, 1)
        acc = np.zeros((n, kk, 1), dtype=complex)
        rows = spare.reshape(n, kk, w)
        prod_rows = list(enumerate(prods))  # views that each step refills
        for k in range(1, 1 << (n - b)):
            j = (k & -k).bit_length() - 1  # the high column Gray step k flips
            if (k ^ (k >> 1)) >> j & 1:
                acc += high[j]
            else:
                acc -= high[j]
            sign = -sign
            np.add(low, acc, out=rows)
            np.multiply.reduce(rows, axis=0, out=prods)
            for i, p in prod_rows:
                totals[i] += sign * (sign_lo @ p)
    return [complex(t) for t in totals]


@dataclass(frozen=True)
class BorchardtReport:
    lhs: complex
    rhs: complex
    rel_residual: float


def borchardt_check(pair: CauchyPair) -> BorchardtReport:
    """Compare det A against det B * per B.

    lhs comes from an LU factorization of A, rhs from the LU determinant of
    B times the Ryser permanent; the relative residual is normalized by
    max(|lhs|, |rhs|, floor)."""
    if pair.size > DEFAULTS.permanent_max_n:
        raise DomainError(
            f"identity check gated at n <= {DEFAULTS.permanent_max_n}, got n={pair.size}"
        )
    b = matrix_b(pair)
    return _borchardt_report(np.linalg.det(b * b), np.linalg.det(b), permanent_ryser(b))


def _borchardt_report(det_a, det_b, per_b: complex) -> BorchardtReport:
    lhs = complex(det_a)
    rhs = complex(det_b) * per_b
    denom = max(abs(lhs), abs(rhs), DEFAULTS.residual_floor)
    return BorchardtReport(lhs=lhs, rhs=rhs, rel_residual=abs(lhs - rhs) / denom)


def permanent_of_pair(pair: CauchyPair) -> complex:
    """Permanent of B through the determinant identity det A / det B.

    This is the cheap production route; it falls back to Ryser when det B
    vanishes numerically."""
    b = matrix_b(pair)
    det_b = complex(np.linalg.det(b))
    if det_b == 0.0:
        return permanent_ryser(b)
    return complex(np.linalg.det(b * b)) / det_b


@dataclass(frozen=True)
class NonvanishingReport:
    abs_det_a: float
    conditions_ok: bool
    violations: tuple[str, ...]


def nonvanishing_witness(pair: CauchyPair) -> NonvanishingReport:
    """Report |det A| together with the hypothesis gate.

    Statistical evidence only: the determinant is reported, never proven
    nonzero; violated hypotheses are named and flip conditions_ok."""
    violations = pair.lemma_violations()
    abs_det = float(abs(np.linalg.det(matrix_a(pair))))
    return NonvanishingReport(
        abs_det_a=abs_det,
        conditions_ok=not violations,
        violations=violations,
    )


def _diffs(x, roots):
    """x - r for every point of ``x`` (any shape) and root r, as complex;
    the roots run along the last axis."""
    return np.subtract.outer(np.asarray(x, dtype=complex), np.asarray(roots, dtype=complex))


def _poly_eval(x, roots):
    """prod_r (x - r) at every point of ``x``."""
    return _diffs(x, roots).prod(axis=-1)


def _scalar_or_array(out):
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class KomarovDecomposition:
    """Residue decomposition P - Q = (p/q) * sum_k gamma_k/(x - z_k)^2,
    where P = p'/p, Q = q'/q for p with simple roots z_k and q with roots
    zeta_k.

    ``lhs`` and ``rhs`` take a point or an array of points and broadcast
    over points x poles; a scalar point gives a complex scalar.
    """

    gamma: tuple[complex, ...]
    p_poles: tuple[complex, ...]
    q_poles: tuple[complex, ...]

    def lhs(self, x):
        out = (1.0 / _diffs(x, self.p_poles)).sum(axis=-1) - (
            1.0 / _diffs(x, self.q_poles)).sum(axis=-1)
        return _scalar_or_array(out)

    def rhs(self, x):
        d = _diffs(x, self.p_poles)
        ratio = d.prod(axis=-1) / _poly_eval(x, self.q_poles)
        out = ratio * (np.asarray(self.gamma, dtype=complex) / (d * d)).sum(axis=-1)
        return _scalar_or_array(out)

    def validation_points(self, count: int | None = None, margin: float | None = None):
        """Points of [-1, 1] at least ``margin`` away from every pole."""
        count = DEFAULTS.komarov_points if count is None else count
        margin = DEFAULTS.komarov_margin if margin is None else margin
        pts = chebyshev_points(count)
        far = np.abs(_diffs(pts, self.p_poles + self.q_poles)) >= margin
        return pts[far.all(axis=1)]

    def max_residual(self, points=None) -> float:
        pts = self.validation_points() if points is None else np.asarray(points)
        return float(np.max(np.abs(self.lhs(pts) - self.rhs(pts))))


def komarov_coefficients(p_poles, q_poles, validate: bool = True) -> KomarovDecomposition:
    """Coefficients gamma_k = q(z_k) / p'(z_k) of the residue decomposition.

    Requires the p-poles simple (pairwise distinct) and no more q-poles than
    p-poles.  With ``validate`` the identity residual is checked on sample
    points of [-1, 1] bounded away from the poles.
    """
    p = tuple(complex(z) for z in p_poles)
    q = tuple(complex(z) for z in q_poles)
    if len(p) == 0:
        raise DomainError("need at least one p-pole")
    if len(q) > len(p):
        raise DomainError(f"need |q_poles| <= |p_poles|, got {len(q)} > {len(p)}")
    if len(set(p)) != len(p):
        raise DomainError("p-poles must be pairwise distinct (simple roots)")
    q_at_p = _poly_eval(p, q)
    gamma = tuple(
        complex(q_at_p[k]) / complex(_poly_eval(zk, p[:k] + p[k + 1 :]))
        for k, zk in enumerate(p)
    )
    dec = KomarovDecomposition(gamma=gamma, p_poles=p, q_poles=q)
    if validate:
        resid = dec.max_residual()
        if resid > DEFAULTS.komarov_tol:
            raise ToleranceNotMetError(
                f"decomposition identity residual {resid:.3e} exceeds "
                f"{DEFAULTS.komarov_tol:.1e}",
                best=dec,
            )
    return dec


@functools.lru_cache(maxsize=64)
def _chebyshev_nodes(n: int) -> np.ndarray:
    """The n Chebyshev nodes cos((2k+1)pi/(2n)), descending; read-only."""
    base = np.cos(np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n))
    base.flags.writeable = False
    return base


def random_cauchy_pair(n: int, rng: np.random.Generator,
                       min_abs: float = 1.1, max_abs: float = 10.0) -> CauchyPair:
    """Random instance with nodes in [-1, 1] and a conjugate-closed pole set
    with moduli in [min_abs, max_abs].  Draws are deterministic given rng.

    Nodes are jittered Chebyshev points (well separated by construction) and
    pole moduli are log-uniform.  The determinant-conditioning gate still
    excludes most draws from n = 6 on: the share that passes every gate is
    about 0.84 / 0.47 / 0.14 / 0.036 / 0.005 / 0.0004 at n = 5..10.

    Each pole attempt takes its 2 * (n_real + n_pairs) doubles from one
    ``rng.random`` call and maps each as ``rng.uniform(lo, hi)`` does, to
    lo + (hi - lo) * u: the same values, in the same order, as one
    ``rng.uniform`` call per value, at a fraction of the cost of either
    that or ``rng.uniform`` with array bounds.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    if not 0.0 < min_abs <= max_abs < math.inf:
        raise DomainError(
            f"pole moduli need 0 < min_abs <= max_abs < inf, got min_abs={min_abs!r}, "
            f"max_abs={max_abs!r}"
        )
    for _ in range(200):
        if n == 1:
            nodes = rng.uniform(-1.0, 1.0, size=1)
        else:
            nodes = np.sort(_chebyshev_nodes(n) + rng.uniform(-0.3 / n, 0.3 / n, size=n))
            nodes = np.clip(nodes, -1.0, 1.0)
        if n == 1 or np.diff(nodes).min() > 1e-6:
            break
    n_pairs = int(rng.integers(0, n // 2 + 1))
    n_real = n - 2 * n_pairs
    log_lo, log_hi = math.log(min_abs), math.log(max_abs)
    log_span = log_hi - log_lo
    theta_lo = 0.1
    theta_span = (math.pi - 0.1) - theta_lo
    for _ in range(200):
        # per real pole: log-modulus, sign coin; per pair: log-modulus, angle
        u = rng.random(2 * (n_real + n_pairs)).tolist()
        poles: list[complex] = []
        for k in range(0, 2 * n_real, 2):
            mag = math.exp(log_lo + log_span * u[k])
            poles.append(complex(mag if u[k + 1] < 0.5 else -mag, 0.0))
        for k in range(2 * n_real, len(u), 2):
            mag = math.exp(log_lo + log_span * u[k])
            z = mag * cmath.exp(complex(0.0, theta_lo + theta_span * u[k + 1]))
            poles.append(z)
            poles.append(z.conjugate())
        seps = [
            abs(p - q) for i, p in enumerate(poles) for q in poles[i + 1 :]
        ]
        if not seps or min(seps) > 1e-3:
            break
    return CauchyPair(nodes=tuple(nodes.tolist()), poles=tuple(poles))


@dataclass(frozen=True)
class BorchardtBatchReport:
    """Summary of a batch identity run with conditioning-based routing.

    min_normalized_det_a is the smallest observed |det A| / |det B|^2 with
    det B from the closed form; it is the scale-free non-vanishing evidence
    (equal to |per B / det B| when the identity holds).  excluded_by_flag
    holds one (flag, count) pair per conditioning flag, in the order of
    CONDITIONING_FLAGS; a draw with several flags counts under each.
    """

    trials: int
    draws: int
    checked: int
    excluded: int
    max_rel_residual: float
    min_abs_det_a: float
    min_normalized_det_a: float
    excluded_max_residual: float
    tol: float
    failures: int
    excluded_by_flag: tuple[tuple[str, int], ...]


def _check_chunk(pairs: list[CauchyPair], work: np.ndarray) -> list[tuple[BorchardtReport, tuple]]:
    """borchardt_check and conditioning_flags of every pair, with one det,
    one cond and one Ryser call per size (the Ryser call split so that each
    table stays within _RYSER_TABLE entries).  Each value equals the
    per-pair call's bit for bit: the stacked LAPACK calls factor each matrix
    on its own, and _ryser_stack does each matrix's arithmetic unchanged."""
    out: list = [None] * len(pairs)
    by_size: dict[int, list[int]] = {}
    for i, pair in enumerate(pairs):
        by_size.setdefault(pair.size, []).append(i)
    for n, idx in by_size.items():
        c = np.array([pairs[i].nodes for i in idx], dtype=complex)
        z = np.array([pairs[i].poles for i in idx], dtype=complex)
        b = 1.0 / (c[:, :, None] - z[:, None, :])
        det_a = np.linalg.det(b * b)
        det_b = np.linalg.det(b)
        cond_b = np.linalg.cond(b) if n > 1 else np.ones(len(idx))
        step = max(1, _RYSER_TABLE // (n << min(n, _RYSER_BLOCK)))
        per_b = [p for k in range(0, len(idx), step)
                 for p in _ryser_stack(b[k : k + step], work)]
        for k, i in enumerate(idx):
            out[i] = (_borchardt_report(det_a[k], det_b[k], per_b[k]),
                      _conditioning_flags(pairs[i], cond_b[k], DEFAULTS))
    return out


def borchardt_batch(sizes, trials: int, seed: int, tol: float | None = None) -> BorchardtBatchReport:
    """Run the identity check on ``trials`` well-conditioned random instances.

    Draws cycle through ``sizes``; instances tripping a conditioning flag are
    routed to the excluded tally (their residuals are reported but never
    asserted on) and replaced by fresh draws, capped at 20x oversampling.

    Draws are made in chunks of k = min(trials - checked, 20 * trials -
    draws, _BATCH_CHUNK).  A draw adds at most one checked instance, so a
    loop that drew and checked one instance at a time would make all k of
    those draws too: the chunks take the same draws from the same random
    stream.  Each chunk is checked with stacked numpy calls, one per size,
    and then tallied in draw order, so the report is the one-at-a-time
    loop's, bit for bit.  Sizes must lie in 1..permanent_max_n and trials
    must be at least 1.
    """
    try:
        sizes = [operator.index(n) for n in sizes]
        trials = operator.index(trials)
    except TypeError as exc:
        raise DomainError(f"sizes and trials must be integers: {exc}") from exc
    if not sizes:
        raise DomainError("need at least one size")
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    for n in sizes:
        if not 1 <= n <= DEFAULTS.permanent_max_n:
            raise DomainError(
                f"size gated at 1 <= n <= {DEFAULTS.permanent_max_n} "
                f"(exponential-cost permanent), got {n}"
            )
    tol = DEFAULTS.borchardt_tol if tol is None else tol
    rng = np.random.default_rng(seed)
    checked = excluded = failures = draws = 0
    max_res = 0.0
    max_res_excluded = 0.0
    min_det = math.inf
    min_norm_det = math.inf
    by_flag = dict.fromkeys(CONDITIONING_FLAGS, 0)
    work = np.empty(2 * _RYSER_TABLE, dtype=complex)
    while checked < trials and draws < 20 * trials:
        k = min(trials - checked, 20 * trials - draws, _BATCH_CHUNK)
        pairs = [random_cauchy_pair(sizes[(draws + i) % len(sizes)], rng) for i in range(k)]
        draws += k
        for pair, (rep, flags) in zip(pairs, _check_chunk(pairs, work)):
            if flags:
                excluded += 1
                max_res_excluded = max(max_res_excluded, rep.rel_residual)
                for flag in flags:
                    by_flag[flag] += 1
                continue
            checked += 1
            max_res = max(max_res, rep.rel_residual)
            min_det = min(min_det, abs(rep.lhs))
            det_b = abs(cauchy_det_closed_form(pair))
            if det_b > 0.0:
                min_norm_det = min(min_norm_det, abs(rep.lhs) / (det_b * det_b))
            if rep.rel_residual > tol:
                failures += 1
    return BorchardtBatchReport(
        trials=trials,
        draws=draws,
        checked=checked,
        excluded=excluded,
        max_rel_residual=max_res,
        min_abs_det_a=min_det if checked else float("nan"),
        min_normalized_det_a=min_norm_det if checked else float("nan"),
        excluded_max_residual=max_res_excluded,
        tol=tol,
        failures=failures,
        excluded_by_flag=tuple(by_flag.items()),
    )
