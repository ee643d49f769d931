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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cheb import chebyshev_points
from .config import DEFAULTS, Config
from .errors import (DomainError, EvaluationError, ToleranceNotMetError, require_complex,
                     require_int, require_real)
from .extremal import _conjugate_halves, _min_pole_separation

# low columns tabulated by the Ryser kernel: 2^10 subsets per numpy product
_RYSER_BLOCK = 10
# complex entries in one stacked Ryser table (n x matrices x 2^b): 256 KB,
# the size of one n = 16 permanent's table, so a batch's two tables take no
# more memory than that permanent does
_RYSER_TABLE = 1 << 14

# most draws one borchardt_batch chunk holds, which bounds its memory: a
# batch at n = 10 peaks at about 880 KB traced, 1 MB at a cap of 96
_BATCH_CHUNK = 64

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
        nodes = tuple(require_real("node", c) for c in self.nodes)
        if len(nodes) == 0:
            raise DomainError("a Cauchy pair needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise DomainError("nodes must be pairwise distinct")
        poles = tuple(require_complex("pole", z) for z in self.poles)
        # validate conjugate closure without touching the given column order
        _conjugate_halves(poles)
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

    def conditioning_flags(self, cfg: Config = DEFAULTS) -> tuple[str, ...]:
        """Ill-conditioning markers that route an instance to the
        conditioning report instead of pass/fail assertions.

        Besides the node-separation and pole-to-interval gates, instances
        with cond(B) above ``det_condition_gate`` are flagged: the LU
        determinants on both sides of the identity lose roughly
        cond(B) * eps relative accuracy, so no tolerance below that is
        meaningful for them.  cond(B) is np.linalg.cond's, the SVD ratio;
        the batch decides most draws from closed-form bounds on it, to the
        same flags (:func:`_cond_exceeds`), and a single pair takes the SVD.
        """
        nodes = np.array([self.nodes])
        poles = np.array([self.poles], dtype=complex)
        return _flag_rows(nodes, poles, _cauchy_b(nodes, poles), cfg)[0]


def _flag_rows(nodes: np.ndarray, poles: np.ndarray, b: np.ndarray,
               cfg: Config) -> list[tuple[str, ...]]:
    """The conditioning flags of K pairs of one size n, given as nodes
    (K, n), poles (K, n) and their matrices B (K, n, n): per pair, the names
    of the gates it trips, in the order of CONDITIONING_FLAGS.  Node
    separation and cond(B) are not consulted for a single node; cond(B)
    is decided by :func:`_cond_exceeds`."""
    k, n = nodes.shape
    hits = np.zeros((k, len(CONDITIONING_FLAGS)), dtype=bool)
    if n > 1:
        sep = np.diff(np.sort(nodes, axis=1), axis=1).min(axis=1)
        hits[:, 0] = sep < cfg.node_separation_gate
        hits[:, 2] = _cond_exceeds(nodes, poles, b, cfg.det_condition_gate)
    # np.hypot and math.hypot can round an ulp apart, which only a pole
    # within an ulp of the gate would show
    dist = np.hypot(np.maximum(np.abs(poles.real) - 1.0, 0.0), poles.imag)
    hits[:, 1] = (dist < cfg.pole_interval_gate).any(axis=1)
    return [tuple(itertools.compress(CONDITIONING_FLAGS, row)) for row in hits.tolist()]


# least K * n of a stack of K matrices of size n for which _cond_exceeds
# tries the closed-form bounds: they cost some 30 numpy calls, about 50 us
# at any K, and a stacked SVD about n us per matrix, so below this the
# SVDs they could save cost less
_BOUND_MIN_WORK = 64
_EPS = float(np.finfo(float).eps)


def _svd_cond(b: np.ndarray) -> np.ndarray:
    """np.linalg.cond of a stack of matrices: per matrix, the ratio of its
    largest to its least singular value."""
    return np.linalg.cond(b)


def _cond_exceeds(nodes: np.ndarray, poles: np.ndarray, b: np.ndarray,
                  gate: float) -> np.ndarray:
    """Whether np.linalg.cond(B) > gate, for each of K pairs of size n > 1
    given as for _flag_rows: bit for bit that rule, with most pairs decided
    without a factorization.

    :func:`_cond_bounds` gives bounds L <= cond_2(B) <= U from B's
    closed-form inverse.  A pair is flagged where L > g(1 + delta) and
    cleared where U < g(1 - delta), for delta = 3 (rho + eta (1 + g)):

    - rho = 16 (n + 1) eps bounds the relative rounding of L, U and the two
      thresholds, some 12n + 8 roundings of positive products and sums;
    - eta = 4 (n + 2)^2 eps bounds, relative to ||B||_2, the entry rounding
      of ``b`` against the exact Cauchy matrix (10 sqrt(n) eps in norm) plus
      the backward error of LAPACK's SVD, p(n) eps ||B||_2 with p "a
      modestly growing function" (LAPACK Users' Guide, section 4.9), here
      4 n^2, far above the ~n eps seen.  Each computed singular value is
      then within eta sigma_1 of the exact one, so the SVD's ratio is within
      a factor (1 +- eta)/(1 -+ eta cond_2) of cond_2, near the gate within
      1 +- eta (1 + g), which is about n^2 eps g.

    A flagged pair has cond_2 > g(1 + delta)/(1 + rho) and a cleared one
    cond_2 < g(1 - delta)/(1 - rho); from there that factor cannot carry the
    SVD's ratio across g, so every decision is the one np.linalg.cond
    reaches.  The SVD decides the rest, rows whose bounds are NaN among
    them, and every row of a stack with K * n below _BOUND_MIN_WORK or
    under a gate so large that delta > 1/2.
    """
    k, n = nodes.shape
    delta = 3.0 * (16.0 * (n + 1) + 4.0 * (n + 2) ** 2 * (1.0 + gate)) * _EPS
    if k * n < _BOUND_MIN_WORK or delta > 0.5:
        return _svd_cond(b) > gate
    lower, upper = _cond_bounds(nodes, poles)
    out = lower > gate * (1.0 + delta)
    rest = np.flatnonzero(~(out | (upper < gate * (1.0 - delta))))
    if rest.size:
        out[rest] = _svd_cond(b[rest]) > gate
    return out


def _cond_bounds(nodes: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Bounds (L, U) on cond_2 of the Cauchy matrix of each of K pairs of
    size n > 1, as a (2, K) array.

    B = 1/(c_j - z_k) has the closed-form inverse (Schechter, *Math. Tables
    Aids Comput.* 13, 1959) with |B^-1_kj|^2 = |B_jk|^2 X_j Y_k, where
    X_j = prod_k |c_j - z_k|^2 / prod_{i!=j} (c_j - c_i)^2 and
    Y_k = prod_j |c_j - z_k|^2 / prod_{i!=k} |z_k - z_i|^2.  So the column
    norms of B and the row norms of B^-1 cost O(n^2) products and sums of
    positive terms, each to a few eps per factor.  U = ||B||_F ||B^-1||_F =
    cond_F, and cond_2 lies in [cond_F/n, cond_F].  L is the largest column
    norm of B times the largest row norm of B^-1, each at most the matrix's
    2-norm and at least its Frobenius norm over sqrt(n), so L lies in
    [cond_F/n, cond_2]; at n = 6..8 and the default gate it leaves a third
    as many draws undecided as cond_F/n would.

    Both are NaN for a pair with a factor |c_j - z_k|^2 or X_j's or Y_k's
    outside [2^-m, 2^m], m = 1000 // (2n + 1), among them a spent draw with
    coincident poles: within that range every product and partial sum lies
    in [2^-1000, n^2 2^1000], in the normal float range.  Only L^2 and U^2
    can overflow, to inf, which flags a pair whose cond_2 is past 2^500 and
    clears none.  The work
    runs on real (n, n, K) arrays, pairs innermost, so each numpy loop
    spans the stack, in one (3, n, n, K) buffer.
    """
    k, n = nodes.shape
    c = np.ascontiguousarray(nodes.T)
    zr = np.ascontiguousarray(poles.real.T)
    zi = np.ascontiguousarray(poles.imag.T)
    w = np.empty((3, n, n, k))
    f_x, f_y, d2 = w
    with np.errstate(all="ignore"):
        np.subtract(c[:, None], zr[None], out=f_x)
        np.square(f_x, out=f_x)
        np.add(f_x, np.square(zi), out=d2)  # |c_j - z_k|^2
        np.subtract(zr[:, None], zr[None], out=f_x)
        np.square(f_x, out=f_x)
        np.subtract(zi[:, None], zi[None], out=f_y)
        np.square(f_y, out=f_y)
        f_y += f_x  # |z_k - z_i|^2
        np.subtract(c[:, None], c[None], out=f_x)
        np.square(f_x, out=f_x)  # (c_j - c_i)^2
        w[:2].reshape(2, n * n, k)[:, :: n + 1] = 1.0  # no i = j factor
        np.divide(d2, f_x, out=f_x)  # f_x[j, k]: |c_j - z_k|^2 / (c_j - c_k)^2
        np.divide(d2.transpose(1, 0, 2), f_y, out=f_y)  # f_y[k, j]: the Y_k factors
        m = 1000 // (2 * n + 1)
        flat = w.reshape(-1, k)
        inside = (flat.min(axis=0) >= 2.0 ** -m) & (flat.max(axis=0) <= 2.0 ** m)
        x, y = np.multiply.reduce(w[:2], axis=2)
        a = np.reciprocal(d2, out=f_x)  # |B_jk|^2
        cols = a.sum(axis=0)  # squared column norms of B
        a *= x[:, None]
        rows = a.sum(axis=0)
        rows *= y  # squared row norms of B^-1
        bounds = np.array([cols.max(axis=0) * rows.max(axis=0),
                           cols.sum(axis=0) * rows.sum(axis=0)])
        np.sqrt(bounds, out=bounds)
    bounds[:, ~inside] = np.nan
    return bounds


def _cauchy_b(nodes, poles) -> np.ndarray:
    """B[..., j, k] = 1/(c_j - z_k) for nodes and poles of shape (..., n)."""
    c = np.asarray(nodes, dtype=complex)[..., :, None]
    z = np.asarray(poles, dtype=complex)[..., None, :]
    return 1.0 / (c - z)


def matrix_b(pair: CauchyPair) -> np.ndarray:
    """B[j,k] = 1/(c_j - z_k)."""
    return _cauchy_b(pair.nodes, pair.poles)


def matrix_a(pair: CauchyPair) -> np.ndarray:
    """A[j,k] = 1/(c_j - z_k)^2, formed as the elementwise square of B."""
    b = matrix_b(pair)
    return b * b


def cauchy_det_closed_form(pair: CauchyPair) -> complex:
    """Product formula for det B: prod_{i<j}(c_j-c_i) * prod_{i<j}(z_i-z_j)
    / prod_{i,j}(c_i-z_j).  Serves as the oracle for the LU determinant.
    Raises DomainError where the products leave the float range."""
    det = _closed_form_det(pair.nodes, pair.poles)
    if not cmath.isfinite(det):
        raise DomainError(f"closed-form det B is {det}: its products leave the float range")
    return det


def _closed_form_det(c, z) -> complex:
    """cauchy_det_closed_form of nodes ``c`` (floats) and poles ``z``
    (complex numbers), given as sequences."""
    n = len(c)
    num = complex(1.0)
    for i in range(n):
        for j in range(i + 1, n):
            num *= (c[j] - c[i]) * (z[i] - z[j])
    den = complex(1.0)
    for ci in c:
        for zj in z:
            den *= ci - zj
    return num / den


def permanent_ryser(m, *, cfg: Config = DEFAULTS) -> complex:
    """Exact permanent by Ryser's inclusion-exclusion, blocked over columns.

    per M = (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} m_ij over column
    subsets S (Nijenhuis and Wilf, *Combinatorial Algorithms*, 1978).  The
    low b = min(n, 10) columns are tabulated once: an n x 2^b table of the
    row sums of every low subset, with the matching (-1)^|L| signs.  Python
    then walks only the 2^(n-b) Gray-code subsets of the high columns,
    updating one row-sum vector and folding in a 2^b-wide product per step,
    so the cost is 2^(n-10) Python steps of a 1024-column product, O(2^n n)
    flops in all.  The working set is two n x 2^b complex tables (under
    1 MB at n = 20), never 2^n rows.  Gated at n <= cfg.permanent_max_n.
    """
    return _permanent(m, cfg)


def _permanent(m, cfg: Config) -> complex:
    """permanent_ryser, for the package's own calls."""
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"permanent needs a complex matrix: {exc}") from exc
    if not np.isfinite(m).all():
        raise DomainError("permanent needs finite entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"permanent needs a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n == 0:
        raise DomainError("permanent of an empty matrix is not defined here")
    if n > cfg.permanent_max_n:
        raise DomainError(
            f"permanent gated at n <= {cfg.permanent_max_n} (exponential cost); got n={n}"
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


def borchardt_check(pair: CauchyPair, *, cfg: Config = DEFAULTS) -> BorchardtReport:
    """Compare det A against det B * per B.

    lhs comes from an LU factorization of A, rhs from the LU determinant of
    B times the Ryser permanent; the relative residual is normalized by
    max(|lhs|, |rhs|, cfg.residual_floor)."""
    if pair.size > cfg.permanent_max_n:
        raise DomainError(
            f"identity check gated at n <= {cfg.permanent_max_n}, got n={pair.size}"
        )
    b = matrix_b(pair)
    return BorchardtReport(*_identity_sides(np.linalg.det(b * b), np.linalg.det(b),
                                            _permanent(b, cfg), cfg))


def _identity_sides(det_a, det_b, per_b: complex, cfg: Config) -> tuple[complex, complex, float]:
    """lhs = det A, rhs = det B * per B and their relative residual."""
    lhs = complex(det_a)
    rhs = complex(det_b) * per_b
    denom = max(abs(lhs), abs(rhs), cfg.residual_floor)
    return lhs, rhs, abs(lhs - rhs) / denom


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

    def validation_points(self, *, cfg: Config = DEFAULTS):
        """Those of cfg.komarov_points Chebyshev points of [-1, 1] that lie
        at least cfg.komarov_margin away from every pole."""
        pts = chebyshev_points(cfg.komarov_points)
        far = np.abs(_diffs(pts, self.p_poles + self.q_poles)) >= cfg.komarov_margin
        return pts[far.all(axis=1)]

    def max_residual(self, points=None, *, cfg: Config = DEFAULTS) -> float:
        """Largest |lhs - rhs| over ``points`` (by default the validation
        points); EvaluationError, naming the first such point, where it is
        not finite: the point lies at a pole, or a term overflows.  There
        must be at least one point."""
        pts = self.validation_points(cfg=cfg) if points is None else np.asarray(points)
        if pts.size == 0:
            raise DomainError("no point to evaluate the identity at: none given, or every "
                              "validation point lies within cfg.komarov_margin of a pole")
        with np.errstate(all="ignore"):
            resid = np.abs(self.lhs(pts) - self.rhs(pts)).reshape(-1)
        bad = np.flatnonzero(~np.isfinite(resid))
        if len(bad):
            raise EvaluationError(f"identity residual {resid[bad[0]]} at x = "
                                  f"{pts.reshape(-1)[bad[0]].item()!r}: "
                                  "x lies at a pole, or a term overflows")
        return float(np.max(resid))


def komarov_coefficients(p_poles, q_poles, validate: bool = True, *,
                         cfg: Config = DEFAULTS) -> KomarovDecomposition:
    """Coefficients gamma_k = q(z_k) / p'(z_k) of the residue decomposition.

    Requires the p-poles simple (pairwise distinct) and no more q-poles than
    p-poles.  With ``validate`` the identity residual must stay within
    cfg.komarov_tol on the sample points of [-1, 1] away from the poles;
    where it is not finite there, max_residual raises EvaluationError.
    Raises DomainError where a coefficient is not a finite float.
    """
    p = tuple(require_complex("p-pole", z) for z in p_poles)
    q = tuple(require_complex("q-pole", z) for z in q_poles)
    if len(p) == 0:
        raise DomainError("need at least one p-pole")
    if len(q) > len(p):
        raise DomainError(f"need |q_poles| <= |p_poles|, got {len(q)} > {len(p)}")
    if len(set(p)) != len(p):
        raise DomainError("p-poles must be pairwise distinct (simple roots)")
    with np.errstate(all="ignore"):
        q_at_p = _poly_eval(p, q)
        dp = [complex(_poly_eval(zk, p[:k] + p[k + 1 :])) for k, zk in enumerate(p)]
    gamma = tuple(complex(qk) / dk if dk else complex(math.nan) for qk, dk in zip(q_at_p, dp))
    if not all(map(cmath.isfinite, gamma)):
        raise DomainError("the residue coefficients q(z_k) / p'(z_k) leave the float range")
    dec = KomarovDecomposition(gamma=gamma, p_poles=p, q_poles=q)
    if validate:
        resid = dec.max_residual(cfg=cfg)
        if resid > cfg.komarov_tol:
            raise ToleranceNotMetError(
                f"decomposition identity residual {resid:.3e} exceeds "
                f"{cfg.komarov_tol:.1e}",
                best=dec,
            )
    return dec


# up to this size the Chebyshev gaps exceed the jitter span 0.6/n (by at
# least 7e-4, at n = 16), so no jittered node set needs a redraw
_JITTER_SAFE_N = 16


@functools.lru_cache(maxsize=64)
def _node_layout(n: int) -> tuple[np.ndarray, float]:
    """Centres and jitter half-width of n random nodes: a single node is
    uniform on [-1, 1), and n > 1 nodes are the Chebyshev nodes
    cos((2k+1)pi/(2n)), descending, each moved by less than 0.3/n.  The
    centres are read-only."""
    if n == 1:
        base, half = np.zeros(1), 1.0
    else:
        base, half = np.cos(np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n)), 0.3 / n
    base.flags.writeable = False
    return base, half


def _jitter(u: np.ndarray, half: float) -> np.ndarray:
    """Uniform doubles u in [0, 1) mapped to [-half, half) as
    ``rng.uniform(-half, half)`` maps them: lo + (hi - lo) * u."""
    return -half + (half - -half) * u


def _jittered_nodes(base: np.ndarray, jitter: np.ndarray) -> np.ndarray:
    """Sorted base + jitter, clipped to [-1, 1], along the last axis."""
    return np.clip(np.sort(base + jitter, axis=-1), -1.0, 1.0)


def _draw_pairs(ns, rng: np.random.Generator, min_abs: float = 1.1, max_abs: float = 10.0
                ) -> tuple[dict[int, tuple[list[int], np.ndarray, np.ndarray]], bool]:
    """Random pairs for the sizes in ``ns``, drawn in order as
    :func:`random_cauchy_pair` describes.

    Returns, per size n, the indices into ``ns`` of its draws with their
    nodes (K, n) and poles (K, n), stacked in draw order, and whether the
    last draw is spent.  A pole set is kept when no two poles lie within
    1e-3 (extremal._min_pole_separation).  Each draw makes the RNG calls of
    a single one, so the pairs do not depend on how many share the call.
    The node jitters are drawn as ``rng.random(n)`` and mapped, with the
    nodes, for all draws of a size at once, as ``rng.uniform(-h, h, n)``
    maps the same doubles (:func:`_jitter`); from n = 17 on, a draw whose
    nodes come within 1e-6 maps its own jitter to redraw it.  A spent
    draw, one whose node or pole retries ran out, need not be a valid pair.
    Drawing stops after it, and the caller validates it as a CauchyPair,
    which raises the DomainError a single draw would, if and when it uses
    it.
    """
    log_lo = math.log(min_abs)
    log_span = math.log(max_abs) - log_lo
    theta_lo = 0.1
    theta_span = (math.pi - 0.1) - theta_lo
    drawn: dict[int, tuple[list[int], list, list]] = {}
    spent = False
    for i, n in enumerate(ns):
        base, half = _node_layout(n)
        for _ in range(200):
            jitter = rng.random(n)
            if n <= _JITTER_SAFE_N or np.diff(
                    _jittered_nodes(base, _jitter(jitter, half))).min() > 1e-6:
                break
        else:
            spent = True
        n_pairs = int(rng.integers(0, n // 2 + 1))
        n_real = n - 2 * n_pairs
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
            if _min_pole_separation(poles, 1e-3) == math.inf:
                break
        else:
            spent = True
        idx, jitters, pole_rows = drawn.setdefault(n, ([], [], []))
        idx.append(i)
        jitters.append(jitter)
        pole_rows.append(poles)
        if spent:
            break
    stacks = {}
    for n, (idx, jitters, pole_rows) in drawn.items():
        base, half = _node_layout(n)
        stacks[n] = (idx, _jittered_nodes(base, _jitter(np.array(jitters), half)),
                     np.array(pole_rows, dtype=complex))
    return stacks, spent


def random_cauchy_pair(n: int, rng: np.random.Generator,
                       min_abs: float = 1.1, max_abs: float = 10.0) -> CauchyPair:
    """Random instance with nodes in [-1, 1] and a conjugate-closed pole set
    with moduli in [min_abs, max_abs].  Draws are deterministic given rng.

    Nodes are jittered Chebyshev points (well separated by construction) and
    pole moduli are log-uniform.  The determinant-conditioning gate still
    excludes most draws from n = 6 on: the share that passes every gate is
    about 0.84 / 0.47 / 0.14 / 0.036 / 0.005 / 0.0004 at n = 5..10.

    A draw makes three kinds of RNG call, in this order: one
    ``rng.random(n)`` for the node jitter (redrawn, from n = 17 on, while
    two nodes lie within 1e-6; up to n = 16 that cannot happen), one
    ``rng.integers`` for the number of conjugate pairs, and one
    ``rng.random`` of 2 * (n_real + n_pairs) doubles per pole attempt
    (redrawn while two poles lie within 1e-3).  Each of those doubles is
    mapped as ``rng.uniform(lo, hi)`` does, to lo + (hi - lo) * u: the same
    values, in the same order, as ``rng.uniform(-h, h, n)`` for the jitter
    and one ``rng.uniform`` call per pole value, at a fraction of the
    cost.  This is the one-draw case of the chunk drawer
    that :func:`borchardt_batch` uses, so a batch draws these same pairs.
    """
    n = require_int("size n", n, 1)
    need = "pole moduli need 0 < min_abs <= max_abs < inf: "
    min_abs = require_real(need + "min_abs", min_abs, 0.0)
    max_abs = require_real(need + "max_abs", max_abs, min_abs, inclusive=True)
    ((_, nodes, poles),) = _draw_pairs([n], rng, min_abs, max_abs)[0].values()
    return CauchyPair(nodes=tuple(nodes[0].tolist()), poles=tuple(poles[0].tolist()))


@dataclass(frozen=True)
class BorchardtBatchReport:
    """Summary of a batch identity run with conditioning-based routing.

    The residual, determinant and failure fields cover the checked draws
    only.  An excluded draw is counted, in ``excluded`` and under each flag
    it trips, and gets no permanent and no determinant.
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
    tol: float
    failures: int
    excluded_by_flag: tuple[tuple[str, int], ...]


def _flag_chunk(drawn: dict[int, tuple[list[int], np.ndarray, np.ndarray]],
                cfg: Config) -> tuple[dict[int, np.ndarray], list[tuple]]:
    """The first step of a chunk's check: the matrices B of its draws, as
    _draw_pairs returns them, and their conditioning flags, with one
    _flag_rows call per size.  Returns B (K, n, n) per size and, per draw
    in draw order, its size, its row in that size's stack and its flags."""
    mats: dict[int, np.ndarray] = {}
    out: list = [None] * sum(len(idx) for idx, _, _ in drawn.values())
    for n, (idx, nodes, poles) in drawn.items():
        b = mats[n] = _cauchy_b(nodes, poles)
        for row, (i, flags) in enumerate(zip(idx, _flag_rows(nodes, poles, b, cfg))):
            out[i] = (n, row, flags)
    return mats, out


def _identity_rows(drawn: dict[int, tuple[list[int], np.ndarray, np.ndarray]],
                   mats: dict[int, np.ndarray], picked: list[tuple[int, int]],
                   work: np.ndarray) -> list[tuple]:
    """The second step: the identity check of the picked draws, given as
    (size, row) in draw order, with one det of A, one det of B and one Ryser
    call per size (the Ryser call split so that each table stays within
    _RYSER_TABLE entries).  Returns, per picked draw in order, det A, det B
    and per B as Python complex numbers, its nodes and poles.  Each value
    equals the per-pair call's bit for bit: the stacked LAPACK calls factor
    each matrix on its own, and _ryser_stack does each matrix's arithmetic
    unchanged, whichever matrices share the stack."""
    by_size: dict[int, tuple[list[int], list[int]]] = {}
    for pos, (n, row) in enumerate(picked):
        at, rows = by_size.setdefault(n, ([], []))
        at.append(pos)
        rows.append(row)
    out: list = [None] * len(picked)
    for n, (at, rows) in by_size.items():
        b = mats[n][rows]
        det_a = np.linalg.det(b * b).tolist()
        det_b = np.linalg.det(b).tolist()
        step = max(1, _RYSER_TABLE // (n << min(n, _RYSER_BLOCK)))
        per_b = [p for r in range(0, len(rows), step)
                 for p in _ryser_stack(b[r : r + step], work)]
        _, nodes, poles = drawn[n]
        for pos, row, sides in zip(at, rows, zip(det_a, det_b, per_b)):
            out[pos] = (*sides, nodes[row], poles[row])
    return out


def borchardt_batch(sizes, trials: int, seed: int, *,
                    cfg: Config = DEFAULTS) -> BorchardtBatchReport:
    """Run the identity check on ``trials`` well-conditioned random instances.

    Draws cycle through ``sizes``; instances tripping a conditioning flag are
    counted by flag in the excluded tally, get no permanent and no
    determinant, and are replaced by fresh draws, capped at 20x
    oversampling.  A checked instance fails when its residual exceeds
    cfg.borchardt_tol.

    Draws are made in chunks, from one random stream, and tallied in draw
    order until ``trials`` are checked or 20 * trials are tallied, as a loop
    that drew and checked one instance at a time would: ``draws`` counts the
    tallied draws only.  A chunk holds at most 20 * trials - draws and at
    most _BATCH_CHUNK draws, which bounds its memory.  Within that, the
    first chunk holds trials draws, as many as can be needed, so a batch
    whose draws all pass draws nothing extra, and each later chunk as many
    as the pass rate so far says the remaining checks need (the whole
    budget while nothing has passed).  A chunk ends early at a spent draw,
    which is validated only when the tally reaches it, so a draw past the
    stop never raises.
    A chunk's draws of each size are held as (K, n) node and pole arrays,
    the pairs :func:`random_cauchy_pair` would return.  They are flagged
    with stacked numpy calls per size, and tallied from their flags alone;
    then the draws the tally checked, and no others, get their determinants
    and permanents, again stacked per size, and are folded in draw order.
    The cond(B) gate is decided from bounds L <= cond_2(B) <= cond_F(B)
    that B's closed-form inverse gives in O(n^2) (:func:`_cond_exceeds`):
    a draw with L > g(1 + delta) is flagged, one with cond_F < g(1 - delta)
    cleared, where delta, about n^2 eps g, covers the SVD's backward error
    and the bounds' rounding; only the few draws between, and small stacks,
    take the SVD, so every flag is the SVD ratio's.  A draw excluded or
    past the stop costs only its drawing and its bounds.  The Ryser
    tables' buffer is made at the first checked draw, so a batch that
    checks none never makes it.  A checked draw's closed-form det B comes
    from its node and pole lists, and no :class:`CauchyPair` is built for a
    valid draw.  So the report is the one-at-a-time loop's, bit for bit.  Sizes must lie in
    1..cfg.permanent_max_n, trials must be at least 1 and seed at least 0.
    """
    try:
        sizes = [require_int("size", n, 1) for n in sizes]
    except TypeError as exc:
        raise DomainError(f"sizes must be an iterable of integers: {exc}") from exc
    trials = require_int("trials", trials, 1)
    seed = require_int("seed", seed, 0)
    if not sizes:
        raise DomainError("need at least one size")
    if max(sizes) > cfg.permanent_max_n:
        raise DomainError(
            f"size gated at 1 <= n <= {cfg.permanent_max_n} "
            f"(exponential-cost permanent), got {max(sizes)}"
        )
    tol = cfg.borchardt_tol
    rng = np.random.default_rng(seed)
    checked = excluded = failures = draws = 0
    max_res = 0.0
    min_det = math.inf
    min_norm_det = math.inf
    by_flag = dict.fromkeys(CONDITIONING_FLAGS, 0)
    work = None  # the Ryser tables' buffer, made for the first checked draw
    while checked < trials and draws < 20 * trials:
        if not draws:
            k = trials
        elif checked:
            k = -(-(trials - checked) * draws // checked)  # ceil(needed / pass rate)
        else:
            k = _BATCH_CHUNK
        k = min(k, 20 * trials - draws, _BATCH_CHUNK)
        drawn, spent = _draw_pairs([sizes[(draws + i) % len(sizes)] for i in range(k)], rng)
        mats, rows = _flag_chunk(drawn, cfg)
        # the tally needs only the flags; the identity is computed for the
        # checked draws alone
        picked = []
        for i, (n, row, flags) in enumerate(rows):
            if spent and i == len(rows) - 1:
                # raises for an invalid pair, as random_cauchy_pair does
                _, nodes, poles = drawn[n]
                CauchyPair(tuple(nodes[row].tolist()), tuple(poles[row].tolist()))
            draws += 1
            if flags:
                excluded += 1
                for flag in flags:
                    by_flag[flag] += 1
                continue
            checked += 1
            picked.append((n, row))
            if checked == trials:
                break
        if picked and work is None:
            work = np.empty(2 * _RYSER_TABLE, dtype=complex)
        for det_a, det_b, per_b, nodes, poles in _identity_rows(drawn, mats, picked, work):
            lhs, _, residual = _identity_sides(det_a, det_b, per_b, cfg)
            max_res = max(max_res, residual)
            min_det = min(min_det, abs(lhs))
            abs_det_b = abs(_closed_form_det(nodes.tolist(), poles.tolist()))
            if abs_det_b > 0.0:
                min_norm_det = min(min_norm_det, abs(lhs) / (abs_det_b * abs_det_b))
            if residual > tol:
                failures += 1
    return BorchardtBatchReport(
        trials=trials,
        draws=draws,
        checked=checked,
        excluded=excluded,
        max_rel_residual=max_res,
        min_abs_det_a=min_det if checked else float("nan"),
        min_normalized_det_a=min_norm_det if checked else float("nan"),
        tol=tol,
        failures=failures,
        excluded_by_flag=tuple(by_flag.items()),
    )
