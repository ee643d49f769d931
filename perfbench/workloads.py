"""The four benchmark workloads: items, seeded inputs, timed calls and oracles.

An op is one workload item.  ``Workload.ops(pass_index)`` builds the inputs of
one pass from the workload seed (untimed) and returns the ops; ``Op.call``
is the timed work and ``Op.check`` the untimed oracle on its outputs.  Every
library call goes through a module attribute (``ext.weighted_sup_norm``, not
a name bound at import), so the traced run can wrap it from outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import simplefrac.bernstein as bn
import simplefrac.cauchy as cy
import simplefrac.extremal as ext
import simplefrac.minimax as mx
import simplefrac.targets as tg


class Steps:
    """Outputs and exceptions of the named steps of one op."""

    def __init__(self):
        self.out: dict[str, object] = {}
        self.errors: list[tuple[str, BaseException]] = []

    def run(self, step: str, fn: Callable, *args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # recorded by kind; the op counts as failed
            self.errors.append((step, exc))
            value = None
        self.out[step] = value
        return value


@dataclass
class Op:
    key: str
    call: Callable[[Steps], None]
    check: Callable[[dict], list[str]]


@dataclass
class Workload:
    name: str
    passes_per_round: int
    ops: Callable[[int], list[Op]]
    # a workload with a fingerprint repeats its inputs every round, and equal
    # inputs must give equal fingerprints
    fingerprint: Callable[[dict], object] | None = None
    known_defects: dict[tuple[str, str], str] = field(default_factory=dict)


def _rng(seed: int, workload_tag: int, pass_index: int, extra: int = 0):
    return np.random.default_rng([seed, workload_tag, pass_index, extra])


def _cheb_grid(m: int) -> np.ndarray:
    """Chebyshev points of the oracles, kept apart from the package's own."""
    j = np.arange(m)
    return np.sin(np.pi * (2 * j - (m - 1)) / (2 * (m - 1)))


# ---------------------------------------------------------------- weighted-perturb

def _perturbed_extremal(n: int, a: float, rng) -> ext.LogDerivative:
    """Pole perturbation of the weighted extremal as in acceptance criterion 8."""
    rho = ext.build_extremal_weighted(ext.FixedPoleClass(n, a))
    other_reals = [z.real for z in rho.poles if z.imag == 0.0 and z.real != a]
    pairs = sorted(set((z.real, abs(z.imag)) for z in rho.poles if z.imag > 0.0))
    delta = 10.0 ** rng.uniform(-3, -1)
    poles = [complex(a, 0.0)]
    for r in other_reals:
        poles.append(complex(r * (1.0 + delta * rng.uniform(-1, 1)), 0.0))
    for u, v in pairs:
        z = complex(u * (1.0 + delta * rng.uniform(-1, 1)), v * (1.0 + delta * rng.uniform(-1, 1)))
        poles += [z, z.conjugate()]
    return ext.LogDerivative(tuple(poles))


def dense_weighted_max(poles, grid_size: int = 2048) -> tuple[float, float]:
    """Max of |sqrt(1-x^2) sum 1/(x-z)| on a dense Chebyshev grid, refined
    three times on 257-point subgrids around the three largest local maxima.

    Returns (max, rounding scale), the scale being the largest weighted sum of
    term magnitudes, which bounds the summation error of any evaluation order.
    """
    z = np.asarray(poles, dtype=complex)

    def f(x):
        val = np.empty(x.size)
        mag = np.empty(x.size)
        for s in range(0, x.size, 1024):
            xs = x[s:s + 1024]
            terms = 1.0 / (xs[:, None] - z[None, :])
            w = np.sqrt(np.clip((1.0 - xs) * (1.0 + xs), 0.0, None))
            val[s:s + 1024] = np.abs(w * terms.sum(axis=1).real)
            mag[s:s + 1024] = w * np.abs(terms).sum(axis=1)
        return val, mag

    x = _cheb_grid(grid_size)
    y, mag = f(x)
    peaks = [i for i in range(1, grid_size - 1) if y[i] >= y[i - 1] and y[i] >= y[i + 1]]
    peaks.sort(key=lambda i: -y[i])
    best = float(y.max())
    for i in peaks[:3]:
        lo, hi = x[i - 1], x[i + 1]
        for _ in range(3):
            xs = np.linspace(lo, hi, 257)
            ys, _ = f(xs)
            j = int(np.argmax(ys))
            best = max(best, float(ys[j]))
            lo, hi = xs[max(j - 1, 0)], xs[min(j + 1, 256)]
    return best, float(mag.max())


def weighted_perturb(seed: int, smoke: bool = False) -> Workload:
    grid = [(8, 2.0)] if smoke else [(n, a) for a in (2.0, 3.0) for n in (8, 16, 32, 64)]

    def ops(pass_index: int) -> list[Op]:
        out = []
        for idx, (n, a) in enumerate(grid):
            rho = _perturbed_extremal(n, a, _rng(seed, 1, pass_index, idx))
            level = ext.extremal_weighted_norm(ext.FixedPoleClass(n, a))
            out.append(Op(f"n={n},a={a:g}",
                          lambda s, rho=rho: s.run("supnorm", ext.weighted_sup_norm, rho),
                          lambda o, rho=rho, level=level, n=n: _check_perturbed(o, rho, level, n)))
        return out

    return Workload("weighted-perturb", 1 if smoke else 30, ops)


def _check_perturbed(out, rho, level, n) -> list[str]:
    if "supnorm" not in out:
        return []
    est = out["supnorm"]
    bad = []
    if not est.value >= level - 1e-9:
        bad.append("supnorm:below-closed-form-level")
    dense, scale = dense_weighted_max(rho.poles)
    if abs(est.value - dense) > 1e-9 * dense + n * np.finfo(float).eps * scale:
        bad.append("supnorm:dense-grid-mismatch")
    return bad


# ---------------------------------------------------------------- paper-sweep

PAPER_N = (4, 6, 8, 12, 16, 24, 32, 48, 64)
PAPER_A = (2.0, 3.0, 5.0)

_EVAL_LD = "the pole-sum evaluator eval_ld cannot resolve values far below its terms"
_COLLEAGUE = "the colleague-matrix candidate fails its residual gate at high degree"


def paper_sweep(seed: int, smoke: bool = False) -> Workload:
    grid = [(n, a) for n in ((4,) if smoke else PAPER_N) for a in PAPER_A]

    def ops(pass_index: int) -> list[Op]:
        out = []
        for idx, (n, a) in enumerate(grid):
            rng = _rng(seed, 2, pass_index, idx)
            polys = [bn.random_rooted_polynomial(n, a, rng) for _ in range(2)]
            # the two witness families take turns along the grid: together
            # they are most of a pass, and one per op leaves time for more passes
            which = 1 + idx % 2
            out.append(Op(f"n={n},a={a:g}",
                          lambda s, n=n, a=a, p=polys, w=which: _paper_op(s, n, a, p, w),
                          lambda o, n=n, a=a, w=which: _check_paper(o, n, a, w)))
        return out

    known = {
        ("candidate", "ToleranceNotMetError"): _COLLEAGUE,
        ("annulus", "ToleranceNotMetError"): _COLLEAGUE,
        ("bracket", "ToleranceNotMetError"): _COLLEAGUE,
        ("bracket", "inverted"): _EVAL_LD,
        ("bracket", "outside-lambda-bounds"): _EVAL_LD,
        ("alternance", "sign-pattern"): _EVAL_LD,
    }
    return Workload("paper-sweep", 1 if smoke else 3, ops, known_defects=known)


def _paper_op(s: Steps, n: int, a: float, polys, which: int) -> None:
    cls = ext.FixedPoleClass(n, a)
    rho = s.run("build", ext.build_extremal_weighted, cls)
    if rho is not None:
        s.run("supnorm", ext.weighted_sup_norm, rho)
    s.run("alternance", ext.alternance_points_weighted, cls)
    cand = s.run("candidate", ext.build_candidate_unweighted, cls)
    s.run("annulus", ext.verify_pole_annulus, cls, cand)
    s.run("lambda", ext.lambda_bounds, cls)
    # the bracket is stated for a above the corollary threshold only
    if a > bn.corollary_min_a(n):
        s.run("bracket", ext.dvp_bracket, cls)
    s.run("corollary", lambda: [bn.check_corollary(p) for p in polys])
    s.run("witness", bn.witness_ratio_empirical, n, a, which)


def _check_paper(o: dict, n: int, a: float, which: int) -> list[str]:
    bad = []
    cls = ext.FixedPoleClass(n, a)
    level = ext.extremal_weighted_norm(cls)
    if o.get("supnorm") is not None and abs(o["supnorm"].value - level) > 1e-9 * level:
        bad.append("supnorm:closed-form-mismatch")
    if o.get("alternance") is not None:
        rep, _ = o["alternance"]
        vals = rep.values
        if len(vals) != n or not all(vals[i] * vals[i + 1] < 0.0 for i in range(len(vals) - 1)):
            bad.append("alternance:sign-pattern")
        # absolute, as in acceptance criterion 2
        if any(abs(abs(v) - level) > 1e-10 for v in vals):
            bad.append("alternance:level")
    ann = o.get("annulus")
    if ann is not None and not (ann.all_in_closure_ea and ann.all_outside_et in (True, None)):
        bad.append("annulus:poles-outside")
    lam = o.get("lambda")
    if lam is not None and not 0.0 < lam.lower <= lam.upper:
        bad.append("lambda:order")
    br = o.get("bracket")
    if br is not None:
        if br.lower > br.upper:
            bad.append("bracket:inverted")
        # the slack of acceptance criterion 4
        if lam is None or not (lam.lower * (1 - 1e-6) <= br.lower
                               and br.upper <= lam.upper * (1 + 1e-6)):
            bad.append("bracket:outside-lambda-bounds")
    for rep in o.get("corollary", ()):
        hold = rep.both_hold if n >= 4 and a > bn.corollary_min_a(n) else rep.lhs_w >= rep.rhs_w
        if not hold:
            bad.append("corollary:bound-violated")
    w = o.get("witness")
    if w is not None and which == 1 and abs(w - bn.asymptotic_ratios(n, a, force=True).r1) > 1e-9 * w:
        bad.append("witness:r1-mismatch")
    if w is not None and which == 2 and not 0.0 < w <= 1.0 + 1e-12:
        bad.append("witness:r2-out-of-range")
    return bad


# ---------------------------------------------------------------- solver-zoo

def _spline(rng) -> tg.SampledFunction:
    """A smooth seeded table: low-degree Chebyshev series plus small noise."""
    # jittered Chebyshev abscissas: the jitter keeps them ordered and inside
    xs = np.cos(np.pi * (np.arange(25) + np.r_[0.0, rng.uniform(-0.3, 0.3, 23), 0.0]) / 24)[::-1]
    coeffs = rng.normal(0.0, 1.0, 5) / np.arange(1, 6)
    ys = np.polynomial.chebyshev.chebval(xs, coeffs) + rng.normal(0.0, 1e-3, xs.size)
    return tg.SampledFunction(xs=tuple(float(x) for x in xs), ys=tuple(float(y) for y in ys))


ZOO = (
    ("ldcheb:2,-2:1e-3:3", (2, 4)),
    ("ld:2,-2,1.5+1j,1.5-1j", (4,)),
    ("abs", (2, 3, 4)),
    ("exp", (2, 3, 4, 5)),
    ("cos5x", (2, 3, 4, 6)),
    ("sqrt1px", (3, 4, 6)),
    ("spline", (3,)),
)

_PLAIN = {
    "exp": np.exp,
    "cos5x": lambda x: np.cos(5.0 * np.asarray(x, dtype=float)),
    "sqrt1px": lambda x: np.sqrt(1.0 + np.asarray(x, dtype=float)),
}


def _zoo_target(name: str, rng, wrap) -> mx.TargetFunction:
    """The benchmark owns every target callable; ``wrap`` instruments it."""
    if name == "spline":
        base = _spline(rng).as_target()
        return mx.TargetFunction(evaluator=wrap(wrap.spline(base.evaluator)),
                                 description=base.description)
    if name in _PLAIN:
        return mx.TargetFunction(evaluator=wrap(_PLAIN[name]), description=name)
    base = tg.parse_target(name)
    return mx.TargetFunction(evaluator=wrap(base.evaluator), description=name)


class _NoWrap:
    def __call__(self, fn):
        return fn

    def spline(self, fn):
        return fn


def solver_zoo(seed: int, smoke: bool = False, wrap=None) -> Workload:
    wrap = _NoWrap() if wrap is None else wrap
    items = [(name, ns[:1] if smoke else ns) for name, ns in ZOO]
    passes = 1 if smoke else 4

    def ops(pass_index: int) -> list[Op]:
        # Every round repeats its inputs, and the solver's start seeds do not
        # follow the workload seed: one solve's cost varies over 10x with its
        # start seed, so fresh start seeds per run would swamp any code change
        # with draw noise.  The workload seed varies the sampled target.
        rng = _rng(seed, 3, pass_index % passes)
        starts = _rng(0, 3, pass_index % passes)
        out = []
        for name, ns in items:
            for n in ns:
                target = _zoo_target(name, rng, wrap)
                opts = mx.ApproxOptions(seed=int(starts.integers(2**31)))
                out.append(Op(f"{name},n={n}",
                              lambda s, t=target, n=n, o=opts: s.run("solve", mx.solve_best_ld, t, n, o),
                              _check_solve))
        return out

    def fingerprint(o: dict):
        res = o["solve"]
        return (tuple(res.rho.poles), res.error) if res is not None else None

    known = {
        ("solve", "OverflowError"): "the Newton step is not clipped to the parameter box",
        ("solve", "DomainError"): "finite differences sample the target outside [-1, 1]",
    }
    return Workload("solver-zoo", passes, ops, fingerprint, known)


def _check_solve(o: dict) -> list[str]:
    if "solve" not in o:
        return []
    res = o["solve"]
    bad = []
    if not res.dvp_lower <= res.error * (1.0 + 1e-12):
        bad.append("solve:lower-bound-above-error")
    if res.certified and not res.gap <= 0.01:
        bad.append("solve:certified-gap-too-wide")
    return bad


# ---------------------------------------------------------------- identity-batch

def permanent_oracle(m: np.ndarray) -> tuple[complex, float]:
    """Ryser's formula over all column subsets in binary order, vectorized in
    chunks.  Returns (permanent, sum of term magnitudes)."""
    n = m.shape[0]
    total, scale = 0j, 0.0
    shifts = np.arange(n)
    for start in range(1, 1 << n, 4096):
        ks = np.arange(start, min(start + 4096, 1 << n))
        bits = ((ks[:, None] >> shifts) & 1).astype(float)
        prods = (bits @ m.T).prod(axis=1)
        signs = np.where((n - bits.sum(axis=1)) % 2 == 1, -1.0, 1.0)
        total += complex((signs * prods).sum())
        scale += float(np.abs(prods).sum())
    return total, scale


def _random_poles(rng, n_real: int, n_pairs: int) -> list[complex]:
    poles = [complex(s * rng.uniform(1.5, 4.0), 0.0) for s in (1.0, -1.0)[:n_real]]
    for k in range(n_pairs):
        z = rng.uniform(1.5, 4.0) * np.exp(1j * rng.uniform(0.2 + 1.4 * k, 1.4 + 1.4 * k))
        poles += [complex(z), complex(z).conjugate()]
    return poles


EXAMPLE_PAIR = ((0.0, 0.5), (2.0, -2.0))  # det A = det B * per B = -16/225


def identity_batch(seed: int, smoke: bool = False) -> Workload:
    sizes = (1, 2) if smoke else tuple(range(1, 11))
    ryser_sizes = (12,) if smoke else (12, 14, 16)

    def ops(pass_index: int) -> list[Op]:
        rng = _rng(seed, 4, pass_index)
        out = []
        for n in sizes:
            bseed = int(rng.integers(2**31))
            out.append(Op(f"batch,n={n}",
                          lambda s, n=n, b=bseed: s.run("batch", cy.borchardt_batch, [n], 20, b),
                          _check_batch))
        for n in ryser_sizes:
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            out.append(Op(f"ryser,n={n}",
                          lambda s, m=m: s.run("ryser", cy.permanent_ryser, m),
                          lambda o, m=m: _check_ryser(o, m)))
        p, q = _random_poles(rng, 2, 2), _random_poles(rng, 2, 1)
        out.append(Op("komarov",
                      lambda s, p=p, q=q: s.run("komarov", cy.komarov_coefficients, p, q, validate=True),
                      _check_komarov))
        pair = cy.random_cauchy_pair(6, rng)
        out.append(Op("witness", lambda s, pair=pair: _witness_op(s, pair), _check_witness))
        return out

    return Workload("identity-batch", 1 if smoke else 6, ops)


def _check_batch(o: dict) -> list[str]:
    if "batch" not in o:
        return []
    rep = o["batch"]
    bad = []
    if rep.failures != 0:
        bad.append("batch:identity-failures")
    if rep.checked + rep.excluded != rep.draws:
        bad.append("batch:draw-accounting")
    return bad


def _check_ryser(o: dict, m) -> list[str]:
    if "ryser" not in o:
        return []
    want, scale = permanent_oracle(m)
    return [] if abs(o["ryser"] - want) <= 1e-9 * scale else ["ryser:oracle-mismatch"]


def _check_komarov(o: dict) -> list[str]:
    if "komarov" not in o:
        return []
    dec = o["komarov"]
    for w in (0.3 + 0.5j, -0.7 + 0.2j, 0.1 - 0.9j):
        lhs = sum(1 / (w - z) for z in dec.p_poles) - sum(1 / (w - z) for z in dec.q_poles)
        ratio = np.prod([w - z for z in dec.p_poles]) / np.prod([w - z for z in dec.q_poles])
        rhs = ratio * sum(g / (w - z) ** 2 for g, z in zip(dec.gamma, dec.p_poles))
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(lhs)):
            return ["komarov:identity"]
    return []


def _witness_op(s: Steps, pair) -> None:
    example = cy.CauchyPair(*EXAMPLE_PAIR)
    s.run("example", cy.borchardt_check, example)
    s.run("example_witness", cy.nonvanishing_witness, example)
    s.run("random_witness", cy.nonvanishing_witness, pair)


def _check_witness(o: dict) -> list[str]:
    bad = []
    want = -16.0 / 225.0
    rep = o.get("example")
    if rep is not None and not (abs(rep.lhs - want) <= 1e-12 * abs(want)
                                and abs(rep.rhs - want) <= 1e-12 * abs(want)):
        bad.append("example:det-per-value")
    wit = o.get("example_witness")
    if wit is not None and not (abs(wit.abs_det_a - abs(want)) <= 1e-12 and wit.conditions_ok):
        bad.append("example_witness:value")
    wit = o.get("random_witness")
    if wit is not None and not (wit.conditions_ok and wit.abs_det_a > 0.0):
        bad.append("random_witness:vanished")
    return bad


def build(name: str, seed: int, smoke: bool = False, wrap=None) -> Workload:
    if name == "weighted-perturb":
        return weighted_perturb(seed, smoke)
    if name == "paper-sweep":
        return paper_sweep(seed, smoke)
    if name == "solver-zoo":
        return solver_zoo(seed, smoke, wrap)
    if name == "identity-batch":
        return identity_batch(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("weighted-perturb", "paper-sweep", "solver-zoo", "identity-batch")
