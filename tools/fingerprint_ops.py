#!/usr/bin/env python3
"""Bit-identity check of two checkouts: fingerprint every benchmark op's output.

    python3 tools/fingerprint_ops.py --base DIR --change DIR [--seeds 3 7]

Each checkout runs in a fresh process, on its own ``src`` and its own,
unchanged ``perfbench/workloads.py``.  Every step of every op of
weighted-perturb (6 passes), paper-sweep (3), solver-zoo (4) and
identity-batch (6) is fingerprinted, its output and its exception alike, at each seed; so is a
probe of 44 solves: |x|, exp(x), cos(5x) and sqrt(1 + x) at default options
at n = 2, 3, 4, 6 and 8, and at n = 2, 3 and 4 once weighted and once with a
fixed pole at 3, the solver branches the benchmark never runs; and so are
the closed forms past the benchmark's n <= 64: f(a), the unweighted
candidate, its lambda bounds and deviation bracket, witness 2, the weighted
alternance, and the derivative bounds of a random rooted polynomial seeded
by (n, a), at n = 128 and 232 for a = 10 and at n = 256 and 395 for a = 3.
A ``hypotheses`` set reaches the pole-hypothesis reasons and the Borchardt
draws' separation rule: ``certify_optimality`` and
``dvp_lower_bound(free=True)`` on |x| for fractions whose poles are too
close, inside the unit disk, both, and neither, and ``random_cauchy_pair``
at n = 3 with all pole moduli 2, where poles collide, and at n = 17 and 20.
A ``kernel`` set runs the pole-sum kernel across its block seams:
``values_on`` on the scan grid, ``sup_norm`` and ``weighted_sup_norm`` of
seeded generic fractions at n = 48, 64, 128 and 256, and an 8-start
``solve_best_ld`` on |x| at n = 10, the least degree whose multi-row
residual scan, which gives each point poles of its own, spans two blocks.
A ``flags`` set runs the determinant-conditioning gate on both sides of
its closed-form bounds: ``borchardt_batch([n], 20, s)`` and
``random_cauchy_pair(n, default_rng(s)).conditioning_flags`` for n = 2..16
and s = 0..2, each at gates 19, 1e3, 1e5 and 1e8.
A ``draws`` set runs the Borchardt chunk drawer ``_draw_pairs`` on chunks of
64 and 7 draws of mixed sizes n = 1..20 and of 64 draws of one size, seeds
0..5, at pole moduli in [1.1, 10], in [1.5, 1.6], where poles crowd and
are redrawn mid-chunk, and all 2, where draws run out of attempts; each
with the generator's next double.
A ``polish`` set runs the root polish of ``solve_t_equals`` and
``alternance_points_weighted`` on the paper sweep's grid, n = 4..64 and
a = 2, 3, 5, and on 48 seeded inputs with n = 4..200 and c = +-1/T_n(a) within
1e-8 to 1e-1 of +-1, each at residual gates from the default down to 0,
which some roots fail.  The second Newton step moves roots at 35 of these c
and at 36 of their negations, which the paper's grid never does.
A float is fingerprinted as ``float.hex`` and an array as the SHA-256 of its bytes, so
two fingerprints match only if every bit does; a dataclass is keyed by its
field names.  Prints each set's op count and its first mismatching op.  On
a mismatch it also lists, over all mismatching ops of the set, the
dataclass fields that differ and those that only one side has, each with
its op count.  Exits 1 on any mismatch, a field on one side only included.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

PASSES = {"weighted-perturb": 6, "paper-sweep": 3, "solver-zoo": 4, "identity-batch": 6}
PROBE_N = (2, 3, 4, 6, 8)
# probe degrees of the weighted and the fixed-pole solves
PROBE_N_OPTS = (2, 3, 4)
# (n, a) of the closed-form steps, up to where the double-double f(a) of
# earlier versions overflowed
CLOSED_FORM_CASES = ((128, 10.0), (232, 10.0), (256, 3.0), (395, 3.0))
# poles of the hypothesis cases: two 1e-12 apart, a pair inside the unit
# disk, both faults, and none
HYPOTHESIS_POLES = {
    "close": (2.0, 2.0 + 1e-12, -3.0),
    "inside": (complex(0.3, 0.5), complex(0.3, -0.5), -3.0),
    "both": (2.0, 2.0 + 1e-12, complex(0.3, 0.5), complex(0.3, -0.5), -3.0),
    "clean": (2.0, -2.0),
}

# det_condition_gate values of the flags set: from one that flags nearly
# every draw to one that flags nearly none
FLAG_GATES = (19.0, 1e3, 1e5, 1e8)

# pole modulus ranges of the draws set: the default, one where pole sets
# crowd and are redrawn mid-chunk, and one where draws are spent
DRAW_MODULI = ((1.1, 10.0), (1.5, 1.6), (2.0, 2.0))

# the paper sweep's grid, and the residual gates of the polish set: the
# default and three that some roots fail, so that their residuals and
# bounds reach the error messages
PAPER_GRID = tuple((n, a) for n in (4, 6, 8, 12, 16, 24, 32, 48, 64) for a in (2.0, 3.0, 5.0))
POLISH_TOLS = (1e-13, 1e-16, 3e-17, 0.0)

# degrees of the kernel set's generic fractions: their scan grids hold more
# terms than one block of the pole-sum kernel
KERNEL_N = (48, 64, 128, 256)


def generic_poles(n: int) -> tuple[complex, ...]:
    """n poles, n even, drawn from default_rng([n, 11]): two reals of
    modulus 1.05 to 3, the rest conjugate pairs with centres in [-1.5, 1.5]
    and imaginary parts 0.05 to 1."""
    import numpy as np

    rng = np.random.default_rng([n, 11])
    poles = [complex(s * m) for s, m in zip(rng.choice([-1.0, 1.0], 2), rng.uniform(1.05, 3.0, 2))]
    for u, v in zip(rng.uniform(-1.5, 1.5, n // 2 - 1), rng.uniform(0.05, 1.0, n // 2 - 1)):
        poles += [complex(u, v), complex(u, -v)]
    return tuple(poles)


def fingerprint(v):
    """A JSON-able value that equals another's only if the two are equal bit for bit."""
    import numpy as np

    if v is None or isinstance(v, (bool, int, str, enum.Enum)):
        return repr(v)
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, complex):
        return [v.real.hex(), v.imag.hex()]
    if isinstance(v, np.generic):
        return fingerprint(v.item())
    if isinstance(v, np.ndarray):
        if v.dtype == object:
            return fingerprint(v.tolist())
        digest = hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
        return f"{v.dtype}{v.shape}:{digest}"
    if isinstance(v, BaseException):
        return [type(v).__name__, str(v), fingerprint(getattr(v, "best", None))]
    if dataclasses.is_dataclass(v):
        return {"dataclass": type(v).__name__,
                "fields": {f.name: fingerprint(getattr(v, f.name)) for f in dataclasses.fields(v)}}
    if isinstance(v, (list, tuple)):
        return [type(v).__name__] + [fingerprint(x) for x in v]
    if isinstance(v, dict):
        return [[fingerprint(k), fingerprint(x)] for k, x in v.items()]
    if callable(v):
        return f"callable:{type(v).__name__}"
    raise TypeError(f"cannot fingerprint {type(v).__name__}")


def differences(b, c, path: str):
    """(path, what) for each place where fingerprints ``b`` and ``c`` differ:
    a dataclass field on one side only, or the innermost dataclass field,
    list item or value whose fingerprints are not equal."""
    if b == c:
        return
    if isinstance(b, dict) and isinstance(c, dict) and b["dataclass"] == c["dataclass"]:
        fb, fc = b["fields"], c["fields"]
        for name in dict.fromkeys([*fb, *fc]):
            where = f"{path}{b['dataclass']}.{name}"
            if name not in fc:
                yield where, "base only"
            elif name not in fb:
                yield where, "change only"
            else:
                yield from differences(fb[name], fc[name], where + " ")
    elif isinstance(b, list) and isinstance(c, list) and len(b) == len(c):
        for i, (x, y) in enumerate(zip(b, c)):
            yield from differences(x, y, f"{path}[{i}] ")
    else:
        yield path.rstrip(), "differs"


def fingerprints(steps) -> dict:
    """{step: fingerprint} of a workloads.Steps, its exceptions included."""
    out = {step: fingerprint(v) for step, v in steps.out.items()}
    for step, exc in steps.errors:
        out[step] = fingerprint(exc)
    return out


def dump(checkout: Path, seeds: list[int]) -> dict:
    """Fingerprints of one checkout, by set: a list of (op label, {step: fingerprint})."""
    sys.path[:0] = [str(checkout / "perfbench"), str(checkout / "src")]
    import numpy as np

    import simplefrac
    import simplefrac.bernstein as bern
    import simplefrac.cauchy as cy
    import simplefrac.cheb as cheb
    import simplefrac.extremal as ext
    import simplefrac.minimax as mx
    import workloads

    if Path(simplefrac.__file__).resolve().parent != (checkout / "src" / "simplefrac").resolve():
        raise SystemExit(f"imported simplefrac from {simplefrac.__file__}, not {checkout}")
    sets = {}
    for name, passes in PASSES.items():
        ops = []
        for seed in seeds:
            wl = workloads.build(name, seed)
            for p in range(passes):
                for op in wl.ops(p):
                    steps = workloads.Steps()
                    op.call(steps)
                    ops.append((f"seed={seed} pass={p} {op.key}", fingerprints(steps)))
        sets[name] = ops
    targets = {"abs": np.abs, "exp": np.exp, "cos5x": lambda x: np.cos(5.0 * x),
               "sqrt1px": lambda x: np.sqrt(1.0 + x)}
    cases = [(label, fn, n, "") for label, fn in targets.items() for n in PROBE_N]
    cases += [(label, fn, n, opts) for opts in ("weighted", "fixed_pole")
              for label, fn in targets.items() for n in PROBE_N_OPTS]
    options = {"": mx.ApproxOptions(), "weighted": mx.ApproxOptions(weighted=True),
               "fixed_pole": mx.ApproxOptions(fixed_pole=3.0)}
    probe = []
    for label, fn, n, opts in cases:
        steps = workloads.Steps()
        steps.run("solve", mx.solve_best_ld, mx.TargetFunction(fn, label), n, options[opts])
        probe.append((f"{label},n={n}" + (f",{opts}" if opts else ""), fingerprints(steps)))
    sets["probe"] = probe
    closed = []
    for n, a in CLOSED_FORM_CASES:
        cls, steps = ext.FixedPoleClass(n, a), workloads.Steps()
        steps.run("fa", lambda: cls.fa)
        steps.run("candidate", ext.build_candidate_unweighted, cls)
        steps.run("lambda_bounds", ext.lambda_bounds, cls)
        steps.run("dvp_bracket", ext.dvp_bracket, cls)
        steps.run("witness2", bern.witness_ratio_empirical, n, a, 2)
        steps.run("alternance", ext.alternance_points_weighted, cls)
        poly = bern.random_rooted_polynomial(n, a, np.random.default_rng([n, int(a)]))
        steps.run("corollary", bern.check_corollary, poly)
        closed.append((f"n={n},a={a}", fingerprints(steps)))
    sets["closed_forms"] = closed
    hypotheses = []
    f_abs = mx.TargetFunction(np.abs, "abs")
    for label, poles in HYPOTHESIS_POLES.items():
        rho, steps = ext.LogDerivative(poles), workloads.Steps()
        steps.run("certify", mx.certify_optimality, f_abs, rho)
        steps.run("dvp_lower", mx.dvp_lower_bound, f_abs, rho, free=True)
        hypotheses.append((f"abs,{label}", fingerprints(steps)))
    # with all moduli 2 the n = 3 poles collide: seeds 0 and 2 run out of redraws
    draws = [(3, s, 2.0, 2.0) for s in range(4)]
    draws += [(n, s, 1.1, 10.0) for n in (17, 20) for s in (0, 1)]
    for n, s, lo, hi in draws:
        steps = workloads.Steps()
        steps.run("pair", cy.random_cauchy_pair, n, np.random.default_rng(s), lo, hi)
        hypotheses.append((f"pair,n={n},seed={s},moduli=[{lo},{hi}]", fingerprints(steps)))
    sets["hypotheses"] = hypotheses
    kernel = []
    for n in KERNEL_N:
        rho, steps = ext.LogDerivative(generic_poles(n)), workloads.Steps()
        steps.run("values_on", rho.values_on, ext._norm_grid(n, ext.DEFAULTS))
        steps.run("sup_norm", ext.sup_norm, rho)
        steps.run("weighted_sup_norm", ext.weighted_sup_norm, rho)
        kernel.append((f"generic,n={n}", fingerprints(steps)))
    steps = workloads.Steps()
    steps.run("solve", mx.solve_best_ld, f_abs, 10, mx.ApproxOptions(starts=8))
    kernel.append(("abs,n=10,starts=8", fingerprints(steps)))
    sets["kernel"] = kernel
    flags = []
    for gate in FLAG_GATES:
        cfg = dataclasses.replace(cy.DEFAULTS, det_condition_gate=gate)
        for n in range(2, 17):
            for s in range(3):
                steps = workloads.Steps()
                steps.run("batch", cy.borchardt_batch, [n], 20, s, cfg=cfg)
                pair = cy.random_cauchy_pair(n, np.random.default_rng(s))
                steps.run("pair_flags", pair.conditioning_flags, cfg)
                flags.append((f"gate={gate},n={n},seed={s}", fingerprints(steps)))
    sets["flags"] = flags
    draws = []
    for lo, hi in DRAW_MODULI:
        for s in range(6):
            sizes = np.random.default_rng([s, 17]).integers(1, 21, 64).tolist()
            for label, ns in (("mixed", sizes), ("mixed7", sizes[:7]), ("one", [sizes[0]] * 64)):
                rng, steps = np.random.default_rng(s), workloads.Steps()
                steps.run("chunk", cy._draw_pairs, ns, rng, lo, hi)
                steps.run("next", rng.random)
                draws.append((f"{label},moduli=[{lo},{hi}],seed={s}", fingerprints(steps)))
    sets["draws"] = draws
    polish = []
    rng = np.random.default_rng(5)
    near = []
    for _ in range(48):
        # a with T_n(a) = 1/(1 - d), so that c = 1/T_n(a) is about 1 - d
        n, d = int(rng.integers(4, 201)), float(10.0 ** rng.uniform(-8.0, -1.0))
        near.append((n, math.cosh(math.acosh(1.0 / (1.0 - d)) / n)))
    for n, a in PAPER_GRID + tuple(near):
        cls, steps = ext.FixedPoleClass(n, a), workloads.Steps()
        c = 1.0 / cls.tn
        for tol in POLISH_TOLS:
            cfg = dataclasses.replace(ext.DEFAULTS, solve_t_residual_tol=tol)
            steps.run(f"solve,tol={tol}", cheb.solve_t_equals, n, c, cfg=cfg)
            steps.run(f"solve_negated,tol={tol}", cheb.solve_t_equals, n, -c, cfg=cfg)
        steps.run("alternance", ext.alternance_points_weighted, cls)
        polish.append((f"n={n},a={a!r}", fingerprints(steps)))
    sets["polish"] = polish
    return sets


def run_checkout(checkout: Path, seeds: list[int]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump", str(checkout),
           "--seeds", *map(str, seeds)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 7])
    ap.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump is not None:
        json.dump(dump(args.dump.resolve(), args.seeds), sys.stdout)
        return 0
    if args.base is None or args.change is None:
        ap.error("--base and --change are required")
    base = run_checkout(args.base.resolve(), args.seeds)
    change = run_checkout(args.change.resolve(), args.seeds)
    mismatched = False
    for name in base:
        b, c = base[name], change.get(name, [])
        first = next((i for i, (x, y) in enumerate(zip(b, c)) if x != y), None)
        if first is None and len(b) == len(c):
            print(f"{name}: {len(b)} ops, all equal")
            continue
        mismatched = True
        if first is None:
            print(f"{name}: {len(b)} ops in base, {len(c)} in change")
            continue
        (label, bo), (_, co) = b[first], c[first]
        steps = [s for s in dict.fromkeys([*bo, *co]) if bo.get(s) != co.get(s)]
        print(f"{name}: {len(b)} ops, first mismatch at op {first} ({label}), steps {steps}")
        found: dict[tuple[str, str], int] = {}
        for (_, bo), (_, co) in zip(b, c):
            where = set()
            for step in dict.fromkeys([*bo, *co]):
                if step not in co:
                    where.add((step, "base only"))
                elif step not in bo:
                    where.add((step, "change only"))
                else:
                    where.update(differences(bo[step], co[step], f"{step}: "))
            for key in sorted(where):
                found[key] = found.get(key, 0) + 1
        for (where, what), count in found.items():
            print(f"  {where}: {what} in {count} ops")
    return 1 if mismatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
