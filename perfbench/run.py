#!/usr/bin/env python3
"""simplefrac benchmark: four workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke [--trace 1]

Run from the repository root; the package is imported from ./src.  One
process, one thread: BLAS and OpenMP pools are pinned to one thread before
numpy loads.  The inputs come from --seed.  The timed loop runs whole rounds
of whole passes over the workload's items until --seconds is spent (at least
one round); every round holds the same number of ops, so the tail
percentile is the same order statistic in every run, and a metric is the
median over rounds.  Op times are rescaled to a reference host
speed measured next to the ops (see host_speed).  Every op's outputs are
checked by an oracle outside the timed region.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run (spans around each layer's public calls, see tracer.py).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  correct is false when an op fails in a way
that is not one of the known defects listed with its workload; known defects
still count in failed.  --smoke runs one pass at the smallest sizes, with
every check and no timing gate.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("weighted-perturb", "paper-sweep", "solver-zoo", "identity-batch")
SETUP_PROBES = 3
COLD_REPEATS = 3
# Host speed: the shared host's speed drifts by tens of percent over tens of
# seconds, so op times are rescaled to a reference speed measured by a fixed
# benchmark-owned kernel run every CALIBRATE_EVERY seconds next to the ops.
# REF_SPEED is that kernel's rate, in repetitions per second, on the host the
# bounds were set on; a time reported as t ms means t ms at that speed.
REF_SPEED = 2000.0
CALIBRATE_EVERY = 0.1

# tiny inputs for the cold-start wall time of each CLI subcommand
CLI_COLD = {
    "extremal": ["--n", "2", "--a", "2", "--weighted", "--format", "json"],
    "candidate": ["--n", "4", "--a", "3", "--format", "json"],
    "bernstein": ["--n", "5", "--a", "3", "--seed", "1", "--format", "json"],
    "sample": ["--what", "extremal-weighted", "--n", "2", "--a", "2", "--grid", "101",
               "--out", "{tmp}/rho.csv", "--format", "json"],
    "approx": ["--target", "ldcheb:2,-2:1e-3:3", "--n", "2", "--starts", "2", "--format", "json"],
    "borchardt": ["--nodes", "0,0.5", "--poles", "2,-2", "--format", "json"],
    "komarov": ["--p-poles", "2,-2", "--q-poles", "3", "--format", "json"],
}


@dataclass
class Record:
    key: str
    pass_index: int
    seconds: float
    failures: list = field(default_factory=list)  # (step, kind, detail, known)
    warnings: int = 0
    out: dict = field(default_factory=dict)
    speed: float = REF_SPEED

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.speed / REF_SPEED

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(op, workload, pass_index, tracer=None) -> Record:
    from workloads import Steps
    from simplefrac.errors import SimplefracError

    steps = Steps()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        op.call(steps)
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    rec = Record(op.key, pass_index, dt,
                 warnings=sum(issubclass(w.category, RuntimeWarning) for w in caught))
    found = []
    for step, exc in steps.errors:
        kind = "simplefrac" if isinstance(exc, SimplefracError) else "raw"
        found.append((step, kind, type(exc).__name__))
    try:
        for name in op.check({k: v for k, v in steps.out.items() if v is not None}):
            step, detail = name.split(":", 1)
            found.append((step, "check", detail))
    except Exception as exc:  # a crashing oracle is an unexpected failure
        found.append(("oracle", "check", f"oracle-error:{type(exc).__name__}:{exc}"))
    rec.failures = [(s, k, d, (s, d) in workload.known_defects) for s, k, d in found]
    rec.out = steps.out
    return rec


_KERNEL_X = None


def host_speed(reps: int = 20) -> float:
    """Repetitions per second of a fixed kernel that mixes interpreter work
    and small numpy calls, as the workloads do (about 10 ms)."""
    global _KERNEL_X
    import numpy as np

    if _KERNEL_X is None:
        _KERNEL_X = np.linspace(-1.0, 1.0, 512)
    t0 = perf_counter()
    for _ in range(reps):
        acc = 0.0
        for i in range(40):
            acc += float(np.sum(1.0 / (_KERNEL_X - 2.5 - 1e-3 * i)))
            for j in range(100):
                acc += j * 0.5
    return reps / (perf_counter() - t0)


def measure(workload, seconds, tracer=None, smoke=False):
    """Whole rounds of whole passes until the time budget is spent; another
    round starts only if it should end within the budget.  Each op takes the mean host speed of the calibrations around it."""
    rounds, start, pass_index = [], perf_counter(), 0
    speed, cal_t, pending = host_speed(), perf_counter(), []
    while True:
        recs = []
        for _ in range(workload.passes_per_round):
            for op in workload.ops(pass_index):
                rec = run_op(op, workload, pass_index, tracer)
                recs.append(rec)
                pending.append(rec)
                if perf_counter() - cal_t >= CALIBRATE_EVERY:
                    speed, pending = _settle(pending, speed), []
                    cal_t = perf_counter()
            pass_index += 1
        rounds.append(recs)
        elapsed = perf_counter() - start
        if smoke or elapsed + elapsed / len(rounds) > seconds:
            _settle(pending, speed)
            return rounds, pass_index


def _settle(pending, speed_before) -> float:
    speed_after = host_speed()
    for rec in pending:
        rec.speed = 0.5 * (speed_before + speed_after)
    return speed_after


def tail(latencies):
    """The latency with exactly ten samples above it, and its percentile."""
    s = sorted(latencies)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def round_stats(recs):
    lat = [r.ref_seconds for r in recs]
    ok = sum(not r.failed for r in recs)
    busy = sum(lat)
    t, pct = tail(lat)
    return {"ops_per_s": ok / busy, "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * t, "tail_pct": pct, "n": len(lat)}


def solver_quality(recs):
    solves = [r.out["solve"] for r in recs if r.out.get("solve") is not None]
    if not solves:
        return 0.0, 0.0, 0
    return (sum(s.certified for s in solves) / len(solves),
            statistics.median(s.gap for s in solves), len(solves))


def replay_check(workload, records) -> list[str]:
    """Same inputs, same answer.  A workload with a fingerprint repeats its
    inputs every round, so later rounds are compared with the first; after a
    single round, pass 0 is replayed untimed."""
    if workload.fingerprint is None:
        return []
    stride = sum(r.pass_index < workload.passes_per_round for r in records)
    pairs = list(zip(records, records[stride:]))
    if not pairs:
        pairs = [(rec, run_op(op, workload, 0)) for op, rec in zip(workload.ops(0), records)]

    def same(a, b):
        return (workload.fingerprint(a.out) == workload.fingerprint(b.out)
                and [f[:3] for f in a.failures] == [f[:3] for f in b.failures])

    return sorted({a.key for a, b in pairs if not same(a, b)})


def timed_subprocess(cmd, cwd=ROOT) -> float:
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return dt


def setup_seconds(args, probes) -> float:
    """Median wall time of fresh interpreters, at the reference host speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    before = host_speed()
    wall = statistics.median(timed_subprocess(cmd) for _ in range(probes))
    return wall * 0.5 * (before + host_speed()) / REF_SPEED


def import_times(repeats) -> dict[str, float]:
    """Self import time by owner package, from -X importtime."""
    per = {"numpy": [], "scipy": [], "simplefrac": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import simplefrac"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import simplefrac failed: {proc.stderr[-400:]}")
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            parts = line.split("|")
            self_us, name = int(parts[0].split(":")[1]), parts[2][1:]
            rows.append((len(name) - len(name.lstrip()), name.strip(), self_us))
        # lines come children first; walking backwards meets each parent first
        sums = dict.fromkeys(per, 0)
        stack: list[tuple[int, str | None]] = []
        for level, name, self_us in reversed(rows):
            while stack and stack[-1][0] >= level:
                stack.pop()
            top = name.split(".")[0]
            owner = top if top in per else (stack[-1][1] if stack else None)
            stack.append((level, owner))
            if owner:
                sums[owner] += self_us
        for key in per:
            per[key].append(sums[key] / 1e6)
    return {key: statistics.median(v) for key, v in per.items()}


def cli_cold(repeats) -> dict[str, float]:
    tmp = ROOT / ".perfbench-tmp"
    tmp.mkdir(exist_ok=True)
    try:
        out = {}
        for sub, argv in CLI_COLD.items():
            cmd = [sys.executable, "-m", "simplefrac", sub] + [a.format(tmp=tmp) for a in argv]
            out[sub] = statistics.median(timed_subprocess(cmd) for _ in range(repeats))
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def environment() -> str:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__} "
            f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} blas_threads=1")


def failure_lines(records, known_defects) -> list[str]:
    tally: dict[tuple, int] = {}
    for r in records:
        for step, kind, detail, known in r.failures:
            key = (r.key, step, kind, detail, known)
            tally[key] = tally.get(key, 0) + 1
    lines = [f"#   {'known' if k[4] else 'NEW  '} {k[2]:10s} {k[0]} {k[1]}:{k[3]} x{n}"
             for k, n in sorted(tally.items())]
    seen = {(k[1], k[3]) for k in tally if k[4]}
    return lines + [f"#   known {step}:{detail}: {known_defects[step, detail]}" for step, detail in sorted(seen)]


def kind_counts(records):
    raw = sum(any(f[1] == "raw" for f in r.failures) for r in records)
    sfe = sum(any(f[1] == "simplefrac" for f in r.failures) for r in records)
    chk = sum(any(f[1] == "check" for f in r.failures) for r in records)
    return raw, sfe, chk, sum(r.warnings for r in records)


def per_layer(tracer, records, workload, passes, overhead, imports, cold) -> dict:
    c, cnt = tracer.calls, tracer.counts
    per = 1.0 / passes
    # span times at the reference host speed, like the end-to-end times
    busy = sum(r.seconds for r in records)
    scale = sum(r.ref_seconds for r in records) / busy if busy else 1.0

    def t(name):
        return tracer.total[name] * per * scale

    sup = c["optim.supnorm"]
    solver = records if workload.name == "solver-zoo" else []
    raw, sfe, chk, warn = kind_counts(records)
    certified, gap, _ = solver_quality(records)
    m = {
        "cheb.eval_cheb_calls": c["cheb.eval_cheb"] * per,
        "cheb.eval_cheb_s": t("cheb.eval_cheb"),
        "cheb.vec_points": cnt["cheb.vec_points"] * per,
        "cheb.vec_s": t("cheb.vec"),
        "cheb.solve_t_s": t("cheb.solve_t"),
        "extremal.values_on_calls": c["extremal.values_on"] * per,
        "extremal.values_on_points": cnt["extremal.values_on_points"] * per,
        "extremal.pole_point_terms": cnt["extremal.pole_point_terms"] * per,
        "extremal.values_on_s": t("extremal.values_on"),
        "extremal.eval_ld_calls": c["extremal.eval_ld"] * per,
        "extremal.eval_ld_s": t("extremal.eval_ld"),
        "extremal.candidate_s": t("extremal.candidate"),
        "extremal.bracket_s": t("extremal.bracket"),
        "extremal.bracket_inverted": sum(any(f[:3] == ("bracket", "check", "inverted") for f in r.failures)
                                         for r in records) * per,
        "extremal.candidate_gate_failed": sum(any(f[:3] == ("candidate", "simplefrac", "ToleranceNotMetError")
                                                  for f in r.failures) for r in records) * per,
        "optim.supnorm_calls": sup * per,
        "optim.supnorm_s": t("optim.supnorm"),
        "optim.supnorm_self_s": tracer.self_s("optim.supnorm") * per * scale,
        "optim.fn_calls_per_supnorm": c["optim.supnorm_fn"] / sup if sup else 0.0,
        "optim.points_per_supnorm": cnt["optim.fn_points"] / sup if sup else 0.0,
        "optim.local_extrema_s": t("optim.local_extrema"),
        "minimax.solve_s": t("minimax.solve"),
        "minimax.target_calls": c["minimax.target"] * per,
        "minimax.target_points": cnt["minimax.target_points"] * per,
        "minimax.target_s": t("minimax.target"),
        "minimax.alternance_s": t("minimax.alternance"),
        "minimax.certify_s": t("minimax.certify"),
        "minimax.dvp_lower_s": t("minimax.dvp_lower"),
        "minimax.starts_discarded": sum(sum("discarded" in d for d in r.out["solve"].diagnostics)
                                        for r in solver if r.out.get("solve")) * per,
        "minimax.raw_exceptions": (raw if solver else 0) * per,
        "minimax.simplefrac_errors": (sfe if solver else 0) * per,
        "minimax.runtime_warnings": (warn if solver else 0) * per,
        "cauchy.ryser_calls": c["cauchy.ryser"] * per,
        "cauchy.ryser_s": t("cauchy.ryser"),
        "cauchy.ryser_terms": cnt["cauchy.ryser_terms"] * per,
        "cauchy.batch_s": t("cauchy.batch"),
        "cauchy.flags_s": t("cauchy.flags"),
        "cauchy.komarov_s": t("cauchy.komarov"),
        "bernstein.corollary_s": t("bernstein.corollary"),
        "bernstein.witness_s": t("bernstein.witness"),
        "targets.spline_s": t("targets.spline"),
        "import.numpy_s": imports["numpy"],
        "import.scipy_s": imports["scipy"],
        "import.simplefrac_self_s": imports["simplefrac"],
    }
    draws = checked = 0
    for n in range(1, 11):
        batches = [r.out["batch"] for r in records if r.key == f"batch,n={n}" and r.out.get("batch")]
        d, k = sum(b.draws for b in batches), sum(b.checked for b in batches)
        draws, checked = draws + d, checked + k
        m[f"cauchy.useful_ratio_n{n}"] = k / d if d else 0.0
    m["cauchy.batch_draws"] = draws * per
    m["cauchy.batch_checked"] = checked * per
    m["cauchy.useful_ratio"] = checked / draws if draws else 0.0
    for sub in CLI_COLD:
        m[f"cli.{sub}_cold_s"] = cold[sub]
    m["trace.overhead_frac"] = overhead
    m["trace.accounted_frac"] = tracer.root_s / busy if busy else 0.0
    m["failed_frac"] = sum(r.failed for r in records) / len(records)
    m["certified_frac"] = certified
    m["gap_p50"] = gap
    m["ops.raw_exceptions"] = raw * per
    m["ops.simplefrac_errors"] = sfe * per
    m["ops.runtime_warnings"] = warn * per
    m["ops.check_failed"] = chk * per
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one pass at the smallest sizes")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "simplefrac" / "__init__.py").is_file():
        print(f"error: no simplefrac package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import simplefrac
    if Path(simplefrac.__file__).resolve().parent != (SRC / "simplefrac").resolve():
        print(f"error: imported simplefrac from {simplefrac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import TargetWrap, Tracer, install

    if args.setup_probe:
        wl = workloads.build(args.workload, args.seed, args.smoke)
        run_op(wl.ops(0)[0], wl, 0)
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
        wl = workloads.build(args.workload, args.seed, args.smoke, wrap=TargetWrap(tracer))
    else:
        setup_s = setup_seconds(args, 1 if args.smoke else SETUP_PROBES)
        wl = workloads.build(args.workload, args.seed, args.smoke)

    run_op(wl.ops(0)[0], wl, 0)  # warm-up, not counted
    base_s = 0.0
    if tracer is not None:  # pass 0 untraced, to compare with pass 0 traced
        before = host_speed()
        base_s = sum(run_op(op, wl, 0).seconds for op in wl.ops(0))
        base_s *= 0.5 * (before + host_speed()) / REF_SPEED
    rounds, passes = measure(wl, args.seconds, tracer, args.smoke)
    records = [r for rec in rounds for r in rec]
    replay_bad = replay_check(wl, records)

    attempted = len(records)
    failed = sum(r.failed for r in records)
    unknown = [f for r in records for f in r.failures if not f[3]]
    raw, sfe, chk, warn = kind_counts(records)
    print(f"# env {environment()}")
    print(f"# workload {wl.name} seed {args.seed} trace {args.trace}: {len(rounds)} round(s) of "
          f"{wl.passes_per_round} pass(es), {attempted} ops, {sum(r.seconds for r in records):.2f} s in ops "
          f"at host speed {statistics.median(r.speed for r in records):.0f} (reference {REF_SPEED:.0f}); "
          f"unscaled {(attempted - failed) / sum(r.seconds for r in records):.4g} ok ops/s")
    print(f"# failed ops {failed}/{attempted}: raw exceptions {raw}, SimplefracError {sfe}, "
          f"check failures {chk}; RuntimeWarnings {warn}")
    for line in failure_lines(records, wl.known_defects):
        print(line)
    by_item: dict[str, list[float]] = {}
    for r in records:
        by_item.setdefault(r.key, []).append(r.seconds)
    print("# item median ms: " + ", ".join(f"{k} {1e3 * statistics.median(v):.3g}" for k, v in by_item.items()))
    if replay_bad:
        print(f"# NEW same-seed replay differs: {', '.join(replay_bad)}")

    if tracer is None:
        stats = [round_stats(rec) for rec in rounds]
        med = {k: statistics.median(s[k] for s in stats) for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")}
        n_round = stats[0]["n"]
        metrics = {
            "setup_s": (setup_s, "s", f"median of {1 if args.smoke else SETUP_PROBES} fresh interpreters"),
            "ops_per_s": (med["ops_per_s"], "ops/s", f"{attempted - failed} ok of {attempted}"),
            "op_p50_ms": (med["op_p50_ms"], "ms", f"median over rounds of {n_round} ops"),
            "op_tail_ms": (med["op_tail_ms"], "ms",
                           f"p{stats[0]['tail_pct']:.1f}, 10 samples beyond it, of {n_round} ops per round"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss"),
        }
        certified, gap, solves = solver_quality(records)
        extra = [f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})"]
        if wl.name == "solver-zoo":
            extra += [f"certified_frac {certified:.4f} of {solves} solves returned",
                      f"gap_p50 {gap:.4g} over {solves} solves returned"]
        for name, (value, unit, note) in metrics.items():
            print(f"{name:14s} {value:12.6g} {unit:6s} ({note})")
        for line in extra:
            print(line)
        out = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    else:
        traced0 = sum(r.ref_seconds for r in records if r.pass_index == 0)
        overhead = traced0 / base_s - 1.0 if base_s else 0.0
        reps = 1 if args.smoke else COLD_REPEATS
        imports, cold = import_times(reps), cli_cold(reps)
        layer = per_layer(tracer, records, wl, passes, overhead, imports, cold)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        unit_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in layer.items():
            print(f"{name:32s} {value:14.6g} {unit_of[name]}")
        out = {name: {"value": value, "unit": unit_of[name]} for name, value in layer.items()}

    correct = not unknown and not replay_bad
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
