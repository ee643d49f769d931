"""Approximation solver, alternance detection, certificates, lower bounds."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplefrac import _optim, extremal, minimax
from simplefrac.cheb import cheb_t
from simplefrac.config import DEFAULTS
from simplefrac.errors import DomainError, EvaluationError, SimplefracError
from simplefrac.extremal import (
    FixedPoleClass,
    LogDerivative,
    alternance_points_weighted,
    build_candidate_unweighted,
    build_extremal_weighted,
    dvp_bracket,
    extremal_weighted_norm,
    lambda_bounds,
)
from simplefrac.minimax import (
    ApproxOptions,
    TargetFunction,
    _cheb_poles,
    _coef_from_poles,
    _rho_from_coef,
    certify_optimality,
    dvp_lower_bound,
    residual_alternance,
    solve_best_ld,
)
from simplefrac.targets import SampledFunction, parse_pole_list, parse_target

ZERO = TargetFunction(evaluator=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                      description="zero")


def ld_target(*poles):
    rho = LogDerivative(tuple(poles))
    return TargetFunction(evaluator=rho.values_on, description="ld")


# ------------------------------------------------------------- alternance

def test_alternance_monotone_residual():
    # f = x against 1/(x-2): residual strictly increasing, extrema at the ends
    rep = residual_alternance(TargetFunction(lambda x: np.asarray(x, float), "x"),
                              LogDerivative((2.0,)), min_points=2)
    assert rep.sign_pattern_ok
    assert rep.points == pytest.approx([-1.0, 1.0])
    assert rep.values[0] == pytest.approx(-1.0 + 1.0 / 3.0, abs=1e-12)
    assert rep.values[1] == pytest.approx(2.0, abs=1e-12)


def test_alternance_degenerate_zero_residual():
    rho = LogDerivative((2.0, -2.0))
    rep = residual_alternance(ld_target(2.0, -2.0), rho, min_points=1)
    assert rep.points == ()
    assert not rep.sign_pattern_ok


def test_alternance_weighted_matches_closed_form():
    # weighted residual of f = 0 against the weighted minimizer: n points
    cls = FixedPoleClass(2, 2.0)
    rho = build_extremal_weighted(cls)
    rep = residual_alternance(ZERO, rho, min_points=2, weighted=True)
    closed, _ = alternance_points_weighted(cls)
    assert rep.sign_pattern_ok
    assert len(rep.points) == 2
    assert sorted(abs(p) for p in rep.points) == pytest.approx(
        [abs(p) for p in closed.points], abs=1e-6
    )
    assert rep.level == pytest.approx(extremal_weighted_norm(cls), rel=1e-9)


def test_alternance_pole_on_segment():
    with pytest.raises(DomainError):
        residual_alternance(ZERO, LogDerivative((0.25,)), min_points=1)


# ------------------------------------------------------------- lower bound

def test_dvp_candidate_within_lambda_bracket():
    cls = FixedPoleClass(4, 3.0)
    cand = build_candidate_unweighted(cls)
    lb = lambda_bounds(cls)
    bound = dvp_lower_bound(ZERO, cand)
    assert lb.lower <= bound <= lb.upper


def test_dvp_weighted_equioscillation_exact():
    # all alternating magnitudes equal the closed-form level
    cls = FixedPoleClass(3, 2.0)
    rho = build_extremal_weighted(cls)
    bound = dvp_lower_bound(ZERO, rho, weighted=True)
    assert bound == pytest.approx(extremal_weighted_norm(cls), rel=1e-9)


def test_dvp_requires_alternation():
    # both poles to the right: residual -rho keeps one sign on [-1, 1]
    rho = LogDerivative((2.0, 3.0))
    with pytest.raises(DomainError):
        dvp_lower_bound(ZERO, rho)


def test_dvp_free_poles_need_n_plus_1_points():
    # the best degree-6 deviation of f = rho* + 1e-3 T_6 is 1e-3, yet f - rho
    # alternates 6 times above it: 6 values do not bound the free problem
    star = "(1.7551651237807455+0.958851077208406j),(1.7551651237807455-0.958851077208406j)," \
           "(1.0806046117362795+1.682941969615793j),(1.0806046117362795-1.682941969615793j)," \
           "(1.6209069176044193+2.5244129544236893j),(1.6209069176044193-2.5244129544236893j)"
    f = parse_target(f"ldcheb:{star}:1e-3:6")
    rho = LogDerivative((0.7957331470656419 - 3.262980454724443j, 0.7957331470656419 + 3.262980454724443j,
                         0.91430251667373 - 1.4531621928018927j, 0.91430251667373 + 1.4531621928018927j,
                         1.647083212564056 - 0.7245835863663531j, 1.647083212564056 + 0.7245835863663531j))
    assert dvp_lower_bound(f, rho) > 1.1e-3
    with pytest.raises(DomainError, match="need 7"):
        dvp_lower_bound(f, rho, free=True)
    assert dvp_lower_bound(f, LogDerivative(parse_pole_list(star)),
                           free=True) == pytest.approx(1e-3, rel=1e-9)


def test_dvp_requires_pole_hypotheses():
    with pytest.raises(DomainError):
        dvp_lower_bound(ZERO, LogDerivative((2.0, 2.0 + 1e-12)))


# ------------------------------------------------------------- certificate

def test_certificate_trivial_cases():
    target = TargetFunction(
        lambda x: LogDerivative((2.0, -2.0)).values_on(x) + 1e-3 * cheb_t(3, x),
        "perturbed",
    )
    rho = LogDerivative((2.0, -2.0))
    rep = certify_optimality(target, rho)
    assert rep.certified and rep.reasons == ()

    close = certify_optimality(ZERO, LogDerivative((1.05, 1.05 + 1e-13)))
    assert not close.certified
    assert any("pairwise distinct" in r for r in close.reasons)

    inside = certify_optimality(ZERO, LogDerivative((0.5,)))
    assert not inside.certified
    assert any("|z_k|" in r for r in inside.reasons)


def test_certificate_unit_modulus_is_failure():
    rep = certify_optimality(ZERO, LogDerivative((1.0,)))
    assert not rep.certified
    assert any("|z_k|" in r for r in rep.reasons)


# ------------------------------------------------------------- solver

def test_solver_recovers_representable_target():
    res = solve_best_ld(ld_target(2.0, -2.0), 2, ApproxOptions(starts=6, seed=1))
    assert res.error <= 1e-8
    got = sorted(z.real for z in res.rho.poles)
    assert got == pytest.approx([-2.0, 2.0], abs=1e-6)


def test_solver_perturbed_target_certified():
    target = TargetFunction(
        lambda x: LogDerivative((2.0, -2.0)).values_on(x) + 1e-3 * cheb_t(3, x),
        "perturbed",
    )
    res = solve_best_ld(target, 2, ApproxOptions(starts=6, seed=1))
    assert res.certified
    assert len(res.alternance.points) >= 3
    assert res.dvp_lower <= res.error
    assert 0.0 <= res.gap <= 0.01
    # tightened-level recheck keeps n+1 points
    tight = residual_alternance(target, res.rho, min_points=3, level_rtol=1e-4)
    assert tight.sign_pattern_ok


def test_solver_weighted_fixed_pole_recovers_closed_form():
    res = solve_best_ld(ZERO, 2, ApproxOptions(starts=4, seed=3, weighted=True, fixed_pole=2.0))
    closed = extremal_weighted_norm(FixedPoleClass(2, 2.0))
    assert res.error == pytest.approx(closed, abs=1e-7)
    assert sorted(z.real for z in res.rho.poles) == pytest.approx([-2.0, 2.0], abs=1e-6)
    assert not res.certified  # certificate is for the unweighted free problem


def test_solver_reproducible_and_monotone_in_starts():
    target = TargetFunction(
        lambda x: LogDerivative((2.0, -2.0)).values_on(x) + 1e-3 * cheb_t(3, x),
        "perturbed",
    )
    a = solve_best_ld(target, 2, ApproxOptions(starts=4, seed=7))
    b = solve_best_ld(target, 2, ApproxOptions(starts=4, seed=7))
    assert a.rho.poles == b.rho.poles
    assert a.error == b.error

    errs = [
        solve_best_ld(target, 2, ApproxOptions(starts=s, seed=7)).error
        for s in (1, 2, 4)
    ]
    assert all(later <= earlier + 1e-15 for earlier, later in zip(errs, errs[1:]))


def test_solver_bracket_validity_when_certified():
    target = TargetFunction(
        lambda x: LogDerivative((2.0, -2.0)).values_on(x) + 1e-3 * cheb_t(3, x),
        "perturbed",
    )
    res = solve_best_ld(target, 2, ApproxOptions(starts=4, seed=2))
    if res.certified:
        assert res.dvp_lower <= res.error
        assert 0.0 <= res.gap < 1.0


def test_solver_input_validation():
    with pytest.raises(DomainError):
        solve_best_ld(ZERO, 0)
    with pytest.raises(DomainError):
        solve_best_ld(ZERO, 2, ApproxOptions(fixed_pole=0.5))
    with pytest.raises(DomainError):
        solve_best_ld(ZERO, 2, ApproxOptions(starts=0))


def test_solver_zero_target_falls_back():
    # f = 0 makes the linearized system singular, so the starts fall back to
    # a fixed layout, and the fraction with far poles (rho ~ 0) wins
    res = solve_best_ld(ZERO, 2, ApproxOptions(starts=2))
    assert any("no admissible pole layout" in d for d in res.diagnostics)
    assert res.error <= 1e-15
    assert not res.certified


def constant(v):
    return TargetFunction(lambda x: np.full_like(np.asarray(x, dtype=float), v), repr(v))


def test_solver_answers_targets_near_the_float_limit(capfd):
    # a constant 1e300 once overflowed the weighted Lawson rows: a raw
    # RuntimeWarning, or LAPACK's "On entry to DLASCL" lines on stdout; then
    # the fit refused such targets.  Now a row that would overflow ends the
    # fit, and the exchange answers from the fallback start
    modes = (ApproxOptions(), ApproxOptions(weighted=True), ApproxOptions(fixed_pole=2.0),
             ApproxOptions(weighted=True, fixed_pole=2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (1e200, 1e250, 1e300, 1e307):
            for opts in modes:
                assert solve_best_ld(constant(v), 2, opts).error == v
    res = solve_best_ld(constant(1e300), 2, modes[3])
    assert "breakdown: a row" in res.diagnostics[0]
    assert "no admissible pole layout" in res.diagnostics[1]
    assert capfd.readouterr() == ("", "")


def test_solver_clips_newton_steps_to_the_box():
    # a Newton step once overflowed math.exp in a pole map here; Newton now
    # runs on P's Chebyshev coefficients and rejects non-finite trial steps
    res = solve_best_ld(TargetFunction(lambda x: np.abs(np.asarray(x, float)), "abs"), 2,
                        ApproxOptions(starts=2, weighted=True))
    assert math.isfinite(res.error)
    assert not res.rho.has_pole_on_segment()


@pytest.mark.parametrize("n", [3, 4, 6])
def test_solver_never_evaluates_target_off_segment(n):
    # finite differences at the ends once sampled sqrt(1 + x) below -1
    seen = []

    def sqrt1px(x):
        x = np.asarray(x, dtype=float)
        if x.size:
            seen.append((float(np.min(x)), float(np.max(x))))
        return np.sqrt(1.0 + x)

    res = solve_best_ld(TargetFunction(sqrt1px, "sqrt(1+x)"), n)
    assert min(lo for lo, _ in seen) >= -1.0
    assert max(hi for _, hi in seen) <= 1.0
    assert res.dvp_lower <= res.error


def test_solver_cos5x_degree_3_is_certified():
    # the fraction with far poles (error 1) once won here; the exchange from
    # the Lawson start reaches the certified optimum, about 0.8774006
    res = solve_best_ld(_zoo_target("cos5", 0), 3)
    assert res.certified
    assert res.error < 0.9


def _starts_seen(diagnostics):
    # the starts a run accounts for: its exchange lines, the discard lines
    # and the skip line
    seen = []
    for d in diagnostics:
        if m := re.fullmatch(r"start (\d+): \d+ exchange steps?; (equioscillated|level stopped "
                             r"falling|pole on \[-1, 1\]|no alternating window|step cap)", d):
            seen.append(int(m[1]))
        elif m := re.fullmatch(r"start (\d+): .*; discarded", d):
            seen.append(int(m[1]))
        elif m := re.fullmatch(r"starts ([\d, ]+): skipped; start \d+ equioscillates with poles "
                               r"outside the closed unit disk", d):
            seen += [int(k) for k in m[1].split(", ")]
    return sorted(seen)


def test_solver_reports_every_start():
    # each start ends in one exchange line, in a discard line or in the skip
    # line, and identical runs give identical diagnostics
    target = _zoo_target("cos5", 0)
    res = solve_best_ld(target, 3, ApproxOptions(starts=8, seed=0))
    assert res.diagnostics == solve_best_ld(target, 3, ApproxOptions(starts=8, seed=0)).diagnostics
    assert _starts_seen(res.diagnostics) == list(range(8))
    assert any("exchange step" in d for d in res.diagnostics)


def test_solver_stops_at_a_start_that_meets_the_criterion():
    # start 0 equioscillates with poles outside the closed unit disk, so it
    # is the unique optimum and the seven later starts cannot improve on it
    target = _zoo_target("cos5", 0)
    one = solve_best_ld(target, 3, ApproxOptions(starts=1))
    eight = solve_best_ld(target, 3, ApproxOptions(starts=8))
    assert eight.rho.poles == one.rho.poles
    assert eight.error == one.error
    assert eight.certified and one.certified
    assert ("starts 1, 2, 3, 4, 5, 6, 7: skipped; start 0 equioscillates with poles outside "
            "the closed unit disk") in eight.diagnostics


def test_solver_does_not_stop_at_a_pole_inside_the_disk():
    # e^x at n = 3: the starts equioscillate, but with a pole pair inside
    # the disk, where the criterion says nothing
    res = solve_best_ld(_zoo_target("exp", 0), 3)
    assert not any("skipped" in d for d in res.diagnostics)
    assert sum("equioscillated" in d for d in res.diagnostics) > 1
    assert min(abs(z) for z in res.rho.poles) < 1.0
    assert _starts_seen(res.diagnostics) == list(range(8))


@pytest.mark.parametrize("name, n, opts", [("sqrt1px", 3, {"weighted": True}),
                                           ("cos5", 2, {"fixed_pole": 3.0})])
def test_solver_weighted_and_fixed_pole_runs_never_stop_early(name, n, opts):
    # start 0 alone equioscillates and wins with poles outside the closed
    # unit disk, yet the criterion is for the unweighted free-pole problem
    target = _zoo_target(name, 0)
    one = solve_best_ld(target, n, ApproxOptions(starts=1, **opts))
    assert "best: start 0" in one.diagnostics
    assert one.diagnostics[1].startswith("start 0: ") and one.diagnostics[1].endswith("equioscillated")
    assert min(abs(z) for z in one.rho.poles) > 1.0
    res = solve_best_ld(target, n, ApproxOptions(starts=8, **opts))
    assert not any("skipped" in d for d in res.diagnostics)
    assert _starts_seen(res.diagnostics) == list(range(8))


@pytest.mark.parametrize("name, n, bound", [("exp", 6, 0.05623), ("cos5", 6, 0.3)])
def test_solver_keeps_exchange_poles_inside_the_disk(name, n, bound):
    # an exchange output with poles inside the disk once had them pushed to
    # |z| = 1 + 1e-9 before the pick, which raised e^x's error at n = 6
    # from 0.0562216 to 0.168 and cos 5x's from 0.284 to 0.572
    assert solve_best_ld(_zoo_target(name, 0), n).error < bound


@pytest.mark.parametrize("name, n", [("cos5", 3), ("exp", 3), ("abs", 4), ("sqrt1px", 6),
                                     ("spline", 3), ("ldcheb:2,-2:1e-3:3", 2)])
def test_solver_certificate_and_bound_match_the_public_checks(name, n):
    # the solver reads the alternance, the certificate and the bound off
    # the winner's one residual scan; on their own, residual_alternance,
    # certify_optimality and dvp_lower_bound must agree with it exactly
    target = _zoo_target(name, 1)
    res = solve_best_ld(target, n)
    assert res.alternance == residual_alternance(target, res.rho, n + 1)
    assert res.error == res.alternance.level
    assert res.dvp_lower <= res.error
    cert = certify_optimality(target, res.rho)
    assert res.certified == cert.certified
    i = next(k for k, d in enumerate(res.diagnostics) if d.startswith("best: ")) + 1
    assert res.diagnostics[i : i + len(cert.reasons)] == cert.reasons
    try:
        assert res.dvp_lower == dvp_lower_bound(target, res.rho, free=True)
    except DomainError as exc:
        assert res.dvp_lower == 0.0
        assert f"lower bound unavailable: {exc}" in res.diagnostics


def _random_fraction(seed):
    # degree 3: a real pole off [-1, 1] and a pair off the segment
    rng = np.random.default_rng(seed)
    r = rng.choice([-1.0, 1.0]) * rng.uniform(1.05, 3.0)
    z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.05, 1.0))
    return LogDerivative((r, z, z.conjugate()))


def _outcome(scan):
    if isinstance(scan, Exception):
        return type(scan).__name__, str(scan)
    return [(float(x).hex(), float(v).hex()) for x, v in scan]


@settings(max_examples=20, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=4),
       bad=st.integers(0, 3), fault=st.sampled_from(["none", "pole", "nan"]),
       weighted=st.booleans())
def test_solver_scan_rows_match_one_row_scans(seeds, bad, fault, weighted):
    # the rows of one round: a row whose scan raises (a pole on the segment,
    # or a target that is NaN next to one of its extrema) leaves the other
    # rows' scans unchanged, and gets the exception its own scan raises
    rhos = [_random_fraction(s) for s in seeds]
    bad %= len(rhos)
    f = TargetFunction(np.exp, "exp")
    if fault == "pole":
        rhos[bad] = LogDerivative((0.3, 2.0 + 1.0j, 2.0 - 1.0j))
    elif fault == "nan":
        ext = minimax._scan(f, rhos[bad], weighted, DEFAULTS)
        x0 = ext[len(ext) // 2][0]
        f = TargetFunction(lambda x: np.where(np.abs(x - x0) <= 1e-12, math.nan, np.exp(x)), "exp")
    want = []
    for rho in rhos:
        try:
            want.append(minimax._scan(f, rho, weighted, DEFAULTS))
        except SimplefracError as exc:
            want.append(exc)
    got = minimax._scans(f, rhos, weighted, DEFAULTS)
    assert [_outcome(g) for g in got] == [_outcome(w) for w in want]
    assert fault == "none" or isinstance(got[bad], SimplefracError)


def test_solver_start_without_a_window_competes():
    # e^x at n = 2: start 2's layout has no alternating window; it once
    # dropped out of the pick, which left the error at 1.6391358
    res = solve_best_ld(_zoo_target("exp", 0), 2)
    assert res.error < 1.62
    assert "start 2: 0 exchange steps; no alternating window" in res.diagnostics


@pytest.mark.parametrize("name, n, opts", [("cos5", 3, {}), ("exp", 3, {}),
                                           ("sqrt1px", 4, {"weighted": True})])
def test_solver_scans_each_fraction_once(name, n, opts, monkeypatch):
    # one scanned row for the fraction with far poles, one per exchange
    # iterate (start iterate plus one per level solve, less a last iterate
    # with a pole on the segment), no iterate twice, and no sup-norm scan
    # at all; the error is the level of the winner's scan.  The rows run in
    # rounds, one local_extrema call each: the far fraction with start 0's
    # start iterate, start 0's later iterates alone, then the other starts
    # in lockstep
    calls, scanned = [], []
    scan, residuals = minimax._scan, minimax._residuals

    def counted(*args, **kwargs):
        calls.append(1)
        return _optim.local_extrema(*args, **kwargs)

    def one_row(f, rho, weighted, cfg):
        scanned.append(rho)
        return scan(f, rho, weighted, cfg)

    def rows(f, rhos, weighted):
        scanned.extend(rhos)
        return residuals(f, rhos, weighted)

    def refused(*args, **kwargs):
        raise AssertionError("supremum_on_grid called")

    monkeypatch.setattr(minimax, "local_extrema", counted)
    monkeypatch.setattr(minimax, "_scan", one_row)
    monkeypatch.setattr(minimax, "_residuals", rows)
    monkeypatch.setattr(_optim, "supremum_on_grid", refused)
    monkeypatch.setattr(extremal, "supremum_on_grid", refused)
    res = solve_best_ld(_zoo_target(name, 0), n, ApproxOptions(**opts))
    assert res.error == res.alternance.level
    per_start = []
    for d in res.diagnostics:
        if m := re.fullmatch(r"start \d+: (\d+) exchange steps?; (.*)", d):
            per_start.append(int(m[1]) + (0 if m[2] == "pole on [-1, 1]" else 1))
        assert not re.fullmatch(r"start \d+: .*; discarded", d)
    assert len(scanned) == 1 + sum(per_start)
    assert len({id(rho) for rho in scanned}) == len(scanned)
    assert len(calls) == per_start[0] + max(per_start[1:], default=0)


def _spline_target(seed):
    rng = np.random.default_rng(seed)
    xs = np.cos(np.pi * (np.arange(25) + np.r_[0.0, rng.uniform(-0.3, 0.3, 23), 0.0]) / 24)[::-1]
    ys = np.polynomial.chebyshev.chebval(xs, rng.normal(0.0, 1.0, 5) / np.arange(1, 6))
    return SampledFunction(xs=tuple(float(x) for x in xs),
                           ys=tuple(float(y) for y in ys)).as_target()


def _zoo_target(name, seed):
    if name == "abs":
        return TargetFunction(lambda x: np.abs(np.asarray(x, float)), name)
    if name == "exp":
        return TargetFunction(np.exp, name)
    if name == "sqrt1px":
        return TargetFunction(lambda x: np.sqrt(1.0 + np.asarray(x, float)), name)
    if name.startswith("cos"):
        k = int(name[3:])
        return TargetFunction(lambda x: np.cos(k * np.asarray(x, float)), name)
    if name == "spline":
        return _spline_target(seed)
    return parse_target(name)


ZOO_NAMES = ["abs", "exp", "sqrt1px", "spline", "ldcheb:2,-2:1e-3:3",
             "ldcheb:2,-2,1.5+1j,1.5-1j:1e-2:5"] + [f"cos{k}" for k in range(1, 7)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(ZOO_NAMES), n=st.integers(2, 8), weighted=st.booleans(),
       seed=st.integers(0, 2**16))
def test_solver_is_total_over_target_zoo(name, n, weighted, seed):
    target = _zoo_target(name, seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = solve_best_ld(target, n, ApproxOptions(starts=2, seed=seed, weighted=weighted))
        except SimplefracError:
            res = None
    assert [str(w.message) for w in caught] == []
    if res is not None:
        assert res.dvp_lower <= res.error
        assert res.error == res.alternance.level


@pytest.mark.parametrize("a", [1.5, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_solver_weighted_fixed_pole_zero_target_closed_form(n, a):
    res = solve_best_ld(ZERO, n, ApproxOptions(weighted=True, fixed_pole=a))
    assert res.error == pytest.approx(n / math.sqrt(cheb_t(n, a) ** 2 - 1.0), abs=1e-7)


@pytest.mark.parametrize("n,a", [(n, a) for a in (3.0, 5.0) for n in (4, 5, 6, 8)]
                         + [(6, 2.0), (8, 2.0)])
def test_solver_fixed_pole_zero_target_within_dvp_bracket(n, a):
    # the least unweighted deviation of the fixed-pole class lies in
    # dvp_bracket, so the solver's error must too (dvp_bracket needs larger
    # a at n = 4 and 5)
    res = solve_best_ld(ZERO, n, ApproxOptions(fixed_pole=a))
    lower, upper, _ = dvp_bracket(FixedPoleClass(n, a))
    assert lower <= res.error * (1.0 + 1e-9)
    assert res.error <= upper * (1.0 + 1e-9)


def _outside_poles(draw, n):
    """n pairwise-distinct conjugate-closed poles with |z_k| in [1.2, 3]."""
    n_pairs = draw(st.integers(0, n // 2))
    poles = [complex(draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.2, 3.0)), 0.0)
             for _ in range(n - 2 * n_pairs)]
    for _ in range(n_pairs):
        z = cmath.rect(draw(st.floats(1.2, 3.0)), draw(st.floats(0.15, math.pi - 0.15)))
        poles += [z, z.conjugate()]
    assume(min((abs(p - q) for i, p in enumerate(poles) for q in poles[i + 1:]), default=1.0) > 0.05)
    return tuple(poles)


@st.composite
def known_answers(draw):
    n = draw(st.sampled_from([3, 4, 6]))
    return n, _outside_poles(draw, n), draw(st.sampled_from([n, n + 1]))


@pytest.mark.parametrize("eps", [1e-3, 0.1])
@settings(max_examples=24, deadline=None, derandomize=True)
@given(case=known_answers())
def test_solver_known_answers_from_alternance(eps, case):
    # f - rho* = eps T_K alternates K + 1 >= n + 1 times at level eps, so rho*
    # is the unique best approximation and the least deviation is eps
    n, poles, k = case
    spec = "ldcheb:" + ",".join(repr(z) for z in poles) + f":{eps!r}:{k}"
    res = solve_best_ld(parse_target(spec), n)
    assert res.dvp_lower <= eps * (1.0 + 1e-9)
    assert eps <= res.error * (1.0 + 1e-9)
    if res.certified:
        assert abs(res.error - eps) <= 1e-6 * eps
        key = lambda z: (z.real, z.imag)  # noqa: E731
        got, want = sorted(res.rho.poles, key=key), sorted(poles, key=key)
        assert max(abs(p - q) for p, q in zip(got, want)) <= 1e-6


def _close(got, want, rtol=1e-5):
    return np.max(np.abs(got - want)) <= rtol * (1e-12 + np.max(np.abs(want)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 8), fixed=st.sampled_from([None, 2.5, -1.5]))
def test_coefficient_evaluator_matches_poles_and_differences(data, n, fixed):
    # rho = P'/P (+ 1/(x - a)) from P's Chebyshev coefficients: rho against
    # the pole sum, its c-gradient against central differences
    poles = _outside_poles(data.draw, n)
    coef = _coef_from_poles(poles)
    x = np.linspace(-1.0, 1.0, 9)
    rho, grad = _rho_from_coef(coef, x, fixed, grad=True)
    assert _close(rho, LogDerivative(poles + ((fixed,) if fixed else ())).values_on(x), 1e-9)
    assert grad.shape == (x.size, n)
    hc = 1e-6 * np.max(np.abs(coef))
    for k in range(n):
        step = np.zeros_like(coef)
        step[k] = hc
        up, down = _rho_from_coef(coef + step, x, fixed), _rho_from_coef(coef - step, x, fixed)
        assert _close(grad[:, k], (up[0] - down[0]) / (2.0 * hc))


def _chebroots(coef):
    return tuple(complex(z) for z in np.polynomial.chebyshev.chebroots(coef))


def _bits(roots):
    return [(z.real.hex(), z.imag.hex()) for z in roots]


@st.composite
def unit_lead_series(draw):
    """Chebyshev coefficients of degree 1 to 8 with a leading 1.0, drawn
    directly or from real, conjugate-pair or clustered poles."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["direct", "real", "pairs", "clustered"]))
    if kind == "direct":
        return np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)) + [1.0])
    reals = st.floats(-5.0, 5.0)
    if kind == "real":
        poles = draw(st.lists(reals, min_size=n, max_size=n))
    elif kind == "pairs":
        poles = draw(st.lists(reals, min_size=n % 2, max_size=n % 2))
        for _ in range(n // 2):
            z = complex(draw(reals), draw(st.floats(1e-3, 3.0)))
            poles += [z, z.conjugate()]
    else:
        centre, eps = draw(reals), draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
        poles = [centre + k * eps for k in range(n)]
    coef = _coef_from_poles(poles)
    assert coef[-1] == 1.0
    return coef


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coef=unit_lead_series())
def test_cheb_poles_is_chebroots_bit_for_bit(coef):
    assert _bits(_cheb_poles(coef)) == _bits(_chebroots(coef))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), k=st.integers(0, 7), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_cheb_poles_non_finite_coefficient_like_chebroots(n, k, bad):
    coef = np.ones(n + 1)
    coef[k % n] = bad
    if n == 1:  # -c_0/c_1, no eigenvalue solve
        assert _bits(_cheb_poles(coef)) == _bits(_chebroots(coef))
        return
    with pytest.raises(np.linalg.LinAlgError) as want:
        _chebroots(coef)
    with pytest.raises(np.linalg.LinAlgError) as got:
        _cheb_poles(coef)
    assert str(got.value) == str(want.value)


def test_target_function_scalar_fallback():
    t = TargetFunction(evaluator=lambda x: float(x) ** 2, description="scalar-only")
    out = t.values_on(np.array([0.0, 0.5, -1.0]))
    assert out.tolist() == [0.0, 0.25, 1.0]


def test_target_function_lets_package_errors_through():
    # an EvaluationError is a ValueError, but not the sign of a scalar-only evaluator
    rho, calls = LogDerivative((0.0, 3.0)), []

    def counted(x):
        calls.append(x)
        return rho.values_on(x)

    with pytest.raises(EvaluationError, match=r"at x = 0\.0:"):
        TargetFunction(counted, "ld:0,3").values_on(np.linspace(-1.0, 1.0, 11))
    assert len(calls) == 1


def test_target_function_pointwise_error_is_a_domain_error():
    # math.log raises a raw ValueError at x + 0.5 <= 0; values_on retries
    # point by point, and the pointwise error once escaped as it was
    target = TargetFunction(lambda x: math.log(x + 0.5), "log(x + 1/2)")
    with pytest.raises(DomainError, match=r"'log\(x \+ 1/2\)' failed at x = -1\.0") as info:
        solve_best_ld(target, 2)
    assert isinstance(info.value.__cause__, ValueError)
    assert TargetFunction(lambda x: math.log(x + 2.0)).values_on(np.array([0.0])).tolist() \
        == [math.log(2.0)]
    # float.as_integer_ratio has no array form: an AttributeError on the
    # array also sends values_on point by point
    assert TargetFunction(lambda x: x.as_integer_ratio()[0]).values_on(
        np.array([0.0, 0.5, 3.0])).tolist() == [0.0, 1.0, 3.0]


@pytest.mark.parametrize("evaluator,error", [(lambda x: 1 / 0, ZeroDivisionError),
                                             (lambda x: {}["k"], KeyError),
                                             (lambda x: math.exp(1000.0), OverflowError)],
                         ids=["ZeroDivisionError", "KeyError", "OverflowError"])
def test_target_function_wraps_other_evaluator_errors(evaluator, error):
    # an error of the vectorized call other than a TypeError or a ValueError
    # once escaped raw; now every such error sends values_on point by point,
    # where the first point's error is wrapped
    target = TargetFunction(evaluator, "raises")
    with pytest.raises(DomainError, match=r"target 'raises' failed at x = 0\.0: ") as info:
        target.values_on(np.array([0.0, 0.5]))
    assert isinstance(info.value.__cause__, error)
    with pytest.raises(DomainError, match=r"target 'raises' failed at x = ") as info:
        solve_best_ld(target, 2)
    assert isinstance(info.value.__cause__, error)
