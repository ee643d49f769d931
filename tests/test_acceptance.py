"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS line on success (pytest -rA shows them); a failing
criterion prints its measured values before the assertion fires.  Criterion
10 is split: 10a checks the bounds and r1; 10b checks that r2_lower climbs
past 0.999 at a = 3 at the degree where exact arithmetic shows it does
(n = 63), and records that the spec's degree n = 30 cannot reach it.
"""

import math
import time
from fractions import Fraction

import numpy as np

from simplefrac.bernstein import (
    asymptotic_ratios,
    check_corollary,
    random_rooted_polynomial,
    witness_ratio_empirical,
)
from simplefrac.cauchy import (
    CauchyPair,
    borchardt_check,
    komarov_coefficients,
    nonvanishing_witness,
    random_cauchy_pair,
)
from simplefrac.cheb import ChebKind, EllipseParam, ellipse_classify, eval_cheb
from simplefrac.extremal import (
    FixedPoleClass,
    LogDerivative,
    alternance_points_weighted,
    build_extremal_weighted,
    dvp_bracket,
    extremal_weighted_norm,
    lambda_bounds,
    verify_pole_annulus,
    weighted_sup_norm,
)
from simplefrac.cheb import cheb_t
from simplefrac.minimax import ApproxOptions, TargetFunction, solve_best_ld

WEIGHTED_GRID = [(n, a) for n in range(1, 13) for a in (1.5, 2.0, 3.0, 5.0)]
CANDIDATE_GRID = [(n, a) for n in (4, 5, 6, 7, 8, 16, 32, 64, 128) for a in (3.0, 5.0)]


def test_criterion_01_weighted_norm_reproduction():
    """Closed-form weighted deviation reproduced by the sup-norm engine."""
    t0 = time.perf_counter()
    worst = 0.0
    for n, a in WEIGHTED_GRID:
        cls = FixedPoleClass(n, a)
        rho = build_extremal_weighted(cls, force=True)
        measured = weighted_sup_norm(rho).value
        closed = extremal_weighted_norm(cls)
        worst = max(worst, abs(measured - closed) / closed)
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 1: worst relative error {worst:.3e} (tol 1e-9), {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0
    print("ACCEPTANCE 1: PASS - weighted norm reproduction on 48 (n, a) pairs")


def test_criterion_02_equioscillation():
    """n alternating extrema at the roots of T_n = 1/T_n(a); n+1 zeros."""
    for n, a in WEIGHTED_GRID:
        cls = FixedPoleClass(n, a)
        rho = build_extremal_weighted(cls, force=True)
        rep, zeros = alternance_points_weighted(cls)
        level = extremal_weighted_norm(cls)
        assert len(rep.points) == n
        assert rep.sign_pattern_ok
        tna = eval_cheb(ChebKind.FIRST_KIND, n, a)
        for x, v in zip(rep.points, rep.values):
            assert abs(eval_cheb(ChebKind.FIRST_KIND, n, x) - 1.0 / tna) <= 1e-13
            assert abs(abs(v) - level) <= 1e-10
        # zeros: endpoints exact, interior located by bisection near cos(pi k/n)
        assert len(zeros) == n + 1
        claimed = sorted(math.cos(math.pi * k / n) for k in range(n + 1))
        for z, c in zip(zeros, claimed):
            assert abs(z - c) <= 1e-12
        def rho_at(x):
            return float(rho.values_on(np.array([x]))[0])

        for k in range(1, n):
            c = math.cos(math.pi * k / n)
            lo, hi = c - 1e-4 / n, c + 1e-4 / n
            flo = rho_at(lo)
            fhi = rho_at(hi)
            assert flo * fhi < 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = rho_at(mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            assert abs(0.5 * (lo + hi) - c) <= 1e-12
    print("ACCEPTANCE 2: PASS - equioscillation and zero locations on 48 pairs")


def test_criterion_03_pole_geometry():
    """Weighted poles on E_a; candidate poles in the ellipse annulus."""
    worst = 0.0
    for n, a in WEIGHTED_GRID:
        rho = build_extremal_weighted(FixedPoleClass(n, a), force=True)
        ea = EllipseParam(a)
        for z in rho.poles:
            worst = max(worst, abs(ellipse_classify(ea, z).residual))
    assert worst <= 1e-10
    for n, a in CANDIDATE_GRID:
        rep = verify_pole_annulus(FixedPoleClass(n, a))
        assert rep.all_in_closure_ea
        assert rep.t > 1.0 and rep.all_outside_et
        assert rep.min_abs_pole > 1.0
    print(f"ACCEPTANCE 3: PASS - worst on-ellipse residual {worst:.3e}; annulus holds")


def test_criterion_04_deviation_bracket():
    """Bracket within the two-sided bound; weak-equivalence ratio behaves."""
    ratios_a5 = []
    for n, a in CANDIDATE_GRID:
        cls = FixedPoleClass(n, a)
        lb = lambda_bounds(cls)
        br = dvp_bracket(cls)
        assert lb.lower * (1.0 - 1e-6) <= br.lower <= br.upper <= lb.upper * (1.0 + 1e-6)
        assert 0.9 <= br.weak_equiv_ratio <= 1.1
        if a == 5.0:
            ratios_a5.append(br.weak_equiv_ratio)
    assert all(
        abs(b - 1.0) < abs(a - 1.0) for a, b in zip(ratios_a5, ratios_a5[1:])
    ), f"ratio trend at a=5 not monotone: {ratios_a5}"
    print(f"ACCEPTANCE 4: PASS - brackets inside bounds; a=5 ratios {ratios_a5}")


def _acceptance_instances(total=1000, seed=20250808):
    """Deterministic stream of conditioning-checked random instances."""
    rng = np.random.default_rng(seed)
    out = []
    draws = 0
    while len(out) < total and draws < 20 * total:
        n = 1 + draws % 8
        draws += 1
        pair = random_cauchy_pair(n, rng)
        if pair.conditioning_flags():
            continue
        out.append(pair)
    return out, draws


def test_criterion_05_borchardt_identity():
    """1000 random instances: det A = det B * per B to 1e-10 relative."""
    t0 = time.perf_counter()
    pairs, draws = _acceptance_instances()
    assert len(pairs) == 1000
    worst = 0.0
    for pair in pairs:
        worst = max(worst, borchardt_check(pair).rel_residual)
    worked = borchardt_check(CauchyPair((0.0, 0.5), (2.0, -2.0)))
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 5: 1000 instances from {draws} draws, worst residual "
        f"{worst:.3e}, worked 2x2 lhs {worked.lhs.real:.17g}, {elapsed:.2f}s"
    )
    assert worst <= 1e-10
    assert abs(worked.lhs - (-16.0 / 225.0)) <= 1e-14
    assert abs(worked.rhs - (-16.0 / 225.0)) <= 1e-14
    assert elapsed < 10.0
    print("ACCEPTANCE 5: PASS - identity residuals within 1e-10")


def test_criterion_06_nonvanishing_evidence():
    """No vanishing determinant observed; hypothesis gates fire correctly."""
    from simplefrac.cauchy import cauchy_det_closed_form

    pairs, _ = _acceptance_instances()
    min_abs = math.inf
    min_normalized = math.inf
    for pair in pairs:
        rep = nonvanishing_witness(pair)
        assert rep.conditions_ok, rep.violations
        min_abs = min(min_abs, rep.abs_det_a)
        det_b = abs(cauchy_det_closed_form(pair))
        min_normalized = min(min_normalized, rep.abs_det_a / (det_b * det_b))
    assert min_abs > 1e-300
    inside = nonvanishing_witness(CauchyPair((0.0,), (0.5,)))
    assert not inside.conditions_ok and inside.violations
    off_segment = nonvanishing_witness(CauchyPair((1.5,), (3.0,)))
    assert not off_segment.conditions_ok and off_segment.violations
    print(
        f"ACCEPTANCE 6: PASS - min |det A| observed {min_abs:.3e} "
        f"(normalized by |det B|^2: {min_normalized:.3e}); gates fire"
    )


def test_criterion_07_komarov_decomposition():
    """200 random pole sets: identity residual <= 1e-9; hand case exact."""
    rng = np.random.default_rng(4242)
    worst = 0.0
    count = 0
    while count < 200:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, n + 1))

        def draw(k):
            poles = []
            while len(poles) < k:
                left = k - len(poles)
                if left >= 2 and rng.uniform() < 0.5:
                    z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.4, 2.5))
                    if abs(z) <= 1.2:
                        continue
                    poles += [z, z.conjugate()]
                else:
                    mag = rng.uniform(1.4, 3.5)
                    poles.append(complex(mag if rng.uniform() < 0.5 else -mag, 0.0))
            return tuple(poles)

        p, q = draw(n), draw(m)
        seps = [abs(x - y) for i, x in enumerate(p) for y in p[i + 1 :]]
        if seps and min(seps) <= 0.3:
            continue
        count += 1
        dec = komarov_coefficients(p, q, validate=False)
        worst = max(worst, dec.max_residual())
    hand = komarov_coefficients((2.0, -2.0), (3.0,))
    assert abs(hand.gamma[0] - (-0.25)) <= 1e-14
    assert abs(hand.gamma[1] - 1.25) <= 1e-14
    print(f"ACCEPTANCE 7: 200 decompositions, worst identity residual {worst:.3e}")
    assert worst <= 1e-9
    print("ACCEPTANCE 7: PASS - decomposition identity within 1e-9")


def test_criterion_08_perturbation_optimality():
    """The closed form is the exact optimum: perturbations never beat it."""
    rng = np.random.default_rng(42)
    worst_margin = math.inf
    for n, a in [(2, 2.0), (2, 3.0), (4, 2.0), (4, 3.0), (8, 2.0), (8, 3.0)]:
        cls = FixedPoleClass(n, a)
        rho = build_extremal_weighted(cls)
        closed = extremal_weighted_norm(cls)
        other_reals = [z.real for z in rho.poles if z.imag == 0.0 and z.real != a]
        pairs = sorted(set((z.real, abs(z.imag)) for z in rho.poles if z.imag > 0.0))
        for _ in range(500):
            delta = 10.0 ** rng.uniform(-3, -1)
            poles = [complex(a, 0.0)]
            for r in other_reals:
                poles.append(complex(r * (1.0 + delta * rng.uniform(-1, 1)), 0.0))
            for u, v in pairs:
                z = complex(
                    u * (1.0 + delta * rng.uniform(-1, 1)),
                    v * (1.0 + delta * rng.uniform(-1, 1)),
                )
                poles += [z, z.conjugate()]
            perturbed = LogDerivative(tuple(poles))
            value = weighted_sup_norm(perturbed).value
            worst_margin = min(worst_margin, value - closed)
            assert value >= closed - 1e-9
    print(f"ACCEPTANCE 8: PASS - 3000 perturbations, min margin {worst_margin:.3e}")


def test_criterion_09_solver_certificate():
    """Certified solve of the perturbed target; exact recovery; determinism."""
    base = LogDerivative((2.0, -2.0))
    perturbed = TargetFunction(
        evaluator=lambda x: base.values_on(x) + 1e-3 * cheb_t(3, x),
        description="ld + 1e-3 T3",
    )
    opts = ApproxOptions(starts=6, seed=1)
    res = solve_best_ld(perturbed, 2, opts)
    assert res.certified
    assert len(res.alternance.points) >= 3
    assert res.gap <= 0.01
    res2 = solve_best_ld(perturbed, 2, opts)
    assert res2.rho.poles == res.rho.poles and res2.error == res.error

    exact_target = TargetFunction(evaluator=base.values_on, description="ld")
    rec = solve_best_ld(exact_target, 2, ApproxOptions(starts=6, seed=1))
    assert rec.error <= 1e-8
    got = sorted(z.real for z in rec.rho.poles)
    assert abs(got[0] + 2.0) <= 1e-6 and abs(got[1] - 2.0) <= 1e-6
    print(
        f"ACCEPTANCE 9: PASS - certified (gap {res.gap:.2e}, "
        f"{len(res.alternance.points)} alternance points); exact recovery "
        f"{max(abs(got[0] + 2), abs(got[1] - 2)):.2e}; deterministic"
    )


def test_criterion_10a_corollary_and_witnesses():
    """200 random admissible polynomials satisfy both bounds; ratios behave."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(4, 11))
        a = float(rng.choice([2.5, 3.0, 5.0]))
        rep = check_corollary(random_rooted_polynomial(n, a, rng))
        assert rep.both_hold
    ratios = [asymptotic_ratios(n, 3.0) for n in range(4, 31)]
    assert all(b.r1 >= a.r1 for a, b in zip(ratios, ratios[1:]))
    assert all(b.r2_lower >= a.r2_lower for a, b in zip(ratios, ratios[1:]))
    r1_30 = ratios[-1].r1
    assert r1_30 > 0.999
    print(
        f"ACCEPTANCE 10a: PASS - 200 instances hold; ratios monotone; "
        f"r1(30,3) = {r1_30:.17g} > 0.999"
    )


def _integrated_witness_bracket_at_3(n):
    """Exact bracket [lo, hi] of the integrated witness's sharpness ratio at
    a = 3, from integer T_k(3) (T_{k+1} = 6 T_k - T_{k-1}) and Fractions.

    The ratio is 1 - (2 T_{n-2}(a)/(n-2) + 3 + n*M)/D with D = T_n(a) -
    T_{n-2}(a) + 3 and M = max over [-1, 1] of T_n/n - T_{n-2}/(n-2);
    n*M <= 3 gives lo and n*M >= n*f(1) = 1 - n/(n-2) gives hi.
    """
    t = [1, 3]
    while len(t) <= n:
        t.append(6 * t[-1] - t[-2])
    tn, tn2 = t[n], t[n - 2]
    d = tn - tn2 + 3
    s = Fraction(2 * tn2, n - 2) + 3
    return 1 - (s + 3) / d, 1 - (s + 1 - Fraction(n, n - 2)) / d


def test_criterion_10b_r2_threshold_unattainable_spec_defect():
    """The witness ratio r2 climbs past 0.999 at a = 3, though not by n = 30.

    The spec asks for r2_lower > 0.999 by n = 30; exact arithmetic shows
    the integrated witness's true ratio is 0.99783356... there and stays
    below 0.999 up to n = 62, so that degree is a defect of the spec.  The
    threshold is checked at n = 63, the first degree that reaches it.
    r2_lower = 1 - 2*(T_{n-2}(3)/(n-2) + 3)/(T_n(3) - T_{n-2}(3) + 3) is the
    lower end of the exact bracket, and it approaches 1 only like O(1/n),
    unlike r1 which converges exponentially.
    """
    threshold = Fraction(999, 1000)
    for n in (30, 62):
        lo, hi = _integrated_witness_bracket_at_3(n)
        assert lo <= hi < threshold  # the spec's "by n = 30" is unattainable
    lo_63, _ = _integrated_witness_bracket_at_3(63)
    assert lo_63 > threshold

    for n in range(4, 65):
        lo, _ = _integrated_witness_bracket_at_3(n)
        r2 = asymptotic_ratios(n, 3.0).r2_lower
        assert abs(Fraction(r2) - lo) <= 4 * Fraction(math.ulp(1.0))
    w_63 = witness_ratio_empirical(63, 3.0, 2)
    assert w_63 > 0.999

    q = 3.0 - math.sqrt(8.0)
    rate = 2.0 * q * q / (1.0 - q * q)
    for n in (30, 64):
        scaled = (n - 2) * (1.0 - asymptotic_ratios(n, 3.0).r2_lower)
        assert abs(scaled - rate) <= 1e-9 * rate
    r2_30 = asymptotic_ratios(30, 3.0).r2_lower
    r2_63 = asymptotic_ratios(63, 3.0).r2_lower
    print(
        f"ACCEPTANCE 10b: PASS - r2_lower(63, 3) = {r2_63:.17g} > 0.999 "
        f"(witness {w_63:.17g}); exact brackets stay below 0.999 at n = 30 "
        f"({r2_30:.17g}) and n = 62, so the spec's n = 30 is unattainable; "
        f"(n-2)(1 - r2) -> {rate:.10g}"
    )
