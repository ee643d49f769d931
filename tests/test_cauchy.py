"""Cauchy matrices, determinants, permanents, identity checks, decomposition."""

import cmath
import dataclasses
import math
import tracemalloc
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplefrac import cauchy
from simplefrac.cauchy import (
    _JITTER_SAFE_N,
    CONDITIONING_FLAGS,
    BorchardtBatchReport,
    CauchyPair,
    _cauchy_b,
    _draw_pairs,
    _flag_rows,
    _node_layout,
    _ryser_stack,
    borchardt_batch,
    borchardt_check,
    cauchy_det_closed_form,
    komarov_coefficients,
    matrix_a,
    matrix_b,
    nonvanishing_witness,
    permanent_ryser,
    random_cauchy_pair,
)
from simplefrac.config import DEFAULTS
from simplefrac.errors import DomainError, EvaluationError, ToleranceNotMetError
from simplefrac.extremal import _min_pole_separation

PAIR_2x2 = CauchyPair((0.0, 0.5), (2.0, -2.0))


def permanent_naive(m):
    """Factorial-sum oracle."""
    n = m.shape[0]
    return sum(
        np.prod([m[i, sigma[i]] for i in range(n)]) for sigma in permutations(range(n))
    )


def ryser_gray_reference(m):
    """The unblocked Ryser loop: one Gray-code subset per Python step.

    Returns (permanent, sum of the term magnitudes)."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    rowsums = np.zeros(n, dtype=complex)
    total = complex(0.0)
    scale = 0.0
    prev_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        changed = gray ^ prev_gray
        j = changed.bit_length() - 1
        if gray & changed:
            rowsums += m[:, j]
        else:
            rowsums -= m[:, j]
        prev_gray = gray
        term = complex(np.prod(rowsums))
        scale += abs(term)
        if (n - gray.bit_count()) % 2:
            total -= term
        else:
            total += term
    return total, scale


def ryser_int(m):
    """Ryser's formula in Python int arithmetic, exact for integer matrices.

    Returns (permanent, sum of the term magnitudes)."""
    n = len(m)
    rowsums = [0] * n
    total = scale = 0
    gray = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        gray ^= 1 << j
        step = 1 if gray >> j & 1 else -1
        rowsums = [r + step * row[j] for r, row in zip(rowsums, m)]
        term = math.prod(rowsums)
        scale += abs(term)
        total += -term if (n - gray.bit_count()) % 2 else term
    return total, scale


def random_cauchy_pair_reference(n, rng, min_abs=1.1, max_abs=10.0):
    """random_cauchy_pair with one scalar ``rng.uniform`` call per pole
    uniform and the Chebyshev nodes recomputed per draw."""
    for _ in range(200):
        if n == 1:
            nodes = rng.uniform(-1.0, 1.0, size=1)
        else:
            base = np.cos(np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n))
            nodes = np.sort(base + rng.uniform(-0.3 / n, 0.3 / n, size=n))
            nodes = np.clip(nodes, -1.0, 1.0)
        if n == 1 or np.min(np.diff(nodes)) > 1e-6:
            break
    n_pairs = int(rng.integers(0, n // 2 + 1))
    n_real = n - 2 * n_pairs
    log_lo, log_hi = math.log(min_abs), math.log(max_abs)
    for _ in range(200):
        poles = []
        for _ in range(n_real):
            mag = math.exp(rng.uniform(log_lo, log_hi))
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            poles.append(complex(sign * mag, 0.0))
        for _ in range(n_pairs):
            mag = math.exp(rng.uniform(log_lo, log_hi))
            theta = rng.uniform(0.1, math.pi - 0.1)
            z = mag * cmath.exp(complex(0.0, theta))
            poles.append(z)
            poles.append(z.conjugate())
        seps = [abs(p - q) for i, p in enumerate(poles) for q in poles[i + 1 :]]
        if not seps or min(seps) > 1e-3:
            break
    return CauchyPair(nodes=tuple(float(c) for c in nodes), poles=tuple(poles))


def conditioning_flags_reference(pair, cfg=DEFAULTS):
    """The conditioning gates of one pair, in Python scalars."""
    flags = []
    ns = sorted(pair.nodes)
    if len(ns) > 1 and min(b - a for a, b in zip(ns, ns[1:])) < cfg.node_separation_gate:
        flags.append("node-separation")
    for z in pair.poles:
        if math.hypot(max(abs(z.real) - 1.0, 0.0), z.imag) < cfg.pole_interval_gate:
            flags.append("pole-interval-distance")
            break
    if pair.size > 1 and np.linalg.cond(matrix_b(pair)) > cfg.det_condition_gate:
        flags.append("determinant-conditioning")
    return tuple(flags)


def borchardt_batch_serial_reference(sizes, trials, seed, cfg=DEFAULTS, **moduli):
    """borchardt_batch as one draw, one identity check and one flag check
    at a time, through the public per-pair functions; ``moduli`` are the
    pole modulus bounds of the draws."""
    tol = cfg.borchardt_tol
    rng = np.random.default_rng(seed)
    sizes = list(sizes)
    checked = excluded = failures = draws = 0
    max_res = 0.0
    min_det = min_norm_det = math.inf
    by_flag = dict.fromkeys(CONDITIONING_FLAGS, 0)
    while checked < trials and draws < 20 * trials:
        n = sizes[draws % len(sizes)]
        draws += 1
        pair = random_cauchy_pair_reference(n, rng, **moduli)
        rep = borchardt_check(pair, cfg=cfg)
        flags = pair.conditioning_flags(cfg)
        if flags:
            excluded += 1
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
        tol=tol,
        failures=failures,
        excluded_by_flag=tuple(by_flag.items()),
    )


def exact(value):
    """A value with every float as its hex string, so == compares bits
    (and NaN equals NaN)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, (tuple, list)):
        return tuple(exact(v) for v in value)
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    return value


def test_matrix_entries_worked_example():
    b = matrix_b(PAIR_2x2)
    assert b.tolist() == [[-0.5, 0.5], [1.0 / (0.5 - 2.0), 1.0 / (0.5 + 2.0)]]
    a = matrix_a(PAIR_2x2)
    assert np.array_equal(a, b * b)  # elementwise square, bit for bit


def test_matrix_single_entry():
    pair = CauchyPair((0.0,), (2.0,))
    assert matrix_b(pair).tolist() == [[-0.5]]
    assert matrix_a(pair).tolist() == [[0.25]]


def test_cauchy_pair_validation():
    with pytest.raises(DomainError):
        CauchyPair((0.0, 0.0), (2.0, 3.0))  # duplicate nodes
    with pytest.raises(DomainError):
        CauchyPair((0.0, 0.5), (2.0, 2.0))  # duplicate poles
    with pytest.raises(DomainError):
        CauchyPair((0.0, 2.0), (2.0, -2.0))  # node coincides with pole
    with pytest.raises(DomainError):
        CauchyPair((0.0, 0.5), (2.0, 1j))  # not conjugate-closed
    with pytest.raises(DomainError):
        CauchyPair((0.0, 0.5), (2.0,))  # size mismatch


def test_cauchy_pair_node_on_pole():
    with pytest.raises(DomainError):
        CauchyPair((0.25, 0.5), (0.5, 2.0))
    with pytest.raises(DomainError):
        CauchyPair((-0.0, 0.5), (0.0, 2.0))  # -0.0 node, +0.0 pole
    with pytest.raises(DomainError):
        CauchyPair((0.0, 0.5), (complex(-0.0, -0.0), 2.0))
    CauchyPair((0.25, 0.5), (0.75, 2.0))  # distinct sets are accepted


def test_closed_form_det():
    assert cauchy_det_closed_form(PAIR_2x2) == pytest.approx(2.0 / 15.0, rel=1e-15)
    pair1 = CauchyPair((0.25,), (3.0,))
    assert cauchy_det_closed_form(pair1) == pytest.approx(1.0 / (0.25 - 3.0), rel=1e-15)


def test_closed_form_det_conjugate_symmetry():
    # conjugating the pole set permutes the columns by its pairing: the
    # determinant satisfies conj(det) = (-1)^pairs * det, so one pair gives a
    # purely imaginary value and two pairs a real one (hand + LU oracles)
    pair = CauchyPair((-0.5, 0.5), (2j, -2j))
    det = cauchy_det_closed_form(pair)
    hand = (1.0 * 4j) / ((-0.5 - 2j) * (-0.5 + 2j) * (0.5 - 2j) * (0.5 + 2j))
    assert det == pytest.approx(hand, rel=1e-14)
    assert abs(det.real) < 1e-15  # one pair: purely imaginary
    lu = complex(np.linalg.det(matrix_b(pair)))
    assert det == pytest.approx(lu, rel=1e-13, abs=1e-15)

    pair2 = CauchyPair(
        (-0.6, -0.1, 0.4, 0.8),
        (2j, -2j, complex(1.0, 1.5), complex(1.0, -1.5)),
    )
    det2 = cauchy_det_closed_form(pair2)
    assert abs(det2.imag) <= 1e-15 * abs(det2)  # two pairs: real
    lu2 = complex(np.linalg.det(matrix_b(pair2)))
    assert det2 == pytest.approx(lu2, rel=1e-12)


def test_closed_form_matches_lu_up_to_degree_twelve():
    # maximally separated data: Chebyshev nodes, poles equispaced on |z| = 1.6
    import cmath
    import math

    for n in range(2, 13):
        nodes = np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
        poles = []
        for k in range(n // 2):
            z = 1.6 * cmath.exp(1j * math.pi * (k + 0.5) / (n // 2 + 1))
            poles += [z, z.conjugate()]
        if n % 2:
            poles.append(complex(-1.6, 0.0))
        pair = CauchyPair(tuple(float(x) for x in nodes), tuple(poles))
        cf = cauchy_det_closed_form(pair)
        lu = complex(np.linalg.det(matrix_b(pair)))
        assert abs(cf - lu) <= 1e-10 * max(abs(cf), abs(lu))


def test_closed_form_matches_lu_on_conditioned_instances():
    rng = np.random.default_rng(31)
    count = 0
    while count < 120:
        n = int(rng.integers(1, 9))
        pair = random_cauchy_pair(n, rng)
        if pair.conditioning_flags():
            continue
        count += 1
        cf = cauchy_det_closed_form(pair)
        lu = complex(np.linalg.det(matrix_b(pair)))
        assert abs(cf - lu) <= 1e-10 * max(abs(cf), abs(lu))


def test_permanent_worked_examples():
    assert permanent_ryser(matrix_b(PAIR_2x2)) == pytest.approx(-8.0 / 15.0, rel=1e-15)
    assert permanent_ryser(np.eye(3)) == pytest.approx(1.0)
    assert permanent_ryser(np.ones((3, 3))) == pytest.approx(6.0)


def test_permanent_gates():
    big = DEFAULTS.permanent_max_n + 1
    with pytest.raises(DomainError):
        permanent_ryser(np.ones((big, big)))
    with pytest.raises(DomainError):
        permanent_ryser(np.ones((2, 3)))
    with pytest.raises(DomainError):
        permanent_ryser(np.ones(3))
    with pytest.raises(DomainError):
        permanent_ryser(np.ones((0, 0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=13), seed=st.integers(min_value=0, max_value=10_000))
@example(n=10, seed=1)
@example(n=11, seed=2)
@example(n=13, seed=3)
def test_permanent_matches_gray_reference(n, seed):
    # n = 11..13 puts columns past the 10-column block
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    want, scale = ryser_gray_reference(m)
    assert abs(permanent_ryser(m) - want) <= 1e-12 * scale


def test_permanent_exact_on_small_integers():
    rng = np.random.default_rng(4)
    for n in range(1, 15):
        m = rng.integers(-3, 4, size=(n, n))
        exact, scale = ryser_int(m.tolist())
        got = permanent_ryser(m)
        if 2**n * (3 * n) ** n < 2**53:
            # every row sum, product and partial sum is an exact double
            assert got == exact
        else:
            # n - 1 roundings per product, then sums over 2^b and 2^(n-b) terms
            assert abs(got - exact) <= 2 * n * np.finfo(float).eps * scale


def test_permanent_working_set_is_blocked():
    # a single complex vector of 2^18 entries would take 4 MB
    m = np.random.default_rng(2).normal(size=(18, 18)).astype(complex)
    tracemalloc.start()
    try:
        permanent_ryser(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=13), k=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=10_000))
@example(n=12, k=3, seed=0)
def test_stacked_ryser_matches_single_bit_for_bit(n, k, seed):
    rng = np.random.default_rng(seed)
    ms = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    want = [exact(permanent_ryser(m)) for m in ms]
    assert [exact(p) for p in _ryser_stack(ms)] == want
    # a caller's buffer, too small or large enough, gives the same values
    for work in (np.empty(1, dtype=complex), np.empty((2 * k * n) << 10, dtype=complex)):
        assert [exact(p) for p in _ryser_stack(ms, work)] == want


@pytest.mark.parametrize("n,want", [
    (5, ("-0x1.35060af81e5e8p+5", "-0x1.05b2d1daaaa51p+5")),
    (11, ("0x1.46af5164bcc3bp+16", "-0x1.b82678c44699cp+14")),
    (13, ("-0x1.432f757d4c168p+22", "0x1.ac0f48b8bc738p+21")),
])
def test_permanent_pinned_bits(n, want):
    # values of the single-matrix blocked kernel, before stacking
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert exact(permanent_ryser(m)) == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=5), seed=st.integers(min_value=0, max_value=10_000))
def test_permanent_matches_naive(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    ryser = permanent_ryser(m)
    naive = permanent_naive(m)
    assert abs(ryser - naive) <= 1e-12 * abs(naive)


def test_borchardt_worked_example():
    rep = borchardt_check(PAIR_2x2)
    assert rep.lhs == pytest.approx(-16.0 / 225.0, abs=1e-14)
    assert rep.rhs == pytest.approx(-16.0 / 225.0, abs=1e-14)
    assert rep.rel_residual <= 1e-14


def test_borchardt_dimension_one():
    pair = CauchyPair((0.3,), (2.5,))
    rep = borchardt_check(pair)
    assert rep.lhs == pytest.approx(1.0 / (0.3 - 2.5) ** 2, rel=1e-15)
    assert rep.rel_residual <= 1e-15


def test_borchardt_random_n6():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 20:
        pair = random_cauchy_pair(6, rng)
        if pair.conditioning_flags():
            continue
        checked += 1
        assert borchardt_check(pair).rel_residual <= 1e-10


def test_nonvanishing_witness():
    rep = nonvanishing_witness(PAIR_2x2)
    assert rep.conditions_ok
    assert rep.abs_det_a == pytest.approx(16.0 / 225.0, abs=1e-15)
    bad = nonvanishing_witness(CauchyPair((0.0,), (0.5,)))
    assert not bad.conditions_ok
    assert any("|z_k|" in v for v in bad.violations)
    off = nonvanishing_witness(CauchyPair((1.5,), (3.0,)))
    assert not off.conditions_ok
    assert any("[-1, 1]" in v for v in off.violations)


def test_batch_runs_and_routes():
    rep = borchardt_batch(sizes=range(1, 7), trials=150, seed=3)
    assert rep.checked == 150
    assert rep.failures == 0
    assert rep.max_rel_residual <= 1e-10
    assert rep.min_abs_det_a > 1e-300


def test_random_pair_pinned_draws():
    # draws of the one-scalar-uniform-per-value generator, bit for bit
    rng = np.random.default_rng(2024)
    want = {
        1: (["0x1.681a42b1eea64p-2"], [("0x1.c3f19d49a6899p+0", "0x0.0p+0")]),
        2: (["-0x1.1de22b1000bdcp-1", "0x1.980962d718e92p-1"],
            [("0x1.4f0ace30586cap+0", "0x0.0p+0"), ("0x1.376e82ed91a1cp+1", "0x0.0p+0")]),
        3: (["-0x1.e3d042658639ap-1", "0x1.7ec13e970ae1ep-6", "0x1.c47e7434808a7p-1"],
            [("0x1.ead0476160fc6p+1", "0x0.0p+0"), ("-0x1.8911c949f7229p+1", "0x0.0p+0"),
             ("-0x1.9b10aa8146b50p+2", "0x0.0p+0")]),
        5: (["-0x1.cfe74d85b29e5p-1", "-0x1.3a954ba65618ep-1", "-0x1.c26ca9f2af359p-8",
             "0x1.1ae760b015eddp-1", "0x1.dc35de078db84p-1"],
            [("-0x1.01ed2d6e872dbp+1", "0x0.0p+0"),
             ("0x1.4113ff83cd26dp+0", "0x1.8b370dcce52e6p+0"),
             ("0x1.4113ff83cd26dp+0", "-0x1.8b370dcce52e6p+0"),
             ("0x1.fb6b2c2b1cdb4p-4", "0x1.47c2bf7acb717p+0"),
             ("0x1.fb6b2c2b1cdb4p-4", "-0x1.47c2bf7acb717p+0")]),
    }
    for n, (nodes, poles) in want.items():
        pair = random_cauchy_pair(n, rng)
        assert exact(pair.nodes) == tuple(nodes)
        assert exact(pair.poles) == tuple(poles)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=20), seed=st.integers(min_value=0, max_value=10_000))
def test_random_pair_matches_scalar_reference(n, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        a, b = random_cauchy_pair(n, fast), random_cauchy_pair_reference(n, slow)
        assert exact(a.nodes) == exact(b.nodes) and exact(a.poles) == exact(b.poles)


def equal_moduli_outcome(draw, rng):
    """A pair's nodes and poles as hex, or the type and message of its error,
    for a size-3 draw with every pole modulus 2."""
    try:
        pair = draw(3, rng, min_abs=2.0, max_abs=2.0)
    except DomainError as exc:
        return DomainError, str(exc)
    return "pair", exact(pair.nodes), exact(pair.poles)


def test_random_pair_spent_retries_match_scalar_reference():
    # with equal moduli, two real poles of one sign coincide: every pole
    # attempt is redrawn, and the spent draw raises as it always did
    outcomes = set()
    for seed in range(6):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got = equal_moduli_outcome(random_cauchy_pair, fast)
        assert got == equal_moduli_outcome(random_cauchy_pair_reference, slow)
        assert fast.bit_generator.state == slow.bit_generator.state
        outcomes.add(got[0])
    assert outcomes == {"pair", DomainError}


def test_jitter_cannot_redraw_nodes_up_to_sixteen():
    # up to _JITTER_SAFE_N the smallest Chebyshev gap beats the jitter span,
    # and the second node stays below 1, where the first may be clipped, so
    # no two nodes come within the redraw distance 1e-6
    for n in range(2, 21):
        base, half = _node_layout(n)
        margin = min(np.min(-np.diff(base)) - 2.0 * half, 1.0 - (base[1] + half))
        assert (margin > 1e-6) == (n <= _JITTER_SAFE_N)


@pytest.mark.parametrize("min_abs,max_abs", [
    (0.0, 10.0),  # log(0): once a raw math domain error
    (-1.0, 10.0),
    (1.1, math.inf),  # once caught only later, as a non-finite pole
    (math.nan, 10.0),
    (1.1, math.nan),
    (5.0, 2.0),  # once drew moduli in [2, 5] without a word
])
def test_random_pair_rejects_bad_moduli(min_abs, max_abs):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="0 < min_abs <= max_abs < inf"):
        random_cauchy_pair(4, rng, min_abs=min_abs, max_abs=max_abs)
    assert rng.bit_generator.state == state  # rejected before any draw


def test_random_pair_equal_moduli_bounds():
    pair = random_cauchy_pair(5, np.random.default_rng(1), min_abs=2.0, max_abs=2.0)
    assert all(abs(abs(z) - 2.0) <= 1e-15 for z in pair.poles)


size_lists = st.one_of(
    st.integers(min_value=1, max_value=11).map(lambda n: [n]),
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sizes=size_lists, trials=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@example(sizes=[10], trials=1, seed=0)
@example(sizes=[3, 9, 5], trials=12, seed=1)
@example(sizes=[12, 2], trials=3, seed=0)
@example(sizes=list(range(1, 7)), trials=150, seed=3)
@example(sizes=[16], trials=1, seed=0)  # largest size whose nodes are never redrawn
@example(sizes=[17], trials=1, seed=0)
@example(sizes=[20], trials=1, seed=0)
@example(sizes=[17, 3], trials=1, seed=0)
@example(sizes=[10], trials=20, seed=0)  # checks none: chunks of 20, 64 x 5, 60
@example(sizes=[8], trials=20, seed=6)  # stops 5 draws short of the budget, mid-chunk
@example(sizes=[7], trials=20, seed=7)  # its last chunk of 64 ends 36 draws past the stop
@example(sizes=[4], trials=20, seed=5)  # a draw past the stop
@example(sizes=[2, 10], trials=20, seed=0)
def test_batch_matches_serial_reference(sizes, trials, seed):
    got = dataclasses.asdict(borchardt_batch(sizes, trials, seed))
    want = dataclasses.asdict(borchardt_batch_serial_reference(sizes, trials, seed))
    assert exact(got) == exact(want)


def test_batch_excluded_by_flag():
    rep = borchardt_batch([6], 20, 0)
    counts = dict(rep.excluded_by_flag)
    assert tuple(counts) == CONDITIONING_FLAGS
    assert rep.excluded > 0
    # every excluded draw carries at least one flag; at n = 6 the
    # determinant-conditioning gate is the one that fires
    assert rep.excluded <= sum(counts.values())
    assert counts["determinant-conditioning"] == rep.excluded


CHEB8 = tuple(math.cos(math.pi * (2 * k + 1) / 16) for k in range(8))
FLAG_PAIRS = {
    "one node": [CauchyPair((0.3,), (2.5,)), CauchyPair((-0.7,), (-1.02,))],
    "three nodes": [
        CauchyPair((-0.5, 0.0, 0.5), (3.0, 2j, -2j)),
        CauchyPair((0.0, 1e-4, 0.5), (3.0, 2j, -2j)),  # nodes 1e-4 apart
        CauchyPair((-0.5, 0.0, 0.5), (1.02, 2j, -2j)),  # a pole at 1.02
        CauchyPair((-0.5, 0.0, 0.5), (-3.0, complex(0.4, 1.5), complex(0.4, -1.5))),
        CauchyPair((0.0, 1e-4, 0.5), (3.0, complex(0.9, 0.01), complex(0.9, -0.01))),
    ],
    "eight nodes": [
        CauchyPair(CHEB8, (5.0, 6.0, 7.0, 8.0, -5.0, -6.0, -7.0, -8.0)),  # cond(B) > 1e5
        CauchyPair(CHEB8, tuple(1.5 * cmath.exp(1j * math.pi * (2 * k + 1) / 8)
                                for k in range(8))),
    ],
}


@pytest.mark.parametrize("pairs", FLAG_PAIRS.values(), ids=FLAG_PAIRS)
def test_flag_rows_match_per_pair_reference(pairs):
    want = [conditioning_flags_reference(p) for p in pairs]
    assert any(want) and not all(want)  # the chunk mixes flagged and clean pairs
    nodes = np.array([p.nodes for p in pairs])
    poles = np.array([p.poles for p in pairs])
    assert _flag_rows(nodes, poles, _cauchy_b(nodes, poles), DEFAULTS) == want
    assert [p.conditioning_flags() for p in pairs] == want


def test_every_flag_fires_on_its_hand_built_pair():
    fired = {f for pairs in FLAG_PAIRS.values() for p in pairs for f in p.conditioning_flags()}
    assert fired == set(CONDITIONING_FLAGS)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(min_value=0, max_value=10_000),
       gate=st.sampled_from([DEFAULTS.pole_interval_gate, 0.3, 2.0]))
def test_flag_rows_match_per_pair_reference_on_draws(n, seed, gate):
    # wider pole gates make the pole flag fire on random draws too
    cfg = replace(DEFAULTS, pole_interval_gate=gate)
    rng = np.random.default_rng(seed)
    pairs = [random_cauchy_pair(n, rng) for _ in range(12)]
    nodes = np.array([p.nodes for p in pairs])
    poles = np.array([p.poles for p in pairs])
    got = _flag_rows(nodes, poles, _cauchy_b(nodes, poles), cfg)
    assert got == [conditioning_flags_reference(p, cfg) for p in pairs]


def test_batch_builds_pairs_only_for_checked_draws(monkeypatch):
    built = []
    post_init = CauchyPair.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CauchyPair, "__post_init__", counting)
    rep = borchardt_batch([10], 20, 0)
    assert rep.draws == 400 and rep.checked == 0
    assert built == []
    rep = borchardt_batch([3], 20, 0)
    assert rep.checked == 20
    assert built == []


@pytest.mark.parametrize("sizes,seed", [
    ([10], 0),  # checks none, so computes no permanent
    *[([7], seed) for seed in range(8)],  # the last chunk draws past the stop
    ([2, 10], 0),
    ([4], 5),  # a draw past the stop
])
def test_batch_checks_only_tallied_draws(monkeypatch, sizes, seed):
    # an excluded draw, or one drawn past the stop, gets no permanent
    permanents = []
    ryser_stack = cauchy._ryser_stack

    def counting(ms, work=None):
        permanents.append(len(ms))
        return ryser_stack(ms, work)

    monkeypatch.setattr(cauchy, "_ryser_stack", counting)
    rep = borchardt_batch(sizes, 20, seed)
    assert sum(permanents) == rep.checked


def test_batch_spent_draw_past_the_stop_does_not_raise(monkeypatch):
    # with every pole modulus 2, a size-3 draw of three real poles repeats
    # one: its retries run out and it is no valid pair.  A cond(B) gate at
    # 19 excludes the first draw, so the second chunk is sized from a pass
    # rate of 0 and draws on past the one check the batch still needs
    cfg = replace(DEFAULTS, det_condition_gate=19.0)
    chunks = []

    def drawing(ns, rng):
        drawn, spent = _draw_pairs(ns, rng, 2.0, 2.0)
        chunks.append((drawn, spent))
        return drawn, spent

    monkeypatch.setattr(cauchy, "_draw_pairs", drawing)
    got = borchardt_batch([3], 1, 53, cfg=cfg)
    want = borchardt_batch_serial_reference([3], 1, 53, cfg, min_abs=2.0, max_abs=2.0)
    assert exact(dataclasses.asdict(got)) == exact(dataclasses.asdict(want))
    assert (got.draws, got.checked, got.excluded) == (2, 1, 1)
    # the second chunk ends at its spent draw, the one past the stop
    ((drawn, spent),) = chunks[1:]
    ((idx, nodes, poles),) = drawn.values()
    assert spent and idx == [0, 1]
    with pytest.raises(DomainError, match="poles must be pairwise distinct"):
        CauchyPair(tuple(nodes[-1].tolist()), tuple(poles[-1].tolist()))
    # the tally validates a spent draw it reaches, as a single draw would
    with pytest.raises(DomainError, match="poles must be pairwise distinct"):
        borchardt_batch([3], 2, 53, cfg=cfg)
    with pytest.raises(DomainError, match="poles must be pairwise distinct"):
        borchardt_batch_serial_reference([3], 2, 53, cfg, min_abs=2.0, max_abs=2.0)


# the Borchardt draws' 1e-3, the criterion's default 1e-9, 0 and one between
SEPARATION_WITHIN = (0.0, 1e-9, 5e-4, 1e-3)


def pairwise_separation(poles, within):
    """The least distance over all pairs if it is at most ``within``, else inf."""
    least = min((abs(p - q) for j, p in enumerate(poles) for q in poles[j + 1 :]),
                default=math.inf)
    return least if least <= within else math.inf


@pytest.mark.parametrize("poles", [
    [],
    [2.0],
    [0.0, 1e-3],  # exactly 1e-3 apart along the real axis
    [3.0, complex(3.0, 1e-3)],  # exactly 1e-3 apart at equal real parts
    [complex(2.0, 5e-4), complex(2.0, -5e-4)],  # a conjugate pair 1e-3 apart
    [complex(2.0, 5.1e-4), complex(2.0, -5.1e-4)],
    [complex(2.0, 0.3), complex(2.0, 0.3005)],  # equal real parts, 5e-4 apart
    [complex(2.0, 0.3), complex(2.0, -0.3), complex(2.0, 0.31)],
    [complex(2.0, 1.0), complex(2.0005, -1.0)],  # real parts close, poles far
    [5.0, 2.0, 2.0 + 1.0000001e-3, -3.0],  # real parts just over 1e-3 apart
    [5.0, 2.0, 2.0, -3.0],
])
def test_separation_sweep_matches_pairwise_rule(poles):
    poles = [complex(p) for p in poles]
    for within in SEPARATION_WITHIN:
        want = pairwise_separation(poles, within)
        assert _min_pole_separation(poles, within) == want
        assert _min_pole_separation(poles[::-1], within) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.booleans()), max_size=8))
def test_separation_sweep_matches_pairwise_rule_on_a_grid(points):
    # a 5e-4 grid puts many pairs at and near the 1e-3 threshold
    poles = []
    for i, j, pair in points:
        z = complex(2.0 + i * 5e-4, j * 5e-4)
        poles += [z, z.conjugate()] if pair else [z]
    for within in SEPARATION_WITHIN:
        want = pairwise_separation(poles, within)
        assert _min_pole_separation(poles, within) == want
        assert _min_pole_separation(poles[::-1], within) == want


@pytest.mark.parametrize("sizes,trials", [
    ([], 5),
    ([3], 0),
    ([3], -2),
    ([0], 5),
    ([2, DEFAULTS.permanent_max_n + 1], 5),
    ([2.5], 5),
])
def test_batch_rejects_bad_input(sizes, trials):
    with pytest.raises(DomainError):
        borchardt_batch(sizes, trials, 0)


def test_batch_working_set_is_bounded():
    # the stacked tables are capped at two _RYSER_TABLE buffers (512 KB), as
    # for one n = 16 permanent; stacking a chunk's 20 tables at n = 10
    # would take 6.5 MB
    borchardt_batch([10], 20, 0)
    tracemalloc.start()
    try:
        borchardt_batch([10], 20, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------- decomposition

def test_komarov_worked_example():
    dec = komarov_coefficients((2.0, -2.0), (3.0,))
    assert dec.gamma[0] == pytest.approx(-0.25, abs=1e-14)
    assert dec.gamma[1] == pytest.approx(1.25, abs=1e-14)
    # both sides equal 1/3 at x = 0
    assert dec.lhs(0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert dec.rhs(0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert type(dec.lhs(0.0)) is complex and type(dec.rhs(0.0)) is complex
    assert dec.max_residual() <= 1e-12


def test_komarov_vectorized_sides_match_pointwise():
    dec = komarov_coefficients((2.0, -2.0, 1.5 + 1j, 1.5 - 1j), (3.0, -2.5j, 2.5j))
    pts = dec.validation_points()
    assert 0 < len(pts) <= 50
    lhs, rhs = dec.lhs(pts), dec.rhs(pts)
    assert lhs.shape == rhs.shape == pts.shape
    for x, left, right in zip(pts, lhs, rhs):
        assert left == pytest.approx(dec.lhs(float(x)), rel=1e-14)
        assert right == pytest.approx(dec.rhs(float(x)), rel=1e-14)
    assert dec.max_residual() == float(np.max(np.abs(lhs - rhs)))


def test_komarov_empty_and_equal():
    dec = komarov_coefficients((2.0,), ())
    assert dec.gamma == (complex(1.0),)
    same = komarov_coefficients((2.0, -2.0), (2.0, -2.0))
    assert all(abs(g) == 0.0 for g in same.gamma)


def test_komarov_preconditions():
    with pytest.raises(DomainError):
        komarov_coefficients((2.0, 2.0), (3.0,))
    with pytest.raises(DomainError):
        komarov_coefficients((2.0,), (3.0, 4.0))


def random_pole_sets(rng, max_n=6):
    """Conjugate-closed pole draws with |z| > 1, well separated."""
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(0, n + 1))

    def draw(count):
        out = []
        while len(out) < count:
            left = count - len(out)
            if left >= 2 and rng.uniform() < 0.5:
                z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.4, 2.5))
                if abs(z) <= 1.2:
                    continue
                out += [z, z.conjugate()]
            else:
                mag = rng.uniform(1.4, 3.5)
                out.append(complex(mag if rng.uniform() < 0.5 else -mag, 0.0))
        return out

    for _ in range(100):
        p = draw(n)
        seps = [abs(x - y) for i, x in enumerate(p) for y in p[i + 1 :]]
        if not seps or min(seps) > 0.35:
            return tuple(p), tuple(draw(m))
    return tuple(draw(n)), tuple(draw(m))


def test_komarov_random_identity():
    rng = np.random.default_rng(9)
    for _ in range(60):
        p, q = random_pole_sets(rng)
        dec = komarov_coefficients(p, q, validate=False)
        assert dec.max_residual() <= 1e-9


def test_komarov_validate_raises_on_loose_tolerance():
    # with an absurdly tight tolerance the validation gate must fire
    with pytest.raises(ToleranceNotMetError):
        komarov_coefficients((2.0, -2.0, 1.7), (3.0,), cfg=replace(DEFAULTS, komarov_tol=1e-30))


def test_komarov_validation_fails_on_a_non_finite_residual():
    # the residue form's p/q ratio overflows at the validation points; this
    # once passed validation with a RuntimeWarning, its residual NaN
    with pytest.raises(EvaluationError, match="at x = -1.0"):
        komarov_coefficients([1e200, -1e200], [1e200])


def test_komarov_residual_at_a_pole_names_the_point():
    dec = komarov_coefficients((2.0, -2.0), (3.0,))
    with pytest.raises(EvaluationError, match=r"at x = 2\.0: x lies at a pole"):
        dec.max_residual(points=[0.0, 2.0])
    assert dec.max_residual(points=[0.0, 0.5]) <= DEFAULTS.komarov_tol


@pytest.mark.parametrize("m", [[[math.nan]], [[1.0, math.inf], [0.0, 1.0]], "ab", [["x"]]])
def test_permanent_rejects_non_finite_or_non_numeric_entries(m):
    # [[nan]] once gave nan+nanj and "ab" a raw ValueError
    with pytest.raises(DomainError):
        permanent_ryser(m)


def test_closed_form_det_overflow_is_a_domain_error():
    # a valid pair whose products overflow: once nan+nanj
    pair = CauchyPair(tuple(np.linspace(-1.0, 1.0, 20).tolist()),
                      tuple(1e20 * k for k in range(1, 21)))
    with pytest.raises(DomainError, match="float range"):
        cauchy_det_closed_form(pair)


def test_komarov_with_no_point_to_check_is_a_domain_error():
    # poles every 0.2 along the segment leave no validation point 0.1 away
    # from all of them: np.max of nothing once raised a raw ValueError
    with pytest.raises(DomainError, match="no point to evaluate"):
        komarov_coefficients([round(-1.0 + 0.2 * k, 12) for k in range(11)], [])
    with pytest.raises(DomainError, match="no point to evaluate"):
        komarov_coefficients([2.0], []).max_residual(points=[])


def test_komarov_coefficients_outside_the_float_range():
    # p'(z_k) underflows to 0: once a raw ZeroDivisionError
    with pytest.raises(DomainError, match="residue coefficients"):
        komarov_coefficients([1e-200, 2e-200, 3e-200], [], validate=False)
