"""Scalar inputs: every public entry point checks its integer, real and
complex arguments with the helpers of ``simplefrac.errors`` and raises
DomainError for a bad one, with no warning and no output."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from simplefrac import (
    ApproxOptions,
    CauchyPair,
    ChebKind,
    Config,
    EllipseParam,
    FixedPoleClass,
    LogDerivative,
    RootedPolynomial,
    SampledFunction,
    TargetFunction,
    borchardt_batch,
    cheb_t,
    cheb_u,
    chebyshev_points,
    ellipse_classify,
    eval_cheb,
    joukowski,
    komarov_coefficients,
    random_cauchy_pair,
    random_rooted_polynomial,
    residual_alternance,
    solve_best_ld,
    solve_t_equals,
    witness_ratio_empirical,
)
from simplefrac.cli import main
from simplefrac.errors import DomainError, require_complex, require_int, require_real
from simplefrac.extremal import corollary_min_a

SRC = Path(__file__).resolve().parents[1] / "src" / "simplefrac"
T = ChebKind.FIRST_KIND
NAN, INF = math.nan, math.inf
ABS = TargetFunction(np.abs, "abs")

# bad values by kind: a degree or count, a non-negative integer, a real, a complex
DEGREE = (2.5, 3.0, True, 0, -1, "x", None)
NON_NEGATIVE = (2.5, True, -1, "x", None)
REAL = (NAN, INF, -INF, "x", 1j, None)
COMPLEX = (NAN, complex(1.0, INF), "x", None)

SITES = [
    ("eval_cheb-n", lambda v: eval_cheb(T, v, 0.5), NON_NEGATIVE),
    ("eval_cheb-z", lambda v: eval_cheb(T, 3, v), COMPLEX),
    ("cheb_t-n", lambda v: cheb_t(v, np.array([0.5])), NON_NEGATIVE),
    ("cheb_u-n", lambda v: cheb_u(v, np.array([0.5])), NON_NEGATIVE),
    ("joukowski-w", joukowski, COMPLEX),
    ("ellipse_classify-z", lambda v: ellipse_classify(EllipseParam(2.0), v), COMPLEX),
    ("EllipseParam-p", EllipseParam, REAL + (1.0, -2.0)),
    ("solve_t_equals-n", lambda v: solve_t_equals(v, 0.5), DEGREE),
    ("solve_t_equals-c", lambda v: solve_t_equals(4, v), REAL + (1.0,)),
    ("chebyshev_points-m", chebyshev_points, DEGREE + (1,)),
    ("corollary_min_a-n", corollary_min_a, DEGREE),
    ("FixedPoleClass-n", lambda v: FixedPoleClass(v, 3.0), DEGREE),
    ("FixedPoleClass-a", lambda v: FixedPoleClass(4, v), REAL + (1.0,)),
    ("FixedPoleClass-fa-n", lambda v: FixedPoleClass(v, 3.0).fa, (1, 2)),
    ("LogDerivative-pole", lambda v: LogDerivative((v,)), COMPLEX),
    ("residual_alternance-min_points",
     lambda v: residual_alternance(ABS, LogDerivative((2.0, -2.0)), v), DEGREE),
    ("residual_alternance-level_rtol",
     lambda v: residual_alternance(ABS, LogDerivative((2.0, -2.0)), 2, level_rtol=v),
     (NAN, INF, -INF, "x", 1j, -1e-3)),
    ("solve_best_ld-n", lambda v: solve_best_ld(ABS, v), DEGREE),
    ("solve_best_ld-n-fixed", lambda v: solve_best_ld(ABS, v, ApproxOptions(fixed_pole=2.0)),
     DEGREE + (1,)),
    ("ApproxOptions-starts", lambda v: ApproxOptions(starts=v), DEGREE),
    ("ApproxOptions-seed", lambda v: ApproxOptions(seed=v), NON_NEGATIVE + (1.5,)),
    ("ApproxOptions-fixed_pole", lambda v: ApproxOptions(fixed_pole=v), REAL[:-1] + (0.5, -1.0)),
    ("CauchyPair-node", lambda v: CauchyPair((v,), (2.0,)), REAL),
    ("CauchyPair-pole", lambda v: CauchyPair((0.0,), (v,)), COMPLEX),
    ("random_cauchy_pair-n", lambda v: random_cauchy_pair(v, np.random.default_rng(0)), DEGREE),
    ("random_cauchy_pair-min_abs",
     lambda v: random_cauchy_pair(3, np.random.default_rng(0), min_abs=v), REAL + (0.0,)),
    ("random_cauchy_pair-max_abs",
     lambda v: random_cauchy_pair(3, np.random.default_rng(0), max_abs=v), REAL + (1.0,)),
    ("borchardt_batch-size", lambda v: borchardt_batch([v], 2, 0), DEGREE),
    ("borchardt_batch-sizes", lambda v: borchardt_batch(v, 2, 0), (3, 2.5, None, [])),
    ("borchardt_batch-trials", lambda v: borchardt_batch([3], v, 0), DEGREE),
    ("borchardt_batch-seed", lambda v: borchardt_batch([3], 2, v), NON_NEGATIVE + (1.5,)),
    ("komarov_coefficients-p", lambda v: komarov_coefficients((v,), ()), COMPLEX),
    ("komarov_coefficients-q", lambda v: komarov_coefficients((2.0,), (v,)), COMPLEX),
    ("RootedPolynomial-a", lambda v: RootedPolynomial(a=v, cofactor_roots=(), force=True),
     REAL + (1.0,)),
    ("RootedPolynomial-lead",
     lambda v: RootedPolynomial(a=3.0, cofactor_roots=(), lead=v, force=True), REAL + (0.0,)),
    ("RootedPolynomial-root",
     lambda v: RootedPolynomial(a=3.0, cofactor_roots=(v,), force=True), COMPLEX),
    ("random_rooted_polynomial-n",
     lambda v: random_rooted_polynomial(v, 3.0, np.random.default_rng(0)), DEGREE + (1,)),
    ("witness_ratio_empirical-which", lambda v: witness_ratio_empirical(8, 3.0, v),
     (2.5, True, 0, 3, -1, "x", None)),
    ("SampledFunction-x", lambda v: SampledFunction(xs=(v, 1.0), ys=(0.0, 1.0)), REAL),
    ("SampledFunction-y", lambda v: SampledFunction(xs=(0.0, 1.0), ys=(v, 1.0)), REAL),
    ("Config-supnorm_xtol", lambda v: Config(supnorm_xtol=v), REAL + (0.0, -1.0)),
    ("Config-komarov_points", lambda v: Config(komarov_points=v), DEGREE + (1,)),
]


@pytest.mark.parametrize("call,value", [
    pytest.param(call, value, id=f"{name}-{value!r}")
    for name, call, values in SITES for value in values
])
def test_bad_scalar_raises_domain_error_quietly(call, value, capfd):
    # a bool once passed as degree 1, and many of these raised a raw
    # TypeError or ValueError, or warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(value)
    assert capfd.readouterr() == ("", "")


def test_helpers_convert_and_keep_the_messages():
    assert require_int("n", np.int64(5), 1) == 5 and type(require_int("n", np.int64(5), 1)) is int
    assert require_real("a", np.float32(0.5)) == 0.5 and require_real("a", 3, 1.0) == 3.0
    assert require_real("b", 2.0, 2.0, inclusive=True) == 2.0
    assert require_complex("z", 2) == complex(2.0)
    with pytest.raises(DomainError, match="degree must be a positive integer, got True"):
        require_int("degree", True, 1)
    with pytest.raises(DomainError, match="degree must be a non-negative integer, got -1"):
        require_int("degree", -1, 0)
    with pytest.raises(DomainError, match="m must be an integer >= 2, got 1"):
        require_int("m", 1, 2)
    with pytest.raises(DomainError, match=r"a must be a finite real number > 1.0, got 1"):
        require_real("a", 1, 1.0)
    with pytest.raises(DomainError, match=r"b must be a finite real number >= 2.0, got 1.5"):
        require_real("b", 1.5, 2.0, inclusive=True)
    with pytest.raises(DomainError, match="a must be a finite real number, got 10000"):
        require_real("a", 10**400)  # float() overflows
    with pytest.raises(DomainError, match=r"z must be a finite complex number, got \(nan"):
        require_complex("z", complex(NAN, 0.0))


def test_valid_values_convert_bit_for_bit():
    # numpy scalars become Python ones with the same value
    cls = FixedPoleClass(np.int64(6), np.float64(3.0))
    assert type(cls.n) is int and type(cls.a) is float and cls == FixedPoleClass(6, 3.0)
    opts = ApproxOptions(starts=np.int64(2), seed=np.int64(5), fixed_pole=2)
    assert opts == ApproxOptions(starts=2, seed=5, fixed_pole=2.0)
    assert type(opts.fixed_pole) is float
    assert borchardt_batch([np.int64(3)], 2, np.int64(1)) == borchardt_batch([3], 2, 1)
    assert chebyshev_points(np.int64(9)).tolist() == chebyshev_points(9).tolist()
    # level_rtol: None keeps every extremum, and an integer 0 reads as 0.0
    rho = LogDerivative((2.0, -2.0))
    assert residual_alternance(ABS, rho, 2, level_rtol=None) == residual_alternance(ABS, rho, 2)
    assert (residual_alternance(ABS, rho, 2, level_rtol=0)
            == residual_alternance(ABS, rho, 2, level_rtol=0.0))


@pytest.mark.parametrize("argv", [
    ("borchardt", "--n", "3", "--trials", "2", "--seed", "-1"),
    ("approx", "--target", "abs", "--n", "2", "--fixed-pole", "nan"),
    ("approx", "--target", "abs", "--n", "2", "--seed", "-1"),
    ("approx", "--target", "abs", "--n", "2", "--starts", "0"),
])
def test_cli_rejects_bad_scalars(argv, capfd):
    # the seed of -1 once died with a traceback, the NaN fixed pole let LAPACK
    # print to stdout, and approx with seed -1 exited 0
    assert main(list(argv)) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_scalar_checks_have_one_owner():
    # only errors.py defines a _require_* helper, calls operator.index or
    # tests isinstance(..., (int, np.integer))
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("_require"):
                offenders.append(f"{path.name}:{node.lineno}: defines {node.name}")
            elif isinstance(node, ast.Attribute) and node.attr == "index" \
                    and isinstance(node.value, ast.Name) and node.value.id == "operator":
                offenders.append(f"{path.name}:{node.lineno}: operator.index")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" and len(node.args) == 2:
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else []
                names = {ast.unparse(k) for k in kinds}
                if "int" in names and "np.integer" in names:
                    offenders.append(f"{path.name}:{node.lineno}: isinstance int check")
    assert offenders == []
