"""Sampled-function carriers and built-in target parsing."""

import numpy as np
import pytest

from simplefrac.errors import DomainError
from simplefrac.targets import (
    SampledFunction,
    load_sampled_csv,
    parse_pole_list,
    parse_target,
)


def test_sampled_function_validation():
    with pytest.raises(DomainError):
        SampledFunction(xs=(0.0,), ys=(1.0,))  # fewer than 2 rows
    with pytest.raises(DomainError):
        SampledFunction(xs=(0.0, 0.0), ys=(1.0, 2.0))  # not strictly increasing
    with pytest.raises(DomainError):
        SampledFunction(xs=(0.0, 1.5), ys=(1.0, 2.0))  # outside [-1, 1]
    with pytest.raises(DomainError):
        SampledFunction(xs=(0.0, 1.0), ys=(1.0, float("nan")))


def test_sampled_function_interpolates_through_samples():
    sf = SampledFunction(xs=(-1.0, -0.25, 0.5, 1.0), ys=(2.0, 0.5, -1.0, 3.0))
    t = sf.as_target()
    got = t.values_on(np.array(sf.xs))
    assert got == pytest.approx(list(sf.ys), abs=1e-14)


def test_sampled_function_two_rows_is_linear():
    t = SampledFunction(xs=(-1.0, 1.0), ys=(0.0, 2.0)).as_target()
    assert t.values_on(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 40, 400])
def test_sampled_function_matches_scipy_natural_spline(n):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(n)
    xs = np.sort(rng.uniform(-0.9, 0.9, n))  # leaves both ends to extrapolate
    ys = rng.normal(0.0, 1.0, n)
    t = np.linspace(-1.0, 1.0, 1001)
    want = interpolate.CubicSpline(xs, ys, bc_type="natural")(t)
    got = SampledFunction(xs=tuple(xs.tolist()), ys=tuple(ys.tolist())).as_target().values_on(t)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_load_sampled_csv_with_header(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("x,value\n-1.0,2.0\n0.0,0.0\n1.0,2.0\n")
    sf = load_sampled_csv(str(path))
    assert sf.xs == (-1.0, 0.0, 1.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("x,value\n0.0,1.0\nnonsense,row\n")
    with pytest.raises(DomainError):
        load_sampled_csv(str(bad))


def test_parse_pole_list():
    assert parse_pole_list("2,-2") == (complex(2), complex(-2))
    assert parse_pole_list("1+2j, 1-2j") == (complex(1, 2), complex(1, -2))
    with pytest.raises(DomainError):
        parse_pole_list("")
    with pytest.raises(DomainError):
        parse_pole_list("2,notanumber")


def test_parse_target_builtins():
    xs = np.array([-0.5, 0.0, 0.75])
    assert parse_target("zero").values_on(xs).tolist() == [0.0, 0.0, 0.0]
    assert parse_target("abs").values_on(xs).tolist() == [0.5, 0.0, 0.75]
    cheb3 = parse_target("cheb:3").values_on(xs)
    assert cheb3 == pytest.approx(4.0 * xs**3 - 3.0 * xs, abs=1e-14)
    ld = parse_target("ld:2,-2").values_on(xs)
    assert ld == pytest.approx(1.0 / (xs - 2.0) + 1.0 / (xs + 2.0), abs=1e-14)
    pert = parse_target("ldcheb:2,-2:1e-3:3").values_on(xs)
    assert pert == pytest.approx(ld + 1e-3 * (4.0 * xs**3 - 3.0 * xs), abs=1e-14)


def test_parse_target_errors():
    for bad in ("nope", "cheb:x", "cheb:-1", "ldcheb:2,-2:oops:3", "ld:"):
        with pytest.raises(DomainError):
            parse_target(bad)
