"""CLI contract: flags, exit codes, formats, determinism, config handling."""

import json
import math
import subprocess
import sys
import warnings

import pytest

from simplefrac.cli import main
from simplefrac.report import _simplify, _to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extremal_json_worked_values(capsys):
    code, out, _ = run_cli(
        capsys, "extremal", "--n", "2", "--a", "2", "--weighted", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == "1"
    assert data["outputs"]["norm"] == pytest.approx(0.2886751, abs=1e-7)
    assert sorted(p[0] for p in data["outputs"]["poles"]) == [-2.0, 2.0]
    assert all(abs(r) < 1e-10 for r in data["outputs"]["ellipse_residuals"])


def test_extremal_degree_one(capsys):
    code, out, _ = run_cli(
        capsys, "extremal", "--n", "1", "--a", "2", "--weighted", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["outputs"]["norm"] == pytest.approx(0.5773503, abs=1e-7)


def test_extremal_range_gate_and_force(capsys):
    code, _, err = run_cli(capsys, "extremal", "--n", "2", "--a", "1.2", "--weighted")
    assert code == 2
    assert "sqrt(2)" in err
    code, out, _ = run_cli(
        capsys, "extremal", "--n", "2", "--a", "1.2", "--weighted", "--force",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["diagnostics"]


def test_extremal_past_the_float_range_is_a_usage_error(capsys):
    # T_404(3) overflows a float: an error line, not a traceback
    code, out, err = run_cli(capsys, "extremal", "--n", "404", "--a", "3", "--weighted")
    assert code == 2
    assert out == ""
    assert err.startswith("error: T_404 out of range") and "log |T_404(z)| = 711.45" in err


def test_json_round_trip_byte_identical(capsys):
    _, out, _ = run_cli(
        capsys, "extremal", "--n", "3", "--a", "2.5", "--weighted", "--format", "json"
    )
    parsed = json.loads(out)
    assert _to_json(_simplify(parsed), 17) + "\n" == out


def test_borchardt_worked_instance(capsys):
    code, out, _ = run_cli(
        capsys, "borchardt", "--n", "2", "--nodes", "0,0.5", "--poles", "2,-2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["rel_residual"] <= 1e-14
    assert data["outputs"]["lhs_det_a"][0] == pytest.approx(-16.0 / 225.0, abs=1e-14)


def test_borchardt_batch(capsys):
    code, out, _ = run_cli(
        capsys, "borchardt", "--n", "6", "--trials", "100", "--seed", "7",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["checked"] == 100
    assert data["outputs"]["max_rel_residual"] <= 1e-10


def test_borchardt_size_gate(capsys):
    code, _, err = run_cli(capsys, "borchardt", "--n", "25", "--trials", "5")
    assert code == 2
    assert "20" in err


def test_borchardt_batch_with_no_checked_draw(capsys):
    # at n = 10 seed 0 every draw trips a conditioning gate; the minima over
    # checked draws are undefined and reported as null
    code, out, _ = run_cli(
        capsys, "borchardt", "--n", "10", "--trials", "1", "--seed", "0",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)["outputs"]
    assert data["checked"] == 0
    assert data["min_abs_det_a"] is None and data["min_normalized_det_a"] is None
    assert data["excluded_by_flag"] == {
        "node-separation": 0, "pole-interval-distance": 0, "determinant-conditioning": 20,
    }


@pytest.mark.parametrize("argv", [("--n", "0"), ("--n", "3", "--trials", "0")])
def test_borchardt_batch_rejects_bad_input(capsys, argv):
    code, _, err = run_cli(capsys, "borchardt", *argv)
    assert code == 2
    assert "error" in err


def test_import_does_not_load_scipy():
    # the package needs numpy alone: the solver, and the spline targets too
    code = ("import sys, numpy, simplefrac as sf; "
            "sf.solve_best_ld(sf.TargetFunction(numpy.abs), 3); "
            "spline = sf.SampledFunction(xs=(-1.0, -0.2, 0.3, 1.0), ys=(1.0, 0.0, 0.5, 2.0)); "
            "sf.solve_best_ld(spline.as_target(), 2); print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_borchardt_size_gate_reads_config(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("permanent_max_n = 21\n")
    code, _, err = run_cli(
        capsys, "--config", str(cfg),
        "borchardt", "--n", "21", "--trials", "1", "--seed", "0",
    )
    assert code != 2, err


def test_komarov_cli(capsys):
    code, out, _ = run_cli(
        capsys, "komarov", "--p-poles", "2,-2", "--q-poles", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["gamma"][0] == pytest.approx([-0.25, 0.0], abs=1e-14)
    assert data["outputs"]["gamma"][1][0] == pytest.approx(1.25, abs=1e-14)
    assert data["outputs"]["max_identity_residual"] <= 1e-12


def test_approx_representable(capsys):
    code, out, _ = run_cli(
        capsys, "approx", "--target", "ld:2,-2", "--n", "2", "--starts", "4",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["error"] <= 1e-8


def test_approx_weighted_abs_does_not_overflow(capsys):
    code, out, _ = run_cli(
        capsys, "approx", "--target", "abs", "--n", "2", "--starts", "2", "--weighted",
        "--format", "json",
    )
    assert code == 0
    assert math.isfinite(json.loads(out)["outputs"]["error"])


def test_approx_requires_certificate_paths(capsys):
    code, out, _ = run_cli(
        capsys, "approx", "--target", "ldcheb:2,-2:1e-3:3", "--n", "2",
        "--starts", "4", "--require-certificate", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["certified"] is True
    assert data["outputs"]["gap"] <= 0.01

    code, out, _ = run_cli(
        capsys, "approx", "--target", "zero", "--n", "1", "--starts", "2",
        "--require-certificate", "--format", "json",
    )
    assert code == 3
    assert json.loads(out)["outputs"]["certified"] is False


def test_approx_deterministic_output(capsys):
    args = ("approx", "--target", "ldcheb:2,-2:1e-3:3", "--n", "2",
            "--starts", "3", "--seed", "1", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_approx_csv_target(capsys, tmp_path):
    import numpy as np
    from simplefrac.extremal import LogDerivative

    xs = np.linspace(-1.0, 1.0, 81)
    ys = LogDerivative((2.0, -2.0)).values_on(xs)
    path = tmp_path / "target.csv"
    path.write_text(
        "x,value\n" + "\n".join(f"{float(x)!r},{float(y)!r}" for x, y in zip(xs, ys)) + "\n"
    )
    code, out, _ = run_cli(
        capsys, "approx", "--target", str(path), "--n", "2", "--starts", "3",
        "--format", "json",
    )
    assert code == 0
    # certification speaks about the interpolant; error should still be small
    assert json.loads(out)["outputs"]["error"] <= 1e-3


def test_approx_target_too_large_for_the_fit(capfd, tmp_path):
    # LAPACK once printed "On entry to DLASCL" lines to stdout here, with
    # exit code 0; then the Lawson fit refused the target.  Its rows would
    # overflow, so the fit stops and the solver answers from its fallback
    path = tmp_path / "huge.csv"
    path.write_text("x,value\n" + "".join(f"{x},1e300\n" for x in (-1.0, 0.0, 1.0)))
    code = main(["approx", "--target", str(path), "--n", "2", "--format", "json"])
    out, err = capfd.readouterr()
    assert code == 0 and err == ""
    assert json.loads(out)["outputs"]["error"] == 1e300


def test_approx_tol_sets_the_scan_tolerance(capsys, monkeypatch):
    # approx's --tol is the common flag: it sets supnorm_xtol, which every
    # residual scan of the solver refines to
    monkeypatch.delenv("SIMPLEFRAC_CONFIG", raising=False)
    argv = ("approx", "--target", "ldcheb:2,-2:1e-3:3", "--n", "2", "--starts", "2",
            "--format", "json")
    _, out, _ = run_cli(capsys, *argv)
    inputs = json.loads(out)["inputs"]
    assert "config" not in inputs and "tol" not in inputs and "grid" not in inputs
    code, out, _ = run_cli(capsys, *argv, "--tol", "1e-12")
    assert code == 0
    assert json.loads(out)["inputs"]["config"] == {"supnorm_xtol": 1e-12}
    code, _, _ = run_cli(capsys, *argv, "--grid", "129")
    assert code == 2


def test_approx_malformed_target(capsys):
    code, _, err = run_cli(capsys, "approx", "--target", "nonsense:1", "--n", "2")
    assert code == 2
    assert "unknown target" in err


@pytest.mark.parametrize("target", ["ld:0", "ldcheb:0.5,-3:1e-3:3"])
def test_approx_rejects_target_with_pole_on_segment(capsys, target):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "approx", "--target", target, "--n", "2")
    assert code == 2
    assert "pole on [-1, 1]" in err
    assert [str(w.message) for w in caught] == []


def test_sample_extremal(capsys, tmp_path):
    out_path = tmp_path / "s.csv"
    code, out, _ = run_cli(
        capsys, "sample", "--what", "extremal-weighted", "--n", "2", "--a", "2",
        "--grid", "5", "--out", str(out_path), "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["rows"] == 5
    assert data["outputs"]["max_abs_weight_value"] <= 0.2886752
    lines = out_path.read_text().split("\n")
    assert lines[0] == "x,value,weight_value"
    assert len(lines) == 7  # header + 5 rows + trailing newline
    # bitwise stability
    out_path2 = tmp_path / "s2.csv"
    run_cli(capsys, "sample", "--what", "extremal-weighted", "--n", "2", "--a", "2",
            "--grid", "5", "--out", str(out_path2), "--format", "json")
    assert out_path.read_bytes() == out_path2.read_bytes()


def test_sample_grid_gate(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sample", "--what", "extremal-weighted", "--n", "2", "--a", "2",
        "--grid", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_sample_residual(capsys, tmp_path):
    out_path = tmp_path / "r.csv"
    code, out, _ = run_cli(
        capsys, "sample", "--what", "residual", "--target", "zero",
        "--poles", "2,-2", "--grid", "9", "--out", str(out_path), "--format", "json",
    )
    assert code == 0
    assert out_path.read_text().startswith("x,value\n")


def test_sample_unwritable_path(capsys):
    code, _, err = run_cli(
        capsys, "sample", "--what", "extremal-weighted", "--n", "2", "--a", "2",
        "--grid", "5", "--out", "/nonexistent-dir/x.csv",
    )
    assert code == 2


def test_candidate_cli(capsys):
    code, out, _ = run_cli(capsys, "candidate", "--n", "4", "--a", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["lambda_lower"] == pytest.approx(8.0 / 546.0, rel=1e-12)
    assert data["outputs"]["bracket"]["lower"] == pytest.approx(1.0 / 68.0, rel=1e-10)
    assert data["outputs"]["annulus"]["all_in_closure_ea"] is True


def test_candidate_cli_at_high_degree(capsys):
    code, out, _ = run_cli(capsys, "candidate", "--n", "64", "--a", "3", "--format", "json")
    assert code == 0
    bracket = json.loads(out)["outputs"]["bracket"]
    assert bracket["lower"] <= bracket["upper"]


def test_bernstein_cli(capsys):
    code, out, _ = run_cli(
        capsys, "bernstein", "--n", "2", "--a", "2", "--cofactor=-2", "--lead", "2",
        "--force", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["lhs_weighted"] == pytest.approx(2.0, abs=1e-9)
    assert data["outputs"]["rhs_weighted"] == pytest.approx(12.0 / math.sqrt(48.0), rel=1e-10)
    assert data["outputs"]["both_hold"] is True
    assert data["outputs"]["r1"] == pytest.approx(math.sqrt(0.75), rel=1e-12)


def test_csv_and_human_formats(capsys):
    code, out, _ = run_cli(
        capsys, "extremal", "--n", "2", "--a", "2", "--weighted", "--format", "csv"
    )
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "key,value"
    assert any(line.startswith("outputs.norm,0.28867513") for line in lines)
    assert out.endswith("\n") and "\r" not in out

    code, out, _ = run_cli(
        capsys, "extremal", "--n", "2", "--a", "2", "--weighted", "--format", "human"
    )
    assert code == 0
    assert "norm: 0.2886751" in out  # 7 significant digits in human mode


def test_sample_candidate(capsys, tmp_path):
    out_path = tmp_path / "cand.csv"
    code, _, _ = run_cli(
        capsys, "sample", "--what", "candidate", "--n", "4", "--a", "3",
        "--grid", "7", "--out", str(out_path), "--format", "json",
    )
    assert code == 0
    body = out_path.read_text()
    assert body.startswith("x,value\n")
    assert len(body.strip().split("\n")) == 8


def test_pole_lists_from_files(capsys, tmp_path):
    nodes = tmp_path / "nodes.txt"
    poles = tmp_path / "poles.txt"
    nodes.write_text("0\n0.5\n")
    poles.write_text("2, -2\n")
    code, out, _ = run_cli(
        capsys, "borchardt", "--nodes", str(nodes), "--poles", str(poles),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["rel_residual"] <= 1e-14


def test_usage_errors(capsys):
    assert run_cli(capsys, "extremal", "--n", "2")[0] == 2  # missing --a
    assert run_cli(capsys, "no-such-command")[0] == 2


def test_config_file_and_env(capsys, tmp_path, monkeypatch):
    # tighten the identity tolerance so the worked borchardt instance fails
    cfg = tmp_path / "cfg"
    cfg.write_text("borchardt_tol = 1e-20\n")
    monkeypatch.setenv("SIMPLEFRAC_CONFIG", str(cfg))
    code, _, _ = run_cli(
        capsys, "borchardt", "--nodes", "0,0.5", "--poles", "2,-2"
    )
    assert code == 1  # residual ~4e-16 > 1e-20
    # explicit flag overrides the file
    code, _, _ = run_cli(
        capsys, "borchardt", "--nodes", "0,0.5", "--poles", "2,-2",
        "--tol", "1e-10",
    )
    assert code == 0


def test_config_run_reports_its_key(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("SIMPLEFRAC_CONFIG", raising=False)
    cfg = tmp_path / "cfg"
    cfg.write_text("komarov_points = 40\n")
    argv = ("komarov", "--p-poles", "2,-2", "--q-poles", "3", "--format", "json")
    _, out, _ = run_cli(capsys, *argv)
    assert "config" not in json.loads(out)["inputs"]
    code, out, _ = run_cli(capsys, "--config", str(cfg), *argv)
    data = json.loads(out)
    assert code == 0
    assert data["inputs"]["config"] == {"komarov_points": 40}
    assert data["outputs"]["validation_points"] == 40  # the run used it


def test_config_rejects_unknown_key(tmp_path):
    from simplefrac.config import parse_config_file
    from simplefrac.errors import DomainError

    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_knob = 1\n")
    with pytest.raises(DomainError):
        parse_config_file(str(bad))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "simplefrac", "extremal", "--n", "1", "--a", "2",
         "--weighted", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outputs"]["norm"] == pytest.approx(1 / math.sqrt(3))


def test_csv_target_identical_bytes_across_processes(tmp_path):
    import numpy as np
    from simplefrac.cheb import cheb_t
    from simplefrac.extremal import LogDerivative

    xs = np.linspace(-1.0, 1.0, 61)
    ys = LogDerivative((2.0, -1.5, 3.0)).values_on(xs) + 1e-3 * cheb_t(4, xs)
    path = tmp_path / "t.csv"
    path.write_text(
        "x,value\n" + "\n".join(f"{float(x)!r},{float(y)!r}" for x, y in zip(xs, ys)) + "\n"
    )
    cmd = [sys.executable, "-m", "simplefrac", "approx", "--target", str(path),
           "--n", "3", "--seed", "1", "--starts", "3", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
