"""The configuration is one frozen value, passed explicitly.

No module outside ``config.py`` may read the shared defaults: ``DEFAULTS``
appears elsewhere only in imports and as a parameter default, so every gate
reads the ``cfg`` its caller handed down.  The CLI builds its Config once,
from the defaults, the ``SIMPLEFRAC_CONFIG`` file, ``--config`` and the
``--tol`` flag, in that order, and leaves the defaults as they were.
"""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import simplefrac
import simplefrac.config
from simplefrac.cauchy import komarov_coefficients
from simplefrac.cli import main
from simplefrac.config import DEFAULTS, Config, load_config
from simplefrac.errors import DomainError

SRC = Path(simplefrac.__file__).parent


def _allowed(node: ast.Name, parent: ast.AST) -> bool:
    """A parameter default, or the default of a dataclass InitVar."""
    if isinstance(parent, ast.arguments):
        return node in parent.defaults or node in parent.kw_defaults
    if isinstance(parent, ast.AnnAssign) and parent.value is node:
        ann = parent.annotation
        return isinstance(ann, ast.Subscript) and getattr(ann.value, "id", "") == "InitVar"
    return False


def test_defaults_only_as_parameter_default():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                if isinstance(child, ast.Name) and child.id == "DEFAULTS":
                    if not _allowed(child, parent):
                        offenders.append(f"{path.name}:{child.lineno}")
                elif isinstance(child, ast.alias) and child.name == "DEFAULTS":
                    assert isinstance(parent, ast.ImportFrom) and parent.module == "config"
    assert offenders == []
    assert simplefrac.DEFAULTS is DEFAULTS  # the package re-export


def test_defaults_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULTS.komarov_tol = 1e-30
    assert not hasattr(simplefrac.config, "apply_config")


def _report(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)["inputs"]


def test_merge_order(tmp_path, monkeypatch, capsys):
    env_file = tmp_path / "env.cfg"
    env_file.write_text("borchardt_tol = 1e-20\nkomarov_tol = 1e-5\n")
    cli_file = tmp_path / "cli.cfg"
    cli_file.write_text("borchardt_tol = 1e-18\nsupnorm_xtol = 1e-9\n")
    pair = ("borchardt", "--nodes", "0,0.5", "--poles", "2,-2", "--format", "json")

    monkeypatch.delenv("SIMPLEFRAC_CONFIG", raising=False)
    assert load_config() == Config()
    code, inputs = _report(capsys, *pair)
    assert code == 0 and "config" not in inputs

    monkeypatch.setenv("SIMPLEFRAC_CONFIG", str(env_file))
    assert load_config() == Config(borchardt_tol=1e-20, komarov_tol=1e-5)
    code, inputs = _report(capsys, *pair)
    assert inputs["config"] == {"borchardt_tol": 1e-20, "komarov_tol": 1e-5}
    assert code == 1  # the env file's tolerance is in effect

    code, inputs = _report(capsys, "--config", str(cli_file), *pair)
    assert inputs["config"] == {"borchardt_tol": 1e-18, "komarov_tol": 1e-5,
                                "supnorm_xtol": 1e-9}

    code, inputs = _report(capsys, "--config", str(cli_file), *pair, "--tol", "1e-12")
    assert inputs["config"] == {"borchardt_tol": 1e-12, "komarov_tol": 1e-5,
                                "supnorm_xtol": 1e-9}
    assert inputs["tol"] == 1e-12 and code == 0


def test_cli_config_does_not_leak_into_library_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SIMPLEFRAC_CONFIG", raising=False)
    tight = tmp_path / "tight.cfg"
    tight.write_text("komarov_tol = 1e-30\n")
    code = main(["--config", str(tight), "komarov", "--p-poles", "2,-2,1.7", "--q-poles", "3"])
    capsys.readouterr()
    assert code == 1  # the run itself used the tight tolerance
    assert simplefrac.config.DEFAULTS == Config()
    komarov_coefficients((2.0, -2.0, 1.7), (3.0,))  # the default gate passes


@pytest.mark.parametrize("field,value", [
    ("supnorm_xtol", float("nan")),  # once accepted, and reported as refinement_tol=nan
    ("supnorm_xtol", 0.0),
    ("residual_floor", 0.0),
    ("borchardt_tol", -1e-10),
    ("komarov_tol", float("inf")),
    ("supnorm_min_grid", 2.5),  # once accepted
    ("supnorm_min_grid", 1),
    ("komarov_points", 1),
    ("permanent_max_n", 0),
    ("supnorm_grid_per_degree", True),
])
def test_config_checks_its_fields(field, value):
    with pytest.raises(DomainError, match=field):
        Config(**{field: value})
    with pytest.raises(DomainError, match=field):
        dataclasses.replace(DEFAULTS, **{field: value})


def test_config_keeps_zero_tolerances_and_converts():
    cfg = Config(solve_t_residual_tol=0.0, komarov_tol=1, permanent_max_n=np.int64(12))
    assert cfg.solve_t_residual_tol == 0.0 and type(cfg.komarov_tol) is float
    assert type(cfg.permanent_max_n) is int and cfg.permanent_max_n == 12


def test_bad_config_value_exits_2_naming_the_field(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SIMPLEFRAC_CONFIG", raising=False)
    path = tmp_path / "bad.cfg"
    path.write_text("supnorm_xtol = nan\n")
    assert main(["--config", str(path), "extremal", "--n", "4", "--a", "3"]) == 2
    assert "supnorm_xtol" in capsys.readouterr().err
    assert main(["extremal", "--n", "4", "--a", "3", "--tol", "-1"]) == 2
    assert "supnorm_xtol" in capsys.readouterr().err
