"""Solver-quality floors: the counts of tools/quality.py may rise, never fall.

A change that improves a count raises its floor here in the same change;
lowering a floor loosens the check.  The n = 1..32 monotonicity sweep is
left to the tool (``python3 tools/quality.py``), as it is the slow part.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "quality.py"


@pytest.fixture(scope="module")
def quality():
    spec = importlib.util.spec_from_file_location("quality", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_floors(quality):
    counts = quality.probe()["counts"]
    assert sum(counts.values()) == 20
    assert counts["certified"] >= 10
    assert counts["no_alternance"] <= 5


def test_fixed_pole_unweighted_floors(quality):
    counts = quality.fixed_pole_unweighted()["counts"]
    assert sum(counts.values()) == 15
    assert counts["inside"] >= 6
    assert counts["far_pole"] <= 3


def test_fixed_pole_weighted_floors(quality):
    counts = quality.fixed_pole_weighted()["counts"]
    assert sum(counts.values()) == 18
    assert counts["within_1e-10"] >= 8
    assert counts["far_pole"] <= 3
