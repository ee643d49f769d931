"""solve_best_ld's outputs, pinned bit for bit on runs that reach each branch
of its start loop.

``solver_pinned.json`` holds, as ``float.hex``, the poles, error, alternance,
lower bound and gap of each run, with its certificate flag and diagnostics.
They were computed while the solver still ran its exchange starts one after
another, with one residual scan per call.  Running the starts in lockstep,
each round's scans as rows of one call, reorders no arithmetic, so not one
bit may move.  The runs reach these branches:

- ``stop-at-start-0``: start 0 equioscillates with poles outside the closed
  unit disk, and starts 1-7 are skipped;
- ``stop-at-a-later-start``: a later start does, and the starts after it are
  skipped;
- ``later-start-wins``: a later start beats start 0, with no early stop;
  starts there end with ``pole on [-1, 1]``;
- ``far-poles-win``: the fraction with all free poles far away wins;
- ``discarded``: the target's pole sits 1.2e-12 beyond +1, and perturbed
  start iterates with that pole moved onto [-1, 1] are discarded;
- ``weighted`` and ``fixed-pole``: runs that never stop early.

To regenerate the file (only ever on purpose): ``python
tests/test_solver_pinned.py`` with ``src`` on the path.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from simplefrac.minimax import ApproxOptions, TargetFunction, solve_best_ld
from simplefrac.targets import parse_target

PINNED = Path(__file__).with_name("solver_pinned.json")

TARGETS = {
    "exp": np.exp,
    "cos5": lambda x: np.cos(5.0 * np.asarray(x, dtype=float)),
    "sqrt1px": lambda x: np.sqrt(1.0 + np.asarray(x, dtype=float)),
}

RUNS = {
    "stop-at-start-0": ("cos5", 3, {}),
    "stop-at-a-later-start": ("abs", 3, {}),
    "later-start-wins": ("exp", 2, {}),
    "far-poles-win": ("cos5", 4, {"fixed_pole": 3.0}),
    "discarded": ("ld:1.0000000000012,-3", 2, {"seed": 3}),
    "weighted": ("sqrt1px", 4, {"weighted": True}),
    "fixed-pole": ("abs", 3, {"fixed_pole": 3.0}),
}


def hexes(values):
    return [float(v).hex() for v in values]


def fingerprint(name: str) -> dict:
    target, n, opts = RUNS[name]
    f = TargetFunction(TARGETS[target], target) if target in TARGETS else parse_target(target)
    res = solve_best_ld(f, n, ApproxOptions(**opts))
    alt = res.alternance
    return {
        "poles": hexes(v for z in res.rho.poles for v in (z.real, z.imag)),
        "error": hexes([res.error, res.dvp_lower, res.gap]),
        "alternance": hexes(alt.points + alt.values + (alt.level,)),
        "certified": [res.certified, alt.sign_pattern_ok],
        "diagnostics": list(res.diagnostics),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_solver_outputs_pinned(name):
    assert fingerprint(name) == json.loads(PINNED.read_text())[name]


if __name__ == "__main__":
    PINNED.write_text(json.dumps({name: fingerprint(name) for name in RUNS}, indent=1) + "\n")
    sys.stdout.write(f"wrote {PINNED}\n")
