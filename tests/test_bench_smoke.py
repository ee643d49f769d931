"""Smoke guard for the traced benchmark run.

The traced run wraps package functions by name from outside
(``LogDerivative.values_on``, ``_optim.supremum_on_grid(fn, grid, xtol,
maxiter)`` and ``local_extrema`` in ``_optim`` and ``minimax``), so a rename
or signature change in the package breaks it; this catches that in the
unit-test run.  One traced pass at the smallest sizes takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_paper_sweep_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-sweep",
         "--smoke", "--seed", "3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
