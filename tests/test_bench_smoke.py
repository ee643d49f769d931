"""Smoke guard for the traced benchmark run.

The traced run wraps package functions by name from outside
(``LogDerivative.values_on``, ``_optim.supremum_on_grid(fn, grid, xtol,
maxiter)``, ``local_extrema`` in ``_optim`` and ``minimax``, and
``cauchy.permanent_ryser``), so a rename or signature change in the package
breaks it; this catches that in the unit-test run.  ``supremum_on_grid``
and ``local_extrema`` each keep that signature for one row and for many:
the multi-row form, which ``check_corollary`` calls through
``bernstein.supremum_on_grid`` and the solver through
``minimax.local_extrema`` once per round of scans, is told apart by the
shape of ``fn(grid)``, so the traced run sees it in the same spans.  One
traced pass at the smallest sizes takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_smoke(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--smoke", "--seed", "3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_paper_sweep_smoke():
    assert traced_smoke("paper-sweep")["correct"] is True


def test_traced_identity_batch_smoke():
    # the ryser ops must reach the permanent through the module attribute
    # that the tracer wraps; the batch ops run the stacked kernel instead,
    # and their time shows in cauchy.batch_s
    out = traced_smoke("identity-batch")
    assert out["correct"] is True
    assert out["metrics"]["cauchy.ryser_calls"]["value"] > 0
