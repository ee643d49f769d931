"""The paper's checks, pinned bit for bit at small sizes.

``pinned_bits.json`` holds, as ``float.hex``, the outputs that were computed
before the alternance values, the deviation bracket, the corollary scans and
the first witness's scans were batched (array-valued double-double kernels,
one multi-row extremum scan).  Batching reorders no arithmetic, so not one
bit may move.  The sizes n in {4, 8, 16}, a in {2, 3, 5} lie below the
degrees where ``eval_ld`` and the colleague solve lose accuracy.

To regenerate the file (only ever on purpose): ``python
tests/test_pinned_bits.py`` with ``src`` on the path.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from simplefrac.bernstein import check_corollary, random_rooted_polynomial, witness_ratio_empirical
from simplefrac.errors import SimplefracError
from simplefrac.extremal import FixedPoleClass, alternance_points_weighted, dvp_bracket

PINNED = Path(__file__).with_name("pinned_bits.json")
SIZES = [(n, a) for n in (4, 8, 16) for a in (2.0, 3.0, 5.0)]


def hexes(values):
    return [float(v).hex() for v in values]


def paper_outputs(n: int, a: float) -> dict:
    cls = FixedPoleClass(n, a)
    rep, _ = alternance_points_weighted(cls)
    out = {"alternance": hexes(rep.points + rep.values + (rep.level,))}
    try:
        out["bracket"] = hexes(dvp_bracket(cls))
    except SimplefracError as exc:  # below the bracket's threshold on a
        out["bracket"] = type(exc).__name__
    poly = random_rooted_polynomial(n, a, np.random.default_rng([n, int(a)]))
    rep = check_corollary(poly)
    out["corollary"] = hexes([rep.lhs_w, rep.rhs_w, rep.lhs_u, rep.rhs_u, rep.min_abs_p])
    out["witness"] = hexes(witness_ratio_empirical(n, a, which) for which in (1, 2))
    return out


@pytest.mark.parametrize("n,a", SIZES)
def test_paper_outputs_pinned(n, a):
    assert paper_outputs(n, a) == json.loads(PINNED.read_text())[f"{n},{a:g}"]


if __name__ == "__main__":
    table = {f"{n},{a:g}": paper_outputs(n, a) for n, a in SIZES}
    PINNED.write_text(json.dumps(table, indent=1) + "\n")
    sys.stdout.write(f"wrote {PINNED}\n")
