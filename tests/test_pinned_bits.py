"""The paper's checks, pinned bit for bit at small sizes.

``pinned_bits.json`` holds, as ``float.hex``, the outputs that were computed
before the alternance values, the deviation bracket, the corollary scans and
the first witness's scans were batched (array-valued double-double kernels,
one multi-row extremum scan).  Batching reorders no arithmetic, so not one
bit may move.  The sizes are n in {4, 8, 16}, a in {2, 3, 5}.

Two groups were pinned again later, on purpose: the alternance values and
the bracket's lower end.  Both used to sum the pole terms over the rounded
poles (``eval_ld``), and rounding the poles moves those small values by up
to 3.5e-2 relative (n = 16, a = 5).  They now read the fractions' rational
forms, within 2e-16 relative of exact arithmetic at the same points.  The
alternance points and level, the bracket's upper end and ratio, and every
corollary, witness and ``generic`` entry kept their bits.

The extremum engine's refinement then changed from golden section to a
parallel bracketing search, which samples other points near each maximum.
The sup norms and minima it returns moved by rounding noise: corollary
values and the bracket's upper end (with the ratio and right-hand sides
that derive from them) by 1-2 ulp, and the ``generic`` weighted sup norms
by 2.7e-15 (n = 8) and 2.9e-13 (n = 64) relative, their locations by 1e-8
and 2e-7 on flat maxima.  Every re-pinned value lies within the float
evaluation's rounding bound of a 50-digit maximum of the same float
function.  The alternance, witness, generic ``sup_norm`` and ``values_on``
entries kept their bits.

The ``generic`` entries pin the float pole-sum kernel ``pole_sums`` through
plain ``LogDerivative`` fractions, which (unlike the closed forms) have no
evaluator of their own: sup norms, and ``values_on`` at one point and on
a 1,920-point grid.  They were computed while the kernel still summed one
pole per Python step; arrays are pinned by the SHA-256 of their float64
bytes.

To regenerate the file (only ever on purpose): ``python
tests/test_pinned_bits.py`` with ``src`` on the path.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from simplefrac.bernstein import check_corollary, random_rooted_polynomial, witness_ratio_empirical
from simplefrac.cheb import chebyshev_points
from simplefrac.errors import SimplefracError
from simplefrac.extremal import (
    FixedPoleClass,
    LogDerivative,
    alternance_points_weighted,
    build_extremal_weighted,
    dvp_bracket,
    sup_norm,
    weighted_sup_norm,
)

PINNED = Path(__file__).with_name("pinned_bits.json")
SIZES = [(n, a) for n in (4, 8, 16) for a in (2.0, 3.0, 5.0)]
GENERIC = (8, 64)


def hexes(values):
    return [float(v).hex() for v in values]


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


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


def perturbed_fraction(n: int) -> LogDerivative:
    """The weighted extremal at a = 2, every pole but 2 moved by a seeded
    relative amount: a plain LogDerivative, evaluated by the pole sum."""
    rng = np.random.default_rng([n, 11])
    delta = 10.0 ** rng.uniform(-3, -1)
    poles = [complex(2.0, 0.0)]
    for z in build_extremal_weighted(FixedPoleClass(n, 2.0)).poles:
        if z.imag > 0.0:
            w = complex(z.real * (1.0 + delta * rng.uniform(-1, 1)),
                        z.imag * (1.0 + delta * rng.uniform(-1, 1)))
            poles += [w, w.conjugate()]
        elif z.imag == 0.0 and z.real != 2.0:
            poles.append(complex(z.real * (1.0 + delta * rng.uniform(-1, 1)), 0.0))
    return LogDerivative(tuple(poles))


def generic_outputs(n: int) -> dict:
    rho = perturbed_fraction(n)
    out = {}
    for name, norm in (("weighted_sup_norm", weighted_sup_norm), ("sup_norm", sup_norm)):
        est = norm(rho)
        out[name] = hexes([est.value, est.location])
    out["values_on_point"] = hexes(rho.values_on(np.array([0.3])))
    out["values_on_grid"] = digest(rho.values_on(chebyshev_points(1920)))
    return out


@pytest.mark.parametrize("n,a", SIZES)
def test_paper_outputs_pinned(n, a):
    assert paper_outputs(n, a) == json.loads(PINNED.read_text())[f"{n},{a:g}"]


@pytest.mark.parametrize("n", GENERIC)
def test_generic_pole_sums_pinned(n):
    assert generic_outputs(n) == json.loads(PINNED.read_text())[f"generic,{n}"]


if __name__ == "__main__":
    table = {f"{n},{a:g}": paper_outputs(n, a) for n, a in SIZES}
    table.update({f"generic,{n}": generic_outputs(n) for n in GENERIC})
    PINNED.write_text(json.dumps(table, indent=1) + "\n")
    sys.stdout.write(f"wrote {PINNED}\n")
