"""Target functions for the approximation solver and the CLI.

Targets are either named built-ins or sampled tables interpolated by a
natural cubic spline.  Built-in grammar (colon-separated):

    zero                    the zero function
    abs                     |x|
    cheb:K                  the degree-K first-kind Chebyshev polynomial
    ld:P1,P2,...            logarithmic derivative with the given poles
    ldcheb:P1,...:EPS:K     ld plus EPS times the degree-K Chebyshev poly

Pole lists use Python complex syntax ("2,-2" or "1+2j,1-2j").
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .cheb import cheb_t
from .errors import DomainError
from .extremal import LogDerivative
from .minimax import TargetFunction


@dataclass(frozen=True)
class SampledFunction:
    """Table of (x, y) rows with strictly increasing x inside [-1, 1].

    The interpolation contract is a piecewise-cubic (natural spline) through
    the samples; anything inferred from it, certificates included, speaks
    about the interpolant rather than the underlying function.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) < 2:
            raise DomainError(f"need at least 2 sample rows, got {len(self.xs)}")
        if len(self.xs) != len(self.ys):
            raise DomainError("x and y columns have different lengths")
        for x, y in zip(self.xs, self.ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DomainError(f"non-finite sample ({x}, {y})")
            if not -1.0 <= x <= 1.0:
                raise DomainError(f"sample abscissa {x} outside [-1, 1]")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise DomainError("sample abscissas must be strictly increasing")

    def as_target(self) -> TargetFunction:
        from scipy.interpolate import CubicSpline  # only the spline path needs scipy

        spline = CubicSpline(np.asarray(self.xs), np.asarray(self.ys), bc_type="natural")
        return TargetFunction(
            evaluator=lambda x: spline(x),
            description=f"cubic interpolant of {len(self.xs)} samples",
        )


def load_sampled_csv(path: str) -> SampledFunction:
    """Read an ``x,value`` CSV (optional header) into a SampledFunction."""
    xs: list[float] = []
    ys: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DomainError(f"{path}:{lineno}: expected 'x,value', got {raw!r}")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise DomainError(f"{path}:{lineno}: malformed row {raw!r}") from None
            xs.append(x)
            ys.append(y)
    return SampledFunction(xs=tuple(xs), ys=tuple(ys))


def parse_pole_list(text: str) -> tuple[complex, ...]:
    """Comma-separated complex poles in Python syntax."""
    items = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not items:
        raise DomainError(f"empty pole list {text!r}")
    try:
        return tuple(complex(tok) for tok in items)
    except ValueError as exc:
        raise DomainError(f"malformed pole list {text!r}: {exc}") from exc


def parse_target(spec: str) -> TargetFunction:
    """Resolve a --target argument: a CSV path or a built-in name."""
    if os.path.isfile(spec):
        return load_sampled_csv(spec).as_target()
    name, _, rest = spec.partition(":")
    if name == "zero":
        return TargetFunction(evaluator=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                              description="zero")
    if name == "abs":
        return TargetFunction(evaluator=lambda x: np.abs(np.asarray(x, dtype=float)),
                              description="abs")
    if name == "cheb":
        try:
            k = int(rest)
        except ValueError:
            raise DomainError(f"cheb:K needs an integer degree, got {spec!r}") from None
        if k < 0:
            raise DomainError(f"cheb:K needs K >= 0, got {k}")
        return TargetFunction(evaluator=lambda x, k=k: cheb_t(k, x), description=spec)
    if name == "ld":
        rho = LogDerivative(parse_pole_list(rest))
        return TargetFunction(evaluator=rho.values_on, description=spec)
    if name == "ldcheb":
        parts = rest.rsplit(":", 2)
        if len(parts) != 3:
            raise DomainError(f"ldcheb needs 'ldcheb:POLES:EPS:K', got {spec!r}")
        rho = LogDerivative(parse_pole_list(parts[0]))
        try:
            eps = float(parts[1])
            k = int(parts[2])
        except ValueError as exc:
            raise DomainError(f"malformed ldcheb target {spec!r}: {exc}") from exc
        return TargetFunction(
            evaluator=lambda x, rho=rho, eps=eps, k=k: rho.values_on(x) + eps * cheb_t(k, x),
            description=spec,
        )
    raise DomainError(
        f"unknown target {spec!r}: not a file, and not one of "
        "zero / abs / cheb:K / ld:POLES / ldcheb:POLES:EPS:K"
    )
