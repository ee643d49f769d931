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

import os
from dataclasses import dataclass

import numpy as np

from .cheb import cheb_t
from .errors import DomainError, require_int, require_real
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
        object.__setattr__(self, "xs", tuple(require_real("sample abscissa", x) for x in self.xs))
        object.__setattr__(self, "ys", tuple(require_real("sample value", y) for y in self.ys))
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise DomainError("sample abscissas must be strictly increasing")
        if not -1.0 <= self.xs[0] <= self.xs[-1] <= 1.0:
            raise DomainError(f"sample abscissas from {self.xs[0]} to {self.xs[-1]} leave [-1, 1]")

    def as_target(self) -> TargetFunction:
        return TargetFunction(
            evaluator=_natural_spline(self.xs, self.ys),
            description=f"cubic interpolant of {len(self.xs)} samples",
        )


def _natural_spline(xs, ys):
    """The natural cubic spline through (xs, ys), as a vectorized callable.

    Its second derivatives m_i (zero at both ends) solve the tridiagonal
    system h_{i-1} m_{i-1} + 2 (h_{i-1} + h_i) m_i + h_i m_{i+1} =
    6 (s_i - s_{i-1}), with h_i the steps and s_i the slopes, by one Thomas
    sweep.  Points outside the samples take the end cubics.
    """
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    h = np.diff(x)
    slope = np.diff(y) / h
    diag, rhs = 2.0 * (h[:-1] + h[1:]), 6.0 * np.diff(slope)
    for i in range(1, diag.size):  # forward elimination
        w = h[i] / diag[i - 1]
        diag[i] -= w * h[i]
        rhs[i] -= w * rhs[i - 1]
    m = np.zeros(x.size)
    for i in range(diag.size - 1, -1, -1):  # back substitution
        m[i + 1] = (rhs[i] - h[i + 1] * m[i + 2]) / diag[i]
    b = slope - h * (2.0 * m[:-1] + m[1:]) / 6.0
    c2, c3 = 0.5 * m[:-1], np.diff(m) / (6.0 * h)

    def spline(t):
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(x[1:-1], t, side="right")  # piece index, end pieces extended
        d = t - x[i]
        return y[i] + d * (b[i] + d * (c2[i] + d * c3[i]))

    return spline


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


def _segment_free_ld(poles: str, spec: str) -> LogDerivative:
    """The fraction with the listed poles; a target has none on [-1, 1]."""
    rho = LogDerivative(parse_pole_list(poles))
    if rho.has_pole_on_segment():
        raise DomainError(f"target {spec!r} has a pole on [-1, 1]")
    return rho


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
            k = require_int("K", int(rest), 0)
        except ValueError:  # a DomainError is one too
            raise DomainError(f"cheb:K needs an integer K >= 0, got {spec!r}") from None
        return TargetFunction(evaluator=lambda x, k=k: cheb_t(k, x), description=spec)
    if name == "ld":
        return TargetFunction(evaluator=_segment_free_ld(rest, spec).values_on, description=spec)
    if name == "ldcheb":
        parts = rest.rsplit(":", 2)
        if len(parts) != 3:
            raise DomainError(f"ldcheb needs 'ldcheb:POLES:EPS:K', got {spec!r}")
        rho = _segment_free_ld(parts[0], spec)
        try:
            eps = require_real("EPS", parts[1])
            k = require_int("K", int(parts[2]), 0)
        except ValueError as exc:  # a DomainError is one too
            raise DomainError(f"malformed ldcheb target {spec!r}: {exc}") from exc
        return TargetFunction(
            evaluator=lambda x, rho=rho, eps=eps, k=k: rho.values_on(x) + eps * cheb_t(k, x),
            description=spec,
        )
    raise DomainError(
        f"unknown target {spec!r}: not a file, and not one of "
        "zero / abs / cheb:K / ld:POLES / ldcheb:POLES:EPS:K"
    )
