"""Double-double arithmetic for cancellation-prone kernels.

A value is an unevaluated sum ``(hi, lo)`` of two floats with
``|lo| <= ulp(hi)/2``, giving roughly 32 significant digits.  Only the
handful of operations the evaluation kernels need are provided; inputs are
assumed well inside the binary64 exponent range (the splitter overflows
beyond ~1e292).

Every operation is a fixed sequence of IEEE + - * / (Dekker's error-free
transformations), with no branch on the data, so each works elementwise on
numpy arrays as well as on floats, and a point gets the same bits alone or
inside an array: ``hi`` and ``lo`` may be floats or arrays that broadcast
together.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp split constant


def two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def fast_two_sum(a: float, b: float) -> tuple[float, float]:
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def two_diff(a: float, b: float) -> tuple[float, float]:
    s = a - b
    bb = s - a
    return s, (a - (s - bb)) - (b + bb)


def split(a: float) -> tuple[float, float]:
    """Veltkamp's split a = hi + lo, each half with at most 26 significant bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float, b_split: tuple[float, float] | None = None) -> tuple[float, float]:
    """a * b = p + e exactly (Dekker).  ``b_split``, when given, is split(b):
    a loop that multiplies by one b many times splits it once."""
    p = a * b
    ahi, alo = split(a)
    bhi, blo = split(b) if b_split is None else b_split
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def dd_add(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return fast_two_sum(s, e)


def dd_sub(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    s, e = two_diff(x[0], y[0])
    e += x[1] - y[1]
    return fast_two_sum(s, e)


def dd_mul_f(x: tuple[float, float], a: float,
             a_split: tuple[float, float] | None = None) -> tuple[float, float]:
    """x * a for a float a; ``a_split`` as in two_prod."""
    p, e = two_prod(x[0], a, a_split)
    e += x[1] * a
    return fast_two_sum(p, e)


def dd_div(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul_f(y, q1))
    q2 = (r[0] + r[1]) / y[0]
    r = dd_sub(r, dd_mul_f(y, q2))
    q3 = (r[0] + r[1]) / y[0]
    s, e = fast_two_sum(q1, q2)
    return dd_add((s, e), (q3, 0.0))


def dd_sqr(x: tuple[float, float]) -> tuple[float, float]:
    p, e = two_prod(x[0], x[0])
    e += 2.0 * x[0] * x[1]
    return fast_two_sum(p, e)


def dd_to_float(x: tuple[float, float]) -> float:
    return x[0] + x[1]
