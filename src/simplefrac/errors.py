"""Exception types shared across the package, and the checks of scalar arguments."""

import cmath
import math
import operator


class SimplefracError(Exception):
    """Base class for all package errors."""


class DomainError(SimplefracError, ValueError):
    """Input violates a precondition (bad range, coincident points, pole on
    the interval, oversized problem).  The message names the violated
    precondition."""


class TheoremRangeError(DomainError):
    """Parameters are outside the hypothesis range of the construction.

    The object is frequently still well defined; callers that pass
    ``force=True`` downgrade this to a diagnostic instead.
    """


class EvaluationError(DomainError):
    """Evaluation requested too close to a pole."""


class ToleranceNotMetError(SimplefracError):
    """An iterative routine could not reach the requested tolerance.

    Carries the best estimate found so far in :attr:`best`.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def require_int(what: str, value, low: int) -> int:
    """``value`` through operator.index; DomainError for a bool, a non-integer or one < ``low``."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < low:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")
        raise DomainError(f"{what} must be {kind}, got {value!r}")
    return n


def require_real(what: str, value, low: float | None = None, *, inclusive: bool = False) -> float:
    """``value`` through float(); DomainError unless finite and > ``low`` (>= with ``inclusive``)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and (low is None or x > low or (inclusive and x == low))):
        bound = "" if low is None else f" {'>=' if inclusive else '>'} {low}"
        raise DomainError(f"{what} must be a finite real number{bound}, got {value!r}")
    return x


def require_complex(what: str, value) -> complex:
    """``value`` through complex(); DomainError, naming ``what``, unless both parts are finite."""
    try:
        z = complex(value)
    except (TypeError, ValueError, OverflowError):
        z = complex(math.nan)
    if not cmath.isfinite(z):
        raise DomainError(f"{what} must be a finite complex number, got {value!r}")
    return z
