"""Exception types shared across the package, and the checks of scalar arguments.

The CLI maps the exceptions onto distinct exit codes, so library code should
raise the most specific one that applies rather than bare ValueError/RuntimeError.

Every scalar argument of the public API goes through `count` (an integer such
as d, N, M0, M1 or a seed) or `real` (a finite real such as eps, gamma, eta
or T), once per call or constructor. A malformed one, a bool, a string, a
NaN, an infinity, a float where a count belongs or a value out of range,
raises ValidationError naming the argument. These two functions are the
only place in the package that tells a bool from a number.
"""

import math
import numbers


class ValidationError(ValueError):
    """Bad arguments, malformed configuration, or violated preconditions."""


class NumericError(RuntimeError):
    """NaN/Inf or other numeric breakdown during a computation.

    The message should identify where the problem surfaced (sample block,
    time index, ...) so large runs can be triaged without rerunning.
    """


class StabilityError(ValidationError):
    """An explicit FD time step violates the monotonicity/CFL bound."""

    def __init__(self, message: str, max_dt: float):
        super().__init__(message)
        self.max_dt = max_dt


class GenerationError(RuntimeError):
    """Random model generation exhausted its redraw budget."""


def count(v, name: str, low: int = 1) -> int:
    """v as an int: an integer (numpy's too), never a bool, and at least `low`."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {v!r}")
    return int(v)


def real(v, name: str, low: float = -math.inf, high: float = math.inf,
         above: bool = False) -> float:
    """v as a float: a finite real (numpy's too), never a bool, in [low, high].

    With `above` the range is (low, high]: v must exceed low.
    """
    if (isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v)
            or v > high or (v <= low if above else v < low)):
        if high < math.inf:
            span = f" in {'(' if above else '['}{low:g}, {high:g}]"
        else:
            span = f" {'>' if above else '>='} {low:g}" if low > -math.inf else ""
        raise ValidationError(f"{name} must be a finite real{span}, got {v!r}")
    return float(v)
