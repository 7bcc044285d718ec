"""The package's two exception types, one per CLI exit code, and the checks of arguments.

ValidationError (exit 2) is a fault of the input: a bad argument or config
value, a violated precondition, an FD step beyond the stable bound, a
boundary that fails to load or probe. NumericError (exit 3) is a fault
during a run: a NaN or infinity, a boundary that raises on a run's points,
a redraw budget used up. Either message says where the fault happened.

Every argument of the public API goes through one of four functions, once
per call or constructor: `count` (an integer such as d, N, M0, M1 or a seed),
`real` (a finite real such as eps, gamma, eta or T), `array` (finite reals
such as a drift, a volatility or a point) or `choice` (a name such as a
kernel). A malformed one, a bool, a string, None, a NaN, an infinity, a float
where a count belongs, a value out of range, a ragged, empty or misshapen
array or a name not offered, raises ValidationError naming the argument.
These four functions are the only place in the package that tells a bool
from a number.
"""

import math
import numbers
import reprlib

import numpy as np


class ValidationError(ValueError):
    """Bad arguments, malformed configuration, or violated preconditions (exit 2)."""


class NumericError(RuntimeError):
    """NaN/Inf, a raising boundary or another breakdown during a computation (exit 3).

    The message should identify where the problem surfaced (sample block,
    time index, ...) so large runs can be triaged without rerunning.
    """


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


def _reals(v) -> bool:
    """Whether every leaf of the (nested) list, tuple or array v is a real
    (numpy's too): never a bool, a string, None or a complex."""
    if isinstance(v, np.ndarray):
        return v.dtype.kind in "iuf" or (v.dtype == object and all(map(_reals, v.flat)))
    if isinstance(v, (list, tuple)):
        return all(map(_reals, v))
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def array(v, name: str, shape: tuple) -> np.ndarray:
    """v as a read-only float64 copy of `shape`, where a None entry is any length >= 1.

    v is a (nested) list, tuple or array of finite reals, each one checked:
    numpy would turn [1.0, True] into [1.0, 1.0] without a word.
    """
    a = None
    if _reals(v):
        try:
            a = np.array(v, dtype=np.float64)
        except (ValueError, OverflowError):    # ragged nesting, an int beyond float
            pass
    if (a is None or a.ndim != len(shape) or not np.isfinite(a).all()
            or any(n < 1 if s is None else n != s for n, s in zip(a.shape, shape))):
        dims = ", ".join(">= 1" if s is None else str(s) for s in shape)
        what = f"vector of length {dims}" if len(shape) == 1 else f"array of shape ({dims})"
        got = " ".join(reprlib.repr(v).split())    # an array's repr spans lines
        raise ValidationError(f"{name} must be a finite {what}, got {got}")
    a.setflags(write=False)
    return a


def choice(v, name: str, options: tuple) -> str:
    """v when it is one of the names `options`."""
    if not (isinstance(v, str) and v in options):
        raise ValidationError(f"{name} must be one of {options}, got {v!r}")
    return v
