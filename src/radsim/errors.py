"""Exception types shared by all radsim modules, and the checks of numbers given to them.

Scalar numbers that come from outside the program (flags, run config and
library JSON fields, signal sidecars) are checked by :func:`check_real` or
:func:`check_int`, so every such field follows one rule: a finite real or an
integer, never a bool (JSON ``true`` is not the number 1).
"""

import math
import numbers


class RadsimError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(RadsimError, ValueError):
    """A value lies outside an operation's mathematical domain."""


class ShapeError(RadsimError, ValueError):
    """Inputs have missing, mismatched, or invalid dimensions."""


class ConfigurationError(RadsimError, ValueError):
    """A configuration is internally inconsistent (e.g. Nyquist violation)."""


class ParseError(RadsimError, ValueError):
    """Text, file content, or an encoded sequence could not be decoded."""


class ConflictError(RadsimError, ValueError):
    """An operation would clobber existing state (e.g. duplicate label)."""


def _is_number(value) -> bool:
    """A real number that is not a bool, and finite as a float64."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float64 range
        return False


def check_real(name: str, value, lo: float = -math.inf, hi: float = math.inf,
               bounds: str = "[]") -> None:
    """Raise :class:`ParameterError` unless ``value`` is a finite number from lo to hi.

    ``bounds`` says whether each end is closed, ``[`` ``]``, or open, ``(``
    ``)``. An infinite end only says that side is unbounded. The value is
    checked, not converted.
    """
    if not (_is_number(value)
            and (value > lo if bounds[0] == "(" else value >= lo)
            and (value < hi if bounds[1] == ")" else value <= hi)):
        if math.isinf(hi):
            where = "" if math.isinf(lo) else f" {'>' if bounds[0] == '(' else '>='} {lo:g}"
        elif math.isinf(lo):
            where = f" {'<' if bounds[1] == ')' else '<='} {hi:g}"
        else:
            where = f" in {bounds[0]}{lo:g}, {hi:g}{bounds[1]}"
        raise ParameterError(f"{name} must be a finite number{where}, got {value!r}")


def check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an integer (not a bool) from lo to hi.

    ``hi`` None leaves the integer unbounded above.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo
            or (hi is not None and value > hi)):
        where = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ParameterError(f"{name} must be an integer {where}, got {value!r}")
