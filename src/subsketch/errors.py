"""Exception types shared across the library, and the scalar gate.

Every public entry point checks its scalar arguments through
:func:`as_int` and :func:`as_real`: a bool or a value of the wrong type
raises :class:`ParameterError` (CLI exit 2), as does a value out of
range; numpy scalars pass, and the value comes back as a Python int or
float.  Matrices have their own gate, :func:`subsketch.apply.as_matrix`.
"""

import math
import numbers


class ParameterError(ValueError):
    """Invalid parameter or structural constraint violation."""


class RankDeficiencyError(ParameterError):
    """Input matrix is numerically rank deficient.

    Carries the measured numerical rank in ``numerical_rank``.
    """

    def __init__(self, message, numerical_rank):
        super().__init__(message)
        self.numerical_rank = numerical_rank


class FormatError(ValueError):
    """Malformed file content (sketch files, Matrix Market, JSON configs)."""


def as_int(name, value, low=None):
    """``value`` as an int; ParameterError for a bool, a non-integer or,
    with ``low``, a value below it."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ParameterError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def as_real(name, value, interval):
    """``value`` as a float in ``interval``, written "(0, 1]" or "[1, inf)";
    ParameterError for a bool, a non-real, NaN or a value outside."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:  # an int or Fraction beyond the float range
            x = math.nan
        if ((lo < x if interval[0] == "(" else lo <= x)
                and (x < hi if interval[-1] == ")" else x <= hi)):
            return x
    raise ParameterError(f"{name} must be a real number in {interval}, got {value!r}")
