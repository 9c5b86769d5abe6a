"""Seeded hash families producing signs and uniform indices.

* :class:`KWiseFamily` -- a degree-(K-1) polynomial over GF(M61),
  M61 = 2^61 - 1.  At K distinct points it maps its coefficient vector c
  to V*c, with V the Vandermonde matrix, invertible mod M61; so a uniform
  c gives jointly uniform evaluations: exactly K-wise independence.  The
  coefficients come from a 64-bit seed through the splitmix64 stream, so
  a family is reproducible from (seed, degree_k) alone.  The blocked kinds
  (osnap, less-ic) hash with it; every other kind draws from one seeded
  numpy generator in :mod:`subsketch.oblivious` and reads no family.
* :class:`IndependentFamily` -- a per-index splitmix64 stream with the
  same interface.  No sampler reads it; the benchmark's tracer still
  wraps its ``evaluate``.

Both expose ``rademacher(points)`` (signs from the low bit of the field
element, unbiased up to 1/M61) and ``uniform_range(points, lo, hi)``
(fixed-point scaling of the field element onto the integer range [lo,
hi], per-value bias at most (hi-lo+1)/M61; bounds that are not
integers raise ParameterError).  Evaluation is a pure function of
(family, point); families are immutable and safe to share across threads.

The hash domain is 32-bit: a :class:`KWiseFamily` takes points below
2^32 -- the samplers hash the entry number, not a field element -- and
both families take range widths up to 2^32.  Anything larger raises
ParameterError, as does a seed, K or coefficient that is not an integer.

Callers that need several mutually independent streams from one family
(e.g. one for signs and one for positions) domain-separate the point space
with a tag bit: point = 2*index + tag.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from ._field import (
    HASH_DOMAIN,
    M61,
    derive_seed,
    poly_eval,
    scale_to_range,
    splitmix_stream,
)
from .errors import ParameterError

__all__ = [
    "M61",
    "KWiseFamily",
    "IndependentFamily",
    "derive_seed",
]


def _as_int(name, value):
    """``value`` as an int; ParameterError for a bool or a non-integer (numpy integers pass)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} takes integers only, got {value!r}")
    return int(value)


def _check_points(points, bound):
    """``points`` as a uint64 array; ParameterError unless they are integers in [0, bound)."""
    points = np.atleast_1d(np.asarray(points))
    kind = points.dtype.kind
    if points.size and (kind not in "iu" or (kind == "i" and points.min() < 0)
                        or int(points.max()) >= bound):
        raise ParameterError(f"evaluation points must be integers in [0, {bound})")
    return points.astype(np.uint64, copy=False)


class _SignRangeMixin:
    """Signs and ranged uniforms on top of a field-element stream."""

    def rademacher(self, points):
        """Signs in {-1, +1} from the low bit of the evaluation."""
        v = self.evaluate(points)
        return (v & np.uint64(1)).astype(np.float64) * 2.0 - 1.0

    def uniform_range(self, points, lo, hi):
        """Integers uniform (up to bias <= (hi-lo+1)/M61) on [lo, hi]."""
        lo, hi = (_as_int("range bound", b) for b in (lo, hi))
        if hi < lo:
            raise ParameterError(f"empty range [{lo}, {hi}]")
        width = hi - lo + 1
        if width > HASH_DOMAIN:
            raise ParameterError(f"range width {width} exceeds 2^32")
        v = self.evaluate(points)
        return lo + scale_to_range(v, width).astype(np.int64)


@dataclass(frozen=True)
class KWiseFamily(_SignRangeMixin):
    """Degree-(degree_k - 1) polynomial hash over GF(M61)."""

    seed: int
    degree_k: int
    coefficients: tuple = field(default=None)

    def __post_init__(self):
        for name in ("seed", "degree_k"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.degree_k < 1:
            raise ParameterError("degree_k must be >= 1")
        if self.coefficients is None:
            raw = splitmix_stream(self.seed, np.arange(self.degree_k, dtype=np.uint64))
            coeffs = tuple(int(c) % M61 for c in raw)
        else:
            coeffs = tuple(_as_int("coefficients", c) for c in self.coefficients)
            if len(coeffs) != self.degree_k:
                raise ParameterError("need exactly degree_k coefficients")
            if any(c < 0 or c >= M61 for c in coeffs):
                raise ParameterError("coefficients must be field elements")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_coefficients(cls, coefficients):
        """Build a family from explicit coefficients (low-to-high degree)."""
        return cls(
            seed=0,
            degree_k=len(coefficients),
            coefficients=tuple(coefficients),
        )

    def evaluate(self, points):
        """Field element at each point below 2^32; pure in (family, point)."""
        points = _check_points(points, HASH_DOMAIN)
        return poly_eval(self.coefficients, points)


@dataclass(frozen=True)
class IndependentFamily(_SignRangeMixin):
    """Fully independent mode: one mixed 64-bit word per index.

    Outputs are reduced mod M61 so the interface matches
    :class:`KWiseFamily` (reduction bias ~2^-61).
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_int("seed", self.seed))

    def evaluate(self, points):
        points = _check_points(points, 1 << 62)
        return splitmix_stream(self.seed, points) % np.uint64(M61)
