"""Seeded hash families producing signs and uniform indices.

* :class:`KWiseFamily` -- a degree-(K-1) polynomial over a prime field.
  When the coefficient vector is uniform over the field, evaluations at any
  K distinct points are jointly uniform, i.e. exactly K-wise independent.
  Coefficients are derived deterministically from a 64-bit seed through the
  splitmix64 stream, so a family is reproducible from
  (seed, degree_k, field_modulus) alone.  The blocked kinds (osnap,
  less-ic) hash with it; every other kind draws from one seeded numpy
  generator in :mod:`subsketch.oblivious` and reads no family.
* :class:`IndependentFamily` -- a per-index splitmix64 stream with the
  same interface.  No sampler reads it; the benchmark's tracer still
  wraps its ``evaluate``.

Both expose ``rademacher(points)`` (signs from the low bit of the field
element, unbiased up to 1/modulus) and ``uniform_range(points, lo, hi)``
(fixed-point scaling of the field element onto the integer range [lo,
hi], per-value bias at most (hi-lo+1)/modulus; bounds that are not
integers raise ParameterError).  Evaluation is a pure function of
(family, point); families are immutable and safe to share across threads.

The hash domain is 32-bit: a :class:`KWiseFamily` takes points below
min(modulus, 2^32) -- the samplers hash the entry number, not a field
element -- and both families take range widths up to min(modulus, 2^32).
Anything larger raises ParameterError.

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
    is_prime,
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
        """Integers uniform (up to bias <= (hi-lo+1)/modulus) on [lo, hi]."""
        if any(isinstance(b, bool) or not isinstance(b, numbers.Integral) for b in (lo, hi)):
            raise ParameterError(f"range bounds must be integers, got {lo!r} and {hi!r}")
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ParameterError(f"empty range [{lo}, {hi}]")
        width = hi - lo + 1
        bound = min(self.field_modulus, HASH_DOMAIN)
        if width > bound:
            raise ParameterError(f"range width {width} exceeds min(field modulus, 2^32) = {bound}")
        v = self.evaluate(points)
        return lo + scale_to_range(v, width, self.field_modulus).astype(np.int64)


@dataclass(frozen=True)
class KWiseFamily(_SignRangeMixin):
    """Degree-(degree_k - 1) polynomial hash over GF(field_modulus), M61 or a prime < 2^32."""

    seed: int
    degree_k: int
    field_modulus: int = M61
    coefficients: tuple = field(default=None)

    def __post_init__(self):
        if self.degree_k < 1:
            raise ParameterError("degree_k must be >= 1")
        q = self.field_modulus
        if q != M61 and not (q < 1 << 32 and is_prime(q)):
            raise ParameterError(f"field_modulus must be M61 or a prime below 2^32, got {q}")
        if self.coefficients is None:
            raw = splitmix_stream(self.seed, np.arange(self.degree_k, dtype=np.uint64))
            coeffs = tuple(int(c) % self.field_modulus for c in raw)
        else:
            coeffs = tuple(int(c) for c in self.coefficients)
            if len(coeffs) != self.degree_k:
                raise ParameterError("need exactly degree_k coefficients")
            if any(c < 0 or c >= self.field_modulus for c in coeffs):
                raise ParameterError("coefficients must be field elements")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_coefficients(cls, coefficients, field_modulus=M61):
        """Build a family from explicit coefficients (low-to-high degree)."""
        return cls(
            seed=0,
            degree_k=len(coefficients),
            field_modulus=field_modulus,
            coefficients=tuple(coefficients),
        )

    def evaluate(self, points):
        """Field element at each point below min(field_modulus, 2^32); pure
        in (family, point)."""
        points = _check_points(points, min(self.field_modulus, HASH_DOMAIN))
        return poly_eval(self.coefficients, points, self.field_modulus)


@dataclass(frozen=True)
class IndependentFamily(_SignRangeMixin):
    """Fully independent mode: one mixed 64-bit word per index.

    Outputs are reduced mod M61 so the interface matches
    :class:`KWiseFamily` (reduction bias ~2^-61).
    """

    seed: int
    field_modulus = M61  # fixed: a class attribute, not a field

    def evaluate(self, points):
        points = _check_points(points, 1 << 62)
        return splitmix_stream(self.seed, points) % np.uint64(self.field_modulus)
