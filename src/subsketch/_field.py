"""Exact prime-field arithmetic for the hashing layer.

The default field is GF(M61) with M61 = 2^61 - 1.  Hot paths run on numpy
uint64 arrays; 61x61-bit products are computed exactly through 32-bit limb
splitting, so no intermediate ever exceeds 64 bits.  The only other
fields are those of a prime below 2^32, whose products fit in uint64
directly (the tiny fields of the enumeration tests).

Over M61 one Horner step ``acc <- acc * x + c`` (:func:`_mul_add_step`) is
the only place the 61-bit reduction is written; :func:`mulmod_m61` is that
step with c = 0.  With 2^61 == 1 and 2^64 == 8 (mod M61), a point
x < 2^61 split as x1 = x >> 32 < 2^29, x0 = x mod 2^32, and the accumulator
as a1 = acc >> 32, a0 = acc mod 2^32, the step sums

    8*a1*x1 + (mid >> 29) + (mid mod 2^29) * 2^32 + (lo >> 61) + (lo & M61) + c

with mid = a1*x0 + a0*x1 and lo = a0*x0.  Between steps the accumulator is
only reduced lazily, and these bounds keep every value exact in uint64:

* every limb product is below 2^64: 8*a1*x1 < 2^61, a1*x0 and a0*x1 are
  below 2^61 (so mid < 2^62), and lo < 2^64;
* the step's sum is below 2^63: its four 61-bit terms (8*a1*x1, the
  shifted low part of mid, lo & M61 and c) are each below 2^61, the first
  two by at least 2^32, and mid >> 29 < 2^33 and lo >> 61 < 8 fit in that
  room (a1 = 2^29 only when a0 < 4, and then both are small);
* ``acc < 2^61 + 4`` holds between steps: one fold
  (acc >> 61) + (acc & M61) of a sum below 2^63 is at most 2^61 + 2.

A single conditional subtraction at the end gives the canonical element.

Points below 2^32 -- the samplers' points 2*t + tag whenever the entry
or cell number t is below 2^31 -- take a narrower step
(:func:`_narrow_step`) that computes the quotient in float64 instead of
splitting limbs:

    q = trunc(float(acc) * fx),  fx = x * (1 - 2^-45) / M61,
    acc <- acc*x - q*M61 + c     (uint64, wrapping)

* q is floor(acc*x / M61) or one less: float(M61) is 2^61, so the
  constant is exact up to 2^-61, and the casts and the two products add
  at most 2^-51 of relative error, below the 2^-45 shrink, so the float
  quotient y' lies in (y - y*2^-44, y) for the true y = acc*x / M61;
  y < 3 * 2^32, so y*2^-44 < 1.
* ``acc < 3*M61`` holds between steps: acc*x - q*M61 is acc*x mod M61
  plus at most one M61, so below 2*M61, and c < M61.  The products
  wrap mod 2^64 but their difference is that exact value.  acc < 2^63,
  so its int64 view is non-negative and casts to float64 as it should.

Two conditional subtractions at the end give the canonical element.
:func:`poly_eval` takes the narrow step for each block of ``_CHUNK``
points whose largest point is below 2^32 and the limb step for any
other block; both give the same element, so the choice never shows in
the output.
"""

import numpy as np

M61 = (1 << 61) - 1

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_MASK29 = _U((1 << 29) - 1)
_M61 = _U(M61)
_3, _29, _32, _61 = _U(3), _U(29), _U(32), _U(61)  # shift counts
_NARROW = 1 << 32  # blocks whose points are all below this take _narrow_step
_SHRINK = (1.0 - 2.0**-45) / M61  # float(M61) == 2^61: exact

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 2^64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_CHUNK = 1 << 14  # points per block: the work buffers stay in the L2 cache


def _split(x, x1, x1_8, x0):
    """The limbs of points x < 2^61: x1 = x >> 32, x1_8 = 8*x1, x0 = x mod 2^32."""
    np.right_shift(x, _32, out=x1)
    np.left_shift(x1, _3, out=x1_8)
    np.bitwise_and(x, _MASK32, out=x0)


def _mul_add_step(acc, c, x1, x1_8, x0, a1, a0, t):
    """acc <- acc * x + c (mod M61) in place; acc < 2^61 + 4 before and after.

    ``x1, x1_8, x0`` are the limbs from :func:`_split`; ``a1, a0, t`` are
    work buffers of acc's shape.  See the module docstring for the bounds.
    """
    np.right_shift(acc, _32, out=a1)
    np.bitwise_and(acc, _MASK32, out=a0)
    np.multiply(a1, x1_8, out=acc)  # a1*x1 * 2^64 == 8*a1*x1
    np.multiply(a1, x0, out=a1)
    np.multiply(a0, x1, out=t)
    np.add(a1, t, out=a1)  # mid
    np.multiply(a0, x0, out=a0)  # lo
    np.right_shift(a1, _29, out=t)  # mid * 2^32 == (mid >> 29) + ((mid mod 2^29) << 32)
    np.add(acc, t, out=acc)
    np.bitwise_and(a1, _MASK29, out=a1)
    np.left_shift(a1, _32, out=a1)
    np.add(acc, a1, out=acc)
    np.right_shift(a0, _61, out=t)  # lo == (lo >> 61) + (lo & M61)
    np.add(acc, t, out=acc)
    np.bitwise_and(a0, _M61, out=a0)
    np.add(acc, a0, out=acc)
    np.add(acc, c, out=acc)  # < 2^63
    np.right_shift(acc, _61, out=t)  # fold: < 2^61 + 4
    np.bitwise_and(acc, _M61, out=acc)
    np.add(acc, t, out=acc)


def _narrow_step(acc, acc_i, c, x, fx, f, q, q_i):
    """acc <- acc * x + c - q * M61 in place for points x < 2^32; acc < 3*M61 before and after.

    ``fx`` is x * _SHRINK; ``acc_i`` and ``q_i`` are int64 views of acc and
    the uint64 buffer ``q``; ``f`` is a float64 buffer.  See the module
    docstring for the quotient bound.
    """
    np.copyto(f, acc_i)
    np.multiply(f, fx, out=f)
    np.copyto(q_i, f, casting="unsafe")  # truncates
    np.multiply(q, _M61, out=q)
    np.multiply(acc, x, out=acc)
    np.subtract(acc, q, out=acc)  # acc*x mod M61, plus at most one M61
    np.add(acc, c, out=acc)


def _canonical(acc, t):
    """Subtract M61 in place where acc >= M61: min(acc, acc - M61), wrapping.

    Maps acc < 2*M61 into [0, M61).
    """
    np.subtract(acc, _M61, out=t)
    np.minimum(acc, t, out=acc)


def mulmod_m61(a, b):
    """(a * b) mod M61 for uint64 arrays with a, b < 2^61. Exact."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
    acc = a.copy()
    work = [np.empty(acc.shape, dtype=np.uint64) for _ in range(6)]
    _split(b, *work[:3])
    _mul_add_step(acc, _U(0), *work)
    _canonical(acc, work[-1])
    return acc


def poly_eval(coeffs, points, modulus):
    """Evaluate sum_t coeffs[t] * x^t mod ``modulus`` at every x in ``points``.

    ``modulus`` is M61 or a prime below 2^32; coeffs are field elements
    (low-to-high degree) and points must be < modulus.  Over M61 the points
    are evaluated in blocks of ``_CHUNK``, and every Horner step writes
    into one set of preallocated buffers.  A block whose points are all
    below 2^32 takes :func:`_narrow_step`; any other block splits its
    limbs once and takes :func:`_mul_add_step`.
    """
    points = np.atleast_1d(np.asarray(points, dtype=np.uint64))
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    if modulus == M61:
        flat = points.reshape(-1)
        out = np.empty(flat.size, dtype=np.uint64)
        work = np.empty((6, min(_CHUNK, flat.size)), dtype=np.uint64)
        for start in range(0, flat.size, _CHUNK):
            acc = out[start:start + _CHUNK]
            x = flat[start:start + _CHUNK]
            bufs = tuple(work[:, : acc.size])
            acc.fill(coeffs[-1])
            if int(x.max()) < _NARROW:
                fx, f, q = bufs[0].view(np.float64), bufs[1].view(np.float64), bufs[2]
                np.copyto(fx, x)  # exact: x < 2^53 (a mixed-type multiply would buffer its cast)
                np.multiply(fx, _SHRINK, out=fx)
                acc_i, q_i = acc.view(np.int64), q.view(np.int64)
                for c in coeffs[-2::-1]:
                    _narrow_step(acc, acc_i, c, x, fx, f, q, q_i)
                _canonical(acc, bufs[-1])  # acc < 3*M61 takes two
            else:
                _split(x, *bufs[:3])
                for c in coeffs[-2::-1]:
                    _mul_add_step(acc, c, *bufs)
            _canonical(acc, bufs[-1])
        return out.reshape(points.shape)
    # products of two elements < 2^32 fit exactly in uint64
    acc = np.full(points.shape, coeffs[-1], dtype=np.uint64)
    q = _U(modulus)
    for c in coeffs[-2::-1]:
        acc = (acc * points + c) % q
    return acc


def _mul128(v, w):
    """Return (hi, lo) words of the exact 128-bit product v * w (v, w < 2^62)."""
    v1 = v >> _U(32)
    v0 = v & _MASK32
    w1 = w >> _U(32)
    w0 = w & _MASK32
    ll = v0 * w0
    mid = v1 * w0
    mid += v0 * w1  # < 2^63
    hi = v1 * w1
    hi += mid >> _U(32)
    mid &= _MASK32
    mid <<= _U(32)
    mid += ll  # the low word
    hi += mid < ll  # carry
    return hi, mid


def scale_to_range(values, width, modulus):
    """floor(values * width / modulus), exact; maps field elements onto [0, width).

    ``width`` may be a scalar or a per-value array.  ``modulus`` is M61 or
    a prime below 2^32.  When width == modulus this is the identity map.
    """
    values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
    w = np.asarray(width, dtype=np.uint64)
    if modulus == M61:
        hi, lo = _mul128(values, w)
        a = (hi << _U(3)) | (lo >> _U(61))
        b = lo & _M61
        # v*w = a*2^61 + b = a*M61 + (a + b); a + b < 2^62 so one more
        # division finishes the reduction.
        return a + (a + b) // _M61
    return (values * w) // _U(modulus)


SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_GAMMA = _U(SPLITMIX_GAMMA)
_MIX1 = _U(0xBF58476D1CE4E5B9)
_MIX2 = _U(0x94D049BB133111EB)


def mix64(x):
    """splitmix64 finalizer: a fixed 64-bit mixing permutation (wraps mod 2^64)."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64).copy()
        z ^= z >> _U(30)
        z *= _MIX1
        z ^= z >> _U(27)
        z *= _MIX2
        z ^= z >> _U(31)
    return z


def splitmix_stream(seed, indices):
    """Element ``i`` of the splitmix64 stream for ``seed`` (random access)."""
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = _U(seed & 0xFFFFFFFFFFFFFFFF) + (idx + _U(1)) * _GAMMA
    return mix64(state)


def derive_seed(seed, salt):
    """Derive a decorrelated 64-bit child seed from (seed, salt)."""
    return int(splitmix_stream(seed, np.uint64(salt & 0xFFFFFFFFFFFFFFFF))[()])
