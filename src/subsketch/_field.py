"""Exact prime-field arithmetic for the hashing layer.

The default field is GF(M61) with M61 = 2^61 - 1.  Hot paths run on numpy
uint64 arrays; 61x61-bit products are computed exactly through 32-bit limb
splitting, so no intermediate ever exceeds 64 bits.  The only other
fields are those of a prime below 2^32, whose products fit in uint64
directly (the tiny fields of the enumeration tests).
"""

import numpy as np

M61 = (1 << 61) - 1

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_MASK29 = _U((1 << 29) - 1)
_M61 = _U(M61)

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


def mulmod_m61(a, b):
    """(a * b) mod M61 for uint64 arrays with a, b < 2^61. Exact."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a1 = a >> _U(32)
    a0 = a & _MASK32
    b1 = b >> _U(32)
    b0 = b & _MASK32
    mid = a1 * b0 + a0 * b1  # < 2^62
    lo = a0 * b0  # < 2^64
    acc = (a1 * b1) * _U(8)  # 2^64 == 8 mod M61
    acc += mid >> _U(29)  # mid * 2^32 == (mid >> 29) + (mid & mask29) << 32
    acc += (mid & _MASK29) << _U(32)
    acc += lo >> _U(61)
    acc += lo & _M61
    acc = (acc >> _U(61)) + (acc & _M61)
    return acc - (acc >= _M61).astype(np.uint64) * _M61


def poly_eval(coeffs, points, modulus):
    """Evaluate sum_t coeffs[t] * x^t mod ``modulus`` at every x in ``points``.

    ``modulus`` is M61 or a prime below 2^32; coeffs are field elements
    (low-to-high degree) and points must be < modulus.
    """
    points = np.atleast_1d(np.asarray(points, dtype=np.uint64))
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    acc = np.full(points.shape, coeffs[-1], dtype=np.uint64)
    if modulus == M61:
        for c in coeffs[-2::-1]:
            acc = mulmod_m61(acc, points)
            acc += c
            acc -= (acc >= _M61).astype(np.uint64) * _M61
        return acc
    # products of two elements < 2^32 fit exactly in uint64
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
