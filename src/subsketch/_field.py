"""Exact arithmetic in GF(M61), M61 = 2^61 - 1, the one field of the hashing layer.

Hot paths run on numpy uint64 arrays.  The hashing layer's inputs are
32-bit: the blocked samplers hash points 2*t + tag for entry number
t < 2^31 and scale onto block widths of at most m <= 2^32
(:mod:`subsketch.oblivious` rejects larger sketches).  So a point x is
below 2^32 and a width w at most 2^32, and one reduction serves both
Horner's rule and range scaling.  For u < 2^63 and w <= 2^32 with
y = u*w / M61 < 3 * 2^32, :func:`_quotient` reads

    q = trunc(float(u) * fw),  fw = w * _SHRINK = w * (1 - 2^-45) / M61

off float64 products, and q is floor(y) or one less: float(M61) is 2^61,
so the constant is exact up to 2^-61, and the casts and the two products
add at most 2^-51 of relative error, below the 2^-45 shrink, so the float
quotient y' lies in (y - y*2^-44, y); y*2^-44 < 1.  Then u*w - q*M61 is
u*w mod M61 plus at most one M61, so below 2*M61; the products wrap mod
2^64 but their difference is that exact value.

* Horner's rule (:func:`_narrow_step`) takes u = acc and w = x:
  ``acc <- acc*x - q*M61 + c``.  ``acc < 3*M61`` holds between steps
  (the difference is below 2*M61 and c < M61), so y < 3 * 2^32, and acc's
  int64 view is non-negative and casts to float64 as it should.  Two
  conditional subtractions at the end give the canonical element.
* Range scaling (:func:`scale_to_range`) takes a field element u = v <
  M61, so y < w <= 2^32; r = v*w - q*M61 < 2*M61, and q + (r >= M61) is
  floor(v*w / M61).

Points in arithmetic progression -- the samplers' points 2*t + tag over
a full build, with t from an ``arange`` -- mostly skip Horner.  On
x0 + h*i a polynomial of degree K - 1 follows Newton's forward formula

    P(x0 + h*i) = sum over j < K of C(i, j) * Delta^j,

with Delta^j the j-th forward difference of P(x0), ..., P(x0 + (K-1)*h),
all mod M61.  So one Horner call evaluates the first K points of each
``_L``-point sub-block, K - 1 difference rounds give the Delta^j, and
one float64 matmul per block with the table of C(i, j) mod M61
(:func:`_newton_table`) gives the rest.  The matmul is exact:

* both sides are split into limbs of 21, 20 and 20 bits (``_LIMBS``, at
  offsets o = 0, 21, 41).  The differences are first rotated: D * 2^o mod
  M61 is a 61-bit rotation of D.  With C = sum_a C_a * 2^(o_a), the sum
  over j of C(i, j) * D_j is sum_b 2^(o_b) * (sum over a, j of
  C_a(i, j) * limb_b(D_j * 2^(o_a))), so each limb class b is one dot
  product of length 3K;
* the three terms of one j sum to less than 2^42 + 2 * 2^41 = 2^43, so
  with K <= _L = 2^10 every partial sum is an integer below 2^53: exact
  in float64 in any summation order, with or without FMA;
* the three classes are cast to uint64, and classes 1 and 2 enter as
  61-bit rotations by 21 and 41 bits, so the total stays below 2^63; one
  fold and one conditional subtraction give the canonical element.

:func:`poly_eval` takes this route for a block when _K_NEWTON <= K <= _L
and every sub-block of the block, the last one too, is a progression of
at least K points.  Other blocks (points out of progression, as in
column-restricted builds and the signs of kept cells, or a small K)
take :func:`_horner`.  Every route gives the same element, so the choice
never shows in the output.
"""

import functools

import numpy as np

M61 = (1 << 61) - 1
HASH_DOMAIN = 1 << 32  # points lie below it and range widths are at most it

_U = np.uint64
_M61 = _U(M61)
_61 = _U(61)  # a shift count
_SHRINK = (1.0 - 2.0**-45) / M61  # float(M61) == 2^61: exact

_CHUNK = 1 << 14  # points per block: the work buffers stay in the L2 cache
_L = 1 << 10  # points per sub-block of the Newton route; K <= _L keeps its sums exact
_K_NEWTON = 10  # fewest coefficients that take the Newton route; below it Horner won on 2^14 points
_ROWS = 16  # rows of the Newton table reduced per step
_RENORM_SHIFT = np.array([[31], [30]], dtype=np.uint64)  # of the table rows' (lo, hi) limbs
_RENORM_MASK = np.array([[(1 << 31) - 1], [(1 << 30) - 1]], dtype=np.uint64)
# (offset, mask) of the three limbs, of 21, 20 and 20 bits, of a value < 2^61
_LIMBS = ((0, (1 << 21) - 1), (21, (1 << 20) - 1), (41, (1 << 20) - 1))


def _quotient(u_i, fw, f, q_i):
    """q <- trunc(float(u) * fw) for fw = w * _SHRINK: floor(u*w / M61) or
    one less while u*w / M61 < 3 * 2^32 (see the module docstring).

    ``u_i`` and ``q_i`` are int64 views of u < 2^63 and of the uint64
    output; ``f`` is a float64 buffer.
    """
    np.copyto(f, u_i)
    np.multiply(f, fw, out=f)
    np.copyto(q_i, f, casting="unsafe")  # truncates


def _narrow_step(acc, acc_i, c, x, fx, f, q, q_i):
    """acc <- acc * x + c - q * M61 in place for points x < 2^32; acc < 3*M61 before and after.

    ``fx`` is x * _SHRINK; ``acc_i`` and ``q_i`` are int64 views of acc and
    the uint64 buffer ``q``; ``f`` is a float64 buffer.
    """
    _quotient(acc_i, fx, f, q_i)
    np.multiply(q, _M61, out=q)
    np.multiply(acc, x, out=acc)
    np.subtract(acc, q, out=acc)  # acc*x mod M61, plus at most one M61
    np.add(acc, c, out=acc)


def _fold(acc, t):
    """acc <- (acc >> 61) + (acc mod 2^61) in place, the same element mod M61;
    t is a work buffer.  A value below 2^63 comes out at most 2^61 + 2."""
    np.right_shift(acc, _61, out=t)
    np.bitwise_and(acc, _M61, out=acc)
    np.add(acc, t, out=acc)


def _canonical(acc, t):
    """Subtract M61 in place where acc >= M61: min(acc, acc - M61), wrapping.

    Maps acc < 2*M61 into [0, M61).
    """
    np.subtract(acc, _M61, out=t)
    np.minimum(acc, t, out=acc)


def _horner(coeffs, x, out, work, starts):
    """Horner evaluation over M61 of the ``_CHUNK``-point blocks of x < 2^32
    that begin at ``starts``, into the same slices of out, one
    :func:`_narrow_step` per coefficient; ``work`` is a (4, >= _CHUNK)
    uint64 buffer.
    """
    for start in starts:
        acc = out[start:start + _CHUNK]
        xb = x[start:start + _CHUNK]
        fx, f, q, t = work[:, : acc.size]
        fx, f = fx.view(np.float64), f.view(np.float64)
        np.copyto(fx, xb)  # exact: x < 2^53 (a mixed-type multiply would buffer its cast)
        np.multiply(fx, _SHRINK, out=fx)
        acc.fill(coeffs[-1])
        acc_i, q_i = acc.view(np.int64), q.view(np.int64)
        for c in coeffs[-2::-1]:
            _narrow_step(acc, acc_i, c, xb, fx, f, q, q_i)
        _canonical(acc, t)  # acc < 3*M61 takes two
        _canonical(acc, t)


def _is_progression(x, d, same):
    """True when every ``_L``-point sub-block of x (the last may be shorter)
    is an arithmetic progression; ``d`` (uint64) and ``same`` (bool) are
    buffers of at least x.size elements.  The first sub-block is tested
    on its own, so points out of progression from the start (a restricted
    build's) are rejected after ``_L`` points, not a whole block.

    Differences wrap mod 2^64, but points lie below 2^32, so equal wrapped
    differences are equal integer differences.
    """
    for head in (x[:_L], x[_L:]):
        full = head.size // _L
        for part in (head[:full * _L].reshape(full, _L), head[full * _L:].reshape(1, -1)):
            rows, cols = part.shape
            if rows and cols > 2:
                diff = d[:rows * (cols - 1)].reshape(rows, cols - 1)
                np.subtract(part[:, 1:], part[:, :-1], out=diff)
                eq = same[:diff.size].reshape(diff.shape)
                np.equal(diff, diff[:, :1], out=eq)
                if not eq.all():
                    return False
    return True


@functools.lru_cache(maxsize=8)
def _newton_table(k):
    """Read-only (3k, _L) float64 table: row a*k + j holds limb a (see
    ``_LIMBS``) of C(i, j) mod M61 for i < _L.  Cached per k.

    Row j of C is the exclusive prefix sum of row j - 1 (C(i, j) is the
    sum of C(i', j - 1) over i' < i).  Each row is carried as two limbs
    (lo, hi), worth lo + hi * 2^31, and one accumulate sums both; a sum of
    fewer than 2^10 terms adds 10 bits, so every second row is brought
    back from below 2^52 to below 2^32 by
    (lo, hi) <- (lo mod 2^31 + (hi >> 30), hi mod 2^30 + (lo >> 31)),
    which keeps the value mod M61 because 2^61 == 1.  Every ``_ROWS`` rows
    are reduced and split into the table (this overwrites their hi limbs).
    """
    table = np.empty((3, k, _L))
    pairs = np.zeros((_ROWS + 1, 2, _L), dtype=np.uint64)  # slot 0: the row before the block
    pairs[1, 0] = 1  # C(i, 0)
    carry = np.empty((2, _L - 1), dtype=np.uint64)
    v, t = np.empty((2, _ROWS, _L), dtype=np.uint64)
    for j0 in range(0, k, _ROWS):
        b = min(_ROWS, k - j0)
        for j in range(max(j0, 1), j0 + b):
            row = pairs[j - j0 + 1, :, 1:]
            np.add.accumulate(pairs[j - j0, :, :-1], axis=1, out=row)
            if j % 2 == 0:
                np.right_shift(row, _RENORM_SHIFT, out=carry)
                np.bitwise_and(row, _RENORM_MASK, out=row)
                np.add(row, carry[::-1], out=row)
        pairs[0] = pairs[b]
        lo, hi, vb, tb = pairs[1:b + 1, 0], pairs[1:b + 1, 1], v[:b], t[:b]
        np.copyto(vb, lo)
        _rotate_add(vb, hi, 31, tb)  # lo + hi * 2^31, below 2^62
        _fold(vb, tb)
        _canonical(vb, tb)
        for a, (offset, mask) in enumerate(_LIMBS):
            np.right_shift(vb, offset, out=tb)
            np.bitwise_and(tb, mask, out=tb)
            np.copyto(table[a, j0:j0 + b], tb.view(np.int64))
        pairs[1, 0, 0] = 0  # C(0, j) = 0 for j > 0
    table = table.reshape(3 * k, _L)
    table.flags.writeable = False
    return table


def _differences(v, t):
    """Newton forward differences down the rows, in place: column s of the
    (k, S) array v becomes (Delta^j v[0, s])_j mod M61; t is a buffer of v's
    shape."""
    for r in range(1, v.shape[0]):
        a, b, d = v[r:], v[r - 1:-1], t[r:]
        np.subtract(a, b, out=d)  # wraps where a < b
        np.add(d, _M61, out=a)  # wraps back where a >= b
        np.minimum(a, d, out=a)


def _rotate_add(acc, v, r, u):
    """acc += v * 2^r as a 61-bit rotation of v < 2^61: the added
    (v << r mod 2^61) + (v >> (61 - r)) is the same element mod M61 and is
    below 2^61 + 2^r.  Overwrites v and u.
    """
    np.left_shift(v, r, out=u)
    np.bitwise_and(u, _M61, out=u)
    np.add(acc, u, out=acc)
    np.right_shift(v, 61 - r, out=v)
    np.add(acc, v, out=acc)


def _newton_block(diffs, table, limbs, rot, prod, acc, t, u):
    """Horner-free evaluation of m progression sub-blocks: acc[s, i] becomes
    P(x0_s + h_s*i) for i < _L, the sum over j of C(i, j) * diffs[s, j]
    mod M61, where row s of the (m, k) array ``diffs`` holds the forward
    differences Delta^j of sub-block s.

    One float64 matmul computes the three limb classes; see the module
    docstring for why it is exact.  ``limbs`` is a (3m, 3k) float64
    buffer, ``rot`` a (2, 3, m, k) and ``t``, ``u`` (m, _L) uint64 buffers,
    ``prod`` a (3m, _L) float64 buffer.
    """
    m, k = diffs.shape
    rot, tmp = rot
    np.copyto(rot[0], diffs)
    for a in (1, 2):  # diffs * 2^offset_a mod M61: rotations of a 61-bit value
        offset = _LIMBS[a][0]
        np.left_shift(diffs, offset, out=rot[a])
        np.bitwise_and(rot[a], _M61, out=rot[a])
        np.right_shift(diffs, 61 - offset, out=tmp[0])
        np.bitwise_or(rot[a], tmp[0], out=rot[a])
    grid = limbs.reshape(3, m, 3, k)  # [b, s, a, j]: limb b of rot[a][s, j]
    for b, (offset, mask) in enumerate(_LIMBS):
        np.right_shift(rot, offset, out=tmp)
        np.bitwise_and(tmp, mask, out=tmp)
        np.copyto(grid[b], tmp.view(np.int64).transpose(1, 0, 2))
    np.matmul(limbs, table, out=prod)  # row b*m + s: class b of sub-block s
    c0, c1, c2 = prod.reshape(3, m, _L)
    np.copyto(acc.view(np.int64), c0, casting="unsafe")
    for c, (offset, _) in zip((c1, c2), _LIMBS[1:]):
        np.copyto(t.view(np.int64), c, casting="unsafe")
        _rotate_add(acc, t, offset, u)  # < 2^63 after both
    _fold(acc, t)  # < 2^61 + 3
    _canonical(acc, t)


def _newton(coeffs, x, out, work, starts):
    """Newton-route evaluation over M61 of the ``_CHUNK``-point blocks of x
    that begin at ``starts``, into the same slices of out.  Every ``_L``-point
    sub-block of those blocks must be an arithmetic progression of at least
    K = len(coeffs) <= _L points; ``work`` is as for :func:`_horner`.

    One Horner call evaluates the first K points of every sub-block, K - 1
    rounds turn them into forward differences, and :func:`_newton_block`
    gives each block.
    """
    k, n = coeffs.size, x.size
    subs = np.concatenate([np.arange(s, min(s + _CHUNK, n), _L) for s in starts])
    heads = x[np.arange(k)[:, None] + subs]  # (k, S): the first k points of each
    vals = np.empty_like(heads)
    _horner(coeffs, heads.reshape(-1), vals.reshape(-1), work, range(0, heads.size, _CHUNK))
    _differences(vals, heads)
    diffs = heads.reshape(-1, k)  # (S, k): one sub-block per row
    np.copyto(diffs, vals.T)
    table = _newton_table(k)
    per = _CHUNK // _L
    limbs, rot = np.empty(9 * per * k), np.empty(6 * per * k, dtype=np.uint64)
    prod = np.empty((3 * per, _L))
    for i, s in enumerate(starts):
        block = diffs[i * per:(i + 1) * per]
        m, size = block.shape[0], min(_CHUNK, n - s)
        full = size == m * _L  # else the last block, whose last sub-block is short
        acc = (out[s:s + size] if full else work[0, : m * _L]).reshape(m, _L)
        _newton_block(block, table, limbs[: 9 * m * k].reshape(3 * m, 3 * k),
                      rot[: 6 * m * k].reshape(2, 3, m, k), prod[: 3 * m], acc,
                      *(w[: m * _L].reshape(m, _L) for w in work[1:3]))
        if not full:
            out[s:s + size] = acc.reshape(-1)[:size]


def poly_eval(coeffs, points):
    """Evaluate sum_t coeffs[t] * x^t mod M61 at every x in ``points``.

    coeffs are field elements (low-to-high degree) and points must be below
    2^32 (:meth:`subsketch.kwise.KWiseFamily.evaluate` checks).  The points
    are evaluated in blocks of ``_CHUNK``.  With ``_K_NEWTON`` <= K <= ``_L``
    coefficients, a block whose ``_L``-point sub-blocks are all arithmetic
    progressions of at least K points takes :func:`_newton`; every other
    block takes :func:`_horner`.  Both give the same element.
    """
    points = np.atleast_1d(np.asarray(points, dtype=np.uint64))
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    flat = points.reshape(-1)
    n, k = flat.size, coeffs.size
    out = np.empty(n, dtype=np.uint64)
    work = np.empty((4, min(_CHUNK, -(-n // _L) * _L)), dtype=np.uint64)
    starts = range(0, n, _CHUNK)
    newton = []
    if _K_NEWTON <= k <= _L:
        newton = [s for s in starts
                  if (min(n - s, _CHUNK) - 1) % _L + 1 >= k  # the last sub-block too
                  and _is_progression(flat[s:s + _CHUNK], work[0], work[1].view(bool))]
    _horner(coeffs, flat, out, work, sorted(set(starts).difference(newton)))
    if newton:
        _newton(coeffs, flat, out, work, newton)
    return out.reshape(points.shape)


def scale_to_range(values, width):
    """floor(values * width / M61), exact; maps field elements onto [0, width).

    ``width`` may be a scalar or a per-value array, at most 2^32.  The
    values are scaled in blocks of ``_CHUNK`` through one set of work
    buffers, so a call allocates little beyond its output; each block
    takes :func:`_quotient` and one correction (see the module docstring).
    """
    values = np.atleast_1d(np.asarray(values, dtype=np.uint64))
    w = np.asarray(width, dtype=np.uint64)
    shape = np.broadcast_shapes(values.shape, w.shape)
    v = np.broadcast_to(values, shape).reshape(-1)
    out = np.empty(v.size, dtype=np.uint64)
    work = np.empty((4, min(_CHUNK, v.size)), dtype=np.uint64)
    if w.ndim:
        w = np.broadcast_to(w, shape).reshape(-1)
    for start in range(0, v.size, _CHUNK):
        vc, q = v[start:start + _CHUNK], out[start:start + _CHUNK]
        wc = w[start:start + _CHUNK] if w.ndim else w
        fw, f, r, t = work[:, : vc.size]
        fw, f = fw.view(np.float64), f.view(np.float64)
        np.copyto(fw, wc)  # exact: w <= 2^32
        np.multiply(fw, _SHRINK, out=fw)
        _quotient(vc.view(np.int64), fw, f, q.view(np.int64))
        np.multiply(vc, wc, out=r)
        np.multiply(q, _M61, out=t)
        np.subtract(r, t, out=r)  # v*w - q*M61, below 2*M61
        carry = t.view(bool)[: r.size]
        np.greater_equal(r, _M61, out=carry)
        np.add(q, carry, out=q)
    return out.reshape(shape)


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
