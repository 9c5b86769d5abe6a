"""Inputs and checks shared by several test modules."""

import numpy as np
import pytest
import scipy.sparse

from subsketch import M61, KWiseFamily


def _embed_shaped(dense, seed):
    """A reduced input shaped like the embed benchmark's: a dense Gaussian
    2^12 x 32, or a sparse 2^15 x 32 with ~3.4k random nonzeros plus a
    diagonal that keeps it full column rank (~10% of rows touched)."""
    rng = np.random.default_rng(seed)
    if dense:
        return rng.standard_normal((1 << 12, 32))
    n, d = 1 << 15, 32
    A = scipy.sparse.random(n, d, density=3400 / (n * d), random_state=rng, format="csr")
    lift = scipy.sparse.csr_matrix((rng.uniform(1, 2, d), (np.arange(d), np.arange(d))),
                                   shape=(n, d))
    return (A + lift).tocsr()


@pytest.fixture
def embed_shaped():
    """``embed_shaped(dense, seed)`` builds one of the reduced embed inputs."""
    return _embed_shaped


def _det_mod(rows, q):
    """Determinant mod the prime q of a square matrix of Python ints, by elimination."""
    a, det = [list(r) for r in rows], 1
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col] % q), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot], det = a[pivot], a[col], -det
        det = det * a[col][col] % q
        inv = pow(a[col][col], -1, q)
        for r in range(col + 1, len(a)):
            f = a[r][col] * inv % q
            a[r] = [(x - f * y) % q for x, y in zip(a[r], a[col])]
    return det % q


def _vandermonde_exact(points, at, seed=0):
    """True when the K-coefficient family maps c to V*c at the K distinct
    points ``points[at]``, exactly, and V is invertible mod M61.

    V[i][t] = x_i^t is the Vandermonde matrix of those points.  Each family
    is evaluated over all of ``points``, so the points as a whole choose the
    evaluator's route.  The map is checked against Python ints at every unit
    vector e_t (column t of V) and at four random c; with det V != 0 mod M61,
    c -> V*c is a bijection of GF(M61)^K, so uniform coefficients give
    exactly uniform values at the K points: exact K-wise independence.
    """
    points = np.asarray(points, dtype=np.uint64)
    xs = [int(points[i]) for i in at]
    k = len(xs)
    V = [[pow(x, t, M61) for t in range(k)] for x in xs]
    rng = np.random.default_rng(seed)
    units = [[int(t == j) for j in range(k)] for t in range(k)]
    randoms = [[int(c) for c in rng.integers(0, M61, k, dtype=np.uint64)] for _ in range(4)]
    for c in units + randoms:
        got = KWiseFamily.from_coefficients(c).evaluate(points)[list(at)].tolist()
        if got != [sum(v * cj for v, cj in zip(row, c)) % M61 for row in V]:
            return False
    return _det_mod(V, M61) != 0


@pytest.fixture
def vandermonde_exact():
    """``vandermonde_exact(points, at, seed=0)``: see :func:`_vandermonde_exact`."""
    return _vandermonde_exact
