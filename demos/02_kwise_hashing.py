"""The seeded hash family behind every sketch.

A degree-(K-1) polynomial over GF(M61), M61 = 2^61 - 1, gives exactly
K-wise independent field elements from one 64-bit seed.  At K distinct
points the family maps its coefficient vector c to V*c, with V the
Vandermonde matrix of the points.  V is invertible, so every vector of K
values comes from exactly one c: uniform coefficients give exactly uniform
values.  We watch the production evaluator do this, then check its
streams statistically.
"""

import numpy as np

import subsketch as ss

M61 = ss.M61

# --- exact K-wise independence: the Vandermonde bijection on M61 -------
points = [0, 3, 2**32 - 1]  # K = 3 distinct points of the 32-bit domain
K = len(points)
V = [[pow(x, t, M61) for t in range(K)] for x in points]


def solve(V, y):
    """The c with V*c = y mod M61, by Gauss-Jordan elimination on Python ints;
    also det V mod M61."""
    a = [row[:] + [v] for row, v in zip(V, y)]
    det = 1
    for col in range(len(a)):
        pivot = next(r for r in range(col, len(a)) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        det = det * a[col][col] * (-1 if pivot != col else 1) % M61
        inv = pow(a[col][col], -1, M61)
        a[col] = [v * inv % M61 for v in a[col]]
        for r in range(len(a)):
            if r != col:
                f = a[r][col]
                a[r] = [(v - f * w) % M61 for v, w in zip(a[r], a[col])]
    return [row[-1] for row in a], det


# every target (y0, y1, y2) is hit by exactly one coefficient vector
rng = np.random.default_rng(2)
for y in ([0, 0, 0], [1, 2, 3], [int(v) for v in rng.integers(0, M61, K, dtype=np.uint64)]):
    c, det = solve(V, y)
    fam = ss.KWiseFamily.from_coefficients(c)
    got = fam.evaluate(np.array(points, dtype=np.uint64)).tolist()
    print(f"target {y} <- coefficients {c}: evaluator gives {got}")
    assert got == y
print(f"det V mod M61 = {det} != 0, so c -> V*c is a bijection of GF(M61)^{K}:")
print("uniform coefficients give exactly uniform (h(0), h(3), h(2^32 - 1))\n")

# --- the production field ---------------------------------------------
fam = ss.KWiseFamily(seed=2024, degree_k=16)
pts = np.arange(200_000, dtype=np.uint64)
signs = fam.rademacher(pts)
draws = fam.uniform_range(pts, 0, 9)

print(f"production family: degree_k={fam.degree_k}, modulus=2^61-1")
print(f"sign mean over 2e5 points:   {signs.mean():+.5f}  (4 SE = "
      f"{4 / np.sqrt(len(pts)):.5f})")
print(f"digit frequencies on [0, 9]: {np.bincount(draws) / len(draws)}")

# two seeds give decorrelated streams
other = ss.KWiseFamily(seed=2025, degree_k=16)
corr = float(np.mean(signs * other.rademacher(pts)))
print(f"cross-seed sign correlation: {corr:+.5f}")

# builders split one family into sign and position sub-streams by using
# even and odd evaluation points
print("\nsign stream uses points 2i, position stream 2i+1:")
print("  sign(3)     =", int(fam.rademacher(6)[0]))
print("  position(3) =", int(fam.uniform_range(7, 0, 99)[0]))
