"""The seeded hash family behind every sketch.

A degree-(K-1) polynomial over GF(2^61 - 1) gives exactly K-wise
independent field elements from one 64-bit seed.  On a toy field we can
enumerate every polynomial and watch the joint law come out exactly
uniform; on the big field we check the streams statistically.
"""

import itertools

import numpy as np

import subsketch as ss

# --- exact K-wise independence on F_5, by brute force -----------------
counts = np.zeros((5, 5), dtype=int)
for a, b in itertools.product(range(5), repeat=2):
    fam = ss.KWiseFamily.from_coefficients([a, b], field_modulus=5)
    v = fam.evaluate(np.array([0, 3], dtype=np.uint64))
    counts[int(v[0]), int(v[1])] += 1

print("joint law of (h(0), h(3)) over all 25 affine maps on F_5:")
print(counts)
print("every pair appears exactly once -> exactly 2-wise independent\n")

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
