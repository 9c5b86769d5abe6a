"""Build a blocked one-hot sketch and look at its structure.

Each column of the unscaled matrix splits into s = p*m blocks of height
m/s; every block carries exactly one +-1 at a hashed position.  The scaled
sketch therefore has unit column norms and a column energy of exactly p*m,
which is the property that kills the column-energy error term entirely.
"""

import numpy as np

import subsketch as ss

spec = ss.SketchSpec.from_sparsity("osnap", m=12, n=8, s=3, seed=42)
sketch = ss.build_osnap(spec)

print(f"spec: m={spec.m} n={spec.n} p={spec.p:.3f} (s={spec.s}), "
      f"degree_k={spec.degree_k}")
print(f"nonzeros: {sketch.nnz} (exactly s per column)")
print(f"global scale: 1/sqrt(p*m) = {sketch.scale:.4f}\n")

dense = sketch.materialize()
with np.printoptions(precision=2, suppress=True):
    print("scaled sketch (blocks of 4 rows, one entry per block per column):")
    print(dense)

print("\ncolumn energies of the unscaled matrix (all equal p*m):")
print(sketch.column_energy())

print("\nscaled column norms (all exactly 1):")
print(np.linalg.norm(dense, axis=0))

# determinism: same spec, same sketch
again = ss.build_osnap(spec)
print("\nrebuild with the same seed is bit-identical:",
      np.array_equal(dense, again.materialize()))

# the same interface covers the i.i.d.-entry model and the dense baseline
iid = ss.build_ose_ie(ss.SketchSpec(kind="ose-ie", m=12, n=8, p=0.25, seed=42))
print(f"\ni.i.d.-entry sketch at the same p: nnz={iid.nnz} "
      f"(random, ~Binomial({12 * 8}, 0.25))")
