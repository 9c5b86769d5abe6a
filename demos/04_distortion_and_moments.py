"""Measuring embedding quality and checking exact moment identities.

Three probes: the singular-value band of a sketched orthonormal basis,
the split of the embedding error into column-energy and cross terms, and
Monte-Carlo trace moments of the decoupled product of two independent
sketches, whose second moment has a closed form: 2 p^2 m (d + 1).
"""

import numpy as np

import subsketch as ss
from subsketch.experiments import builder as trial_builder

rng = np.random.default_rng(0)
n, d, m, s = 1024, 8, 128, 16
p = s / m
U = ss.haar_basis(n, d, rng)

spec = ss.SketchSpec.from_sparsity("osnap", m=m, n=n, s=s, seed=5)
sketch = ss.build_osnap(spec)

rep = ss.distortion(sketch, U, eps_target=0.5)
print(f"singular values of the sketched basis: "
      f"[{rep.s_min:.3f}, {rep.s_max:.3f}] -> pass(eps=0.5): {rep.passed}")

# the fixed-sparsity construction has an identically-zero energy term
diag, off, norms = ss.diagonal_offdiagonal_split(sketch, U)
print(f"error split: ||energy term|| = {norms['diag']:.1e} (exactly zero), "
      f"||cross term|| = {norms['offdiag']:.2f}")

iid = ss.build_ose_ie(ss.SketchSpec(kind="ose-ie", m=m, n=n, p=p, seed=5))
_, _, iid_norms = ss.diagonal_offdiagonal_split(iid, U)
print(f"i.i.d. model for comparison: ||energy term|| = "
      f"{iid_norms['diag']:.2f} (fluctuates)\n")

# decoupled second moment: closed form 2 p^2 m (d+1), same for all models
expected = 2 * p**2 * m * (d + 1)
print(f"decoupled trace moment at q=1, expected {expected}:")
builders = {
    "blocked": trial_builder(spec),
    "i.i.d.": trial_builder(
        ss.SketchSpec(kind="ose-ie", m=m, n=n, p=p)),
    "gaussian": trial_builder(
        ss.SketchSpec(kind="gaussian-dense", m=m, n=n, p=p)),
}
for name, builder in builders.items():
    probe = ss.decoupled_gamma_moment(builder, U, q=1, trials=400, seed=9)
    print(f"  {name:9s} {probe.estimate:7.2f} +- {probe.std_error:.2f}")

# the reference band for a dense Gaussian embedding
(lo, hi), bound = ss.gaussian_reference(400, 20, t=3.0)
print(f"\ngaussian reference, m=400 d=20 t=3: band [{lo:.3f}, {hi:.3f}] "
      f"with probability >= {bound:.4f}")
