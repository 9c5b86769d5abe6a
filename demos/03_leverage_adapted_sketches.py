"""Score-adapted sketches: sparsity that follows the leverage profile.

Leverage scores measure how much each row of a tall matrix matters to its
column space.  The independent-column construction spends nonzeros where
scores are large (short blocks, many of them) and decays to a single
nonzero per column where scores are tiny, while keeping the column energy
pinned at exactly p*m everywhere.
"""

import numpy as np

import subsketch as ss

rng = np.random.default_rng(7)

# a matrix with a deliberately lopsided leverage profile
n, d = 2000, 8
A = rng.standard_normal((n, d)) * 0.05
A[:10] += 20 * rng.standard_normal((10, d))  # ten dominant rows

scores = ss.exact_leverage(A)
print(f"leverage scores: sum = {scores.z.sum():.6f} (= d = {d})")
print(f"top-10 rows hold {scores.z[:10].sum() / d:.1%} of the total\n")

spec = ss.SketchSpec(kind="less-ic", m=256, p=0.125, scores=scores, seed=1)
s_cols = ss.column_sparsities(spec)
print("per-column nonzeros track the scores:")
print(f"  dominant rows (z ~ {scores.z[:10].mean():.2f}): "
      f"{s_cols[:10].tolist()}")
print(f"  bulk rows     (z ~ {scores.z[10:].mean():.4f}): "
      f"median {int(np.median(s_cols[10:]))}")

sk = ss.build_less_ic(spec)
pm = spec.p * spec.m
print(f"\ntotal nnz = {sk.nnz} <= n + 4*beta*pm*d = "
      f"{n + 4 * pm * d:.0f}")
print(f"column energy spread around p*m = {pm}: "
      f"max |err| = {np.max(np.abs(sk.column_energy() - pm)):.2e}")

# block layout of one dominant and one bulk column
print("\nblock layout (1-based row ranges, alpha = sqrt(p * width)):")
for j, tag in [(0, "dominant"), (500, "bulk")]:
    layout = ss.subcolumn_layout(spec, j)
    head = ", ".join(f"[{lo}:{hi}]" for lo, hi, _ in layout[:4])
    more = f", ... ({len(layout)} blocks)" if len(layout) > 4 else ""
    print(f"  column {j:4d} ({tag}): {head}{more}")

# coarse scores from a sketch, validated against the exact oracle
approx = ss.approx_leverage(A, gamma=0.5, seed=3)
report = ss.validate_scores(A, approx)
print(f"\ncoarse scores: beta1 = {approx.beta1:.1f}, "
      f"beta2 = {approx.beta2:.2f}, valid: {report.passed}")
