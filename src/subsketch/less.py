"""Score-adapted sketches: independent-column and independent-entry kinds.

Both kinds take a :class:`~subsketch.oblivious.SketchSpec` that carries
leverage scores.  The ``less-ic`` kind reuses the blocked one-hot layout
but lets the block height vary per column with the leverage score of the
matching row:

    b_j = max(floor(1 / (beta1 * p * z_j)), 1)      block height
    s_j = ceil(m / b_j)                             blocks in column j

Blocks gamma = 1..s_j cover rows [b_j*(gamma-1)+1, min(b_j*gamma, m)]; the
bottom block is truncated so the blocks exactly partition [1, m].  Each
block holds one entry xi * alpha with alpha = sqrt(p * width), which makes
the column energy sum(alpha^2) = p * m exactly, independent of the scores.
Columns with small scores degenerate to a single block, so every column
keeps at least one nonzero.

The ``less-ie`` kind keeps entry (i, j) independently with probability beta1 * z_j * p
at magnitude 1/sqrt(beta1 * z_j), giving every entry variance p.
"""

import math
import warnings

import numpy as np

from .calibration import CONSTANTS
from .errors import ParameterError
from .oblivious import SketchSpec, _bernoulli_sketch, blocked_entries, independence_degree
from .sketch import SparseSketch


def _scores(spec, kind):
    """The leverage scores of a ``kind`` spec, which a build needs."""
    if spec.kind != kind:
        raise ParameterError(f"need kind {kind!r}, got {spec.kind!r}")
    if spec.scores is None:
        raise ParameterError(f"building a {kind} sketch needs leverage scores")
    return spec.scores


def block_heights(spec):
    """b_j per column; values above m behave identically to m."""
    scores = _scores(spec, "less-ic")
    denom = scores.beta1 * spec.p * scores.z
    raw = np.floor(1.0 / np.maximum(denom, 1.0 / (4.0 * spec.m)))
    return np.minimum(np.maximum(raw, 1.0), spec.m).astype(np.int64)


def column_sparsities(spec):
    """s_j = ceil(m / b_j) per column."""
    return -(-spec.m // block_heights(spec))


def subcolumn_layout(spec, j):
    """Block layout of column ``j`` (0-based) as (lo, hi, alpha) tuples.

    lo and hi are 1-based inclusive row bounds; consecutive blocks tile
    [1, m] with the last block truncated at m.  alpha = sqrt(p * width).
    """
    if not 0 <= j < spec.n:
        raise ParameterError(f"column index {j} out of range [0, {spec.n})")
    b = int(block_heights(spec)[j])
    s_j = -(-spec.m // b)
    out = []
    for gamma in range(1, s_j + 1):
        lo = b * (gamma - 1) + 1
        hi = min(b * gamma, spec.m)
        out.append((lo, hi, math.sqrt(spec.p * (hi - lo + 1))))
    return out


def build_less_ic(spec, columns=None):
    """Sample an independent-column score-adapted sketch for ``spec``.

    The entries come from :func:`~subsketch.oblivious.blocked_entries`
    with block heights b_j (when every b_j is m/s, the ``osnap`` rows and
    signs), each scaled by sqrt(p * width).  With ``columns`` only those
    columns are hashed; they equal the full build's and every other
    column is empty.
    """
    b = block_heights(spec)
    if spec.p >= 1.0:
        raise ParameterError(
            "the independent-column construction requires p < 1; use a dense baseline for p = 1"
        )
    pm = spec.p * spec.m
    if pm < 1.0:
        raise ParameterError(f"need p*m >= 1, got {pm}")
    indptr, rows, signs, width, columns = blocked_entries(spec, b, columns)
    return SparseSketch(
        spec=spec,
        indptr=indptr,
        rows=rows,
        values=signs * np.sqrt(spec.p * width),
        scale=1.0 / math.sqrt(pm),
        columns=columns,
    )


def build_less_ie(spec):
    """Sample an independent-entry score-adapted sketch: entry (i, j) kept w.p. beta1 * z_j * p.

    Kept entries carry value +-1/sqrt(beta1 * z_j) (unscaled), so every
    entry has variance p.  Columns whose keep-probability exceeds 1 are
    clamped with a warning.  The cells are drawn by the ``ose-ie`` sampler
    with per-column keep probabilities: in O(nnz + n) with the independent
    family (the default for ``less-ie`` specs), by a scan of the whole m*n
    grid with a K-wise one.
    """
    scores = _scores(spec, "less-ie")
    prob = scores.beta1 * scores.z * spec.p
    clamped = int(np.sum(prob > 1.0))
    if clamped:
        warnings.warn(
            f"{clamped} column(s) had beta1*z*p > 1; keep-probability clamped to 1",
            stacklevel=2,
        )
        prob = np.minimum(prob, 1.0)
    mag = 1.0 / np.sqrt(scores.beta1 * np.maximum(scores.z, 1e-300))
    return _bernoulli_sketch(spec, prob, mag)


def less_default_parameters(d, eps, delta, scores, *, kind="less-ic", seed=0,
                            c_m=None, c_pm=None):
    """Calibrated score-adapted spec for the given approximate scores.

    m = ceil(:func:`less_dimension_target`) and
    pm = ceil(:func:`less_sparsity_target`), capped at m.  When the cap
    binds the result has p = 1, which build_less_ic rejects; use a dense
    baseline in that regime.
    """
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ParameterError("eps and delta must lie in (0, 1)")
    m = max(math.ceil(less_dimension_target(d, eps, delta, c_m)), 1)
    pm = math.ceil(less_sparsity_target(d, eps, delta, c_pm))
    if pm >= m:
        warnings.warn(
            f"required sparsity p*m = {pm} reaches m = {m}; capping at p = 1",
            stacklevel=2,
        )
        pm = m
    pm = max(pm, 1)
    return SketchSpec(
        kind=kind, m=m, p=pm / m, scores=scores, seed=seed,
        degree_k=independence_degree(d, eps, delta, pm),
    )


def less_dimension_target(d, eps, delta, c_m=None):
    """Continuous m target C_m * ((d + Ld^2)/eps^2 + Ld^3/eps), Ld = ln(d/delta)."""
    c_m = CONSTANTS.c_m_less if c_m is None else c_m
    Ld = math.log(max(d / delta, math.e))
    return c_m * ((d + Ld**2) / eps**2 + Ld**3 / eps)


def less_sparsity_target(d, eps, delta, c_pm=None):
    """Continuous p*m target C_pm * max(L^2.5/eps, L^3)."""
    c_pm = CONSTANTS.c_pm_less if c_pm is None else c_pm
    L = math.log(max(d / (eps * delta), math.e))
    return c_pm * max(L**2.5 / eps, L**3)
