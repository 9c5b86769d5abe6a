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

from .errors import ParameterError, as_int
from .oblivious import _bernoulli_sketch, blocked_entries, check_columns
from .sketch import SparseSketch


def _scores(spec, kind):
    """The leverage scores of a ``kind`` spec, which a build needs."""
    if spec.kind != kind:
        raise ParameterError(f"need kind {kind!r}, got {spec.kind!r}")
    if spec.scores is None:
        raise ParameterError(f"building a {kind} sketch needs leverage scores")
    return spec.scores


def _heights(spec, z):
    """b_j for the scores ``z`` of some columns; the formula is elementwise."""
    denom = spec.scores.beta1 * spec.p * z
    raw = np.floor(1.0 / np.maximum(denom, 1.0 / (4.0 * spec.m)))
    return np.minimum(np.maximum(raw, 1.0), spec.m).astype(np.int64)


def column_sparsities(spec):
    """s_j = ceil(m / b_j) per column."""
    return -(-spec.m // _heights(spec, _scores(spec, "less-ic").z))


def subcolumn_layout(spec, j):
    """Block layout of column ``j`` (0-based) as (lo, hi, alpha) tuples.

    lo and hi are 1-based inclusive row bounds; consecutive blocks tile
    [1, m] with the last block truncated at m.  alpha = sqrt(p * width).
    Only column j's height is computed, so a call costs O(s_j), not O(n).
    """
    j = as_int("j", j)
    if not 0 <= j < spec.n:
        raise ParameterError(f"column index {j} out of range [0, {spec.n})")
    b = int(_heights(spec, _scores(spec, "less-ic").at([j]))[0])
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
    column is empty.  Heights and counts are computed on the built
    columns and on the support of the scores only, read from the rows
    the scores are held on.  A column with z_j = 0 has height m and a
    single block, so column j's first entry is

        offset_j = j + sum over j' < j with z_j' != 0 of (s_j' - 1);

    on a full build that is the running count of blocks, which
    :func:`~subsketch.oblivious.blocked_entries` takes from the column
    order.  A restricted build on scores held on some rows (as
    :func:`~subsketch.leverage.approx_leverage` gives them for a
    scipy.sparse A) costs O(|J| + |rows| + entries built), with no pass
    over n.
    """
    scores = _scores(spec, "less-ic")
    if spec.p >= 1.0:
        raise ParameterError(
            "the independent-column construction requires p < 1; use a dense baseline for p = 1"
        )
    pm = spec.p * spec.m
    if pm < 1.0:
        raise ParameterError(f"need p*m >= 1, got {pm}")
    offsets = total = None
    if columns is None:
        heights = _heights(spec, scores.z)
    else:
        columns = check_columns(columns, spec.n)
        live = scores.z_rows != 0.0  # a bool pass: faster than on floats
        support = np.flatnonzero(live) if scores.rows is None else scores.rows[live]
        extra = np.zeros(support.size + 1, dtype=np.int64)  # blocks past the first, running
        np.cumsum(-(-spec.m // _heights(spec, scores.z_rows[live])) - 1, out=extra[1:])
        offsets = columns + extra[np.searchsorted(support, columns)]
        total = spec.n + int(extra[-1])
        heights = _heights(spec, scores.at(columns))
    ptr, rows, signs, width = blocked_entries(spec, heights, columns, offsets, total)
    return SparseSketch(
        spec=spec,
        indptr=ptr,
        rows=rows,
        values=signs * np.sqrt(spec.p * width),
        columns=columns,
        full_nnz=total,
    )


def build_less_ie(spec):
    """Sample an independent-entry score-adapted sketch: entry (i, j) kept w.p. beta1 * z_j * p.

    Kept entries carry value +-1/sqrt(beta1 * z_j) (unscaled), so every
    entry has variance p.  Columns whose keep-probability exceeds 1 are
    clamped with a warning.  The cells are drawn by the ``ose-ie`` sampler
    with per-column keep probabilities, in O(nnz + n).
    """
    scores = _scores(spec, "less-ie")
    z = scores.z
    prob = scores.beta1 * z * spec.p
    clamped = int(np.sum(prob > 1.0))
    if clamped:
        warnings.warn(
            f"{clamped} column(s) had beta1*z*p > 1; keep-probability clamped to 1",
            stacklevel=2,
        )
        prob = np.minimum(prob, 1.0)
    mag = 1.0 / np.sqrt(scores.beta1 * np.maximum(z, 1e-300))
    return _bernoulli_sketch(spec, prob, mag)
