"""Sketch specifications, the oblivious constructions and the build registry.

Kinds:

* ``osnap`` -- each column is split into s = p*m equal blocks of height
  m/s; every block holds exactly one +-1 entry at a position drawn
  uniformly within the block.  Signs and positions come from
  domain-separated sub-streams of one K-wise hash family.
* ``ose-ie`` -- every entry is independently nonzero with probability p
  and carries an independent sign, drawn by geometric gaps.
* ``gaussian-dense`` -- the dense Gaussian comparison model with
  matching entry variance p.
* ``less-ic`` / ``less-ie`` -- the leverage-score-adapted kinds built in
  :mod:`subsketch.less`; their spec carries the scores.

The kind fixes all of its randomness (``SketchSpec.family``): the blocked
kinds in ``COLUMN_KINDS`` hash with a degree-(K-1) polynomial family and
only their spec holds a K; every other kind draws from one numpy
generator seeded by the spec (:func:`_generator`).  All builders return
the unscaled matrix S, whose spec fixes the global scale 1/sqrt(p*m); they
are pure functions of the spec and deterministic for a fixed seed
regardless of execution environment.
"""

import importlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._field import HASH_DOMAIN, derive_seed, scale_to_range
from .calibration import CONSTANTS
from .errors import ParameterError, as_int, as_real
from .kwise import KWiseFamily
from .sketch import DenseSketch, SparseSketch

# kind -> (module, builder); looked up at call time, so a wrapper installed
# on the module attribute sees every build
_BUILDERS = {
    "osnap": ("oblivious", "build_osnap"),
    "ose-ie": ("oblivious", "build_ose_ie"),
    "gaussian-dense": ("oblivious", "build_dense_baseline"),
    "less-ic": ("less", "build_less_ic"),
    "less-ie": ("less", "build_less_ie"),
}
KINDS = tuple(_BUILDERS)
LESS_KINDS = ("less-ic", "less-ie")
# kinds whose column j hashes only its own points, so a build can skip columns
COLUMN_KINDS = ("osnap", "less-ic")


@dataclass(frozen=True, kw_only=True)
class SketchSpec:
    """Embedding parameters; ``s = p*m`` is the (mean) per-column sparsity.

    The less kinds adapt to leverage ``scores``; n then defaults to
    ``scores.n``.  A spec without scores (say, one read back from a file)
    describes a less sketch but cannot build one.  m, n, seed and degree_k
    are integers and p a real stored as float; only the hashing
    ``COLUMN_KINDS`` take a K (8 when None).  Seeds are taken mod 2^64:
    s and s + 2^64 build the same sketch (seed -1 that of 2^64 - 1), while
    the spec and a ``.skt`` header keep the seed as given.
    """

    kind: str
    m: int
    n: int = None
    p: float
    degree_k: int = None
    seed: int = 0
    scores: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown sketch kind {self.kind!r}")
        if self.scores is not None:
            if self.kind not in LESS_KINDS:
                raise ParameterError(f"{self.kind} takes no leverage scores")
            if self.n is None:
                object.__setattr__(self, "n", self.scores.n)
            elif self.n != self.scores.n:
                raise ParameterError(
                    f"n = {self.n} but the scores cover {self.scores.n} rows"
                )
        if self.n is None:
            raise ParameterError(f"{self.kind} needs n")
        if self.kind in COLUMN_KINDS:
            if self.degree_k is None:
                object.__setattr__(self, "degree_k", 8)
        elif self.degree_k is not None:
            raise ParameterError(f"{self.kind} does not hash with K; degree_k is for "
                                 f"{' and '.join(COLUMN_KINDS)}")
        for name in ("m", "n", "seed") + (("degree_k",) if self.degree_k is not None else ()):
            object.__setattr__(self, name, as_int(name, getattr(self, name),
                                                 None if name == "seed" else 1))
        if self.m > HASH_DOMAIN:  # every block width is at most m
            raise ParameterError(f"m must be at most 2^32, got {self.m}")
        object.__setattr__(self, "p", as_real("p", self.p, "(0, 1]"))
        if self.kind == "less-ic" and self.p >= 1.0:
            warnings.warn(
                "p = 1 spec: builders reject it; use a dense baseline instead",
                stacklevel=3,
            )
        if self.kind == "osnap":
            s = self.p * self.m
            s_int = round(s)
            if s_int < 1 or abs(s - s_int) > 1e-9 * max(1.0, s):
                raise ParameterError(
                    f"osnap requires s = p*m to be a positive integer, got {s}"
                )
            if self.m % s_int != 0:
                raise ParameterError(
                    f"osnap requires s = {s_int} to divide m = {self.m}"
                )

    @property
    def family(self):
        """The randomness model of the kind: ``"kwise"`` for the blocked
        ``COLUMN_KINDS``, ``"independent"`` for every other kind."""
        return "kwise" if self.kind in COLUMN_KINDS else "independent"

    @property
    def s(self):
        """Integer per-column sparsity p*m (exact for osnap)."""
        return int(round(self.p * self.m))

    @classmethod
    def from_sparsity(cls, kind, m, n, s, **kwargs):
        return cls(kind=kind, m=m, n=n, p=s / m, **kwargs)


def check_columns(columns, n):
    """``columns`` as int64, or ParameterError unless they are strictly
    increasing integers in [0, n)."""
    bad = ParameterError(f"columns must be strictly increasing integers in [0, {n})")
    cols = np.asarray(columns)
    if cols.ndim != 1 or not (cols.size == 0 or np.issubdtype(cols.dtype, np.integer)):
        raise bad
    cols = cols.astype(np.int64)  # before diff: unsigned differences wrap
    if cols.size and (np.any(np.diff(cols) <= 0) or cols[0] < 0 or cols[-1] >= n):
        raise bad
    return cols


def blocked_entries(spec, heights, columns=None, offsets=None, total=None):
    """Hashed entries of a blocked one-hot sketch; the sampler of ``osnap``
    and ``less-ic``.

    The caller lays the sketch out.  It builds ``columns`` (all n when
    None; else as returned by :func:`check_columns`), and built column i
    is cut from the top into blocks of height heights[i] (a scalar: the
    same for every column), the last one truncated at m; each block holds
    one entry.  Block gamma of built column i is entry t = offsets[i] +
    gamma of the ``total`` entries of the full sketch, which a restricted
    build passes (for osnap s*j and n*s); a full build numbers its entries
    in column order, so it needs neither, and its points form one
    progression.  Entry t's sign comes from hash point 2t and its row
    within the block from point 2t + 1, so a column's entries do not
    depend on which other columns are built.  The cost is
    O(built columns + built entries), so a build on the rows J a
    scipy.sparse A touches costs O(|J| + entries built) and makes no
    array of length n.  ParameterError for a sketch of 2^31 or more entries,
    whose points would leave the 32-bit hash domain.
    Returns the built columns' pointers (n + 1 on a full build, |J| + 1
    for ``columns`` J), and the rows, the signs and the block width of
    each built entry.
    """
    kept = -(-spec.m // heights)  # blocks of each built column
    built = spec.n if columns is None else columns.size
    ptr = np.zeros(built + 1, dtype=np.int64)  # the built columns' pointers
    np.cumsum(np.broadcast_to(kept, (built,)), out=ptr[1:])
    total = ptr[-1] if columns is None else total
    if total >= HASH_DOMAIN // 2:  # entry t hashes points 2t and 2t + 1
        raise ParameterError(f"a blocked sketch holds at most 2^31 - 1 entries, got {total}")
    first = ptr[:-1]  # where each built column's entries begin
    t = np.arange(ptr[-1], dtype=np.uint64)  # a full build's points stay in progression
    if columns is not None:  # shift each column's run from first_i to offsets_i
        t += np.repeat((offsets - first).astype(np.uint64), kept)
    family = KWiseFamily(seed=spec.seed, degree_k=spec.degree_k)
    signs = family.rademacher(t * np.uint64(2))
    field = family.evaluate(t * np.uint64(2) + np.uint64(1))
    # laid out after the hashing, so these arrays do not add to its peak memory
    lo = np.arange(ptr[-1], dtype=np.int64) - np.repeat(first, kept)  # block gamma
    width = heights if np.ndim(heights) == 0 else np.repeat(heights, kept)
    lo *= width  # 0-based block start
    width = np.minimum(lo + width, spec.m) - lo
    rows = lo + scale_to_range(field, width.view(np.uint64)).astype(np.int64)
    return ptr, rows, signs, width


def build_osnap(spec, columns=None):
    """Sample a blocked one-hot sketch: s blocks of height m/s per column.

    The entries come from :func:`blocked_entries`; column j's first is
    entry s*j.  With ``columns`` (a strictly increasing index array) only
    those columns are hashed; they equal the full build's and every other
    column is empty.
    """
    if spec.kind != "osnap":
        raise ParameterError(f"build_osnap needs kind 'osnap', got {spec.kind!r}")
    offsets = total = None
    if columns is not None:
        columns = check_columns(columns, spec.n)
        offsets, total = spec.s * columns, spec.n * spec.s
    ptr, rows, signs, _ = blocked_entries(spec, spec.m // spec.s, columns, offsets, total)
    return SparseSketch(
        spec=spec,
        indptr=ptr,
        rows=rows,
        values=signs,
        columns=columns,
        full_nnz=total,
    )


def _geometric_walk(rng, cells, p):
    """Sorted positions of an exact Bernoulli(p) process on [0, cells),
    drawn by geometric gaps without touching the other cells."""
    if p >= 1.0:
        return np.arange(cells, dtype=np.int64)
    out, pos, drawn, expect = [], -1, 0, cells * p
    while pos < cells - 1:
        draw = max(64, int(int(expect - drawn) + 1 + 6.0 * math.sqrt(max(expect, 1.0))))
        # a gap past the end ends the walk; capping it keeps cumsum from overflowing
        out.append(pos + np.cumsum(np.minimum(rng.geometric(p, size=draw), cells + 1)))
        pos, drawn = int(out[-1][-1]), drawn + draw
    flat = np.concatenate(out)
    return flat[flat < cells]


def _bernoulli_grid_positions(rng, m, q):
    """Sorted flat positions j*m + i of an m x n grid whose cell (i, j) is
    kept independently with probability q[j], in O(nnz + n).

    Columns are grouped by the binade [2^(e-1), 2^e) of q_j.  Each group is
    one geometric walk over its concatenated columns at the group's largest
    q, thinned to q_j, so at least half the walked cells are kept.  A
    constant q is a single unthinned walk over the whole grid.
    """
    live = np.flatnonzero(q > 0)
    binade = np.frexp(q[live])[1]
    found = []
    for e in np.unique(binade):
        cols = live[binade == e]
        top = q[cols].max()
        walk = _geometric_walk(rng, m * cols.size, top)
        if q[cols].min() < top:
            walk = walk[rng.random(walk.size) * top < q[cols[walk // m]]]
        if cols[-1] >= cols.size:  # other columns lie between: lift to grid positions
            walk += (cols - np.arange(cols.size))[walk // m] * m
        found.append(walk)
    flat = np.concatenate(found) if found else np.zeros(0, dtype=np.int64)
    return np.sort(flat) if len(found) > 1 else flat  # merges sorted runs


def _generator(spec):
    """The seeded generator that every kind outside ``COLUMN_KINDS`` draws from."""
    return np.random.default_rng(derive_seed(spec.seed, 0x05E1E))


def _bernoulli_sketch(spec, q, magnitude):
    """Sketch whose cell (i, j) is kept with probability q[j] and holds
    +-magnitude[j]; the sampler for ``ose-ie`` and ``less-ie``.

    The kept cells come from :func:`_bernoulli_grid_positions`, then their
    signs, all from :func:`_generator`, in O(nnz + n).
    """
    m, n = spec.m, spec.n
    rng = _generator(spec)
    flat = _bernoulli_grid_positions(rng, m, q)
    signs = rng.integers(0, 2, size=flat.size).astype(np.float64) * 2.0 - 1.0
    cols = flat // m
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    return SparseSketch(
        spec=spec,
        indptr=indptr,
        rows=flat % m,
        values=signs * magnitude[cols],
    )


def build_ose_ie(spec):
    """Sample an i.i.d.-entry sketch: each cell kept with probability p,
    drawn by geometric gaps in O(nnz + n)."""
    if spec.kind != "ose-ie":
        raise ParameterError(f"build_ose_ie needs kind 'ose-ie', got {spec.kind!r}")
    ones = np.ones(spec.n)
    return _bernoulli_sketch(spec, spec.p * ones, ones)


def build_dense_baseline(spec):
    """Dense Gaussian comparison matrix with entry variance p, drawn row by
    row from :func:`_generator`."""
    if spec.kind != "gaussian-dense":
        raise ParameterError(
            f"build_dense_baseline needs kind 'gaussian-dense', got {spec.kind!r}"
        )
    entries = _generator(spec).standard_normal((spec.m, spec.n))
    return DenseSketch(spec=spec, matrix=entries * math.sqrt(spec.p))


def build(spec, columns=None):
    """Build ``spec`` with the builder registered for its kind.

    ``columns`` restricts the build to those columns (see
    :func:`build_osnap`); only the kinds in ``COLUMN_KINDS`` address their
    hash points by column, so any other kind raises ParameterError.
    """
    if columns is not None and spec.kind not in COLUMN_KINDS:
        raise ParameterError(f"a {spec.kind} build cannot be restricted to columns")
    module, name = _BUILDERS[spec.kind]
    builder = getattr(importlib.import_module(f"{__package__}.{module}"), name)
    return builder(spec) if columns is None else builder(spec, columns=columns)


def _log_term(x):
    return math.log(max(x, math.e))


def _gate(d, eps, delta):
    """A formula's d (an integer >= 1), eps and delta (in (0, 1)) through the scalar gate."""
    return as_int("d", d, 1), as_real("eps", eps, "(0, 1)"), as_real("delta", delta, "(0, 1)")


def osnap_sparsity_target(d, eps, delta, constants=CONSTANTS):
    """Continuous sparsity target C_s * (log^2(d/(eps*delta))/eps + log^3)."""
    d, eps, delta = _gate(d, eps, delta)
    L = _log_term(d / (eps * delta))
    return constants.c_s_osnap * (L**2 / eps + L**3)


def oseie_sparsity_target(d, eps, delta, constants=CONSTANTS):
    """Blocked-kind target plus the i.i.d. model's extra log(d/(eps*delta))/eps^2."""
    d, eps, delta = _gate(d, eps, delta)
    L = _log_term(d / (eps * delta))
    return osnap_sparsity_target(d, eps, delta, constants) + constants.c_e_oseie * L / eps**2


def less_dimension_target(d, eps, delta, constants=CONSTANTS):
    """Continuous m target C_m * ((d + Ld^2)/eps^2 + Ld^3/eps), Ld = ln(d/delta)."""
    d, eps, delta = _gate(d, eps, delta)
    Ld = _log_term(d / delta)
    return constants.c_m_less * ((d + Ld**2) / eps**2 + Ld**3 / eps)


def less_sparsity_target(d, eps, delta, constants=CONSTANTS):
    """Continuous p*m target C_pm * max(L^2.5/eps, L^3)."""
    d, eps, delta = _gate(d, eps, delta)
    L = _log_term(d / (eps * delta))
    return constants.c_pm_less * max(L**2.5 / eps, L**3)


def sparsity_target(kind, d, eps, delta, m0, constants=CONSTANTS):
    """Continuous per-column sparsity target of ``kind``; m0 for the dense kinds."""
    d, eps, delta = _gate(d, eps, delta)
    if kind in LESS_KINDS:
        return less_sparsity_target(d, eps, delta, constants)
    if kind == "osnap":
        return osnap_sparsity_target(d, eps, delta, constants)
    if kind == "ose-ie":
        return oseie_sparsity_target(d, eps, delta, constants)
    return m0


def independence_degree(d, eps, delta, pm):
    """Independence degree 8 * ceil(log(max(d/(eps*delta), p*m)))."""
    d, eps, delta = _gate(d, eps, delta)
    return 8 * math.ceil(_log_term(max(d / (eps * delta), as_int("pm", pm, 1))))


def round_parameters(kind, m0, s_raw):
    """(m, s) from a target dimension m0 and a continuous sparsity target.

    s = ceil(s_raw), capped at m0 (p = 1); osnap rounds m up to a multiple
    of s.
    """
    s = max(1, math.ceil(s_raw))
    if s >= m0:
        return m0, m0
    if kind == "osnap":
        return math.ceil(m0 / s) * s, s
    return m0, s


def default_parameters(d, n, eps, delta, kind, *, m=None, s=None, scores=None, seed=0,
                       constants=CONSTANTS):
    """Calibrated spec for a (eps, delta, d)-embedding of subspaces of R^n.

    The oblivious kinds take m0 = ceil(C_m * (d + ln(1/delta)) / eps^2)
    with C_m = ``constants.c_m_oblivious``, the less kinds
    m0 = ceil(:func:`less_dimension_target`) and their ``scores`` (a spec
    without them describes the sketch but cannot build it).  The sparsity
    target is :func:`sparsity_target`.  ``constants`` (the calibrated
    ``CONSTANTS`` by default) holds every C, one field per formula.
    A pinned ``m`` replaces m0 and a pinned ``s`` the target; each must
    be an integer >= 1.  :func:`round_parameters` caps s at m0 (p = 1,
    with a warning when the target of a sparse kind reaches it) and
    rounds an osnap m up to a multiple of s; K comes from the final s.
    """
    d, eps, delta = _gate(d, eps, delta)
    n = as_int("n", n, d)
    if kind not in KINDS:
        raise ParameterError(f"unknown sketch kind {kind!r}")
    m = None if m is None else as_int("m", m, 1)
    s = None if s is None else as_int("s", s, 1)
    if kind in LESS_KINDS:
        m0 = less_dimension_target(d, eps, delta, constants)
    else:
        m0 = constants.c_m_oblivious * (d + math.log(1.0 / delta)) / eps**2
    m0 = max(math.ceil(m0), 1) if m is None else m
    s_raw = sparsity_target(kind, d, eps, delta, m0, constants) if s is None else s
    m, s_int = round_parameters(kind, m0, s_raw)
    if s is None and s_int == m and kind != "gaussian-dense":
        warnings.warn(
            f"required sparsity {math.ceil(s_raw)} reaches m = {m0}; capping at p = 1",
            stacklevel=2,
        )
    return SketchSpec(
        kind=kind, m=m, n=n, p=s_int / m, seed=seed, scores=scores,
        degree_k=independence_degree(d, eps, delta, s_int) if kind in COLUMN_KINDS else None,
    )
