"""Exact and coarse approximate leverage scores of a tall matrix.

The i-th leverage score of A is the squared norm of the i-th row of any
orthonormal basis of A's column space.  Approximate scores here are
one-sided overestimates: z_i >= l_i / beta1 with sum(z) <= beta2 * d.
The claimed beta1 is the one the estimator proves (see
:func:`approx_leverage`): a chi-square lower tail, union-bounded over
the r nonzero rows of A, gives beta1 = O((r / delta_lev)^(gamma / 2)),
where delta_lev = 0.01 is the chance that the claim fails.  R comes
from a QR of A's nonzero rows themselves when there are at most twice
as many of them as the leverage sketch would have rows, and from a QR of
that sketch otherwise; the identity has distortion 0, so the direct
route's claim drops the sketch's factor (1 + eps_lev)^2.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg

from ._field import derive_seed
from .apply import as_matrix, dense_touched, touched_rows
from .errors import ParameterError, RankDeficiencyError, as_real
from .oblivious import check_columns
from .sketch import scores_digest


@dataclass
class LeverageScores:
    """Scores z in [0, 1]^n with the claimed (beta1, beta2) guarantees."""

    z: np.ndarray
    beta1: float = 1.0
    beta2: float = 1.0

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        if self.z.ndim != 1:
            raise ParameterError("scores must be a 1-D vector")
        lo, hi = (self.z.min(), self.z.max()) if self.z.size else (0.0, 0.0)
        if not np.isfinite([lo, hi]).all():
            raise ParameterError("scores must be finite")
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise ParameterError("scores must lie in [0, 1]")
        if lo < 0.0 or hi > 1.0:  # clip keeps -0.0, so in-range scores need no copy
            self.z = np.clip(self.z, 0.0, 1.0)
        self.beta1 = as_real("beta1", self.beta1, "[1, inf)")
        self.beta2 = as_real("beta2", self.beta2, "[1, inf)")

    @property
    def n(self):
        return self.z.size

    def digest(self):
        return scores_digest(self.z, self.beta1, self.beta2)

    def to_dict(self):
        return {"beta1": self.beta1, "beta2": self.beta2, "z": self.z.tolist()}

    @classmethod
    def from_dict(cls, payload):
        return cls(
            z=np.asarray(payload["z"], dtype=np.float64),
            beta1=float(payload["beta1"]),
            beta2=float(payload["beta2"]),
        )


def exact_leverage(A):
    """Row norms squared of an orthonormal basis, via SVD.

    For a scipy.sparse A the SVD runs on the rows J that A touches, and
    every other score is exactly 0.  Singular values below
    max(n, d) * eps * s_max count as zero; a deficient matrix raises
    :class:`RankDeficiencyError` naming the numerical rank, and NaN or
    Inf entries raise ParameterError.
    """
    A = as_matrix(A, tall=True, finite=True)
    n, d = A.shape
    J, X = dense_touched(A, touched_rows(A))
    U, svals, _ = np.linalg.svd(X, full_matrices=False)
    tol = max(n, d) * np.finfo(np.float64).eps * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > tol))
    if rank < d:
        raise RankDeficiencyError(
            f"matrix is rank deficient: numerical rank {rank} < {d}", rank
        )
    z = np.zeros(n)
    z[J] = np.minimum(np.einsum("ij,ij->i", U, U), 1.0)
    return LeverageScores(z=z, beta1=1.0, beta2=1.0)


def _full_rank_r(X, n):
    """R of a QR of X, the nonzero rows of an n x d matrix, or None when
    it is numerically rank deficient: min |R_ii| <= max(n, d) eps max |R_ii|."""
    R = np.linalg.qr(X, mode="r")
    diag = np.abs(np.diag(R))
    d = X.shape[1]
    if diag.size < d or diag.min() <= max(n, d) * np.finfo(np.float64).eps * diag.max():
        return None
    return R


_S0 = 8  # the leverage sketch's entries per column
_DIRECT = 2  # factor A's nonzero rows when they are at most this many times the sketch's rows


def _sketch_rows(d, n):
    """Rows of the leverage sketch: max(8 d ln n, 4d), a multiple of s0."""
    rows = max(math.ceil(8 * d * math.log(max(n, 4))), 4 * d, _S0)
    return math.ceil(rows / _S0) * _S0


def _sketch_r_factor(A, d, n, seed, attempt, columns):
    """R from a QR of a blocked sketch of A; None when numerically singular.

    ``columns``, the rows a sparse A touches (None for a dense A),
    restricts the build to them.
    """
    from .apply import apply as _apply
    from .oblivious import SketchSpec, build_osnap

    rows = _sketch_rows(d, n)
    spec = SketchSpec.from_sparsity(
        "osnap", m=rows, n=n, s=_S0, degree_k=16,
        seed=derive_seed(seed, 0x1E7 + attempt),
    )
    return _full_rank_r(_apply(build_osnap(spec, columns=columns), A), rows)


def _nonzero_rows(A, A_J, columns):
    """Which rows of A_J = A[columns] (A, when None) are nonzero, for a
    gated A; ParameterError if A stores an entry (a nonzero, for a dense
    A) in a row outside ``columns``, as :func:`~subsketch.apply.apply`
    does for a sketch built on them."""
    if isinstance(A_J, np.ndarray):
        mask = A.any(axis=1)  # NaN counts as nonzero
        if columns is None:
            return mask
        if mask[columns].sum() != mask.sum():
            raise ParameterError("input touches a row outside the given columns")
        return mask[columns]
    if A_J.nnz != A.nnz:
        raise ParameterError("input touches a row outside the given columns")
    # nonzeros before each row start: a row is nonzero if its count grows
    before = np.concatenate(([0], np.cumsum(A_J.data != 0)))
    return before[A_J.indptr[1:]] > before[A_J.indptr[:-1]]


_SAFETY = 2.0  # inflation of the estimates, which the claimed beta1 carries
_EPS_LEV = 0.5  # the leverage sketch's assumed distortion: sigma_max(Pi U) <= 1 + _EPS_LEV
_DELTA_LEV = 0.01  # chance that some nonzero row's estimate falls below the claim


def _chi2_lower_level(k, c):
    """The t in (0, 1) with (t e^(1-t))^(k/2) = c, for 0 < c < 1: by the
    Chernoff bound, P(chi^2_k <= t k) <= c.  Bisection on
    ln t + 1 - t = 2 ln(c) / k, whose left side rises on (0, 1); the
    lower end is returned, so the bound holds at the t given."""
    target = 2.0 * math.log(c) / k
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if math.log(mid) + 1.0 - mid < target:
            lo = mid
        else:
            hi = mid


def approx_leverage(A, gamma, *, seed=0, columns=None):
    """Coarse scores with beta1 = O((r / delta_lev)^(gamma / 2)), beta2 = O(1).

    Take R from a QR of A's r nonzero rows or of a sketch of A, and
    estimate the row norms of A R^-1 with k = ceil(4/gamma) Gaussian test
    vectors; estimates are inflated by 2 and clamped to [0, 1].  For a
    scipy.sparse A the work follows the rows J that A touches, past
    finding J, the sketch's n + 1 column pointers and one pass over the
    scores: r is counted on A[J], the sketch hashes only the columns J,
    and A[J] R^-1 G is formed and clamped on J alone; every other score
    is exactly 0, as the full product gives.  ``columns`` hands J in, as
    :func:`~subsketch.apply.touched_rows` finds it (any strictly
    increasing rows in [0, n) that hold every stored entry, or nonzero of
    a dense A, give the same scores); when None, J is found here.  Other
    ``columns`` raise ParameterError, as in
    :func:`~subsketch.oblivious.build_osnap` and
    :func:`~subsketch.apply.apply`, and so do NaN or Inf entries.

    The route.  r is counted first (one pass over a dense A; over the
    stored entries of A[J] for a sparse one).  When r <= 2 rows, where
    rows = max(8 d ln n, 4d) is the leverage sketch's height, R comes
    from a QR of X, the nonzero rows of A as a dense r x d array (the
    same bytes for a sparse A, its dense copy, A with stored zeros and
    any admissible ``columns``): no sketch is built.  That QR costs
    O(r d^2) = O(d^3 log n), the cost of the sketch route's QR of its
    rows x d sketch, so the stage keeps its input-sparsity bound of
    O(nnz(A) k + d^3 log n); past r = 2 rows the sketch is cheaper, and
    R comes from a QR of an osnap sketch of A with rows rows and 8
    entries per column, retried with fresh seeds while it is singular.

    The claimed beta1 is the one this estimator proves.  Let
    u_i = e_i^T A R^-1 and U an orthonormal basis of A's columns, so
    l_i = |e_i^T U|^2, and let Pi, the sketch (the identity on the
    direct route), have sigma_max(Pi U) <= 1 + eps_lev.  Since
    Pi A R^-1 is orthonormal, A R^-1 = U M with
    sigma_min(M) = 1 / sigma_max(Pi U), so l_i <= (1 + eps_lev)^2 |u_i|^2.
    G has N(0, 1/k) entries, so |u_i^T G|^2 = |u_i|^2 chi^2_k / k
    exactly, and the Chernoff bound gives
    P(chi^2_k <= t k) <= (t e^(1-t))^(k/2) for t < 1.  A row with
    l_i = 0 needs no bound; for full-rank A these are exactly the zero
    rows, so a union bound runs over the r nonzero rows of A.  With t
    solving (t e^(1-t))^(k/2) = delta_lev / r, with probability at least
    1 - delta_lev every such row has z_i >= 2 t |u_i|^2 (or z_i = 1 >= l_i),
    hence l_i / z_i <= beta1 = (1 + eps_lev)^2 / (2 t).  On the sketch
    route eps_lev = 1/2, the sketch's assumed distortion.  On the direct
    route Pi = I, so sigma(Pi U) = 1 and eps_lev = 0 (A R^-1 is
    orthonormal up to rounding), and beta1 = 1 / (2 t), or 1 when that
    is less (large k and small r; z_i >= l_i / beta1 is weaker for a
    larger beta1, and 1 is the least a claim may state).  Here
    delta_lev = 0.01; for small t, t ~ (delta_lev / r)^(2/k) / e, so
    beta1 grows like (r / delta_lev)^(gamma / 2).  The route and r depend
    on A's nonzero rows, d and n alone, so a sparse A, its dense copy, A
    with stored zeros and every admissible ``columns`` claim the same
    beta1.  beta2 is reported as measured, max(1, sum(z)/d).
    """
    gamma = as_real("gamma", gamma, "(0, 1)")
    A = as_matrix(A, tall=True, finite=False)
    n, d = A.shape
    columns = touched_rows(A) if columns is None else check_columns(columns, n)
    J = slice(None) if columns is None else columns  # E_i = 0 exactly off J
    A_J = A[J]
    nonzero = _nonzero_rows(A, A_J, columns)
    r = int(np.count_nonzero(nonzero))
    direct = r <= _DIRECT * _sketch_rows(d, n)
    if direct:
        X = A_J if r == nonzero.size else A_J[nonzero]
        X = X if isinstance(X, np.ndarray) else X.tocoo().toarray()  # a CSR toarray goes through tocsr
        if not np.isfinite(X).all():
            raise ParameterError("input matrix holds NaN or Inf entries")
        R = _full_rank_r(X, n)
    else:
        for attempt in range(3):
            R = _sketch_r_factor(A, d, n, seed, attempt, columns)
            if R is not None:
                break
    if R is None:  # a deficient A raises here, naming its numerical rank
        exact_leverage(A)
        raise RankDeficiencyError(
            "nonzero rows of A are numerically rank deficient" if direct
            else "sketch of A stayed rank deficient after 3 attempts", d)
    k = math.ceil(4.0 / gamma)
    rng = np.random.default_rng(derive_seed(seed, 0x7E57))
    G = rng.standard_normal((d, k)) / math.sqrt(k)
    W = scipy.linalg.solve_triangular(R, G, lower=False)
    E = np.asarray(A_J @ W)
    z = np.zeros(n)
    z[J] = np.clip(_SAFETY * np.einsum("ij,ij->i", E, E), 0.0, 1.0)
    t = _chi2_lower_level(k, _DELTA_LEV / r)
    eps_lev = 0.0 if direct else _EPS_LEV
    beta1 = max(1.0, (1.0 + eps_lev) ** 2 / (_SAFETY * t))
    beta2 = max(1.0, float(z.sum()) / d)  # summed over all n: the bytes of a full sum
    return LeverageScores(z=z, beta1=beta1, beta2=beta2)


@dataclass
class ScoreValidation:
    """Outcome of checking scores against the exact oracle."""

    passed: bool
    lower_ok: bool
    sum_ok: bool
    lower_margin: float  # min_i (z_i - l_i / beta1); negative = violation
    sum_margin: float  # beta2 * d - sum(z); negative = violation
    violating_indices: list = field(default_factory=list)

    def to_dict(self):
        return {"pass" if k == "passed" else k: v for k, v in asdict(self).items()}


def validate_scores(A, scores):
    """Check both approximate-score inequalities against exact scores."""
    exact = exact_leverage(A)
    d = np.shape(A)[1]
    slack = 1e-12
    gaps = scores.z - exact.z / scores.beta1
    lower_ok = bool(np.all(gaps >= -slack))
    sum_margin = scores.beta2 * d - float(scores.z.sum())
    sum_ok = bool(sum_margin >= -slack * d)
    violating = np.nonzero(gaps < -slack)[0].tolist()
    return ScoreValidation(
        passed=lower_ok and sum_ok,
        lower_ok=lower_ok,
        sum_ok=sum_ok,
        lower_margin=float(gaps.min()) if gaps.size else 0.0,
        sum_margin=sum_margin,
        violating_indices=violating,
    )
