"""Exact and coarse approximate leverage scores of a tall matrix.

The i-th leverage score of A is the squared norm of the i-th row of any
orthonormal basis of A's column space.  Approximate scores here are
one-sided overestimates: z_i >= l_i / beta1 with sum(z) <= beta2 * d.
The claimed beta1 is the one the estimator proves (see
:func:`approx_leverage`): a chi-square lower tail, union-bounded over
the r nonzero rows of A, gives beta1 = O((r / delta_lev)^(gamma / 2)),
where delta_lev = 0.01 is the chance that the claim fails.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg

from ._field import derive_seed
from .apply import as_matrix, dense_touched, touched_rows
from .errors import ParameterError, RankDeficiencyError
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
        if not np.isfinite([lo, hi, self.beta1, self.beta2]).all():
            raise ParameterError("scores, beta1 and beta2 must be finite")
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise ParameterError("scores must lie in [0, 1]")
        if lo < 0.0 or hi > 1.0:  # clip keeps -0.0, so in-range scores need no copy
            self.z = np.clip(self.z, 0.0, 1.0)
        if self.beta1 < 1.0 or self.beta2 < 1.0:
            raise ParameterError("beta1 and beta2 must be >= 1")

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


def _sketch_r_factor(A, d, n, seed, attempt, columns):
    """R from a QR of a blocked sketch of A; None when numerically singular.

    ``columns``, the rows a sparse A touches (None for a dense A),
    restricts the build to them.
    """
    from .apply import apply as _apply
    from .oblivious import SketchSpec, build_osnap

    s0 = 8
    rows = max(math.ceil(8 * d * math.log(max(n, 4))), 4 * d, s0)
    rows = math.ceil(rows / s0) * s0
    spec = SketchSpec.from_sparsity(
        "osnap", m=rows, n=n, s=s0, degree_k=16,
        seed=derive_seed(seed, 0x1E7 + attempt),
    )
    return _full_rank_r(_apply(build_osnap(spec, columns=columns), A), rows)


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

    Sketch A, take R from a QR of the sketch, and estimate the row norms
    of A R^-1 with k = ceil(4/gamma) Gaussian test vectors; estimates are
    inflated by 2 and clamped to [0, 1].  For a scipy.sparse A the work
    follows the rows J that A touches, past finding J, the sketch's n + 1
    column pointers and one pass over the scores: the sketch hashes only
    the columns J, and A[J] R^-1 G is formed and clamped on J alone;
    every other score is exactly 0, as the full product gives.
    ``columns`` hands J in, as :func:`~subsketch.apply.touched_rows`
    finds it (any strictly increasing rows in [0, n) that hold every
    stored entry, or nonzero of a dense A, give the same scores); when
    None, J is found here.  Other ``columns`` raise ParameterError, as
    in :func:`~subsketch.oblivious.build_osnap` and
    :func:`~subsketch.apply.apply`.

    The claimed beta1 is the one this estimator proves.  Let
    u_i = e_i^T A R^-1 and U an orthonormal basis of A's columns, so
    l_i = |e_i^T U|^2, and let the leverage sketch Pi have
    sigma_max(Pi U) <= 1 + eps_lev.  Since Pi A R^-1 is orthonormal,
    A R^-1 = U M with sigma_min(M) = 1 / sigma_max(Pi U), so
    l_i <= (1 + eps_lev)^2 |u_i|^2.  G has N(0, 1/k) entries, so
    |u_i^T G|^2 = |u_i|^2 chi^2_k / k exactly, and the Chernoff bound
    gives P(chi^2_k <= t k) <= (t e^(1-t))^(k/2) for t < 1.  A row with
    l_i = 0 needs no bound; for full-rank A these are exactly the zero
    rows, so a union bound runs over the r nonzero rows of A.  With t
    solving (t e^(1-t))^(k/2) = delta_lev / r, with probability at least
    1 - delta_lev every such row has z_i >= 2 t |u_i|^2 (or z_i = 1 >= l_i),
    hence l_i / z_i <= beta1 = (1 + eps_lev)^2 / (2 t).  Here
    eps_lev = 1/2 and delta_lev = 0.01; for small t, t ~ (delta_lev /
    r)^(2/k) / e, so beta1 grows like (r / delta_lev)^(gamma / 2).  r is
    counted from A, so a sparse A, its dense copy, A with stored zeros
    and every admissible ``columns`` claim the same beta1.  beta2 is
    reported as measured, max(1, sum(z)/d).
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"gamma must be in (0, 1), got {gamma}")
    A = as_matrix(A, tall=True, finite=False)
    n, d = A.shape
    if columns is None:
        columns = touched_rows(A)
    R = None
    for attempt in range(3):
        R = _sketch_r_factor(A, d, n, seed, attempt, columns)
        if R is not None:
            break
    if R is None:  # a deficient A raises here, naming its numerical rank
        exact_leverage(A)
        raise RankDeficiencyError("sketch of A stayed rank deficient after 3 attempts", d)
    k = math.ceil(4.0 / gamma)
    rng = np.random.default_rng(derive_seed(seed, 0x7E57))
    G = rng.standard_normal((d, k)) / math.sqrt(k)
    W = scipy.linalg.solve_triangular(R, G, lower=False)
    J = slice(None) if columns is None else columns  # E_i = 0 exactly off J
    A_J = A[J]
    E = np.asarray(A_J @ W)
    norms = np.einsum("ij,ij->i", E, E)
    z = np.zeros(n)
    z[J] = np.clip(_SAFETY * norms, 0.0, 1.0)
    # r, the nonzero rows of A: a row with E_i != 0 is one (E_i = A_i W),
    # so only the rows whose estimate is 0 are read again
    zero = np.flatnonzero(norms == 0.0)
    r = norms.size - zero.size + np.count_nonzero((A_J[zero] != 0).sum(axis=1))
    t = _chi2_lower_level(k, _DELTA_LEV / r)
    beta1 = (1.0 + _EPS_LEV) ** 2 / (_SAFETY * t)
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
