"""Exact and coarse approximate leverage scores of a tall matrix.

The i-th leverage score of A is the squared norm of the i-th row of any
orthonormal basis of A's column space, such as A R^-1 for the R that
:func:`_r_factor`, this module's one factorization and rank test, takes
of A's nonzero rows; every exact check reads those.  Approximate scores
are one-sided overestimates: z_i >= l_i / beta1 with sum(z) <= beta2 * d.
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
from .apply import _take_rows, as_matrix, touched_rows
from .errors import FormatError, ParameterError, RankDeficiencyError, as_real
from .sketch import scores_digest


class LeverageScores:
    """Scores z in [0, 1]^n with the claimed (beta1, beta2) guarantees.

    One representation: n, the rows that may score nonzero (``rows``,
    sorted indices; None for every row) and z on those rows (``z_rows``);
    every other score is 0.  The constructor takes the full vector z; the
    leverage functions give a scipy.sparse A's scores on the rows J it
    touches (:func:`exact_leverage` on its nonzero rows), checked and
    clipped in O(|J|), so an op on them costs O(|J| + nnz(A) + entries
    built) past :func:`~subsketch.apply.touched_rows`.  Reading :attr:`z`
    builds the full vector; :meth:`at` reads some of it.
    """

    def __init__(self, z, beta1=1.0, beta2=1.0):
        raw, z = z, np.asarray(z)
        # a bool or a string is no score; numpy reads [True, 0.5] as float64
        if (z.dtype.kind not in "iuf" or z.ndim != 1 or z is not raw
                and any(isinstance(v, (bool, np.bool_)) for v in raw)):
            raise ParameterError("scores must be a 1-D vector of real numbers, not bools "
                                 f"or strings; got a {z.ndim}-D array")
        self._set(z.size, None, z, beta1, beta2)

    @classmethod
    def _on_rows(cls, n, rows, z_rows, beta1=1.0, beta2=1.0):
        """The scores that are ``z_rows`` on the sorted ``rows`` (None: every
        row) and 0 elsewhere; checked like the full vector, in O(|rows|)."""
        scores = cls.__new__(cls)
        scores._set(n, rows, z_rows, beta1, beta2)
        return scores

    def _set(self, n, rows, z_rows, beta1, beta2):
        z_rows = np.asarray(z_rows).astype(np.float64, copy=False)
        lo, hi = (z_rows.min(), z_rows.max()) if z_rows.size else (0.0, 0.0)
        if not np.isfinite([lo, hi]).all():
            raise ParameterError("scores must be finite")
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise ParameterError("scores must lie in [0, 1]")
        if lo < 0.0 or hi > 1.0:  # clip keeps -0.0, so in-range scores need no copy
            z_rows = np.clip(z_rows, 0.0, 1.0)
        self.n, self.rows, self.z_rows = n, rows, z_rows
        self.beta1 = as_real("beta1", beta1, "[1, inf)")
        self.beta2 = as_real("beta2", beta2, "[1, inf)")

    @property
    def z(self):
        """The full length-n vector (built on each read unless ``rows`` is None)."""
        if self.rows is None:
            return self.z_rows
        z = np.zeros(self.n)
        z[self.rows] = self.z_rows
        return z

    def at(self, idx):
        """z at the integer indices ``idx``, in O(|idx| log |rows|)."""
        idx = np.asarray(idx, dtype=np.int64)
        if self.rows is None:
            return self.z_rows[idx]
        out = np.zeros(idx.shape)
        pos = np.searchsorted(self.rows, idx)
        hit = pos < self.rows.size
        hit[hit] = self.rows[pos[hit]] == idx[hit]
        out[hit] = self.z_rows[pos[hit]]
        return out

    def digest(self):
        return scores_digest(self.z, self.beta1, self.beta2)

    def to_dict(self):
        return {"beta1": self.beta1, "beta2": self.beta2, "z": self.z.tolist()}

    @classmethod
    def from_dict(cls, payload):
        """The scores of a :meth:`to_dict` JSON object; FormatError unless
        z is a list and every value in it, beta1 and beta2 a JSON number."""
        z, beta1, beta2 = payload["z"], payload["beta1"], payload["beta2"]
        if not isinstance(z, list) or not set(map(type, [*z, beta1, beta2])) <= {int, float}:
            raise FormatError("scores JSON: z must be a list of numbers, beta1 and beta2 numbers")
        return cls(z=z, beta1=beta1, beta2=beta2)


def _nonzero_rows(A, J=None):
    """(J, A_J, I) for a gated A: J = :func:`~subsketch.apply.touched_rows`
    unless given (None for a dense A), A_J = A[J] by ``apply._take_rows``
    (A itself if dense), and I the rows of A that hold a nonzero as
    ascending indices into A.  NaN counts as nonzero and a stored zero does
    not, so a sparse A, its dense copy and A with stored zeros give the
    same I.  The one place that decides which rows of A count."""
    J = touched_rows(A) if J is None else J
    if J is None:
        return None, A, np.flatnonzero(A.any(axis=1))
    A_J = _take_rows(A, J)
    # nonzeros before each row start: a row is nonzero if its count grows
    before = np.concatenate(([0], np.cumsum(A_J.data != 0)))
    return J, A_J, J[before[A_J.indptr[1:]] > before[A_J.indptr[:-1]]]


def _dense_rows(J, A_J, I):
    """A[I] as an ndarray, from :func:`_nonzero_rows`; a dense A itself when I is every row."""
    X = A_J if J is None else A_J.tocoo().toarray()  # a CSR toarray goes through tocsr
    return X if I.size == X.shape[0] else X[I if J is None else np.searchsorted(J, I)]


def _r_factor(X, n):
    """R of a QR of X, the dense nonzero rows of an n x d matrix or a sketch
    with n rows; RankDeficiencyError when fewer than d singular values of R
    exceed max(n, d) * eps * s_max, with their count as the numerical rank."""
    R = np.linalg.qr(X, mode="r")
    svals = np.linalg.svd(R, compute_uv=False)
    d = X.shape[1]
    tol = max(n, d) * np.finfo(np.float64).eps * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > tol))
    if rank < d:
        raise RankDeficiencyError(
            f"matrix is rank deficient: numerical rank {rank} < {d}", rank
        )
    return R


def _exact_rows(A, touched=None):
    """(I, R, l) of A, NaN and Inf rejected: its nonzero rows I (among J, if
    ``touched`` holds it), the R of A[I] and l_i = |A_i R^-1|^2 on I, unclamped."""
    A = as_matrix(A, tall=True, finite=True)
    J, A_J, I = _nonzero_rows(A, touched)
    X = _dense_rows(J, A_J, I)
    R = _r_factor(X, A.shape[0])
    Q = scipy.linalg.solve_triangular(R, X.T, trans="T").T  # X R^-1, orthonormal columns
    return I, R, np.einsum("ij,ij->i", Q, Q)


def exact_leverage(A):
    """The exact scores of :func:`_exact_rows` clamped at 1, held on A's
    nonzero rows; every zero row of A scores exactly 0, whatever its storage."""
    I, _, l = _exact_rows(A)
    return LeverageScores._on_rows(np.shape(A)[0], I, np.minimum(l, 1.0))


_S0 = 8  # the leverage sketch's entries per column
_DIRECT = 2  # factor A's nonzero rows when they are at most this many times the sketch's rows


def _sketch_rows(d, n):
    """Rows of the leverage sketch: max(8 d ln n, 4d), a multiple of s0."""
    rows = max(math.ceil(8 * d * math.log(max(n, 4))), 4 * d, _S0)
    return math.ceil(rows / _S0) * _S0


def _sketch_r_factor(A, d, n, seed, columns):
    """R from :func:`_r_factor` of a blocked sketch of A.

    ``columns``, the rows a sparse A touches (None for a dense A),
    restricts the build to them.
    """
    from .apply import apply as _apply
    from .oblivious import SketchSpec, build_osnap

    rows = _sketch_rows(d, n)
    spec = SketchSpec.from_sparsity(
        "osnap", m=rows, n=n, s=_S0, degree_k=16, seed=derive_seed(seed, 0x1E7),
    )
    return _r_factor(_apply(build_osnap(spec, columns=columns), A), rows)


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


def approx_leverage(A, gamma, *, seed=0):
    """Coarse scores with beta1 = O((r / delta_lev)^(gamma / 2)), beta2 = O(1).

    Take R from a QR of A's r nonzero rows or of a sketch of A, and
    estimate the row norms of A R^-1 with k = ceil(4/gamma) Gaussian test
    vectors; estimates are inflated by 2 and clamped to [0, 1].  For a
    scipy.sparse A the cost is O(|J| + nnz(A) + entries built) past
    :func:`~subsketch.apply.touched_rows`, which finds the rows J that A
    touches: both routes read A[J] through one view that copies none of A,
    the sketch hashes only the columns J, A[J] R^-1 G is formed, checked,
    clamped and summed on J, and the scores are held on J, every other
    one exactly 0 as the full product gives.  NaN or Inf raise ParameterError.

    The route.  r is counted first (one pass over a dense A; over the
    stored entries of a sparse one).  When r <= 2 rows, where
    rows = max(8 d ln n, 4d) is the leverage sketch's height, R comes
    from a QR of X, the nonzero rows of A as a dense r x d array (the
    same bytes for a sparse A, its dense copy and A with stored zeros):
    no sketch is built.  That QR costs
    O(r d^2) = O(d^3 log n), the cost of the sketch route's QR of its
    rows x d sketch, so the stage keeps its input-sparsity bound of
    O(nnz(A) k + d^3 log n); past r = 2 rows the sketch is cheaper, and
    R comes from a QR of one osnap sketch of A with rows rows and 8
    entries per column.  A singular R raises RankDeficiencyError naming
    A's numerical rank (d when only the sketch is singular).

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
    on A's nonzero rows, d and n alone, so a sparse A, its dense copy
    and A with stored zeros claim the same beta1.  beta2 is reported as
    measured, max(1, sum(z)/d), the sum taken over the rows the scores
    are held on (J for a sparse A, every row for a dense one).
    """
    gamma = as_real("gamma", gamma, "(0, 1)")
    A = as_matrix(A, tall=True, finite=False)
    n, d = A.shape
    J, A_J, I = _nonzero_rows(A)
    r = I.size
    direct = r <= _DIRECT * _sketch_rows(d, n)
    if direct:
        X = _dense_rows(J, A_J, I)
        if not np.isfinite(X).all():
            raise ParameterError("input matrix holds NaN or Inf entries")
        R = _r_factor(X, n)
    else:
        try:
            R = _sketch_r_factor(A, d, n, seed, J)
        except RankDeficiencyError:  # a deficient A raises here, naming its rank
            _r_factor(_dense_rows(J, A_J, I), n)
            raise RankDeficiencyError("the leverage sketch of A is numerically singular",
                                      d) from None
    k = math.ceil(4.0 / gamma)
    rng = np.random.default_rng(derive_seed(seed, 0x7E57))
    G = rng.standard_normal((d, k)) / math.sqrt(k)
    W = scipy.linalg.solve_triangular(R, G, lower=False)
    E = np.asarray(A_J @ W)  # E_i = 0 exactly off J
    z = np.clip(_SAFETY * np.einsum("ij,ij->i", E, E), 0.0, 1.0)
    t = _chi2_lower_level(k, _DELTA_LEV / r)
    eps_lev = 0.0 if direct else _EPS_LEV
    beta1 = max(1.0, (1.0 + eps_lev) ** 2 / (_SAFETY * t))
    beta2 = max(1.0, float(z.sum()) / d)
    return LeverageScores._on_rows(n, J, z, beta1, beta2)


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
