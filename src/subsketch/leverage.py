"""Exact and coarse approximate leverage scores of a tall matrix.

The i-th leverage score of A is the squared norm of the i-th row of any
orthonormal basis of A's column space, such as A R^-1 for the R that
:func:`_certified_r`, this module's one factorization, takes of A's
nonzero rows: the Cholesky factor of their Gram with a rounding
certificate eps_lev, or a Householder QR of them, certified by its
backward error, when that fails.  The exact scores (one product with
R^-1, whose rounding a factor rho bounds), the exact checks and the
estimate read it.  Approximate scores are one-sided
overestimates: z_i >= l_i / beta1 with sum(z) <= beta2 * d, and the
claimed beta1 = (1 + eps_lev)^2 O((r / delta_lev)^(gamma / 2)) is the one
:func:`approx_leverage` proves, delta_lev = 1e-3 the chance that it fails.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

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
    """(J, A_J, I, nnz) for a gated A: J = :func:`~subsketch.apply.touched_rows`
    unless given (None for a dense A), A_J = A[J] by ``apply._take_rows``
    (A itself if dense), I the rows of A that hold a nonzero as ascending
    indices into A, and nnz the nonzeros of A, all from one test of A's
    entries against 0.  NaN counts as nonzero and a stored zero does not,
    so a sparse A, its dense copy and A with stored zeros give the same I
    and nnz.  The one place that decides which rows of A count."""
    J = touched_rows(A) if J is None else J
    if J is None:
        per_row = (A != 0).sum(axis=1, dtype=np.int32)
        return None, A, np.flatnonzero(per_row), int(per_row.sum())
    A_J = _take_rows(A, J)
    # nonzeros before each row start: a row is nonzero if its count grows
    before = np.concatenate(([0], np.cumsum(A_J.data != 0)))
    I = J[before[A_J.indptr[1:]] > before[A_J.indptr[:-1]]]
    return J, A_J, I, int(before[A_J.indptr[-1]])


_BLOCK = 1 << 14  # rows of A[I] per block: fixed, so the Gram's order of summation is too


def _row_blocks(J, A_J, I):
    """A[I], from :func:`_nonzero_rows`, as ndarrays of 2^14 rows (views of
    a dense A where rows run on); a sparse A is densified one block at a
    time, so its dense copy and A with stored zeros give the same blocks."""
    P = I if J is None else np.searchsorted(J, I)
    for lo in range(0, P.size, _BLOCK):
        p = P[lo:lo + _BLOCK]
        a, b = int(p[0]), int(p[-1]) + 1
        # a CSR's toarray goes through tocsr, which an op makes once, at the gate
        X = A_J[a:b] if J is None else A_J[a:b].tocoo().toarray()
        yield X if b - a == p.size else X[p - a]


def _row_norms2(J, A_J, I, f, rows=_BLOCK):
    """|f(X)_i|^2 for each row of X = A[I], f applied to ``rows`` rows of
    each of :func:`_row_blocks` at a time (one f(X) is held at a time)."""
    def norms2(Y):
        return np.einsum("ij,ij->i", Y, Y)

    return np.concatenate([norms2(f(X[lo:lo + rows])) for X in _row_blocks(J, A_J, I)
                           for lo in range(0, len(X), rows)])


def _numerical_rank(svals, n, d):
    """How many singular values of R, of an n x d X, exceed max(n, d) * eps * s_max."""
    return int(np.sum(svals > max(n, d) * np.finfo(np.float64).eps * svals[:1].sum()))


_U = np.finfo(np.float64).eps / 2  # unit roundoff
_ETA_MAX = 5.0 / 64.0  # the CholeskyQR bound's hypothesis, in terms of eta
_C_QR = 8  # the small constant c of Householder QR's backward error gamma(c r d)


def _gamma(k):
    """gamma_k = k u / (1 - k u), which bounds the rounding of k floating
    point operations (Higham, ASNA 2nd ed., Lemma 3.1)."""
    return k * _U / (1.0 - k * _U)


def _r_factor(X, n):
    """(R, eps_lev) of a Householder QR of X, the r dense nonzero rows of an
    n x d matrix, R's rows signed to a positive diagonal; RankDeficiencyError
    naming the rank when :func:`_numerical_rank` of R is below d, or when
    the QR's rounding leaves R uncertified.

    The QR is columnwise backward stable (Higham, ASNA 2nd ed., Thm. 19.4):
    X + dX = Q R, Q with orthonormal columns and |dx_j| <= g |x_j|,
    g = gamma(c r d) with c = 8.  With D the column norms of R,
    X R^-1 = Q - (dX D^-1)(R D^-1)^-1, so sigma_min(X R^-1) >= 1 - theta,
    theta = g sqrt(d) / ((1 - g) sigma_min(R D^-1)), and
    eps_lev = theta / (1 - theta).  Column scaling does not move theta,
    so columns scaled far apart keep it small.  theta >= 1 counts as rank
    deficient, the rank being the number of singular values of R D^-1
    above g sqrt(d) / (1 - g).
    """
    R, (r, d) = np.linalg.qr(X, mode="r"), X.shape
    rank = _numerical_rank(np.linalg.svd(R, compute_uv=False), n, d)
    if rank == d:
        scaled = np.linalg.svd(R / np.linalg.norm(R, axis=0), compute_uv=False)
        g = _gamma(_C_QR * r * d)
        level = g * math.sqrt(d) / (1.0 - g)
        rank = int(np.sum(scaled > level))
    if rank < d:
        raise RankDeficiencyError(f"matrix is rank deficient: numerical rank {rank} < {d}", rank)
    theta = level / scaled[-1]
    return R * np.sign(np.diag(R))[:, None], theta / (1.0 - theta)


def _cholesky(G):
    """Upper R with R^T R = G by one matrix-vector product per row (LAPACK's
    blocked dpotrf rounds by the BLAS thread count past d = 64); None
    unless every pivot is positive and finite."""
    R = np.zeros_like(G)
    for j in range(G.shape[0]):
        row = G[j, j:] - R[:j, j] @ R[:j, j:]
        if not 0.0 < row[0] < np.inf:
            return None
        R[j, j:] = row / math.sqrt(row[0])
    return R


def _certified_r(J, A_J, I, n):
    """(R, eps_lev) for X = A[I], the r nonzero rows of an n x d A from
    :func:`_nonzero_rows`: R upper triangular with a positive diagonal and
    sigma_min(X R^-1) >= 1 / (1 + eps_lev), in O(r d^2 + d^3).

    R is the Cholesky factor of X^T X, summed over :func:`_row_blocks`,
    so its bytes depend neither on A's storage nor on the BLAS thread
    count.  With u the unit roundoff, kappa = kappa(R) from the singular
    values the rank test reads and eta = 5 u kappa^2 (r d + d (d + 1)),
    the CholeskyQR bound (Yamamoto et al., ETNA 2015) gives
    |(X R^-1)^T X R^-1 - I| <= eta when eta <= 5/64, its hypothesis, so
    eps_lev = (1 - eta)^(-1/2) - 1 <= 0.042.  If a pivot is not positive,
    R fails the rank test or eta > 5/64, R and eps_lev are those of
    :func:`_r_factor` of X, which names a deficient A's rank.
    """
    r, d = I.size, A_J.shape[1]
    G = np.zeros((d, d))
    for X in _row_blocks(J, A_J, I):
        G += X.T @ X
    R = _cholesky(G)
    if R is not None:
        svals = np.linalg.svd(R, compute_uv=False)
        if _numerical_rank(svals, n, d) == d:
            eta = 5.0 * _U * (r * d + d * (d + 1)) * (svals[0] / svals[-1]) ** 2
            if eta <= _ETA_MAX:
                return R, 1.0 / math.sqrt(1.0 - eta) - 1.0
    return _r_factor(np.concatenate([np.empty((0, d)), *_row_blocks(J, A_J, I)]), n)


class _Factored(NamedTuple):
    """A gated n x d A's nonzero rows from :func:`_nonzero_rows` (J, A_J, I
    and nnz), with the R and eps_lev that :func:`_certified_r` takes of them."""

    J: np.ndarray
    A_J: object
    I: np.ndarray
    nnz: int
    n: int
    R: np.ndarray
    eps_lev: float


def _factor(A, J=None):
    """The :class:`_Factored` rows of a gated A (among J, if given)."""
    J, A_J, I, nnz = _nonzero_rows(A, J)
    return _Factored(J, A_J, I, nnz, A.shape[0], *_certified_r(J, A_J, I, A.shape[0]))


def _exact_norms(f):
    """(l, rho): l_i = |A_i R^-1|^2 on I from one product of each of
    :func:`_row_blocks` with the computed R^-1, in O(r d^2 + d^3), and
    rho >= 1 with l_i >= |A_i R^-1|^2 / rho for the exact R^-1.

    Let Y be R^-1 from a triangular solve, F = R Y - I, D the column norms
    of R and s = sqrt(d) |D Y|_F.  A row x = u R of A[I] has x Y = u (I + F);
    the product's rounding is at most gamma_d |x| |Y| = gamma_d |x D^-1| |D Y|
    componentwise, and |x D^-1| <= sqrt(d) |u|; the squared norm's is a
    factor 1 - gamma_(d+1).  With |F|_2 <= |fl(F)|_F + gamma_(d+1) s,
    rho = 1 / ((1 - gamma_(d+1)) (1 - omega)^2), omega = |fl(F)|_F +
    2 gamma_(d+1) s, which either certificate of :func:`_certified_r`
    keeps below 1/2.  Y, the products and their sums are a triangular
    solve and gemms over fixed blocks, so the bytes do not depend on the
    BLAS thread count.
    """
    d = f.R.shape[0]
    Y = scipy.linalg.solve_triangular(f.R, np.eye(d))
    s = math.sqrt(d) * np.linalg.norm(Y * np.linalg.norm(f.R, axis=0)[:, None])
    g = _gamma(d + 1)
    omega = np.linalg.norm(f.R @ Y - np.eye(d)) + 2.0 * g * s
    # the product 2^16 floats at a time (a quarter of the estimate's
    # 2^14 x 16), so its memory does not grow with d; no slower at d <= 256
    l = _row_norms2(f.J, f.A_J, f.I, lambda X: X @ Y, rows=max(1, (1 << 16) // d))
    return l, 1.0 / ((1.0 - g) * (1.0 - omega) ** 2)


def _held(f, z_I, beta1):
    """The scores z_I on I, 0 exactly elsewhere, held on J (every row of a
    dense A), with the claimed beta1 and beta2 = max(1, sum(z) / d)."""
    z = np.zeros(f.A_J.shape[0])
    z[f.I if f.J is None else np.searchsorted(f.J, f.I)] = z_I
    return LeverageScores._on_rows(f.n, f.J, z, beta1, max(1.0, float(z_I.sum()) / f.R.shape[0]))


def _exact(f):
    """(l, scores) of a :class:`_Factored` A: l from :func:`_exact_norms`
    and the scores min(l, 1), which claim beta1 = (1 + eps_lev)^2 rho:
    l_i <= (1 + eps_lev)^2 |A_i R^-1|^2 by the certificate."""
    l, rho = _exact_norms(f)
    return l, _held(f, np.minimum(l, 1.0), (1.0 + f.eps_lev) ** 2 * rho)


def exact_leverage(A):
    """The exact scores of :func:`_exact_norms` clamped at 1, held on A's
    nonzero rows; every zero row of A scores exactly 0, whatever its
    storage.  NaN or Inf raise ParameterError."""
    f = _factor(as_matrix(A, tall=True, finite=True))
    return LeverageScores._on_rows(f.n, f.I, np.minimum(_exact_norms(f)[0], 1.0))


_SAFETY = 2.0  # inflation of the estimates, which the claimed beta1 carries
_DELTA_LEV = 1e-3  # chance that some nonzero row's estimate falls below the claim


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


def _estimate_claim(gamma, r, eps_lev):
    """(k, beta1) of the estimate over r nonzero rows: k = ceil(4/gamma)
    test vectors and the beta1 that :func:`approx_leverage` proves."""
    k = math.ceil(4.0 / gamma)
    return k, max(1.0, (1.0 + eps_lev) ** 2 / (_SAFETY * _chi2_lower_level(k, _DELTA_LEV / r)))


def _estimate(f, gamma, seed):
    """:func:`approx_leverage` of a :class:`_Factored` A."""
    k, beta1 = _estimate_claim(gamma, f.I.size, f.eps_lev)
    rng = np.random.default_rng(derive_seed(seed, 0x7E57))
    G = rng.standard_normal((f.R.shape[0], k)) / math.sqrt(k)
    W = scipy.linalg.solve_triangular(f.R, G, lower=False)
    return _held(f, np.clip(_SAFETY * _row_norms2(f.J, f.A_J, f.I, lambda X: X @ W), 0.0, 1.0),
                 beta1)


def approx_leverage(A, gamma, *, seed=0):
    """Coarse scores with beta1 = O((r / delta_lev)^(gamma / 2)), beta2 = O(1).

    Take R and its certificate eps_lev from :func:`_certified_r` (no
    sketch is built) and estimate the row norms of A R^-1 with
    k = ceil(4/gamma) Gaussian test vectors; estimates are inflated by 2
    and clamped to [0, 1].  Past one pass over a dense A, or over the rows
    J a scipy.sparse A touches (:func:`~subsketch.apply.touched_rows`,
    read through one view that copies none of A), the cost is
    O(r d (d + k) + d^3): the Gram and A[I] R^-1 G read the same dense
    blocks of A's r nonzero rows I, so a sparse A, its dense copy and A
    with stored zeros give the same scores, byte for byte.  That is not
    input-sparsity time: r d (d + k) exceeds nnz(A) k when rows hold few
    nonzeros.  The scores are held on J (every row, for a dense A), 0
    exactly off I.  NaN or Inf raise ParameterError; a rank-deficient A
    raises RankDeficiencyError naming its numerical rank.

    The claimed beta1 is the one this estimator proves.  Let
    u_i = e_i^T A R^-1 and U an orthonormal basis of A's columns, so
    l_i = |e_i^T U|^2.  A R^-1 = U M with sigma_min(M) >= 1 / (1 + eps_lev)
    by the certificate, so l_i <= (1 + eps_lev)^2 |u_i|^2.  G has
    N(0, 1/k) entries, so |u_i^T G|^2 = |u_i|^2 chi^2_k / k exactly, and
    the Chernoff bound gives P(chi^2_k <= t k) <= (t e^(1-t))^(k/2) for
    t < 1.  A row with l_i = 0 needs no bound; for full-rank A these are
    the zero rows, so a union bound runs over the r nonzero rows.  With t
    solving (t e^(1-t))^(k/2) = delta_lev / r, with probability at least
    1 - delta_lev every such row has z_i >= 2 t |u_i|^2 (or z_i = 1 >= l_i),
    hence l_i / z_i <= beta1 = (1 + eps_lev)^2 / (2 t), or 1 when that is
    less (1 is the least a claim may state).  Here delta_lev = 1e-3; for
    small t, t ~ (delta_lev / r)^(2/k) / e, so beta1 grows like
    (r / delta_lev)^(gamma / 2).  beta2 is reported as measured,
    max(1, sum(z)/d).
    """
    gamma = as_real("gamma", gamma, "(0, 1)")
    return _estimate(_factor(as_matrix(A, tall=True, finite=True)), gamma, seed)


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
