"""End-to-end fast subspace embedding.

``fast_subspace_embed`` chains coarse leverage-score approximation,
score-adapted parameter selection, sketch construction and application,
and reports per-stage timings plus nonzero accounting.  Oblivious kinds
skip the leverage stage.
"""

import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from ._field import derive_seed
from .apply import _nnz, as_matrix, dense_touched, touched_rows
from .apply import apply as _apply
from .errors import ParameterError, RankDeficiencyError, as_int, as_real
from .leverage import _full_rank_r, approx_leverage, exact_leverage
from .less import build_less_ic
from .oblivious import COLUMN_KINDS, LESS_KINDS, build, default_parameters

PIPELINE_KINDS = ("osnap", "ose-ie", "less-ic", "less-ie", "gaussian-dense")


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline settings; ``m`` and ``pm`` pin the embedding dimension and
    the sparsity p*m that :func:`default_parameters` picks otherwise.
    ``validate`` is a bool; the seed is checked where seeds derive from it."""

    eps: float
    delta: float
    gamma: float = 0.25
    seed: int = 0
    kind: str = "less-ic"
    m: int = None
    pm: int = None
    validate: bool = False

    def __post_init__(self):
        for name in ("eps", "delta", "gamma"):
            object.__setattr__(self, name, as_real(name, getattr(self, name), "(0, 1)"))
        for name in ("m", "pm"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, as_int(name, getattr(self, name), 1))
        if not isinstance(self.validate, (bool, np.bool_)):
            raise ParameterError(f"validate must be a bool, got {self.validate!r}")
        if self.kind not in PIPELINE_KINDS:
            raise ParameterError(f"unknown pipeline kind {self.kind!r}")


@dataclass
class PipelineReport:
    kind: str
    m: int
    n: int
    d: int
    pm: float
    timings: dict
    total_seconds: float
    nnz_input: int
    nnz_sketch: int
    sublinear_term_dominates: bool = False
    nnz_bound: float = None  # nnz_bound, beta1, beta2: score-adapted kinds only
    beta1: float = None
    beta2: float = None
    distortion: dict = None
    beta1_measured: float = None  # with validate=True on the less kinds

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


def _r_factor(A, J=None):
    """R of a QR of a gated A (of A[J], for a CSR A); RankDeficiencyError
    unless A has full column rank.  J = ``touched_rows(A)``, found here
    when not given."""
    R = _full_rank_r(dense_touched(A, touched_rows(A) if J is None else J)[1], A.shape[0])
    if R is None:  # a deficient A raises here, naming its numerical rank
        exact_leverage(A)
        raise RankDeficiencyError("input matrix is numerically rank deficient", A.shape[1])
    return R


def _validate_distortion(R, A_tilde):
    """Singular-value band of A_tilde against the orthonormal basis A R^-1."""
    Y = scipy.linalg.solve_triangular(R, A_tilde.T, lower=False, trans="T").T
    svals = np.linalg.svd(Y, compute_uv=False)
    return {"s_min": float(svals[-1]), "s_max": float(svals[0])}


def _measured_beta1(R, A, J, z):
    """max l_i / z_i over the rows with l_i > 0, where l_i = |A_i R^-1|^2
    are the exact scores from the validate stage's R (A's touched rows J)."""
    rows, X = dense_touched(A, J)
    Y = scipy.linalg.solve_triangular(R, X.T, lower=False, trans="T").T
    lev = np.einsum("ij,ij->i", Y, Y)
    pos = lev > 0.0
    return float(np.max(lev[pos] / z[rows][pos]))


def fast_subspace_embed(A, config):
    """Compute A_tilde = Pi A with the score-adapted pipeline.

    A passes :func:`~subsketch.apply.as_matrix` once (a scipy.sparse A
    becomes CSR) and must be tall.  For a scipy.sparse A the cost follows
    the rows J that A touches and the entries built, past finding J
    (once), the n + 1 column pointers of each sketch and one pass over
    the scores: the leverage estimate runs on J, the osnap and less-ic
    sketches are built and applied on the columns J only, the validate
    stage factors A[J], and ``nnz_sketch`` in the report still counts the
    full sketch.  Returns (A_tilde, PipelineReport).  Stage names in the
    report: ``leverage`` (finding J included), ``parameters``, ``build``,
    ``apply`` and optionally ``validate``, which for the less kinds also
    reports ``beta1_measured`` next to the claimed ``beta1``.
    """
    A = as_matrix(A, tall=True, finite=False)
    n, d = A.shape
    timings = {}
    t_total = time.perf_counter()
    scores = None

    t0 = time.perf_counter()
    # the rows a sparse A touches, found once for the leverage, build and validate stages
    J = touched_rows(A)
    if config.kind in LESS_KINDS:
        scores = approx_leverage(A, config.gamma, seed=derive_seed(config.seed, 0x5C0),
                                 columns=J)
        timings["leverage"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spec = default_parameters(d, n, config.eps, config.delta, config.kind, m=config.m,
                              s=config.pm, scores=scores, seed=config.seed)
    timings["parameters"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # a sparse A needs only the sketch columns of the rows it touches
    columns = J if spec.kind in COLUMN_KINDS else None
    # less-ic goes through this module's name for it, which per-layer
    # tracing wraps; every other kind through the registry
    sketch = (build_less_ic if spec.kind == "less-ic" else build)(spec, columns=columns)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    A_tilde = _apply(sketch, A)
    timings["apply"] = time.perf_counter() - t0

    distortion_info = beta1_measured = None
    if config.validate:
        t0 = time.perf_counter()
        R = _r_factor(A, J)
        distortion_info = _validate_distortion(R, A_tilde)
        if scores is not None:
            beta1_measured = _measured_beta1(R, A, J, scores.z)
        timings["validate"] = time.perf_counter() - t0

    total = time.perf_counter() - t_total
    nnz_sketch = sketch.nnz
    if columns is not None:  # count the full sketch without hashing it
        # a less-ic column off J has score 0, so it is a single block of height m
        nnz_sketch = spec.n * spec.s if spec.kind == "osnap" else sketch.nnz + n - columns.size
    report = PipelineReport(
        kind=config.kind,
        m=spec.m,
        n=n,
        d=d,
        pm=float(spec.p) * spec.m,
        timings=timings,
        total_seconds=total,
        nnz_input=_nnz(A),
        nnz_sketch=nnz_sketch,
        distortion=distortion_info,
        beta1_measured=beta1_measured,
    )
    if scores is not None:
        report.beta1 = scores.beta1
        report.beta2 = scores.beta2
        report.nnz_bound = n + 4.0 * scores.beta1 * scores.beta2 * report.pm * d
        report.sublinear_term_dominates = (nnz_sketch - n) > report.nnz_input
    return A_tilde, report
