"""End-to-end fast subspace embedding.

``fast_subspace_embed`` chains coarse leverage-score approximation,
score-adapted parameter selection, sketch construction and application,
and reports per-stage timings plus nonzero accounting.  Oblivious kinds
skip the leverage stage.
"""

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from ._field import derive_seed
from .apply import apply as _apply
from .apply import touched_rows
from .errors import ParameterError
from .leverage import approx_leverage
from .less import build_less_ic, column_sparsities
from .oblivious import COLUMN_KINDS, LESS_KINDS, build, default_parameters

PIPELINE_KINDS = ("osnap", "ose-ie", "less-ic", "less-ie", "gaussian-dense")


@dataclass(frozen=True)
class Overrides:
    """Optional explicit parameter pins; None leaves the default in place."""

    m: int = None
    pm: int = None

    def __post_init__(self):
        for name in ("m", "pm"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ParameterError(f"override {name} must be >= 1, got {v}")


@dataclass(frozen=True)
class PipelineConfig:
    eps: float
    delta: float
    gamma: float = 0.25
    seed: int = 0
    kind: str = "less-ic"
    overrides: Overrides = field(default_factory=Overrides)
    validate: bool = False

    def __post_init__(self):
        for name in ("eps", "delta", "gamma"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ParameterError(f"{name} must lie in (0, 1), got {v}")
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

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


def _nnz(A):
    if scipy.sparse.issparse(A):
        return int(A.nnz)
    return int(np.count_nonzero(A))


def _r_factor(A):
    """R of a QR factorization of A, which must have full column rank."""
    dense = A.toarray() if scipy.sparse.issparse(A) else np.asarray(A)
    R = np.linalg.qr(dense, mode="r")
    diag = np.abs(np.diag(R))
    if diag.min() <= max(dense.shape) * np.finfo(np.float64).eps * diag.max():
        raise ParameterError("input matrix is numerically rank deficient")
    return R


def _validate_distortion(R, A_tilde):
    """Singular-value band of A_tilde against the orthonormal basis A R^-1."""
    Y = scipy.linalg.solve_triangular(R, A_tilde.T, lower=False, trans="T").T
    svals = np.linalg.svd(Y, compute_uv=False)
    return {"s_min": float(svals[-1]), "s_max": float(svals[0])}


def fast_subspace_embed(A, config):
    """Compute A_tilde = Pi A with the score-adapted pipeline.

    For a scipy.sparse A, the osnap and less-ic sketches are built only
    on the columns of the rows A touches; ``nnz_sketch`` in the report
    still counts the full sketch.  Returns (A_tilde, PipelineReport).
    Stage names in the report:
    ``leverage``, ``parameters``, ``build``, ``apply`` and optionally
    ``validate``.
    """
    n, d = A.shape
    if n < d:
        raise ParameterError(f"need a tall matrix, got shape {n}x{d}")
    timings = {}
    t_total = time.perf_counter()
    scores = None
    ov = config.overrides

    if config.kind in LESS_KINDS:
        t0 = time.perf_counter()
        scores = approx_leverage(A, config.gamma, seed=derive_seed(config.seed, 0x5C0))
        timings["leverage"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spec = default_parameters(d, n, config.eps, config.delta, config.kind,
                              scores=scores, seed=config.seed)
    m = spec.m if ov.m is None else ov.m
    spec = replace(spec, m=m, p=(spec.s if ov.pm is None else ov.pm) / m)
    timings["parameters"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # a sparse A needs only the sketch columns of the rows it touches
    columns = touched_rows(A) if spec.kind in COLUMN_KINDS else None
    # less-ic goes through this module's name for it, which per-layer
    # tracing wraps; every other kind through the registry
    sketch = (build_less_ic if spec.kind == "less-ic" else build)(spec, columns=columns)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    A_tilde = _apply(sketch, A)
    timings["apply"] = time.perf_counter() - t0

    distortion_info = None
    if config.validate:
        t0 = time.perf_counter()
        distortion_info = _validate_distortion(_r_factor(A), A_tilde)
        timings["validate"] = time.perf_counter() - t0

    total = time.perf_counter() - t_total
    nnz_sketch = sketch.nnz
    if columns is not None:  # count the full sketch without hashing it
        nnz_sketch = int(spec.n * spec.s if spec.kind == "osnap" else column_sparsities(spec).sum())
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
    )
    if scores is not None:
        report.beta1 = scores.beta1
        report.beta2 = scores.beta2
        report.nnz_bound = n + 4.0 * scores.beta1 * scores.beta2 * report.pm * d
        report.sublinear_term_dominates = (nnz_sketch - n) > report.nnz_input
    return A_tilde, report
