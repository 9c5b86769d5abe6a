"""End-to-end fast subspace embedding.

``fast_subspace_embed`` chains coarse leverage-score approximation,
score-adapted parameter selection, sketch construction and application,
and reports per-stage timings plus nonzero accounting.  Oblivious kinds
skip the leverage stage.  An op finds the rows J a sparse A touches
once (the scores are held on J; other kinds find J here), and the build
and the validate stage read it; the leverage module decides which rows
are nonzero.  The validate stage reads R and the exact scores on those
rows from it, and the band of A_tilde R^-1 from
:func:`~subsketch.diagnostics.singular_values`, as ``distortion`` does.
"""

import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from ._field import derive_seed
from .apply import as_matrix, touched_rows
from .apply import apply as _apply
from .diagnostics import singular_values
from .errors import ParameterError, as_int, as_real
from .leverage import _exact_rows, approx_leverage
from .less import build_less_ic
from .oblivious import COLUMN_KINDS, KINDS, LESS_KINDS, build, default_parameters


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
        if self.kind not in KINDS:
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


def fast_subspace_embed(A, config):
    """Compute A_tilde = Pi A with the score-adapted pipeline.

    A passes :func:`~subsketch.apply.as_matrix` once (a scipy.sparse A
    becomes CSR) and must be tall.  For a scipy.sparse A the cost is
    O(|J| + nnz(A) + entries built) past
    :func:`~subsketch.apply.touched_rows`, which finds the rows J that A
    touches once per op, validated or not, and is the op's only pass
    over n: the leverage scores are estimated and held on J, the osnap and
    less-ic sketches are built and applied on the columns J only and keep
    |J| + 1 column pointers, the validate stage factors A's nonzero rows
    with one QR and reads the scores on them, every stage reads A[J] as a
    view that copies none of A, ``nnz_input`` counts A's nonzeros in any
    storage and ``nnz_sketch`` the full sketch, as the builder gives it.  Returns
    (A_tilde, PipelineReport).  Stage names in the report: ``leverage``,
    ``parameters``, ``build`` (finding J included for an oblivious
    kind), ``apply`` and optionally ``validate``, which for the less
    kinds also reports ``beta1_measured`` next to the claimed ``beta1``.
    """
    A = as_matrix(A, tall=True, finite=False)
    n, d = A.shape
    timings = {}
    t_total = time.perf_counter()
    scores = None

    if config.kind in LESS_KINDS:
        t0 = time.perf_counter()
        scores = approx_leverage(A, config.gamma, seed=derive_seed(config.seed, 0x5C0))
        timings["leverage"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spec = default_parameters(d, n, config.eps, config.delta, config.kind, m=config.m,
                              s=config.pm, scores=scores, seed=config.seed)
    timings["parameters"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # a sparse A needs only the sketch columns of the rows J it touches,
    # which approx_leverage found and holds its scores on; validate reads J too
    J = touched_rows(A) if scores is None else scores.rows
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
        I, R, exact = _exact_rows(A, touched=J)
        # A R^-1 is an orthonormal basis of A's columns, so Pi A R^-1 has Pi U's band
        band = singular_values(scipy.linalg.solve_triangular(R, A_tilde.T, trans="T").T)
        distortion_info = {"s_min": float(band[-1]), "s_max": float(band[0])}
        if scores is not None:
            beta1_measured = float(np.max(exact / scores.at(I)))
        timings["validate"] = time.perf_counter() - t0

    total = time.perf_counter() - t_total
    nnz_sketch = sketch.nnz if columns is None else sketch.full_nnz
    report = PipelineReport(
        kind=config.kind,
        m=spec.m,
        n=n,
        d=d,
        pm=float(spec.p) * spec.m,
        timings=timings,
        total_seconds=total,
        nnz_input=int(np.count_nonzero(A if J is None else A.data)),
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
