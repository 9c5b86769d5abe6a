"""End-to-end fast subspace embedding.

``fast_subspace_embed`` chains score-adapted parameter selection,
leverage scores, sketch construction and application, and reports
per-stage timings plus nonzero accounting.  Oblivious kinds skip the
leverage stage.  The less kinds factor A's nonzero rows once and take
their scores from that R by the route :func:`_exact_pays` picks: exact
scores |A_i R^-1|^2 or the k-vector estimate.  An op finds the rows J a
sparse A touches once (the scores are held on J; other kinds find J
here), and the build and the validate stage read it; the leverage module
decides which rows are nonzero.  The validate stage reads R and the exact
scores from the leverage stage (oblivious kinds factor here), and the
band of A_tilde R^-1 from :func:`~subsketch.diagnostics.singular_values`,
as ``distortion`` does.
"""

import time
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.linalg

from ._field import derive_seed
from .apply import _product as _apply  # A is gated once; tracing wraps this name
from .apply import as_matrix, touched_rows
from .diagnostics import singular_values
from .errors import ParameterError, as_int, as_real
from .leverage import _SAFETY, _estimate_claim, _exact, _exact_norms, _factor
from .leverage import _estimate as approx_leverage  # the estimate of a factored A, traced
from .less import build_less_ic
from .oblivious import COLUMN_KINDS, KINDS, LESS_KINDS, build, default_parameters

# Counted work is in multiply-adds of a gemm: one of the blocked A[I] R^-1
# took 0.041 ns at 2^14 x 64 x 64 (1 BLAS thread, one core of a 2-vCPU
# Xeon).  On that core:
_FIELD_STEP = 19  # a step of the K-wise hash: 0.79 ns (2^16 points in progression, K = 56-80)
_PRODUCT_MADD = 10  # a multiply-add of the sparse sketch times A: 0.39-0.54 ns (d = 64-512)
_IE_ENTRY = 2000  # drawing one less-ie entry: 85-112 ns (2^14-2^16 x 64-256 inputs)


def _exact_pays(spec, f, gamma):
    """Whether exact scores cost no more counted work than the estimate for
    the less ``spec`` (its m, p and K do not depend on the scores) of a
    factored A (:class:`~subsketch.leverage._Factored`): r rows, d columns.

    Past the shared R, the exact route multiplies by the d x d R^-1, the
    estimate by a d x k matrix: r d (d - k) more multiply-adds.  Column j of
    a less sketch holds about beta1 p m z_j entries (less-ic at least one).
    The estimate's z sums to about 2d and the exact scores to d, so the
    estimate adds about p m d (2 beta1_estimate - beta1_exact) entries, each
    costing 2 (K - 1) field steps of hashing for less-ic (or one draw for
    less-ie) plus its product's nnz(A) / r multiply-adds.  beta1_exact is
    taken as (1 + eps_lev)^2: its rounding factor adds under 1e-9.
    A full build hashes in progression, as measured; a column-restricted
    build (a sparse A) hashes about 3 times slower (2.2-2.6 ns a step), so
    there the rule errs toward the estimate.
    """
    r, d = f.I.size, f.R.shape[0]
    k, beta1 = _estimate_claim(gamma, r, f.eps_lev)
    added = spec.p * spec.m * d * (_SAFETY * beta1 - (1.0 + f.eps_lev) ** 2)
    draw = _IE_ENTRY if spec.kind == "less-ie" else 2 * (spec.degree_k - 1) * _FIELD_STEP
    return r * d * (d - k) <= added * (draw + _PRODUCT_MADD * f.nnz / r)


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
    leverage_route: str = None  # "exact" or "estimate" on the less kinds

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


def fast_subspace_embed(A, config):
    """Compute A_tilde = Pi A with the score-adapted pipeline.

    A passes :func:`~subsketch.apply.as_matrix` once (a scipy.sparse A
    becomes CSR; NaN and Inf raise ParameterError) and must be tall.  For
    a scipy.sparse A the cost is O(|J| + nnz(A) + entries built) past
    :func:`~subsketch.apply.touched_rows`, which finds the rows J that A
    touches once per op, validated or not, and is the op's only pass
    over n: the leverage scores are held on J, the osnap and less-ic
    sketches are built and applied on the columns J only and keep
    |J| + 1 column pointers, the validate stage reads the one
    factorization of A's nonzero rows, every stage reads A[J] as a view
    that copies none of A, ``nnz_input`` counts A's nonzeros in any
    storage and ``nnz_sketch`` the full sketch, as the builder gives it.
    The less kinds take exact scores or the estimate (``gamma`` sets its
    k), whichever :func:`_exact_pays` finds cheaper; ``leverage_route``
    names it.  Returns (A_tilde, PipelineReport).  Stage names in the
    report: ``parameters``, ``leverage``, ``build`` (finding J included
    for an oblivious kind), ``apply`` and optionally ``validate``, which
    for the less kinds also reports ``beta1_measured`` next to the
    claimed ``beta1``.
    """
    A = as_matrix(A, tall=True, finite=True)
    n, d = A.shape
    timings = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    spec = default_parameters(d, n, config.eps, config.delta, config.kind, m=config.m,
                              s=config.pm, seed=config.seed)
    timings["parameters"] = time.perf_counter() - t0

    f = exact = scores = route = None
    if config.kind in LESS_KINDS:
        t0 = time.perf_counter()
        f = _factor(A)
        if _exact_pays(spec, f, config.gamma):
            route, (exact, scores) = "exact", _exact(f)
        else:
            route = "estimate"
            scores = approx_leverage(f, config.gamma, seed=derive_seed(config.seed, 0x5C0))
        spec = replace(spec, scores=scores)
        timings["leverage"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # a sparse A needs only the sketch columns of the rows J it touches,
    # which the leverage stage found; validate reads J too
    J = touched_rows(A) if f is None else f.J
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
        f = _factor(A, J) if f is None else f
        exact = _exact_norms(f)[0] if exact is None else exact
        # A R^-1 is an orthonormal basis of A's columns, so Pi A R^-1 has Pi U's band
        band = singular_values(scipy.linalg.solve_triangular(f.R, A_tilde.T, trans="T").T)
        distortion_info = {"s_min": float(band[-1]), "s_max": float(band[0])}
        if scores is not None:
            beta1_measured = float(np.max(exact / scores.at(f.I)))
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
        nnz_input=int(np.count_nonzero(A if J is None else A.data)) if f is None else f.nnz,
        nnz_sketch=nnz_sketch,
        distortion=distortion_info,
        beta1_measured=beta1_measured,
        leverage_route=route,
    )
    if scores is not None:
        report.beta1 = scores.beta1
        report.beta2 = scores.beta2
        report.nnz_bound = n + 4.0 * scores.beta1 * scores.beta2 * report.pm * d
        report.sublinear_term_dominates = (nnz_sketch - n) > report.nnz_input
    return A_tilde, report
