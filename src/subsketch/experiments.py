"""Reusable experiment drivers behind ``verify`` and ``bench``, and the
calibration sweep that fixes the constants in :mod:`subsketch.calibration`.

A JSON experiment config (schema_version 1) selects one driver:

    {"schema_version": 1, "experiment": "embedding",
     "kind": "osnap", "d": 16, "n": 4096, "eps": 0.5, "delta": 0.05,
     "trials": 200, "sampler": "haar", "seed": 1,
     "m": null, "s": null, "target": null}

    {"schema_version": 1, "experiment": "trace_moment" | "gamma_moment",
     "kind": "...", "d": 8, "n": 128, "m": 64, "s": 16, "q": 1,
     "trials": 500, "seed": 1}

``m`` and ``s`` pin the dimension and sparsity of the
:func:`~subsketch.oblivious.default_parameters` spec (null: its default).
``embedding`` reports a failure fraction and distortion quantiles and
passes when the fraction is at or below ``target`` (default: delta; a
target outside [0, 1] is a ParameterError).
Moment probes report (estimate, std_error) and always pass.  A key the
experiment does not read (``target`` on a moment probe, ``q`` on
``embedding``, a misspelt key) is a ParameterError.

Score-adapted kinds rebuild their sketch per trial from the exact
leverage scores of the sampled basis.  The eps, s and nnz sweeps behind
``subsketch bench --sweep`` take exactly the values it states, without
defaults; their grids are constants.
"""

import math
import numbers
import time
from dataclasses import replace

import numpy as np
import scipy.sparse

from .apply import apply as _apply
from .calibration import CONSTANTS, REFERENCE
from .errors import FormatError, ParameterError, as_int, as_real
from .kwise import derive_seed
from .leverage import exact_leverage
from .oblivious import LESS_KINDS, SketchSpec, build, default_parameters, sparsity_target
from .diagnostics import SAMPLERS, decoupled_gamma_moment, embedding_trial, trace_moment
from .pipeline import PipelineConfig, fast_subspace_embed

SCHEMA_VERSION = 1


def builder(spec):
    """builder(seed, U) rebuilding ``spec`` with a fresh seed.

    The less kinds swap in the exact leverage scores of the trial basis U;
    the other kinds ignore U.
    """

    def _build(seed, U):
        if spec.kind in LESS_KINDS:
            return build(replace(spec, seed=seed, scores=exact_leverage(U)))
        return build(replace(spec, seed=seed))

    return _build


_TYPES = {int: numbers.Integral, float: numbers.Real, str: str}  # numpy scalars pass too
# the keys every experiment reads, and the one each reads besides; no other key is allowed
_KEYS = ("schema_version", "experiment", "kind", "d", "n", "m", "s", "eps", "delta", "trials",
         "sampler", "seed")
_OWN_KEY = {"embedding": "target", "trace_moment": "q", "gamma_moment": "q"}


def _get(cfg, key, cast, default=None):
    """``cfg[key]`` as ``cast`` (int, float or str), or ``default`` when
    absent or null; FormatError when the value has another type."""
    value = cfg.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, _TYPES[cast]):
        raise FormatError(f"config field {key!r} must be {cast.__name__}, got {value!r}")
    return cast(value)


def run_config(cfg):
    """Dispatch one experiment config; returns (report_dict, passed).

    A non-object config or a field of the wrong type raises FormatError;
    a bad or missing value (an unknown sampler, say) or a key the
    experiment does not read raises ParameterError.
    """
    if not isinstance(cfg, dict):
        raise FormatError(f"an experiment config is a JSON object, got {type(cfg).__name__}")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ParameterError(
            f"unsupported schema_version {cfg.get('schema_version')!r}"
        )
    experiment = _get(cfg, "experiment", str)
    if experiment not in _OWN_KEY:
        raise ParameterError(f"unknown experiment {experiment!r}")
    unread = [k for k in cfg if k not in _KEYS and k != _OWN_KEY[experiment]]
    if unread:
        raise ParameterError(f"the {experiment} experiment does not read {', '.join(unread)}")
    missing = [k for k in ("kind", "d", "n") if cfg.get(k) is None]
    if missing:
        raise ParameterError(f"experiment config is missing keys: {missing}")
    kind = _get(cfg, "kind", str)
    d, n = _get(cfg, "d", int), _get(cfg, "n", int)
    seed = _get(cfg, "seed", int, 0)
    trials = _get(cfg, "trials", int, 100)
    eps = _get(cfg, "eps", float, 0.5)
    delta = _get(cfg, "delta", float, 0.05)
    sampler_name = _get(cfg, "sampler", str, "haar")
    if sampler_name not in SAMPLERS:
        raise ParameterError(f"unknown sampler {sampler_name!r}")
    spec = default_parameters(d, n, eps, delta, kind, m=_get(cfg, "m", int),
                              s=_get(cfg, "s", int), seed=seed)
    dims = {"m": spec.m, "pm": spec.s} | ({"degree_k": spec.degree_k} if spec.degree_k else {})
    build_trial = builder(spec)

    if experiment == "embedding":
        if cfg.get("eps") is None or cfg.get("delta") is None:
            raise ParameterError("embedding experiments need eps and delta")
        target = as_real("target", _get(cfg, "target", float, delta), "[0, 1]")
        sampler = lambda rng: SAMPLERS[sampler_name](n, d, rng)  # noqa: E731
        summary = embedding_trial(build_trial, sampler, trials, eps, seed)
        report = {
            "experiment": "embedding",
            "kind": kind,
            "config": dims | {"d": d, "n": n, "eps": eps, "sampler": sampler_name},
            "result": summary.to_dict(),
            "target": target,
        }
        return report, summary.failure_fraction <= target

    q = _get(cfg, "q", int, 1)
    rng = np.random.default_rng(derive_seed(seed, 0xBA5E))
    U = SAMPLERS[sampler_name](n, d, rng)
    probe_fn = trace_moment if experiment == "trace_moment" else decoupled_gamma_moment
    probe = probe_fn(build_trial, U, q, trials, seed)
    report = {
        "experiment": experiment,
        "kind": kind,
        "config": dims | {"d": d, "n": n, "q": q},
        "result": probe.to_dict(),
    }
    return report, True


def _eps_grid_m(d, eps, constants=CONSTANTS):
    """m0 = ceil(C_m * d / eps^2) of an eps-grid point, pinned as the m of
    its :func:`default_parameters` spec."""
    return math.ceil(constants.c_m_oblivious * d / eps**2)


_SWEEP_SAMPLER = "coordinate"  # the eps and s sweeps' bases
_S_GRID = (2, 4, 8, 16, 32)
_NNZ_FACTORS = (1, 2, 4, 8)
_NNZ_M, _NNZ_S, _NNZ_REPS = 256, 8, 5


def eps_sweep(kind, d, n, delta, trials, seed):
    """Failure fraction and calibrated sparsity across REFERENCE's eps grid.

    Each point pins m = :func:`_eps_grid_m`; rows carry the continuous
    sparsity target for trend fits.
    """
    if kind not in ("osnap", "ose-ie"):
        raise ParameterError(f"eps sweep supports sparse kinds, got {kind!r}")
    rows = []
    for eps in REFERENCE["eps_grid"]:
        m0 = _eps_grid_m(d, eps)
        spec = default_parameters(d, n, eps, delta, kind, m=m0)
        if spec.m >= n:
            raise ParameterError(
                f"sweep point eps={eps} needs m={spec.m} >= n={n}; raise n"
            )
        rows.append(sweep_row(spec, d, eps, trials, derive_seed(seed, round(1 / eps)),
                              _SWEEP_SAMPLER, s_target=sparsity_target(kind, d, eps, delta, m0)))
    return rows


def nnz_sweep(d, n, seed):
    """Wall time of one application as the input nonzeros double from n rows.

    The sketch is rebuilt per n (columns must match the input rows) at
    fixed (m, s), so per-column work is constant and time should scale
    linearly with nnz.  ParameterError unless d >= 1.
    """
    d = as_int("d", d, 1)
    rows = []
    for f in _NNZ_FACTORS:
        sketch = build(SketchSpec.from_sparsity("osnap", m=_NNZ_M, n=n * f, s=_NNZ_S, seed=seed))
        A = scipy.sparse.random(sketch.n, d, density=0.05, random_state=seed % 2**32,
                                format="csr")
        best = math.inf
        for _ in range(_NNZ_REPS):
            t0 = time.perf_counter()
            _apply(sketch, A)
            best = min(best, time.perf_counter() - t0)
        rows.append({"nnz": int(A.nnz), "n": sketch.n, "m": _NNZ_M, "s": _NNZ_S,
                     "seconds": best})
    return rows


def s_sweep(kind, d, n, eps, delta, trials, seed):
    """Failure fraction as the per-column sparsity varies at fixed m."""
    spec0 = default_parameters(d, n, eps, delta, kind, seed=seed)
    rows = []
    for s in _S_GRID:
        spec = default_parameters(d, n, eps, delta, kind, m=spec0.m, s=s, seed=seed)
        rows.append(sweep_row(spec, d, eps, trials, derive_seed(seed, spec.s), _SWEEP_SAMPLER))
    return rows


def sweep_row(spec, d, eps, trials, seed, sampler, **extra):
    """Failure fraction and q95 distortion of ``spec`` on ``sampler`` bases."""
    sampler_fn = lambda rng: SAMPLERS[sampler](spec.n, d, rng)  # noqa: E731
    summary = embedding_trial(builder(spec), sampler_fn, trials, eps, seed)
    return {"kind": spec.kind, "eps": eps, "m": spec.m, "s": spec.s, **extra,
            "trials": trials, "failure_fraction": summary.failure_fraction,
            "q95_distortion": summary.quantiles["0.95"]}


_POW2 = tuple(2.0**k for k in range(-6, 5))
_PIPELINE_RUNS = 25


def _pipeline_failures(constants, eps, delta, seed):
    """(spec, failure fraction) of less-ic at the m and pm of ``constants``
    over ``fast_subspace_embed(validate=True)`` runs on a sparse 1e5 x 32
    input, scores by the pipeline's leverage route (gamma = 0.25 if it
    estimates); None when the sparsity reaches m."""
    n, d = 100_000, 32
    spec = default_parameters(d, n, eps, delta, "less-ic", constants=constants)
    if spec.s >= spec.m:
        return None
    rng = np.random.default_rng(derive_seed(seed, 0xF1FE))
    A = scipy.sparse.random(n, d, density=0.003, random_state=11, format="csr")
    lift = scipy.sparse.csr_matrix(
        (rng.uniform(1.0, 2.0, d), (np.arange(d), np.arange(d))), shape=(n, d)
    )
    A = (A + lift).tocsr()
    good = 0
    for run in range(_PIPELINE_RUNS):
        _, report = fast_subspace_embed(A, PipelineConfig(
            eps, delta, seed=derive_seed(seed, 7000 + run), m=spec.m, pm=spec.s, validate=True))
        good += 1 - eps <= report.distortion["s_min"] and report.distortion["s_max"] <= 1 + eps
    return spec, 1.0 - good / _PIPELINE_RUNS


def calibrate(trials=None, seed=None):
    """Rerun the calibration sweep of :mod:`subsketch.calibration`; returns
    (constants, rows), one row per measured surface point.

    Each constant is searched in ascending order, with the ones already
    selected fixed; a candidate whose anchor point has m >= n or a capped
    sparsity is skipped, and the first one keeping every point of its
    surfaces at or below delta/2 wins; every point and the selection are
    printed as they are measured.  Candidates are ``CONSTANTS`` with the
    searched fields replaced.  trials and seed default to REFERENCE's;
    trials below 1 raise ParameterError.
    """
    trials = as_int("trials", REFERENCE["trials"] if trials is None else trials, 1)
    seed = REFERENCE["seed"] if seed is None else seed
    d, n, delta = REFERENCE["d"], REFERENCE["n"], REFERENCE["delta"]
    eps, *grid = REFERENCE["eps_grid"]  # the anchor eps, then the grid's others
    grid_n = 8192  # the eps sweep's n
    rows = []

    def passes(stage, kind, spec, eps, sampler, frac):
        rows.append({"stage": stage, "kind": kind, "m": spec.m, "s": spec.s, "n": spec.n,
                     "eps": eps, "sampler": sampler, "failure_fraction": frac})
        print(f"  {stage}: {kind} m={spec.m} s={spec.s} eps={eps} {sampler} -> {frac:.3f}")
        return frac <= delta / 2

    def point(stage, spec, eps, sampler, salt, trials=trials):
        frac = sweep_row(spec, d, eps, trials, derive_seed(seed, salt),
                         sampler)["failure_fraction"]
        return passes(stage, spec.kind, spec, eps, sampler, frac)

    def surfaces_pass(stage, kind, constants, salt):
        """The anchor on both samplers, then the eps grid on coordinate
        subspaces, or the pipeline surface for less-ic."""
        spec = default_parameters(d, n, eps, delta, kind, constants=constants)
        if spec.m >= n or spec.s >= spec.m and kind != "gaussian-dense":
            return False
        if not all(point(stage, spec, eps, sampler, salt + i)
                   for i, sampler in enumerate(("haar", "coordinate"))):
            return False
        if kind == "less-ic":
            found = _pipeline_failures(constants, eps, delta, seed)
            if found is None:
                return False
            spec, frac = found
            return passes(stage, "less-ic-pipeline", spec, eps, "pipeline-scores", frac)
        for k, e in enumerate(grid):
            spec = default_parameters(d, grid_n, e, delta, kind,
                                      m=_eps_grid_m(d, e, constants), constants=constants)
            if spec.m >= grid_n or not point(stage, spec, e, "coordinate", salt + 16 + k,
                                             trials=max(trials // 2, 20)):
                return False
        return True

    def search(kind, candidates, fallback):
        """The first (constants, stage, salt) candidate passing, else fallback."""
        for constants, stage, salt in candidates:
            if surfaces_pass(stage, kind, constants, salt):
                return constants
        return fallback

    c = search("gaussian-dense",
               [(replace(CONSTANTS, c_m_oblivious=x), f"c_m={x}", int(x * 64))
                for x in _POW2 if x >= 1],
               replace(CONSTANTS, c_m_oblivious=4.0))
    c = search("osnap", [(replace(c, c_s_osnap=x), f"c_s={x}", int(x * 1024)) for x in _POW2],
               replace(c, c_s_osnap=1.0))
    c = search("ose-ie", [(replace(c, c_e_oseie=x), f"c_e={x}", int(x * 4096)) for x in _POW2],
               replace(c, c_e_oseie=1.0))
    c = search("less-ic",
               [(replace(c, c_m_less=a, c_pm_less=b), f"c_less=({a},{b})", int(a * 512 + b * 64))
                for a in (0.25, 0.5, 1.0, 2.0) for b in (0.0625, 0.125, 0.25, 0.5, 1.0)],
               replace(c, c_m_less=1.0, c_pm_less=0.25))
    print(f"selected: {c}")
    return c, rows
