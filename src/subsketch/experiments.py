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

``embedding`` reports a failure fraction and distortion quantiles and
passes when the fraction is at or below ``target`` (default: delta; a
target outside [0, 1] is a ParameterError).
Moment probes report (estimate, std_error) and always pass.

Score-adapted kinds rebuild their sketch per trial from the exact
leverage scores of the sampled basis.
"""

import math
import numbers
import time
from dataclasses import replace

import numpy as np
import scipy.sparse

from .apply import apply as _apply
from .calibration import CONSTANTS, REFERENCE, Constants
from .errors import FormatError, ParameterError
from .kwise import derive_seed
from .leverage import approx_leverage, exact_leverage
from .oblivious import (
    COLUMN_KINDS,
    LESS_KINDS,
    SketchSpec,
    build,
    check_dimensions,
    default_parameters,
    independence_degree,
    round_parameters,
    sparsity_target,
)
from .diagnostics import SAMPLERS, decoupled_gamma_moment, embedding_trial, trace_moment
from .pipeline import _r_factor, _validate_distortion

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
    a bad or missing value (an unknown sampler, say) raises ParameterError.
    """
    if not isinstance(cfg, dict):
        raise FormatError(f"an experiment config is a JSON object, got {type(cfg).__name__}")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ParameterError(
            f"unsupported schema_version {cfg.get('schema_version')!r}"
        )
    experiment = _get(cfg, "experiment", str)
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
    spec = default_parameters(d, n, eps, delta, kind, seed=seed)
    m, s = _get(cfg, "m", int), _get(cfg, "s", int)
    if any(v is not None and v < 1 for v in (m, s)):
        raise ParameterError(f"m and s must be >= 1, got m={m}, s={s}")
    if m is not None or s is not None:
        m, s = round_parameters(kind, spec.m if m is None else m, spec.s if s is None else s)
        spec = replace(spec, m=m, p=s / m)
    dims = {"m": spec.m, "pm": spec.s} | ({"degree_k": spec.degree_k} if spec.degree_k else {})
    build_trial = builder(spec)

    if experiment == "embedding":
        if cfg.get("eps") is None or cfg.get("delta") is None:
            raise ParameterError("embedding experiments need eps and delta")
        target = _get(cfg, "target", float, delta)
        if not 0.0 <= target <= 1.0:
            raise ParameterError(f"target must lie in [0, 1], got {target}")
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

    if experiment in ("trace_moment", "gamma_moment"):
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

    raise ParameterError(f"unknown experiment {experiment!r}")


def eps_point(kind, d, n, eps, delta, c_m=None, **constants):
    """(m, s, s_target) of an eps-grid point: m0 = ceil(C_m * d / eps^2), the
    kind's continuous sparsity target (``constants``: its c_s, c_e or c_pm)
    and their rounding."""
    check_dimensions(d, n, eps, delta)
    c_m = CONSTANTS.c_m_oblivious if c_m is None else c_m
    m0 = math.ceil(c_m * d / eps**2)
    target = sparsity_target(kind, d, eps, delta, m0, **constants)
    return *round_parameters(kind, m0, target), target


def eps_sweep(kind, d=16, delta=0.05, eps_grid=(0.5, 0.25, 0.125), n=8192,
              trials=50, seed=7, sampler="coordinate"):
    """Failure fraction and calibrated sparsity across an eps grid.

    The points come from :func:`eps_point`; rows carry the continuous
    sparsity target for trend fits.
    """
    if kind not in ("osnap", "ose-ie"):
        raise ParameterError(f"eps sweep supports sparse kinds, got {kind!r}")
    rows = []
    for eps in eps_grid:
        m, s, target = eps_point(kind, d, n, eps, delta)
        if m >= n:
            raise ParameterError(
                f"sweep point eps={eps} needs m={m} >= n={n}; raise n"
            )
        rows.append(sweep_row(grid_spec(kind, m, s, n, d, eps, delta), d, eps, trials,
                              derive_seed(seed, round(1 / eps)), sampler, s_target=target))
    return rows


def m_sweep(kind, d=16, n=4096, eps=0.5, delta=0.05, factors=(1, 2, 4),
            trials=100, seed=7, sampler="haar"):
    """Distortion quantiles as m doubles at fixed sparsity."""
    spec0 = default_parameters(d, n, eps, delta, kind, seed=seed)
    s = spec0.s
    rows = []
    for f in factors:
        m = spec0.m * f
        rows.append(sweep_row(replace(spec0, m=m, p=s / m), d, eps, trials,
                              derive_seed(seed, f), sampler))
    return rows


def nnz_sweep(m=256, s=8, d=16, base_n=4096, factors=(1, 2, 4, 8), reps=5,
              seed=7):
    """Wall time of one application as the input nonzeros double.

    The sketch is rebuilt per n (columns must match the input rows) at
    fixed (m, s), so per-column work is constant and time should scale
    linearly with nnz.  ParameterError unless d >= 1.
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got d = {d}")
    rows = []
    for f in factors:
        n = base_n * f
        spec = SketchSpec.from_sparsity("osnap", m=m, n=n, s=s, seed=seed)
        sketch = build(spec)
        A = scipy.sparse.random(n, d, density=0.05, random_state=seed % 2**32,
                                format="csr")
        best = math.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            _apply(sketch, A)
            best = min(best, time.perf_counter() - t0)
        rows.append({"nnz": int(A.nnz), "n": n, "m": m, "s": s,
                     "seconds": best})
    return rows


def s_sweep(kind="osnap", d=16, n=4096, eps=0.5, delta=0.05,
            s_grid=(2, 4, 8, 16, 32), trials=100, seed=7, sampler="coordinate"):
    """Failure fraction as the per-column sparsity varies at fixed m."""
    spec0 = default_parameters(d, n, eps, delta, kind, seed=seed)
    rows = []
    for s in s_grid:
        m, s = round_parameters(kind, spec0.m, s)
        rows.append(sweep_row(replace(spec0, m=m, p=s / m), d, eps, trials,
                              derive_seed(seed, s), sampler))
    return rows


def grid_spec(kind, m, s, n, d, eps, delta):
    """Spec of one (m, s) sweep point; a hashing kind gets the degree for
    (d, eps, delta)."""
    return SketchSpec(kind=kind, m=m, n=n, p=s / m,
                      degree_k=independence_degree(d, eps, delta, s)
                      if kind in COLUMN_KINDS else None)


def sweep_row(spec, d, eps, trials, seed, sampler, **extra):
    """Failure fraction and q95 distortion of ``spec`` on ``sampler`` bases."""
    sampler_fn = lambda rng: SAMPLERS[sampler](spec.n, d, rng)  # noqa: E731
    summary = embedding_trial(builder(spec), sampler_fn, trials, eps, seed)
    return {"kind": spec.kind, "eps": eps, "m": spec.m, "s": spec.s, **extra,
            "trials": trials, "failure_fraction": summary.failure_fraction,
            "q95_distortion": summary.quantiles["0.95"]}


_POW2 = tuple(2.0**k for k in range(-6, 5))


def _pipeline_failures(constants, eps, delta, seed, runs=25):
    """(spec, failure fraction) of less-ic with ``constants`` through the
    pipeline's stages on a sparse 1e5 x 32 input with scores at gamma =
    0.25; None when the sparsity reaches m."""
    n, d = 100_000, 32
    spec = default_parameters(d, n, eps, delta, "less-ic", **constants)
    if spec.s >= spec.m:
        return None
    rng = np.random.default_rng(derive_seed(seed, 0xF1FE))
    A = scipy.sparse.random(n, d, density=0.003, random_state=11, format="csr")
    lift = scipy.sparse.csr_matrix(
        (rng.uniform(1.0, 2.0, d), (np.arange(d), np.arange(d))), shape=(n, d)
    )
    A = (A + lift).tocsr()
    R = _r_factor(A)
    good = 0
    for run in range(runs):
        scores = approx_leverage(A, 0.25, seed=derive_seed(seed, run))
        spec = default_parameters(d, n, eps, delta, "less-ic", scores=scores,
                                  seed=derive_seed(seed, 7000 + run), **constants)
        band = _validate_distortion(R, _apply(build(spec), A))
        good += 1 - eps <= band["s_min"] and band["s_max"] <= 1 + eps
    return spec, 1.0 - good / runs


def calibrate(trials=None, seed=None):
    """Rerun the calibration sweep of :mod:`subsketch.calibration`; returns
    (constants, rows), one row per measured surface point.

    Each constant is searched in ascending order, with the ones already
    selected fixed; a candidate whose anchor point has m >= n or a capped
    sparsity is skipped, and the first one keeping every point of its
    surfaces at or below delta/2 wins; every point and the selection are
    printed as they are measured.  trials and seed default to
    REFERENCE's; trials below 1 raise ParameterError.
    """
    trials = REFERENCE["trials"] if trials is None else trials
    seed = REFERENCE["seed"] if seed is None else seed
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    d, n, delta = REFERENCE["d"], REFERENCE["n"], REFERENCE["delta"]
    eps, *grid = REFERENCE["eps_grid"]  # the anchor eps, then the grid's others
    grid_n = 8192  # the eps sweep's n
    rows = []

    def passes(stage, kind, m, s, n, eps, sampler, frac):
        rows.append({"stage": stage, "kind": kind, "m": m, "s": s, "n": n, "eps": eps,
                     "sampler": sampler, "failure_fraction": frac})
        print(f"  {stage}: {kind} m={m} s={s} eps={eps} {sampler} -> {frac:.3f}")
        return frac <= delta / 2

    def point(stage, kind, m, s, n, eps, sampler, salt, trials=trials):
        frac = sweep_row(grid_spec(kind, m, s, n, d, eps, delta), d, eps, trials,
                         derive_seed(seed, salt), sampler)["failure_fraction"]
        return passes(stage, kind, m, s, n, eps, sampler, frac)

    def surfaces_pass(stage, kind, constants, salt):
        """The anchor on both samplers, then the eps grid on coordinate
        subspaces, or the pipeline surface for less-ic."""
        spec = default_parameters(d, n, eps, delta, kind, **constants)
        if spec.m >= n or spec.s >= spec.m and kind != "gaussian-dense":
            return False
        if not all(point(stage, kind, spec.m, spec.s, n, eps, sampler, salt + i)
                   for i, sampler in enumerate(("haar", "coordinate"))):
            return False
        if kind == "less-ic":
            found = _pipeline_failures(constants, eps, delta, seed)
            if found is None:
                return False
            spec, frac = found
            return passes(stage, "less-ic-pipeline", spec.m, spec.s, spec.n, eps,
                          "approx-scores", frac)
        for k, e in enumerate(grid):
            m, s, _ = eps_point(kind, d, grid_n, e, delta, **constants)
            if m >= grid_n or not point(stage, kind, m, s, grid_n, e, "coordinate",
                                        salt + 16 + k, trials=max(trials // 2, 20)):
                return False
        return True

    def search(kind, candidates, fallback):
        """The first (constants, stage, salt) candidate passing, else fallback."""
        for constants, stage, salt in candidates:
            if surfaces_pass(stage, kind, constants, salt):
                return constants
        return fallback

    c = search("gaussian-dense",
               [({"c_m": x}, f"c_m={x}", int(x * 64)) for x in _POW2 if x >= 1],
               {"c_m": 4.0})
    c = search("osnap", [(c | {"c_s": x}, f"c_s={x}", int(x * 1024)) for x in _POW2],
               c | {"c_s": 1.0})
    c = search("ose-ie", [(c | {"c_e": x}, f"c_e={x}", int(x * 4096)) for x in _POW2],
               c | {"c_e": 1.0})
    less = search("less-ic",
                  [({"c_m": a, "c_pm": b}, f"c_less=({a},{b})", int(a * 512 + b * 64))
                   for a in (0.25, 0.5, 1.0, 2.0) for b in (0.0625, 0.125, 0.25, 0.5, 1.0)],
                  {"c_m": 1.0, "c_pm": 0.25})
    constants = Constants(c_m_oblivious=c["c_m"], c_s_osnap=c["c_s"], c_e_oseie=c["c_e"],
                          c_m_less=less["c_m"], c_pm_less=less["c_pm"])
    print(f"selected: {constants}")
    return constants, rows
