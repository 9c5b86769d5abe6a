"""Calibration sweep implementation (see calibration.py for the protocol).

Candidates are tried in ascending order; a constant is selected when it
passes every reference surface tied to it:

* oblivious constants: the anchor configuration (d=16, n=4096, eps=0.5,
  both samplers) plus the eps-grid points (m = C_m d/eps^2, coordinate
  subspaces), which is where small-eps failures show up;
* score-adapted constants: the anchor plus a pipeline-shaped run
  (sparse 1e5 x 32 input, coarse scores at gamma=0.25), which exercises
  the single-nonzero-per-column regime that the anchor never reaches.

Pass threshold is delta/2 at each surface, leaving a two-fold margin over
the delta the acceptance experiments assert.
"""

import math
from dataclasses import replace

import numpy as np
import scipy.sparse

from .calibration import REFERENCE, Constants
from .experiments import grid_spec, sweep_row
from .kwise import derive_seed
from .less import less_dimension_target, less_sparsity_target
from .oblivious import (
    SketchSpec,
    build,
    default_parameters,
    independence_degree,
    oseie_sparsity_target,
    osnap_sparsity_target,
    round_parameters,
)

_POW2 = tuple(2.0**k for k in range(-6, 5))


def _grid_m(c_m, d, eps):
    return math.ceil(c_m * d / eps**2)


class _Sweep:
    def __init__(self, trials, seed, verbose):
        self.trials = trials
        self.seed = seed
        self.verbose = verbose
        self.rows = []
        self.d = REFERENCE["d"]
        self.n_anchor = REFERENCE["n"]
        self.delta = REFERENCE["delta"]
        self.eps_anchor = 0.5
        self.eps_grid = REFERENCE["eps_grid"]
        self.target = self.delta / 2.0

    def log(self, msg):
        if self.verbose:
            print(msg)

    def measure(self, label, kind, m, s, n, eps, sampler, salt, trials=None):
        frac = sweep_row(grid_spec(kind, m, s, n, self.d, eps, self.delta), self.d, eps,
                         trials or self.trials, derive_seed(self.seed, salt),
                         sampler)["failure_fraction"]
        self.rows.append(
            {"stage": label, "kind": kind, "m": m, "s": s, "n": n, "eps": eps,
             "sampler": sampler, "failure_fraction": frac}
        )
        self.log(f"  {label}: {kind} m={m} s={s} eps={eps} {sampler} -> {frac:.3f}")
        return frac

    def anchor_ok(self, label, kind, m, s, salt):
        return all(
            self.measure(label, kind, m, s, self.n_anchor, self.eps_anchor,
                         samp, salt + i) <= self.target
            for i, samp in enumerate(("haar", "coordinate"))
        )

    def grid_ok(self, label, kind, c_m, sparsity_of_eps, salt):
        n = 8192
        for k, eps in enumerate(e for e in self.eps_grid if e != self.eps_anchor):
            m, s = round_parameters(kind, _grid_m(c_m, self.d, eps), sparsity_of_eps(eps))
            if m >= n:
                return False
            frac = self.measure(label, kind, m, s, n, eps, "coordinate",
                                salt + 16 + k, trials=max(self.trials // 2, 20))
            if frac > self.target:
                return False
        return True


def _pipeline_surface_ok(sweep, c_m_less, c_pm_less, runs=25):
    """Criterion-12-shaped check: coarse scores, sparse 1e5 x 32 input."""
    from .leverage import approx_leverage
    from .apply import apply as _apply
    from .pipeline import _r_factor, _validate_distortion

    n, d, eps, delta, gamma = 100_000, 32, 0.5, 0.05, 0.25
    rng = np.random.default_rng(derive_seed(sweep.seed, 0xF1FE))
    A = scipy.sparse.random(n, d, density=0.003, random_state=11, format="csr")
    lift = scipy.sparse.csr_matrix(
        (rng.uniform(1.0, 2.0, d), (np.arange(d), np.arange(d))), shape=(n, d)
    )
    A = (A + lift).tocsr()
    m = math.ceil(less_dimension_target(d, eps, delta, c_m_less))
    pm = max(1, math.ceil(less_sparsity_target(d, eps, delta, c_pm_less)))
    if pm >= m:
        return False
    spec = SketchSpec(kind="less-ic", m=m, n=n, p=pm / m,
                      degree_k=independence_degree(d, eps, delta, pm))
    R = _r_factor(A)
    good = 0
    for run in range(runs):
        scores = approx_leverage(A, gamma, seed=derive_seed(sweep.seed, run))
        sketch = build(replace(spec, scores=scores,
                               seed=derive_seed(sweep.seed, 7000 + run)))
        band = _validate_distortion(R, _apply(sketch, A))
        good += 1 - eps <= band["s_min"] and band["s_max"] <= 1 + eps
    frac_bad = 1.0 - good / runs
    sweep.rows.append(
        {"stage": f"c_less=({c_m_less},{c_pm_less})", "kind": "less-ic-pipeline",
         "m": m, "s": pm, "n": n, "eps": eps, "sampler": "approx-scores",
         "failure_fraction": frac_bad}
    )
    sweep.log(f"  pipeline c_m_less={c_m_less} c_pm_less={c_pm_less} "
              f"m={m} pm={pm} -> fail {frac_bad:.3f}")
    return frac_bad <= sweep.target


def run(trials, seed, verbose=True):
    sw = _Sweep(trials, seed, verbose)
    d, delta = sw.d, sw.delta
    eps = sw.eps_anchor

    c_m = None
    for cand in _POW2:
        if cand < 1:
            continue
        m = default_parameters(d, sw.n_anchor, eps, delta, "gaussian-dense", c_m=cand).m
        if m >= sw.n_anchor:
            break
        ok = sw.anchor_ok(f"c_m={cand}", "gaussian-dense", m, m, int(cand * 64))
        ok = ok and sw.grid_ok(f"c_m={cand}", "gaussian-dense", cand,
                               lambda e, c=cand: _grid_m(c, d, e),
                               int(cand * 64))
        if ok:
            c_m = cand
            break
    c_m = c_m or 4.0

    m0 = default_parameters(d, sw.n_anchor, eps, delta, "gaussian-dense", c_m=c_m).m
    c_s = None
    for cand in _POW2:
        m, s = round_parameters("osnap", m0, osnap_sparsity_target(d, eps, delta, cand))
        if s >= m0:
            break
        ok = sw.anchor_ok(f"c_s={cand}", "osnap", m, s, int(cand * 1024))
        ok = ok and sw.grid_ok(f"c_s={cand}", "osnap", c_m,
                               lambda e, c=cand: osnap_sparsity_target(d, e, delta, c),
                               int(cand * 1024))
        if ok:
            c_s = cand
            break
    c_s = c_s or 1.0

    c_e = None
    for cand in _POW2:
        s = max(1, math.ceil(oseie_sparsity_target(d, eps, delta, c_s, cand)))
        if s >= m0:
            break
        ok = sw.anchor_ok(f"c_e={cand}", "ose-ie", m0, s, int(cand * 4096))
        ok = ok and sw.grid_ok(
            f"c_e={cand}", "ose-ie", c_m,
            lambda e, c=cand: oseie_sparsity_target(d, e, delta, c_s, c),
            int(cand * 4096),
        )
        if ok:
            c_e = cand
            break
    c_e = c_e or 1.0

    c_m_less = c_pm_less = None
    for cand_m in (0.25, 0.5, 1.0, 2.0):
        m = math.ceil(less_dimension_target(d, eps, delta, cand_m))
        if m >= sw.n_anchor:
            break
        found = False
        for cand_pm in (0.0625, 0.125, 0.25, 0.5, 1.0):
            pm = max(1, math.ceil(less_sparsity_target(d, eps, delta, cand_pm)))
            if pm >= m:
                break
            label = f"c_less=({cand_m},{cand_pm})"
            if not sw.anchor_ok(label, "less-ic", m, pm, int(cand_m * 512 + cand_pm * 64)):
                continue
            if _pipeline_surface_ok(sw, cand_m, cand_pm):
                c_m_less, c_pm_less = cand_m, cand_pm
                found = True
                break
        if found:
            break
    c_m_less = c_m_less or 1.0
    c_pm_less = c_pm_less or 0.25

    constants = Constants(
        c_m_oblivious=c_m,
        c_s_osnap=c_s,
        c_e_oseie=c_e,
        c_m_less=c_m_less,
        c_pm_less=c_pm_less,
    )
    sw.log(f"selected: {constants}")
    return constants, sw.rows
