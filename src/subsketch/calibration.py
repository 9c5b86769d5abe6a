"""Calibrated constants for the parameter-default formulas.

The embedding-dimension and sparsity bounds leave absolute constants
unspecified, so we fix them empirically, once, by the experiment below and
pin the result here.  The procedure (reproducible via
``subsketch bench --calibrate``):

* candidate constants restricted to powers of two, tried in ascending
  order; the first candidate passing every surface tied to it wins;
* oblivious constants are measured at the anchor configuration
  (d = 16, n = 4096, eps = 0.5, delta = 0.05, Haar-random AND coordinate
  subspaces) and along REFERENCE's eps grid (the eps sweep's) with
  m = C_m d/eps^2 on coordinate subspaces, the regime where small-eps
  failures of the i.i.d.-entry model appear;
* score-adapted constants are measured at the anchor and on a pipeline
  surface: ``fast_subspace_embed(validate=True)`` itself on a sparse
  1e5 x 32 input (scores from its leverage route, exact there), which
  exercises the single-nonzero-per-column regime the anchor never reaches;
* the pass threshold is a failure fraction of delta/2 at every surface,
  a two-fold margin over the delta the acceptance experiments assert.

The fields of :class:`Constants` are searched in turn -- c_m_oblivious on
the Gaussian baseline, c_s_osnap on osnap, c_e_oseie on ose-ie, then
(c_m_less, c_pm_less) pairs on less-ic -- each candidate the constants
selected so far with the searched fields replaced; a candidate whose
anchor point has m >= n or a sparsity capped at m is skipped.  Every point
takes its spec from :func:`subsketch.oblivious.default_parameters` with
``constants=`` the candidate: anchor points its defaults, eps-grid points
(the eps sweep's rule) a pinned m = ceil(C_m d/eps^2), and the pipeline
surface its m and pm, pinned in the run's PipelineConfig.

:func:`subsketch.experiments.calibrate` reruns the sweep and reports the
selected constants; the pinned values below are its output for the seed
recorded in REFERENCE.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Constants:
    c_m_oblivious: float  # m = ceil(c_m * (d + ln(1/delta)) / eps^2)
    c_s_osnap: float  # s = ceil(c_s * (L^2/eps + L^3)), L = ln(d/(eps*delta))
    c_e_oseie: float  # extra i.i.d. term c_e * L / eps^2
    c_m_less: float  # m = ceil(c_m * ((d + ln^2(d/delta))/eps^2 + ln^3(d/delta)/eps))
    c_pm_less: float  # pm = ceil(c_pm * max(L^2.5/eps, L^3))


CONSTANTS = Constants(
    c_m_oblivious=2.0,
    c_s_osnap=0.015625,
    c_e_oseie=0.5,
    c_m_less=0.25,
    c_pm_less=0.0625,
)

REFERENCE = {
    "d": 16,
    "n": 4096,
    "eps_grid": (0.5, 0.25, 0.125),
    "delta": 0.05,
    "trials": 100,
    "seed": 20240901,
}

