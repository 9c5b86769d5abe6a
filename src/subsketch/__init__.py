"""subsketch: sparse subspace embeddings with K-wise independent randomness.

Sketch constructions (blocked one-hot columns, i.i.d. entries, a dense
Gaussian baseline, and leverage-score-adapted variants), exact and approximate
leverage scores, input-sparsity-time application, and a diagnostics suite
that measures distortion and checks exact moment identities.
"""

__version__ = "0.1.0"

from .errors import FormatError, ParameterError, RankDeficiencyError
from .kwise import (
    M61,
    IndependentFamily,
    KWiseFamily,
    derive_seed,
)
from .sketch import DenseSketch, SparseSketch, load_sketch
from .oblivious import (
    SketchSpec,
    build,
    build_dense_baseline,
    build_ose_ie,
    build_osnap,
    default_parameters,
    independence_degree,
    less_sparsity_target,
    oseie_sparsity_target,
    osnap_sparsity_target,
)
from .leverage import (
    LeverageScores,
    ScoreValidation,
    approx_leverage,
    exact_leverage,
    validate_scores,
)
from .less import (
    build_less_ic,
    build_less_ie,
    column_sparsities,
    subcolumn_layout,
)
from .apply import apply, load_matrix, save_matrix, touched_rows
from .diagnostics import (
    DistortionReport,
    MomentProbe,
    TrialSummary,
    coordinate_basis,
    decoupled_gamma_moment,
    diagonal_offdiagonal_split,
    distortion,
    embedding_trial,
    gaussian_reference,
    haar_basis,
    spiked_basis,
    trace_moment,
)
from .pipeline import PipelineConfig, PipelineReport, fast_subspace_embed
from .calibration import CONSTANTS

__all__ = [
    "M61",
    "KWiseFamily",
    "IndependentFamily",
    "derive_seed",
    "SketchSpec",
    "SparseSketch",
    "DenseSketch",
    "load_sketch",
    "build",
    "build_osnap",
    "build_ose_ie",
    "build_dense_baseline",
    "default_parameters",
    "independence_degree",
    "osnap_sparsity_target",
    "oseie_sparsity_target",
    "less_sparsity_target",
    "LeverageScores",
    "ScoreValidation",
    "exact_leverage",
    "approx_leverage",
    "validate_scores",
    "column_sparsities",
    "subcolumn_layout",
    "build_less_ic",
    "build_less_ie",
    "apply",
    "load_matrix",
    "save_matrix",
    "touched_rows",
    "DistortionReport",
    "MomentProbe",
    "TrialSummary",
    "distortion",
    "embedding_trial",
    "trace_moment",
    "decoupled_gamma_moment",
    "diagonal_offdiagonal_split",
    "gaussian_reference",
    "haar_basis",
    "coordinate_basis",
    "spiked_basis",
    "PipelineConfig",
    "PipelineReport",
    "fast_subspace_embed",
    "CONSTANTS",
    "ParameterError",
    "RankDeficiencyError",
    "FormatError",
]
