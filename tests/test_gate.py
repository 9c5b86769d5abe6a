"""The scalar gate: every public entry point checks its numbers through
``errors.as_int`` and ``errors.as_real``.

A bool, a value of the wrong type, NaN, an infinity or a value out of
range raises ParameterError; a numpy scalar of a valid value passes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsketch import (
    IndependentFamily,
    KWiseFamily,
    LeverageScores,
    MomentProbe,
    ParameterError,
    PipelineConfig,
    SketchSpec,
    approx_leverage,
    coordinate_basis,
    decoupled_gamma_moment,
    default_parameters,
    derive_seed,
    embedding_trial,
    fast_subspace_embed,
    gaussian_reference,
    haar_basis,
    independence_degree,
    less_sparsity_target,
    oseie_sparsity_target,
    osnap_sparsity_target,
    spiked_basis,
    subcolumn_layout,
    trace_moment,
)
from subsketch.errors import as_int, as_real
from subsketch.experiments import builder, calibrate, nnz_sweep
from subsketch.oblivious import less_dimension_target, sparsity_target

A = np.random.default_rng(0).standard_normal((64, 3))  # tall and of full rank
U = np.eye(32)[:, :2]
BUILD = builder(SketchSpec.from_sparsity("osnap", m=8, n=32, s=2))
LESS = SketchSpec(kind="less-ic", m=8, p=0.25, scores=LeverageScores(z=np.full(64, 0.5)))


def sampler(rng):
    return haar_basis(32, 2, rng)


# each defect below once passed the entry point: it computed garbage or
# raised a bare TypeError
DEFECTS = {
    "default-parameters-d-2.5": lambda: default_parameters(2.5, 100, 0.5, 0.05, "osnap"),
    "default-parameters-d-true": lambda: default_parameters(True, 100, 0.5, 0.05, "osnap"),
    "default-parameters-eps-str": lambda: default_parameters(4, 100, "0.5", 0.05, "osnap"),
    "pipeline-seed-1.5": lambda: fast_subspace_embed(
        A, PipelineConfig(eps=0.5, delta=0.05, seed=1.5)),
    "pipeline-eps-str": lambda: PipelineConfig(eps="0.5", delta=0.05),
    "pipeline-delta-str": lambda: PipelineConfig(eps=0.5, delta="0.05"),
    "pipeline-gamma-str": lambda: PipelineConfig(eps=0.5, delta=0.05, gamma="0.25"),
    "pipeline-validate-str": lambda: PipelineConfig(eps=0.5, delta=0.05, validate="no"),
    "approx-leverage-seed-1.5": lambda: approx_leverage(A, 0.25, seed=1.5),
    "approx-leverage-gamma-str": lambda: approx_leverage(A, "0.25"),
    "trace-moment-q-1.5": lambda: trace_moment(BUILD, U, q=1.5, trials=1, seed=0),
    "trace-moment-q-true": lambda: trace_moment(BUILD, U, q=True, trials=1, seed=0),
    "trace-moment-trials-2.0": lambda: trace_moment(BUILD, U, q=1, trials=2.0, seed=0),
    "embedding-trial-trials-true": lambda: embedding_trial(BUILD, sampler, True, 0.5, 0),
    "scores-beta1-true": lambda: LeverageScores(z=[0.5], beta1=True),
    "scores-beta1-str": lambda: LeverageScores(z=[0.5], beta1="2"),
    "gaussian-reference-m-5.5": lambda: gaussian_reference(5.5, 2, 1.0),
    "haar-basis-d-above-n": lambda: haar_basis(4, 8, np.random.default_rng(0)),
}


@pytest.mark.parametrize("call", DEFECTS.values(), ids=DEFECTS.keys())
def test_defect_rejected(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("call", [
    lambda: SketchSpec(kind="rademacher-dense", m=16, n=10, p=0.25),
    lambda: PipelineConfig(eps=0.5, delta=0.05, kind="rademacher-dense"),
], ids=["spec", "pipeline"])
def test_rademacher_dense_is_no_kind(call):
    # the one dense baseline is the Gaussian, the paper's universality reference
    with pytest.raises(ParameterError, match="unknown .*kind 'rademacher-dense'"):
        call()


def test_gate_returns_python_scalars():
    assert type(as_int("k", np.uint16(3), 1)) is int
    assert as_real("p", np.float32(1.0), "(0, 1]") == 1.0
    assert type(as_real("t", 0, "[0, inf)")) is float


@pytest.mark.parametrize("value, interval", [
    (1.0, "(0, 1)"), (0, "(0, 1]"), (math.inf, "[1, inf)"), (10**400, "[1, inf)"),
    (math.nan, "(-inf, inf)"), (0.25j, "(0, 1)"), (np.bool_(True), "[0, 1]"),
])
def test_as_real_rejects(value, interval):
    with pytest.raises(ParameterError, match="x must be a real number in"):
        as_real("x", value, interval)


# what every argument takes: a count is an integer >= 1, a seed any
# integer, and the reals lie in an interval
_ANY_BAD = st.one_of(st.booleans(), st.text(max_size=3),
                     st.sampled_from([math.nan, math.inf, -math.inf, np.bool_(False)]))
_FLOATS = st.one_of(st.floats(), st.floats().map(np.float64))
BAD = {
    "count": st.one_of(_ANY_BAD, _FLOATS, st.integers(max_value=0),
                       st.integers(-2**62, 0).map(np.int64)),
    "seed": st.one_of(_ANY_BAD, _FLOATS),
    "unit": st.one_of(_ANY_BAD, st.floats(max_value=0), st.floats(min_value=1),
                      st.integers(max_value=0), st.integers(min_value=1)),
    "p": st.one_of(_ANY_BAD, st.floats(max_value=0), st.integers(max_value=0),
                   st.floats(min_value=1, exclude_min=True), st.integers(min_value=2)),
    "beta": st.one_of(_ANY_BAD, st.floats(max_value=1, exclude_max=True),
                      st.integers(max_value=0)),
    "nonneg": st.one_of(_ANY_BAD, st.floats(max_value=0, exclude_max=True),
                        st.integers(max_value=-1)),
    "real": _ANY_BAD,
    "index": st.one_of(_ANY_BAD, _FLOATS, st.integers(max_value=-1),  # into 64 columns
                       st.integers(min_value=64)),
}


# the formula helpers take d, eps and delta as default_parameters does; a
# dense kind's sparsity_target reads none of them, so only its own gate checks them
FORMULA = {"d": 2, "eps": 0.5, "delta": 0.25}
FORMULA_ARGS = [("d", "count", 2), ("eps", "unit", 0.5), ("delta", "unit", 0.25)]
BASIS_ARGS = [("n", "count", 8), ("d", "count", 2)]  # a basis sampler needs n >= d >= 1


def sample(sampler):
    """``sampler`` called with keywords, n = 8 and d = 2 unless given."""
    return lambda **kw: sampler(**({"n": 8, "d": 2} | kw), rng=np.random.default_rng(0))


def good(kind, base):
    """numpy scalars of the valid ``base``; a seed also takes any integer."""
    types = (np.int64, np.int32, np.uint16) if kind in ("count", "seed") else (
        np.float64, np.float32, np.float16)
    found = st.sampled_from(types).map(lambda t: t(base))
    if kind == "seed":
        found |= st.integers(-2**70, 2**70) | st.integers(-2**63, 2**63 - 1).map(np.int64)
    return found


# (entry point, call taking one keyword, argument, kind, valid base value;
# None: bad values only, as a valid one runs for seconds)
ENTRIES = [
    ("default_parameters", lambda **kw: default_parameters(
        **({"d": 2, "n": 64, "eps": 0.5, "delta": 0.25, "kind": "osnap"} | kw)),
     [("d", "count", 2), ("n", "count", 64), ("eps", "unit", 0.5), ("delta", "unit", 0.25),
      ("m", "count", 64), ("s", "count", 4), ("seed", "seed", 0)]),
    ("PipelineConfig", lambda **kw: PipelineConfig(**({"eps": 0.5, "delta": 0.25} | kw)),
     [("eps", "unit", 0.5), ("delta", "unit", 0.25), ("gamma", "unit", 0.25),
      ("m", "count", 64), ("pm", "count", 8)]),
    # a config's seed is checked where the pipeline derives its seeds from it
    ("fast_subspace_embed", lambda **kw: fast_subspace_embed(
        A, PipelineConfig(eps=0.5, delta=0.25, **kw)), [("seed", "seed", 0)]),
    ("approx_leverage", lambda **kw: approx_leverage(A, **({"gamma": 0.5} | kw)),
     [("gamma", "unit", 0.5), ("seed", "seed", 0)]),
    ("trace_moment", lambda **kw: trace_moment(
        BUILD, U, **({"q": 1, "trials": 1, "seed": 0} | kw)),
     [("q", "count", 1), ("trials", "count", 1), ("seed", "seed", 0)]),
    ("decoupled_gamma_moment", lambda **kw: decoupled_gamma_moment(
        BUILD, U, **({"q": 1, "trials": 1, "seed": 0} | kw)),
     [("q", "count", 1), ("trials", "count", 1), ("seed", "seed", 0)]),
    ("embedding_trial", lambda **kw: embedding_trial(
        BUILD, sampler, **({"trials": 1, "eps": 0.5, "seed": 0} | kw)),
     [("trials", "count", 1), ("eps", "nonneg", 0.5), ("seed", "seed", 0)]),
    ("MomentProbe", lambda **kw: MomentProbe(
        **({"q": 1, "trials": 1, "estimate": 0.5, "std_error": 0.0} | kw)),
     [("q", "count", 1), ("trials", "count", 1), ("estimate", "real", 0.5),
      ("std_error", "nonneg", 0.0)]),
    ("LeverageScores", lambda **kw: LeverageScores(z=[0.5], **kw),
     [("beta1", "beta", 2.0), ("beta2", "beta", 2.0)]),
    ("gaussian_reference", lambda **kw: gaussian_reference(**({"m": 5, "d": 2, "t": 1.0} | kw)),
     [("m", "count", 5), ("d", "count", 2), ("t", "nonneg", 1.0)]),
    ("SketchSpec", lambda **kw: SketchSpec(**({"kind": "osnap", "m": 8, "n": 4, "p": 0.25} | kw)),
     [("m", "count", 8), ("n", "count", 4), ("p", "p", 0.25), ("degree_k", "count", 8),
      ("seed", "seed", 0)]),
    ("KWiseFamily", lambda **kw: KWiseFamily(**({"seed": 0, "degree_k": 4} | kw)),
     [("seed", "seed", 0), ("degree_k", "count", 4)]),
    ("IndependentFamily", lambda **kw: IndependentFamily(**kw), [("seed", "seed", 0)]),
    ("derive_seed", lambda **kw: derive_seed(salt=3, **kw), [("seed", "seed", 0)]),
    ("nnz_sweep", lambda **kw: nnz_sweep(**({"d": 2, "n": 4, "seed": 0} | kw)),
     [("d", "count", 2)]),
    ("calibrate", lambda **kw: calibrate(**kw), [("trials", "count", None)]),
    ("independence_degree", lambda **kw: independence_degree(**(FORMULA | {"pm": 4} | kw)),
     FORMULA_ARGS + [("pm", "count", 4)]),
    ("osnap_sparsity_target", lambda **kw: osnap_sparsity_target(**(FORMULA | kw)), FORMULA_ARGS),
    ("oseie_sparsity_target", lambda **kw: oseie_sparsity_target(**(FORMULA | kw)), FORMULA_ARGS),
    ("less_dimension_target", lambda **kw: less_dimension_target(**(FORMULA | kw)), FORMULA_ARGS),
    ("less_sparsity_target", lambda **kw: less_sparsity_target(**(FORMULA | kw)), FORMULA_ARGS),
    ("sparsity_target", lambda **kw: sparsity_target(
        **(FORMULA | {"kind": "gaussian-dense", "m0": 64} | kw)), FORMULA_ARGS),
    # j indexes LESS's 64 columns; bad values only, as good() draws counts
    # and reals, not indices
    ("subcolumn_layout", lambda **kw: subcolumn_layout(LESS, **kw), [("j", "index", None)]),
    ("haar_basis", sample(haar_basis), BASIS_ARGS),
    ("coordinate_basis", sample(coordinate_basis), BASIS_ARGS),
    ("spiked_basis", sample(spiked_basis), BASIS_ARGS),
]
CASES = [(call, arg, kind, base) for _, call, args in ENTRIES for arg, kind, base in args]
IDS = [f"{name}-{arg}" for name, _, args in ENTRIES for arg, _, _ in args]


@pytest.mark.parametrize("call, arg, kind, base", CASES, ids=IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_gate_contract(call, arg, kind, base, data):
    # a bad value raises ParameterError (never TypeError, never a result);
    # a numpy scalar of a valid value passes
    if base is not None and data.draw(st.booleans(), label="valid"):
        call(**{arg: data.draw(good(kind, base), label=arg)})
        return
    value = data.draw(BAD[kind], label=arg)
    with pytest.raises(ParameterError):
        call(**{arg: value})
