"""Score-adapted sketches: block layout, energy identity, sparsity bounds."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsketch import (
    CONSTANTS,
    LeverageScores,
    ParameterError,
    SketchSpec,
    build_less_ic,
    build_less_ie,
    build_osnap,
    column_sparsities,
    default_parameters,
    subcolumn_layout,
)
from subsketch.oblivious import KINDS, LESS_KINDS


def uniform_scores(n, z, beta1=1.0, beta2=None):
    return LeverageScores(z=np.full(n, z), beta1=beta1,
                          beta2=beta2 if beta2 is not None else beta1)


class TestSubcolumnLayout:
    def test_truncated_bottom_block(self):
        # m=70 with block height 15: five blocks, the last cut to width 10
        p = 0.2
        z = 1.0 / (15.5 * p)  # floor(1/(p z)) = 15
        spec = SketchSpec(kind="less-ic", m=70, p=p, scores=uniform_scores(3, z), seed=0)
        layout = subcolumn_layout(spec, 0)
        bounds = [(lo, hi) for lo, hi, _ in layout]
        assert bounds == [(1, 15), (16, 30), (31, 45), (46, 60), (61, 70)]
        alphas = [a for _, _, a in layout]
        np.testing.assert_allclose(alphas[:4], math.sqrt(15 * p))
        np.testing.assert_allclose(alphas[4], math.sqrt(10 * p))

    def test_tiny_score_single_block(self):
        spec = SketchSpec(kind="less-ic", m=50, p=0.1, scores=uniform_scores(2, 1e-6), seed=0)
        layout = subcolumn_layout(spec, 0)
        assert layout == [(1, 50, pytest.approx(math.sqrt(0.1 * 50)))]

    def test_saturated_score_densest_column(self):
        # beta1 * p * z >= 1 forces unit blocks
        spec = SketchSpec(kind="less-ic", m=12, p=0.5, scores=uniform_scores(2, 1.0, beta1=2.0),
                          seed=0)
        layout = subcolumn_layout(spec, 0)
        assert len(layout) == 12
        assert all(lo == hi for lo, hi, _ in layout)
        np.testing.assert_allclose([a for _, _, a in layout], math.sqrt(0.5))

    def test_blocks_partition_rows(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            m = int(rng.integers(3, 200))
            z = float(rng.uniform(1e-6, 1.0))
            p = float(rng.uniform(0.05, 0.95))
            spec = SketchSpec(kind="less-ic", m=m, p=p, scores=uniform_scores(1, z), seed=trial)
            layout = subcolumn_layout(spec, 0)
            covered = []
            for lo, hi, _ in layout:
                covered.extend(range(lo, hi + 1))
            assert covered == list(range(1, m + 1))

    def test_energy_identity_per_layout(self):
        spec = SketchSpec(kind="less-ic", m=70, p=0.2, scores=uniform_scores(1, 0.3), seed=0)
        alphas = np.array([a for _, _, a in subcolumn_layout(spec, 0)])
        assert abs((alphas**2).sum() - 0.2 * 70) < 1e-12 * 14

    def test_column_index_range(self):
        spec = SketchSpec(kind="less-ic", m=10, p=0.5, scores=uniform_scores(4, 0.5), seed=0)
        with pytest.raises(ParameterError):
            subcolumn_layout(spec, 4)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 400),
    z=st.floats(1e-9, 1.0),
    p=st.floats(0.01, 0.999),
    beta1=st.floats(1.0, 50.0),
)
def test_blocks_always_partition(m, z, p, beta1):
    spec = SketchSpec(kind="less-ic", m=m, p=p, scores=uniform_scores(1, z, beta1=beta1), seed=0)
    layout = subcolumn_layout(spec, 0)
    expect = 1
    total_energy = 0.0
    for lo, hi, alpha in layout:
        assert lo == expect and hi >= lo
        expect = hi + 1
        total_energy += alpha**2
    assert expect == m + 1
    assert total_energy == pytest.approx(p * m, rel=1e-12)


class TestBuildLessIc:
    def test_tiny_scores_one_nonzero_per_column(self):
        n = 37
        spec = SketchSpec(kind="less-ic", m=64, p=0.25, scores=uniform_scores(n, 1e-9), seed=3)
        sk = build_less_ic(spec)
        assert sk.nnz == n
        np.testing.assert_allclose(np.abs(sk.values), math.sqrt(0.25 * 64))

    def test_column_energy_pm(self):
        rng = np.random.default_rng(4)
        z = np.clip(rng.uniform(0, 1, 40), 1e-4, 1.0)
        spec = SketchSpec(kind="less-ic", m=128, p=0.125, scores=LeverageScores(z=z), seed=5)
        sk = build_less_ic(spec)
        np.testing.assert_allclose(sk.column_energy(), 16.0, rtol=1e-12)

    def test_nnz_bound(self):
        rng = np.random.default_rng(6)
        d = 8
        z = np.clip(rng.dirichlet(np.ones(64)) * d, 0.0, 1.0)
        scores = LeverageScores(z=z, beta1=1.0, beta2=1.0)
        spec = SketchSpec(kind="less-ic", m=128, p=0.125, scores=scores, seed=7)
        sk = build_less_ic(spec)
        assert sk.nnz <= 64 + 4 * 1 * 1 * 16 * d

    def test_monotone_adaptivity(self):
        z = np.array([1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0])
        spec = SketchSpec(kind="less-ic", m=256, p=0.25, scores=LeverageScores(z=z), seed=8)
        s_cols = column_sparsities(spec)
        assert np.all(np.diff(s_cols) >= 0)

    def test_rows_within_blocks_and_increasing(self):
        z = np.array([0.02, 0.4, 0.9])
        spec = SketchSpec(kind="less-ic", m=70, p=0.2, scores=LeverageScores(z=z), seed=9)
        sk = build_less_ic(spec)
        for j in range(3):
            rows = sk.rows[sk.indptr[j]:sk.indptr[j + 1]] + 1  # 1-based
            layout = subcolumn_layout(spec, j)
            assert len(rows) == len(layout)
            assert np.all(np.diff(rows) > 0)
            for r, (lo, hi, _) in zip(rows, layout):
                assert lo <= r <= hi

    def test_determinism(self):
        spec = SketchSpec(kind="less-ic", m=64, p=0.25, scores=uniform_scores(10, 0.3), seed=11)
        a, b = build_less_ic(spec), build_less_ic(spec)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("columns", [None, [1, 4, 5, 11]])
    def test_osnap_heights_give_the_osnap_sketch(self, columns):
        # beta1*z = 1 makes every block height m/s: the two kinds share one sampler
        m, n, p = 48, 12, 0.125
        less = build_less_ic(SketchSpec(kind="less-ic", m=m, p=p, scores=uniform_scores(n, 1.0),
                                        degree_k=8, seed=21), columns=columns)
        osnap = build_osnap(SketchSpec(kind="osnap", m=m, n=n, p=p, degree_k=8, seed=21),
                            columns=columns)
        assert np.array_equal(less.indptr, osnap.indptr)
        assert np.array_equal(less.rows, osnap.rows)
        assert np.array_equal(less.values, osnap.values)  # sqrt(p*m/s) = 1 exactly here

    def test_p_one_rejected_with_dense_hint(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = SketchSpec(kind="less-ic", m=8, p=1.0, scores=uniform_scores(4, 0.5), seed=0)
        with pytest.raises(ParameterError, match="dense"):
            build_less_ic(spec)

    def test_pm_below_one_rejected(self):
        spec = SketchSpec(kind="less-ic", m=8, p=0.05, scores=uniform_scores(4, 0.5), seed=0)
        with pytest.raises(ParameterError):
            build_less_ic(spec)


class TestBuildLessIe:
    def test_uniform_scores_reduce_to_iid_shape(self):
        # z_j = 1/beta1: keep-probability p, magnitude exactly 1
        scores = uniform_scores(30, 0.5, beta1=2.0)
        sk = build_less_ie(SketchSpec(kind="less-ie", m=40, p=0.3, scores=scores, seed=1))
        assert np.all(np.abs(sk.values) == 1.0)
        frac = sk.nnz / (40 * 30)
        assert abs(frac - 0.3) <= 4 * math.sqrt(0.3 * 0.7 / (40 * 30))

    def test_zero_score_empty_column(self):
        z = np.array([0.5, 0.0, 0.5])
        sk = build_less_ie(SketchSpec(kind="less-ie", m=30, p=0.9, scores=LeverageScores(z=z),
                                       seed=2))
        assert sk.indptr[2] == sk.indptr[1]

    def test_clamped_probability_warns(self):
        scores = uniform_scores(4, 1.0, beta1=3.0)
        with pytest.warns(UserWarning, match="clamped"):
            sk = build_less_ie(SketchSpec(kind="less-ie", m=16, p=0.9, scores=scores, seed=3))
        # clamped columns are fully dense
        assert sk.nnz == 4 * 16

    def test_family_defaults_to_independent(self):
        # the kind fixes the model: K-wise hashing only for the blocked kinds
        scores = uniform_scores(4, 0.5)
        want = {"osnap": "kwise", "less-ic": "kwise", "ose-ie": "independent",
                "less-ie": "independent", "gaussian-dense": "independent"}
        assert set(want) == set(KINDS)
        for kind, family in want.items():
            fields = dict(scores=scores) if kind in LESS_KINDS else dict(n=4)
            assert SketchSpec(kind=kind, m=8, p=0.5, **fields).family == family
        with pytest.raises(TypeError):
            SketchSpec(kind="less-ie", m=8, p=0.5, scores=scores, family="kwise")

    def test_independent_build_does_no_grid_work(self):
        # n = 16384, m = 1000, p = 0.02, z = 32/n keeps ~650 of 1.6e7 cells;
        # a scan of the m*n grid needs hundreds of MB
        import tracemalloc

        n = 16384
        spec = SketchSpec(kind="less-ie", m=1000, p=0.02, scores=uniform_scores(n, 32 / n),
                          seed=4)
        tracemalloc.start()
        try:
            sk = build_less_ie(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(sk.nnz - 640) <= 5 * math.sqrt(640)
        assert peak < 16 * 2**20

    def test_entry_variance_is_p(self):
        rng = np.random.default_rng(10)
        z = np.clip(rng.uniform(0.05, 1.0, 12), 0.0, 1.0)
        scores = LeverageScores(z=z, beta1=1.0, beta2=1.0)
        p, m, reps = 0.4, 10, 4000
        acc = 0.0
        count = 0
        for t in range(reps):
            sk = build_less_ie(SketchSpec(kind="less-ie", m=m, p=p, scores=scores,
                                           seed=100 + t))
            dense = sk.materialize() / sk.scale
            acc += (dense**2).sum()
            count += dense.size
        var = acc / count
        assert abs(var - p) <= 4 * math.sqrt(2 * p / count) + 4 * p / math.sqrt(reps)


class TestLessDefaults:
    def test_pm_grows_linearly_in_inverse_eps(self):
        scores = uniform_scores(512, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = default_parameters(16, 512, 0.5, 0.05, "less-ic", scores=scores)
            b = default_parameters(16, 512, 0.25, 0.05, "less-ic", scores=scores)
        ra = round(a.p * a.m)
        rb = round(b.p * b.m)
        assert 1.4 <= rb / ra <= 2.6

    def test_small_delta_m_dominated_by_d_term(self):
        scores = uniform_scores(10**6, 1e-4)
        d = 64
        spec = default_parameters(d, 10**6, 0.5, d**-2.0, "less-ic", scores=scores,
                                  constants=replace(CONSTANTS, c_m_less=1.0))
        Ld = math.log(d / d**-2.0)
        main = (d + Ld**2) / 0.25
        assert spec.m <= 2 * math.ceil(main + Ld**3 / 0.5)
        assert spec.m >= main  # the d/eps^2 bulk is there

    def test_pm_capped_at_m(self):
        scores = uniform_scores(256, 0.1)
        # the capped less-ic spec has p = 1, which the spec warns about too
        with pytest.warns(UserWarning, match="capping"), \
                pytest.warns(UserWarning, match="p = 1 spec"):
            spec = default_parameters(2, 256, 0.04, 0.9, "less-ic", scores=scores,
                                      constants=replace(CONSTANTS, c_m_less=0.0001,
                                                        c_pm_less=64.0))
        assert round(spec.p * spec.m) == spec.m

    def test_invalid_eps_delta(self):
        scores = uniform_scores(8, 0.5)
        with pytest.raises(ParameterError):
            default_parameters(4, 8, 0.0, 0.5, "less-ic", scores=scores)
