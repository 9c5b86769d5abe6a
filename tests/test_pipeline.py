"""End-to-end pipeline: stages, report accounting, distortion validation."""

import numpy as np
import pytest
import scipy.sparse

from subsketch import (
    Overrides,
    ParameterError,
    PipelineConfig,
    fast_subspace_embed,
)


@pytest.fixture(scope="module")
def sparse_tall():
    rng = np.random.default_rng(0)
    A = scipy.sparse.random(20_000, 16, density=0.01, random_state=1, format="csr")
    # guarantee full column rank
    lift = scipy.sparse.csr_matrix(
        (rng.uniform(1, 2, 16), (np.arange(16), np.arange(16))), shape=(20_000, 16)
    )
    return (A + lift).tocsr()


class TestConfig:
    def test_bounds(self):
        with pytest.raises(ParameterError):
            PipelineConfig(eps=0.0, delta=0.1)
        with pytest.raises(ParameterError):
            PipelineConfig(eps=0.5, delta=0.1, gamma=1.0)
        with pytest.raises(ParameterError):
            PipelineConfig(eps=0.5, delta=0.1, kind="hadamard")


class TestFastSubspaceEmbed:
    def test_less_ic_run_and_report(self, sparse_tall):
        config = PipelineConfig(eps=0.5, delta=0.05, gamma=0.25, seed=3,
                                kind="less-ic", validate=True)
        A_tilde, report = fast_subspace_embed(sparse_tall, config)
        assert A_tilde.shape == (report.m, 16)
        assert report.nnz_sketch <= report.nnz_bound
        assert set(report.timings) == {"leverage", "parameters", "build",
                                       "apply", "validate"}
        assert report.distortion is not None
        assert 1 - 0.5 <= report.distortion["s_min"]
        assert report.distortion["s_max"] <= 1 + 0.5

    def test_stage_timings_sum_to_total(self, sparse_tall):
        config = PipelineConfig(eps=0.5, delta=0.05, seed=4, kind="less-ic")
        _, report = fast_subspace_embed(sparse_tall, config)
        assert sum(report.timings.values()) <= report.total_seconds
        assert sum(report.timings.values()) >= 0.95 * report.total_seconds

    def test_oblivious_path_skips_leverage(self, sparse_tall):
        config = PipelineConfig(eps=0.5, delta=0.05, seed=5, kind="gaussian-dense")
        _, report = fast_subspace_embed(sparse_tall, config)
        assert "leverage" not in report.timings
        assert report.nnz_bound is None

    def test_regime_flag_reported(self, sparse_tall):
        config = PipelineConfig(eps=0.5, delta=0.05, seed=10, kind="less-ic")
        _, report = fast_subspace_embed(sparse_tall, config)
        assert report.to_dict()["sublinear_term_dominates"] in (True, False)

    def test_osnap_kind(self, sparse_tall):
        config = PipelineConfig(eps=0.5, delta=0.05, seed=6, kind="osnap",
                                validate=True)
        A_tilde, report = fast_subspace_embed(sparse_tall, config)
        assert report.distortion["s_max"] <= 1.5
        assert report.distortion["s_min"] >= 0.5

    def test_less_ie_kind(self, sparse_tall):
        config = PipelineConfig(eps=0.5, delta=0.05, seed=11, kind="less-ie",
                                validate=True)
        _, report = fast_subspace_embed(sparse_tall, config)
        assert report.distortion["s_max"] <= 1.5
        assert report.distortion["s_min"] >= 0.5

    def test_overrides(self, sparse_tall):
        config = PipelineConfig(eps=0.5, delta=0.05, seed=7, kind="less-ic",
                                overrides=Overrides(m=512, pm=64))
        A_tilde, report = fast_subspace_embed(sparse_tall, config)
        assert report.m == 512
        assert report.pm == pytest.approx(64)

    @pytest.mark.parametrize("name", ["m", "pm"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_out_of_range_override_rejected(self, name, value):
        # a zero override once fell back to the default without a word
        with pytest.raises(ParameterError, match=name):
            Overrides(**{name: value})

    def test_determinism(self, sparse_tall):
        config = PipelineConfig(eps=0.5, delta=0.05, seed=8, kind="less-ic")
        a, _ = fast_subspace_embed(sparse_tall, config)
        b, _ = fast_subspace_embed(sparse_tall, config)
        np.testing.assert_array_equal(a, b)

    def test_rank_deficient_reported(self):
        A = np.zeros((500, 4))
        A[:, 0] = 1.0
        A[:, 1] = 2.0
        config = PipelineConfig(eps=0.5, delta=0.05, seed=9, kind="less-ic")
        from subsketch import RankDeficiencyError

        with pytest.raises(RankDeficiencyError):
            fast_subspace_embed(A, config)

    def test_wide_input_rejected(self):
        config = PipelineConfig(eps=0.5, delta=0.05, kind="less-ic")
        with pytest.raises(ParameterError):
            fast_subspace_embed(np.ones((4, 8)), config)


@pytest.mark.parametrize("kind", ["less-ic", "less-ie", "osnap"])
def test_overrides_reach_the_built_sketch(sparse_tall, monkeypatch, kind):
    import subsketch.less
    import subsketch.oblivious

    module = subsketch.oblivious if kind == "osnap" else subsketch.less
    name = f"build_{kind.replace('-', '_')}"
    built = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(module, name, recording)
    # the pipeline may also hold its own reference to the builder
    monkeypatch.setattr(subsketch.pipeline, name, recording, raising=False)
    config = PipelineConfig(eps=0.5, delta=0.05, seed=12, kind=kind,
                            overrides=Overrides(m=256, pm=32))
    _, report = fast_subspace_embed(sparse_tall, config)
    assert len(built) == 1
    assert (built[0].m, built[0].spec.s, report.m) == (256, 32, 256)
