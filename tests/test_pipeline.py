"""End-to-end pipeline: stages, report accounting, distortion validation."""

import warnings

import numpy as np
import pytest
import scipy.sparse

from subsketch import (
    CONSTANTS,
    ParameterError,
    PipelineConfig,
    approx_leverage,
    exact_leverage,
    fast_subspace_embed,
    validate_scores,
)
from subsketch import experiments, pipeline


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

    @pytest.mark.parametrize("kind, seed, band", [
        # (s_min, s_max) as the validate stage gave them from a QR of all n rows;
        # less-ic's re-recorded when its claimed beta1 grew (a denser sketch),
        # and again when the op took exact scores (beta1 ~ 1, a sparser sketch)
        ("less-ic", 3, (0.630097752951276, 1.3299712765790586)),
        ("osnap", 6, (0.716166935869433, 1.29130396814395)),
    ])
    def test_validate_band_from_touched_rows(self, sparse_tall, kind, seed, band):
        config = PipelineConfig(eps=0.5, delta=0.05, seed=seed, kind=kind, validate=True)
        _, report = fast_subspace_embed(sparse_tall, config)
        got = (report.distortion["s_min"], report.distortion["s_max"])
        np.testing.assert_allclose(got, band, rtol=0, atol=1e-12)

    def test_validate_band_with_fewer_rows_than_d(self):
        # an 8-row sketch of a rank-16 A has a kernel; the band once read 0.354
        A = np.random.default_rng(1).standard_normal((2000, 16))
        config = PipelineConfig(eps=0.5, delta=0.05, m=8, pm=2, kind="osnap", validate=True)
        _, report = fast_subspace_embed(A, config)
        assert report.distortion["s_min"] == 0.0

    @pytest.mark.parametrize("kind", ["less-ic", "less-ie"])
    @pytest.mark.parametrize("dense", [False, True])
    def test_measured_beta1_is_the_exact_ratio(self, kind, dense, embed_shaped, monkeypatch):
        # max l_i / z_i over the rows with l_i > 0, from the validate stage's R;
        # the scores are taken where the sketch is built from them, on either route
        A = embed_shaped(dense, 4)
        got = []
        for name in ("build", "build_less_ic"):
            def keeping(spec, _orig=getattr(pipeline, name), **kwargs):
                got.append(spec.scores)
                return _orig(spec, **kwargs)

            monkeypatch.setattr(pipeline, name, keeping)
        config = PipelineConfig(eps=0.5, delta=0.05, seed=2, kind=kind, validate=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the less-ie clamp warning
            _, report = fast_subspace_embed(A, config)
        exact = exact_leverage(A).z
        pos = exact > 0
        want = float(np.max(exact[pos] / got[0].z[pos]))
        assert report.to_dict()["beta1_measured"] == pytest.approx(want, rel=1e-9, abs=0)
        assert 1.0 <= report.beta1_measured <= report.beta1 == got[0].beta1

    @pytest.mark.parametrize("dense", [False, True])
    def test_no_svd_of_the_nonzero_rows(self, dense, embed_shaped, monkeypatch):
        # A's rows are factored by one QR; an SVD sees only its R and the m x d band matrix
        A = embed_shaped(dense, 5)
        d = A.shape[1]
        r = A.shape[0] if dense else np.count_nonzero(np.diff(A.indptr))  # nonzero rows
        shapes = []

        def recording(X, *args, _orig=np.linalg.svd, **kwargs):
            shapes.append(np.shape(X))
            return _orig(X, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        exact_leverage(A)
        validate_scores(A, approx_leverage(A, 0.25))
        assert set(shapes) == {(d, d)}
        for kind in ("less-ic", "osnap"):
            shapes.clear()
            config = PipelineConfig(eps=0.5, delta=0.05, seed=1, kind=kind, validate=True)
            _, report = fast_subspace_embed(A, config)
            assert set(shapes) == {(d, d), (report.m, d)}
            assert all(shape[0] != r for shape in shapes)

    @pytest.mark.parametrize("validate", [False, True])
    def test_measured_beta1_only_for_validated_less_kinds(self, sparse_tall, validate):
        for kind in ("osnap", "less-ic"):
            config = PipelineConfig(eps=0.5, delta=0.05, seed=2, kind=kind, validate=validate)
            _, report = fast_subspace_embed(sparse_tall, config)
            has = validate and kind == "less-ic"
            assert ("beta1_measured" in report.to_dict()) == has

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
                                m=512, pm=64)
        A_tilde, report = fast_subspace_embed(sparse_tall, config)
        assert report.m == 512
        assert report.pm == pytest.approx(64)

    @pytest.mark.parametrize("name", ["m", "pm"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "7"])
    def test_out_of_range_override_rejected(self, name, value):
        # a zero override once fell back to the default without a word; a
        # non-integer one constructed (or raised TypeError) until run time
        with pytest.raises(ParameterError, match=name):
            PipelineConfig(eps=0.5, delta=0.05, **{name: value})

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

    @pytest.mark.parametrize("kind", ["less-ic", "osnap", "gaussian-dense"])
    def test_validate_names_the_rank(self, kind):
        # the oblivious kinds used to raise a plain ParameterError without a rank
        from subsketch import RankDeficiencyError

        B = np.random.default_rng(3).standard_normal((500, 3))
        A = np.hstack([B, B[:, :1] + B[:, 1:2]])  # rank 3, d = 4
        config = PipelineConfig(eps=0.5, delta=0.05, seed=9, kind=kind, validate=True)
        with pytest.raises(RankDeficiencyError) as err:
            fast_subspace_embed(A, config)
        assert err.value.numerical_rank == 3

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
                            m=256, pm=32)
    _, report = fast_subspace_embed(sparse_tall, config)
    assert len(built) == 1
    assert (built[0].m, built[0].spec.s, report.m) == (256, 32, 256)


def test_calibration_surface_runs_the_pipeline(monkeypatch):
    # the calibration's pipeline surface once hand-rolled the stages
    calls = []

    def counting(A, config):
        calls.append(config)
        return fast_subspace_embed(A, config)

    monkeypatch.setattr(experiments, "fast_subspace_embed", counting)
    monkeypatch.setattr(experiments, "_PIPELINE_RUNS", 3)
    spec, frac = experiments._pipeline_failures(CONSTANTS, 0.5, 0.05, 1)
    want = ("less-ic", spec.m, spec.s, True)
    assert [(c.kind, c.m, c.pm, c.validate) for c in calls] == [want] * 3
    assert frac == 0.0


@pytest.mark.parametrize("kind", ["less-ic", "osnap"])
def test_report_counts_nonzeros_in_every_storage(kind):
    # a dense A, its CSR, CSC and COO copies and CSR with two stored zeros
    # embed to the same bytes; the report counts nonzeros, not stored entries
    A = np.random.default_rng(0).standard_normal((400, 8))
    A[::3] = 0.0
    csr = scipy.sparse.csr_matrix(A)
    coo = csr.tocoo()
    stored_zeros = scipy.sparse.csr_matrix(
        (np.append(coo.data, [0.0, 0.0]),
         (np.append(coo.row, [3, 3]), np.append(coo.col, [0, 1]))), shape=A.shape)
    assert stored_zeros.nnz == np.count_nonzero(A) + 2 == 2130
    config = PipelineConfig(eps=0.5, delta=0.05, seed=3, kind=kind)
    runs = [fast_subspace_embed(X, config) for X in (A, csr, csr.tocsc(), coo, stored_zeros)]
    # beta2 is left out: a dense and a sparse A's scores may differ in their last bits
    fields = [(r.nnz_input, r.nnz_sketch, r.m, r.pm, r.sublinear_term_dominates, out.tobytes())
              for out, r in runs]
    assert fields == [fields[0]] * 5
    assert fields[0][0] == 2128


def _rule_input(name):
    """The embed benchmark's inputs (dense 2^14 x 64; 2^18 x 32 with ~3.4k
    random nonzeros plus a diagonal) and a taller dense 2^17 x 64."""
    rng = np.random.default_rng(1)
    if name == "embed-sparse":
        n, d = 1 << 18, 32
        A = scipy.sparse.random(n, d, density=3400 / (n * d), random_state=rng, format="csr")
        return (A + scipy.sparse.csr_matrix(
            (rng.uniform(1, 2, d), (np.arange(d), np.arange(d))), shape=(n, d))).tocsr()
    return rng.standard_normal((1 << 14 if name == "embed-dense" else 1 << 17, 64))


@pytest.mark.parametrize("name, route", [("embed-dense", "exact"), ("embed-sparse", "exact"),
                                         ("dense-2^17x64", "estimate")])
def test_rule_picks_the_route(name, route, monkeypatch):
    # exact scores cost r d (d - k) more multiply-adds than the estimate; the
    # entries the estimate's larger beta1 adds cost more on the embed inputs, and
    # less than the product with R^-1 on the taller input, where most columns
    # hold one entry on either route
    calls = []
    for attr in ("_exact", "approx_leverage"):
        def counting(*args, _orig=getattr(pipeline, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(pipeline, attr, counting)
    _, report = fast_subspace_embed(_rule_input(name), PipelineConfig(eps=0.5, delta=0.05, seed=1))
    assert calls == ["_exact" if route == "exact" else "approx_leverage"]
    assert report.to_dict()["leverage_route"] == route


@pytest.mark.parametrize("kind", ["less-ic", "less-ie"])
@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("exact", [False, True], ids=["estimate", "exact"])
def test_claims_hold_on_both_routes(kind, dense, exact, embed_shaped, monkeypatch):
    monkeypatch.setattr(pipeline, "_exact_pays", lambda *args: exact)
    config = PipelineConfig(eps=0.5, delta=0.05, seed=3, kind=kind, validate=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the less-ie clamp warning
        _, report = fast_subspace_embed(embed_shaped(dense, 6), config)
    assert report.leverage_route == ("exact" if exact else "estimate")
    assert 1.0 <= report.beta1_measured <= report.beta1
    assert report.nnz_sketch <= report.nnz_bound
    # the exact route's claim is (1 + eps_lev)^2 times its rounding factor
    assert (report.beta1 < 1.0 + 1e-8) == exact
