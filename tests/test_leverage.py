"""Leverage scores: exact identities, approximation guarantees, validation."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from subsketch import (
    FormatError,
    LeverageScores,
    ParameterError,
    RankDeficiencyError,
    approx_leverage,
    exact_leverage,
    touched_rows,
    validate_scores,
)
from subsketch import leverage, oblivious
from subsketch.leverage import (
    _DELTA_LEV,
    _DIRECT,
    _EPS_LEV,
    _SAFETY,
    _chi2_lower_level,
    _sketch_r_factor,
    _sketch_rows,
)


class TestExactScores:
    def test_coordinate_subspace(self):
        n, d = 12, 4
        A = np.eye(n)[:, :d]
        scores = exact_leverage(A)
        np.testing.assert_allclose(scores.z[:d], 1.0, atol=1e-12)
        np.testing.assert_allclose(scores.z[d:], 0.0, atol=1e-12)
        assert scores.beta1 == scores.beta2 == 1.0

    def test_orthonormal_input_row_norms(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 6)))
        scores = exact_leverage(Q)
        np.testing.assert_allclose(scores.z, np.sum(Q**2, axis=1), atol=1e-12)

    def test_sum_is_d(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((100, 5))
        scores = exact_leverage(A)
        assert abs(scores.z.sum() - 5) < 1e-10

    def test_invariance_under_right_multiplication(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((80, 7))
        base = exact_leverage(A).z
        for trial in range(5):
            C = rng.standard_normal((7, 7))
            while abs(np.linalg.det(C)) < 1e-3:
                C = rng.standard_normal((7, 7))
            z = exact_leverage(A @ C).z
            np.testing.assert_allclose(z, base, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("caller", ["exact_leverage", "approx-direct", "approx-sketch"])
    def test_rank_deficiency_names_rank(self, caller, osnap_builds):
        # one rank test for every caller; the sketch route's input is a taller copy
        n = 5000 if caller == "approx-sketch" else 50
        B = np.random.default_rng(3).standard_normal((n, 3))
        A = np.hstack([B, B[:, :1] + B[:, 1:2]])  # rank 3, d = 4
        assert (n > _DIRECT * _sketch_rows(4, n)) == (caller == "approx-sketch")
        with pytest.raises(RankDeficiencyError) as err:
            exact_leverage(A) if caller == "exact_leverage" else approx_leverage(A, 0.5)
        assert err.value.numerical_rank == 3
        assert len(osnap_builds) == (caller == "approx-sketch")

    def test_wide_matrix_rejected(self):
        with pytest.raises(ParameterError):
            exact_leverage(np.ones((3, 5)))


class TestApproxScores:
    def test_orthonormal_input_within_band(self):
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.standard_normal((500, 10)))
        scores = approx_leverage(Q, gamma=0.5, seed=1)
        assert validate_scores(Q, scores).passed

    def test_random_corpus_validates(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            A = rng.standard_normal((600, 12))
            scores = approx_leverage(A, gamma=0.5, seed=trial)
            report = validate_scores(A, scores)
            assert report.passed, f"trial {trial}: {report}"

    def test_test_vector_count_scales_with_gamma(self):
        assert math.ceil(4 / 0.25) == 2 * math.ceil(4 / 0.5)

    def test_halving_gamma_tightens_estimates(self):
        # relative spread of estimates shrinks with more test vectors
        rng = np.random.default_rng(6)
        A = rng.standard_normal((800, 10))
        exact = exact_leverage(A).z
        def rel_spread(gamma):
            z = approx_leverage(A, gamma=gamma, seed=11).z
            mask = exact > 1e-6
            return np.std(z[mask] / exact[mask])
        assert rel_spread(0.1) < rel_spread(0.8)

    def test_gamma_bounds(self):
        A = np.eye(6)[:, :2]
        with pytest.raises(ParameterError):
            approx_leverage(A, gamma=0.0)
        with pytest.raises(ParameterError):
            approx_leverage(A, gamma=1.0)

    def test_rank_deficient_input_errors_after_retries(self):
        A = np.zeros((40, 3))
        A[:, 0] = 1.0
        with pytest.raises(RankDeficiencyError):
            approx_leverage(A, gamma=0.5, seed=0)


class TestValidateScores:
    def test_exact_scores_pass_with_zero_sum_margin(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((60, 5))
        scores = exact_leverage(A)
        report = validate_scores(A, scores)
        assert report.passed
        assert abs(report.sum_margin) < 1e-9

    def test_halved_scores_fail_and_name_indices(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((60, 5))
        exact = exact_leverage(A)
        bad = LeverageScores(z=exact.z / 2, beta1=1.0, beta2=1.0)
        report = validate_scores(A, bad)
        assert not report.passed and not report.lower_ok
        assert len(report.violating_indices) > 0
        worst = report.violating_indices[0]
        assert bad.z[worst] < exact.z[worst] - 1e-12

    def test_scores_serialization_roundtrip(self):
        scores = LeverageScores(z=np.array([0.1, 0.9, 0.0]), beta1=2.0, beta2=3.0)
        back = LeverageScores.from_dict(scores.to_dict())
        np.testing.assert_array_equal(back.z, scores.z)
        assert back.digest() == scores.digest()

    @pytest.mark.parametrize("payload", [
        {"z": [True, "0.5"], "beta1": True, "beta2": "3"},
        {"z": [True, 0.5], "beta1": 2.0, "beta2": 2.0},
        {"z": ["0.5"], "beta1": 2.0, "beta2": 2.0},
        {"z": [0.5], "beta1": True, "beta2": 2.0},
        {"z": [0.5], "beta1": 2.0, "beta2": "3"},
        {"z": 0.5, "beta1": 2.0, "beta2": 2.0},
        {"z": [[0.5]], "beta1": 2.0, "beta2": 2.0},
    ], ids=["all", "bool-score", "str-score", "bool-beta1", "str-beta2", "scalar-z", "nested-z"])
    def test_wrong_typed_json_fields_are_format_errors(self, payload):
        # float() and asarray once loaded these as z = [1, 0.5], beta1 = 1, beta2 = 3
        with pytest.raises(FormatError):
            LeverageScores.from_dict(payload)

    @pytest.mark.parametrize("payload", [
        {"z": [1.5], "beta1": 2.0, "beta2": 2.0},
        {"z": [0.5], "beta1": 0.5, "beta2": 2},
    ], ids=["score-above-1", "beta1-below-1"])
    def test_out_of_range_json_fields_stay_parameter_errors(self, payload):
        with pytest.raises(ParameterError):
            LeverageScores.from_dict(payload)

    # numpy reads the last three as float64: [True, 0.5] used to give z = [1.0, 0.5]
    @pytest.mark.parametrize("z", [np.array([True, False]), np.array(["0.5"]), [None],
                                   [True, 0.5], [0.5, np.True_], (1, False)])
    def test_non_real_scores_rejected(self, z):
        with pytest.raises(ParameterError, match="real numbers"):
            LeverageScores(z=z)

    def test_score_bounds_enforced(self):
        with pytest.raises(ParameterError):
            LeverageScores(z=np.array([1.5]), beta1=1.0, beta2=1.0)
        with pytest.raises(ParameterError):
            LeverageScores(z=np.array([0.5]), beta1=0.5, beta2=1.0)

    @pytest.mark.parametrize("field", ["z", "beta1", "beta2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, field, bad):
        # NaN once slipped past the range check and gave block height -2^63
        fields = {"z": np.array([0.5, 0.25]), "beta1": 2.0, "beta2": 2.0}
        fields[field] = np.array([0.5, bad]) if field == "z" else bad
        with pytest.raises(ParameterError):
            LeverageScores(**fields)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -2e-12, 1.0 + 2e-12, -0.5, 1.5])
    def test_out_of_range_or_non_finite_score_rejected(self, bad):
        for where in (0, 2):  # the minimum or the maximum
            z = np.array([0.5, 0.25, 0.75])
            z[where] = bad
            with pytest.raises(ParameterError):
                LeverageScores(z=z, beta1=2.0, beta2=1.5)

    # digests of the scores clipped to [0, 1] over the whole vector; -0.0 stays -0.0
    @pytest.mark.parametrize("z, digest", [
        ([-0.0, 0.25, 1.0], "377855b4037328a16a320c6ff417835d3228eb9bc45e1ddc4c6012fb135b29a8"),
        ([-1e-12, -5e-13, 0.5], "c3e1f0fa8189621d4a59dbe982d2a6b05fb2adbf840c6cab75cc221e5c3ec10a"),
        ([1.0 + 1e-12, 1.0 + 2e-16, 0.0],
         "f1c0987a32cafc1ae04773ab8b307d3ea666de9a4ca1b6ef73fb5891ced48082"),
        ([-0.0, -1e-13, 0.3, 1.0 + 1e-13],
         "bb89f2731967d51551f9e3ae477c823337136ea79101a52dcc41fed0b5a56bf7"),
    ])
    def test_scores_within_slack_keep_their_digest(self, z, digest):
        scores = LeverageScores(z=np.array(z), beta1=2.0, beta2=1.5)
        assert scores.digest() == digest
        assert scores.z.min() >= 0.0 and scores.z.max() <= 1.0


def _claim_surface(name, seed, embed_shaped):
    """Criterion 11's Gaussian 2000 x 20 input, a reduced embed input, or a
    Gaussian 2^14 x 16, whose nonzero rows are ~13 times the sketch's."""
    if name == "criterion-11":
        return np.random.default_rng(seed).standard_normal((2000, 20))
    if name == "sketch-route":
        return np.random.default_rng(seed).standard_normal((1 << 14, 16))
    return embed_shaped(name == "embed-dense", seed)


# the route each surface takes: r / rows is 1.6, 1.3, 1.9 and 13
CLAIM_SURFACES = {"criterion-11": "direct", "embed-sparse": "direct", "embed-dense": "direct",
                  "sketch-route": "sketch"}


def _rows_input(r, seed, n=4096, d=8):
    """A dense n x d input whose nonzero rows are r random Gaussian rows."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n, d))
    A[np.sort(rng.choice(n, r, replace=False))] = rng.standard_normal((r, d))
    return A


# the most nonzero rows a 4096 x 8 input may have to be factored directly
BOUNDARY = _DIRECT * _sketch_rows(8, 4096)


@pytest.fixture
def osnap_builds(monkeypatch):
    """The m of every osnap sketch built; the leverage sketch is one."""
    calls = []

    def counting(spec, columns=None, _orig=oblivious.build_osnap):
        calls.append(spec.m)
        return _orig(spec, columns=columns)

    monkeypatch.setattr(oblivious, "build_osnap", counting)
    return calls


class TestRoute:
    @pytest.mark.parametrize("r, route", [(BOUNDARY // 4, "direct"), (BOUNDARY, "direct"),
                                          (BOUNDARY + 1, "sketch"), (3000, "sketch")])
    def test_route_and_claim_follow_nonzero_rows(self, r, route, osnap_builds):
        A = _rows_input(r, seed=r)
        sparse = scipy.sparse.csr_matrix(A)
        J = touched_rows(sparse)
        free = np.setdiff1d(np.arange(A.shape[0]), J)
        coo = sparse.tocoo()
        # an explicit zero in a zero row: one more touched row, no more nonzero rows
        stored_zeros = scipy.sparse.csr_matrix(
            (np.append(coo.data, 0.0), (np.append(coo.row, free[0]), np.append(coo.col, 0))),
            shape=A.shape)
        claims = set()
        for X in (A, sparse, sparse.tocsc(), stored_zeros):
            osnap_builds.clear()
            claims.add(approx_leverage(X, 0.25, seed=1).beta1)
            assert osnap_builds == ([] if route == "direct" else [_sketch_rows(8, 4096)])
        t = _chi2_lower_level(16, _DELTA_LEV / r)
        eps_lev = 0.0 if route == "direct" else _EPS_LEV
        assert claims == {(1.0 + eps_lev) ** 2 / (_SAFETY * t)}

    def test_direct_claim_is_at_least_one(self):
        # 400 test vectors over 1072 rows: 1 / (2t) = 0.71, below what a claim may state
        A = _rows_input(BOUNDARY, seed=2)
        assert 1.0 / (_SAFETY * _chi2_lower_level(400, _DELTA_LEV / BOUNDARY)) < 1.0
        scores = approx_leverage(A, 0.01, seed=2)
        assert scores.beta1 == 1.0
        assert validate_scores(A, scores).passed

    @pytest.mark.parametrize("r", [BOUNDARY, BOUNDARY + 1])
    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected_on_both_routes(self, r, fmt, bad):
        A = _rows_input(r, seed=3)
        row = np.flatnonzero(A.any(axis=1))[r // 2]
        A[row] = 0.0
        A[row, 1] = bad  # alone in its row, which is nonzero all the same
        with pytest.raises(ParameterError, match="NaN or Inf"):
            approx_leverage(A if fmt == "dense" else scipy.sparse.csr_matrix(A), 0.5)

    def test_rank_deficient_nonzero_rows_name_their_rank(self, osnap_builds):
        A = _rows_input(BOUNDARY, seed=4)
        A[:, 3] = A[:, 0] - A[:, 1]
        with pytest.raises(RankDeficiencyError) as err:
            approx_leverage(A, 0.5)
        assert err.value.numerical_rank == 7
        assert osnap_builds == []

    def test_singular_leverage_sketch_is_built_once(self, osnap_builds):
        # a rank-7 A past the boundary: its one sketch is singular, and A's own rank is named
        A = _rows_input(3000, seed=4)
        A[:, 3] = A[:, 0] - A[:, 1]
        with pytest.raises(RankDeficiencyError) as err:
            approx_leverage(A, 0.5)
        assert err.value.numerical_rank == 7
        assert osnap_builds == [_sketch_rows(8, 4096)]

    def test_direct_route_factors_the_same_nonzero_rows(self, monkeypatch):
        A = _rows_input(BOUNDARY, seed=5)
        sparse = scipy.sparse.csr_matrix(A)
        J = touched_rows(sparse)
        free = np.setdiff1d(np.arange(A.shape[0]), J)
        coo = sparse.tocoo()
        # stored zeros in a zero row and in a nonzero one
        stored_zeros = scipy.sparse.csr_matrix(
            (np.append(coo.data, [0.0, 0.0]),
             (np.append(coo.row, [free[0], J[0]]), np.append(coo.col, [0, 0]))), shape=A.shape)
        seen = []

        def recording(X, n, _orig=leverage._r_factor):
            seen.append(X.tobytes())
            return _orig(X, n)

        monkeypatch.setattr(leverage, "_r_factor", recording)
        for X in (A, sparse, stored_zeros):
            approx_leverage(X, 0.5)
        assert seen == [A[A.any(axis=1)].tobytes()] * 3


class TestBeta1Claim:
    @pytest.mark.parametrize("k", [5, 16, 40, 80, 1000])
    @pytest.mark.parametrize("c", [0.5, 1e-3, 0.01 / 3411, 1e-12])
    def test_level_solves_its_equation(self, k, c):
        t = _chi2_lower_level(k, c)
        assert 0.0 < t < 1.0
        assert abs((t * math.exp(1.0 - t)) ** (k / 2) / c - 1.0) <= 1e-12

    @pytest.mark.parametrize("surface", CLAIM_SURFACES)
    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.25])
    def test_claim_validates(self, surface, gamma, embed_shaped):
        for seed in range(20):
            A = _claim_surface(surface, seed, embed_shaped)
            scores = approx_leverage(A, gamma, seed=seed)
            report = validate_scores(A, scores)
            assert report.passed, f"seed {seed}: {report}"

    @pytest.mark.parametrize("surface", CLAIM_SURFACES)
    def test_claim_surfaces_take_their_routes(self, surface, embed_shaped, osnap_builds):
        A = _claim_surface(surface, 0, embed_shaped)
        approx_leverage(A, 0.25, seed=0)
        assert len(osnap_builds) == (CLAIM_SURFACES[surface] == "sketch")

    @pytest.mark.parametrize("surface", CLAIM_SURFACES)
    def test_leverage_sketch_distortion_within_assumed(self, surface, embed_shaped):
        # the claim assumes sigma_max(Pi U) <= 1 + eps_lev; Pi A = Q R and
        # A[J] = Q' R_A give sigma(Pi U) = sigma(R R_A^-1)
        for seed in range(50):
            A = _claim_surface(surface, seed, embed_shaped)
            n, d = A.shape
            J = touched_rows(A)
            R = _sketch_r_factor(A, d, n, seed, J)
            R_A = np.linalg.qr(A if J is None else A[J].toarray(), mode="r")
            sigma = np.linalg.svd(scipy.linalg.solve_triangular(R_A.T, R.T, lower=True).T,
                                  compute_uv=False)
            assert sigma[0] <= 1.0 + _EPS_LEV, f"seed {seed}: {sigma[0]}"

    def test_beta1_counts_nonzero_rows_of_A(self, embed_shaped):
        A = embed_shaped(False, 7)
        J = touched_rows(A)
        # an explicit zero in a row A does not touch: one more touched row, no more nonzero rows
        free = np.setdiff1d(np.arange(A.shape[0]), J)[0]
        coo = A.tocoo()
        stored_zeros = scipy.sparse.csr_matrix(
            (np.append(coo.data, 0.0), (np.append(coo.row, free), np.append(coo.col, 0))),
            shape=A.shape)
        assert stored_zeros.nnz == A.nnz + 1
        assert touched_rows(stored_zeros).size == J.size + 1
        want = approx_leverage(A, 0.25, seed=1).beta1
        assert approx_leverage(A.toarray(), 0.25, seed=1).beta1 == want
        assert approx_leverage(stored_zeros, 0.25, seed=1).beta1 == want
