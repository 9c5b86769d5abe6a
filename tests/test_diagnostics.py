"""Distortion reports, moment probes, the error split, Gaussian references."""

import math

import numpy as np
import pytest

from subsketch import (
    ParameterError,
    SketchSpec,
    SparseSketch,
    build_osnap,
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
from subsketch.experiments import builder


def identity_sketch(n):
    spec = SketchSpec.from_sparsity("osnap", m=n, n=n, s=1, seed=0)
    return SparseSketch(spec=spec, indptr=np.arange(n + 1),
                        rows=np.arange(n), values=np.ones(n))


def gaussian_builder(m, n, p=1.0):
    spec = SketchSpec(kind="gaussian-dense", m=m, n=n, p=p)
    return builder(spec)


def osnap_builder(m, n, s, degree_k=8):
    spec = SketchSpec.from_sparsity("osnap", m=m, n=n, s=s, degree_k=degree_k)
    return builder(spec)


class TestDistortion:
    def test_identity_sketch_is_isometry(self):
        n, d = 20, 5
        U = np.eye(n)[:, :d]
        rep = distortion(identity_sketch(n), U, eps_target=0.01)
        assert rep.s_min == pytest.approx(1.0, abs=1e-12)
        assert rep.s_max == pytest.approx(1.0, abs=1e-12)
        assert rep.passed
        assert rep.opnorm_err <= 1e-12

    def test_gaussian_band(self):
        m, d, t = 400, 20, 3.0
        (lo, hi), bound = gaussian_reference(m, d, t)
        rng = np.random.default_rng(0)
        U = haar_basis(1024, d, rng)
        builder = gaussian_builder(m, 1024)
        hits = 0
        trials = 60
        for i in range(trials):
            rep = distortion(builder(i, U), U)
            hits += lo <= rep.s_min and rep.s_max <= hi
        assert hits / trials >= bound

    def test_non_orthonormal_rejected(self):
        U = 0.5 * np.eye(10)[:, :3]
        with pytest.raises(ParameterError, match="orthonormal"):
            distortion(identity_sketch(10), U)

    def test_opnorm_consistency(self):
        rng = np.random.default_rng(1)
        U = haar_basis(256, 8, rng)
        builder = osnap_builder(64, 256, 16)
        rep = distortion(builder(3, U), U)
        assert rep.opnorm_err >= max(abs(rep.s_max**2 - 1), abs(rep.s_min**2 - 1)) - 1e-12


class TestSamplers:
    @pytest.mark.parametrize("sampler", [haar_basis, coordinate_basis, spiked_basis])
    def test_orthonormal(self, sampler):
        rng = np.random.default_rng(2)
        U = sampler(100, 7, rng)
        np.testing.assert_allclose(U.T @ U, np.eye(7), atol=1e-10)


class TestEmbeddingTrial:
    def test_vacuous_eps_never_fails(self):
        builder = osnap_builder(32, 128, 4)
        sampler = lambda rng: haar_basis(128, 4, rng)  # noqa: E731
        summary = embedding_trial(builder, sampler, trials=20, eps=10.0, seed=5)
        assert summary.failure_fraction == 0.0

    def test_gaussian_failure_fraction(self):
        m, d = 400, 20
        builder = gaussian_builder(m, 512)
        sampler = lambda rng: haar_basis(512, d, rng)  # noqa: E731
        summary = embedding_trial(builder, sampler, trials=200, eps=0.5, seed=6)
        assert summary.failure_fraction <= 0.05

    def test_reproducible(self):
        builder = osnap_builder(32, 128, 4)
        sampler = lambda rng: coordinate_basis(128, 4, rng)  # noqa: E731
        a = embedding_trial(builder, sampler, trials=10, eps=0.5, seed=7)
        b = embedding_trial(builder, sampler, trials=10, eps=0.5, seed=7)
        assert a.to_dict() == b.to_dict()


class TestTraceMoment:
    def test_isometry_gives_zero(self):
        n, d = 16, 4
        U = np.eye(n)[:, :d]
        builder = lambda seed, UU: identity_sketch(n)  # noqa: E731
        probe = trace_moment(builder, U, q=3, trials=5, seed=0)
        assert probe.estimate <= 1e-24

    def test_gaussian_moment_bound(self):
        # variance-1/m Gaussian model: E[tr(G'G - I)^(2q)]^(1/2q) <= eps
        # at m = 8 d / eps^2 and q <= m eps^2
        m, d, eps, q = 256, 8, 0.5, 4
        rng = np.random.default_rng(3)
        U = haar_basis(300, d, rng)
        probe = trace_moment(gaussian_builder(m, 300), U, q=q, trials=150, seed=8)
        assert q <= m * eps**2
        assert probe.root() <= eps

    def test_q1_equals_frobenius(self):
        from subsketch import apply as _apply

        rng = np.random.default_rng(4)
        n, m, d, s = 128, 64, 8, 16
        U = haar_basis(n, d, rng)
        builder = osnap_builder(m, n, s)
        probe = trace_moment(builder, U, q=1, trials=1, seed=9)
        from subsketch._field import derive_seed

        sk = builder(derive_seed(9, 0), U)
        X = _apply(sk, U)
        frob = np.linalg.norm(X.T @ X - np.eye(d), "fro") ** 2 / d
        assert probe.estimate == pytest.approx(frob, rel=1e-12)

    def test_osnap_matches_gaussian_at_q1(self):
        # second-order universality: same E tr(X'X - I)^2 for both models
        n, m, d, s = 128, 64, 8, 16
        rng = np.random.default_rng(5)
        U = haar_basis(n, d, rng)
        a = trace_moment(osnap_builder(m, n, s), U, q=1, trials=500, seed=10)
        b = trace_moment(gaussian_builder(m, n, p=s / m), U, q=1, trials=500, seed=11)
        gap = abs(a.estimate - b.estimate)
        assert gap <= 3 * math.hypot(a.std_error, b.std_error)

    def test_q_cap(self):
        U = np.eye(8)[:, :2]
        builder = lambda seed, UU: identity_sketch(8)  # noqa: E731
        with pytest.raises(ParameterError):
            trace_moment(builder, U, q=33, trials=1, seed=0)


@pytest.mark.parametrize("probe", [trace_moment, decoupled_gamma_moment])
def test_moment_probes_reject_zero_trials(probe):
    # zero trials used to end in "estimate overflowed" after a numpy warning
    U = np.eye(8)[:, :2]
    builder = lambda seed, UU: identity_sketch(8)  # noqa: E731
    with pytest.raises(ParameterError, match="trials must be an integer >= 1"):
        probe(builder, U, q=1, trials=0, seed=0)


class TestDecoupledGamma:
    def test_zero_basis_gives_zero(self):
        U = np.zeros((64, 4))
        builder = osnap_builder(32, 64, 8)
        probe = decoupled_gamma_moment(builder, U, q=1, trials=3, seed=1)
        assert probe.estimate == 0.0

    def test_q1_identity_osnap(self):
        # E[tr Gamma^2] = 2 p^2 m (d + 1) from the two second-moment pieces
        n, m, d, s = 128, 64, 8, 16
        p = s / m
        rng = np.random.default_rng(6)
        U = haar_basis(n, d, rng)
        probe = decoupled_gamma_moment(osnap_builder(m, n, s), U, q=1,
                                       trials=800, seed=12)
        expected = 2 * p**2 * m * (d + 1)
        assert abs(probe.estimate - expected) <= 3 * probe.std_error

    def test_gaussian_and_osnap_agree_at_q1(self):
        n, m, d, s = 128, 64, 8, 16
        rng = np.random.default_rng(7)
        U = haar_basis(n, d, rng)
        a = decoupled_gamma_moment(osnap_builder(m, n, s), U, q=1,
                                   trials=600, seed=13)
        b = decoupled_gamma_moment(gaussian_builder(m, n, p=s / m), U, q=1,
                                   trials=600, seed=14)
        assert abs(a.estimate - b.estimate) <= 3 * math.hypot(a.std_error, b.std_error)


class TestDiagonalSplit:
    def test_osnap_diag_vanishes(self):
        rng = np.random.default_rng(8)
        spec = SketchSpec.from_sparsity("osnap", m=64, n=256, s=8, seed=2)
        sk = build_osnap(spec)
        U = haar_basis(256, 8, rng)
        _, _, norms = diagonal_offdiagonal_split(sk, U)
        assert norms["diag"] <= 1e-10

    def test_less_ic_diag_vanishes(self):
        from subsketch import LeverageScores, build_less_ic

        rng = np.random.default_rng(9)
        z = np.clip(rng.uniform(0, 1, 256), 1e-3, 1.0)
        spec = SketchSpec(kind="less-ic", m=64, p=0.25, scores=LeverageScores(z=z), seed=3)
        sk = build_less_ic(spec)
        U = haar_basis(256, 8, rng)
        _, _, norms = diagonal_offdiagonal_split(sk, U)
        assert norms["diag"] <= 1e-10

    def test_reconstruction_identity(self):
        from subsketch import apply as _apply
        from subsketch import build_ose_ie

        rng = np.random.default_rng(10)
        spec = SketchSpec(kind="ose-ie", m=64, n=256, p=0.2, seed=4)
        sk = build_ose_ie(spec)
        U = haar_basis(256, 8, rng)
        diag, off, _ = diagonal_offdiagonal_split(sk, U)
        B = _apply(sk, U) / sk.scale
        total = B.T @ B
        recon = diag + off + sk.pm * np.eye(8)
        assert np.linalg.norm(recon - total) / np.linalg.norm(total) <= 1e-12

    def test_dense_baseline_reconstruction(self):
        from subsketch import apply as _apply
        from subsketch import build_dense_baseline

        rng = np.random.default_rng(11)
        spec = SketchSpec(kind="gaussian-dense", m=48, n=128, p=0.5, seed=6)
        sk = build_dense_baseline(spec)
        U = haar_basis(128, 6, rng)
        diag, off, _ = diagonal_offdiagonal_split(sk, U)
        B = _apply(sk, U) / sk.scale
        total = B.T @ B
        recon = diag + off + sk.pm * np.eye(6)
        assert np.linalg.norm(recon - total) / np.linalg.norm(total) <= 1e-12

    def test_oseie_coordinate_diag_variance(self):
        # E tr((diag / pm)^2) = (1 - p)/(p m) on a coordinate subspace
        from subsketch import build_ose_ie

        n, d, m, p, trials = 512, 8, 200, 0.05, 600
        U = np.eye(n)[:, :d]
        pm = p * m
        samples = np.empty(trials)
        for t in range(trials):
            spec = SketchSpec(kind="ose-ie", m=m, n=n, p=p, seed=5000 + t)
            diag, _, _ = diagonal_offdiagonal_split(build_ose_ie(spec), U)
            samples[t] = np.trace((diag / pm) @ (diag / pm)) / d
        se = samples.std(ddof=1) / math.sqrt(trials)
        assert abs(samples.mean() - (1 - p) / pm) <= 3 * se


class TestGaussianReference:
    def test_t_zero_vacuous(self):
        (lo, hi), bound = gaussian_reference(400, 20, 0.0)
        assert lo == pytest.approx(1 - math.sqrt(0.05))
        assert hi == pytest.approx(1 + math.sqrt(0.05))
        assert bound == 0.0

    def test_reference_values(self):
        (lo, hi), bound = gaussian_reference(400, 20, 3.0)
        assert lo == pytest.approx(1 - math.sqrt(0.05) - 0.15)
        assert hi == pytest.approx(1 + math.sqrt(0.05) + 0.15)
        assert bound == pytest.approx(1 - 2 * math.exp(-4.5))

    def test_m_le_d_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_reference(10, 10, 1.0)
