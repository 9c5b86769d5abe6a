"""Oblivious sketch builders: structure, moments, parameter defaults."""

import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from subsketch import (
    CONSTANTS,
    IndependentFamily,
    LeverageScores,
    ParameterError,
    SketchSpec,
    build,
    build_dense_baseline,
    build_ose_ie,
    build_osnap,
    default_parameters,
    independence_degree,
    osnap_sparsity_target,
)
from subsketch.oblivious import KINDS, LESS_KINDS


def osnap_spec(m, n, s, seed=0, degree_k=8):
    return SketchSpec.from_sparsity("osnap", m=m, n=n, s=s, seed=seed, degree_k=degree_k)


class TestSpecValidation:
    def test_s_must_divide_m(self):
        with pytest.raises(ParameterError):
            SketchSpec(kind="osnap", m=4, n=3, p=3 / 4)

    def test_s_must_be_integral(self):
        with pytest.raises(ParameterError):
            SketchSpec(kind="osnap", m=10, n=3, p=0.33)

    def test_p_bounds(self):
        with pytest.raises(ParameterError):
            SketchSpec(kind="ose-ie", m=4, n=4, p=0.0)
        with pytest.raises(ParameterError):
            SketchSpec(kind="ose-ie", m=4, n=4, p=1.5)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            SketchSpec(kind="fft", m=4, n=4, p=0.5)

    @pytest.mark.parametrize("p", [True, "0.25", None, 0.25j])
    def test_p_must_be_real(self, p):
        # p=True once built a spec with p=True; the others raised TypeError
        with pytest.raises(ParameterError, match="p must be"):
            SketchSpec(kind="ose-ie", m=8, n=4, p=p)

    def test_p_is_stored_as_float(self):
        spec = SketchSpec(kind="ose-ie", m=8, n=4, p=Fraction(1, 4))
        assert type(spec.p) is float and spec.p == 0.25

    @pytest.mark.parametrize("field, value", [
        ("m", 8.0), ("n", 4.5), ("seed", 1.5), ("degree_k", 2.5),
        ("m", True), ("seed", "3"), ("degree_k", np.float64(8.0)),
    ])
    def test_integer_fields(self, field, value):
        # m=8.0, n=4.5 and seed=1.5 once passed the spec and raised TypeError
        # deep in the build; degree_k=2.5 was written into the .skt header
        fields = dict(kind="osnap", m=8, n=4, p=0.25) | {field: value}
        with pytest.raises(ParameterError, match=field):
            SketchSpec(**fields)

    def test_numpy_integers_become_ints(self):
        spec = SketchSpec(kind="osnap", m=np.int64(8), n=np.uint32(4), p=0.25,
                          seed=np.int32(3), degree_k=np.int16(5))
        assert [type(v) for v in (spec.m, spec.n, spec.seed, spec.degree_k)] == [int] * 4
        assert (spec.m, spec.n, spec.seed, spec.degree_k) == (8, 4, 3, 5)

    def test_seeds_are_taken_mod_2_64(self):
        # the spec keeps the seed as given; the draws read it mod 2^64
        wrapped = osnap_spec(16, 32, 4, seed=2**64)
        assert wrapped.seed == 2**64
        zero = osnap_spec(16, 32, 4, seed=0)
        assert np.array_equal(build_osnap(wrapped).materialize(), build_osnap(zero).materialize())


# kind: (hashes with a K, built as a SparseSketch with a .skt form)
RANDOMNESS = {
    "osnap": (True, True),
    "less-ic": (True, True),
    "ose-ie": (False, True),
    "less-ie": (False, True),
    "gaussian-dense": (False, False),
}
SCORES = LeverageScores(z=np.linspace(0.05, 1.0, 64))


def _fields(kind, **extra):
    scores = dict(scores=SCORES) if kind.startswith("less") else dict(n=64)
    return dict(kind=kind, m=16, p=0.25, **scores, **extra)


class TestKindFixesTheRandomness:
    def test_table_covers_every_kind(self):
        from subsketch.oblivious import COLUMN_KINDS, KINDS

        assert set(RANDOMNESS) == set(KINDS)
        assert {k for k, (hashes, _) in RANDOMNESS.items() if hashes} == set(COLUMN_KINDS)

    @pytest.mark.parametrize("kind", sorted(RANDOMNESS))
    def test_default_parameters_set_k_only_for_hashing_kinds(self, kind):
        hashes, _ = RANDOMNESS[kind]
        spec = default_parameters(4, 256, 0.5, 0.1, kind)
        want = independence_degree(4, 0.5, 0.1, spec.s) if hashes else None
        assert spec.degree_k == want

    @pytest.mark.parametrize("kind", sorted(RANDOMNESS))
    def test_k_only_on_hashing_kinds(self, kind):
        hashes, _ = RANDOMNESS[kind]
        assert SketchSpec(**_fields(kind)).degree_k == (8 if hashes else None)
        if hashes:
            assert SketchSpec(**_fields(kind, degree_k=3)).degree_k == 3
        else:
            with pytest.raises(ParameterError, match="does not hash with K"):
                SketchSpec(**_fields(kind, degree_k=8))

    @pytest.mark.parametrize("kind", sorted(k for k, (_, sparse) in RANDOMNESS.items() if sparse))
    def test_header_carries_k_only_for_hashing_kinds(self, kind, tmp_path):
        hashes, _ = RANDOMNESS[kind]
        path = tmp_path / "s.skt"
        build(SketchSpec(**_fields(kind, seed=5))).save(path)
        raw = path.read_bytes()
        header = json.loads(raw[16:16 + int.from_bytes(raw[8:16], "little")])
        assert ("degree_k" in header) == hashes
        assert header.get("degree_k") == (8 if hashes else None)

    @pytest.mark.parametrize("kind", sorted(k for k, (_, sparse) in RANDOMNESS.items()
                                            if not sparse))
    def test_dense_baselines_repeat_per_seed(self, kind):
        first, again, other = (build(SketchSpec(**_fields(kind, seed=seed))).matrix
                               for seed in (7, 7, 8))
        assert first.tobytes() == again.tobytes()
        assert first.tobytes() != other.tobytes()


class TestOsnapStructure:
    def test_one_entry_per_block(self):
        spec = osnap_spec(m=4, n=3, s=2, seed=5)
        sk = build_osnap(spec)
        assert sk.nnz == 6
        for j in range(3):
            rows = sk.rows[sk.indptr[j]:sk.indptr[j + 1]]
            assert rows[0] in (0, 1) and rows[1] in (2, 3)
        assert np.all(np.abs(sk.values) == 1.0)
        dense = sk.materialize()
        nz = dense[dense != 0]
        np.testing.assert_allclose(np.abs(nz), 1 / math.sqrt(2))

    def test_column_energy_exactly_pm(self):
        spec = osnap_spec(m=24, n=17, s=6, seed=2)
        sk = build_osnap(spec)
        assert np.all(sk.column_energy() == 6.0)

    def test_determinism(self):
        spec = osnap_spec(m=32, n=11, s=4, seed=99)
        a, b = build_osnap(spec), build_osnap(spec)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.values, b.values)

    def test_p_one_dense_column(self):
        spec = osnap_spec(m=6, n=4, s=6, seed=1)
        sk = build_osnap(spec)
        for j in range(4):
            assert np.array_equal(sk.rows[sk.indptr[j]:sk.indptr[j + 1]], np.arange(6))

    def test_rows_strictly_increasing(self):
        spec = osnap_spec(m=64, n=40, s=8, seed=3)
        sk = build_osnap(spec)
        for j in range(40):
            rows = sk.rows[sk.indptr[j]:sk.indptr[j + 1]]
            assert np.all(np.diff(rows) > 0)

    def test_wrong_kind_rejected(self):
        spec = SketchSpec(kind="ose-ie", m=4, n=4, p=0.5)
        with pytest.raises(ParameterError):
            build_osnap(spec)


class TestOseIe:
    def test_per_column_walk_is_bernoulli(self):
        # cell (i, j) kept independently w.p. q_j: every cell's frequency,
        # and each column's count variance m q (1 - q).  0.3, 0.26, 0.45
        # share a binade, so their walk is thinned and skips the 0.7 column
        from subsketch.oblivious import _bernoulli_grid_positions

        m, reps = 12, 3000
        q = np.array([0.0, 1e-3, 0.05, 0.3, 0.7, 0.26, 0.45, 0.3, 1.0])
        rng = np.random.default_rng(42)
        hits = np.zeros((q.size, m))
        counts = np.zeros((reps, q.size))
        for t in range(reps):
            flat = _bernoulli_grid_positions(rng, m, q)
            assert np.all(np.diff(flat) > 0)
            hits += np.bincount(flat, minlength=q.size * m).reshape(q.size, m)
            counts[t] = np.bincount(flat // m, minlength=q.size)
        se = np.sqrt(q * (1 - q) / reps)[:, None]
        assert np.all(np.abs(hits / reps - q[:, None]) <= 4 * se)
        want = m * q * (1 - q)
        np.testing.assert_allclose(counts.var(axis=0)[2:-1], want[2:-1], rtol=0.15)
        assert counts[:, 0].max() == 0 and np.all(counts[:, -1] == m)

    def test_independent_build_is_linear_in_nnz(self):
        # a 16384 x 1000 grid at p = 0.002 keeps ~33k cells; no m*n array
        import tracemalloc

        spec = SketchSpec(kind="ose-ie", m=1000, n=16384, p=0.002, seed=3)
        tracemalloc.start()
        try:
            sk = build_ose_ie(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(sk.nnz - 0.002 * 1000 * 16384) <= 5 * math.sqrt(0.002 * 1000 * 16384)
        assert peak < 16 * 2**20

    def test_p_one_is_dense_rademacher(self):
        spec = SketchSpec(kind="ose-ie", m=8, n=6, p=1.0, seed=4)
        sk = build_ose_ie(spec)
        assert sk.nnz == 48
        assert np.all(np.abs(sk.values) == 1.0)

    def test_column_counts_binomial(self):
        # one long column, repeated builds: mean count within 4 SE
        trials, m, p = 400, 400, 0.25
        counts = np.empty(trials)
        for t in range(trials):
            spec = SketchSpec(kind="ose-ie", m=m, n=1, p=p, seed=t)
            counts[t] = build_ose_ie(spec).nnz
        se = math.sqrt(m * p * (1 - p) / trials)
        assert abs(counts.mean() - 100) <= 4 * se

    def test_entry_moments(self):
        # mean 0, variance p over 1e5 sampled entries
        m, n, p = 20, 50, 0.2
        vals = []
        for t in range(120):
            spec = SketchSpec(kind="ose-ie", m=m, n=n, p=p, seed=1000 + t)
            vals.append(build_ose_ie(spec).materialize() * math.sqrt(p * m))
        vals = np.stack(vals)
        N = vals.size
        assert N >= 100_000
        assert abs(vals.mean()) <= 4 * math.sqrt(p / N)
        assert abs((vals**2).mean() - p) <= 4 * math.sqrt(2 * p / N)


class TestDenseBaselines:
    def test_gaussian_unit_variance(self):
        spec = SketchSpec(kind="gaussian-dense", m=100, n=100, p=1.0, seed=8)
        sk = build_dense_baseline(spec)
        entries = sk.matrix.ravel()
        assert entries.size == 10_000
        assert abs(entries.mean()) <= 4 / math.sqrt(entries.size)
        assert abs(entries.var() - 1.0) <= 4 * math.sqrt(2.0 / entries.size)


class TestDefaultParameters:
    def test_example_arithmetic(self):
        # d=16, eps=0.5, delta=0.01, C_m=16: m0 = ceil(16*(16+ln 100)/0.25)
        spec = default_parameters(16, 4096, 0.5, 0.01, "osnap",
                                  constants=replace(CONSTANTS, c_m_oblivious=16))
        m0 = math.ceil(16 * (16 + math.log(100)) / 0.25)
        assert spec.m >= m0
        assert spec.m % spec.s == 0
        assert spec.m - m0 < spec.s  # rounded up by less than one block row set

    def test_cap_rule_p_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = default_parameters(4, 64, 0.02, 0.5, "osnap",
                                      constants=replace(CONSTANTS, c_m_oblivious=0.001))
        assert spec.p == 1.0
        assert spec.s == spec.m

    @pytest.mark.parametrize("kind", KINDS)
    def test_constants_default_to_the_calibrated_ones(self, kind):
        args = (16, 4096, 0.5, 0.05, kind)
        assert default_parameters(*args) == default_parameters(*args, constants=CONSTANTS)

    @pytest.mark.parametrize("field", ["c_m_less", "c_m_oblivious"])
    def test_each_dimension_constant_moves_only_its_kinds(self, field):
        # one c_m keyword once set whichever of the two its kind read
        doubled = replace(CONSTANTS, **{field: 2 * getattr(CONSTANTS, field)})
        for kind in KINDS:
            base = default_parameters(16, 4096, 0.5, 0.05, kind)
            moved = default_parameters(16, 4096, 0.5, 0.05, kind, constants=doubled)
            assert (moved.m != base.m) == ((kind in LESS_KINDS) == (field == "c_m_less"))

    def test_sparsity_grows_linearly_in_inverse_eps(self):
        s1 = osnap_sparsity_target(16, 0.5, 0.05)
        s2 = osnap_sparsity_target(16, 0.25, 0.05)
        assert 1.5 <= s2 / s1 <= 2.5

    def test_oseie_includes_extra_term(self):
        osnap = default_parameters(16, 8192, 0.25, 0.05, "osnap")
        oseie = default_parameters(16, 8192, 0.25, 0.05, "ose-ie")
        assert oseie.s > osnap.s

    def test_degree_formula(self):
        assert independence_degree(16, 0.5, 0.05, 22) == 8 * math.ceil(math.log(640))
        spec = default_parameters(16, 4096, 0.5, 0.05, "osnap")
        assert spec.degree_k == independence_degree(16, 0.5, 0.05, spec.s)

    def test_pins_are_rounded(self):
        spec = default_parameters(16, 4096, 0.5, 0.05, "osnap", m=100, s=7)
        assert (spec.m, spec.s) == (105, 7)  # osnap m up to a multiple of s
        spec = default_parameters(16, 4096, 0.5, 0.05, "ose-ie", m=100, s=7)
        assert (spec.m, spec.s) == (100, 7)
        spec = default_parameters(16, 4096, 0.5, 0.05, "osnap", m=8, s=16)
        assert (spec.m, spec.p) == (8, 1.0)  # s >= m caps at p = 1

    def test_degree_comes_from_the_final_sparsity(self):
        spec = default_parameters(1, 256, 0.5, 0.5, "less-ic", m=64, s=16)
        assert spec.degree_k == independence_degree(1, 0.5, 0.5, 16) == 24
        capped = default_parameters(1, 256, 0.5, 0.5, "osnap", m=8, s=16)
        assert capped.degree_k == independence_degree(1, 0.5, 0.5, 8)

    @pytest.mark.parametrize("name", ["m", "s"])
    @pytest.mark.parametrize("value", [0, -3, 2.5, True])
    def test_pin_must_be_a_positive_integer(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be an integer >= 1"):
            default_parameters(16, 4096, 0.5, 0.05, "osnap", **{name: value})

    def test_cap_warning_only_for_an_unpinned_target(self):
        with pytest.warns(UserWarning, match="reaches m"):
            default_parameters(16, 4096, 0.5, 0.05, "osnap", m=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            default_parameters(16, 4096, 0.5, 0.05, "osnap", m=2, s=4)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            default_parameters(16, 4096, 1.5, 0.05, "osnap")
        with pytest.raises(ParameterError):
            default_parameters(16, 8, 0.5, 0.05, "osnap")  # d > n
