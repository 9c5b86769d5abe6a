"""Hashing layer: exact GF(M61) arithmetic against Python ints, exact K-wise
independence of the production evaluator, stream statistics."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsketch import (
    IndependentFamily,
    KWiseFamily,
    M61,
    ParameterError,
    SketchSpec,
    build,
)
from subsketch._field import (
    _CHUNK,
    _K_NEWTON,
    _L,
    _LIMBS,
    _SHRINK,
    _narrow_step,
    _newton_block,
    _newton_table,
    poly_eval,
    scale_to_range,
)


TOP = (1 << 32) - 1  # the largest point of the 32-bit hash domain


def _horner(coeffs, points):
    """Python big-int Horner evaluation over M61, elementwise."""
    x = np.asarray(points, dtype=np.uint64).astype(object)
    acc = np.zeros(x.shape, dtype=object)
    for c in reversed(coeffs):
        acc = (acc * x + int(c)) % M61
    return acc


def _assert_matches_horner(coeffs, points):
    got = poly_eval(np.asarray(coeffs, dtype=np.uint64), points)
    assert got.dtype == np.uint64 and got.shape == np.shape(points)
    assert (got.astype(object) == _horner(coeffs, points)).all()


class TestFieldArithmetic:
    @pytest.mark.parametrize("k", [1, 2, 8, 56, 64])
    def test_poly_eval_matches_python_horner(self, k):
        # golden values from Python big-int Horner evaluation over M61
        rng = np.random.default_rng(5 + k)
        coeffs = [int(c) for c in rng.integers(0, M61, k, dtype=np.uint64)]
        coeffs[-1] = M61 - 1  # the largest element leads every Horner chain
        edges = [0, 1, 2, 1 << 31, TOP - 1, TOP]
        pts = edges + [int(x) for x in rng.integers(0, TOP + 1, 500, dtype=np.uint64)]
        got = poly_eval(np.array(coeffs, dtype=np.uint64), np.array(pts, dtype=np.uint64))
        for x, v in zip(pts, got.tolist()):
            want = 0
            for c in reversed(coeffs):
                want = (want * x + c) % M61
            assert v == want, (k, x)

    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_poly_eval_across_chunk_boundaries(self, n):
        rng = np.random.default_rng(n)
        coeffs = rng.integers(0, M61, 7, dtype=np.uint64)
        _assert_matches_horner(coeffs, rng.integers(0, TOP + 1, n, dtype=np.uint64))

    def test_poly_eval_keeps_shape_and_reads_strided_points(self):
        rng = np.random.default_rng(12)
        coeffs = rng.integers(0, M61, 9, dtype=np.uint64)
        grid = rng.integers(0, TOP + 1, (130, 257), dtype=np.uint64)
        _assert_matches_horner(coeffs, grid)
        strided = grid.reshape(-1)[::3]
        assert not strided.flags.c_contiguous
        _assert_matches_horner(coeffs, strided)
        _assert_matches_horner(coeffs, grid[::2, 1::5])

    @pytest.mark.parametrize("k", [1, 2, 64])
    def test_poly_eval_narrow_worst_case(self, k):
        # the largest coefficients at the top of the float-quotient step's range and at 2^31
        points = np.array([TOP, TOP - 1, 1 << 31], dtype=np.uint64)
        _assert_matches_horner([M61 - 1] * k, points)

    @pytest.mark.parametrize("x", [3, 1 << 31, (1 << 32) - 1])
    @pytest.mark.parametrize("r", [1, 1 << 40])
    def test_poly_eval_narrow_result_above_two_m61_is_reduced(self, x, r):
        # c1 = r / x makes c1*x mod M61 = r tiny, so the float quotient comes
        # out one short and the last step leaves r + M61 + c0 >= 2*M61
        c1 = r * pow(x, -1, M61) % M61
        _assert_matches_horner([M61 - 1, c1], np.array([x], dtype=np.uint64))

    @pytest.mark.parametrize("top, narrow_steps", [(TOP, 2 * 7)])
    def test_poly_eval_picks_the_step_per_block(self, monkeypatch, top, narrow_steps):
        calls = []
        monkeypatch.setattr("subsketch._field._narrow_step",
                            lambda *args: calls.append(1) or _narrow_step(*args))
        points = np.arange(2 * _CHUNK, dtype=np.uint64)
        points[-1] = top  # every block, the one holding the top point too, takes the one step
        _assert_matches_horner(list(range(1, 9)), points)
        assert len(calls) == narrow_steps

    def test_narrow_step_keeps_acc_below_three_m61(self):
        # one step from every corner of acc in [0, 3*M61): exact and below 3*M61
        accs = [0, 1, M61 - 1, M61, 2 * M61 - 1, 2 * M61, 3 * M61 - 2, 3 * M61 - 1]
        xs = [0, 1, 1 << 31, (1 << 32) - 2, (1 << 32) - 1]
        for c in (0, M61 - 1):
            pairs = list(itertools.product(accs, xs))
            acc = np.array([a for a, _ in pairs], dtype=np.uint64)
            x = np.array([v for _, v in pairs], dtype=np.uint64)
            fx = x * _SHRINK
            f, q = np.empty(acc.size), np.empty(acc.size, dtype=np.uint64)
            _narrow_step(acc, acc.view(np.int64), np.uint64(c), x, fx, f, q, q.view(np.int64))
            for (a, v), got in zip(pairs, acc.tolist()):
                assert got < 3 * M61 and got % M61 == (a * v + c) % M61, (a, v, c)

    def test_poly_eval_constant_polynomial(self):
        points = np.arange(2 * _CHUNK + 3, dtype=np.uint64).reshape(-1, 1)
        got = poly_eval(np.array([M61 - 1], dtype=np.uint64), points)
        assert got.shape == points.shape and (got == M61 - 1).all()

    def test_evaluate_peak_memory_is_its_output(self):
        fam = KWiseFamily(seed=3, degree_k=64)
        points = np.arange(1 << 20, dtype=np.uint64)
        tracemalloc.start()
        try:
            out = fam.evaluate(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.nbytes, peak

    def test_scale_to_range_exact(self):
        rng = np.random.default_rng(9)
        v = rng.integers(0, M61, 3000, dtype=np.uint64)
        w = rng.integers(1, (1 << 32) + 1, 3000, dtype=np.uint64)
        got = scale_to_range(v, w)
        for i in range(0, 3000, 97):
            assert int(got[i]) == int(v[i]) * int(w[i]) // M61

    def test_scale_to_range_across_chunk_boundaries(self):
        rng = np.random.default_rng(13)
        n = 2 * _CHUNK + 5
        v = rng.integers(0, M61, n, dtype=np.uint64)
        w = rng.integers(1, (1 << 32) + 1, n, dtype=np.uint64)
        v[:4], w[:4] = M61 - 1, [1 << 32, TOP, 1, 2]
        for width in (w, 540):
            got = scale_to_range(v, width)
            want = v.astype(object) * np.asarray(width, dtype=np.uint64).astype(object) // M61
            assert got.dtype == np.uint64 and (got.astype(object) == want).all()

    def test_scale_to_range_peak_memory_is_its_output(self):
        rng = np.random.default_rng(14)
        v = rng.integers(0, M61, 1 << 20, dtype=np.uint64)
        w = rng.integers(1, 541, 1 << 20, dtype=np.uint64)
        tracemalloc.start()
        try:
            out = scale_to_range(v, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.nbytes, peak

    @pytest.mark.parametrize("r", [1, M61 - 1], ids=["r-1", "r-M61-1"])
    def test_scale_to_range_next_to_a_multiple_of_m61(self, r):
        # v*w = j*M61 + r: with r = 1 the float quotient comes out one short and
        # the correction adds it back; with r = M61 - 1 the true quotient lies
        # 1/M61 below j + 1, so a shrink that does not cover the rounding overshoots
        ws = [*range(1, 513), *np.random.default_rng(15).integers(1, TOP, 510).tolist(),
              TOP, 1 << 32]
        v = np.array([r * pow(w, -1, M61) % M61 for w in ws], dtype=np.uint64)
        want = [a * w // M61 for a, w in zip(v.tolist(), ws)]
        assert scale_to_range(v, np.array(ws, dtype=np.uint64)).tolist() == want
        for i in (0, 1, 2, 539, -2, -1):
            assert scale_to_range(v, ws[i])[i] == want[i]

    def test_narrow_step_next_to_a_multiple_of_m61(self):
        # acc*x = j*M61 + M61 - 1 for every x: the float quotient must not reach j + 1
        xs = [*range(1, 513), *np.random.default_rng(16).integers(1, TOP, 510).tolist(), TOP]
        acc = np.array([(M61 - 1) * pow(x, -1, M61) % M61 for x in xs], dtype=np.uint64)
        x = np.array(xs, dtype=np.uint64)
        f, q = np.empty(acc.size), np.empty(acc.size, dtype=np.uint64)
        _narrow_step(acc, acc.view(np.int64), np.uint64(0), x, x * _SHRINK, f, q, q.view(np.int64))
        assert all(got in (M61 - 1, 2 * M61 - 1) for got in acc.tolist())


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, M61 - 1), st.integers(1, 1 << 32)),
                      min_size=1, max_size=64))
def test_scale_to_range_matches_python_ints(pairs):
    v = np.array([a for a, _ in pairs], dtype=np.uint64)
    w = np.array([b for _, b in pairs], dtype=np.uint64)
    got = scale_to_range(v, w)
    assert got.tolist() == [a * b // M61 for a, b in pairs]
    width = pairs[0][1]
    assert scale_to_range(v, width).tolist() == [a * width // M61 for a, _ in pairs]


class TestHashDomain:
    """Over M61 the hashing layer takes points below 2^32 and range widths up to 2^32."""

    @pytest.mark.parametrize("call", [
        lambda fam, x: fam.evaluate(x),
        lambda fam, x: fam.rademacher(x),
        lambda fam, x: fam.uniform_range(x, 0, 9),
    ], ids=["evaluate", "rademacher", "uniform_range"])
    def test_point_2_32_rejected(self, call):
        fam = KWiseFamily(seed=4, degree_k=8)
        assert fam.evaluate(TOP).tolist() == _horner(fam.coefficients, [TOP]).tolist()
        with pytest.raises(ParameterError):
            call(fam, np.array([5, TOP + 1], dtype=np.uint64))

    @pytest.mark.parametrize("points", [[-1], [1.5], [True], [1 << 64]],
                             ids=["negative", "float", "bool", "2^64"])
    @pytest.mark.parametrize("fam", [KWiseFamily(seed=4, degree_k=8), IndependentFamily(seed=4)],
                             ids=["kwise", "independent"])
    def test_non_points_rejected(self, fam, points):
        # -1 and 2^64 used to raise OverflowError, 1.5 and True to hash point 1
        with pytest.raises(ParameterError):
            fam.evaluate(points)

    @pytest.mark.parametrize("fam", [KWiseFamily(seed=4, degree_k=8), IndependentFamily(seed=4)],
                             ids=["kwise", "independent"])
    def test_widest_range(self, fam):
        draws = fam.uniform_range(np.arange(1000, dtype=np.uint64), 0, TOP)  # width 2^32
        assert draws.min() >= 0 and draws.max() <= TOP
        with pytest.raises(ParameterError):
            fam.uniform_range(7, 0, 1 << 32)  # width 2^32 + 1

    def test_spec_dimension_at_most_2_32(self):
        assert SketchSpec(kind="ose-ie", m=1 << 32, n=4, p=0.5).m == 1 << 32
        with pytest.raises(ParameterError):
            SketchSpec(kind="ose-ie", m=(1 << 32) + 1, n=4, p=0.5)

    def test_blocked_build_at_the_widest_block(self):
        # one block of height 2^32 per column: rows scale the row points by 2^32
        sk = build(SketchSpec(kind="osnap", m=1 << 32, n=3, p=2.0**-32, seed=6))
        fam = KWiseFamily(seed=6, degree_k=sk.spec.degree_k)
        v = fam.evaluate(2 * np.arange(3, dtype=np.uint64) + np.uint64(1))
        assert sk.rows.tolist() == [int(x) * (1 << 32) // M61 for x in v.tolist()]

    def test_blocked_build_of_2_31_entries_rejected(self):
        # entry t hashes points 2t and 2t + 1, so entry 2^31 would leave the domain
        with pytest.raises(ParameterError):
            build(SketchSpec(kind="osnap", m=1 << 31, n=1, p=1.0))


def _count_newton_blocks(monkeypatch):
    calls = []
    monkeypatch.setattr("subsketch._field._newton_block",
                        lambda *args: calls.append(1) or _newton_block(*args))
    return calls


class TestNewtonRoute:
    """Blocks of points in arithmetic progression: forward differences and
    one exact float64 matmul instead of Horner steps."""

    @pytest.mark.parametrize("x0, step", [(1, 1), (5, 2), (3, 1 << 17), (TOP, -7)],
                             ids=["step-1", "step-2", "step-2^17", "decreasing"])
    def test_progressions_match_horner(self, monkeypatch, x0, step):
        calls = _count_newton_blocks(monkeypatch)
        rng = np.random.default_rng(21)
        n = _CHUNK + 3 * _L + 100  # a partial last chunk whose last sub-block has 100 points
        points = (x0 + step * np.arange(n, dtype=object)).astype(np.uint64)
        _assert_matches_horner(rng.integers(0, M61, 64, dtype=np.uint64), points)
        assert len(calls) == 2

    @pytest.mark.parametrize("step", [1, 5, 1 << 20])
    def test_sub_block_ending_at_the_top_element(self, monkeypatch, step):
        calls = _count_newton_blocks(monkeypatch)
        top = TOP - step * (_L - 1)  # the sub-block's last point is 2^32 - 1
        points = top + step * np.arange(2 * _L, dtype=object) - step * _L
        _assert_matches_horner([M61 - 1] * 64, points.astype(np.uint64))
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [_K_NEWTON, 64])
    def test_largest_coefficients(self, k):
        points = np.uint64(TOP) - np.arange(3 * _L, dtype=np.uint64)[::-1] * np.uint64(1 << 20)
        _assert_matches_horner([M61 - 1] * k, points)

    @pytest.mark.parametrize("k, newton", [(1, False), (_K_NEWTON - 1, False), (_K_NEWTON, True),
                                           (_L, True), (_L + 1, False)])
    def test_degree_limits(self, monkeypatch, k, newton):
        calls = _count_newton_blocks(monkeypatch)
        rng = np.random.default_rng(k)
        points = np.arange(2 * _L, dtype=np.uint64) * np.uint64(3) + np.uint64(11)
        try:
            _assert_matches_horner(rng.integers(0, M61, k, dtype=np.uint64), points)
        finally:
            _newton_table.cache_clear()  # the k = _L table is 25 MB
        assert bool(calls) == newton

    @pytest.mark.parametrize("tail, newton_blocks", [(100, 2), (63, 1)])
    def test_short_last_sub_block_falls_back(self, monkeypatch, tail, newton_blocks):
        # with K = 64 a last sub-block of 63 points leaves its whole block to Horner
        calls = _count_newton_blocks(monkeypatch)
        rng = np.random.default_rng(tail)
        points = np.arange(_CHUNK + _L + tail, dtype=np.uint64) * np.uint64(2)
        _assert_matches_horner(rng.integers(0, M61, 64, dtype=np.uint64), points)
        assert len(calls) == newton_blocks

    def test_progression_and_shuffled_blocks_in_one_call(self, monkeypatch):
        calls = _count_newton_blocks(monkeypatch)
        rng = np.random.default_rng(22)
        points = np.arange(3 * _CHUNK, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
        rng.shuffle(points[_CHUNK:2 * _CHUNK])
        _assert_matches_horner(rng.integers(0, M61, 16, dtype=np.uint64), points)
        assert len(calls) == 2

    @pytest.mark.parametrize("perturb, newton_blocks", [
        ("shuffle", 0), ("swap-inside", 1), ("swap-in-short-last", 1)])
    def test_route_is_chosen_from_the_points(self, monkeypatch, perturb, newton_blocks):
        calls = _count_newton_blocks(monkeypatch)
        coeffs = np.random.default_rng(23).integers(0, M61, 56, dtype=np.uint64)
        n = _CHUNK + _L + 100  # the second block ends in a 100-point sub-block
        points = np.arange(n, dtype=np.uint64) * np.uint64(2)
        progression = poly_eval(coeffs, points)
        assert len(calls) == 2
        if perturb == "shuffle":
            order = np.random.default_rng(24).permutation(n)
        else:  # one sub-block stops being a progression deep inside it
            order = np.arange(n)
            i = 5 * _L + 700 if perturb == "swap-inside" else n - 40
            order[[i, i + 1]] = order[[i + 1, i]]
        got = poly_eval(coeffs, points[order])
        assert len(calls) == 2 + newton_blocks
        assert np.array_equal(got, progression[order])

    @pytest.mark.parametrize("k", [1, 2, 12, 33, 64])
    def test_binomial_table(self, k):
        table = _newton_table(k)
        assert table.shape == (3 * k, _L) and not table.flags.writeable
        limbs = table.reshape(3, k, _L).astype(np.uint64).astype(object)
        got = sum(limb << offset for limb, (offset, _) in zip(limbs, _LIMBS))
        want = np.array([[math.comb(i, j) % M61 for i in range(_L)] for j in range(k)], dtype=object)
        assert (got == want).all()

    def test_newton_block_at_its_sum_bound(self):
        # every difference M61 - 1 and k = _L give the largest limb sums;
        # sum over j of C(i, j) is 2^i, so each value is (M61 - 1) * 2^i
        m = 2
        diffs = np.full((m, _L), M61 - 1, dtype=np.uint64)
        limbs, rot = np.empty((3 * m, 3 * _L)), np.empty((2, 3, m, _L), dtype=np.uint64)
        acc, t, u = np.empty((3, m, _L), dtype=np.uint64)
        try:
            _newton_block(diffs, _newton_table(_L), limbs, rot, np.empty((3 * m, _L)), acc, t, u)
        finally:
            _newton_table.cache_clear()
        want = [(M61 - 1) * pow(2, i, M61) % M61 for i in range(_L)]
        assert acc.tolist() == [want] * m


class TestFamilyConstruction:
    def test_constant_polynomial_k1(self):
        fam = KWiseFamily(seed=0, degree_k=1)
        vals = fam.evaluate(np.array([0, 1, 2, 1 << 31, TOP], dtype=np.uint64))
        assert len(set(vals.tolist())) == 1

    def test_affine_determined_by_two_points(self):
        # a*x + b mod M61 is pinned by its values at 0 and 1
        fam = KWiseFamily(seed=7, degree_k=2)
        points = [0, 1, 2, 3, 1 << 31, TOP]
        v = [int(x) for x in fam.evaluate(np.array(points, dtype=np.uint64))]
        b, a = v[0], (v[1] - v[0]) % M61
        assert (b, a) == fam.coefficients
        for x, got in zip(points, v):
            assert got == (a * x + b) % M61

    def test_reproducible_from_seed(self):
        f1 = KWiseFamily(seed=123, degree_k=6)
        f2 = KWiseFamily(seed=123, degree_k=6)
        assert f1.coefficients == f2.coefficients
        pts = np.arange(100, dtype=np.uint64)
        assert np.array_equal(f1.evaluate(pts), f2.evaluate(pts))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            KWiseFamily(seed=0, degree_k=0)
        with pytest.raises(ParameterError):
            KWiseFamily.from_coefficients([1, M61])  # not a field element

    @pytest.mark.parametrize("make", [
        lambda: KWiseFamily(seed=0, degree_k=2, field_modulus=5),
        lambda: KWiseFamily.from_coefficients([1, 2], field_modulus=5),
    ], ids=["family", "from_coefficients"])
    def test_field_modulus_is_not_an_argument(self, make):
        # GF(M61) is the only field; the small-prime fields are gone
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: KWiseFamily(seed=0, degree_k=2.5),
        lambda: KWiseFamily(seed=0, degree_k=2.0),
        lambda: KWiseFamily(seed=0, degree_k=True),
        lambda: KWiseFamily(seed=1.5, degree_k=2),
        lambda: KWiseFamily(seed=False, degree_k=2),
        lambda: KWiseFamily(seed="3", degree_k=2),
        lambda: KWiseFamily.from_coefficients([1.7, 2]),
        lambda: KWiseFamily.from_coefficients([1, True]),
        lambda: IndependentFamily(seed=1.5).evaluate(3),
        lambda: IndependentFamily(seed=True).evaluate(3),
    ], ids=["k-2.5", "k-2.0", "k-true", "seed-1.5", "seed-false", "seed-str",
            "coefficient-1.7", "coefficient-true", "independent-seed-1.5",
            "independent-seed-true"])
    def test_non_integers_rejected(self, make):
        # degree_k=2.5 used to build 3 coefficients, True to count as 1,
        # 1.7 to truncate to 1, and seed=1.5 to raise TypeError
        with pytest.raises(ParameterError, match="must be an integer"):
            make()

    def test_numpy_integers_accepted(self):
        fam = KWiseFamily(seed=np.uint64(123), degree_k=np.int32(6))
        assert fam == KWiseFamily(seed=123, degree_k=6)
        assert type(fam.seed) is int and type(fam.degree_k) is int
        coeffs = np.array(fam.coefficients, dtype=np.uint64)
        assert KWiseFamily.from_coefficients(coeffs) == KWiseFamily.from_coefficients(
            list(fam.coefficients))
        pts = np.arange(100, dtype=np.uint64)
        assert np.array_equal(IndependentFamily(seed=np.int64(9)).evaluate(pts),
                              IndependentFamily(seed=9).evaluate(pts))

    def test_index_out_of_range(self):
        fam = KWiseFamily(seed=0, degree_k=2)
        with pytest.raises(ParameterError):
            fam.rademacher(TOP + 1)[0]


def _drop_top_coefficient(coeffs, points):
    return poly_eval(np.asarray(coeffs)[:-1], points)


def _flip_low_bit(coeffs, points):
    return poly_eval(coeffs, points) ^ np.uint64(1)


class TestExactKWiseIndependence:
    """The production evaluator is a bijection from coefficients to values at
    any K distinct points in the 32-bit domain (see ``vandermonde_exact``)."""

    @pytest.mark.parametrize("k", [2, 3, 16, 56, 64])
    def test_scattered_points_take_horner(self, monkeypatch, vandermonde_exact, k):
        calls = _count_newton_blocks(monkeypatch)
        rng = np.random.default_rng(40 + k)
        points = np.unique(rng.integers(0, TOP, 4 * k, dtype=np.uint64))[:k - 1]
        points = rng.permutation(np.append(points, np.uint64(TOP)))
        assert vandermonde_exact(points, range(k), seed=k)
        assert not calls

    @pytest.mark.parametrize("k", [2, 3, 16, 56, 64])
    def test_progression_takes_newton_from_k_newton(self, monkeypatch, vandermonde_exact, k):
        calls = _count_newton_blocks(monkeypatch)
        rng = np.random.default_rng(50 + k)
        n = 2 * _L + 100
        points = (TOP - (1 << 20) * np.arange(n, dtype=object)).astype(np.uint64)
        at = sorted(rng.choice(n, k, replace=False).tolist())
        assert vandermonde_exact(points, at, seed=k)
        assert bool(calls) == (k >= _K_NEWTON)

    @pytest.mark.parametrize("broken", [_drop_top_coefficient, _flip_low_bit],
                             ids=["drop-top-coefficient", "flip-low-bit"])
    @pytest.mark.parametrize("progression", [False, True], ids=["scattered", "progression"])
    def test_broken_evaluator_rejected(self, monkeypatch, vandermonde_exact, broken, progression):
        # negative control: the check is not vacuous
        monkeypatch.setattr("subsketch.kwise.poly_eval", broken)
        points = np.arange(3 * _L, dtype=np.uint64) * np.uint64(5)
        if not progression:
            points = np.random.default_rng(60).permutation(points)
        assert not vandermonde_exact(points, range(0, 3 * _L, 3 * _L // 16))

    def test_repeated_point_rejected(self, vandermonde_exact):
        # V is singular when two of the K points coincide
        assert not vandermonde_exact(np.array([7, 9, 7], dtype=np.uint64), range(3))


class TestStreamStatistics:
    def test_purity(self):
        fam = KWiseFamily(seed=42, degree_k=8)
        assert fam.rademacher(17)[0] == fam.rademacher(17)[0]
        assert fam.uniform_range(17, 0, 99)[0] == fam.uniform_range(17, 0, 99)[0]

    def test_sign_mean_within_four_se(self):
        fam = KWiseFamily(seed=2024, degree_k=8)
        signs = fam.rademacher(np.arange(100_000, dtype=np.uint64))
        assert abs(signs.mean()) <= 4.0 / np.sqrt(100_000)

    def test_pairwise_sign_covariance(self):
        fam = KWiseFamily(seed=77, degree_k=8)
        s = fam.rademacher(np.arange(100_000, dtype=np.uint64))
        cov = float(np.mean(s[:-1] * s[1:]))
        assert abs(cov) <= 4.0 / np.sqrt(100_000 - 1)

    def test_distinct_seeds_uncorrelated(self):
        f1 = KWiseFamily(seed=1, degree_k=8)
        f2 = KWiseFamily(seed=2, degree_k=8)
        pts = np.arange(10_000, dtype=np.uint64)
        corr = float(np.mean(f1.rademacher(pts) * f2.rademacher(pts)))
        assert abs(corr) <= 4.0 / np.sqrt(10_000)

    def test_singleton_range(self):
        fam = KWiseFamily(seed=5, degree_k=4)
        assert fam.uniform_range(9, 3, 3)[0] == 3

    def test_empty_range_rejected(self):
        fam = KWiseFamily(seed=5, degree_k=4)
        with pytest.raises(ParameterError):
            fam.uniform_range(9, 4, 3)[0]

    @pytest.mark.parametrize("lo, hi", [(0.5, 9.9), (0, 9.0), (np.float64(0), 9), (False, 9)])
    def test_non_integer_bounds_rejected(self, lo, hi):
        # (0.5, 9.9) once drew silently on [0, 9]
        fam = KWiseFamily(seed=5, degree_k=4)
        with pytest.raises(ParameterError, match="must be an integer"):
            fam.uniform_range(np.arange(10, dtype=np.uint64), lo, hi)

    def test_numpy_integer_bounds_accepted(self):
        fam = KWiseFamily(seed=5, degree_k=4)
        pts = np.arange(100, dtype=np.uint64)
        assert np.array_equal(fam.uniform_range(pts, np.int64(2), np.uint32(11)),
                              fam.uniform_range(pts, 2, 11))

    def test_range_bias_bound(self):
        # width 3 on M61: each value within 4 SE + deterministic bias 3/M61
        fam = KWiseFamily(seed=31, degree_k=8)
        draws = fam.uniform_range(np.arange(90_000, dtype=np.uint64), 0, 2)
        freq = np.bincount(draws, minlength=3) / 90_000
        se = np.sqrt((1 / 3) * (2 / 3) / 90_000)
        assert np.all(np.abs(freq - 1 / 3) <= 4 * se + 3 / M61)

    def test_independent_family_interface(self):
        fam = IndependentFamily(seed=9)
        pts = np.arange(50_000, dtype=np.uint64)
        signs = fam.rademacher(pts)
        assert abs(signs.mean()) <= 4.0 / np.sqrt(50_000)
        draws = fam.uniform_range(pts, 5, 9)
        assert draws.min() >= 5 and draws.max() <= 9
        assert np.array_equal(fam.uniform_range(pts, 5, 9), draws)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    k=st.integers(1, 6),
    index=st.integers(0, 10_000),
)
def test_evaluation_pure_and_in_field(seed, k, index):
    fam = KWiseFamily(seed=seed, degree_k=k)
    v1 = fam.evaluate(np.uint64(index))
    v2 = fam.evaluate(np.uint64(index))
    assert v1 == v2
    assert 0 <= int(v1[0]) < M61


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 64),
    n=st.integers(_CHUNK - 64, 2 * _CHUNK + 64),
)
def test_poly_eval_matches_horner_near_chunk_sizes(seed, k, n):
    rng = np.random.default_rng(seed)
    _assert_matches_horner(rng.integers(0, M61, k, dtype=np.uint64),
                           rng.integers(0, TOP + 1, n, dtype=np.uint64))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 80),
    n=st.integers(1, 4 * _L),
    x0=st.integers(0, TOP),
    step=st.integers(-(1 << 20), 1 << 20),
)
def test_poly_eval_matches_horner_on_progressions(seed, k, n, x0, step):
    x0 = min(max(x0, -step * (n - 1)), TOP - step * (n - 1))  # keep every point in the domain
    points = (x0 + step * np.arange(n, dtype=object)).astype(np.uint64)
    _assert_matches_horner(np.random.default_rng(seed).integers(0, M61, k, dtype=np.uint64), points)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 64),
    n=st.integers(1, 2 * _CHUNK + 64),
)
def test_poly_eval_matches_horner_on_narrow_points(seed, k, n):
    rng = np.random.default_rng(seed)
    _assert_matches_horner(rng.integers(0, M61, k, dtype=np.uint64),
                           rng.integers(0, 1 << 32, n, dtype=np.uint64))
