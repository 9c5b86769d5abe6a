"""Column-restricted builds: hash only the sketch columns an input touches.

A build given ``columns=J`` must equal the full build on J, byte for
byte, and be empty elsewhere; the restricted sketch is never saved and
refuses an input that touches a row outside J.
"""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from subsketch import (
    LeverageScores,
    ParameterError,
    PipelineConfig,
    RankDeficiencyError,
    SketchSpec,
    apply,
    approx_leverage,
    build,
    build_less_ic,
    build_osnap,
    exact_leverage,
    fast_subspace_embed,
    touched_rows,
    validate_scores,
)
from subsketch import leverage, pipeline
from subsketch.apply import as_matrix
from subsketch.leverage import _factor, _r_factor

N = 60


def osnap_spec(seed):
    return SketchSpec(kind="osnap", m=24, n=N, p=0.25, degree_k=8, seed=seed)


def less_spec(seed):
    z = (np.arange(N) % 9 + 1) / 10.0
    return SketchSpec(kind="less-ic", m=32, p=0.25, scores=LeverageScores(z=z, beta1=2.0),
                      degree_k=12, seed=seed)


BUILDERS = {"osnap": (build_osnap, osnap_spec), "less-ic": (build_less_ic, less_spec)}


def assert_restricted_equals_full(full, part, J):
    np.testing.assert_array_equal(part.columns, J)
    assert part.indptr.shape == full.indptr.shape
    counts = np.diff(part.indptr)
    off = np.ones(full.n, dtype=bool)
    off[J] = False
    assert not counts[off].any()
    for j in J:
        a, b = full.indptr[j], full.indptr[j + 1]
        c, d = part.indptr[j], part.indptr[j + 1]
        assert full.rows[a:b].tobytes() == part.rows[c:d].tobytes()
        assert full.values[a:b].tobytes() == part.values[c:d].tobytes()
    assert part.scale == full.scale
    assert part.nnz == int(np.diff(full.indptr)[J].sum())


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(BUILDERS)),
    seed=st.integers(0, 2**31),
    J=st.one_of(
        st.just([]),
        st.integers(0, N - 1).map(lambda j: [j]),
        st.just(list(range(N))),
        st.sets(st.integers(0, N - 1)).map(sorted),
    ),
)
def test_restricted_build_equals_full_on_columns(kind, seed, J):
    builder, make_spec = BUILDERS[kind]
    spec = make_spec(seed)
    J = np.asarray(J, dtype=np.int64)
    full = builder(spec)
    part = builder(spec, columns=J)
    assert_restricted_equals_full(full, part, J)
    via_registry = build(spec, columns=J)
    assert via_registry.rows.tobytes() == part.rows.tobytes()
    assert via_registry.indptr.tobytes() == part.indptr.tobytes()


RELATIONS = ("J in supp(z)", "supp(z) in J", "neither")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), draw=st.integers(0, 2**31),
       relation=st.sampled_from(RELATIONS))
def test_less_ic_restricted_build_with_zero_scores(seed, draw, relation):
    # a zero score makes a single block of height m; so does a tiny one
    rng = np.random.default_rng(draw)
    z = (np.arange(N) % 9 + 1) / 10.0
    z[rng.random(N) < 0.1] = 1e-9
    zero = rng.random(N) < rng.uniform(0.1, 0.9)
    zero[rng.integers(N // 2)] = True  # at least one zero and one nonzero score
    zero[N // 2 + rng.integers(N // 2)] = False
    z[zero] = 0.0
    support, off = np.flatnonzero(~zero), np.flatnonzero(zero)
    some = lambda idx: idx[rng.random(idx.size) < 0.5]  # noqa: E731
    if relation == "J in supp(z)":
        J = some(support)
    elif relation == "supp(z) in J":
        J = np.union1d(support, some(off))
    else:
        J = np.union1d(np.setdiff1d(some(support), support[:1]), off[:1])
        assert not set(support) <= set(J) and not set(J) <= set(support)
    spec = SketchSpec(kind="less-ic", m=32, p=0.25, scores=LeverageScores(z=z, beta1=2.0),
                      degree_k=12, seed=seed)
    assert_restricted_equals_full(build_less_ic(spec), build_less_ic(spec, columns=J), J)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_all_columns_equals_full_product(kind):
    builder, make_spec = BUILDERS[kind]
    spec = make_spec(3)
    A = np.random.default_rng(0).standard_normal((N, 4))
    full = builder(spec)
    part = builder(spec, columns=np.arange(N))
    assert apply(part, A).tobytes() == apply(full, A).tobytes()


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("J", [[3, 1], [2, 2, 5], [-1, 4], [0, N], [[1, 2]], [0.0, 1.0],
                               [True, False], np.array([3, 1], dtype=np.uint64),
                               np.array([2**63 + 1], dtype=np.uint64)])
def test_bad_columns_rejected(kind, J):
    builder, make_spec = BUILDERS[kind]
    with pytest.raises(ParameterError):
        builder(make_spec(0), columns=J)


@pytest.mark.parametrize("fields", [
    dict(kind="ose-ie", m=16, n=N, p=0.25),
    dict(kind="less-ie", m=16, p=0.25, scores=LeverageScores(z=np.full(N, 0.1))),
    dict(kind="gaussian-dense", m=8, n=N, p=1.0),
])
def test_registry_rejects_columns_for_other_kinds(fields):
    with pytest.raises(ParameterError):
        build(SketchSpec(**fields), columns=[0, 1])


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_restricted_sketch_is_never_saved(kind, tmp_path):
    builder, make_spec = BUILDERS[kind]
    part = builder(make_spec(1), columns=[0, 5])
    with pytest.raises(ParameterError):
        part.save(tmp_path / "s.skt")
    assert not (tmp_path / "s.skt").exists()


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_apply_refuses_rows_outside_columns(kind):
    builder, make_spec = BUILDERS[kind]
    part = builder(make_spec(2), columns=[1, 4, 7])
    inside = scipy.sparse.csr_matrix(([1.0, 2.0], ([1, 7], [0, 1])), shape=(N, 2))
    full = builder(make_spec(2))
    assert apply(part, inside).tobytes() == apply(full, inside).tobytes()
    # an explicit zero is a stored entry too
    outside = scipy.sparse.csr_matrix(([1.0, 0.0], ([1, 8], [0, 1])), shape=(N, 2))
    with pytest.raises(ParameterError):
        apply(part, outside)
    dense = np.zeros((N, 2))
    dense[9, 0] = 1.0
    with pytest.raises(ParameterError):
        apply(part, dense)


def _touched_input(n=6000, d=6, seed=5):
    rng = np.random.default_rng(seed)
    A = scipy.sparse.random(n, d, density=150 / (n * d), random_state=rng, format="csr")
    lift = scipy.sparse.csr_matrix(
        (rng.uniform(1, 2, d), (np.arange(d), np.arange(d))), shape=(n, d)
    )
    return (A + lift).tocsr()


@pytest.mark.parametrize("kind", ["osnap", "less-ic"])
def test_sparse_input_embeds_like_dense_and_reports_full_nnz(kind):
    # a dense input builds the full sketch; a sparse one only its touched columns
    A = _touched_input(seed=9)
    config = PipelineConfig(eps=0.5, delta=0.05, seed=8, kind=kind)
    sparse_out, sparse_report = fast_subspace_embed(A, config)
    dense_out, dense_report = fast_subspace_embed(A.toarray(), config)
    np.testing.assert_allclose(sparse_out, dense_out, rtol=1e-12, atol=1e-12)
    assert sparse_report.nnz_sketch == dense_report.nnz_sketch
    assert sparse_report.nnz_sketch > 10 * sparse_report.nnz_input


def test_leverage_restricted_to_touched_rows():
    A = _touched_input(seed=11)
    sparse = approx_leverage(A, 0.25, seed=4)
    dense = approx_leverage(A.toarray(), 0.25, seed=4)
    np.testing.assert_allclose(sparse.z, dense.z, rtol=1e-10, atol=1e-14)
    assert sparse.beta1 == dense.beta1
    # the estimate is formed on the touched rows alone: exactly 0 elsewhere
    off = np.ones(A.shape[0], dtype=bool)
    off[touched_rows(A)] = False
    assert off.sum() > A.shape[0] // 2
    assert np.all(sparse.z[off] == 0.0) and np.all(sparse.z[~off] > 0.0)


@pytest.mark.parametrize("kind", ["osnap", "ose-ie", "less-ic", "less-ie", "gaussian-dense"])
@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_sparse_input_converted_to_csr_once(kind, fmt, monkeypatch):
    # the gate converts once; every later stage reads its CSR
    A = _touched_input(seed=15).asformat(fmt)
    calls = []
    for cls in (scipy.sparse.csr_matrix, scipy.sparse.csc_matrix, scipy.sparse.coo_matrix):
        def counting(self, *args, _orig=cls.tocsr, **kwargs):
            calls.append(self.format)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, "tocsr", counting)
    config = PipelineConfig(eps=0.5, delta=0.05, seed=3, kind=kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the less-ie clamp warning
        fast_subspace_embed(A, config)
    assert calls == ([] if fmt == "csr" else [fmt])


def test_exact_scores_follow_touched_rows():
    A = _touched_input(seed=14)
    sparse = exact_leverage(A)
    np.testing.assert_allclose(sparse.z, exact_leverage(A.toarray()).z, rtol=0, atol=1e-12)
    off = np.ones(A.shape[0], dtype=bool)
    off[touched_rows(A)] = False
    assert off.sum() > A.shape[0] // 2
    assert np.all(sparse.z[off] == 0.0) and np.all(sparse.z[~off] > 0.0)
    scores = approx_leverage(A, 0.25, seed=2)
    got, want = validate_scores(A, scores), validate_scores(A.toarray(), scores)
    assert (got.passed, got.violating_indices) == (want.passed, want.violating_indices)
    np.testing.assert_allclose([got.lower_margin, got.sum_margin],
                               [want.lower_margin, want.sum_margin], rtol=0, atol=1e-12)


def test_every_storage_gives_the_same_exact_scores():
    # a dense A, its CSR, CSC and COO copies and CSR with stored zeros in
    # zero rows: one exact reference, in which every zero row scores 0
    rng = np.random.default_rng(21)
    A = rng.standard_normal((4096, 32))
    A[rng.random(4096) < 0.3] = 0.0
    zero = np.flatnonzero(~A.any(axis=1))
    csr = scipy.sparse.csr_matrix(A)
    coo = csr.tocoo()
    stored_zeros = scipy.sparse.csr_matrix(
        (np.append(coo.data, np.zeros(8)),
         (np.append(coo.row, zero[:8]), np.append(coo.col, np.arange(8)))), shape=A.shape)
    assert stored_zeros.nnz == csr.nnz + 8
    forms = [A, csr, csr.tocsc(), coo, stored_zeros]
    exact = [exact_leverage(X) for X in forms]
    assert len({e.digest() for e in exact}) == 1
    assert np.all(exact[0].z[zero] == 0.0)
    scores = approx_leverage(csr, 0.25, seed=2)
    checks = [validate_scores(X, scores) for X in forms]
    assert len({(c.lower_margin, c.sum_margin, tuple(c.violating_indices)) for c in checks}) == 1
    # the approximate scores of a dense and a sparse A differ in their last bits
    config = PipelineConfig(eps=0.5, delta=0.05, seed=3, validate=True)
    dense, sparse = (fast_subspace_embed(X, config)[1].beta1_measured for X in (A, csr))
    assert sparse == pytest.approx(dense, rel=1e-9)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_compact_product_is_the_full_product(kind, fmt):
    builder, make_spec = BUILDERS[kind]
    spec = make_spec(6)
    A = scipy.sparse.random(N, 5, density=0.05, random_state=np.random.default_rng(2),
                            format=fmt)
    part = builder(spec, columns=touched_rows(A))
    assert part.columns.size < N
    assert np.array_equal(apply(part, A), apply(builder(spec), A))


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("fmt", ["csc", "coo"])
def test_explicit_zero_outside_columns_rejected_in_any_format(kind, fmt):
    # row 8 holds only an explicit zero: still a stored entry outside J
    builder, make_spec = BUILDERS[kind]
    part = builder(make_spec(2), columns=[1, 4, 7])
    A = scipy.sparse.coo_matrix(([1.0, 2.0, 0.0], ([1, 7, 8], [0, 1, 1])), shape=(N, 2))
    with pytest.raises(ParameterError):
        apply(part, A.asformat(fmt))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_restricted_build_memory_does_not_scale_with_n():
    # only the n + 1 column pointers may grow with n
    n = 1 << 22
    spec = SketchSpec(kind="osnap", m=64, n=n, p=4 / 64, degree_k=8, seed=3)
    J = np.arange(0, n, n // 64)
    part, peak = _traced_peak(lambda: build_osnap(spec, columns=J))
    assert part.nnz == 4 * 64
    assert peak < 2 * (n + 1) * 8, peak / ((n + 1) * 8)


def test_restricted_less_ic_memory_does_not_scale_with_n():
    # heights and counts on the built columns and the score support only
    n = 1 << 22
    J = np.arange(0, n, n // 100)[:100]
    z = np.zeros(n)
    z[J] = np.linspace(0.05, 1.0, J.size)
    spec = SketchSpec(kind="less-ic", m=64, p=4 / 64, degree_k=8, seed=3,
                      scores=LeverageScores(z=z, beta1=2.0))
    part, peak = _traced_peak(lambda: build_less_ic(spec, columns=J))
    assert part.nnz > J.size
    assert peak < 2 * (n + 1) * 8, peak / ((n + 1) * 8)


@pytest.mark.parametrize("touched", [0, 1, 5])
def test_fewer_touched_rows_than_columns_is_rank_deficient(touched):
    # A[J] then has fewer rows than columns, so its QR has fewer than d pivots
    d = 6
    A = scipy.sparse.csr_matrix((np.ones(touched), (np.arange(touched) * 7, np.arange(touched))),
                                shape=(100, d))
    with pytest.raises(ParameterError, match="rank deficient"):
        _r_factor(A[touched_rows(A)].toarray(), A.shape[0])
    with pytest.raises(RankDeficiencyError) as err:
        exact_leverage(A)
    assert err.value.numerical_rank == touched


def test_checks_on_sparse_input_do_not_densify_n_rows():
    # a QR or SVD of all n rows would hold n * d * 8 bytes; these hold A[J]
    # plus one n-byte row mask, and exact_leverage its n scores
    n, d = 1 << 22, 4
    rng = np.random.default_rng(3)
    J = np.arange(0, n, n // 64)
    A = scipy.sparse.csr_matrix(
        (rng.uniform(1, 2, J.size * d), (np.repeat(J, d), np.tile(np.arange(d), J.size))),
        shape=(n, d),
    )
    R, peak = _traced_peak(lambda: _factor(as_matrix(A, tall=True, finite=True)).R)
    assert R.shape == (d, d)
    assert peak < 2 * n, peak / n
    scores, peak = _traced_peak(lambda: exact_leverage(A))
    assert np.count_nonzero(scores.z) == J.size
    assert peak < 8 * n + 2 * n, peak / n


def _with_duplicates(seed=0):
    # row 3 is a zero row; it gets two stored entries at (3, 0) summing to 0
    A = np.random.default_rng(seed).standard_normal((400, 8))
    A[::3] = 0.0
    csr = scipy.sparse.csr_matrix(A)
    at = csr.indptr[3]
    data = np.insert(csr.data, at, [1.0, -1.0])
    indices = np.insert(csr.indices, at, [0, 0])
    indptr = csr.indptr + np.where(np.arange(401) > 3, 2, 0)
    return A, scipy.sparse.csr_matrix((data, indices, indptr), shape=A.shape)


def test_duplicate_entries_sum_on_a_copy():
    A, dup = _with_duplicates()
    assert not dup.has_canonical_format and dup.nnz == np.count_nonzero(A) + 2
    kept = [x.copy() for x in (dup.data, dup.indices, dup.indptr)]
    exact = exact_leverage(dup)
    assert exact.digest() == exact_leverage(A).digest()
    assert exact.z[3] == 0.0
    got, want = approx_leverage(dup, 0.25, seed=1), approx_leverage(A, 0.25, seed=1)
    assert got.beta1 == want.beta1
    assert got.z[3] == 0.0
    # the caller's matrix keeps its entries
    for before, after in zip(kept, (dup.data, dup.indices, dup.indptr)):
        assert before.tobytes() == after.tobytes()


def _forms(scores):
    # the same scores held on their rows and as a full vector
    return scores, LeverageScores(z=scores.z, beta1=scores.beta1, beta2=scores.beta2)


@pytest.mark.parametrize("estimate", ["approx", "exact"])
def test_scores_on_rows_equal_the_full_vector(estimate):
    A = _touched_input(seed=17)
    held = approx_leverage(A, 0.25, seed=5) if estimate == "approx" else exact_leverage(A)
    assert held.rows is not None and held.rows.size < A.shape[0] // 2
    held, full = _forms(held)
    assert full.rows is None
    assert held.n == full.n == A.shape[0]
    assert held.digest() == full.digest()
    assert held.to_dict() == full.to_dict()
    back = LeverageScores.from_dict(held.to_dict())
    assert back.digest() == held.digest() and back.n == held.n
    idx = np.array([0, 1, *held.rows[:5], A.shape[0] - 1])
    assert held.at(idx).tobytes() == full.at(idx).tobytes() == full.z[idx].tobytes()
    J = touched_rows(A)
    for builder_spec in (dict(m=64, p=4 / 64), dict(m=40, p=0.25)):
        parts = [build_less_ic(SketchSpec(kind="less-ic", degree_k=12, seed=9, scores=s,
                                          **builder_spec), columns=J) for s in (held, full)]
        for attr in ("rows", "values", "indptr", "built_indptr"):
            assert getattr(parts[0], attr).tobytes() == getattr(parts[1], attr).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 1.5])
def test_scores_on_rows_are_checked(bad):
    rows = np.array([2, 5, 7])
    good = LeverageScores._on_rows(10, rows, np.array([0.5, 1.0 + 1e-13, -1e-13]))
    assert good.z_rows.tobytes() == np.array([0.5, 1.0, 0.0]).tobytes()
    assert good.z[[2, 5, 7]].tolist() == [0.5, 1.0, 0.0] and good.z.sum() == 1.5
    with pytest.raises(ParameterError):
        LeverageScores._on_rows(10, rows, np.array([0.5, bad, 0.25]))


@pytest.mark.parametrize("validate", [False, True])
def test_embed_memory_follows_touched_rows(validate):
    # embed-sparse's ~3.4k touched rows at n = 2^22: past touched_rows'
    # n-byte row mask no array of length n, float or pointer, is made
    n, d = 1 << 22, 32
    rng = np.random.default_rng(1)
    A = scipy.sparse.random(n, d, density=3400 / (n * d), random_state=rng, format="csr")
    A = (A + scipy.sparse.csr_matrix(
        (rng.uniform(1, 2, d), (np.arange(d), np.arange(d))), shape=(n, d))).tocsr()
    config = PipelineConfig(eps=0.5, delta=0.05, seed=3, kind="less-ic", validate=validate)
    (out, report), peak = _traced_peak(lambda: fast_subspace_embed(A, config))
    assert out.shape == (report.m, d) and (report.distortion is not None) == validate
    assert peak < 2 * n, peak / n


def _support_input(touched, stored_zero=False, n=6000, d=6, seed=19):
    # ~``touched`` random entries plus a diagonal; ``stored_zero`` adds an
    # explicit zero in an untouched row, so J holds a row that is not nonzero
    A = _touched_input(n, d, seed).tocoo()
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, n, touched), rng.integers(0, d, touched)
    A = scipy.sparse.csr_matrix((np.append(A.data, rng.uniform(1, 2, touched)),
                                 (np.append(A.row, rows), np.append(A.col, cols))), shape=(n, d))
    if stored_zero:
        free = np.setdiff1d(np.arange(n), touched_rows(A))[0]
        coo = A.tocoo()
        A = scipy.sparse.csr_matrix((np.append(coo.data, 0.0), (np.append(coo.row, free),
                                                                 np.append(coo.col, 0))),
                                    shape=(n, d))
    return A


def _count_passes(monkeypatch):
    # touched_rows under every module name it is called by, and scipy's
    # fancy row slice of a compressed matrix
    calls = {"touched_rows": 0, "fancy": []}

    def touched(A, _orig=touched_rows):
        calls["touched_rows"] += 1
        return _orig(A)

    def fancy(self, idx, _orig=scipy.sparse._compressed._cs_matrix._major_index_fancy):
        calls["fancy"].append(self.shape)
        return _orig(self, idx)

    for module in (sys.modules["subsketch.apply"], leverage, pipeline):
        monkeypatch.setattr(module, "touched_rows", touched)
    monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "_major_index_fancy", fancy)
    return calls


@pytest.mark.parametrize("kind", ["osnap", "less-ic"])
@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("touched, stored_zero", [(150, False), (3000, False), (150, True)],
                         ids=["direct", "sketch", "stored-zero"])
def test_one_support_per_op(kind, validate, touched, stored_zero, monkeypatch):
    # an op finds J once and reads A's rows through one view: no fancy
    # slice of A, with few or many touched rows, validated or not
    A = _support_input(touched, stored_zero)
    calls = _count_passes(monkeypatch)
    config = PipelineConfig(eps=0.5, delta=0.05, seed=3, kind=kind, validate=validate)
    out, report = fast_subspace_embed(A, config)
    assert calls == {"touched_rows": 1, "fancy": []}
    want, _ = fast_subspace_embed(A.toarray(), config)
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)


def _read_only(A):
    for array in (A.data, A.indices, A.indptr):
        array.flags.writeable = False
    return A, [array.copy() for array in (A.data, A.indices, A.indptr)]


@pytest.mark.parametrize("touched", [150, 3000], ids=["direct", "sketch"])
def test_nothing_writes_into_the_callers_arrays(touched):
    # A[J] shares A's data and indices: every stage reads them, none writes
    A, before = _read_only(_support_input(touched))
    assert A.has_canonical_format
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the less-ie clamp warning
        for kind in ("osnap", "ose-ie", "less-ic", "less-ie", "gaussian-dense"):
            for validate in (False, True):
                fast_subspace_embed(A, PipelineConfig(eps=0.5, delta=0.05, seed=3, kind=kind,
                                                      validate=validate))
    approx_leverage(A, 0.25, seed=1)
    exact_leverage(A)
    part = build_osnap(SketchSpec(kind="osnap", m=24, n=A.shape[0], p=0.25, degree_k=8, seed=2),
                       columns=touched_rows(A))
    assert np.array_equal(apply(part, A), apply(part, A.toarray()))
    for old, new in zip(before, (A.data, A.indices, A.indptr)):
        assert old.tobytes() == new.tobytes() and not new.flags.writeable
