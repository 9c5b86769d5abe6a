"""Application kernel: dense-oracle equivalence, linearity, IO round trips."""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from subsketch import (
    FormatError,
    LeverageScores,
    ParameterError,
    PipelineConfig,
    SketchSpec,
    SparseSketch,
    apply,
    approx_leverage,
    build_less_ic,
    build_ose_ie,
    build_osnap,
    exact_leverage,
    fast_subspace_embed,
    load_matrix,
    load_sketch,
    save_matrix,
)


def random_sketch(kind, rng, m, n, seed):
    if kind == "osnap":
        divisors = [s for s in range(1, m + 1) if m % s == 0]
        s = int(rng.choice(divisors))
        return build_osnap(SketchSpec.from_sparsity("osnap", m=m, n=n, s=s, seed=seed))
    if kind == "ose-ie":
        p = float(rng.uniform(0.05, 0.9))
        return build_ose_ie(SketchSpec(kind="ose-ie", m=m, n=n, p=p, seed=seed))
    z = np.clip(rng.uniform(0.0, 1.0, n), 0.0, 1.0)
    p = float(rng.uniform(2.0 / m, 0.5))
    spec = SketchSpec(kind="less-ic", m=m, p=p, scores=LeverageScores(z=z), seed=seed)
    return build_less_ic(spec)


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", ["osnap", "ose-ie", "less-ic"])
    def test_apply_matches_dense_multiply(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for trial in range(6):
            m = int(rng.integers(4, 64))
            n = int(rng.integers(m, 256))
            d = int(rng.integers(1, 16))
            sk = random_sketch(kind, rng, m, n, seed=trial)
            A = rng.standard_normal((n, d))
            got = apply(sk, A)
            want = sk.materialize() @ A
            err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-30)
            assert err <= 1e-12

    def test_sparse_input_matches_dense_input(self):
        rng = np.random.default_rng(1)
        sk = random_sketch("osnap", rng, 32, 200, seed=9)
        A = scipy.sparse.random(200, 8, density=0.1, random_state=2, format="csr")
        np.testing.assert_allclose(apply(sk, A), apply(sk, A.toarray()), atol=1e-14)

    def test_zero_matrix(self):
        rng = np.random.default_rng(2)
        sk = random_sketch("osnap", rng, 16, 64, seed=3)
        assert np.all(apply(sk, np.zeros((64, 5))) == 0)

    def test_signed_permutation_pattern(self):
        # hand-built sketch with one +-1 per column at row j
        m = n = 6
        signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        spec = SketchSpec.from_sparsity("osnap", m=m, n=n, s=1, seed=0)
        sk = SparseSketch(spec=spec, indptr=np.arange(n + 1),
                          rows=np.arange(n), values=signs)
        A = np.random.default_rng(4).standard_normal((n, 3))
        np.testing.assert_allclose(apply(sk, A), signs[:, None] * A)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        sk = random_sketch("less-ic", rng, 24, 100, seed=6)
        A = rng.standard_normal((100, 6))
        C = rng.standard_normal((6, 6))
        lhs = apply(sk, A @ C)
        rhs = apply(sk, A) @ C
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        sk = random_sketch("osnap", rng, 8, 32, seed=1)
        with pytest.raises(ParameterError):
            apply(sk, np.ones((33, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_input_rejected(self, bad, sparse):
        rng = np.random.default_rng(7)
        sk = random_sketch("osnap", rng, 8, 32, seed=2)
        A = np.ones((32, 3))
        A[5, 1] = bad
        with pytest.raises(ParameterError, match="NaN or Inf"):
            apply(sk, scipy.sparse.csr_matrix(A) if sparse else A)


class TestVectorApply:
    """``apply`` takes a 1-D vector as well and returns a length-m vector."""

    def test_basis_vector_picks_column(self):
        rng = np.random.default_rng(7)
        sk = random_sketch("osnap", rng, 16, 50, seed=2)
        dense = sk.materialize()
        for j in (0, 17, 49):
            e = np.zeros(50)
            e[j] = 1.0
            np.testing.assert_allclose(apply(sk, e), dense[:, j])

    def test_additivity(self):
        rng = np.random.default_rng(8)
        sk = random_sketch("ose-ie", rng, 16, 50, seed=3)
        x = np.zeros(50)
        x[4] = 1.0
        x[31] = 1.0
        dense = sk.materialize()
        np.testing.assert_allclose(apply(sk, x), dense[:, 4] + dense[:, 31])

    def test_random_vector_oracle(self):
        rng = np.random.default_rng(9)
        sk = random_sketch("less-ic", rng, 20, 80, seed=4)
        x = rng.standard_normal(80)
        want = sk.materialize() @ x
        got = apply(sk, x)
        assert got.shape == (20,)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-12


# the entry points that take a tall input matrix, each through the one gate
TALL_ENTRY_POINTS = {
    "fast_subspace_embed": lambda A: fast_subspace_embed(A, PipelineConfig(eps=0.5, delta=0.05))[0],
    "approx_leverage": lambda A: approx_leverage(A, 0.5).z,
    "exact_leverage": lambda A: exact_leverage(A).z,
}
TALL = np.vstack([np.eye(3), np.arange(51.0).reshape(17, 3) % 7])  # 20x3, full column rank

BAD_TALL_INPUTS = {
    "complex-dense": lambda: TALL * (1 + 1j),
    "complex-sparse": lambda: scipy.sparse.csr_matrix(TALL * (1 + 1j)),
    "one-dimensional": lambda: TALL[:, 0],
    "d-zero": lambda: np.ones((20, 0)),
    "sparse-n-by-zero": lambda: scipy.sparse.csr_matrix((20, 0)),
    "strings": lambda: [["1", "2", "3"]] * 20,
    "ragged-list": lambda: [[1.0, 2.0, 3.0]] * 19 + [[1.0]],
}


class TestInputGate:
    """Every entry point reads a matrix through ``apply.as_matrix``: bad
    input is a ParameterError, never a ValueError, AttributeError or a
    complex result."""

    @pytest.mark.parametrize("entry", sorted(TALL_ENTRY_POINTS))
    @pytest.mark.parametrize("case", sorted(BAD_TALL_INPUTS))
    def test_bad_input_is_parameter_error(self, entry, case):
        with pytest.raises(ParameterError):
            TALL_ENTRY_POINTS[entry](BAD_TALL_INPUTS[case]())

    @pytest.mark.parametrize("entry", sorted(TALL_ENTRY_POINTS))
    def test_plain_list_reads_as_an_array(self, entry):
        got = TALL_ENTRY_POINTS[entry](TALL.tolist())
        assert got.tobytes() == TALL_ENTRY_POINTS[entry](TALL).tobytes()

    @pytest.mark.parametrize("entry", sorted(TALL_ENTRY_POINTS))
    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_sparse_input_reads_as_float64(self, entry, fmt):
        # a float32 CSR once gave exact scores from a float32 SVD
        A32 = scipy.sparse.csr_matrix(TALL / 7.0, dtype=np.float32)
        got = TALL_ENTRY_POINTS[entry](A32.asformat(fmt))
        want = TALL_ENTRY_POINTS[entry](A32.astype(np.float64))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sparse", [False, True])
    def test_apply_rejects_complex_input(self, sparse):
        sk = random_sketch("osnap", np.random.default_rng(3), 8, 20, seed=1)
        A = TALL * (1 + 1j)
        with pytest.raises(ParameterError, match="real"):
            apply(sk, scipy.sparse.csr_matrix(A) if sparse else A)

    def test_apply_reads_a_list(self):
        sk = random_sketch("less-ic", np.random.default_rng(4), 8, 20, seed=2)
        assert apply(sk, TALL.tolist()).tobytes() == apply(sk, TALL).tobytes()
        assert apply(sk, TALL[:, 1].tolist()).tobytes() == apply(sk, TALL[:, 1]).tobytes()


class TestMaterialize:
    def test_osnap_entry_count_and_magnitude(self):
        spec = SketchSpec.from_sparsity("osnap", m=4, n=3, s=2, seed=7)
        dense = build_osnap(spec).materialize()
        assert np.count_nonzero(dense) == 6
        np.testing.assert_allclose(np.abs(dense[dense != 0]), 1 / math.sqrt(2))

    def test_column_norms_are_one(self):
        spec = SketchSpec.from_sparsity("osnap", m=64, n=20, s=8, seed=8)
        dense = build_osnap(spec).materialize()
        np.testing.assert_allclose(np.linalg.norm(dense, axis=0), 1.0, rtol=1e-12)

    def test_memory_cap(self):
        # 8192^2 = 67M entries, above the 50M cap
        spec = SketchSpec.from_sparsity("osnap", m=8192, n=8192, s=1, seed=0)
        sk = build_osnap(spec)
        with pytest.raises(ParameterError, match="cap"):
            sk.materialize()


class TestMatrixMarketIO:
    def test_dense_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((7, 3))
        path = tmp_path / "a.mtx"
        save_matrix(path, A)
        np.testing.assert_array_equal(load_matrix(path), A)

    def test_sparse_roundtrip(self, tmp_path):
        A = scipy.sparse.random(40, 5, density=0.2, random_state=1, format="csr")
        path = tmp_path / "s.mtx"
        save_matrix(path, A)
        B = load_matrix(path)
        assert scipy.sparse.issparse(B)
        np.testing.assert_allclose(B.toarray(), A.toarray())

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 oops\n")
        with pytest.raises(FormatError):
            load_matrix(path)


class TestSketchFileFormat:
    @pytest.mark.parametrize("kind", ["osnap", "less-ic"])
    def test_roundtrip(self, tmp_path, kind):
        rng = np.random.default_rng(13)
        sk = random_sketch(kind, rng, 32, 100, seed=21)
        path = tmp_path / "s.skt"
        sk.save(path)
        back = load_sketch(path)
        assert back.spec.kind == sk.spec.kind
        assert back.spec.m == sk.m and back.spec.n == sk.n
        assert back.scale == sk.scale
        assert np.array_equal(back.indptr, sk.indptr)
        assert np.array_equal(back.rows, sk.rows)
        assert np.array_equal(back.values, sk.values)

    def test_less_header_carries_betas_and_digest(self, tmp_path):
        rng = np.random.default_rng(14)
        sk = random_sketch("less-ic", rng, 16, 40, seed=5)
        path = tmp_path / "s.skt"
        sk.save(path)
        back = load_sketch(path)
        assert back.extras["beta1"] == sk.spec.scores.beta1
        assert back.extras["scores_sha256"] == sk.spec.scores.digest()
        # a loaded sketch has no scores but writes the same header back
        back.save(tmp_path / "again.skt")
        assert (tmp_path / "again.skt").read_bytes() == path.read_bytes()

    def test_save_copies_no_array(self, tmp_path):
        # each array once went through astype(...).tobytes(): two full copies
        sk = build_osnap(SketchSpec.from_sparsity("osnap", m=64, n=2**18, s=4, seed=3))
        assert sk.nnz >= 10**6
        path = tmp_path / "s.skt"
        tracemalloc.start()
        try:
            sk.save(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        header, indptr, rows, values = _skt_parts(path)
        assert header["nnz"] == sk.nnz
        assert indptr.tobytes() + rows.tobytes() + values.tobytes() == (
            sk.indptr.tobytes() + sk.rows.tobytes() + sk.values.tobytes())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.skt"
        path.write_bytes(b"NOTASKCH" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_sketch(path)

    def test_applied_result_matches_after_reload(self, tmp_path):
        rng = np.random.default_rng(15)
        sk = random_sketch("osnap", rng, 24, 80, seed=6)
        A = rng.standard_normal((80, 4))
        path = tmp_path / "s.skt"
        sk.save(path)
        np.testing.assert_array_equal(apply(load_sketch(path), A), apply(sk, A))


def _skt_parts(path):
    """(header dict, indptr, rows, values) of a saved sketch file."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    n, nnz = header["n"], header["nnz"]
    arrays = np.frombuffer(raw, dtype="<i8", offset=16 + hlen, count=n + 1 + nnz)
    values = np.frombuffer(raw, dtype="<f8", offset=16 + hlen + 8 * (n + 1 + nnz))
    return header, arrays[:n + 1].copy(), arrays[n + 1:].copy(), values.copy()


def _write_skt(path, header, indptr, rows, values, tail=b""):
    h = json.dumps(header).encode()
    path.write_bytes(b"SKCHv001" + len(h).to_bytes(8, "little") + h + indptr.tobytes()
                     + rows.tobytes() + values.tobytes() + tail)


def _corrupt(header, indptr, rows, values, case):
    """Apply one named corruption in place; returns trailing bytes to append."""
    header_edits = {
        "unknown-kind": ("kind", "fft"), "zero-m": ("m", 0), "string-m": ("m", "16"),
        "float-m": ("m", 16.0), "p-above-one": ("p", 1.5), "p-zero": ("p", 0.0),
        "wrong-scale": ("scale", 2 * header["scale"]), "negative-nnz": ("nnz", -1),
        "unknown-family": ("family", "lcg"),
    }
    if case in header_edits:
        key, value = header_edits[case]
        header[key] = value
    elif case == "missing-key":
        del header["degree_k"]
    elif case == "indptr-start":
        indptr[0] = 1
    elif case == "indptr-non-monotone":
        indptr[3], indptr[4] = indptr[4], indptr[3]
    elif case == "indptr-end":
        indptr[-1] = 5
    elif case == "row-too-large":
        rows[7] = 999
    elif case == "row-negative":
        rows[0] = -1
    elif case == "rows-not-increasing":
        rows[0], rows[1] = rows[1], rows[0]
    elif case == "nan-value":
        values[2] = np.nan
    elif case == "inf-value":
        values[2] = np.inf
    elif case == "trailing-bytes":
        return b"\0" * 8
    return b""


SKT_CORRUPTIONS = [
    "unknown-kind", "zero-m", "string-m", "float-m", "p-above-one", "p-zero",
    "wrong-scale", "negative-nnz", "unknown-family", "missing-key", "indptr-start",
    "indptr-non-monotone", "indptr-end", "row-too-large", "row-negative",
    "rows-not-increasing", "nan-value", "inf-value", "trailing-bytes",
]


class TestSketchFileBoundary:
    @pytest.fixture
    def valid(self, tmp_path):
        path = tmp_path / "ok.skt"
        build_osnap(SketchSpec(kind="osnap", m=16, n=50, p=0.25, seed=1)).save(path)
        return path

    @pytest.mark.parametrize("case", SKT_CORRUPTIONS)
    def test_corruption_rejected(self, valid, tmp_path, case):
        header, indptr, rows, values = _skt_parts(valid)
        tail = _corrupt(header, indptr, rows, values, case)
        bad = tmp_path / f"{case}.skt"
        _write_skt(bad, header, indptr, rows, values, tail)
        with pytest.raises(FormatError):
            load_sketch(bad)

    def test_truncated_payload_rejected(self, valid, tmp_path):
        bad = tmp_path / "short.skt"
        bad.write_bytes(valid.read_bytes()[:-3])
        with pytest.raises(FormatError):
            load_sketch(bad)

    def test_truncated_header_rejected(self, valid, tmp_path):
        bad = tmp_path / "short-header.skt"
        bad.write_bytes(valid.read_bytes()[:20])
        with pytest.raises(FormatError):
            load_sketch(bad)

    def test_file_with_another_family_round_trips(self, tmp_path):
        # written by `subsketch sketch --kind ose-ie --family kwise --m 8 --n 12
        # --p 0.25 --seed 3` while the family was still a spec field
        path = Path(__file__).parent / "data" / "ose-ie-kwise.skt"
        raw = path.read_bytes()
        assert hashlib.sha256(raw).hexdigest() == (
            "ade5931745cdb08e403381d6920bdac07d4b7cd04959eaabc53909a7b8ecbf5b")
        sk = load_sketch(path)
        # its K, which ose-ie never read, moves to extras with the old family
        assert sk.spec.family == "independent" and sk.spec.degree_k is None
        assert sk.extras == {"degree_k": 8, "family": "kwise"}
        _, indptr, rows, values = _skt_parts(path)
        S = scipy.sparse.csc_matrix((values, rows, indptr), shape=(8, 12)).toarray()
        A = np.arange(36.0).reshape(12, 3)
        np.testing.assert_allclose(apply(sk, A), sk.scale * S @ A, rtol=1e-14)
        sk.save(tmp_path / "again.skt")
        assert (tmp_path / "again.skt").read_bytes() == raw

    def test_absent_family_reads_as_kwise(self, valid, tmp_path):
        header, indptr, rows, values = _skt_parts(valid)
        del header["family"]
        _write_skt(tmp_path / "osnap.skt", header, indptr, rows, values)
        assert load_sketch(tmp_path / "osnap.skt").extras == {}
        header["kind"] = "ose-ie"  # a kind of the independent model
        _write_skt(tmp_path / "ose-ie.skt", header, indptr, rows, values)
        assert load_sketch(tmp_path / "ose-ie.skt").extras == {"degree_k": 8, "family": "kwise"}

    @pytest.mark.parametrize("value", [2.5, "8", 0, True])
    def test_old_k_of_a_kind_that_does_not_hash_is_checked(self, valid, tmp_path, value):
        header, indptr, rows, values = _skt_parts(valid)
        header |= {"kind": "ose-ie", "degree_k": value}
        _write_skt(tmp_path / "ose-ie.skt", header, indptr, rows, values)
        with pytest.raises(FormatError, match="degree_k"):
            load_sketch(tmp_path / "ose-ie.skt")

    def test_rewritten_valid_file_still_loads(self, valid, tmp_path):
        # the corruption helpers themselves leave a valid file valid
        header, indptr, rows, values = _skt_parts(valid)
        again = tmp_path / "again.skt"
        _write_skt(again, header, indptr, rows, values)
        assert again.read_bytes() == valid.read_bytes()
        assert load_sketch(again).nnz == 200
