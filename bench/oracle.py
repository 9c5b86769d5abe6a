"""Reference computations for the benchmark's correctness checks.

Nothing here imports subsketch.  The file readers, the sketch product and
the hash oracle are written from the documented formats and formulas, so
a defect in the library cannot hide behind a shared helper:

* ``splitmix`` / ``derive_seed`` follow the splitmix64 definition with
  Python integers;
* ``osnap_arrays`` evaluates the blocked one-hot construction with exact
  Python-integer polynomial arithmetic over GF(2^61 - 1);
* ``scatter_product`` forms scale * S @ A one sketch column at a time
  from the CSC arrays, with numpy only;
* the Matrix Market and ``.skt`` readers parse the bytes directly.
"""

import json

import numpy as np
import scipy.linalg

M61 = (1 << 61) - 1
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def splitmix(seed, index):
    """Element ``index`` of the splitmix64 stream for ``seed``."""
    z = (seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed, salt):
    """Child seed as the library documents it: splitmix64(seed) at ``salt``."""
    return splitmix(seed & _MASK64, salt & _MASK64)


def _poly_m61(coeffs, points):
    """Horner evaluation over GF(M61) on object arrays of Python ints."""
    acc = np.full(points.shape, coeffs[-1], dtype=object)
    for c in coeffs[-2::-1]:
        acc = (acc * points + c) % M61
    return acc


def osnap_arrays(seed, degree_k, m, n, s):
    """(indptr, rows, values) of the ``osnap`` sketch for a K-wise family.

    Coefficient t is splitmix64(seed, t) mod M61.  Entry gamma of column l
    uses point 2*(l*s + gamma) for its sign (odd value -> +1) and the next
    point for its offset floor(v * block / M61) inside block gamma.
    """
    coeffs = [splitmix(seed, t) % M61 for t in range(degree_k)]
    block = m // s
    idx = np.arange(n * s, dtype=object)
    v_sign = _poly_m61(coeffs, 2 * idx)
    v_off = _poly_m61(coeffs, 2 * idx + 1)
    values = np.where((v_sign % 2).astype(np.int64) == 1, 1.0, -1.0)
    offsets = ((v_off * block) // M61).astype(np.int64)
    rows = (np.arange(n * s, dtype=np.int64) % s) * block + offsets
    indptr = np.arange(0, n * s + 1, s, dtype=np.int64)
    return indptr, rows, values


def scatter_product(indptr, rows, values, scale, m, coo):
    """scale * S @ A, column by column of S; A given as (i, j, v, d)."""
    ai, aj, av, d = coo
    counts = indptr[ai + 1] - indptr[ai]
    owner = np.repeat(np.arange(ai.size), counts)
    k = np.repeat(indptr[ai], counts) + (
        np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    )
    flat = rows[k] * d + aj[owner]
    out = np.bincount(flat, weights=values[k] * av[owner], minlength=m * d)
    return scale * out.reshape(m, d)


def dense_coo(U):
    """All entries of a dense matrix as (i, j, v, d) triplets."""
    n, d = U.shape
    return (np.repeat(np.arange(n), d), np.tile(np.arange(d), n), U.ravel(), d)


def gram_factor(A):
    """Upper R with R^T R = A^T A, so A R^-1 is an orthonormal basis of A."""
    G = A.T @ A
    G = G.toarray() if hasattr(G, "toarray") else np.asarray(G)
    return np.linalg.cholesky(G).T


def distortion(embedded, R=None):
    """max(s_max - 1, 1 - s_min) of the embedded orthonormal basis.

    With ``R`` the input was A and ``embedded`` is Pi A; the basis image is
    then Pi A R^-1.
    """
    Y = embedded
    if R is not None:
        Y = scipy.linalg.solve_triangular(R, embedded.T, trans="T", lower=False).T
    s = np.linalg.svd(Y, compute_uv=False)
    return float(max(s[0] - 1.0, 1.0 - s[-1]))


def _mtx_body(path):
    with open(path, "rb") as fh:
        text = fh.read()
    header, _, rest = text.partition(b"\n")
    while rest.startswith(b"%"):
        rest = rest.partition(b"\n")[2]
    size, _, body = rest.partition(b"\n")
    return header.split(), [int(t) for t in size.split()], body


def read_mtx_array(path):
    """Dense real matrix from a Matrix Market ``array`` file (column-major)."""
    header, size, body = _mtx_body(path)
    if header[2:4] != [b"array", b"real"] or len(size) != 2:
        raise CheckFailed(f"{path}: not a real array Matrix Market file")
    m, d = size
    vals = np.fromstring(body.decode(), sep=" ")
    if vals.size != m * d:
        raise CheckFailed(f"{path}: {vals.size} values for a {m}x{d} matrix")
    return vals.reshape(d, m).T


def read_mtx_coo(path):
    """(shape, (i, j, v, d)) from a Matrix Market ``coordinate`` file, 0-based."""
    header, size, body = _mtx_body(path)
    if header[2:4] != [b"coordinate", b"real"] or len(size) != 3:
        raise CheckFailed(f"{path}: not a real coordinate Matrix Market file")
    n, d, nnz = size
    t = np.fromstring(body.decode(), sep=" ").reshape(nnz, 3)
    return (n, d), (t[:, 0].astype(np.int64) - 1, t[:, 1].astype(np.int64) - 1, t[:, 2], d)


def read_skt(path):
    """(header, indptr, rows, values) of a version-1 ``.skt`` file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != b"SKCHv001":
        raise CheckFailed(f"{path}: bad magic")
    hlen = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16 : 16 + hlen])
    n, nnz = header["n"], header["nnz"]
    off = 16 + hlen
    indptr = np.frombuffer(data, "<i8", n + 1, off)
    rows = np.frombuffer(data, "<i8", nnz, off + 8 * (n + 1))
    values = np.frombuffer(data, "<f8", nnz, off + 8 * (n + 1 + nnz))
    if off + 8 * (n + 1 + 2 * nnz) != len(data):
        raise CheckFailed(f"{path}: payload size does not match the header")
    return header, indptr.astype(np.int64), rows.astype(np.int64), values
