"""Sketch application and matrix IO.

``apply`` computes (1/sqrt(p*m)) * S @ A by scattering each input row into
the output rows named by the matching sketch column, so the cost is
proportional to the input nonzeros times the per-column sketch sparsity.
The result is returned dense (m and d are small relative to n).

Matrices move through Matrix Market files: ``array`` format for dense
matrices, ``coordinate`` (1-based indices) for sparse.
"""

import numpy as np
import scipy.io
import scipy.sparse

from .errors import FormatError, ParameterError
from .sketch import DenseSketch


def as_matrix(A, *, tall, finite):
    """The input gate: A as a float64 CSR matrix if scipy.sparse, else a
    float64 ndarray, copied only to convert.  A non-canonical CSR (unsorted
    column indices or duplicate entries) is canonicalized on a copy, its
    duplicates summed; the caller's matrix is never changed.
    ParameterError for complex or non-numeric data, an ndim other than 2
    (1 passes for a dense A unless ``tall``), unless n >= d >= 1 when
    ``tall``, and NaN or Inf when ``finite``."""
    sparse = scipy.sparse.issparse(A)
    try:
        A = (A if A.format == "csr" else A.tocsr()) if sparse else np.asarray(A)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"input is not a numeric matrix: {exc}") from exc
    if A.dtype.kind not in "biuf":
        raise ParameterError(f"input matrix must hold real numbers, got dtype {A.dtype}")
    if A.ndim not in ((2,) if tall or sparse else (1, 2)):
        raise ParameterError(f"input must be a matrix, got {A.ndim} dimensions")
    if tall and not A.shape[0] >= A.shape[1] >= 1:
        raise ParameterError(f"need a tall matrix with n >= d >= 1, got shape {A.shape}")
    if finite and not np.isfinite(A.data if sparse else A).all():
        raise ParameterError("input matrix holds NaN or Inf entries")
    A = A.astype(np.float64, copy=False)
    if sparse and not A.has_canonical_format:  # scipy caches the flag on A
        A = A.copy()
        A.sum_duplicates()
    return A


def touched_rows(A):
    """Sorted indices of the rows of a scipy.sparse ``A`` that hold a stored
    entry, explicit zeros and NaNs included; None for a dense ``A``."""
    if not scipy.sparse.issparse(A):
        return None
    indptr = as_matrix(A, tall=False, finite=False).indptr
    return np.flatnonzero(indptr[1:] != indptr[:-1])


def apply(sketch, A):
    """(scale * S) @ A as a dense (m x d) array (length m for a vector A).

    A sketch built on columns J multiplies only S[:, J] by A[J], in
    O(|J| + nnz) for a scipy.sparse A, adding the full product's terms in
    its order.  A passes :func:`as_matrix`, NaN and Inf included;
    ParameterError also unless A has n rows, or if such a sketch meets a
    stored entry (a nonzero, for a dense A) in a row outside J.
    """
    A = as_matrix(A, tall=False, finite=True)
    if A.shape[0] != sketch.n:
        raise ParameterError(f"dimension mismatch: sketch has n = {sketch.n} columns, "
                             f"input has {A.shape[0]} rows")
    if isinstance(sketch, DenseSketch):
        out = sketch.matrix @ A
    elif sketch.columns is None:
        out = sketch.tocsc() @ A
    else:
        out = _restricted_product(sketch, A)
    if scipy.sparse.issparse(out):
        out = out.toarray()
    return sketch.scale * np.asarray(out)


def _nnz(A):
    """Stored entries of a scipy.sparse A, nonzeros of a dense one."""
    return int(A.nnz) if scipy.sparse.issparse(A) else int(np.count_nonzero(A))


def _restricted_product(sketch, A):
    """S[:, J] @ A[J] for a sketch built on columns J and a gated A;
    ParameterError unless A[J] holds every entry of A."""
    J = sketch.columns
    A_J = A[J]
    if _nnz(A_J) != _nnz(A):
        raise ParameterError("input touches a row outside the columns the sketch was built on")
    S_J = scipy.sparse.csc_matrix((sketch.values, sketch.rows, sketch.built_indptr),
                                  shape=(sketch.m, J.size))
    return S_J @ A_J


def load_matrix(path):
    """Read a real Matrix Market file; coordinate files stay sparse (CSR)
    and complex data is a FormatError."""
    try:
        with open(path, "rb") as fh:
            M = scipy.io.mmread(fh)
    except (ValueError, OSError) as exc:
        raise FormatError(f"{path}: failed to parse Matrix Market file: {exc}") from exc
    if np.iscomplexobj(M):
        raise FormatError(f"{path}: complex Matrix Market data is not supported")
    return as_matrix(M, tall=False, finite=False)


def save_matrix(path, M):
    """Write dense arrays as MM array format, sparse as coordinate."""
    with open(path, "wb") as fh:
        if scipy.sparse.issparse(M):
            scipy.io.mmwrite(fh, M.tocoo())
        else:
            scipy.io.mmwrite(fh, np.atleast_2d(np.asarray(M)))
