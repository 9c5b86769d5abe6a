"""Sketch application and matrix IO.

``apply`` computes (1/sqrt(p*m)) * S @ A by scattering each input row into
the output rows named by the matching sketch column, so the cost is
proportional to the input nonzeros times the per-column sketch sparsity.
The result is returned dense (m and d are small relative to n).

Matrices move through Matrix Market files: ``array`` format for dense
matrices, ``coordinate`` (1-based indices) for sparse.  Only
:func:`load_matrix` and :func:`save_matrix` import ``scipy.io``, on their
first call: its package import also loads the MATLAB, WAV, NetCDF, ARFF
and Harwell-Boeing readers, about 12 ms (one core of a 2-vCPU Xeon) that
a process which embeds or verifies without matrix files never pays.
"""

import numpy as np
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

    A sketch built on columns J multiplies only S[:, J] by A[J], a view
    that copies none of a scipy.sparse A, adding the full product's terms
    in its order.  A passes :func:`as_matrix`, NaN and Inf included;
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
    else:  # S[:, J] @ A[J] for a sketch built on columns J
        S_J = scipy.sparse.csc_matrix((sketch.values, sketch.rows, sketch.built_indptr),
                                      shape=(sketch.m, sketch.columns.size))
        out = S_J @ _take_rows(A, sketch.columns)
    if scipy.sparse.issparse(out):
        out = out.toarray()
    return sketch.scale * np.asarray(out)


def _take_rows(A, J):
    """A[J] for a gated A and sorted rows J, the one place that takes rows of
    A: for a CSR A, a CSR sharing A's data and indices (nothing may write
    into them) whose pointers A.indptr[J] and nnz, in A's index dtype, show
    in O(|J|) that each row of J ends where the next starts.  ParameterError
    if A stores an entry (a nonzero, for a dense A) in a row outside J."""
    if scipy.sparse.issparse(A):
        indptr = np.append(A.indptr[J], A.indptr[-1])
        if indptr[0] == 0 and np.array_equal(indptr[1:], A.indptr[J + 1]):
            return scipy.sparse.csr_matrix((A.data, A.indices, indptr), shape=(J.size, A.shape[1]))
    elif np.count_nonzero(A_J := A[J]) == np.count_nonzero(A):
        return A_J
    raise ParameterError("input touches a row outside the columns the sketch was built on")


def load_matrix(path):
    """Read a real Matrix Market file; coordinate files stay sparse (CSR)
    and complex data or an integer outside int64 is a FormatError."""
    import scipy.io

    try:
        with open(path, "rb") as fh:
            M = scipy.io.mmread(fh)
    except (ValueError, OverflowError, OSError) as exc:
        raise FormatError(f"{path}: failed to parse Matrix Market file: {exc}") from exc
    if np.iscomplexobj(M):
        raise FormatError(f"{path}: complex Matrix Market data is not supported")
    return as_matrix(M, tall=False, finite=False)


def save_matrix(path, M):
    """Write dense arrays as MM array format, sparse as coordinate."""
    import scipy.io

    with open(path, "wb") as fh:
        if scipy.sparse.issparse(M):
            scipy.io.mmwrite(fh, M.tocoo())
        else:
            scipy.io.mmwrite(fh, np.atleast_2d(np.asarray(M)))
