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


def touched_rows(A):
    """Sorted indices of the rows of a scipy.sparse ``A`` that hold a stored
    entry, explicit zeros and NaNs included; None for a dense ``A``."""
    if not scipy.sparse.issparse(A):
        return None
    return np.flatnonzero(np.diff(A.tocsr().indptr))


def apply(sketch, A):
    """(scale * S) @ A as a dense (m x d) array (length m for a vector A).

    ParameterError if A holds NaN or Inf, or if the sketch was built on a
    subset of columns and A has a stored entry in a row outside it.
    """
    A_rows = A.shape[0]
    if A_rows != sketch.n:
        raise ParameterError(
            f"dimension mismatch: sketch has n = {sketch.n} columns, "
            f"input has {A_rows} rows"
        )
    if not np.isfinite(A.data if scipy.sparse.issparse(A) else A).all():
        raise ParameterError("input matrix holds NaN or Inf entries")
    if isinstance(sketch, DenseSketch):
        out = sketch.matrix @ A
    else:
        if sketch.columns is not None:
            _check_support(sketch, A)
        out = sketch.tocsc() @ A
    if scipy.sparse.issparse(out):
        out = out.toarray()
    return sketch.scale * np.asarray(out)


def _check_support(sketch, A):
    """ParameterError unless every row A touches is a built sketch column."""
    rows = touched_rows(A)
    if rows is None:
        rows = np.flatnonzero(A if A.ndim == 1 else np.any(A, axis=1))
    outside = np.ones(sketch.n, dtype=bool)
    outside[sketch.columns] = False
    if outside[rows].any():
        raise ParameterError(
            "input touches a row outside the columns the sketch was built on"
        )


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
    if scipy.sparse.issparse(M):
        return M.tocsr()
    return np.asarray(M, dtype=np.float64)


def save_matrix(path, M):
    """Write dense arrays as MM array format, sparse as coordinate."""
    with open(path, "wb") as fh:
        if scipy.sparse.issparse(M):
            scipy.io.mmwrite(fh, M.tocoo())
        else:
            scipy.io.mmwrite(fh, np.atleast_2d(np.asarray(M)))
