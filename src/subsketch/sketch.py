"""Sketch containers and the on-disk sketch format.

A :class:`SparseSketch` stores the *unscaled* matrix S column-major
(CSC-style arrays); its spec fixes the global scale 1/sqrt(p*m), and the
embedding matrix is ``scale * S``.  Row indices are 0-based and strictly
increasing within each column.  :class:`DenseSketch` is the analogous
holder for the dense Gaussian baseline.

File format (``.skt``), version 1, little-endian throughout:

    bytes 0..7    magic ``b"SKCHv001"``
    bytes 8..15   uint64 header length H
    next H bytes  UTF-8 JSON header: format, kind, m, n, p, seed,
                  degree_k (the hashing kinds osnap and less-ic only),
                  family, scale, nnz and, for score-adapted kinds,
                  beta1, beta2, scores_sha256
    then          indptr  int64[n + 1]
    then          rows    int64[nnz]
    then          values  float64[nnz]
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import FormatError, ParameterError

_MAGIC = b"SKCHv001"
FORMAT_VERSION = 1
_SCORE_FIELDS = ("beta1", "beta2", "scores_sha256")
MATERIALIZE_CAP = 50_000_000  # entries of the largest dense matrix materialize makes


class _Sketch:
    """What both containers share: shape, energy target, scale, materialize."""

    @property
    def m(self):
        return self.spec.m

    @property
    def n(self):
        return self.spec.n

    @property
    def pm(self):
        """Column energy target p*m of the unscaled matrix."""
        return float(self.spec.p) * self.spec.m

    @property
    def scale(self):
        """Global scale 1/sqrt(p*m) of the embedding ``scale * S``."""
        return 1.0 / math.sqrt(self.pm)

    def materialize(self):
        """Dense scaled matrix; refuses to allocate above ``MATERIALIZE_CAP``."""
        if self.m * self.n > MATERIALIZE_CAP:
            raise ParameterError(
                f"materializing {self.m}x{self.n} exceeds the "
                f"{MATERIALIZE_CAP}-entry cap"
            )
        return self.scale * self._unscaled()


class SparseSketch(_Sketch):
    """The unscaled sparse S of ``spec``, column-major.

    ``indptr`` holds the pointers of the built columns: all n + 1 for a
    full sketch; for a sketch built on the sorted ``columns`` J only
    (every other column empty), the |J| + 1 pointers of J, kept as
    ``built_indptr``, so building, holding and applying it on a
    scipy.sparse A costs O(|J| + nnz(A) + entries built) past
    :func:`~subsketch.apply.touched_rows`.  Its n + 1 :attr:`indptr` is
    computed when first read (:meth:`tocsc`, :meth:`materialize` and
    :meth:`column_energy` read it) and kept; ``full_nnz``, from its
    builder, counts the full sketch's entries.  ``extras`` holds the
    header fields of a loaded file that its spec does not hold: the score
    fields, a family other than the kind's model, the degree_k of a kind
    that does not hash; save writes them back in place.
    """

    def __init__(self, spec, indptr, rows, values, extras=None, columns=None, full_nnz=None):
        self.spec = spec
        self.built_indptr = np.asarray(indptr, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.extras = {} if extras is None else extras
        self.columns = columns
        self.full_nnz = self.nnz if full_nnz is None else full_nnz
        self._indptr = self.built_indptr if columns is None else None
        self._csc = None

    @property
    def indptr(self):
        """The n + 1 column pointers; a column not built repeats the one before it."""
        if self._indptr is None:
            self._indptr = np.repeat(self.built_indptr,
                                     np.diff(self.columns, prepend=-1, append=self.n))
        return self._indptr

    @property
    def nnz(self):
        return int(self.rows.size)

    def tocsc(self):
        """Unscaled S as a scipy CSC matrix (cached)."""
        if self._csc is None:
            self._csc = scipy.sparse.csc_matrix(
                (self.values, self.rows, self.indptr), shape=(self.m, self.n)
            )
        return self._csc

    def _unscaled(self):
        return self.tocsc().toarray()

    def column_energy(self):
        """Per-column sums of squared unscaled entries."""
        cols = np.repeat(np.arange(self.n), np.diff(self.indptr))
        return np.bincount(cols, weights=self.values**2, minlength=self.n)

    def _header(self):
        spec = self.spec
        header = {
            "format": FORMAT_VERSION,
            "kind": spec.kind,
            "m": spec.m,
            "n": spec.n,
            "p": float(spec.p),
            "seed": spec.seed,
            "degree_k": spec.degree_k,
            "family": spec.family,
            "scale": float(self.scale),
            "nnz": self.nnz,
        }
        if spec.scores is not None:
            header["beta1"] = float(spec.scores.beta1)
            header["beta2"] = float(spec.scores.beta2)
            header["scores_sha256"] = spec.scores.digest()
        header.update(self.extras)  # keys already there keep their place
        if header["degree_k"] is None:
            del header["degree_k"]
        return header

    def save(self, path):
        if self.columns is not None:
            raise ParameterError(
                "a sketch built on a subset of columns cannot be saved; build it in full"
            )
        header = json.dumps(self._header()).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(np.uint64(len(header)).tobytes())
            fh.write(header)
            fh.write(self.indptr.astype("<i8").tobytes())
            fh.write(self.rows.astype("<i8").tobytes())
            fh.write(self.values.astype("<f8").tobytes())


@dataclass
class DenseSketch(_Sketch):
    """Unscaled dense baseline matrix; the scale comes from the spec."""

    spec: object
    matrix: np.ndarray

    @property
    def nnz(self):
        return int(np.count_nonzero(self.matrix))

    def _unscaled(self):
        return self.matrix

    def column_energy(self):
        return np.einsum("ij,ij->j", self.matrix, self.matrix)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)


def scores_digest(z, beta1, beta2):
    h = hashlib.sha256()
    h.update(np.asarray(z, dtype=np.float64).tobytes())
    h.update(np.float64(beta1).tobytes())
    h.update(np.float64(beta2).tobytes())
    return h.hexdigest()


def _header_spec(path, header):
    """The spec a ``.skt`` header describes; FormatError if it is invalid."""
    from .oblivious import COLUMN_KINDS, SketchSpec

    if not isinstance(header, dict) or header.get("format") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format")
    try:
        if not (type(header["nnz"]) is int and header["nnz"] >= 0
                and all(type(header[k]) in (int, float) for k in ("p", "scale"))):
            raise ParameterError("fields of the wrong type or sign")
        spec = SketchSpec(
            kind=header["kind"], m=header["m"], n=header["n"], p=header["p"], seed=header["seed"],
            degree_k=header["degree_k"] if header["kind"] in COLUMN_KINDS else None,
        )
        old_k = header.get("degree_k", 1)  # older files wrote one for every kind
        if spec.degree_k is None and (type(old_k) is not int or old_k < 1):
            raise ParameterError(f"degree_k must be an integer >= 1, got {old_k!r}")
        if header.get("family", "kwise") not in ("kwise", "independent"):
            raise ParameterError(f"unknown family {header['family']!r}")
    except (KeyError, TypeError, ParameterError) as exc:
        raise FormatError(f"{path}: invalid header: {exc}") from exc
    if not math.isclose(header["scale"], 1.0 / math.sqrt(spec.p * spec.m), rel_tol=1e-12):
        raise FormatError(f"{path}: scale {header['scale']} is not 1/sqrt(p*m)")
    return spec


def load_sketch(path):
    """Read a ``.skt`` file written by :meth:`SparseSketch.save`.

    Everything is checked before use: the header fields, that indptr runs
    monotonically from 0 to nnz, that rows lie in [0, m) and increase
    strictly within each column, that values are finite, and that the
    payload has exactly the declared size.  The header's beta1, beta2 and
    scores_sha256 go to ``extras``, which :meth:`SparseSketch.save` writes back;
    so do its family (``kwise`` when absent) where it differs from the
    kind's model, and the degree_k of a kind that does not hash, as in
    files written before the kind fixed the model and its K.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, not a sketch file")
        size = os.fstat(fh.fileno()).st_size
        hlen = int.from_bytes(fh.read(8), "little")
        if hlen > size - 16:
            raise FormatError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(hlen).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: corrupt header: {exc}") from exc
        spec = _header_spec(path, header)
        n, nnz = spec.n, header["nnz"]
        want = 8 * (n + 1) + 16 * nnz
        if size - 16 - hlen != want:
            raise FormatError(f"{path}: payload has {size - 16 - hlen} bytes, "
                              f"header implies {want}")
        indptr, rows, values = (np.empty(k, dtype=t) for k, t in
                                ((n + 1, "<i8"), (nnz, "<i8"), (nnz, "<f8")))
        for array in (indptr, rows, values):
            fh.readinto(array)
    steps = np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(steps < 0):
        raise FormatError(f"{path}: indptr must rise monotonically from 0 to nnz")
    starts, ends = indptr[:-1][steps > 0], indptr[1:][steps > 0] - 1
    falls = rows[1:] <= rows[:-1]
    falls[starts[1:] - 1] = False  # column boundaries
    if falls.any():
        raise FormatError(f"{path}: rows not strictly increasing within a column")
    # rows increase within a column, so its first and last rows bound it
    if nnz and (rows[starts].min() < 0 or rows[ends].max() >= spec.m):
        raise FormatError(f"{path}: row index outside [0, {spec.m})")
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite value")
    extras = {k: header[k] for k in _SCORE_FIELDS if k in header}
    if spec.degree_k is None and "degree_k" in header:
        extras["degree_k"] = header["degree_k"]
    family = header.get("family", "kwise")
    if family != spec.family:
        extras["family"] = family
    return SparseSketch(spec=spec, indptr=indptr, rows=rows, values=values, extras=extras)
