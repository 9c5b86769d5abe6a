"""Sketch containers and the on-disk sketch format.

A :class:`SparseSketch` stores the *unscaled* matrix S column-major
(CSC-style arrays) together with the global scale 1/sqrt(p*m); the
embedding matrix is ``scale * S``.  Row indices are 0-based and strictly
increasing within each column.  :class:`DenseSketch` is the analogous
holder for the dense baselines.

File format (``.skt``), version 1, little-endian throughout:

    bytes 0..7    magic ``b"SKCHv001"``
    bytes 8..15   uint64 header length H
    next H bytes  UTF-8 JSON header: format, kind, m, n, p, seed,
                  degree_k, family, scale, nnz and, for score-adapted
                  kinds, beta1, beta2, scores_sha256
    then          indptr  int64[n + 1]
    then          rows    int64[nnz]
    then          values  float64[nnz]
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import FormatError, ParameterError

_MAGIC = b"SKCHv001"
FORMAT_VERSION = 1
_SCORE_FIELDS = ("beta1", "beta2", "scores_sha256")


class _Sketch:
    """What both containers share: shape, energy target, materialize."""

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

    def materialize(self, max_entries=50_000_000):
        """Dense scaled matrix; refuses to allocate above ``max_entries``."""
        if self.m * self.n > max_entries:
            raise ParameterError(
                f"materializing {self.m}x{self.n} exceeds the "
                f"{max_entries}-entry cap"
            )
        return self.scale * self._unscaled()


@dataclass
class SparseSketch(_Sketch):
    spec: object
    indptr: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    scale: float
    # the score fields of a loaded file, whose spec holds no scores, and
    # its family where that differs from the kind's model
    extras: dict = field(default_factory=dict)
    # sorted indices of the built columns when the build skipped the rest
    # (empty here, unlike the full sketch); None for a full sketch
    columns: np.ndarray = None

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self._csc = None

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
            "m": int(spec.m),
            "n": int(spec.n),
            "p": float(spec.p),
            "seed": int(spec.seed),
            "degree_k": int(spec.degree_k),
            "family": self.extras.get("family", spec.family),
            "scale": float(self.scale),
            "nnz": self.nnz,
        }
        if spec.scores is not None:
            header["beta1"] = float(spec.scores.beta1)
            header["beta2"] = float(spec.scores.beta2)
            header["scores_sha256"] = spec.scores.digest()
        else:
            header.update(self.extras)
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
    """Unscaled dense baseline matrix plus the global scale."""

    spec: object
    matrix: np.ndarray
    scale: float

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


def sketch_from_dense(matrix, scale, spec):
    """Rebuild the CSC arrays of a sketch from its scaled dense form."""
    csc = scipy.sparse.csc_matrix(np.asarray(matrix) / scale)
    csc.sort_indices()
    return SparseSketch(
        spec=spec,
        indptr=csc.indptr.astype(np.int64),
        rows=csc.indices.astype(np.int64),
        values=csc.data.astype(np.float64),
        scale=scale,
    )


def _header_spec(path, header):
    """The spec a ``.skt`` header describes; FormatError if it is invalid."""
    from .oblivious import SketchSpec

    if not isinstance(header, dict) or header.get("format") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format")
    try:
        if not (all(type(header[k]) is int for k in ("m", "n", "nnz", "seed", "degree_k"))
                and all(type(header[k]) in (int, float) for k in ("p", "scale"))
                and header["nnz"] >= 0):
            raise ParameterError("fields of the wrong type or sign")
        spec = SketchSpec(
            kind=header["kind"], m=header["m"], n=header["n"], p=header["p"],
            seed=header["seed"], degree_k=header["degree_k"],
        )
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
    so does its family (``kwise`` when absent) where it differs from the
    kind's model, as in files written before the kind fixed the model.
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
    family = header.get("family", "kwise")
    if family != spec.family:
        extras["family"] = family
    return SparseSketch(spec=spec, indptr=indptr, rows=rows, values=values,
                        scale=header["scale"], extras=extras)
