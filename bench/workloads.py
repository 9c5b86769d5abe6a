"""The four benchmark workloads: inputs, the operation, and its checks.

Every input and every operation seed is derived from the workload seed
with ``oracle.derive_seed``, so one seed gives the same inputs whatever
the run length.  ``op(i)`` is the only code that calls into subsketch; it
resolves library functions through their modules at call time, so the
traced run's wrappers see every call.

Why these workloads (see NOTES.md for the layer mapping):

* ``embed-sparse`` -- the pipeline on a tall input that touches ~1.3% of
  its rows; hashing of untouched columns dominates.
* ``embed-dense`` -- the same call where every row is touched, so work
  restricted to touched rows buys nothing and overhead would show.
* ``verify-trials`` -- many small osnap builds through ``run_config``;
  per-call set-up weighs most.
* ``apply-reuse`` -- build once, then ``subsketch apply`` over a pool of
  Matrix Market inputs; product and file IO dominate, no hashing per op.
"""

import hashlib
import json
import math
import os

import numpy as np
import scipy.io
import scipy.sparse

import oracle
from oracle import CheckFailed

EPS, DELTA = 0.5, 0.05


def op_seed(seed, i):
    return oracle.derive_seed(seed, 0xB0000 + i) & 0x7FFFFFFF


def _sha(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class Workload:
    """One workload bound to a seed and a scratch directory.

    ``min_ops`` ops always run, whatever ``--seconds`` says: ops
    0..min_ops-1 are the fixed list that ``distortion`` is taken over.
    """

    min_ops = 1

    def __init__(self, ss, seed, run_dir):
        self.ss = ss
        self.seed = seed
        self.run_dir = run_dir
        self.m = None

    def make_inputs(self):
        """Generate the inputs (not part of set-up time)."""

    def setup(self):
        """One-off build or save done before the first op."""

    def touched(self, i):
        """Boolean mask of the input rows op ``i`` touches, or None."""
        return None

    def _same_m(self, m):
        if self.m is None:
            self.m = m
        elif m != self.m:
            raise CheckFailed(f"output has {m} rows, earlier ops had {self.m}")


class Embed(Workload):
    """``fast_subspace_embed`` with kind less-ic on a fixed input A."""

    def __init__(self, ss, seed, run_dir, *, dense):
        super().__init__(ss, seed, run_dir)
        self.dense = dense
        self.min_ops = 8 if dense else 3

    def make_inputs(self):
        rng = np.random.default_rng(oracle.derive_seed(self.seed, 1))
        if self.dense:
            A = rng.standard_normal((1 << 14, 64))
            mask = np.ones(A.shape[0], dtype=bool)
        else:
            # demo 05's generator at 2^18 x 32: ~3.4k random nonzeros plus
            # a diagonal that keeps A full column rank
            n, d = 1 << 18, 32
            A = scipy.sparse.random(n, d, density=3400 / (n * d), random_state=rng,
                                    format="csr")
            A = (A + scipy.sparse.csr_matrix(
                (rng.uniform(1, 2, d), (np.arange(d), np.arange(d))), shape=(n, d)
            )).tocsr()
            mask = np.diff(A.indptr) > 0
        self.A, self.mask = A, mask
        self.R = oracle.gram_factor(A)

    def touched(self, i):
        return self.mask

    def op(self, i):
        config = self.ss.pipeline.PipelineConfig(
            eps=EPS, delta=DELTA, gamma=0.25, kind="less-ic", seed=op_seed(self.seed, i)
        )
        return self.ss.pipeline.fast_subspace_embed(self.A, config)[0]

    def check(self, i, out):
        d = self.A.shape[1]
        if not isinstance(out, np.ndarray) or out.ndim != 2 or out.shape[1] != d:
            raise CheckFailed(f"output shape {getattr(out, 'shape', None)}, want (m, {d})")
        if not np.isfinite(out).all():
            raise CheckFailed("output has non-finite entries")
        self._same_m(out.shape[0])
        dist = oracle.distortion(out, self.R) if i < self.min_ops else None
        out = np.ascontiguousarray(out, dtype=np.float64)
        return _sha(repr(out.shape).encode(), out.tobytes()), dist


class VerifyTrials(Workload):
    """One-trial ``embedding`` experiments through ``run_config``."""

    min_ops = 64
    D, N = 16, 4096
    ORACLE_OPS = 2  # ops whose distortion is recomputed from scratch

    def config(self, i):
        return {"schema_version": 1, "experiment": "embedding", "kind": "osnap",
                "d": self.D, "n": self.N, "eps": EPS, "delta": DELTA, "trials": 1,
                "sampler": "haar", "seed": op_seed(self.seed, i)}

    def op(self, i):
        return self.ss.experiments.run_config(self.config(i))

    def check(self, i, out):
        report, passed = out
        res, dims = report["result"], report["config"]
        dist = res["quantiles"]["0.5"]
        if res["trials"] != 1 or res["failures"] not in (0, 1):
            raise CheckFailed(f"bad trial counts {res}")
        if not (math.isfinite(dist) and dist >= 0):
            raise CheckFailed(f"distortion {dist} is not a finite non-negative number")
        if bool(passed) != (dist <= EPS) or res["failures"] != (dist > EPS):
            raise CheckFailed("pass flag disagrees with the reported distortion")
        self._same_m(dims["m"])
        if i < self.ORACLE_OPS:
            ref = self._reference_distortion(i, dims)
            if abs(ref - dist) > 1e-9:
                raise CheckFailed(f"distortion {dist} differs from reference {ref}")
        digest = _sha(json.dumps(report, sort_keys=True).encode())
        return digest, dist if i < self.min_ops else None

    def _reference_distortion(self, i, dims):
        """Trial 0 of run_config: sketch seed derive(seed, 0), basis seed derive(seed, 1)."""
        seed = op_seed(self.seed, i)
        rng = np.random.default_rng(oracle.derive_seed(seed, 1))
        Q, R = np.linalg.qr(rng.standard_normal((self.N, self.D)))
        U = Q * np.sign(np.diag(R))
        m, s = dims["m"], dims["pm"]
        indptr, rows, values = oracle.osnap_arrays(
            oracle.derive_seed(seed, 0), dims["degree_k"], m, self.N, s
        )
        X = oracle.scatter_product(indptr, rows, values, 1 / math.sqrt(s), m,
                                   oracle.dense_coo(U))
        return oracle.distortion(X)


class ApplyReuse(Workload):
    """Build one osnap sketch, then ``subsketch apply`` over a pool of inputs."""

    N, D, DENSITY, POOL = 1 << 17, 64, 0.02, 8
    min_ops = POOL  # distortion is taken over each pool input once

    def __init__(self, ss, seed, run_dir):
        super().__init__(ss, seed, run_dir)
        self.inputs = [os.path.join(run_dir, f"in{k}.mtx") for k in range(self.POOL)]
        self.skt = os.path.join(run_dir, f"sketch-{os.getpid()}.skt")
        self.out = os.path.join(run_dir, f"out-{os.getpid()}.mtx")
        self.expected = {}

    def make_inputs(self):
        # inputs are a pure function of the seed, so a file already
        # written by another process of this run is reused
        for k, path in enumerate(self.inputs):
            if not os.path.exists(path):
                rng = np.random.default_rng(oracle.derive_seed(self.seed, 100 + k))
                A = scipy.sparse.random(self.N, self.D, density=self.DENSITY,
                                        random_state=rng, format="coo")
                tmp = f"{path}.{os.getpid()}"
                with open(tmp, "wb") as fh:
                    scipy.io.mmwrite(fh, A)
                os.replace(tmp, path)

    def setup(self):
        ob = self.ss.oblivious
        spec = ob.default_parameters(self.D, self.N, EPS, DELTA, "osnap",
                                     seed=oracle.derive_seed(self.seed, 2) & 0x7FFFFFFF)
        ob.build_osnap(spec).save(self.skt)

    def op(self, i):
        return self.ss.cli.main(["apply", self.skt, self.inputs[i % self.POOL],
                                 "--out", self.out])

    def _reference(self, k):
        """(S A_k by the scatter oracle, Gram factor of A_k), from the files."""
        if k not in self.expected:
            header, indptr, rows, values = oracle.read_skt(self.skt)
            shape, coo = oracle.read_mtx_coo(self.inputs[k])
            A = scipy.sparse.coo_matrix((coo[2], (coo[0], coo[1])), shape=shape)
            product = oracle.scatter_product(indptr, rows, values, header["scale"],
                                             header["m"], coo)
            self.expected[k] = product, oracle.gram_factor(A.tocsr())
        return self.expected[k]

    def check(self, i, rc):
        if rc != 0:
            raise CheckFailed(f"subsketch apply exited {rc}")
        Y = oracle.read_mtx_array(self.out)
        want, R = self._reference(i % self.POOL)
        if Y.shape != want.shape:
            raise CheckFailed(f"output shape {Y.shape}, want {want.shape}")
        if not np.isfinite(Y).all():
            raise CheckFailed("output has non-finite entries")
        tol = 1e-12 * float(np.abs(want).max())
        if not np.allclose(Y, want, rtol=1e-10, atol=tol):
            raise CheckFailed(f"output differs from the scatter oracle by "
                              f"{float(np.abs(Y - want).max()):.3e}")
        self._same_m(Y.shape[0])
        with open(self.out, "rb") as fh:
            digest = _sha(fh.read())
        return digest, oracle.distortion(Y, R) if i < self.min_ops else None


def make(name, ss, seed, run_dir):
    if name == "embed-sparse":
        return Embed(ss, seed, run_dir, dense=False)
    if name == "embed-dense":
        return Embed(ss, seed, run_dir, dense=True)
    if name == "verify-trials":
        return VerifyTrials(ss, seed, run_dir)
    if name == "apply-reuse":
        return ApplyReuse(ss, seed, run_dir)
    raise ValueError(f"unknown workload {name!r}")

