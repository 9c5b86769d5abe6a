"""Determinism contract: fixed seeds give byte-identical sketches.

The digests below pin the bytes of each kind's output at small shapes:
the saved ``.skt`` file for the sparse kinds, and the matrix plus scale
for the dense Gaussian baseline.  A change to any of them changes the sketches
every existing seed produces, so it has to be a deliberate, documented
format or sampling change.  The ``less-ie`` sketch itself is left out:
its sampler changed when these digests were recorded, and that draw
change is documented rather than pinned.  Every kind outside the hashing
osnap and less-ic draws from one seeded numpy generator and has no K: the
gaussian-dense pin was re-recorded when it moved onto that generator, and
``ose-ie-independent`` when its header stopped writing a K (its payload
kept its bytes).

The pipeline digests pin ``fast_subspace_embed`` on a sparse input that
touches under 4% of its rows.  They were recorded while every build still
hashed all n columns, so they hold the column-restricted builds the
pipeline makes for sparse inputs to the full build's output.  The
ose-ie, less-ie and gaussian-dense pipeline digests, the ``bench --sweep``
CSVs and the ``run_config`` reports pin the parameters each kind gets by
default, end to end; the ose-ie and less-ie reports were re-recorded when
they stopped reporting a K, and the less-ie ones again when exact scores
came from a QR's R instead of an SVD (their last ulps moved).

The thread-count test runs the leverage estimate and the pipeline of
every kind at 1 and 2 BLAS threads, in fresh processes, and compares
their bytes.  Exact scores, and estimated ones whose direct-route QR is
large, still round by the thread count: LAPACK's Householder QR of a
large block of rows does.  Their comparison is a strict xfail, so a fix
shows.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import subsketch as ss

SCORES = ss.LeverageScores(z=(np.arange(60) % 7 + 1) / 8.0, beta1=2.0, beta2=1.5)

CASES = {
    "osnap": (
        dict(kind="osnap", m=32, n=50, p=0.25, degree_k=8, seed=11),
        "3ed841a31b881adab53c861ff15758fb7da6451cc04b8aed35f118d42ce67544",
    ),
    "less-ic": (
        dict(kind="less-ic", m=40, p=0.2, scores=SCORES, degree_k=12, seed=12),
        "a8db34f8827d72f525976ca132ccc1f9c844ffd889bf7eeeeb9fc76e02523a9f",
    ),
    "ose-ie-independent": (
        dict(kind="ose-ie", m=24, n=40, p=0.3, seed=17),
        "bb59fbc8503745abd0ccb4df2317b78e3ce7da237a4c9dd4e5eb0cd12579a861",
    ),
    "gaussian-dense": (
        dict(kind="gaussian-dense", m=16, n=20, p=1.0, seed=15),
        "5300a4e7c2bdb6597a2b341ade2817ff36aeeabd9ef1e55b3b9144ba61a3f912",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    fields, digest = CASES[name]
    sk = ss.build(ss.SketchSpec(**fields))
    if isinstance(sk, ss.DenseSketch):
        payload = np.ascontiguousarray(sk.matrix).tobytes() + np.float64(sk.scale).tobytes()
    else:
        sk.save(tmp_path / "s.skt")
        payload = (tmp_path / "s.skt").read_bytes()
    assert hashlib.sha256(payload).hexdigest() == digest


def _touched_input():
    """8192x8 CSR: ~300 random nonzeros plus a diagonal for full rank."""
    rng = np.random.default_rng(2024)
    n, d = 8192, 8
    A = scipy.sparse.random(n, d, density=300 / (n * d), random_state=rng, format="csr")
    lift = scipy.sparse.csr_matrix(
        (rng.uniform(1, 2, d), (np.arange(d), np.arange(d))), shape=(n, d)
    )
    return (A + lift).tocsr()


PIPELINE_CASES = {
    # kind: (output digest, nnz of the full sketch)
    "less-ic": ("a9ec17d8b92b646bc1321251ed2163a79bfa3db2b369d4dabc930d773789f393", 8999),
    "osnap": ("e38d18d9f8cea1e7e368e2b77b74ec8a9e3bcef1860607072a3e600b9757afef", 40960),
    # the kinds built in full, pinned on the parameters they get by default
    "ose-ie": ("f7d3da1305611798651f5a2ac2f5d155d1e70d1955f7c32fa25cfe70b04c1967", 130729),
    "less-ie": ("3fb332f9dd2ee239e51057a2f92fa6e2ce86bd9867cd568012cc026268027a33", 942),
    "gaussian-dense": ("c483fb86b82f059acd8202d6c0e8a60c651fe6d30a9865462fc1b192e7a2da95",
                       720896),
}


@pytest.mark.parametrize("kind", sorted(PIPELINE_CASES))
def test_golden_pipeline_digest(kind):
    digest, nnz_sketch = PIPELINE_CASES[kind]
    A = _touched_input()
    assert np.mean(np.diff(A.indptr) > 0) < 0.1
    out, report = ss.fast_subspace_embed(A, ss.PipelineConfig(eps=0.5, delta=0.05,
                                                              seed=21, kind=kind))
    out = np.ascontiguousarray(out, dtype=np.float64)
    assert hashlib.sha256(repr(out.shape).encode() + out.tobytes()).hexdigest() == digest
    assert report.nnz_sketch == nnz_sketch


# `subsketch bench --sweep ... --trials 3 --seed 3` CSV bytes
SWEEP_CASES = {
    "eps-osnap": (["--sweep", "eps", "--kind", "osnap"],
                  "0cc7f8081b0d65cc479beb4841d890325162f72a076351b06e53426752993e04"),
    "eps-ose-ie": (["--sweep", "eps", "--kind", "ose-ie"],
                   "947612d0d5751265fb16ab947a511e028e95cc467c3615ced2460f060ee9b5c6"),
    "s-osnap": (["--sweep", "s"],
                "7575a01f829307f056c26fafcfd166ecb203a4dca19dc655e8bdb0e4c057edcd"),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_golden_sweep_csv(name, tmp_path):
    from subsketch.cli import EXIT_OK, main

    argv, digest = SWEEP_CASES[name]
    out = tmp_path / "sweep.csv"
    assert main(["bench", *argv, "--trials", "3", "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# run_config reports (JSON with sorted keys) on the default parameters of each
# kind, and with an explicit m
CONFIG_CASES = {
    ("embedding", "osnap"): "852099e5ff8397e3a04084e2bb338d63e88e88d7756049f843e7ec90995ea891",
    ("embedding", "ose-ie"): "7ed498732c6015085b23cebcf3afb6c2f60ede62ab7833a43e7e9f8af7b829d4",
    ("embedding", "less-ic"): "264e9db2ffb34f87d744bcffe53f850cd4e8ad97cf0f9242ae9b167492963aef",
    ("embedding", "less-ie"): "ad040c60d997ab3278536b5526a5e6c72f472a3b9db5e0160bf8fcb1fa89df6e",
    ("trace_moment", "osnap"): "c44a4da33db5ea485a6adcfc839df7a338aca2af3165b48d2a0f59a932b97aa8",
    ("trace_moment", "ose-ie"): "b084eeba3f00e3e67d63c15da5fae0ef401d258c1840819ca27cc82c130708a9",
    ("trace_moment", "less-ic"): "79af10915019eb51b20ed3f583a1e7da0e635e9f89c00d77ce1bd9732e3b54de",
    ("trace_moment", "less-ie"): "edcb74cb1b144bcbd3160bcf9908544589f18d8576a5b21e2e0ee84cbd7233e2",
}


def _config(experiment, kind):
    cfg = {"schema_version": 1, "experiment": experiment, "kind": kind, "d": 4, "n": 256,
           "eps": 0.5, "delta": 0.1, "trials": 5, "sampler": "haar", "seed": 9}
    if experiment == "trace_moment":
        cfg |= {"m": 64, "q": 1}
    return cfg


@pytest.mark.parametrize("case", sorted(CONFIG_CASES), ids="-".join)
def test_golden_config_report(case):
    report, _ = ss.experiments.run_config(_config(*case))
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == CONFIG_CASES[case]


# prints the digests the thread-count test compares, as one JSON object
_THREAD_SCRIPT = """
import hashlib, json
import numpy as np
import scipy.sparse
import subsketch as ss
from subsketch.oblivious import KINDS

def digest(out):
    out = np.ascontiguousarray(out, dtype=np.float64)
    return hashlib.sha256(repr(out.shape).encode() + out.tobytes()).hexdigest()

def embed(A, kind):
    return digest(ss.fast_subspace_embed(A, ss.PipelineConfig(eps=0.5, delta=0.05, seed=5,
                                                              kind=kind))[0])

A = np.random.default_rng(3).standard_normal((2**14, 64))
found = {"approx_leverage": ss.approx_leverage(A, 0.25, seed=5).digest(),
         "exact_leverage": ss.exact_leverage(A).digest()}
found |= {kind: embed(A, kind) for kind in KINDS}
# the direct route's QR of all 9000 rows, large enough to round by thread count
B = np.random.default_rng(3).standard_normal((9000, 64))
found["approx_leverage-9000x64"] = ss.approx_leverage(B, 0.25, seed=5).digest()
rng = np.random.default_rng(4)
n, d = 2**16, 32
S = scipy.sparse.random(n, d, density=2000 / (n * d), random_state=rng, format="csr")
S = S + scipy.sparse.csr_matrix((rng.uniform(1, 2, d), (np.arange(d), np.arange(d))),
                                shape=(n, d))
found["less-ic-sparse"] = embed(S.tocsr(), "less-ic")
print(json.dumps(found))
"""


@pytest.fixture(scope="module")
def thread_digests():
    """The script's digests at 1 and 2 BLAS threads (never more: the
    contract needs only two counts, and a small host has few cores)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    found = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                                else [])))
        proc = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        found[threads] = json.loads(proc.stdout)
    return found


# digests whose bytes still depend on the BLAS thread count
_THREAD_BOUND = ("exact_leverage", "approx_leverage-9000x64")


def test_bytes_do_not_depend_on_the_thread_count(thread_digests):
    one, two = ({k: v for k, v in thread_digests[t].items() if k not in _THREAD_BOUND}
                for t in ("1", "2"))
    assert set(one) == {"approx_leverage", "less-ic-sparse", *ss.oblivious.KINDS}
    assert one == two


@pytest.mark.xfail(strict=True, reason="LAPACK's Householder QR of a large enough block of "
                   "rows rounds differently at 2 BLAS threads; this shows the thread count "
                   "reached BLAS")
@pytest.mark.parametrize("key", _THREAD_BOUND)
def test_qr_bytes_do_not_depend_on_the_thread_count(thread_digests, key):
    assert thread_digests["1"][key] == thread_digests["2"][key]
