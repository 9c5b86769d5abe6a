"""Determinism contract: fixed seeds give byte-identical sketches.

The digests below pin the bytes of each kind's output at small shapes:
the saved ``.skt`` file for the sparse kinds, and the matrix plus scale
for the dense baselines.  A change to any of them changes the sketches
every existing seed produces, so it has to be a deliberate, documented
format or sampling change.  The ``less-ie`` sketch itself is left out:
its sampler changed when these digests were recorded, and that draw
change is documented rather than pinned.  The dense baselines read the
independent model, which their kind fixes; ``rademacher-dense`` was
re-recorded when the kind took over that choice from a spec field.

The pipeline digests pin ``fast_subspace_embed`` on a sparse input that
touches under 4% of its rows.  They were recorded while every build still
hashed all n columns, so they hold the column-restricted builds the
pipeline makes for sparse inputs to the full build's output.  The
ose-ie, less-ie and gaussian-dense pipeline digests, the ``bench --sweep``
CSVs and the ``run_config`` reports pin the parameters each kind gets by
default, end to end.
"""

import hashlib
import json

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
        "9ef66df68aeba1ebe40af66fd83acc2b00b0aaf4af1bac86e1f6c5aca983f565",
    ),
    "gaussian-dense": (
        dict(kind="gaussian-dense", m=16, n=20, p=1.0, seed=15),
        "4d8a0f2f309c5d6cb3abd701b3952fb7a74da77ff2f3ddafda827b49322f4fae",
    ),
    "rademacher-dense": (
        dict(kind="rademacher-dense", m=16, n=20, p=0.5, degree_k=8, seed=16),
        "5ae7609b5febcbf0e9c2fd6966b84691217b958448a97aa51ee71599f9457919",
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
    "less-ic": ("c93ae4bb39750314df8787522f6f49f90b7d595de6b2298d5c8785c94eecfe99", 12447),
    "osnap": ("e38d18d9f8cea1e7e368e2b77b74ec8a9e3bcef1860607072a3e600b9757afef", 40960),
    # the kinds built in full, pinned on the parameters they get by default
    "ose-ie": ("f7d3da1305611798651f5a2ac2f5d155d1e70d1955f7c32fa25cfe70b04c1967", 130729),
    "less-ie": ("b8956a65f26d0dea45b0008bba55c541a7fbd8205c628a1e6c49b91e4ce8e76d", 3900),
    "gaussian-dense": ("3f54e01b2460f7989d83e0e224ffb748d5f7eebf44d09f3d1c456da0fc53f83c",
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
    "m-osnap": (["--sweep", "m"],
                "a134ad427cfa39ed2445243e24cb78b3d3402551b716640615c4a648f00a0d55"),
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
    ("embedding", "ose-ie"): "84ea24381f9e9bc2aff73b22c3c3fa13da5d2f7136c8d250000b8c923ac07652",
    ("embedding", "less-ic"): "264e9db2ffb34f87d744bcffe53f850cd4e8ad97cf0f9242ae9b167492963aef",
    ("embedding", "less-ie"): "05ae7cb89c04c4dfecd9879e69073f18803dedb42d1e761caad8ce7c6860e815",
    ("trace_moment", "osnap"): "c44a4da33db5ea485a6adcfc839df7a338aca2af3165b48d2a0f59a932b97aa8",
    ("trace_moment", "ose-ie"): "770a948f9ca635e6b321511bd68d20158419a1d1ffd7afdec720352c0ef347fc",
    ("trace_moment", "less-ic"): "79af10915019eb51b20ed3f583a1e7da0e635e9f89c00d77ce1bd9732e3b54de",
    ("trace_moment", "less-ie"): "2caeca04057846bdc59d9a4457f61036f330788c3d3028363c55400db51e46f8",
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
