"""Smoke tests of the benchmark.

The traced run wraps the builders at the names the library resolves at
call time.  Column-restricted builds must still go through those names,
so every sketch entry built is one the input uses.  The untraced
``verify-trials`` run checks full osnap builds end to end against the
benchmark's own big-int hash.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# seed-1 op-0 output digests; a change that moves a workload's bytes
# re-records its pin on purpose
DIGEST_OP0 = {
    "embed-sparse": "208638e3bfa83b9060614c262fe92ae9af0c99b5753ef389eae3e246794b5a85",
    "verify-trials": "d18f97f117ea5139426f8f756a754179974fcff6744e60713562ed084548b65e",
}


def test_traced_embed_sparse_builds_only_touched_columns():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "embed-sparse", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, info, result = map(json.loads, proc.stdout.strip().splitlines())
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    # the traced op 0 is checked against this untraced digest
    assert info["info"]["digest_op0"] == DIGEST_OP0["embed-sparse"]
    # its nonzero rows are factored directly: no leverage sketch is built
    assert metrics["leverage.attempts"] == 0
    assert metrics["oblivious.nnz_built"] == 0
    assert metrics["less.useful_frac"] == 1.0
    assert metrics["less.build_less_ic_s"] > 0


def test_verify_trials_passes_the_bigint_oracle():
    # ops 0-1 check full osnap builds against bench/oracle.py's Python-int
    # hash, which shares no code with the library's evaluator
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-trials", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, info, result = map(json.loads, proc.stdout.strip().splitlines())
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    assert info["info"]["digest_op0"] == DIGEST_OP0["verify-trials"]
