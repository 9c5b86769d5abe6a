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


def test_traced_embed_sparse_builds_only_touched_columns():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "embed-sparse", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
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
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
