"""subsketch benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of embed-sparse, embed-dense,
verify-trials, apply-reuse (see NOTES.md for why each exists).  The
workload runs in a fresh worker process (worker.py) against the library
in src/, with the BLAS pinned to BLAS_THREADS threads.  With ``--trace 0``
two more worker processes repeat only the set-up, and ``setup_s`` is the
median of the three.  Scratch files live in .bench_run/ and are removed
at exit, except the traced run's span dump.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records host facts, the op 0 output digest and sample counts.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("embed-sparse", "embed-dense", "verify-trials", "apply-reuse")
BLAS_THREADS = 1  # one thread: steadier on shared hosts, and thread-count free
SETUP_RUNS = 3
DEADLINE_S = 170  # the whole invocation must end within 180 s


def run_worker(args, run_dir, deadline, tag, extra=()):
    result = run_dir / f"result-{tag}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir),
           "--result", str(result), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def end_to_end(res, setups):
    times = res["times"]
    attempted = len(times)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p90": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "ops_per_s": (attempted / res["busy"], "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "distortion": (statistics.median(res["distortions"]), "ratio"),
        "embed_m": (res["m"], "rows"),
        "ok_frac": (1.0 - res["failed"] / attempted, "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "subsketch" / "__init__.py").is_file():
        print(f"error: no subsketch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_run"
    run_dir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
    try:
        res = run_worker(args, run_dir, deadline, "main",
                         ["--spans", str(spans)] if args.trace else [])
        setups = [res["setup_s"]]
        for k in range(1, SETUP_RUNS if not args.trace else 1):
            setups.append(run_worker(args, run_dir, deadline, k, ["--setup-only"])["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = len(res["times"]), res["failed"]
    correct = (failed == 0 and res["warm_digest"] is not None
               and len(res["distortions"]) > 0)
    info = {"workload": args.workload, "seed": args.seed, "ops": attempted,
            "digest_op0": res["warm_digest"], "setup_s_runs": setups,
            "setup_parts": res["setup_parts"], "inputs_s": res["inputs_s"],
            "distortion_samples": len(res["distortions"]), "host": res["host"]}
    if args.trace:
        tr = res["trace"]
        metrics = tr["metrics"]
        attempted += tr["ops"]
        failed += tr["failed"]
        correct = correct and tr["failed"] == 0 and tr["counts_repeat"]
        info.update(traced_ops=tr["ops"], counts_repeat=tr["counts_repeat"],
                    op0_counts=tr["op0_counts"], spans=str(spans.relative_to(ROOT)))
    else:
        metrics = end_to_end(res, setups)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
