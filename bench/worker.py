"""Run one workload in this (fresh) process and write its raw result as JSON.

Started by run.py, never by hand.  Order of events:

1. ``import subsketch`` (timed, part of set-up);
2. input generation (not timed);
3. the workload's one-off build or save, then the warm-up op, which is
   op 0 run untimed (timed, part of set-up; the warm-up also absorbs
   lazy library and BLAS initialisation);
4. with ``--setup-only``, stop here;
5. the timed loop: ops 0, 1, ... until ``--seconds`` of op time have
   passed and at least ``min_ops`` ops ran.  Each op is checked after its
   clock stops; op 0's digest must equal the warm-up's;
6. with ``--trace 1``: the loop again under the tracer, bracketed by a
   traced set-up and a traced repeat of op 0 whose counts must equal
   the loop's op 0.
"""

import argparse
import contextlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import time
import traceback
import types

from oracle import CheckFailed

LAYER_MODULES = ("kwise", "oblivious", "leverage", "less", "apply", "sketch",
                 "diagnostics", "experiments", "pipeline", "cli")


def timed_loop(wl, seconds, run_op, warm_digest):
    """Ops until ``seconds`` of op time and ``wl.min_ops`` ops; returns stats."""
    times, failed, dists = [], 0, []
    busy, i = 0.0, 0
    while busy < seconds or i < wl.min_ops:
        out = None
        t0 = time.perf_counter()
        try:
            out = run_op(i)
            ok = True
        except Exception:
            traceback.print_exc()
            ok = False
        dt = time.perf_counter() - t0
        busy += dt
        times.append(dt)
        if ok:
            try:
                digest, dist = wl.check(i, out)
                if i == 0 and digest != warm_digest:
                    raise CheckFailed("op 0 output differs from the warm-up run of op 0")
                if dist is not None:
                    dists.append(dist)
            except Exception:
                traceback.print_exc()
                ok = False
        del out
        failed += not ok
        i += 1
    return {"times": times, "busy": busy, "failed": failed, "distortions": dists}


def host_facts(blas_threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    ss = types.SimpleNamespace(
        **{m: importlib.import_module(f"subsketch.{m}") for m in LAYER_MODULES}
    )
    import_s = time.perf_counter() - t0

    import workloads

    wl = workloads.make(args.workload, ss, args.seed, args.run_dir)
    t0 = time.perf_counter()
    wl.make_inputs()
    inputs_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    wl.setup()
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm_out = warm_digest = None
    try:
        warm_out = wl.op(0)
    except Exception:
        if args.setup_only:
            raise
        traceback.print_exc()  # op 0 then fails its determinism check
    warm_s = time.perf_counter() - t0
    if warm_out is not None and not args.setup_only:
        try:
            warm_digest = wl.check(0, warm_out)[0]
        except Exception:
            traceback.print_exc()
    del warm_out
    result = {"setup_s": import_s + build_s + warm_s,
              "setup_parts": {"import_s": import_s, "build_s": build_s, "warm_s": warm_s},
              "inputs_s": inputs_s}
    if not args.setup_only:
        loop = timed_loop(wl, args.seconds, wl.op, warm_digest)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(loop)
        result["m"] = wl.m
        result["warm_digest"] = warm_digest
        result["host"] = host_facts(os.environ.get("OPENBLAS_NUM_THREADS"))
        if args.trace:
            result["trace"] = traced(ss, wl, args, loop, warm_digest)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def traced(ss, wl, args, untraced, warm_digest):
    import tracemalloc

    import spans

    tracer = spans.Tracer()
    tracer.install(ss)
    try:
        tracemalloc.start()
        tracer.op = "setup"
        tracer.call("bench.setup", wl.setup, ())
        tracemalloc.stop()

        def run_op(i):
            tracer.op = i
            tracer.touched = wl.touched(i)
            return tracer.call("bench.op", wl.op, (i,))

        loop = timed_loop(wl, args.seconds, run_op, warm_digest)
        tracemalloc.start()
        tracer.op = "repeat"
        tracer.touched = wl.touched(0)
        tracer.call("bench.op", wl.op, (0,))
        tracemalloc.stop()
    finally:
        tracer.uninstall()
    if args.spans:
        tracer.dump(args.spans)
    loop_ops = list(range(len(loop["times"])))
    counts_repeat = tracer.op_counts(0) == tracer.op_counts("repeat")
    metrics = tracer.summarize(loop_ops, ("setup", 0),
                               statistics.median(untraced["times"]))
    return {"metrics": metrics, "failed": loop["failed"], "ops": len(loop["times"]),
            "counts_repeat": counts_repeat,
            "op0_counts": tracer.op_counts(0)}


if __name__ == "__main__":
    # results go to --result; the library's own prints (subsketch apply
    # reports each file it writes) go nowhere
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main()
