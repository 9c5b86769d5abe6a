"""Spans and counts for the traced run, recorded from outside subsketch.

``Tracer.install`` replaces the names each caller resolves at call time
(module attributes, the two family ``evaluate`` methods and the sampler
table) with wrappers that record a span: name, start, end, parent span
and op id.  Spans stay in memory until ``summarize`` and ``dump``.

Counts attached to spans are computed from argument and result sizes
(points hashed, nonzeros built, flops and bytes of the product), not
read from hardware; they repeat exactly for a fixed seed.  Their hooks
run after the span closes, so they add to op time but not to any span.
"""

import json
import os
import statistics
import time
import tracemalloc

import numpy as np
import scipy.sparse

LAYERS = ("kwise", "oblivious", "leverage", "less", "apply", "sketch",
          "diagnostics", "experiments", "pipeline", "cli", "bench")

# span name -> per-op inclusive time metric
TIMED = {
    "kwise.evaluate": "kwise.evaluate_s",
    "oblivious.build_osnap": "oblivious.build_osnap_s",
    "leverage.approx_leverage": "leverage.approx_leverage_s",
    "less.build_less_ic": "less.build_less_ic_s",
    "apply.apply": "apply.apply_s",
    "apply.load_matrix": "apply.load_matrix_s",
    "apply.save_matrix": "apply.save_matrix_s",
    "sketch.load_sketch": "sketch.load_sketch_s",
    "diagnostics.sampler": "diagnostics.sampler_s",
    "diagnostics.distortion": "diagnostics.distortion_s",
}
KS = (16, 56, 64)  # degrees the workloads hash with at this commit


def _evaluate_counts(tracer, args, result):
    k = getattr(args[0], "degree_k", None)  # None: fully independent family
    points = int(np.size(args[1]))
    return {"points": points, "K": k, "mulmods": points * (k - 1) if k else 0}


def _built_counts(tracer, args, sketch):
    nnz = int(sketch.nnz)
    used = nnz
    mask = tracer.touched
    if mask is not None and mask.size == sketch.n:
        used = int(np.diff(sketch.indptr)[mask].sum())
    return {"nnz_built": nnz, "nnz_used": used}


def _apply_counts(tracer, args, out):
    sketch, A = args[0], args[1]
    d = 1 if np.ndim(A) == 1 else A.shape[1]
    if scipy.sparse.issparse(A):
        row_nnz = np.diff(A.tocsr().indptr)
        a_bytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    else:
        row_nnz = np.full(A.shape[0], d)
        a_bytes = np.asarray(A).nbytes
    col_nnz = np.diff(sketch.indptr)
    s_bytes = sketch.indptr.nbytes + sketch.rows.nbytes + sketch.values.nbytes
    return {"flops": 2 * int(col_nnz @ row_nnz),
            "bytes": int(s_bytes + a_bytes + np.asarray(out).nbytes)}


def _file_counts(tracer, args, result):
    return {"bytes_read": os.path.getsize(args[0])}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # op id stamped on new spans
        self.touched = None  # row mask of the current op's input, if any
        self._stack = []
        self._undo = []

    def call(self, name, fn, args, kwargs=None, counts=None, alloc=False):
        rec = {"name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        if alloc and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
        if alloc and tracemalloc.is_tracing():
            rec["alloc_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        if counts is not None:
            rec["counts"] = counts(self, args, result)
        return result

    def _patch(self, owner, attr, name, counts=None, alloc=False):
        is_dict = isinstance(owner, dict)
        orig = owner[attr] if is_dict else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, orig, args, kwargs, counts, alloc)

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig, is_dict))

    def install(self, ss):
        """Wrap the layer entry points at the names their callers resolve."""
        kw, ob, dg = ss.kwise, ss.oblivious, ss.diagnostics
        self._patch(kw.KWiseFamily, "evaluate", "kwise.evaluate", _evaluate_counts, True)
        self._patch(kw.IndependentFamily, "evaluate", "kwise.evaluate",
                    _evaluate_counts, True)
        self._patch(kw.KWiseFamily, "__post_init__", "kwise.family")
        # leverage imports build_osnap and apply from their modules at call time
        self._patch(ob, "build_osnap", "oblivious.build_osnap", _built_counts)
        self._patch(ss.apply, "apply", "apply.apply", _apply_counts)
        for mod in (ss.pipeline, ss.cli, dg):
            self._patch(mod, "_apply", "apply.apply", _apply_counts)
        self._patch(ss.pipeline, "approx_leverage", "leverage.approx_leverage")
        self._patch(ss.pipeline, "build_less_ic", "less.build_less_ic", _built_counts)
        self._patch(ss.pipeline, "fast_subspace_embed", "pipeline.fast_subspace_embed")
        self._patch(ss.cli, "main", "cli.main")
        self._patch(ss.cli, "load_matrix", "apply.load_matrix", _file_counts)
        self._patch(ss.cli, "save_matrix", "apply.save_matrix")
        self._patch(ss.cli, "load_sketch", "sketch.load_sketch", _file_counts)
        self._patch(ss.sketch.SparseSketch, "save", "sketch.save")
        self._patch(ss.experiments, "run_config", "experiments.run_config")
        for key in list(dg.SAMPLERS):
            self._patch(dg.SAMPLERS, key, "diagnostics.sampler")
        self._patch(dg, "distortion", "diagnostics.distortion")

    def uninstall(self):
        for owner, attr, orig, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def op_counts(self, op):
        """Counts summed over one op's spans; identical across runs of one seed."""
        c = {"kwise.points": 0, "kwise.mulmods": 0, "kwise.families": 0,
             "oblivious.nnz_built": 0, "leverage.attempts": 0, "leverage.nnz_built": 0,
             "leverage.nnz_used": 0, "less.nnz_built": 0, "less.nnz_used": 0,
             "apply.flops": 0, "apply.bytes": 0, "apply.bytes_read": 0,
             "sketch.bytes_read": 0}
        for s in self.spans:
            if s["op"] != op:
                continue
            name, k = s["name"], s.get("counts", {})
            if name == "kwise.evaluate":
                c["kwise.points"] += k["points"]
                c["kwise.mulmods"] += k["mulmods"]
            elif name == "kwise.family":
                c["kwise.families"] += 1
            elif name == "oblivious.build_osnap":
                c["oblivious.nnz_built"] += k["nnz_built"]
                parent = s["parent"]
                if parent is not None and self.spans[parent]["name"] == "leverage.approx_leverage":
                    c["leverage.attempts"] += 1
                    c["leverage.nnz_built"] += k["nnz_built"]
                    c["leverage.nnz_used"] += k["nnz_used"]
            elif name == "less.build_less_ic":
                c["less.nnz_built"] += k["nnz_built"]
                c["less.nnz_used"] += k["nnz_used"]
            elif name == "apply.apply":
                c["apply.flops"] += k["flops"]
                c["apply.bytes"] += k["bytes"]
            elif name == "apply.load_matrix":
                c["apply.bytes_read"] += k["bytes_read"]
            elif name == "sketch.load_sketch":
                c["sketch.bytes_read"] += k["bytes_read"]
        return c

    def summarize(self, loop_ops, counted_ops, untraced_p50):
        """Per-layer metrics as {name: (value, unit)}.

        Inclusive ``*_s`` times are per-op totals, median over the ops
        (set-up included) in which the span ran.  ``<layer>.self_s`` is
        the per-op self time, median over the timed loop's ops; with
        ``bench`` (the harness around each op) they sum to the op time.
        Counts cover ``counted_ops``; rates cover every traced call.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        incl, selfs, op_time = {}, {}, {}
        for s, c in zip(self.spans, child):
            dur = s["end"] - s["start"]
            op = s["op"]
            if s["name"] in TIMED:
                key = (TIMED[s["name"]], op)
                incl[key] = incl.get(key, 0.0) + dur
            layer = s["name"].split(".")[0]
            selfs[(layer, op)] = selfs.get((layer, op), 0.0) + dur - c
            if s["name"] == "bench.op":
                op_time[op] = dur
        out = {}
        for metric in TIMED.values():
            vals = [v for (m, _), v in incl.items() if m == metric]
            out[metric] = (statistics.median(vals) if vals else 0.0, "s")
        self_sum = 0.0
        for layer in LAYERS:
            v = statistics.median(selfs.get((layer, op), 0.0) for op in loop_ops)
            out[f"{layer}.self_s"] = (v, "s")
            self_sum += v
        p50 = statistics.median(op_time[op] for op in loop_ops)
        out["trace.op_s_p50"] = (p50, "s")
        out["trace.self_sum_frac"] = (self_sum / p50, "ratio")
        out["trace.overhead_frac"] = (p50 / untraced_p50 - 1.0, "ratio")

        counts = {}
        for op in counted_ops:
            for k, v in self.op_counts(op).items():
                counts[k] = counts.get(k, 0) + v
        for k in ("kwise.points", "kwise.mulmods", "oblivious.nnz_built",
                  "less.nnz_built", "less.nnz_used"):
            out[k] = (counts[k], "count_computed")
        out["kwise.families"] = (counts["kwise.families"], "count")
        out["leverage.attempts"] = (counts["leverage.attempts"], "count")
        out["apply.flops"] = (counts["apply.flops"], "flop_computed")
        out["apply.bytes"] = (counts["apply.bytes"], "byte_computed")
        out["apply.bytes_read"] = (counts["apply.bytes_read"], "byte")
        out["sketch.bytes_read"] = (counts["sketch.bytes_read"], "byte")
        for layer in ("leverage", "less"):
            built = counts[f"{layer}.nnz_built"]
            out[f"{layer}.useful_frac"] = (
                counts[f"{layer}.nnz_used"] / built if built else 0.0, "ratio")

        ev = [s for s in self.spans if s["name"] == "kwise.evaluate"]
        ev_time = sum(s["end"] - s["start"] for s in ev)
        ev_mul = sum(s["counts"]["mulmods"] for s in ev)
        out["kwise.mulmod_per_s"] = (ev_mul / ev_time if ev_time else 0.0, "1/s")
        for k in KS:
            sel = [s for s in ev if s["counts"]["K"] == k]
            t = sum(s["end"] - s["start"] for s in sel)
            rate = sum(s["counts"]["mulmods"] for s in sel) / t if t else 0.0
            out[f"kwise.mulmod_per_s.k{k}"] = (rate, "1/s")
        out["kwise.peak_alloc_mb"] = (
            max((s.get("alloc_mb", 0.0) for s in ev), default=0.0), "MB")
        ap = [s for s in self.spans if s["name"] == "apply.apply"]
        ap_time = sum(s["end"] - s["start"] for s in ap)
        out["apply.flops_per_s"] = (
            sum(s["counts"]["flops"] for s in ap) / ap_time if ap_time else 0.0, "1/s")
        return out
