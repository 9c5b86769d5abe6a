"""Command-line surface.

Commands: ``sketch``, ``apply``, ``leverage``, ``verify``, ``bench``,
``pipeline``.  Every command takes ``--seed`` and (where it writes
something) ``--out``.  Computation is deterministic for a fixed seed.

Exit codes: 0 success, 2 parameter error, 3 IO/parse error,
4 verification failure.
"""

import argparse
import contextlib
import csv
import json
import sys

from . import __version__
from .apply import apply as _apply
from .apply import load_matrix, save_matrix
from .errors import FormatError, ParameterError
from .experiments import calibrate, eps_sweep, m_sweep, nnz_sweep, run_config, s_sweep
from .leverage import LeverageScores, approx_leverage, exact_leverage
from .oblivious import LESS_KINDS, SketchSpec, build
from .pipeline import PIPELINE_KINDS, Overrides, PipelineConfig, fast_subspace_embed
from .sketch import load_sketch

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_IO = 3
EXIT_VERIFY = 4


def _add_common(p, out_required=False, seed=0):
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", required=out_required, help="output path")


def _build_parser():
    root = argparse.ArgumentParser(prog="subsketch", description=__doc__)
    root.add_argument("--version", action="version", version=__version__)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sketch", help="build a sketch and write a .skt file")
    p.add_argument("--kind", required=True,
                   choices=["osnap", "ose-ie", "less-ic", "less-ie"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--p", type=float)
    g.add_argument("--s", type=int, help="per-column sparsity (alternative to --p)")
    p.add_argument("--degree-k", type=int,
                   help="independence degree K of the hashing kinds osnap and less-ic (default 8)")
    p.add_argument("--scores", help="scores JSON (required for less-* kinds)")
    _add_common(p, out_required=True)

    p = sub.add_parser("apply", help="apply a sketch file to a Matrix Market matrix")
    p.add_argument("sketch_file")
    p.add_argument("matrix_file")
    _add_common(p, out_required=True)

    p = sub.add_parser("leverage", help="compute leverage scores of a matrix")
    p.add_argument("matrix_file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--exact", action="store_true")
    g.add_argument("--gamma", type=float)
    _add_common(p, out_required=True)

    p = sub.add_parser("verify", help="run a JSON experiment config")
    p.add_argument("--config", required=True)
    _add_common(p)

    p = sub.add_parser("bench", help="parameter sweeps and calibration, CSV out")
    p.add_argument("--sweep", choices=["eps", "m", "s", "nnz"])
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--kind", default="osnap")
    p.add_argument("--trials", type=int)  # 50 for a sweep, the reference count for --calibrate
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--n", type=int)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.05)
    _add_common(p, seed=None)  # 0 for a sweep, the reference seed for --calibrate

    p = sub.add_parser("pipeline", help="fast subspace embedding of a matrix")
    p.add_argument("matrix_file")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--gamma", type=float, default=0.25)
    p.add_argument("--kind", default="less-ic", choices=PIPELINE_KINDS)
    p.add_argument("--m", type=int, help="override embedding dimension")
    p.add_argument("--pm", type=int, help="override sparsity p*m")
    p.add_argument("--validate", action="store_true",
                   help="also measure distortion against an exact basis")
    p.add_argument("--report", help="write the run report JSON here")
    _add_common(p, out_required=True)

    return root


def _load_scores(path):
    """Scores from a JSON file; FormatError if it is not a scores object."""
    with open(path) as fh:
        try:
            return LeverageScores.from_dict(json.load(fh))
        except ParameterError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: invalid scores file: {exc!r}") from exc


def _cmd_sketch(args):
    if args.m < 1:
        raise ParameterError(f"--m must be >= 1, got {args.m}")
    less = args.kind in LESS_KINDS
    if less and not args.scores:
        raise ParameterError(f"{args.kind} needs --scores")
    spec = SketchSpec(
        kind=args.kind, m=args.m, n=args.n,
        p=args.p if args.p is not None else args.s / args.m,
        degree_k=args.degree_k, seed=args.seed,
        scores=_load_scores(args.scores) if less else None,
    )
    sk = build(spec)
    sk.save(args.out)
    print(f"wrote {args.out}: kind={sk.spec.kind} m={sk.m} n={sk.n} nnz={sk.nnz}")
    return EXIT_OK


def _cmd_apply(args):
    sk = load_sketch(args.sketch_file)
    A = load_matrix(args.matrix_file)
    result = _apply(sk, A)
    save_matrix(args.out, result)
    print(f"wrote {args.out}: {result.shape[0]}x{result.shape[1]}")
    return EXIT_OK


def _cmd_leverage(args):
    A = load_matrix(args.matrix_file)
    if args.exact:
        scores = exact_leverage(A)
    else:
        scores = approx_leverage(A, args.gamma, seed=args.seed)
    with open(args.out, "w") as fh:
        json.dump(scores.to_dict(), fh)
    print(f"wrote {args.out}: n={scores.n} beta1={scores.beta1:.3g} "
          f"beta2={scores.beta2:.3g}")
    return EXIT_OK


def _cmd_verify(args):
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{args.config}: invalid JSON: {exc}") from exc
    if isinstance(cfg, dict) and "seed" not in cfg:
        cfg["seed"] = args.seed
    report, passed = run_config(cfg)
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK if passed else EXIT_VERIFY


def _write_csv(path, rows):
    if not rows:
        return
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def _cmd_bench(args):
    if args.calibrate:
        constants, rows = calibrate(trials=args.trials, seed=args.seed)
        _write_csv(args.out, rows)
        print(json.dumps(constants.as_dict(), indent=2))
        return EXIT_OK
    if not args.sweep:
        raise ParameterError("bench needs --sweep or --calibrate")
    seed = 0 if args.seed is None else args.seed
    kwargs = dict(d=args.d, eps=args.eps, delta=args.delta,
                  trials=50 if args.trials is None else args.trials, seed=seed)
    n = args.n if args.n is not None else 8192 if args.sweep == "eps" else 4096
    if args.sweep == "eps":
        kwargs.pop("eps")
        rows = eps_sweep(args.kind, n=n, **kwargs)
    elif args.sweep == "m":
        rows = m_sweep(args.kind, n=n, **kwargs)
    elif args.sweep == "nnz":
        rows = nnz_sweep(d=args.d, base_n=n, seed=seed)
    else:
        rows = s_sweep(args.kind, n=n, **kwargs)
    _write_csv(args.out, rows)
    if args.out:
        print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_pipeline(args):
    A = load_matrix(args.matrix_file)
    config = PipelineConfig(
        eps=args.eps, delta=args.delta, gamma=args.gamma, seed=args.seed,
        kind=args.kind, overrides=Overrides(m=args.m, pm=args.pm),
        validate=args.validate,
    )
    A_tilde, report = fast_subspace_embed(A, config)
    save_matrix(args.out, A_tilde)
    payload = json.dumps(report.to_dict(), indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK


_COMMANDS = {
    "sketch": _cmd_sketch,
    "apply": _cmd_apply,
    "leverage": _cmd_leverage,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "pipeline": _cmd_pipeline,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
