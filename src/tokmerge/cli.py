"""Command-line harness: benchmarks, strategy comparison, capture, and replay.

Exit codes: 0 success, 1 configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import sys

from .bench import (
    BENCH_COLUMNS,
    COMPARE_COLUMNS,
    REPLAY_COLUMNS,
    HarnessParams,
    run_bench,
    run_capture,
    run_compare,
    run_replay,
)
from .core import (
    STRATEGY_GRID,
    STRATEGY_NONE,
    STRATEGY_POOL,
    STRATEGY_TOPK,
    ConfigInfeasibleError,
)
from .fmap import CaptureFormatError, read_capture

_STRATEGY_BY_FLAG = {
    "none": STRATEGY_NONE,
    "tome": STRATEGY_GRID,
    "importance": STRATEGY_POOL,
    "topk": STRATEGY_TOPK,
}

_BENCH_RATIOS = (0.3, 0.5, 0.7)

_BENCH_SCHEMA = "CSV columns: " + ",".join(BENCH_COLUMNS)
_COMPARE_SCHEMA = "CSV columns: " + ",".join(COMPARE_COLUMNS)
_REPLAY_SCHEMA = "CSV columns: " + ",".join(REPLAY_COLUMNS)


# One flag per HarnessParams field: --dst-frac sets dst_frac, and so on.
_SHARED_HELP = {
    "tokens": "token count; must be a perfect square with even side",
    "channels": "token feature channels",
    "steps": "sampling steps",
    "cfg_scale": "guidance weight w",
    "dst_frac": "dst fraction k",
    "pool_factor": "pool headroom p",
    "prune_steps": "early steps that prune instead of merge",
    "seed": "base seed",
}


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    defaults = HarnessParams()
    for f in dataclasses.fields(HarnessParams):
        default = getattr(defaults, f.name)
        p.add_argument("--" + f.name.replace("_", "-"), type=type(default),
                       default=default,
                       help=f"{_SHARED_HELP[f.name]} (default %(default)s)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _default(run, name: str):
    """The default of ``run``'s parameter ``name``, which a flag shares."""
    return inspect.signature(run).parameters[name].default


def _strategy_flag(p: argparse.ArgumentParser, default: list[str]) -> None:
    # An "append" flag cannot take a list default: given values would extend it.
    p.add_argument("--strategy", action="append", choices=sorted(_STRATEGY_BY_FLAG),
                   default=None,
                   help=f"strategy, repeatable (default: {' '.join(default)})")
    p.set_defaults(default_strategies=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokmerge",
        description="Token-merging benchmark harness for the toy diffusion sampler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser(
        "bench",
        help="FLOPs, latency, memory, and fidelity per (strategy, ratio) pair",
        epilog=_BENCH_SCHEMA,
    )
    _strategy_flag(b, ["tome", "importance"])
    b.add_argument("--ratio", action="append", type=float, default=None,
                   help="merge ratio, repeatable (default: "
                        f"{' '.join(map(str, _BENCH_RATIOS))})")
    b.add_argument("--seeds", type=int, default=_default(run_bench, "n_seeds"),
                   help="trajectories averaged for fidelity (default %(default)s)")
    b.add_argument("--repeats", type=int, default=_default(run_bench, "repeats"),
                   help="timed runs per row (default %(default)s)")
    b.add_argument("--condition", type=int, default=_default(run_bench, "condition"),
                   help="class condition id (default %(default)s)")
    _add_shared_flags(b)
    b.set_defaults(func=_cmd_bench)

    c = sub.add_parser(
        "compare",
        help="matched-seed deviation and cohesion stats across strategies",
        epilog=_COMPARE_SCHEMA,
    )
    _strategy_flag(c, ["tome", "importance", "topk"])
    c.add_argument("--ratio", type=float, default=0.7,
                   help="merge ratio (default %(default)s)")
    c.add_argument("--seeds", type=int, default=_default(run_compare, "n_seeds"),
                   help="seeds in the grid (default %(default)s)")
    c.add_argument("--conditions", type=int, default=_default(run_compare, "n_conditions"),
                   help="class conditions in the grid (default %(default)s)")
    _add_shared_flags(c)
    c.set_defaults(func=_cmd_compare)

    cap = sub.add_parser(
        "capture",
        help="dump per-layer features and guidance maps of an unmerged run",
    )
    cap.add_argument("--condition", type=int, default=_default(run_capture, "condition"),
                     help="class condition id (default %(default)s)")
    _add_shared_flags(cap)
    cap.set_defaults(func=_cmd_capture)

    rep = sub.add_parser(
        "replay",
        help="apply strategies to captured records offline",
        epilog=_REPLAY_SCHEMA,
    )
    rep.add_argument("--input", required=True, help="FMAP file to replay")
    _strategy_flag(rep, ["importance"])
    rep.add_argument("--ratio", type=float, default=0.7,
                     help="merge ratio (default %(default)s)")
    _add_shared_flags(rep)
    rep.set_defaults(func=_cmd_replay)
    return parser


def _params(args: argparse.Namespace) -> HarnessParams:
    return HarnessParams(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(HarnessParams)})


def _strategies(args: argparse.Namespace) -> list[str]:
    return [_STRATEGY_BY_FLAG[f] for f in args.strategy or args.default_strategies]


def _write_rows(rows: list[dict], columns: list[str], out: str | None) -> None:
    def emit(fh):
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)

    if out is None:
        emit(sys.stdout)
    else:
        with open(out, "w", newline="") as fh:
            emit(fh)


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = run_bench(
        _strategies(args),
        args.ratio or list(_BENCH_RATIOS),
        _params(args),
        n_seeds=args.seeds,
        repeats=args.repeats,
        condition=args.condition,
    )
    _write_rows(rows, BENCH_COLUMNS, args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = run_compare(
        _strategies(args),
        args.ratio,
        _params(args),
        n_seeds=args.seeds,
        n_conditions=args.conditions,
    )
    _write_rows(rows, COMPARE_COLUMNS, args.out)
    return 0


def _cmd_capture(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ConfigInfeasibleError("capture needs --out PATH")
    n_records, n_bytes = run_capture(args.out, _params(args), condition=args.condition)
    print(f"wrote {n_records} records ({n_bytes} bytes) to {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    records = read_capture(args.input)
    rows = run_replay(
        records,
        _strategies(args),
        args.ratio,
        _params(args),
    )
    _write_rows(rows, REPLAY_COLUMNS, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that is a config error here.
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except (CaptureFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
