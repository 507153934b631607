"""tokmerge benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sample-256 --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run, which times a fixed number of rounds and
ignores ``--seconds``.  Human-readable detail (environment,
quartiles and sample counts, analytic costs) comes first; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.  The
package is imported from this checkout's ``src/``; without it the benchmark
exits with code 2 and prints no result.  ``--smoke`` runs the same workload
at tiny sizes, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"
# A seed not used while the benchmark was written: a claimed gain must also
# hold on it.
HELD_OUT_SEED = 7919
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _single_thread_blas() -> int:
    """Hold BLAS to one thread; must run before numpy loads.  Returns nproc.

    Two OpenBLAS threads were no faster on a 256-token step (17.3 against
    17.2 ms), doubled its CPU time by spin-waiting, and with two busy
    processes beside them on two vCPUs made it 3.5 times slower.  One thread
    also makes the process's CPU time, which the benchmark measures, its
    own work alone.
    """
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def metric_tables() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metrics of BENCHMARK.json: name -> (unit, direction)."""
    spec = json.loads(SPEC.read_text())
    return tuple({m["name"]: (m["unit"], m["better"]) for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def _environment(nproc: int, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ[var] for var in _BLAS_THREAD_VARS},
        "nproc": nproc,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tokmerge" / "__init__.py").is_file():
        print(f"error: no tokmerge sources under {src}", file=sys.stderr)
        return 2
    nproc = _single_thread_blas()
    sys.path.insert(0, str(src))
    end_to_end, per_layer = metric_tables()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)

    OUT_DIR.mkdir(exist_ok=True)
    ctx = workloads.make_context(w, args.seed, OUT_DIR)
    run = workloads.Run()
    report = [f"workload {w.name}: {w.tokens} tokens x {w.channels} channels, "
              f"{w.steps} steps ({w.prune_steps} prune), r={workloads.RATIO}",
              "environment " + json.dumps(_environment(nproc, args.seed))]
    try:
        if args.trace:
            spans_path = OUT_DIR / f"{w.name}-{args.seed}-spans.jsonl"
            metrics = workloads.measure_traced(ctx, run, report, spans_path)
            wanted = per_layer
        else:
            metrics = workloads.measure(ctx, args.seconds, run, report)
            wanted = end_to_end
    finally:
        ctx.capture_path.unlink(missing_ok=True)

    if set(metrics) != set(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} disagree with {SPEC.name}",
              file=sys.stderr)
        return 1
    # A metric left without samples by failed operations reads NaN; the
    # result line is still printed, with "correct": false.
    if not run.failed and not all(math.isfinite(v) for v in metrics.values()):
        print(f"error: non-finite metrics {metrics}", file=sys.stderr)
        return 1
    for label, problem in run.failed.items():
        report.append(f"FAILED {label}: {problem}")
    for name, (unit, better) in wanted.items():
        report.append(f"{name} = {metrics[name]!r} {unit} ({better} is better)")
    print("\n".join(report))
    print(json.dumps({
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in wanted.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
