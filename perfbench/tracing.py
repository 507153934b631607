"""Outside-in span tracing of tokmerge's layers.

Spans are recorded by wrappers installed from the benchmark's own files:
each wrapper replaces a public name in the namespace where its caller looks
it up (``toydiff.apply_merge``, ``strategy.link_best``, ...), or a method on
its class, so the package under test is never edited.  ``cosine_kernel`` is
bound as a default argument at definition time and cannot be reached this
way, so ``link_best`` is the matching span.

Spans stay in memory as ``(name, start, end, parent, op)`` tuples; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict


class Tracer:
    """Records nested spans and per-span counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = ""  # label of the operation (trajectory or replay) in flight
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, result)`` returns extra counters for the call; they are
        summed under ``"<name>.<key>"``.
        """
        original = owner.__dict__[attr]
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if count is not None:
                for key, value in count(args, result).items():
                    counters[f"{name}.{key}"] += value
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - child[i]
        return {name: tuple(v) for name, v in out.items()}


def _schedule_counts(args, result) -> dict:
    return {
        "prune": result.mode == "prune",
        "merge": result.mode == "merge" and result.plan.n_merged > 0,
        "fallbacks": result.grid_fallback,
    }


def _link_counts(args, result) -> dict:
    src, dst = args[0], args[1]
    n_src, n_dst, c = src.shape[0], dst.shape[0], src.shape[1]
    # float64 unit rows of both operands plus the (n_src, n_dst) similarity
    # matrix: bytes the kernel computes, derived from shapes, not measured.
    return {"pairs": n_src * n_dst, "bytes_computed": 8 * (n_src * n_dst + (n_src + n_dst) * c)}


def _rows_out(args, result) -> dict:
    return {"rows": result.n_tokens}


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(args, result) -> dict:
    return {"bytes": result}


def install(tracer: Tracer, tm) -> None:
    """Wrap every traced public function of the ``tm`` package."""
    toydiff, strategy, bench = tm.toydiff, tm.strategy, tm.bench
    w = tracer.wrap

    def attention_counts(args, result) -> dict:
        n, c = args[0].shape
        return {"rows": n, "flops": tm.flops.attention_flops(n, c)}

    w(toydiff.ToyDenoiser, "forward", "toydiff.forward")
    w(toydiff, "attention", "toydiff.attention", attention_counts)
    w(toydiff, "scheduled_plan", "toydiff.scheduled_plan", _schedule_counts)
    for caller in (toydiff, bench):
        for fn in ("plan_tome_grid", "plan_importance_pool", "plan_topk_dst"):
            w(caller, fn, f"strategy.{fn}")
    w(strategy, "link_best", "matching.link_best", _link_counts)
    w(tm.core.MergePlan, "__init__", "core.MergePlan")
    w(tm.core.TokenMatrix, "__init__", "core.TokenMatrix")
    for fn in ("apply_merge", "apply_prune", "apply_unmerge"):
        w(toydiff, fn, f"core.{fn}", _rows_out)
    w(toydiff, "guidance_magnitude", "importance.guidance_magnitude")
    w(toydiff, "resample_importance", "importance.resample_importance")
    w(strategy, "rank_tokens", "importance.rank_tokens")
    w(tm.rng.Rng, "generator", "rng.Rng.generator")
    w(tm.fmap, "read_capture", "fmap.read_capture", _file_bytes)
    w(bench, "write_capture", "fmap.write_capture", _written_bytes)
    w(bench, "run_replay", "bench.run_replay")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from one trace."""
    stats = tracer.summary()
    counters = tracer.counters

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return 1e3 * stats.get(name, (0, 0.0, 0.0))[1]

    def self_ms(name):
        return 1e3 * stats.get(name, (0, 0.0, 0.0))[2]

    out = {
        "toydiff.forward.calls": calls("toydiff.forward"),
        "toydiff.forward.self_ms": self_ms("toydiff.forward"),
        "toydiff.attention.calls": calls("toydiff.attention"),
        "toydiff.attention.ms": ms("toydiff.attention"),
        "toydiff.attention.rows_mean": counters["toydiff.attention.rows"]
        / max(1, calls("toydiff.attention")),
        "toydiff.attention.flops": counters["toydiff.attention.flops"],
        "toydiff.scheduled_plan.self_ms": self_ms("toydiff.scheduled_plan"),
    }
    for key in ("prune", "merge", "fallbacks"):
        out[f"toydiff.scheduled_plan.{key}"] = counters[f"toydiff.scheduled_plan.{key}"]
    for fn in ("plan_tome_grid", "plan_importance_pool", "plan_topk_dst"):
        out[f"strategy.{fn}.calls"] = calls(f"strategy.{fn}")
        out[f"strategy.{fn}.self_ms"] = self_ms(f"strategy.{fn}")
    out["matching.link_best.calls"] = calls("matching.link_best")
    out["matching.link_best.ms"] = ms("matching.link_best")
    out["matching.link_best.pairs"] = counters["matching.link_best.pairs"]
    out["matching.link_best.bytes_computed"] = counters["matching.link_best.bytes_computed"]
    for cls in ("MergePlan", "TokenMatrix"):
        out[f"core.{cls}.calls"] = calls(f"core.{cls}")
        out[f"core.{cls}.ms"] = ms(f"core.{cls}")
    for fn in ("apply_merge", "apply_prune", "apply_unmerge"):
        out[f"core.{fn}.calls"] = calls(f"core.{fn}")
        out[f"core.{fn}.ms"] = ms(f"core.{fn}")
        out[f"core.{fn}.rows"] = counters[f"core.{fn}.rows"]
    out["importance.guidance_magnitude.ms"] = ms("importance.guidance_magnitude")
    out["importance.resample_importance.ms"] = ms("importance.resample_importance")
    out["importance.rank_tokens.calls"] = calls("importance.rank_tokens")
    out["importance.rank_tokens.ms"] = ms("importance.rank_tokens")
    out["rng.Rng.generator.calls"] = calls("rng.Rng.generator")
    out["rng.Rng.generator.ms"] = ms("rng.Rng.generator")
    for fn in ("read_capture", "write_capture"):
        out[f"fmap.{fn}.ms"] = ms(f"fmap.{fn}")
        out[f"fmap.{fn}.bytes"] = counters[f"fmap.{fn}.bytes"]
    out["bench.run_replay.self_ms"] = self_ms("bench.run_replay")
    return {k: float(v) for k, v in out.items()}


def named_self_seconds(tracer: Tracer) -> float:
    """Total self time of every recorded span."""
    return sum(self_s for _, _, self_s in tracer.summary().values())
