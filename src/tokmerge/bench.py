"""Benchmark engine: cost/fidelity measurement, strategy comparison, replay.

All randomized comparisons are matched-seed: every strategy sees the same
initial noise, the same per-step ancestral noise, and the same per
(timestep, layer) plan-draw streams.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import toydiff
from .core import (
    STRATEGY_NONE,
    STRATEGY_POOL,
    ConfigInfeasibleError,
    ImportanceMap,
    MergeConfig,
    MergePlan,
    TokenMatrix,
    counts_for,
    require_finite,
    require_integer,
)
from .flops import FlopModel
from .fmap import CaptureRecord, write_capture
from .matching import unit_cosine, unit_rows
from .rng import Rng
# The planners are unused here, but bound so that tracers can wrap them in this module.
from .strategy import plan_importance_pool, plan_tome_grid, plan_topk_dst, top_tokens  # noqa: F401
from .toydiff import MODE_MERGE, NoiseSchedule, ToyDenoiser, sample

# Stream id offset for the random-assignment control oracle.
_CONTROL_LAYER = 1 << 19

_add = np.add.reduce

BENCH_COLUMNS = [
    "strategy", "r", "k", "p", "prune_steps", "steps", "tokens", "channels",
    "flops_per_step", "latency_step_s", "peak_mem_bytes", "mse_vs_baseline",
    "status",
]
COMPARE_COLUMNS = [
    "strategy", "r", "k", "p", "n_seeds", "n_conditions", "mse_mean",
    "mse_median", "mse_p95", "pool_violations", "homogeneity_mean",
    "homogeneity_random", "status",
]
REPLAY_COLUMNS = [
    "record", "timestep", "layer", "n_tokens", "n_channels", "strategy",
    "expected_n_out", "actual_n_out", "count_ok", "homogeneity",
    "homogeneity_random", "status",
]


@dataclass(frozen=True)
class HarnessParams:
    """Shared sampling/benchmark knobs, and the defaults of the CLI flags.

    The merge settings default to :class:`MergeConfig`'s defaults.
    """

    tokens: int = 64
    channels: int = 16
    steps: int = 50
    cfg_scale: float = 7.5
    dst_frac: float = MergeConfig.k
    pool_factor: float = MergeConfig.p
    prune_steps: int = MergeConfig.prune_steps
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(cfg_scale=self.cfg_scale, dst_frac=self.dst_frac,
                       pool_factor=self.pool_factor)
        require_integer(tokens=self.tokens, channels=self.channels, seed=self.seed)
        # Every subcommand takes every flag, even where it reads only some
        # (replay never samples), so all of them are checked here.
        self.grid()
        if self.channels < 4 or self.channels % 2:
            raise ConfigInfeasibleError(f"channels={self.channels} must be even and >= 4")
        _require_at_least(2, steps=self.steps)
        self.config(STRATEGY_NONE, 0.0)  # the merge settings every config shares

    def grid(self) -> tuple[int, int]:
        side = math.isqrt(max(self.tokens, 0))
        if side == 0 or side * side != self.tokens or side % 2:
            raise ConfigInfeasibleError(
                f"--tokens {self.tokens} must be a positive perfect square with an even side"
            )
        return side, side

    def config(self, strategy: str, ratio: float, seed: int | None = None) -> MergeConfig:
        """``strategy`` at ``ratio`` with the shared merge settings.

        ``seed`` is accepted and unused: plans draw from the trajectory's
        :class:`Rng`, not from the config.
        """
        return MergeConfig(
            strategy, ratio, k=self.dst_frac, p=self.pool_factor, prune_steps=self.prune_steps
        )

    def model(self, n_classes: int = 8) -> ToyDenoiser:
        return ToyDenoiser(self.channels, n_classes=n_classes, seed=0)

    def schedule(self) -> NoiseSchedule:
        return NoiseSchedule.linear(self.steps)


def merge_cohesion(
    unit: np.ndarray, plan: MergePlan, control: Rng
) -> tuple[float, float] | None:
    """Merge-group cohesion and its random-assignment control, or None if nothing merges.

    ``unit`` holds the layer's tokens as :func:`~tokmerge.matching.unit_rows`,
    normalized once and shared by every plan of the layer.  Cohesion is the
    mean cosine similarity of each merged token to its assigned dst.  The
    control is the same mean when each merged token is assigned a dst drawn
    at random from ``control``'s stream.
    """
    if plan.n_merged == 0:
        return None
    sources = unit.take(plan.merged_sources, axis=0)
    gen = control.generator()
    random_targets = plan.dst_indices[gen.integers(0, plan.dst_indices.size, plan.n_merged)]
    # Each mean is the add.reduce and division by the count that .mean runs.
    n = plan.n_merged
    return (float(_add(unit_cosine(sources, unit.take(plan.merged_targets, axis=0))) / n),
            float(_add(unit_cosine(sources, unit.take(random_targets, axis=0))) / n))


def _pool_violations(tokens: TokenMatrix, importance: ImportanceMap, plan: MergePlan,
                     config: MergeConfig) -> int:
    """How many dst/independent indices fall outside the top-K importance set."""
    counts = counts_for(tokens.n_tokens, config)
    in_pool = np.zeros(tokens.n_tokens, dtype=bool)
    in_pool[top_tokens(importance, counts.pool_size)] = True
    selected = np.concatenate([plan.dst_indices, plan.independent_indices])
    return int(np.count_nonzero(~in_pool[selected]))


def _mse(a: TokenMatrix, b: TokenMatrix) -> float:
    diff = a.data.astype(np.float64) - b.data.astype(np.float64)
    return float(np.mean(diff * diff))


def _traced_peak(run: Callable[[], TokenMatrix]) -> tuple[TokenMatrix, int]:
    """``run()``'s result and the peak bytes traced by ``tracemalloc`` during it."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _median_seconds(call: Callable[[], object], repeats: int, warmups: int) -> float:
    """Median wall-clock seconds of ``repeats`` calls that follow ``warmups`` untimed ones."""
    for _ in range(warmups):
        call()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _trajectories(params: HarnessParams,
                  model: ToyDenoiser) -> Callable[..., Callable[[], TokenMatrix]]:
    """``trajectory(strategy, ratio, seed, condition, hook=None)``: a thunk that
    samples one matched-seed trajectory of ``model``.

    The config is built before the thunk, which calls only :func:`sample`
    (looked up at call time), so a memory trace of the thunk sees only the
    sampler.
    """
    schedule, grid = params.schedule(), params.grid()

    def trajectory(strategy: str, ratio: float, seed: int, condition: int,
                   hook: Callable | None = None) -> Callable[[], TokenMatrix]:
        config = params.config(strategy, ratio)
        return lambda: sample(model, schedule, config, params.cfg_scale, condition,
                              Rng(seed), grid, hook=hook)

    return trajectory


def _require_at_least(minimum: int, **counts: int) -> None:
    """Raise :class:`ConfigInfeasibleError` naming the first count that is not
    an integer of at least ``minimum``."""
    require_integer(**counts)
    for name, value in counts.items():
        if value < minimum:
            raise ConfigInfeasibleError(f"{name}={value} must be >= {minimum}")


def _mean_or_nan(values: list[float]) -> float:
    return float(np.mean(values)) if values else float("nan")


def run_bench(
    strategies: list[str],
    ratios: list[float],
    params: HarnessParams,
    n_seeds: int = 1,
    repeats: int = 5,
    warmups: int = 2,
    condition: int = 0,
) -> list[dict]:
    """One CSV row for the unmerged baseline, then one per (strategy, ratio) pair.

    Latency is the median full-trajectory wall clock over ``repeats`` untraced
    runs (after ``warmups``) divided by the step count; peak memory comes from
    one more trajectory run under ``tracemalloc``.  Fidelity is the MSE of the
    final sample against the strategy=none baseline under identical seeds.
    Infeasible pairs produce a row with status "infeasible" and the run
    continues.
    """
    for r in ratios:
        require_finite(ratio=r)
    _require_at_least(1, n_seeds=n_seeds, repeats=repeats)
    _require_at_least(0, warmups=warmups)
    model = params.model()
    trajectory = _trajectories(params, model)
    flop = FlopModel(params.tokens, params.channels, model.n_hidden,
                     n_blocks=model.n_blocks)
    seeds = [params.seed + i for i in range(n_seeds)]
    pairs = [(STRATEGY_NONE, 0.0)]
    pairs += [(s, r) for s in strategies if s != STRATEGY_NONE for r in ratios]
    rows = []
    for strategy, r in pairs:
        row = dict.fromkeys(BENCH_COLUMNS, "")
        row.update(
            strategy=strategy, r=r, k=params.dst_frac, p=params.pool_factor,
            prune_steps=params.prune_steps, steps=params.steps,
            tokens=params.tokens, channels=params.channels, status="ok",
        )
        try:
            n_out = counts_for(params.tokens, params.config(strategy, r)).n_out
            first = trajectory(strategy, r, seeds[0], condition)
            latency = _median_seconds(first, repeats, warmups)
            out, peak = _traced_peak(first)
            outs = [out] + [trajectory(strategy, r, s, condition)() for s in seeds[1:]]
        except ConfigInfeasibleError as exc:
            row["status"] = f"infeasible: {exc}"
        else:
            if strategy == STRATEGY_NONE:
                baselines = outs
            row.update(
                flops_per_step=flop.step_flops(n_out),
                latency_step_s=latency / params.steps,
                peak_mem_bytes=peak,
                mse_vs_baseline=float(np.mean([_mse(o, b) for o, b in zip(outs, baselines)])),
            )
        rows.append(row)
    return rows


def run_compare(
    strategies: list[str],
    ratio: float,
    params: HarnessParams,
    n_seeds: int = 32,
    n_conditions: int = 4,
) -> list[dict]:
    """Matched-seed strategy comparison over a seed x condition grid.

    Reports deviation statistics against the unmerged baseline, merge-group
    cohesion with its random-assignment control, and the pool-containment
    violation count (which must be zero for the importance-pool strategy).
    """
    if len(strategies) < 2:
        raise ConfigInfeasibleError("compare needs at least 2 strategies")
    require_finite(ratio=ratio)
    _require_at_least(1, n_seeds=n_seeds, n_conditions=n_conditions)
    trajectory = _trajectories(params, params.model(n_classes=max(8, n_conditions)))
    cases = [(params.seed + s, cond) for s in range(n_seeds) for cond in range(n_conditions)]
    baselines = {case: trajectory(STRATEGY_NONE, 0.0, *case)() for case in cases}

    rows = []
    for strategy in strategies:
        mses: list[float] = []
        cohesions: list[tuple[float, float]] = []
        violations = 0
        status = "ok"
        try:
            config = params.config(strategy, ratio)
            for seed, cond in cases:
                events = []
                out = trajectory(strategy, ratio, seed, cond, events.append)()
                mses.append(_mse(out, baselines[seed, cond]))
                for ev in events:
                    if ev.plan.n_merged:  # one normalization per layer event that merges
                        cohesions.append(merge_cohesion(
                            unit_rows(ev.tokens.data), ev.plan,
                            Rng(seed).at(ev.timestep, _CONTROL_LAYER + ev.layer)))
                    pool_merge = strategy == STRATEGY_POOL and ev.mode == MODE_MERGE
                    if pool_merge and not ev.grid_fallback:
                        violations += _pool_violations(ev.tokens, ev.importance, ev.plan, config)
        except ConfigInfeasibleError as exc:
            status = f"infeasible: {exc}"
        rows.append(
            {
                "strategy": strategy,
                "r": ratio,
                "k": params.dst_frac,
                "p": params.pool_factor,
                "n_seeds": n_seeds,
                "n_conditions": n_conditions,
                "mse_mean": _mean_or_nan(mses),
                "mse_median": float(np.median(mses)) if mses else float("nan"),
                "mse_p95": float(np.percentile(mses, 95)) if mses else float("nan"),
                "pool_violations": violations,
                "homogeneity_mean": _mean_or_nan([coh for coh, _ in cohesions]),
                "homogeneity_random": _mean_or_nan([ctl for _, ctl in cohesions]),
                "status": status,
            }
        )
    return rows


def run_capture(
    out_path, params: HarnessParams, condition: int = 0
) -> tuple[int, int]:
    """Run an unmerged trajectory and dump every attention-layer input.

    One record per (step, layer) from the conditional pass: the layer's input
    tokens plus the guidance map that would drive planning at that step
    (zeros at the first step, where no previous-step map exists yet;
    :func:`_record_layer` reads them back as no map).  The sampler plans each
    layer from the cond pass's tokens and the uncond pass reuses that plan,
    so these records are the planning inputs of both passes.  Returns
    (record count, bytes written).
    """
    events = []
    trajectory = _trajectories(params, params.model())
    trajectory(STRATEGY_NONE, 0.0, params.seed, condition, events.append)()
    records = [
        CaptureRecord(ev.timestep, ev.layer, ev.tokens.data,
                      np.zeros(ev.tokens.n_tokens) if ev.importance is None
                      else ev.importance.scores)
        for ev in events if ev.pass_id == "cond"
    ]
    n_bytes = write_capture(out_path, records)
    return len(records), n_bytes


def _record_layer(record: CaptureRecord) -> tuple[TokenMatrix, ImportanceMap | None]:
    """A captured record's layer tokens, on a square grid where the token count
    is a perfect square, and the guidance map its layer was planned from: None
    for :func:`run_capture`'s all-zero guidance."""
    n = record.features.shape[0]
    side = math.isqrt(n)
    grid = (side, side) if side > 0 and side * side == n else None
    importance = ImportanceMap(record.guidance) if record.guidance.any() else None
    return TokenMatrix(record.features, grid=grid), importance


def run_replay(
    records: list[CaptureRecord],
    strategies: list[str],
    ratio: float,
    params: HarnessParams,
) -> list[dict]:
    """Apply each strategy to each captured record offline.

    Per record: merge-group cohesion (with random-assignment control) and a
    reduced-count check.  Strategies whose :func:`toydiff.planning_config`
    is the same for a record (pool and topk on a record with no map plan as
    grid does) share one plan and its cohesion, and each record's tokens are
    normalized once for the cohesion of all its plans.  Malformed records
    produce an error row and the replay continues.
    """
    require_finite(ratio=ratio)
    rows = []
    base = Rng(params.seed)
    for idx, rec in enumerate(records):
        n, c = rec.features.shape
        layer = None  # built on the first strategy, and again after it failed
        unit = None  # the tokens' unit rows, built on the first plan that merges
        planned = {}  # planning config -> (plan, cohesion or None); no failed plans
        for strategy in strategies:
            row = dict.fromkeys(REPLAY_COLUMNS, "")
            row.update(record=idx, timestep=rec.timestep, layer=rec.layer, n_tokens=n,
                       n_channels=c, strategy=strategy, status="ok")
            try:
                config = params.config(strategy, ratio)
                expected = counts_for(n, config).n_out
                if layer is None:
                    layer = _record_layer(rec)
                key = toydiff.planning_config(config, layer[1])
                if key not in planned:
                    plan = toydiff.plan_layer(*layer, key, base.at(rec.timestep, rec.layer))
                    cohesion = None
                    if plan.n_merged:
                        if unit is None:
                            unit = unit_rows(rec.features)
                        cohesion = merge_cohesion(
                            unit, plan, base.at(rec.timestep, _CONTROL_LAYER + rec.layer))
                    planned[key] = plan, cohesion
                plan, cohesion = planned[key]
                row.update(expected_n_out=expected, actual_n_out=plan.n_out,
                           count_ok=plan.n_out == expected)
                if cohesion is not None:
                    row.update(homogeneity=cohesion[0], homogeneity_random=cohesion[1])
            except ValueError as exc:
                row["status"] = f"error: {exc}"
            rows.append(row)
    return rows

