"""The benchmark's workloads and how one run measures them.

Every workload is a closed loop: one client in one process starts each
operation when the previous one ends.  A *round* runs the three sampler
configs round-robin -- ``none``, ``grid`` (tome-random-grid, r=0.7) and
``pool`` (importance-pool, r=0.7), so machine drift hits all three alike --
followed by ``replay_ops`` replay operations.  A replay operation is one
``fmap.read_capture`` plus one ``bench.run_replay`` of every captured record
under grid, pool and topk-dst at r=0.7, with no denoiser.  Every workload
reports every end-to-end metric, so each runs both kinds of operation; the
workloads differ in token count and in how their time splits between them.
Each run prints that split as measured.  On ``replay-1024`` ``replay_ops``
is set so that replay takes about three quarters of the timed wall time.

Round ``i`` samples from its own input (trajectory seed and class), drawn
from the workload seed, and the three configs of a round share that input.

Fidelity is the final-sample MSE of ``grid`` and ``pool`` against ``none``
under matched seeds, averaged over a fixed set of evaluation inputs that
does not depend on the workload seed.  The MSE of one input varies by a
factor of about four across inputs (coefficient of variation about 0.3):
averaged over 16 inputs drawn from the workload seed, its interquartile
range across seeds was still a quarter of its median.  On fixed inputs the
metric is exactly reproducible, and any change in it is a change in the
program's outputs.

A run goes: set-up (timed, several times); untimed trajectories on the
first fixed input -- the checks, which also warm up the process, and a
separate ``tracemalloc`` pass for peak memory, which together give that
input's fidelity; the untimed trajectories of the other fixed inputs; then
timed rounds.  Latency is never timed under ``tracemalloc`` or the trace
wrappers; the timed trajectories carry only a hook that stamps the clock
once per step.

Times are the process's CPU time.  The process runs one thread (BLAS is
held to one thread) and does no waiting in timed code: no locks, no
sleeps, and its one file read is served from the page cache.  So its CPU
time is its wall time less the time other processes, or the host, held
the CPU.  On a two-vCPU Xeon VM with two busy processes beside it, the
wall time of a 256-token step rose by 45% and its quartiles spread by 22%
of the median, while its CPU time rose by 3% and spread by 5%.  The host
still slows the process in stretches, so the step and replay metrics take
the fastest observation of each step and operation (``fastest_steps``);
medians, quartiles and wall-clock medians are printed beside them.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tokmerge.bench as bench
import tokmerge.core as core
import tokmerge.flops as flops
import tokmerge.fmap as fmap
import tokmerge.rng as rng
import tokmerge.strategy as strategy
import tokmerge.toydiff as toydiff

import tracing

# The reference operating point.
RATIO = 0.7
CFG_SCALE = 7.5
DST_FRAC = 0.25
POOL_FACTOR = 0.4
N_CLASSES = 8  # HarnessParams.model() builds the fixed-weight model with 8 classes

CONFIGS = {
    "none": (core.STRATEGY_NONE, 0.0),
    "grid": (core.STRATEGY_GRID, RATIO),
    "pool": (core.STRATEGY_POOL, RATIO),
}
REPLAY_STRATEGIES = [core.STRATEGY_GRID, core.STRATEGY_POOL, core.STRATEGY_TOPK]
_CAPTURE_INPUT = 1 << 20  # input index of the captured trajectory
_FIDELITY_SEED = 0x5EED  # seed of the fixed fidelity inputs

clock = time.perf_counter  # wall time: run length and the time split
cpu_clock = time.process_time  # what the timed metrics measure


@dataclass(frozen=True)
class Workload:
    name: str
    tokens: int
    channels: int
    steps: int
    prune_steps: int
    replay_ops: int  # replay operations per round
    min_rounds: int  # rounds timed at least
    fidelity_inputs: int  # fixed inputs the MSE metrics average over
    trace_rounds: int  # rounds in each pass of a traced run
    setup_reps: int  # set-ups timed; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sample-256",
            tokens=256, channels=32, steps=20, prune_steps=6,
            replay_ops=10, min_rounds=8, fidelity_inputs=4, trace_rounds=3, setup_reps=9,
        ),
        Workload(
            "sample-4096",
            tokens=4096, channels=64, steps=3, prune_steps=1,
            replay_ops=1, min_rounds=4, fidelity_inputs=1, trace_rounds=1, setup_reps=2,
        ),
        Workload(
            "replay-1024",
            tokens=1024, channels=64, steps=3, prune_steps=1,
            replay_ops=40, min_rounds=3, fidelity_inputs=4, trace_rounds=1, setup_reps=9,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload at tiny sizes, for the benchmark's own tests."""
    return replace(w, tokens=64, channels=16, steps=3, prune_steps=1, replay_ops=1,
                   min_rounds=2, fidelity_inputs=2, trace_rounds=1, setup_reps=2)


class Run:
    """Counts operations and the ones that failed a check or raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: dict[str, str] = {}  # operation label -> first problem
        self.tracer: tracing.Tracer | None = None  # labels the spans of each operation

    def call(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = label
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted and the run goes on
            self.fail(label, f"raised {type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, ok, problem: str) -> None:
        if not ok:
            self.fail(label, problem)

    def fail(self, label: str, problem: str) -> None:
        self.failed.setdefault(label, problem)


@dataclass
class Context:
    workload: Workload
    seed: int
    params: bench.HarnessParams
    capture_path: Path
    capture_condition: int
    model: toydiff.ToyDenoiser | None = None
    schedule: toydiff.NoiseSchedule | None = None

    @property
    def n_records(self) -> int:
        return self.workload.steps * self.model.n_blocks


def round_input(seed: int, index: int) -> tuple[int, int]:
    """(trajectory seed, class) of round ``index``, drawn from the workload seed."""
    gen = np.random.default_rng([seed, index])
    return int(gen.integers(1 << 31)), int(gen.integers(N_CLASSES))


def make_context(w: Workload, seed: int, out_dir: Path) -> Context:
    capture_seed, capture_condition = round_input(seed, _CAPTURE_INPUT)
    params = bench.HarnessParams(
        tokens=w.tokens, channels=w.channels, steps=w.steps, cfg_scale=CFG_SCALE,
        dst_frac=DST_FRAC, pool_factor=POOL_FACTOR, prune_steps=w.prune_steps,
        seed=capture_seed,
    )
    return Context(w, seed, params, out_dir / f"{w.name}-{seed}-capture.fmap",
                   capture_condition)


def set_up(ctx: Context) -> tuple[float, float]:
    """Build the model and schedule and capture one unmerged trajectory to FMAP.

    Returns its (CPU, wall) seconds.
    """
    t0, c0 = clock(), cpu_clock()
    ctx.model = ctx.params.model()
    ctx.schedule = ctx.params.schedule()
    bench.run_capture(ctx.capture_path, ctx.params, condition=ctx.capture_condition)
    return cpu_clock() - c0, clock() - t0


def _trajectory(ctx: Context, name: str, inp, hook=None, ratio: float | None = None):
    seed, condition = inp
    strategy_name, config_ratio = CONFIGS[name]
    config = ctx.params.config(strategy_name, config_ratio if ratio is None else ratio, seed)
    return toydiff.sample(ctx.model, ctx.schedule, config, CFG_SCALE, condition,
                          rng.Rng(seed), ctx.params.grid(), hook=hook)


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _finite(run: Run, label: str, out):
    """``out`` (a sampler output, or None if the call raised), checked to be finite."""
    if out is not None:
        run.check(label, np.isfinite(out.data).all(), "non-finite output")
    return out


def _check_events(run: Run, label: str, ctx: Context, name: str, events) -> None:
    """Every layer reduces to counts_for(n).n_out; pool dst and independents stay in the pool."""
    config = ctx.params.config(*CONFIGS[name])
    run.check(label, len(events) == ctx.workload.steps * 2 * ctx.model.n_blocks,
              f"{len(events)} layer events")
    violations = 0
    for ev in events:
        n = ev.tokens.n_tokens
        counts = core.counts_for(n, config)
        run.check(label, ev.plan.n_out == counts.n_out,
                  f"step {ev.step_index} layer {ev.layer}: n_out {ev.plan.n_out} != {counts.n_out}")
        if name == "pool" and ev.mode == toydiff.MODE_MERGE and not ev.grid_fallback:
            violations += bench._pool_violations(ev.tokens, ev.importance, ev.plan, config)
    run.check(label, violations == 0, f"{violations} pool-containment violations")


def checks(ctx: Context, run: Run, inp) -> dict[str, core.TokenMatrix | None]:
    """Untimed check trajectories on ``inp``: pool at r=0, and grid and pool
    with a hook that checks every layer.  Returns their outputs by label."""
    label = "check/pool-r0"
    outs = {label: _finite(run, label, run.call(label, _trajectory, ctx, "pool", inp, ratio=0.0))}
    for name in ("grid", "pool"):
        label, events = f"check/{name}-hooked", []
        outs[label] = _finite(run, label, run.call(label, _trajectory, ctx, name, inp, events.append))
        if outs[label] is not None:
            _check_events(run, label, ctx, name, events)
    return outs


def peak_memory(ctx: Context, run: Run, name: str, inp):
    """Peak traced allocation (MB) of one trajectory, in its own tracemalloc pass."""
    label = f"memory/{name}"
    tracemalloc.start()
    try:
        out = run.call(label, _trajectory, ctx, name, inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return _finite(run, label, out), peak / 1e6


def untimed(ctx: Context, run: Run) -> dict[str, float]:
    """The checks, peak memory and fidelity, on the fixed inputs; nothing here is timed.

    Fidelity is the mean final-sample MSE of grid and pool against none.
    Input 0's trajectories serve all three: the checks run first (and warm
    the process up), the ``tracemalloc`` pass gives none's and pool's
    outputs, and pool at r=0 and the hooked pool trajectory must reproduce
    those bit for bit.
    """
    metrics, errors = {}, {"grid": [], "pool": []}
    for i in range(ctx.workload.fidelity_inputs):
        inp = round_input(_FIDELITY_SEED, i)
        if i == 0:
            checked = checks(ctx, run, inp)
            outs = {"grid": checked["check/grid-hooked"]}
            for name in ("none", "pool"):
                outs[name], metrics[f"{name}.peak_mem_mb"] = peak_memory(ctx, run, name, inp)
            for label, name, reason in (("check/pool-r0", "none", "pool at r=0 differs from none"),
                                        ("check/pool-hooked", "pool", "same-seed trajectories differ")):
                if checked[label] is not None and outs[name] is not None:
                    run.check(label, _bit_equal(checked[label].data, outs[name].data), reason)
        else:
            outs = {}
            for name in CONFIGS:
                label = f"fidelity{i}/{name}"
                outs[name] = _finite(run, label, run.call(label, _trajectory, ctx, name, inp))
        if any(out is None for out in outs.values()):
            continue
        for name, values in errors.items():
            values.append(bench._mse(outs[name], outs["none"]))
    metrics.update({f"{name}.mse_vs_none": _mean(v) for name, v in errors.items()})
    return metrics


@dataclass
class Samples:
    step_ms: dict[str, list[list[float]]] = field(  # each trajectory's step times
        default_factory=lambda: {n: [] for n in CONFIGS})
    ms_per_step: dict[str, list[float]] = field(
        default_factory=lambda: {n: [] for n in CONFIGS})
    wall_ms_per_step: dict[str, list[float]] = field(
        default_factory=lambda: {n: [] for n in CONFIGS})
    merge_step_ms: dict[str, list[float]] = field(
        default_factory=lambda: {n: [] for n in CONFIGS})
    plans_per_s: list[float] = field(default_factory=list)
    wall_plans_per_s: list[float] = field(default_factory=list)
    pool_cohesion: list[float] | None = None
    # Wall seconds spent in each kind of operation, to show the workload's mix.
    sampler_s: float = 0.0
    replay_s: float = 0.0

    def split(self) -> str:
        total = max(self.sampler_s + self.replay_s, 1e-9)
        return (f"sampler {self.sampler_s:.2f} s ({self.sampler_s / total:.0%}), "
                f"replay {self.replay_s:.2f} s ({self.replay_s / total:.0%})")


def _timed_trajectory(ctx: Context, run: Run, label: str, name: str, inp):
    """(output, step durations in ms, wall ms per step, durations of the
    merge-mode steps in ms), or None."""
    stamps, modes = [], []

    def stamp(ev) -> None:
        if ev.layer == 0 and ev.pass_id == "cond":
            stamps.append(cpu_clock())
            modes.append(ev.mode)

    w0, t0 = clock(), cpu_clock()
    out = run.call(label, _trajectory, ctx, name, inp, stamp)
    t1, w1 = cpu_clock(), clock()
    if _finite(run, label, out) is None:
        return None
    steps = ctx.workload.steps
    run.check(label, len(stamps) == steps, f"{len(stamps)} step stamps for {steps} steps")
    bounds = [t0, *stamps[1:], t1]
    step_ms = [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
    merge_ms = [ms for ms, mode in zip(step_ms, modes) if mode == toydiff.MODE_MERGE]
    return out.data, step_ms, 1e3 * (w1 - w0) / steps, merge_ms


def _replay(ctx: Context, run: Run, label: str):
    def op():
        records = fmap.read_capture(ctx.capture_path)
        return bench.run_replay(records, REPLAY_STRATEGIES, RATIO, ctx.params)

    w0, t0 = clock(), cpu_clock()
    rows = run.call(label, op)
    t1, w1 = cpu_clock(), clock()
    if rows is None:
        return None
    run.check(label, len(rows) == ctx.n_records * len(REPLAY_STRATEGIES), f"{len(rows)} rows")
    for row in rows:
        run.check(label, row["status"] == "ok" and row["count_ok"] is True,
                  f"record {row['record']} {row['strategy']}: {row['status']}")
        run.check(label, isinstance(row["homogeneity"], float) and np.isfinite(row["homogeneity"]),
                  f"record {row['record']} {row['strategy']}: cohesion {row['homogeneity']!r}")
    cohesion = [row["homogeneity"] for row in rows if row["strategy"] == core.STRATEGY_POOL]
    return len(rows) / (t1 - t0), len(rows) / (w1 - w0), cohesion


def run_round(ctx: Context, run: Run, i: int, samples: Samples, tag="round"):
    """One round; returns its outputs (arrays and replay cohesions) in order."""
    inp = round_input(ctx.seed, i)
    outputs = []
    t0 = clock()
    for name in CONFIGS:
        res = _timed_trajectory(ctx, run, f"{tag}{i}/{name}", name, inp)
        if res is None:
            continue
        data, step_ms, wall_ms, merge_ms = res
        outputs.append(data)
        samples.step_ms[name].append(step_ms)
        samples.ms_per_step[name].append(statistics.fmean(step_ms))
        samples.wall_ms_per_step[name].append(wall_ms)
        samples.merge_step_ms[name].extend(merge_ms)
    t1 = clock()
    for j in range(ctx.workload.replay_ops):
        label = f"{tag}{i}/replay{j}"
        res = _replay(ctx, run, label)
        if res is None:
            continue
        rate, wall_rate, cohesion = res
        outputs.append(np.array(cohesion))
        samples.plans_per_s.append(rate)
        samples.wall_plans_per_s.append(wall_rate)
        if samples.pool_cohesion is None:
            samples.pool_cohesion = cohesion
        run.check(label, cohesion == samples.pool_cohesion,
                  "replay cohesion differs between operations")
    samples.sampler_s += t1 - t0
    samples.replay_s += clock() - t1
    return outputs


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail: at least 10 samples, and 10%, lie above it.

    This is the highest percentile with at least 10 samples beyond it, capped
    at p90.  On a small shared machine the p95 and above of ~20 ms steps
    measure how much of a run coincided with other processes' load: over
    eight runs of sample-256 the highest percentile with 10 samples beyond it
    (p95) spread by 10-32% between runs, p90 by 5-13%.  With fewer than 20
    samples, 10 beyond would put it below the median, so only the 10% rule
    holds: below 11 samples that is the second-highest, which one stalled
    step per run does not move (the maximum of 8 steps spread by 17%).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan
    beyond = math.ceil(n / 10) if n < 20 else max(10, math.ceil(n / 10))
    if beyond >= n:
        return ordered[-1], 100.0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def fastest_steps(trajectories: list[list[float]]) -> float:
    """Mean over step positions of the fastest time the run saw at each position.

    On a shared host this process's speed switches between a fast and a
    slow mode within a second, and how much of a run falls in the slow mode
    varies between runs: in one period ten runs of sample-256 spread by
    0.19-0.22 of the median in their median ms/step and by 0.32 in their
    overall plans/s.  Just after it, three 25 s windows of sample-256 rounds
    gave none medians of 14.6, 15.9 and 15.1 ms/step but fastest
    trajectories of 13.7, 14.0 and 14.2; their median replay rates ranged
    1240-1480 plans/s, their fastest 1665-1784.  The fastest observation of a
    step is its cost while the host is not slowing it; a change to the
    program moves every observation, the fastest included.
    """
    if not trajectories:
        return math.nan
    return statistics.fmean(min(position) for position in zip(*trajectories))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); NaN when failed operations left no samples."""
    if not values:
        return math.nan, math.nan, math.nan
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _mean(values: list[float] | None) -> float:
    return statistics.fmean(values) if values else math.nan


def _harmonic_mean(values: list[float]) -> float:
    return statistics.harmonic_mean(values) if values else math.nan


def analytic(ctx: Context) -> dict[str, float]:
    """FlopModel step costs per config plus the planning term 2*n_src*n_dst*C per plan."""
    w, model = ctx.workload, ctx.model
    fm = flops.FlopModel(w.tokens, w.channels, model.n_hidden, n_blocks=model.n_blocks)
    counts = core.counts_for(w.tokens, ctx.params.config(core.STRATEGY_POOL, RATIO))
    # Grid cells, the pool draw and topk all pick floor(n * 0.25) dst tokens.
    pairs = (w.tokens - counts.n_dst) * counts.n_dst
    plan_flops = 2 * pairs * w.channels
    plans_per_step = fm.cfg_passes * fm.n_blocks
    merged = fm.step_flops(counts.n_out)
    return {
        "none.step_flops": fm.step_flops(),
        "grid.step_flops": merged,
        "pool.step_flops": merged,
        "plan_flops": plan_flops,
        "planning.step_flops": plans_per_step * plan_flops,
        "pool.modelled_speedup": fm.step_flops() / (merged + plans_per_step * plan_flops),
        "plans_per_round": w.replay_ops * ctx.n_records * len(REPLAY_STRATEGIES)
        + 2 * w.steps * plans_per_step,
    }


def measure(ctx: Context, seconds: float, run: Run, report: list[str]) -> dict[str, float]:
    """An untraced run: the end-to-end metrics."""
    w = ctx.workload
    setup = [set_up(ctx) for _ in range(w.setup_reps)]
    checked = untimed(ctx, run)

    samples = Samples()
    t_start = clock()
    i = 0
    while i < w.min_rounds or clock() - t_start < seconds:
        run_round(ctx, run, i, samples)
        i += 1
    elapsed = clock() - t_start

    metrics = {"setup_s": statistics.median(cpu_s for cpu_s, _ in setup)}
    report.append(f"setup_s over {len(setup)} set-ups: CPU {[round(c, 4) for c, _ in setup]}, "
                  f"wall {[round(t, 4) for _, t in setup]}")
    for name in CONFIGS:
        metrics[f"{name}.ms_per_step"] = fastest_steps(samples.step_ms[name])
        q1, med, q3 = quartiles(samples.ms_per_step[name])
        report.append(f"{name}.ms_per_step {metrics[f'{name}.ms_per_step']:.4f} ms from the "
                      f"fastest of each step; per trajectory median {med:.4f}  q1 {q1:.4f}  "
                      f"q3 {q3:.4f}  n {len(samples.ms_per_step[name])} trajectories; wall "
                      f"median {quartiles(samples.wall_ms_per_step[name])[1]:.4f} ms")
    value, pct = tail(samples.merge_step_ms["pool"])
    metrics["pool.ms_per_step_tail"] = value
    report.append(f"pool.ms_per_step_tail p{pct:.2f} of "
                  f"{len(samples.merge_step_ms['pool'])} merge-step samples")
    metrics.update(checked)
    report.append(f"*.mse_vs_none: mean over {w.fidelity_inputs} fixed inputs")
    # Every operation replays the same records, so the fastest one is the
    # replay's cost while the host is not slowing it (see fastest_steps).
    rates = samples.plans_per_s
    q1, med, q3 = quartiles(rates)
    metrics["replay.plans_per_s"] = max(rates, default=math.nan)
    report.append(f"replay.plans_per_s {metrics['replay.plans_per_s']:.3f} from the fastest "
                  f"operation; {_harmonic_mean(rates):.3f} overall; per operation median "
                  f"{med:.3f}  q1 {q1:.3f}  q3 {q3:.3f}  n {len(rates)} replay operations; "
                  f"wall {_harmonic_mean(samples.wall_plans_per_s):.3f} overall")
    metrics["replay.pool_cohesion"] = _mean(samples.pool_cohesion)
    metrics["ok_share"] = 1.0 - len(run.failed) / run.attempted
    report.append(f"failed_share {len(run.failed) / run.attempted} "
                  f"({len(run.failed)} of {run.attempted} operations)")
    report.append(f"timed {i} rounds in {elapsed:.2f} s wall ({samples.split()})")

    model = analytic(ctx)
    speedup = metrics["none.ms_per_step"] / metrics["pool.ms_per_step"]
    report.append(
        f"analytic flops/step: none {model['none.step_flops']}  "
        f"grid {model['grid.step_flops']}  pool {model['pool.step_flops']} "
        f"(+ planning {model['planning.step_flops']}, {model['plan_flops']} per plan)")
    report.append(f"derived pool.speedup_vs_none {speedup:.4f} measured, "
                  f"{model['pool.modelled_speedup']:.4f} modelled")
    return metrics


def measure_traced(ctx: Context, run: Run, report: list[str], spans_path: Path) -> dict[str, float]:
    """A traced run: the per-layer metrics.

    The same pass (one capture, then ``trace_rounds`` rounds) runs untraced,
    traced, and untraced again; the outputs of all three must agree bit for
    bit.  The trace overhead is the traced wall time minus the mean of the
    two untraced ones, which cancels drift that is linear in time.
    """
    w = ctx.workload
    set_up(ctx)
    checks(ctx, run, round_input(_FIDELITY_SEED, 0))  # also warms the process up

    def one_pass(tag, samples=None):
        t0 = clock()
        run.call(f"{tag}-capture", bench.run_capture, ctx.capture_path, ctx.params,
                 condition=ctx.capture_condition)
        outputs = [run_round(ctx, run, i, samples or Samples(), tag)
                   for i in range(w.trace_rounds)]
        return clock() - t0, outputs

    split = Samples()
    before_s, expected = one_pass("before", split)
    tracer = tracing.Tracer()
    tracing.install(tracer, SimpleNamespace(
        bench=bench, core=core, flops=flops, fmap=fmap, rng=rng, strategy=strategy,
        toydiff=toydiff))
    run.tracer = tracer
    try:
        traced_s, outputs = one_pass("traced")
    finally:
        run.tracer = None
        tracer.uninstall()
    after_s, again = one_pass("after")
    untraced_s = (before_s + after_s) / 2
    for tag, passed in (("traced", outputs), ("after", again)):
        for i, (want, got) in enumerate(zip(expected, passed)):
            run.check(f"{tag}{i}/none", len(want) == len(got) and all(map(_bit_equal, want, got)),
                      "outputs differ between passes")

    metrics = tracing.layer_metrics(tracer)
    metrics["trace.coverage"] = tracing.named_self_seconds(tracer) / traced_s
    metrics["trace.overhead"] = 1e3 * (traced_s - untraced_s)
    tracer.write(spans_path)
    totals = {name: total_s for name, (_, total_s, _) in tracer.summary().items()}
    denoiser_s = totals.get("toydiff.forward", 0.0)
    replay_s = totals.get("bench.run_replay", 0.0) + totals.get("fmap.read_capture", 0.0)

    model = analytic(ctx)
    plans = w.trace_rounds * model["plans_per_round"]
    report.append(f"traced pass {traced_s:.3f} s, untraced {before_s:.3f} s before and "
                  f"{after_s:.3f} s after, "
                  f"{len(tracer.spans)} spans written to {spans_path.name}")
    report.append(f"untraced rounds: {split.split()}; traced pass time under "
                  f"toydiff.forward {denoiser_s / traced_s:.0%}, under "
                  f"bench.run_replay and fmap.read_capture {replay_s / traced_s:.0%}")
    report.append(f"planning flops: {2 * w.channels * metrics['matching.link_best.pairs']:.0f} "
                  f"from traced link_best pairs, {plans * model['plan_flops']} analytic "
                  f"({plans} plans)")
    report.append(f"failed_share {len(run.failed) / run.attempted} "
                  f"({len(run.failed)} of {run.attempted} operations)")
    return metrics
