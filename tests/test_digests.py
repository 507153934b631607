"""Literal sha256 digests of the sampler's, the planners', replay's and compare's outputs.

Equal digests mean bit-identical outputs.  A change that alters outputs on
purpose updates the literal in the same diff; any other change leaves them
alone.  The bits depend on numpy and its BLAS kernels (see
``matching._row_blocks``), and on the one BLAS thread ``conftest.py`` sets,
so a failure prints both.
"""

import hashlib

import numpy as np
from test_strategy import PLAN_GRID, build_any_plan, plan_case

from tokmerge.bench import (
    COMPARE_COLUMNS,
    REPLAY_COLUMNS,
    HarnessParams,
    run_capture,
    run_compare,
    run_replay,
)
from tokmerge.core import (
    STRATEGIES,
    STRATEGY_GRID,
    STRATEGY_POOL,
    STRATEGY_TOPK,
    ImportanceMap,
    MergeConfig,
    apply_merge,
    apply_prune,
    apply_unmerge,
)
from tokmerge.fmap import read_capture
from tokmerge.rng import Rng
from tokmerge.toydiff import NoiseSchedule, ToyDenoiser, sample

PLAN_ARRAYS = ("dst_indices", "independent_indices", "merged_sources", "merged_dst_pos")

# (tokens, channels, steps, prune_steps, ratio): every strategy x seeds 0 and 3.
SAMPLER_CASES = [(64, 16, 8, 2, 0.5), (256, 32, 4, 2, 0.7)]
# At 1024 tokens every layer kernel splits its rows into blocks (see
# ``matching._row_blocks``); the cases above each run as one block.
BLOCKED_SAMPLER_CASES = [(1024, 64, 3, 1, 0.7)]

SAMPLER_DIGEST = "31ce4f7cb3d1d446d11cd3dc577c420e272610d4a858f08fc116834070192fdf"
PLANNER_DIGEST = "8001cd9ec4a7c5992d1f2b55c108ee4c731b2749ecc5f1d8147a4882037ab411"
REPLAY_DIGEST = "ab41e64abfa01e2c57750db372f1fa604d435742c2ffb20fc73939798144913f"
COMPARE_DIGEST = "f1e95f5250dd844c88adb58a955461bd41738d90b5fadfb02291d8c4dbc380f8"
BLOCKED_SAMPLER_DIGEST = "4e9b00c3571397e8090b683ccca8265ec2c43b7ae0a60591dc9c635fac3e56b8"


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def value(self, *values):
        self._h.update(repr(values).encode())

    def array(self, a):
        a = np.ascontiguousarray(a)
        self.value(a.dtype.str, a.shape)
        self._h.update(a.tobytes())

    def plan(self, plan):
        self.value(plan.n_in)
        for name in PLAN_ARRAYS:
            self.array(getattr(plan, name))

    def hexdigest(self):
        return self._h.hexdigest()


def check(actual, expected):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert actual == expected, (
        f"digest {actual} != {expected} with numpy {np.__version__}, BLAS {blas}")


def sampler_digest(cases, seeds):
    d = Digest()
    for n, c, steps, prune_steps, r in cases:
        side = int(n ** 0.5)
        model, schedule = ToyDenoiser(c, seed=0), NoiseSchedule.linear(steps)
        for strategy in STRATEGIES:
            config = MergeConfig(strategy, 0.0 if strategy == "none" else r,
                                 prune_steps=prune_steps)
            for seed in seeds:
                events = []
                out = sample(model, schedule, config, 7.5, 1, Rng(seed), (side, side),
                             hook=events.append)
                for ev in events:
                    d.value(ev.step_index, ev.layer, ev.pass_id, ev.mode, ev.grid_fallback)
                    d.plan(ev.plan)
                d.array(out.data)
    return d.hexdigest()


def test_sampler_events_and_samples_digest():
    check(sampler_digest(SAMPLER_CASES, (0, 3)), SAMPLER_DIGEST)


def test_blocked_sampler_events_and_samples_digest():
    check(sampler_digest(BLOCKED_SAMPLER_CASES, (0,)), BLOCKED_SAMPLER_DIGEST)


def test_planner_grid_and_apply_digest():
    d = Digest()
    for n, seed, r, strategy in PLAN_GRID:
        tokens, scores = plan_case(n, seed)
        plan = build_any_plan(strategy, tokens, ImportanceMap(scores),
                              MergeConfig(strategy, r=r), Rng(seed).at(3, 1))
        d.plan(plan)
        merged = apply_merge(tokens, plan)
        for out in (merged, apply_prune(tokens, plan), apply_unmerge(merged, plan)):
            d.array(out.data)
    check(d.hexdigest(), PLANNER_DIGEST)


def test_capture_and_replay_digest(tmp_path):
    params = HarnessParams(tokens=64, channels=16, steps=4, prune_steps=1, seed=5)
    path = tmp_path / "capture.fmap"
    run_capture(path, params, condition=2)
    d = Digest()
    d.array(np.frombuffer(path.read_bytes(), dtype=np.uint8))
    for row in run_replay(read_capture(path), list(STRATEGIES), 0.7, params):
        d.value(*(row[col] for col in REPLAY_COLUMNS))
    check(d.hexdigest(), REPLAY_DIGEST)


def test_compare_digest():
    params = HarnessParams(tokens=64, channels=16, steps=8, prune_steps=2)
    rows = run_compare([STRATEGY_GRID, STRATEGY_POOL, STRATEGY_TOPK], 0.7, params,
                       n_seeds=2, n_conditions=2)
    d = Digest()
    for row in rows:
        d.value(*(row[col] for col in COMPARE_COLUMNS))
    check(d.hexdigest(), COMPARE_DIGEST)
