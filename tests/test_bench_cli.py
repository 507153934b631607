import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokmerge
from tokmerge import bench, toydiff
from tokmerge.bench import (
    BENCH_COLUMNS,
    COMPARE_COLUMNS,
    REPLAY_COLUMNS,
    HarnessParams,
    merge_cohesion,
    run_bench,
    run_capture,
    run_compare,
    run_replay,
)
from tokmerge.cli import main
from tokmerge.core import (
    ConfigInfeasibleError,
    ImportanceMap,
    MergeConfig,
    TokenMatrix,
    identity_plan,
)
from tokmerge.flops import FlopModel
from tokmerge.fmap import CaptureRecord, read_capture, write_capture
from tokmerge.matching import paired_cosine, unit_rows
from tokmerge.rng import Rng
from tokmerge.strategy import plan_importance_pool, plan_tome_grid, plan_topk_dst
from tokmerge.toydiff import MODE_MERGE, sample

FAST = HarnessParams(tokens=16, channels=8, steps=5, prune_steps=2)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def test_bench_baseline_row_has_zero_deviation():
    rows = run_bench(["importance-pool"], [0.5], FAST, repeats=2, warmups=1)
    baseline = rows[0]
    assert baseline["strategy"] == "none"
    assert baseline["mse_vs_baseline"] == 0.0
    assert baseline["status"] == "ok"


def test_bench_infeasible_pair_reported_and_run_continues():
    rows = run_bench(["importance-pool"], [0.9, 0.5], FAST, repeats=1, warmups=0)
    by_ratio = {row["r"]: row for row in rows if row["strategy"] == "importance-pool"}
    assert by_ratio[0.9]["status"].startswith("infeasible")
    assert by_ratio[0.5]["status"] == "ok"


def test_bench_times_untraced_and_traces_one_trajectory_per_row(monkeypatch):
    calls = []
    real_sample = bench.sample

    def recording_sample(model, schedule, config, *args, **kwargs):
        calls.append(((config.strategy, config.r), tracemalloc.is_tracing()))
        return real_sample(model, schedule, config, *args, **kwargs)

    monkeypatch.setattr(bench, "sample", recording_sample)
    rows = run_bench(["tome-random-grid"], [0.5], FAST, repeats=2, warmups=1)
    assert [row["status"] for row in rows] == ["ok", "ok"]
    for key in (("none", 0.0), ("tome-random-grid", 0.5)):
        traced = [tracing for k, tracing in calls if k == key]
        assert traced.count(False) == 3  # 1 warm-up + 2 timed runs
        assert traced.count(True) == 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["r", "k", "p", "cfg_scale", "dst_frac", "pool_factor"])
def test_non_finite_setting_is_rejected_by_name(name, value):
    with pytest.raises(ConfigInfeasibleError, match=f"^{name}=.* must be finite"):
        if name in ("r", "k", "p"):
            MergeConfig(**{"strategy": "importance-pool", "r": 0.5, name: value})
        else:
            HarnessParams(**{name: value})


@pytest.mark.parametrize("name, value", [("steps", 2.5), ("prune_steps", 1.5),
                                         ("steps", 4.0), ("tokens", 16.0),
                                         ("channels", 8.0), ("seed", 0.5)])
def test_non_integer_count_is_rejected_by_name(name, value):
    with pytest.raises(ConfigInfeasibleError, match=f"^{name}=.* must be an integer"):
        HarnessParams(**{"tokens": 16, "channels": 8, name: value})


@pytest.mark.parametrize(
    "run, kwargs, name",
    [(run_bench, {"n_seeds": 0}, "n_seeds"), (run_bench, {"repeats": 0}, "repeats"),
     (run_bench, {"warmups": -1}, "warmups"), (run_compare, {"n_seeds": 0}, "n_seeds"),
     (run_compare, {"n_conditions": 0}, "n_conditions")],
)
def test_count_below_minimum_is_rejected_by_name(run, kwargs, name):
    with pytest.raises(ConfigInfeasibleError, match=f"^{name}=-?[0-9]+ must be >="):
        run(["tome-random-grid", "importance-pool"], [0.5] if run is run_bench else 0.5,
            FAST, **kwargs)


def test_bench_flops_decrease_with_ratio():
    rows = run_bench(["tome-random-grid"], [0.3, 0.5, 0.7], FAST,
                     repeats=1, warmups=0)
    flops = [row["flops_per_step"] for row in rows if row["status"] == "ok"]
    assert flops == sorted(flops, reverse=True)


def test_bench_rejects_non_square_token_count():
    for tokens in (60, 0, -16):
        with pytest.raises(Exception, match="square"):
            run_bench(["importance-pool"], [0.5],
                      HarnessParams(tokens=tokens, channels=8, steps=3), repeats=1)


def test_compare_reports_all_strategies_with_zero_pool_violations():
    rows = run_compare(["tome-random-grid", "importance-pool", "topk-dst"], 0.5,
                       FAST, n_seeds=2, n_conditions=2)
    assert [row["strategy"] for row in rows] == [
        "tome-random-grid", "importance-pool", "topk-dst",
    ]
    for row in rows:
        assert row["status"] == "ok"
        assert np.isfinite(row["mse_mean"])
        assert np.isfinite(row["mse_p95"])
        assert row["pool_violations"] == 0


def test_compare_cohesion_beats_random_control():
    rows = run_compare(["tome-random-grid", "importance-pool"], 0.5, FAST,
                       n_seeds=2, n_conditions=1)
    for row in rows:
        assert row["homogeneity_mean"] > row["homogeneity_random"]


def test_compare_requires_two_strategies():
    with pytest.raises(Exception, match="2 strategies"):
        run_compare(["importance-pool"], 0.5, FAST)


def test_capture_record_count_is_steps_times_layers(tmp_path):
    path = tmp_path / "cap.fmap"
    n_records, _ = run_capture(path, FAST)
    assert n_records == FAST.steps * 2  # two attention layers per pass
    records = read_capture(path)
    assert len(records) == n_records
    # first step has no previous-step guidance: zeros by convention
    first = [r for r in records if r.timestep == FAST.steps]
    assert first and all(np.all(r.guidance == 0) for r in first)
    later = [r for r in records if r.timestep < FAST.steps]
    assert any(np.any(r.guidance > 0) for r in later)


def replay_plan(record, config, base):
    """The plan ``run_replay`` builds for ``record`` under ``config``."""
    return toydiff.plan_layer(*bench._record_layer(record), config,
                              base.at(record.timestep, record.layer))


def test_replay_reproduces_plans_bit_exactly(tmp_path):
    path = tmp_path / "cap.fmap"
    run_capture(path, FAST)
    records = read_capture(path)
    cfg = FAST.config("importance-pool", 0.5)
    base = Rng(FAST.seed)
    for rec in records:
        live = replay_plan(rec, cfg, base)
        again = replay_plan(rec, cfg, base)
        assert live == again
        # independent reconstruction from the record fields; the first step's
        # records have no map, and plan with grid selection as the sampler does
        tokens = TokenMatrix(rec.features, grid=(4, 4))
        rng = base.at(rec.timestep, rec.layer)
        if rec.timestep == FAST.steps:
            direct = plan_tome_grid(tokens, cfg, rng)
        else:
            direct = plan_importance_pool(tokens, ImportanceMap(rec.guidance), cfg, rng)
        assert live == direct


@pytest.mark.parametrize("strategy", ["tome-random-grid", "importance-pool", "topk-dst"])
@pytest.mark.parametrize("tokens", [64, 256])
def test_replay_reproduces_in_loop_plans(tokens, strategy):
    # With no prune steps, step 0 merges without a map: pool and topk fall
    # back to grid selection there, and replay must fall back alike.
    for prune_steps, merge_steps in ((1, 3), (0, 4)):
        params = HarnessParams(tokens=tokens, channels=8, steps=4, prune_steps=prune_steps)
        model, schedule = params.model(), params.schedule()
        checked = fallbacks = 0
        for seed in range(3):
            config = params.config(strategy, 0.5, seed)
            events = []
            sample(model, schedule, config, params.cfg_scale, 0, Rng(seed), params.grid(),
                   hook=events.append)
            # The cond pass plans each layer, and the uncond pass reuses its
            # plan, so a record of the cond pass's inputs replays both.
            cond = {(ev.step_index, ev.layer): ev for ev in events if ev.pass_id == "cond"}
            for ev in events:
                if ev.mode != MODE_MERGE:
                    continue
                planner = cond[ev.step_index, ev.layer]
                assert ev.plan is planner.plan
                guidance = (np.zeros(tokens, dtype=np.float32) if planner.importance is None
                            else planner.importance.scores.astype(np.float32))
                record = CaptureRecord(planner.timestep, planner.layer, planner.tokens.data,
                                       guidance)
                assert replay_plan(record, config, Rng(seed)) == ev.plan
                checked += 1
                fallbacks += ev.grid_fallback
        assert checked == 3 * merge_steps * 2 * 2  # seeds x merge steps x layers x passes
        assert fallbacks == (0 if prune_steps or strategy == "tome-random-grid" else 3 * 2 * 2)


def test_replay_rows_flag_malformed_records(tmp_path):
    good = CaptureRecord(5, 0, np.ones((16, 4), dtype=np.float32),
                         np.ones(16, dtype=np.float32))
    bad = CaptureRecord(4, 1, np.full((16, 4), np.nan, dtype=np.float32),
                        np.ones(16, dtype=np.float32))
    rows = run_replay([good, bad], ["importance-pool"], 0.5, FAST)
    assert rows[0]["status"] == "ok"
    assert rows[0]["count_ok"] is True
    assert rows[1]["status"].startswith("error")


def test_replay_gives_every_strategy_an_error_row_for_a_malformed_record():
    bad = CaptureRecord(4, 1, np.full((16, 4), np.nan, dtype=np.float32),
                        np.ones(16, dtype=np.float32))
    rows = run_replay([bad], ["none", "importance-pool", "topk-dst"], 0.5, FAST)
    assert [row["status"] for row in rows] == ["error: token data must be finite"] * 3


def test_replay_handles_non_square_grid_strategy():
    rec = CaptureRecord(3, 0, np.ones((12, 4), dtype=np.float32),
                        np.ones(12, dtype=np.float32))
    rows = run_replay([rec], ["tome-random-grid"], 0.5, FAST)
    assert rows[0]["status"].startswith("error")


def counted_plan_layer(monkeypatch):
    """Replace ``toydiff.plan_layer``, which ``bench`` looks up at call time,
    with one that records the strategy of each config it plans."""
    strategies = []
    real = toydiff.plan_layer

    def counting(tokens, importance, config, rng):
        strategies.append(config.strategy)
        return real(tokens, importance, config, rng)

    monkeypatch.setattr(toydiff, "plan_layer", counting)
    return strategies


MAP_AND_GRID = ["tome-random-grid", "importance-pool", "topk-dst"]


def test_replay_plans_a_record_once_per_planning_config(monkeypatch, tmp_path):
    params = HarnessParams(tokens=64, channels=16, steps=4, prune_steps=1)
    path = tmp_path / "cap.fmap"
    run_capture(path, params)
    records = read_capture(path)
    no_map = [rec for rec in records if not rec.guidance.any()]
    assert len(records) == 8 and len(no_map) == 2  # the first step's two layers
    expected = run_replay(records, MAP_AND_GRID, 0.7, params)
    planned = counted_plan_layer(monkeypatch)
    rows = run_replay(records, MAP_AND_GRID, 0.7, params)
    # Pool and topk plan a record with no map as grid does, and reuse grid's plan.
    assert len(planned) == 20
    assert planned.count("tome-random-grid") == 8
    assert repr(rows) == repr(expected)
    assert [row["strategy"] for row in rows] == MAP_AND_GRID * 8
    assert all(row["status"] == "ok" and row["count_ok"] for row in rows)


@pytest.mark.parametrize("ratio", [0.0, 0.5, 0.7])
def test_multi_strategy_replay_equals_one_replay_per_strategy(tmp_path, ratio):
    params = HarnessParams(tokens=64, channels=16, steps=4, prune_steps=1, seed=3)
    path = tmp_path / "cap.fmap"
    run_capture(path, params, condition=1)
    records = read_capture(path)
    strategies = ["topk-dst", "none", "importance-pool", "tome-random-grid", "topk-dst"]
    rows = run_replay(records, strategies, ratio, params)
    for j, strategy in enumerate(strategies):
        alone = run_replay(records, [strategy], ratio, params)
        assert repr(rows[j::len(strategies)]) == repr(alone), strategy


def test_replay_gives_each_strategy_of_a_shared_failing_plan_its_own_error_row(monkeypatch):
    # No map and no square grid: grid, pool and topk all plan with grid
    # selection, which fails; nothing failed is reused.
    rec = CaptureRecord(3, 0, np.ones((12, 4), dtype=np.float32),
                        np.zeros(12, dtype=np.float32))
    planned = counted_plan_layer(monkeypatch)
    rows = run_replay([rec], ["none"] + MAP_AND_GRID, 0.5, FAST)
    assert planned == ["none"] + ["tome-random-grid"] * 3
    assert rows[0]["status"] == "ok"
    for row, strategy in zip(rows[1:], MAP_AND_GRID):
        assert row["strategy"] == strategy
        assert row["status"] == "error: grid strategy needs tokens with a (height, width) grid"
        assert row["actual_n_out"] == ""


def test_cohesion_helpers_on_trivial_plan():
    data = np.random.default_rng(0).standard_normal((8, 4))
    plan = identity_plan(8)
    assert merge_cohesion(unit_rows(data), plan, Rng(0)) is None


def paired_cosine_cohesion(data, plan, control):
    """Cohesion as ``paired_cosine`` of gathered raw rows, each call normalizing both."""
    sources = data[plan.merged_sources]
    gen = control.generator()
    random_targets = plan.dst_indices[gen.integers(0, plan.dst_indices.size, plan.n_merged)]
    return (float(paired_cosine(sources, data[plan.merged_targets]).mean()),
            float(paired_cosine(sources, data[random_targets]).mean()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(4))
def test_cohesion_from_shared_unit_rows_equals_paired_cosine_of_raw_rows(dtype, seed):
    gen = np.random.default_rng(seed)
    data = gen.standard_normal((256, 32)).astype(dtype)
    # Zero rows link at similarity 0, so more of them than the 12 independent
    # slots makes some merge; others fall on dst.
    data[gen.choice(256, 48, replace=False)] = 0.0
    tokens = TokenMatrix(data, grid=(16, 16))
    importance = ImportanceMap(gen.random(256))
    config = MergeConfig("importance-pool", 0.7)
    rng = Rng(seed).at(3, 1)
    plans = [plan_tome_grid(tokens, config, rng),
             plan_importance_pool(tokens, importance, config, rng),
             plan_topk_dst(tokens, importance, config)]
    unit, control = unit_rows(data), Rng(seed).at(3, 1 << 19)
    for plan in plans:
        assert np.any(np.all(data[plan.merged_sources] == 0, axis=1))
        actual = merge_cohesion(unit, plan, control)
        expected = paired_cosine_cohesion(data, plan, control)
        assert np.array(actual).tobytes() == np.array(expected).tobytes()


def counted_normalizer(monkeypatch):
    """Replace ``bench``'s binding of ``unit_rows`` with one that records its inputs."""
    inputs = []

    def counting(x):
        inputs.append(x)
        return unit_rows(x)

    monkeypatch.setattr(bench, "unit_rows", counting)
    return inputs


@pytest.mark.parametrize("strategies", [
    ["importance-pool"],
    ["tome-random-grid", "importance-pool", "topk-dst"],
    ["none", "tome-random-grid", "importance-pool", "topk-dst", "importance-pool"],
])
def test_replay_normalizes_each_record_once_for_cohesion(monkeypatch, tmp_path, strategies):
    path = tmp_path / "cap.fmap"
    run_capture(path, FAST)
    records = read_capture(path)
    expected = run_replay(records, strategies, 0.5, FAST)
    inputs = counted_normalizer(monkeypatch)
    rows = run_replay(records, strategies, 0.5, FAST)
    assert len(inputs) == len(records)
    assert all(x is rec.features for x, rec in zip(inputs, records))
    assert repr(rows) == repr(expected)
    assert all(isinstance(row["homogeneity"], float) for row in rows
               if row["strategy"] != "none")


def test_replay_normalizes_nothing_when_no_plan_merges(monkeypatch, tmp_path):
    path = tmp_path / "cap.fmap"
    run_capture(path, FAST)
    inputs = counted_normalizer(monkeypatch)
    rows = run_replay(read_capture(path), ["none", "importance-pool"], 0.0, FAST)
    assert inputs == []
    assert all(row["status"] == "ok" and row["homogeneity"] == "" for row in rows)


def test_compare_normalizes_each_merging_layer_event_once(monkeypatch):
    inputs = counted_normalizer(monkeypatch)
    events = []
    real_sample = bench.sample

    def recording(*args, hook=None, **kwargs):
        if hook is None:  # a baseline trajectory
            return real_sample(*args, **kwargs)

        def both(ev):
            events.append(ev)
            hook(ev)
        return real_sample(*args, hook=both, **kwargs)

    monkeypatch.setattr(bench, "sample", recording)
    run_compare(["none", "importance-pool"], 0.5, FAST, n_seeds=1, n_conditions=1)
    merging = [ev.tokens.data for ev in events if ev.plan.n_merged]
    assert merging and len(events) > len(merging)  # the none trajectory merges nothing
    assert len(inputs) == len(merging)
    assert all(x is data for x, data in zip(inputs, merging))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def cli(*args):
    return main(list(args))


def test_cli_bench_writes_stable_csv_schema(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli("bench", "--strategy", "importance", "--ratio", "0.5",
               "--tokens", "16", "--channels", "8", "--steps", "4",
               "--prune-steps", "1", "--repeats", "1", "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        header = fh.readline().strip().split(",")
    assert header == BENCH_COLUMNS
    rows = read_rows(out)
    assert rows[0]["strategy"] == "none"
    assert float(rows[0]["mse_vs_baseline"]) == 0.0


def test_cli_compare_schema_and_violations(tmp_path):
    out = tmp_path / "compare.csv"
    code = cli("compare", "--strategy", "importance", "--strategy", "topk",
               "--ratio", "0.5", "--tokens", "16", "--channels", "8",
               "--steps", "4", "--prune-steps", "1", "--seeds", "2",
               "--conditions", "1", "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        header = fh.readline().strip().split(",")
    assert header == COMPARE_COLUMNS
    rows = read_rows(out)
    pool_row = next(r for r in rows if r["strategy"] == "importance-pool")
    assert pool_row["pool_violations"] == "0"


def test_cli_capture_then_replay(tmp_path):
    cap = tmp_path / "cap.fmap"
    code = cli("capture", "--tokens", "16", "--channels", "8", "--steps", "3",
               "--prune-steps", "1", "--out", str(cap))
    assert code == 0
    out = tmp_path / "replay.csv"
    code = cli("replay", "--input", str(cap), "--strategy", "importance",
               "--ratio", "0.5", "--tokens", "16", "--channels", "8",
               "--out", str(out))
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 6  # 3 steps x 2 layers
    assert all(r["count_ok"] == "True" for r in rows)
    with open(out, newline="") as fh:
        header = fh.readline().strip().split(",")
    assert header == REPLAY_COLUMNS


def test_cli_replay_empty_capture_succeeds(tmp_path):
    cap = tmp_path / "empty.fmap"
    write_capture(cap, [])
    out = tmp_path / "replay.csv"
    assert cli("replay", "--input", str(cap), "--out", str(out)) == 0
    assert read_rows(out) == []


def test_cli_module_runs_as_a_script():
    src = os.path.dirname(os.path.dirname(tokmerge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "tokmerge.cli", "bench", "--tokens", "15"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "--tokens" in proc.stderr


def test_cli_exit_codes():
    assert cli("bench", "--tokens", "60", "--steps", "2") == 1  # config error
    assert cli("capture", "--tokens", "16") == 1  # missing --out
    assert cli("replay", "--input", "/nonexistent/path.fmap") == 2  # I/O error
    assert cli("nonsense") == 1  # argparse usage error


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag, name",
    [("bench", "--pool-factor", "pool_factor"), ("bench", "--dst-frac", "dst_frac"),
     ("bench", "--cfg-scale", "cfg_scale"), ("bench", "--ratio", "ratio"),
     ("compare", "--ratio", "ratio"), ("replay", "--ratio", "ratio")],
    ids=["--pool-factor-pool_factor", "--dst-frac-dst_frac", "--cfg-scale-cfg_scale",
         "bench---ratio-ratio", "compare---ratio-ratio", "replay---ratio-ratio"],
)
def test_cli_rejects_non_finite_setting_by_name(capsys, tmp_path, command, flag, name,
                                                value):
    cap = tmp_path / "one.fmap"
    write_capture(cap, [CaptureRecord(2, 0, np.ones((16, 4), dtype=np.float32),
                                      np.ones(16, dtype=np.float32))])
    extra = {"compare": ["--seeds", "1", "--conditions", "1"],
             "replay": ["--input", str(cap)]}.get(command, [])
    assert cli(command, f"{flag}={value}", "--tokens", "16", "--steps", "2", *extra) == 1
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "compare", "capture", "replay"])
@pytest.mark.parametrize(
    "flag, value, name",
    [("--tokens", "15", "tokens"), ("--tokens", "-16", "tokens"), ("--steps", "0", "steps"),
     ("--channels", "3", "channels"), ("--prune-steps", "-1", "prune_steps")],
)
def test_cli_rejects_bad_shared_setting_by_name(capsys, tmp_path, command, flag, value,
                                                name):
    cap = tmp_path / "one.fmap"
    write_capture(cap, [CaptureRecord(2, 0, np.ones((16, 4), dtype=np.float32),
                                      np.ones(16, dtype=np.float32))])
    extra = {"capture": ["--out", str(tmp_path / "out.fmap")],
             "replay": ["--input", str(cap)]}.get(command, [])
    assert cli(command, "--tokens", "16", "--steps", "2", flag, value, *extra) == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out.fmap").exists()


@pytest.fixture(scope="module")
def one_record_capture(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "one.fmap"
    write_capture(path, [CaptureRecord(2, 0, np.ones((16, 4), dtype=np.float32),
                                       np.ones(16, dtype=np.float32))])
    return path


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["bench", "compare", "replay"]),
    tokens=st.sampled_from([0, 15, 16, 36]),
    steps=st.integers(0, 3),
    count=st.integers(-1, 2),
    other_count=st.integers(-1, 2),
    ratio=st.sampled_from([0.0, 0.5, 0.95, 1.0, -0.1, math.nan, math.inf, -math.inf]),
)
def test_cli_fuzzed_settings_exit_without_traceback(one_record_capture, command, tokens,
                                                   steps, count, other_count, ratio):
    extra = {
        "bench": ["--repeats", str(count), "--seeds", str(other_count)],
        "compare": ["--seeds", str(count), "--conditions", str(other_count)],
        "replay": ["--input", str(one_record_capture)],
    }[command]
    argv = [command, "--tokens", str(tokens), "--steps", str(steps), "--channels", "8",
            "--prune-steps", "1", f"--ratio={ratio}", *extra]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1)


def test_cli_capture_unwritable_path_is_io_error():
    code = cli("capture", "--tokens", "16", "--channels", "8", "--steps", "2",
               "--prune-steps", "1", "--out", "/nonexistent-dir/cap.fmap")
    assert code == 2


def test_bench_none_row_ignores_a_dst_fraction_too_small_to_merge():
    params = HarnessParams(tokens=16, channels=8, steps=3, dst_frac=0.01)
    rows = run_bench(["importance-pool"], [0.5], params, repeats=1, warmups=0)
    assert [(row["strategy"], row["status"][:10]) for row in rows] == [
        ("none", "ok"), ("importance-pool", "infeasible")]
    assert rows[0]["flops_per_step"] == FlopModel(16, 8, 32).step_flops(16)


def test_bench_survives_grid_infeasible_prune_phase():
    # k=0.1 keeps r=0.85 feasible for the pool itself, but the grid-based
    # prune phase pins k at 0.25 and must surface as an infeasible row, not
    # a crash.
    params = HarnessParams(tokens=16, channels=8, steps=3, prune_steps=1,
                           dst_frac=0.1)
    rows = run_bench(["importance-pool"], [0.85], params, repeats=1, warmups=0)
    row = next(r for r in rows if r["strategy"] == "importance-pool")
    assert row["status"].startswith("infeasible")


def test_bench_prune_phase_error_names_grid_and_its_settings():
    params = HarnessParams(tokens=16, channels=8, steps=3, prune_steps=1, dst_frac=0.1)
    rows = run_bench(["importance-pool"], [0.85], params, repeats=1, warmups=0)
    assert rows[1]["status"] == ("infeasible: tome-random-grid: k=0.25 + r=0.85 > 1 "
                                 "would need a negative independent-token count")


@pytest.mark.parametrize("dst_frac, ratio", [(0.01, 0.5), (0.5, 0.7)])
def test_bench_grid_row_ignores_the_dst_fraction_grid_never_uses(dst_frac, ratio):
    # Grid keeps one dst per 2x2 cell; the k column still reports the flag.
    params = HarnessParams(tokens=16, channels=8, steps=4, prune_steps=1, dst_frac=dst_frac)
    rows = run_bench(["tome-random-grid"], [ratio], params, repeats=1, warmups=0)
    assert [(row["strategy"], row["k"], row["status"]) for row in rows] == [
        ("none", dst_frac, "ok"), ("tome-random-grid", dst_frac, "ok")]


def test_replay_grid_rows_ignore_the_dst_fraction_grid_never_uses(tmp_path):
    params = HarnessParams(tokens=16, channels=8, steps=4, prune_steps=1, dst_frac=0.01)
    path = tmp_path / "cap.fmap"
    run_capture(path, params)
    rows = run_replay(read_capture(path), ["tome-random-grid"], 0.5, params)
    assert len(rows) == 8
    assert all(row["status"] == "ok" and row["count_ok"] for row in rows)


@pytest.mark.parametrize("command, extra", [
    ("bench", ["--repeats", "1"]),
    ("compare", ["--strategy", "tome", "--seeds", "1", "--conditions", "1"])])
def test_cli_huge_finite_pool_factor_pools_every_token(capsys, command, extra):
    assert cli(command, "--tokens", "16", "--channels", "8", "--steps", "2",
               "--prune-steps", "0", "--pool-factor", "1e308", "--strategy", "importance",
               "--ratio", "0.5", *extra) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2 and all(row["status"] == "ok" for row in rows)


def test_cli_replay_corrupt_file_is_io_error(tmp_path):
    cap = tmp_path / "corrupt.fmap"
    cap.write_bytes(b"FMAPgarbage-that-is-not-valid")
    assert cli("replay", "--input", str(cap)) == 2


def test_cli_help_documents_csv_schema(capsys):
    assert cli("bench", "--help") == 0
    out = capsys.readouterr().out
    assert "CSV columns" in out
    assert "flops_per_step" in out
