import dataclasses
import functools
import logging
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokmerge import (
    ImportanceMap,
    MergeConfig,
    NoiseSchedule,
    Rng,
    TokenMatrix,
    ToyDenoiser,
    apply_merge,
    apply_prune,
    apply_unmerge,
    cfg_predict,
    combine_guidance,
    identity_plan,
    plan_tome_grid,
    sample,
    scheduled_plan,
)
from tokmerge import toydiff
from tokmerge.matching import _row_blocks
from tokmerge.toydiff import (
    MODE_MERGE,
    MODE_PRUNE,
    _gelu,
    _layer_norm,
    _mlp_residual,
    attention,
    merged_attention,
)

# Token counts around the row-block edges: one block (256 to 575), two exact
# blocks (576) and a remainder folded into the last block (1024 to 4096).
BLOCKED_COUNTS = (256, 300, 511, 512, 575, 576, 1024, 1100, 1228, 4096)


def small_model(channels=8, seed=0):
    return ToyDenoiser(channels, n_classes=4, seed=seed)


def make_state(n=16, c=8, grid=(4, 4), t=5, w=7.5, y=1, seed=0, prev=None):
    x = np.random.default_rng(seed).standard_normal((n, c)).astype(np.float32)
    return SimpleNamespace(x_t=TokenMatrix(x, grid=grid), t=t, w=w, y=y, prev_guidance=prev)


# ---------------------------------------------------------------------------
# NoiseSchedule
# ---------------------------------------------------------------------------

def test_schedule_rejects_out_of_range_betas():
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.0, 0.1]))
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.1, 1.0]))


def test_schedule_rejects_decreasing_betas():
    with pytest.raises(ValueError, match="non-decreasing"):
        NoiseSchedule(np.array([0.2, 0.1]))


def test_linear_schedule_cumulative_products_strictly_decrease():
    sched = NoiseSchedule.linear(50)
    assert sched.T == 50
    assert np.all(np.diff(sched.alpha_bars) < 0)
    assert np.all(sched.alpha_bars > 0) and np.all(sched.alpha_bars <= 1)


# ---------------------------------------------------------------------------
# guidance combination
# ---------------------------------------------------------------------------

def test_combine_guidance_hand_arithmetic():
    cond = TokenMatrix(np.array([[0.2, -0.4], [1.0, 0.5]]))
    uncond = TokenMatrix(np.array([[0.1, 0.1], [-0.5, 0.25]]))
    w = 7.5
    out = combine_guidance(cond, uncond, w)
    expected = [
        [0.1 + w * 0.1, 0.1 + w * -0.5],
        [-0.5 + w * 1.5, 0.25 + w * 0.25],
    ]
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)


def test_combine_guidance_endpoints_exact():
    gen = np.random.default_rng(0)
    cond = TokenMatrix(gen.standard_normal((5, 3)).astype(np.float32))
    uncond = TokenMatrix(gen.standard_normal((5, 3)).astype(np.float32))
    np.testing.assert_array_equal(combine_guidance(cond, uncond, 0.0).data, uncond.data)
    np.testing.assert_array_equal(combine_guidance(cond, uncond, 1.0).data, cond.data)


def test_combine_guidance_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        combine_guidance(TokenMatrix(np.zeros((2, 2))), TokenMatrix(np.zeros((3, 2))), 2.0)


# ---------------------------------------------------------------------------
# cfg_predict
# ---------------------------------------------------------------------------

def test_cfg_predict_weight_zero_returns_unconditional():
    model = small_model()
    state = make_state(w=0.0)
    eps, _ = cfg_predict(model, state.x_t, state.t, state.y, state.w)
    uncond = model.forward(state.x_t, state.t, None)
    np.testing.assert_array_equal(eps.data, uncond.data)


def test_cfg_predict_weight_one_returns_conditional():
    model = small_model()
    state = make_state(w=1.0)
    eps, _ = cfg_predict(model, state.x_t, state.t, state.y, state.w)
    cond = model.forward(state.x_t, state.t, state.y)
    np.testing.assert_array_equal(eps.data, cond.data)


def test_cfg_predict_is_affine_in_weight():
    model = small_model()
    outs = {}
    for w in (0.0, 1.0, 2.0):
        eps, _ = cfg_predict(model, make_state().x_t, 5, 1, w)
        outs[w] = eps.data.astype(np.float64)
    interp = 2.0 * outs[1.0] - outs[0.0]
    np.testing.assert_allclose(outs[2.0], interp, rtol=1e-5, atol=1e-7)


def test_cfg_predict_deterministic():
    model = small_model()
    a, ga = cfg_predict(model, make_state().x_t, 5, 1, 7.5)
    b, gb = cfg_predict(model, make_state().x_t, 5, 1, 7.5)
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(ga.scores, gb.scores)


# ---------------------------------------------------------------------------
# scheduled_plan
# ---------------------------------------------------------------------------

def test_scheduler_prunes_early_then_merges():
    from tokmerge import guidance_magnitude

    cfg = MergeConfig("importance-pool", r=0.5, prune_steps=3)
    state = make_state()
    state.prev_guidance = guidance_magnitude(
        state.x_t, TokenMatrix(np.zeros_like(state.x_t.data))
    )
    early = scheduled_plan(1, state.prev_guidance, state.x_t, cfg, Rng(0).at(5, 0))
    assert early.mode == MODE_PRUNE
    late = scheduled_plan(3, state.prev_guidance, state.x_t, cfg, Rng(0).at(5, 0))
    assert late.mode == MODE_MERGE
    assert not late.grid_fallback


def test_scheduler_falls_back_to_grid_without_guidance():
    cfg = MergeConfig("importance-pool", r=0.5, prune_steps=0)
    state = make_state(prev=None)
    sp = scheduled_plan(0, state.prev_guidance, state.x_t, cfg, Rng(0).at(5, 0))
    assert sp.mode == MODE_MERGE
    assert sp.grid_fallback


@pytest.mark.parametrize("strategy", ["importance-pool", "topk-dst"])
def test_scheduler_rejects_guidance_of_the_wrong_length(strategy):
    cfg = MergeConfig(strategy, r=0.5, prune_steps=0)
    state = make_state(prev=ImportanceMap(np.ones(17)))
    with pytest.raises(ValueError, match="17 scores for 16 tokens"):
        scheduled_plan(3, state.prev_guidance, state.x_t, cfg, Rng(0).at(5, 0))


def test_scheduler_strategy_none_merges_nothing():
    cfg = MergeConfig("none", r=0.0)
    state = make_state()
    for step in range(4):
        sp = scheduled_plan(step, state.prev_guidance, state.x_t, cfg, Rng(0).at(5, 0))
        assert sp.plan.n_merged == 0
        assert sp.plan.n_out == state.x_t.n_tokens
        assert sp.plan == identity_plan(state.x_t.n_tokens)


def test_sample_strategy_none_shares_one_frozen_identity_plan():
    events = []
    sample(small_model(), NoiseSchedule.linear(4), MergeConfig("none", r=0.0), 7.5, 1,
           Rng(0), (4, 4), hook=events.append)
    assert len(events) == 16
    assert all(ev.plan == identity_plan(16) for ev in events)
    assert all(ev.plan is events[0].plan for ev in events)
    with pytest.raises(ValueError, match="read-only"):
        events[0].plan.dst_indices[0] = 1


def test_scheduler_grid_strategy_never_needs_guidance():
    cfg = MergeConfig("tome-random-grid", r=0.5, prune_steps=2)
    state = make_state(prev=None)
    sp = scheduled_plan(5, state.prev_guidance, state.x_t, cfg, Rng(0).at(5, 0))
    assert sp.mode == MODE_MERGE
    assert not sp.grid_fallback


@pytest.mark.parametrize("step", [1, 3], ids=["prune-step", "merge-step"])
@pytest.mark.parametrize("has_map", [True, False], ids=["map", "no-map"])
@pytest.mark.parametrize("strategy", ["none", "tome-random-grid", "importance-pool", "topk-dst"])
def test_scheduler_decision_table(caplog, strategy, has_map, step):
    # prune_steps=2: step 1 prunes (except under none), step 3 merges.
    cfg = MergeConfig(strategy, r=0.0 if strategy == "none" else 0.5, prune_steps=2)
    tokens = make_state().x_t
    importance = ImportanceMap(np.random.default_rng(1).random(16)) if has_map else None
    with caplog.at_level(logging.DEBUG, logger="tokmerge.toydiff"):
        sp = scheduled_plan(step, importance, tokens, cfg, Rng(0).at(5, 0))

    prunes = strategy != "none" and step < 2
    fallback = not prunes and not has_map and strategy in ("importance-pool", "topk-dst")
    assert sp.mode == (MODE_PRUNE if prunes else MODE_MERGE)
    assert sp.grid_fallback == fallback
    assert ("using grid selection" in caplog.text) == fallback
    if prunes or fallback or strategy == "tome-random-grid":
        expected = plan_tome_grid(tokens, cfg, Rng(0).at(5, 0))
    else:
        expected = toydiff.plan_layer(tokens, importance, cfg, Rng(0).at(5, 0))
    assert sp.plan == expected
    if strategy == "none":
        assert sp.plan == identity_plan(16)


# strategy -> the strategy that plans it (without a map, with one).
PLANNING_TABLE = {
    "none": ("none", "none"),
    "tome-random-grid": ("tome-random-grid", "tome-random-grid"),
    "importance-pool": ("tome-random-grid", "importance-pool"),
    "topk-dst": ("tome-random-grid", "topk-dst"),
}


@pytest.mark.parametrize("has_map", [False, True], ids=["no-map", "map"])
@pytest.mark.parametrize("strategy", sorted(PLANNING_TABLE))
def test_planning_config_table(strategy, has_map):
    cfg = MergeConfig(strategy, r=0.0 if strategy == "none" else 0.5, k=0.125, p=0.5,
                      prune_steps=2)
    tokens = make_state().x_t
    importance = ImportanceMap(np.random.default_rng(1).random(16)) if has_map else None
    planning = toydiff.planning_config(cfg, importance)

    assert planning.strategy == PLANNING_TABLE[strategy][has_map]
    if planning.strategy == strategy:
        assert planning is cfg
    else:  # grid's own config: grid's dst fraction, the other settings kept
        assert planning == dataclasses.replace(cfg, strategy="tome-random-grid")
        assert planning == MergeConfig("tome-random-grid", r=0.5, p=0.5, prune_steps=2)
        assert planning.k == 0.25
    assert toydiff.planning_config(planning, importance) is planning
    rng = Rng(0).at(5, 0)
    assert (toydiff.plan_layer(tokens, importance, cfg, rng)
            == toydiff.plan_layer(tokens, importance, planning, rng))


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_engine_bypass_is_bit_transparent():
    model = small_model()
    sched = NoiseSchedule.linear(8)
    for seed in range(3):
        base = sample(model, sched, MergeConfig("none", r=0.0), 7.5, 2,
                      Rng(seed), (4, 4))
        wrapped = sample(model, sched, MergeConfig("importance-pool", r=0.0), 7.5, 2,
                         Rng(seed), (4, 4))
        np.testing.assert_array_equal(base.data, wrapped.data)


def test_sample_prune_schedule_and_guidance_linkage():
    model = small_model()
    sched = NoiseSchedule.linear(10)
    cfg = MergeConfig("importance-pool", r=0.5, prune_steps=3)
    events = []
    sample(model, sched, cfg, 7.5, 1, Rng(0), (4, 4), hook=events.append)
    assert events, "merge engine produced no layer events"
    for ev in events:
        if ev.step_index < 3:
            assert ev.mode == MODE_PRUNE
        else:
            assert ev.mode == MODE_MERGE
            assert not ev.grid_fallback
    steps_seen = {ev.step_index for ev in events}
    assert steps_seen == set(range(10))


@pytest.mark.parametrize("strategy", ["none", "tome-random-grid", "importance-pool"])
def test_sample_events_carry_the_previous_steps_map(monkeypatch, strategy):
    maps = []

    def recording_cfg_predict(*args, **kwargs):
        eps, guidance = cfg_predict(*args, **kwargs)
        maps.append(guidance)
        return eps, guidance

    monkeypatch.setattr(toydiff, "cfg_predict", recording_cfg_predict)
    cfg = MergeConfig(strategy, r=0.0 if strategy == "none" else 0.5, prune_steps=2)
    events = []
    sample(small_model(), NoiseSchedule.linear(5), cfg, 7.5, 1, Rng(0), (4, 4),
           hook=events.append)
    assert len(events) == 5 * 2 * 2 and len(maps) == 5
    for ev in events:
        expected = None if ev.step_index == 0 else maps[ev.step_index - 1]
        assert ev.importance is expected


def test_sample_cold_start_without_pruning_uses_grid_once():
    model = small_model()
    sched = NoiseSchedule.linear(6)
    cfg = MergeConfig("importance-pool", r=0.5, prune_steps=0)
    events = []
    sample(model, sched, cfg, 7.5, 1, Rng(0), (4, 4), hook=events.append)
    for ev in events:
        assert ev.grid_fallback == (ev.step_index == 0)


def test_sample_outputs_bounded_and_strategy_dependent():
    model = small_model()
    sched = NoiseSchedule.linear(10)
    a = sample(model, sched, MergeConfig("importance-pool", r=0.5), 7.5, 1,
               Rng(3), (4, 4))
    b = sample(model, sched, MergeConfig("tome-random-grid", r=0.5), 7.5, 1,
               Rng(3), (4, 4))
    for out in (a, b):
        assert np.all(np.isfinite(out.data))
        assert np.all(np.abs(out.data) < 10.0)
    assert not np.array_equal(a.data, b.data)


def test_sample_reduced_attention_token_count():
    model = small_model()
    sched = NoiseSchedule.linear(4)
    cfg = MergeConfig("tome-random-grid", r=0.5, prune_steps=0)
    events = []
    sample(model, sched, cfg, 7.5, 0, Rng(0), (8, 8), hook=events.append)
    for ev in events:
        assert ev.plan.n_out == 32  # floor(64 * 0.5)


def test_sample_shape_conservation_every_step():
    model = small_model()
    sched = NoiseSchedule.linear(5)
    cfg = MergeConfig("topk-dst", r=0.6, prune_steps=1)
    events = []
    out = sample(model, sched, cfg, 7.5, 3, Rng(2), (4, 4), hook=events.append)
    assert out.data.shape == (16, 8)
    for ev in events:
        assert ev.plan.n_in == 16


def test_sample_is_seed_deterministic():
    model = small_model()
    sched = NoiseSchedule.linear(6)
    cfg = MergeConfig("importance-pool", r=0.6)
    a = sample(model, sched, cfg, 7.5, 1, Rng(11), (4, 4))
    b = sample(model, sched, cfg, 7.5, 1, Rng(11), (4, 4))
    np.testing.assert_array_equal(a.data, b.data)


def test_sample_matched_seeds_share_noise_streams():
    # Different strategies at the same seed must start from the same x_T:
    # with zero merge ratio both collapse to the baseline bitwise.
    model = small_model()
    sched = NoiseSchedule.linear(5)
    a = sample(model, sched, MergeConfig("tome-random-grid", r=0.0), 7.5, 1,
               Rng(7), (4, 4))
    b = sample(model, sched, MergeConfig("topk-dst", r=0.0), 7.5, 1,
               Rng(7), (4, 4))
    np.testing.assert_array_equal(a.data, b.data)


def test_pool_merge_step_plans_each_layer_once_for_both_passes(monkeypatch):
    # One scheduled plan per layer and step for every strategy, and one
    # ranking of the map per step that has one; the uncond pass reuses the
    # cond pass's plan, mode and fallback flag.
    planned, rankings = [], []
    planner = toydiff.scheduled_plan

    def counted_plan(step_index, *args):
        planned.append(step_index)
        return planner(step_index, *args)

    ranking = ImportanceMap.ranking.func

    def counted_ranking(imp):
        rankings.append(imp)
        return ranking(imp)

    counted = functools.cached_property(counted_ranking)
    counted.__set_name__(ImportanceMap, "ranking")
    monkeypatch.setattr(toydiff, "scheduled_plan", counted_plan)
    monkeypatch.setattr(ImportanceMap, "ranking", counted)
    steps, n_layers = 3, small_model().n_blocks
    for strategy in ("none", "tome-random-grid", "importance-pool", "topk-dst"):
        for prune_steps in (0, 1):
            planned.clear()
            rankings.clear()
            events = []
            cfg = MergeConfig(strategy, r=0.7, prune_steps=prune_steps)
            sample(small_model(), NoiseSchedule.linear(steps), cfg, 7.5, 1, Rng(4), (8, 8),
                   hook=events.append)
            assert sorted(planned) == [i for i in range(steps) for _ in range(n_layers)]
            mapped = steps - 1 if strategy in ("importance-pool", "topk-dst") else 0
            assert len(rankings) == len({id(imp) for imp in rankings}) == mapped
            assert len(events) == 2 * n_layers * steps
            merge_steps = steps - (0 if strategy == "none" else prune_steps)
            assert sum(ev.mode == MODE_MERGE for ev in events) == 2 * n_layers * merge_steps
            for cond in (ev for ev in events if ev.pass_id == "cond"):
                (uncond,) = [ev for ev in events if ev.pass_id == "uncond"
                             and (ev.step_index, ev.layer) == (cond.step_index, cond.layer)]
                assert uncond.plan is cond.plan
                assert (uncond.mode, uncond.grid_fallback) == (cond.mode, cond.grid_fallback)
                assert cond.importance is uncond.importance
            assert any(ev.grid_fallback for ev in events) == (
                prune_steps == 0 and strategy in ("importance-pool", "topk-dst"))


def test_denoiser_rejects_bad_condition():
    model = small_model()
    x = TokenMatrix(np.zeros((4, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="condition"):
        model.forward(x, 1, 99)


def test_denoiser_output_shape_matches_input():
    model = small_model(channels=12)
    x = TokenMatrix(np.random.default_rng(0).standard_normal((9, 12)).astype(np.float32))
    out = model.forward(x, 3, 2)
    assert out.data.shape == (9, 12)


def reference_forward_inputs(model, tokens, t, y):
    """The input of each block of ``model.forward`` without merging, recomputed."""
    h = tokens.data + model._time_embedding(t) + model._class_embedding(y)
    inputs = []
    for blk in model.blocks:
        inputs.append(h)
        h = h + attention(_layer_norm(h, blk.ln1_g, blk.ln1_b), blk.wq, blk.wk, blk.wv, blk.wo)
        h = _mlp_residual(h, blk)
    return inputs


def test_forward_asks_plan_for_once_per_block_in_order():
    model = ToyDenoiser(8, n_classes=4, n_blocks=3, seed=2)
    tokens = make_state().x_t
    calls = []

    def plan_for(layer, layer_tokens):
        calls.append((layer, layer_tokens))
        return identity_plan(layer_tokens.n_tokens), MODE_MERGE

    model.forward(tokens, 4, 1, plan_for)
    assert [layer for layer, _ in calls] == [0, 1, 2]
    for (_, layer_tokens), expected in zip(calls, reference_forward_inputs(model, tokens, 4, 1)):
        assert layer_tokens.grid == tokens.grid
        np.testing.assert_array_equal(layer_tokens.data, expected)


@pytest.mark.parametrize("mode", [MODE_MERGE, MODE_PRUNE])
def test_forward_with_identity_plans_equals_plain_forward(mode):
    model = small_model()
    tokens = make_state(seed=3).x_t
    merged = model.forward(tokens, 2, 0, lambda layer, lt: (identity_plan(lt.n_tokens), mode))
    plain = model.forward(tokens, 2, 0)
    assert merged.grid == plain.grid
    np.testing.assert_array_equal(merged.data.view(np.uint8), plain.data.view(np.uint8))


def test_gelu_float32_tracks_float64_reference():
    x = np.linspace(-50.0, 50.0, 400_001, dtype=np.float32)
    wide = x.astype(np.float64)
    ref = 0.5 * wide * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (wide + 0.044715 * wide**3)))
    out = _gelu(x)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# Blocked layer kernels against the unblocked formulas
# ---------------------------------------------------------------------------

def reference_layer_norm(x, g, b):
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + x.dtype.type(1e-5)) * g + b


def reference_gelu(x):
    c = x.dtype.type(math.sqrt(2.0 / math.pi))
    return x.dtype.type(0.5) * x * (1.0 + np.tanh(c * (x + x.dtype.type(0.044715) * (x * x * x))))


def reference_attention(h, wq, wk, wv, wo):
    q = h @ wq
    k = h @ wk
    v = h @ wv
    s = (q @ k.T) * h.dtype.type(1.0 / math.sqrt(h.shape[1]))
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    return (s @ v) @ wo


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint8), expected.view(np.uint8))


def random_block(channels, seed):
    """A denoiser block with non-trivial norms and biases and peaked attention."""
    gen = np.random.default_rng(seed)
    blk = ToyDenoiser(channels, seed=seed).blocks[0]

    def draw(a, scale):
        return gen.standard_normal(a.shape, dtype=np.float32) * np.float32(scale)

    return dataclasses.replace(
        blk,
        wq=draw(blk.wq, 0.3), wk=draw(blk.wk, 0.3), wv=draw(blk.wv, 0.2),
        ln2_g=1 + draw(blk.ln2_g, 0.1), ln2_b=draw(blk.ln2_b, 0.1),
        b1=draw(blk.b1, 0.1), b2=draw(blk.b2, 0.1),
    )


@pytest.mark.parametrize("n", BLOCKED_COUNTS)
def test_blocked_attention_equals_unblocked_formula(n):
    blk = random_block(64, seed=n)
    h = np.random.default_rng(n).standard_normal((n, 64), dtype=np.float32)
    weights = (blk.wq, blk.wk, blk.wv, blk.wo)
    assert_same_bits(attention(h, *weights), reference_attention(h, *weights))


@pytest.mark.parametrize("n", BLOCKED_COUNTS)
def test_blocked_mlp_residual_equals_unblocked_formula(n):
    blk = random_block(64, seed=n)
    h = np.random.default_rng(n).standard_normal((n, 64), dtype=np.float32)
    hidden = reference_gelu(reference_layer_norm(h, blk.ln2_g, blk.ln2_b) @ blk.w1 + blk.b1)
    assert_same_bits(_mlp_residual(h, blk), h + hidden @ blk.w2 + blk.b2)


@pytest.mark.parametrize("n", [76, 1228, 4096])
def test_attention_into_its_own_operand_equals_a_fresh_output(n):
    blk = random_block(64, seed=n)
    h = np.random.default_rng(n).standard_normal((n, 64), dtype=np.float32)
    weights = (blk.wq, blk.wk, blk.wv, blk.wo)
    fresh = attention(h, *weights)
    operand = h.copy()
    assert attention(operand, *weights, out=operand) is operand
    assert_same_bits(operand, fresh)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=600),
    st.integers(min_value=1, max_value=96),
)
def test_layer_norm_of_a_row_subset_equals_that_subset_of_the_whole(seed, rows, cols):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((1228, cols), dtype=np.float32) * np.float32(3.0)
    g = gen.standard_normal(cols, dtype=np.float32)
    b = gen.standard_normal(cols, dtype=np.float32)
    kept = np.sort(gen.choice(x.shape[0], rows, replace=False))
    assert_same_bits(_layer_norm(x.take(kept, axis=0), g, b), _layer_norm(x, g, b)[kept])


def reference_layer_step(h, blk, plan, mode):
    """The composition the layer step replaces: ln1 of every row, then the
    reduction, attention into a fresh output, and unmerge."""
    hn = _layer_norm(h, blk.ln1_g, blk.ln1_b)
    weights = (blk.wq, blk.wk, blk.wv, blk.wo)
    if plan is None or plan.n_merged == 0:
        return attention(hn, *weights)
    reduce = apply_prune if mode == MODE_PRUNE else apply_merge
    a = attention(reduce(TokenMatrix(hn), plan).data, *weights)
    return apply_unmerge(TokenMatrix(a), plan).data


@pytest.mark.parametrize("side", [16, 32, 64])
@pytest.mark.parametrize("strategy", ["none", "tome-random-grid", "importance-pool"])
@pytest.mark.parametrize("mode", [MODE_MERGE, MODE_PRUNE])
def test_layer_step_equals_normalize_reduce_attend_unmerge(mode, strategy, side):
    n, c = side * side, 64
    gen = np.random.default_rng(side)
    blk = random_block(c, seed=side)
    blk = dataclasses.replace(
        blk, ln1_g=1 + 0.1 * gen.standard_normal(c, dtype=np.float32),
        ln1_b=0.1 * gen.standard_normal(c, dtype=np.float32))
    h = gen.standard_normal((n, c), dtype=np.float32) * np.float32(2.0)
    before = h.copy()
    importance = ImportanceMap(gen.random(n))
    plan = toydiff.plan_layer(TokenMatrix(h, grid=(side, side)), importance,
                              MergeConfig(strategy, 0.7 if strategy != "none" else 0.0),
                              Rng(side))
    assert (plan.n_merged > 0) == (strategy != "none")
    for p in (plan, None):
        assert_same_bits(merged_attention(h, blk, p, mode), reference_layer_step(h, blk, p, mode))
        assert_same_bits(h, before)  # the residual stream is left as it was


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=96),
    st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
)
def test_layer_norm_and_gelu_equal_unfused_expressions(seed, rows, cols, scale):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((rows, cols), dtype=np.float32) * np.float32(scale)
    g = gen.standard_normal(cols, dtype=np.float32)
    b = gen.standard_normal(cols, dtype=np.float32)
    assert_same_bits(_layer_norm(x, g, b), reference_layer_norm(x, g, b))
    assert_same_bits(_gelu(x), reference_gelu(x))


@pytest.mark.parametrize("rows, cols", [(256, 32), (4096, 32), (4096, 64)])
def test_layer_norm_equals_mean_var_form_at_workload_shapes(rows, cols):
    gen = np.random.default_rng(rows + cols)
    x = gen.standard_normal((rows, cols), dtype=np.float32) * np.float32(3.0)
    g = gen.standard_normal(cols, dtype=np.float32)
    b = gen.standard_normal(cols, dtype=np.float32)
    assert_same_bits(_layer_norm(x, g, b), reference_layer_norm(x, g, b))


def test_gelu_leaves_its_argument_unchanged():
    x = np.random.default_rng(4).standard_normal((64, 32), dtype=np.float32)
    before = x.copy()
    _gelu(x)
    assert_same_bits(x, before)


def traced_peak(fn, *args, **kwargs):
    """Peak bytes ``tracemalloc`` traces while ``fn`` runs, beyond its arguments."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# Room for a call's small arrays and numpy's ufunc buffers (8192 elements
# each; a broadcast in-place subtract on a score block took 36 KB).
SLACK_BYTES = 128 << 10


def test_attention_peak_memory_below_half_a_score_matrix():
    # 2015 = 5 * 288 + 575 rows: the last row block has the most rows a
    # block can have.
    n, c, block = 2015, 64, 575
    assert max(b.stop - b.start for b in _row_blocks(n)) == block
    blk = random_block(c, seed=1)
    h = np.random.default_rng(1).standard_normal((n, c), dtype=np.float32)
    peak = traced_peak(attention, h, blk.wq, blk.wk, blk.wv, blk.wo)
    itemsize = np.dtype(np.float32).itemsize
    assert peak < n * n * itemsize / 2
    # kᵀ, v and the output, one block of scores and one block of q rows.
    assert peak < (3 * n * c + block * n + block * c) * itemsize + SLACK_BYTES


def test_pool_trajectory_peak_memory_below_ten_token_matrices():
    # A 3-step pool trajectory at 1024x64: x, both passes' predictions, the
    # residual stream and the layer's operands, with every wider temporary
    # held to one row block.
    n, c = 1024, 64
    model, schedule = ToyDenoiser(c, seed=0), NoiseSchedule.linear(3)
    config = MergeConfig("importance-pool", r=0.7, prune_steps=1)
    peak = traced_peak(sample, model, schedule, config, 7.5, 1, Rng(0), (32, 32))
    assert peak < 10 * n * c * np.dtype(np.float32).itemsize


def test_pool_trajectory_peak_memory_at_4096_tokens_below_six_and_a_half_token_matrices():
    # A 2-step pool trajectory at 4096x64 (a grid prune step, then a pool
    # merge step): link_best's score blocks stay near 1 MB, apply_merge
    # reduces one block of groups at a time, and the layer step drops the
    # normalized operand once it is reduced.  Whole-array forms peaked at
    # 7.7 token matrices of N·C·4 B.
    n, c = 4096, 64
    model, schedule = ToyDenoiser(c, seed=0), NoiseSchedule.linear(2)
    config = MergeConfig("importance-pool", r=0.7, prune_steps=1)
    peak = traced_peak(sample, model, schedule, config, 7.5, 1, Rng(0), (64, 64))
    assert peak < 6.5 * n * c * np.dtype(np.float32).itemsize
