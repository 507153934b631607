import dataclasses
import math

import numpy as np
import pytest

from tokmerge import strategy as strategy_module
from tokmerge import (
    ConfigInfeasibleError,
    ImportanceMap,
    MergeConfig,
    MergePlan,
    Rng,
    TokenMatrix,
    counts_for,
    plan_importance_pool,
    plan_tome_grid,
    plan_topk_dst,
    rank_tokens,
)
from tokmerge.strategy import _plan_from_dst


def make_tokens(seed, n, c=8, grid=None):
    gen = np.random.default_rng(seed)
    return TokenMatrix(gen.standard_normal((n, c)), grid=grid)


def make_importance(seed, n):
    return ImportanceMap(np.random.default_rng(seed).random(n))


def assert_partition(plan: MergePlan):
    pieces = np.concatenate(
        [plan.dst_indices, plan.independent_indices, plan.merged_sources]
    )
    np.testing.assert_array_equal(np.sort(pieces), np.arange(plan.n_in))


def brute_best_dst(tokens, src_idx, dst_idx):
    """Per-src argmax dst by cosine, ties toward the lower dst index."""
    best = {}
    for s in src_idx:
        a = tokens.data[s].astype(np.float64)
        na = np.linalg.norm(a)
        best_d, best_score = None, -2.0
        for d in dst_idx:
            b = tokens.data[d].astype(np.float64)
            nb = np.linalg.norm(b)
            score = 0.0 if na == 0 or nb == 0 else float(a @ b / (na * nb))
            score = min(1.0, max(-1.0, score))
            if score > best_score:
                best_d, best_score = d, score
        best[int(s)] = int(best_d)
    return best


# ---------------------------------------------------------------------------
# tome-random-grid
# ---------------------------------------------------------------------------

def test_grid_counts_on_4x4():
    tokens = make_tokens(0, 16, grid=(4, 4))
    cfg = MergeConfig("tome-random-grid", r=0.5)
    plan = plan_tome_grid(tokens, cfg, Rng(7).at(0, 0))
    assert plan.dst_indices.size == 4
    assert plan.n_merged == 8
    assert plan.independent_indices.size == 4
    assert_partition(plan)


def test_grid_r_zero_merges_nothing():
    tokens = make_tokens(1, 16, grid=(4, 4))
    cfg = MergeConfig("tome-random-grid", r=0.0)
    plan = plan_tome_grid(tokens, cfg, Rng(7).at(0, 0))
    assert plan.n_merged == 0
    assert plan.n_out == 16


def test_grid_requires_grid_metadata():
    tokens = make_tokens(2, 16)
    cfg = MergeConfig("tome-random-grid", r=0.5)
    with pytest.raises(ValueError, match="grid"):
        plan_tome_grid(tokens, cfg, Rng(0))


def test_grid_rejects_odd_dimensions():
    tokens = make_tokens(3, 12, grid=(3, 4))
    cfg = MergeConfig("tome-random-grid", r=0.5)
    with pytest.raises(ValueError, match="even"):
        plan_tome_grid(tokens, cfg, Rng(0))


def test_grid_one_dst_per_cell_across_seeds():
    tokens = make_tokens(4, 64, grid=(8, 8))
    cfg = MergeConfig("tome-random-grid", r=0.5)
    seen = set()
    for seed in range(100):
        plan = plan_tome_grid(tokens, cfg, Rng(seed).at(0, 0))
        cells = set()
        for d in plan.dst_indices:
            row, col = int(d) // 8, int(d) % 8
            cells.add((row // 2, col // 2))
        assert len(cells) == 16  # exactly one dst in every 2x2 cell
        seen.add(tuple(plan.dst_indices.tolist()))
    assert len(seen) > 1  # different seeds explore different dst sets


def test_grid_ignores_config_k():
    tokens = make_tokens(5, 64, grid=(8, 8))
    plan = plan_tome_grid(tokens, MergeConfig("tome-random-grid", r=0.5, k=0.4),
                          Rng(1).at(0, 0))
    assert plan.dst_indices.size == 16  # pinned at n/4 by the cell layout


@pytest.mark.parametrize("k", [0.05, 0.25, 0.5])
def test_grid_counts_match_grid_plans(k):
    tokens = make_tokens(5, 64, grid=(8, 8))
    cfg = MergeConfig("tome-random-grid", r=0.5, k=k)
    counts = counts_for(64, cfg)
    plan = plan_tome_grid(tokens, cfg, Rng(1).at(0, 0))
    assert (plan.dst_indices.size, plan.independent_indices.size) == (
        counts.n_dst, counts.n_independent)


@pytest.mark.parametrize("strategy", ["tome-random-grid", "importance-pool", "topk-dst"])
def test_grid_config_is_derived_once_per_config(strategy):
    tokens = make_tokens(5, 64, grid=(8, 8))
    strategy_module._grid_config.cache_clear()
    # Equal configs built apart share one derivation, as each sampled
    # trajectory builds its own config.
    plans = [plan_tome_grid(tokens, MergeConfig(strategy, r=0.5, k=0.4), Rng(1).at(t, 0))
             for t in range(3)]
    info = strategy_module._grid_config.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    counts = counts_for(64, MergeConfig("tome-random-grid", r=0.5))
    for t, plan in enumerate(plans):
        dst = strategy_module._grid_dst(Rng(1).at(t, 0), 8, 8)
        assert plan == _plan_from_dst(tokens, dst, counts.n_independent)


# ---------------------------------------------------------------------------
# importance-pool
# ---------------------------------------------------------------------------

def test_pool_counts_on_reference_instance():
    tokens = make_tokens(6, 100)
    imp = make_importance(7, 100)
    cfg = MergeConfig("importance-pool", r=0.7, k=0.25, p=0.4)
    plan = plan_importance_pool(tokens, imp, cfg, Rng(3).at(0, 0))
    assert plan.dst_indices.size == 25
    assert plan.independent_indices.size == 5
    assert plan.n_merged == 70
    assert plan.n_out == 30
    assert_partition(plan)


def test_pool_dst_and_independent_stay_in_pool():
    tokens = make_tokens(8, 64)
    imp = make_importance(9, 64)
    cfg = MergeConfig("importance-pool", r=0.7, k=0.25, p=0.4)
    counts = counts_for(64, cfg)
    pool = set(rank_tokens(imp)[: counts.pool_size].tolist())
    for seed in range(50):
        plan = plan_importance_pool(tokens, imp, cfg, Rng(seed).at(0, 0))
        selected = set(plan.dst_indices.tolist()) | set(
            plan.independent_indices.tolist()
        )
        assert selected <= pool


def test_pool_membership_forced_by_decreasing_importance():
    # Pool of exactly 4 tokens: n=16, r=0.75 gives n_out=4 and p=0 keeps the
    # pool tight; k=0.125 puts 2 dst and 2 independents inside it.
    tokens = make_tokens(10, 16)
    imp = ImportanceMap(np.linspace(1.0, 0.1, 16))
    cfg = MergeConfig("importance-pool", r=0.75, k=0.125, p=0.0)
    counts = counts_for(16, cfg)
    assert counts == (4, 2, 2, 4)
    plan = plan_importance_pool(tokens, imp, cfg, Rng(11).at(0, 0))
    assert set(plan.dst_indices.tolist()) | set(
        plan.independent_indices.tolist()
    ) == {0, 1, 2, 3}


def test_pool_rejects_wrong_importance_length():
    tokens = make_tokens(12, 32)
    cfg = MergeConfig("importance-pool", r=0.5)
    with pytest.raises(ValueError, match="scores"):
        plan_importance_pool(tokens, make_importance(0, 16), cfg, Rng(0))


def test_pool_plans_are_seed_deterministic():
    tokens = make_tokens(13, 64)
    imp = make_importance(14, 64)
    cfg = MergeConfig("importance-pool", r=0.6)
    a = plan_importance_pool(tokens, imp, cfg, Rng(5).at(3, 1))
    b = plan_importance_pool(tokens, imp, cfg, Rng(5).at(3, 1))
    assert a == b
    c = plan_importance_pool(tokens, imp, cfg, Rng(6).at(3, 1))
    assert a != c or not np.array_equal(a.merged_targets, c.merged_targets)


def test_pool_outside_tokens_always_merge():
    tokens = make_tokens(15, 64)
    imp = make_importance(16, 64)
    cfg = MergeConfig("importance-pool", r=0.7, k=0.25, p=0.4)
    counts = counts_for(64, cfg)
    pool = set(rank_tokens(imp)[: counts.pool_size].tolist())
    plan = plan_importance_pool(tokens, imp, cfg, Rng(17).at(0, 0))
    outside = set(range(64)) - pool
    assert outside <= set(plan.merged_sources.tolist())


# ---------------------------------------------------------------------------
# topk-dst
# ---------------------------------------------------------------------------

def test_topk_dst_is_argmax_of_importance():
    tokens = make_tokens(18, 16)
    scores = np.ones(16)
    scores[0], scores[1] = 9.0, 8.0
    cfg = MergeConfig("topk-dst", r=0.75, k=0.125, p=0.0)
    plan = plan_topk_dst(tokens, ImportanceMap(scores), cfg)
    np.testing.assert_array_equal(plan.dst_indices, [0, 1])


def test_topk_identical_tokens_partition_by_tiebreak():
    tokens = TokenMatrix(np.tile([1.0, 2.0], (16, 1)))
    cfg = MergeConfig("topk-dst", r=0.5, k=0.25)
    plan = plan_topk_dst(tokens, ImportanceMap(np.full(16, 0.5)), cfg)
    assert_partition(plan)
    assert plan.n_out == 8


def test_topk_consumes_no_randomness():
    tokens = make_tokens(19, 64)
    imp = make_importance(20, 64)
    cfg = MergeConfig("topk-dst", r=0.6)
    assert plan_topk_dst(tokens, imp, cfg) == plan_topk_dst(tokens, imp, cfg)


def test_topk_independents_may_leave_the_pool():
    # Make the top tokens mutually similar and one unimportant token point
    # in the opposite direction: it must surface as a global independent.
    data = np.tile([1.0, 0.05], (16, 1))
    data += np.random.default_rng(21).standard_normal((16, 2)) * 0.01
    data[15] = [-1.0, 0.8]
    tokens = TokenMatrix(data)
    imp = ImportanceMap(np.linspace(1.0, 0.1, 16))
    cfg = MergeConfig("topk-dst", r=0.5, k=0.25)
    plan = plan_topk_dst(tokens, imp, cfg)
    assert 15 in plan.independent_indices.tolist()


# ---------------------------------------------------------------------------
# cross-strategy properties
# ---------------------------------------------------------------------------

def build_any_plan(strategy, tokens, imp, cfg, rng):
    if strategy == "tome-random-grid":
        return plan_tome_grid(tokens, cfg, rng)
    if strategy == "importance-pool":
        return plan_importance_pool(tokens, imp, cfg, rng)
    return plan_topk_dst(tokens, imp, cfg)


@pytest.mark.parametrize("strategy", ["tome-random-grid", "importance-pool", "topk-dst"])
@pytest.mark.parametrize("seed", range(10))
def test_merged_assignment_matches_brute_force_argmax(strategy, seed):
    gen = np.random.default_rng(seed)
    side = int(gen.integers(2, 7)) * 2
    n = side * side
    tokens = make_tokens(seed + 100, n, grid=(side, side))
    imp = make_importance(seed + 200, n)
    cfg = MergeConfig(strategy, r=0.5, k=0.25, p=0.4)
    plan = build_any_plan(strategy, tokens, imp, cfg, Rng(seed).at(1, 0))
    assert_partition(plan)
    oracle = brute_best_dst(tokens, plan.merged_sources, plan.dst_indices)
    assignment = dict(zip(plan.merged_sources.tolist(), plan.merged_targets.tolist()))
    assert assignment == oracle


def full_set_random_plan(tokens, cfg, rng):
    """Reference construction: dst drawn from the whole token set, then the
    standard link / least-similar-independent / merge-the-rest pipeline."""
    n = tokens.n_tokens
    counts = counts_for(n, cfg)
    gen = rng.generator()
    dst = np.sort(gen.choice(np.arange(n, dtype=np.int64), size=counts.n_dst,
                             replace=False))
    src = np.setdiff1d(np.arange(n), dst)
    x = tokens.data.astype(np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    xn = x / np.where(norms > 0, norms, 1.0)
    sims = np.clip(xn[src] @ xn[dst].T, -1.0, 1.0)
    link = sims.argmax(axis=1)
    best = sims[np.arange(src.size), link]
    ind_pos = np.argsort(best, kind="stable")[: counts.n_independent]
    ind_mask = np.zeros(src.size, dtype=bool)
    ind_mask[ind_pos] = True
    return MergePlan(n, dst, np.sort(src[ind_mask]), src[~ind_mask], link[~ind_mask])


def test_pool_equals_full_set_random_when_pool_covers_everything():
    # r=0.3 with p=0.8 puts the whole token set in the pool (K = N), so the
    # pool method must reduce to plain full-set random dst selection when it
    # shares the dst-draw stream.
    tokens = make_tokens(22, 64)
    imp = make_importance(23, 64)
    cfg = MergeConfig("importance-pool", r=0.3, k=0.25, p=0.8)
    assert counts_for(64, cfg).pool_size == 64
    for seed in range(100):
        rng = Rng(seed).at(4, 1)
        assert plan_importance_pool(tokens, imp, cfg, rng) == full_set_random_plan(
            tokens, cfg, rng
        )


def test_strategies_share_reduced_count_formula():
    for seed in range(20):
        gen = np.random.default_rng(seed)
        side = int(gen.integers(2, 9)) * 2
        n = side * side
        r = float(gen.choice([0.3, 0.5, 0.6, 0.7]))
        tokens = make_tokens(seed, n, grid=(side, side))
        imp = make_importance(seed + 1, n)
        for strategy in ("tome-random-grid", "importance-pool", "topk-dst"):
            cfg = MergeConfig(strategy, r=r, k=0.25, p=0.4)
            plan = build_any_plan(strategy, tokens, imp, cfg, Rng(seed).at(0, 0))
            assert plan.n_out == counts_for(n, cfg).n_out


# ---------------------------------------------------------------------------
# Planners, with the map's cached ranking, against the per-call reference
# ---------------------------------------------------------------------------

def reference_ranking(imp):
    """Ranking as computed per call before the map cached it."""
    return np.argsort(-imp.scores, kind="stable").astype(np.int64)


def reference_plan(strategy, tokens, imp, cfg, rng):
    """Each planner's dst selection with a fresh generator on every call and
    an argsort per ranking, then the shared link-and-split step."""
    n = tokens.n_tokens
    if strategy == "tome-random-grid":
        h, w = tokens.grid
        ch, cw = h // 2, w // 2
        gen = rng.generator()
        offsets = gen.integers(0, 4, size=ch * cw)
        cell = np.arange(ch * cw)
        rows = (cell // cw) * 2 + offsets // 2
        cols = (cell % cw) * 2 + offsets % 2
        counts = counts_for(n, dataclasses.replace(cfg, k=0.25))
        return _plan_from_dst(tokens, np.sort(rows * w + cols), counts.n_independent)
    counts = counts_for(n, cfg)
    if strategy == "importance-pool":
        pool = np.sort(reference_ranking(imp)[: counts.pool_size])
        gen = rng.generator()
        dst = np.sort(gen.choice(pool, size=counts.n_dst, replace=False))
        in_pool = np.zeros(n, dtype=bool)
        in_pool[pool] = True
        return _plan_from_dst(tokens, dst, counts.n_independent, eligible=in_pool)
    dst = np.sort(reference_ranking(imp)[: counts.n_dst])
    return _plan_from_dst(tokens, dst, counts.n_independent)


PLAN_GRID = [
    (n, seed, r, strategy)
    for n in (16, 64, 144, 256)
    for seed in range(6)
    for r in (0.0, 0.3, 0.5, 0.7)
    for strategy in ("tome-random-grid", "importance-pool", "topk-dst")
]


def plan_case(n, seed):
    side = math.isqrt(n)
    gen = np.random.default_rng(1000 * n + seed)
    tokens = TokenMatrix(gen.standard_normal((n, 8)).astype(np.float32), grid=(side, side))
    return tokens, gen.random(n)


@pytest.mark.parametrize("reference_first", [False, True])
def test_memoised_planners_equal_per_call_reference(reference_first):
    assert len(PLAN_GRID) == 288
    for _ in range(2):  # the second pass re-plans after every other case ran
        for n, seed, r, strategy in PLAN_GRID:
            tokens, scores = plan_case(n, seed)
            cfg = MergeConfig(strategy, r=r)
            rng = Rng(seed).at(3, 1)
            imp = ImportanceMap(scores)
            if reference_first:
                expected = reference_plan(strategy, tokens, ImportanceMap(scores), cfg, rng)
            plans = [build_any_plan(strategy, tokens, imp, cfg, rng) for _ in range(2)]
            if not reference_first:
                expected = reference_plan(strategy, tokens, ImportanceMap(scores), cfg, rng)
            assert plans[0] == expected and plans[1] == expected, (n, seed, r, strategy)


def test_cached_selection_arrays_are_read_only():
    tokens, scores = plan_case(64, 0)
    imp = ImportanceMap(scores)
    plan_importance_pool(tokens, imp, MergeConfig("importance-pool", r=0.7), Rng(0).at(1, 0))
    for array in (rank_tokens(imp), imp.scores):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_map_ranks_once_and_owns_its_scores():
    scores = np.array([0.2, 0.9, 0.2, 0.5])
    imp = ImportanceMap(scores)
    assert rank_tokens(imp) is rank_tokens(imp)
    np.testing.assert_array_equal(rank_tokens(imp), [1, 3, 0, 2])
    scores[1] = 0.0  # the caller's array is not the map's
    np.testing.assert_array_equal(imp.scores, [0.2, 0.9, 0.2, 0.5])
    np.testing.assert_array_equal(rank_tokens(imp), [1, 3, 0, 2])
