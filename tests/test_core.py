import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_toydiff import traced_peak

from tokmerge import (
    ConfigInfeasibleError,
    ImportanceMap,
    InvalidPlanError,
    MergeConfig,
    MergePlan,
    TokenMatrix,
    apply_merge,
    apply_prune,
    apply_unmerge,
    counts_for,
    identity_plan,
    plan_importance_pool,
)
from tokmerge.rng import Rng


def plan(n, dst, ind, merged):
    """Plan from index lists and a {source: dst token} mapping."""
    src = sorted(merged)
    return MergePlan(n, dst, ind, src, [dst.index(merged[s]) for s in src])


# ---------------------------------------------------------------------------
# TokenMatrix / ImportanceMap / MergeConfig validation
# ---------------------------------------------------------------------------

def test_token_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        TokenMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="finite"):
        TokenMatrix(np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("shape", [(4,), (2, 3, 4), (0, 3), (3, 0)])
def test_token_matrix_rejects_non_matrix_shapes(shape):
    with pytest.raises(ValueError, match="n_tokens, n_channels"):
        TokenMatrix(np.zeros(shape))


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8, bool])
def test_token_matrix_upcasts_non_float_data_to_float64(dtype):
    tm = TokenMatrix(np.array([[1, 0], [0, 1]], dtype=dtype))
    assert tm.data.dtype == np.float64
    np.testing.assert_array_equal(tm.data, [[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_token_matrix_keeps_float_data_as_is(dtype):
    data = np.ones((3, 2), dtype=dtype)
    assert TokenMatrix(data).data is data
    data[1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TokenMatrix(data)


def test_token_matrix_rejects_bad_grid():
    with pytest.raises(ValueError, match="grid"):
        TokenMatrix(np.zeros((4, 2)), grid=(3, 2))


def test_token_matrix_grid_row_major_indexing():
    tm = TokenMatrix(np.zeros((6, 1)), grid=(2, 3))
    assert tm.grid == (2, 3)
    assert tm.n_tokens == 6
    assert tm.n_channels == 1


def test_token_matrix_casts_integers_to_float():
    tm = TokenMatrix(np.array([[1, 2], [3, 4]]))
    assert np.issubdtype(tm.data.dtype, np.floating)


def test_importance_map_rejects_negative_scores():
    with pytest.raises(ValueError, match="non-negative"):
        ImportanceMap(np.array([0.1, -0.2]))


def test_importance_map_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        ImportanceMap(np.array([0.1, np.nan]))


def test_config_rejects_unknown_strategy():
    with pytest.raises(ConfigInfeasibleError):
        MergeConfig("cluster", r=0.5)


@pytest.mark.parametrize("r", [-0.1, 1.0, 1.5])
def test_config_rejects_ratio_out_of_range(r):
    with pytest.raises(ConfigInfeasibleError):
        MergeConfig("none", r=r)


def test_config_rejects_k_plus_r_above_one():
    with pytest.raises(ConfigInfeasibleError):
        MergeConfig("importance-pool", r=0.8, k=0.25)


@pytest.mark.parametrize("strategy, k", [("importance-pool", 0.25), ("tome-random-grid", 0.1)])
def test_config_k_plus_r_error_names_strategy_k_and_r(strategy, k):
    # Grid plans with k=0.25 whatever k it is given, and the message says so.
    message = f"{strategy}: k=0.25 + r=0.8 > 1 would need a negative independent-token count"
    with pytest.raises(ConfigInfeasibleError, match=f"^{re.escape(message)}$"):
        MergeConfig(strategy, r=0.8, k=k)


@pytest.mark.parametrize("k", [0.01, 0.4, 0.9])
def test_grid_config_carries_grids_dst_fraction(k):
    # One dst per 2x2 cell: k=0.9 + r=0.7 is no reason to reject grid.
    assert MergeConfig("tome-random-grid", 0.7, k=k).k == 0.25


def test_config_rejects_negative_prune_steps_by_value():
    with pytest.raises(ConfigInfeasibleError, match="^prune_steps=-1 must be >= 0$"):
        MergeConfig("importance-pool", r=0.5, prune_steps=-1)


def test_config_allows_k_plus_r_equal_one():
    # r=0.75 with k=0.25 is a legitimate setting: zero independent tokens.
    cfg = MergeConfig("importance-pool", r=0.75, k=0.25)
    counts = counts_for(64, cfg)
    assert counts.n_independent == 0
    assert counts.n_out == counts.n_dst == 16


@pytest.mark.parametrize("value", [1.5, 2.0, math.nan, math.inf, "3"])
def test_config_rejects_non_integer_prune_steps_by_name(value):
    with pytest.raises(ConfigInfeasibleError, match="^prune_steps=.* must be an integer"):
        MergeConfig("importance-pool", r=0.5, prune_steps=value)


def test_config_keeps_integer_prune_steps_of_any_integer_type():
    cfg = MergeConfig("importance-pool", r=0.5, prune_steps=np.int64(3))
    assert cfg.prune_steps == 3 and type(cfg.prune_steps) is int


@pytest.mark.parametrize("key", [(0, 3.0, 1), (0.0, 3, 1), (0, 3, "1"), (np.float64(2), 0, 0)])
def test_rng_rejects_non_integer_stream_ids_by_name(key):
    name = ("seed", "timestep", "layer")[[type(v) is not int for v in key].index(True)]
    with pytest.raises(TypeError, match=f"^Rng {name}=.* must be an integer"):
        Rng(*key)


def test_rng_normalizes_integer_stream_ids():
    rng = Rng(np.int64(5), np.uint32(3), 1)
    assert rng == Rng(5, 3, 1) and hash(rng) == hash(Rng(5, 3, 1))
    assert all(type(v) is int for v in (rng.seed, rng.timestep, rng.layer))
    np.testing.assert_array_equal(rng.generator().random(4), Rng(5, 3, 1).generator().random(4))


# ---------------------------------------------------------------------------
# counts_for
# ---------------------------------------------------------------------------

def test_counts_for_reference_values():
    cfg = MergeConfig("importance-pool", r=0.5, k=0.25, p=0.4)
    assert counts_for(64, cfg) == (44, 16, 16, 32)
    cfg = MergeConfig("importance-pool", r=0.7, k=0.25, p=0.4)
    assert counts_for(100, cfg) == (42, 25, 5, 30)


def test_counts_for_pool_covers_whole_set_at_low_ratio():
    cfg = MergeConfig("importance-pool", r=0.3, k=0.25, p=0.8)
    counts = counts_for(64, cfg)
    assert counts.pool_size == 64


def test_counts_for_pools_every_token_at_a_huge_finite_pool_factor():
    # n * (1 - r) * (1 + p) overflows to inf here; the pool is the whole set.
    cfg = MergeConfig("importance-pool", r=0.5, k=0.25, p=1e308)
    assert counts_for(64, cfg) == (64, 16, 16, 32)


def test_counts_for_survives_binary_rounding_of_decimal_ratios():
    # 10 * (1 - 0.3) evaluates to 6.999... in binary; the count must be 7.
    cfg = MergeConfig("importance-pool", r=0.3, k=0.25, p=0.4)
    assert counts_for(10, cfg).n_out == 7


def test_counts_for_rejects_tiny_inputs():
    cfg = MergeConfig("importance-pool", r=0.5)
    with pytest.raises(ConfigInfeasibleError):
        counts_for(3, cfg)


@pytest.mark.parametrize("n", [1, 3, 16])
def test_counts_for_none_are_the_identity_plans(n):
    # none keeps every token, at any n and k, as identity_plan does.
    counts = counts_for(n, MergeConfig("none", 0.0, k=0.01))
    assert counts == (n, n, 0, n)
    assert counts.n_out == identity_plan(n).n_out


def test_counts_for_rejects_zero_dst():
    cfg = MergeConfig("importance-pool", r=0.5, k=0.1)
    with pytest.raises(ConfigInfeasibleError, match="no dst"):
        counts_for(4, cfg)


@pytest.mark.parametrize("strategy", ["importance-pool", "topk-dst"])
def test_counts_for_zero_dst_error_names_the_strategy(strategy):
    with pytest.raises(ConfigInfeasibleError) as info:
        counts_for(16, MergeConfig(strategy, r=0.5, k=0.01))
    assert str(info.value) == f"{strategy}: k=0.01 yields no dst tokens for n=16"


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=4, max_value=5000),
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=0.001, max_value=0.999),
    st.floats(min_value=0.0, max_value=4.0),
)
def test_counts_for_pool_holds_every_kept_token(n, r, k, p):
    # The pool always has room for the dst and independent tokens, so the
    # pool planner needs no capacity check of its own.
    try:
        counts = counts_for(n, MergeConfig("importance-pool", r=r, k=k, p=p))
    except ConfigInfeasibleError:
        assume(False)
    assert counts.n_dst + counts.n_independent == counts.n_out
    assert counts.n_out <= counts.pool_size <= n


def test_reduced_count_matches_exact_rational_floor():
    # Exact-arithmetic oracle for the reduced token count across the full
    # range of sizes and every ratio the benchmark sweeps.
    ratios = ["0.3", "0.5", "0.6", "0.7", "0.75"]
    for r_str in ratios:
        cfg = MergeConfig("importance-pool", r=float(r_str), k=0.25, p=0.4)
        expected_frac = 1 - Fraction(r_str)
        for n in range(16, 4097):
            expected = math.floor(n * expected_frac)
            assert counts_for(n, cfg).n_out == expected, (n, r_str)


# ---------------------------------------------------------------------------
# MergePlan construction
# ---------------------------------------------------------------------------

def test_plan_rejects_overlapping_partition():
    for arrays in (
        ([0, 1], [1], [2, 3], [0, 0]),  # dst and independent share token 1
        ([0], [1], [2, 2], [0, 0]),  # duplicate source
    ):
        with pytest.raises(InvalidPlanError, match="partition"):
            MergePlan(4, *arrays)


def test_plan_rejects_incomplete_partition():
    for n, arrays in (
        (5, ([0], [1], [2, 3], [0, 0])),  # token 4 missing
        (4, ([-1, 0], [1], [2], [0])),  # negative index
        (4, ([0], [1], [2, 4], [0, 0])),  # index >= n_in
    ):
        with pytest.raises(InvalidPlanError, match="partition"):
            MergePlan(n, *arrays)


def test_plan_rejects_merge_target_outside_dst():
    for arrays in (
        ([0], [1], [2, 3], [1, 0]),  # token 2 assigned to non-dst token 1
        ([0], [1], [2, 3], [0, -1]),  # negative position
        ([0], [1], [2, 3], [0]),  # fewer positions than sources
        ([0], [1], [2, 3], [0, 0, 0]),  # more positions than sources
    ):
        with pytest.raises(InvalidPlanError, match="assigned to dst"):
            MergePlan(4, *arrays)


@pytest.mark.parametrize(
    "arrays",
    [
        ([2, 0], [1], [3], [0]),  # dst
        ([0], [3, 1], [2], [0]),  # independent
        ([0], [1], [3, 2], [0, 0]),  # sources
    ],
)
def test_plan_rejects_unsorted_indices(arrays):
    with pytest.raises(InvalidPlanError, match="ascending"):
        MergePlan(4, *arrays)


@pytest.mark.parametrize(
    "arrays",
    [
        ([0], [], [2, 1, 3], [0, 0, 0]),  # sources, with no independents
        ([0, 3], [2, 1], [], []),  # independents, with no sources
        ([1, 0], [], [], []),  # dst alone
    ],
)
def test_plan_rejects_unsorted_indices_next_to_empty_arrays(arrays):
    with pytest.raises(InvalidPlanError, match="ascending"):
        MergePlan(sum(map(len, arrays[:3])), *arrays)


def test_plan_arrays_may_descend_where_they_join():
    for n, arrays in (
        (4, ([2, 3], [], [0, 1], [0, 1])),
        (4, ([3], [1, 2], [0], [0])),
        (3, ([2], [0, 1], [], [])),
    ):
        assert MergePlan(n, *arrays).n_out == len(arrays[0]) + len(arrays[1])


def test_plan_rejects_huge_index_without_counting_up_to_it():
    with pytest.raises(InvalidPlanError, match="partition"):
        MergePlan(3, [0], [10**15], [1], [0])


def test_plan_rejects_empty_dst():
    with pytest.raises(InvalidPlanError, match="dst"):
        plan(2, [], [0, 1], {})


def test_plan_equality_is_structural():
    a = plan(4, [0, 2], [3], {1: 0})
    b = plan(4, [0, 2], [3], {1: 0})
    c = plan(4, [0, 2], [3], {1: 2})
    assert a == b
    assert a != c


def test_identity_plan_is_noop():
    p = identity_plan(5)
    assert p.n_out == 5
    assert p.n_merged == 0


# ---------------------------------------------------------------------------
# apply_merge
# ---------------------------------------------------------------------------

def test_merge_pair_averages():
    tokens = TokenMatrix(np.array([[1.0, 0.0], [0.9, 0.1]]))
    p = plan(2, [0], [], {1: 0})
    out = apply_merge(tokens, p)
    np.testing.assert_allclose(out.data, [[0.95, 0.05]])


def test_merge_all_dst_is_identity():
    tokens = TokenMatrix(np.arange(8.0).reshape(4, 2))
    out = apply_merge(tokens, identity_plan(4))
    np.testing.assert_array_equal(out.data, tokens.data)


def test_merge_identical_tokens_collapse_to_same_value():
    v = np.array([1.5, -2.0, 0.25])
    tokens = TokenMatrix(np.tile(v, (4, 1)))
    p = plan(4, [0], [], {1: 0, 2: 0, 3: 0})
    out = apply_merge(tokens, p)
    assert out.n_tokens == 1
    np.testing.assert_array_equal(out.data[0], v)


def test_merge_rejects_token_count_mismatch():
    tokens = TokenMatrix(np.zeros((3, 2)))
    with pytest.raises(InvalidPlanError):
        apply_merge(tokens, plan(2, [0], [], {1: 0}))


def test_merge_output_order_is_dst_then_independent():
    tokens = TokenMatrix(np.arange(10.0).reshape(5, 2))
    p = plan(5, [1, 3], [0, 4], {2: 1})
    out = apply_merge(tokens, p)
    np.testing.assert_allclose(out.data[0], (tokens.data[1] + tokens.data[2]) / 2)
    np.testing.assert_array_equal(out.data[1], tokens.data[3])
    np.testing.assert_array_equal(out.data[2], tokens.data[0])
    np.testing.assert_array_equal(out.data[3], tokens.data[4])


# ---------------------------------------------------------------------------
# apply_unmerge
# ---------------------------------------------------------------------------

def test_merge_unmerge_round_trip_places_group_means():
    # 6 tokens, 1 channel: groups {0,1,2} -> dst 0, {3,4} -> dst 3, {5} indep.
    tokens = TokenMatrix(np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]]))
    p = plan(6, [0, 3], [5], {1: 0, 2: 0, 4: 3})
    merged = apply_merge(tokens, p)
    np.testing.assert_allclose(merged.data.ravel(), [1.0, 3.5, 5.0])
    restored = apply_unmerge(merged, p)
    np.testing.assert_allclose(restored.data.ravel(), [1.0, 1.0, 1.0, 3.5, 3.5, 5.0])


def test_unmerge_of_no_merge_plan_restores_order():
    tokens = TokenMatrix(np.arange(8.0).reshape(4, 2))
    p = plan(4, [1, 3], [0, 2], {})
    merged = apply_merge(tokens, p)
    restored = apply_unmerge(merged, p)
    np.testing.assert_array_equal(restored.data, tokens.data)


def test_unmerge_broadcasts_single_dst():
    tokens = TokenMatrix(np.arange(6.0).reshape(3, 2))
    p = plan(3, [0], [], {1: 0, 2: 0})
    processed = TokenMatrix(np.array([[7.0, 8.0]]))
    restored = apply_unmerge(processed, p)
    assert restored.n_tokens == 3
    np.testing.assert_array_equal(restored.data, np.tile([7.0, 8.0], (3, 1)))


def test_unmerge_rejects_wrong_processed_count():
    p = plan(4, [0], [1], {2: 0, 3: 0})
    with pytest.raises(InvalidPlanError):
        apply_unmerge(TokenMatrix(np.zeros((3, 2))), p)


# ---------------------------------------------------------------------------
# apply_prune
# ---------------------------------------------------------------------------

def test_prune_keeps_dst_unaveraged():
    tokens = TokenMatrix(np.array([[1.0, 0.0], [0.9, 0.1]]))
    p = plan(2, [0], [], {1: 0})
    out = apply_prune(tokens, p)
    np.testing.assert_array_equal(out.data, [[1.0, 0.0]])


def test_prune_equals_merge_when_nothing_merges():
    tokens = TokenMatrix(np.arange(8.0).reshape(4, 2))
    p = plan(4, [0, 2], [1, 3], {})
    np.testing.assert_array_equal(apply_prune(tokens, p).data, apply_merge(tokens, p).data)


def test_prune_equals_merge_on_identical_tokens():
    tokens = TokenMatrix(np.tile([2.0, 3.0], (6, 1)))
    p = plan(6, [0, 1], [5], {2: 0, 3: 0, 4: 1})
    np.testing.assert_allclose(apply_prune(tokens, p).data, apply_merge(tokens, p).data)


def test_prune_then_unmerge_copies_dst_back():
    tokens = TokenMatrix(np.array([[1.0], [5.0], [9.0], [4.0]]))
    p = plan(4, [0], [3], {1: 0, 2: 0})
    restored = apply_unmerge(apply_prune(tokens, p), p)
    np.testing.assert_array_equal(restored.data.ravel(), [1.0, 1.0, 1.0, 4.0])


# ---------------------------------------------------------------------------
# Properties over random plans
# ---------------------------------------------------------------------------

def random_plan_and_tokens(seed, n_min=4, n_max=128, channels=8):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(n_min, n_max + 1))
    n_dst = int(gen.integers(1, n + 1))
    perm = gen.permutation(n)
    dst = np.sort(perm[:n_dst])
    rest = perm[n_dst:]
    n_ind = int(gen.integers(0, rest.size + 1))
    ind = np.sort(rest[:n_ind])
    merged_src = rest[n_ind:]
    merged_pos = np.array([gen.integers(0, n_dst) for _ in merged_src], dtype=np.int64)
    order = np.argsort(merged_src)
    tokens = TokenMatrix(gen.standard_normal((n, channels)))
    return tokens, MergePlan(n, dst, ind, merged_src[order], merged_pos[order])


@pytest.mark.parametrize("seed", range(25))
def test_group_means_match_float64_oracle(seed):
    tokens, p = random_plan_and_tokens(seed)
    out = apply_merge(tokens, p)
    for pos, d in enumerate(p.dst_indices):
        group = [d, *p.merged_sources[p.merged_targets == d]]
        expected = tokens.data[group].mean(axis=0)
        np.testing.assert_allclose(out.data[pos], expected, rtol=1e-6)


def add_at_merge(data, p):
    """Group means accumulated one source at a time, in index order."""
    dst = data[p.dst_indices].astype(np.float64)
    counts = np.ones(p.dst_indices.size)
    np.add.at(dst, p.merged_dst_pos, data[p.merged_sources].astype(np.float64))
    np.add.at(counts, p.merged_dst_pos, 1.0)
    dst /= counts[:, None]
    return np.concatenate([dst.astype(data.dtype), data[p.independent_indices]])


@pytest.mark.parametrize("seed", range(40))
def test_merge_equals_per_source_accumulation(seed):
    # Float64 sums of float32 rows are exact here, so the summation order
    # cannot show in float32 output: it must match to the bit.  Float64
    # tokens may round differently in the last place.
    tokens, p = random_plan_and_tokens(seed, n_max=600)
    narrow = (tokens.data * 1e3).astype(np.float32)
    out = apply_merge(TokenMatrix(narrow), p).data
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out.view(np.uint32), add_at_merge(narrow, p).view(np.uint32))
    np.testing.assert_allclose(
        apply_merge(tokens, p).data, add_at_merge(tokens.data, p), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("seed", range(25))
def test_unmerge_restores_count_and_placement(seed):
    tokens, p = random_plan_and_tokens(seed)
    merged = apply_merge(tokens, p)
    assert merged.n_tokens == p.n_out
    restored = apply_unmerge(merged, p)
    assert restored.n_tokens == tokens.n_tokens
    n_dst = p.dst_indices.size
    for s, d in zip(p.merged_sources, p.merged_targets):
        pos = int(np.flatnonzero(p.dst_indices == d)[0])
        np.testing.assert_array_equal(restored.data[s], merged.data[pos])
    for j, i in enumerate(p.independent_indices):
        np.testing.assert_array_equal(restored.data[i], merged.data[n_dst + j])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_prune_agrees_with_merge_on_singleton_groups(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(4, 64))
    n_dst = int(gen.integers(1, n + 1))
    perm = gen.permutation(n)
    dst = np.sort(perm[:n_dst])
    ind = np.sort(perm[n_dst:])
    p = MergePlan(n, dst, ind, [], [])
    tokens = TokenMatrix(gen.standard_normal((n, 4)))
    np.testing.assert_array_equal(
        apply_prune(tokens, p).data, apply_merge(tokens, p).data
    )


# ---------------------------------------------------------------------------
# apply_* against the forms they replaced
# ---------------------------------------------------------------------------

def reference_apply_merge(data, p):
    dst = data[p.dst_indices]
    if p.n_merged:
        group = np.concatenate([np.arange(dst.shape[0]), p.merged_dst_pos])
        order = np.argsort(group, kind="stable")
        rows = np.concatenate([p.dst_indices, p.merged_sources])[order]
        sizes = np.bincount(group)
        sums = np.add.reduceat(data[rows].astype(np.float64), np.cumsum(sizes) - sizes)
        sums /= sizes[:, None]
        dst = sums.astype(data.dtype, copy=False)
    return np.concatenate([dst, data[p.independent_indices]], axis=0)


def reference_apply_unmerge(data, p):
    n_dst = p.dst_indices.size
    out = np.empty((p.n_in, data.shape[1]), dtype=data.dtype)
    out[p.dst_indices] = data[:n_dst]
    out[p.independent_indices] = data[n_dst:]
    if p.n_merged:
        out[p.merged_sources] = data[p.merged_dst_pos]
    return out


@pytest.mark.parametrize("seed", range(40))
def test_apply_kernels_equal_their_reference_forms(seed):
    tokens, p = random_plan_and_tokens(seed, n_max=600)
    for data in (tokens.data, (tokens.data * 1e3).astype(np.float32)):
        merged = apply_merge(TokenMatrix(data), p).data
        expected = reference_apply_merge(data, p)
        assert merged.dtype == expected.dtype
        np.testing.assert_array_equal(merged.view(np.uint8), expected.view(np.uint8))
        pruned = apply_prune(TokenMatrix(data), p).data
        np.testing.assert_array_equal(
            pruned, np.concatenate([data[p.dst_indices], data[p.independent_indices]]))
        restored = apply_unmerge(TokenMatrix(merged), p).data
        np.testing.assert_array_equal(restored, reference_apply_unmerge(merged, p))


def multi_block_plan(seed, n=3000, n_dst=700, big_group=40):
    """A plan with ``n_dst`` > 576 dst rows (several row blocks of groups),
    one dst in the last block merging ``big_group`` sources, and the other
    merged tokens spread at random."""
    gen = np.random.default_rng(seed)
    perm = gen.permutation(n)
    dst = np.sort(perm[:n_dst])
    rest = perm[n_dst:]
    ind = np.sort(rest[: n // 10])
    merged_src = rest[n // 10:]
    merged_pos = gen.integers(0, n_dst, merged_src.size)
    merged_pos[:big_group] = n_dst - 5
    order = np.argsort(merged_src)
    return MergePlan(n, dst, ind, merged_src[order], merged_pos[order])


@pytest.mark.parametrize("n_dst", [577, 700, 1200])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_merge_equals_whole_array_reduceat(dtype, n_dst):
    p = multi_block_plan(n_dst, n_dst=n_dst)
    assert np.bincount(p.merged_dst_pos).max() > 10
    gen = np.random.default_rng(n_dst)
    data = (gen.standard_normal((p.n_in, 24)) * 10.0 ** gen.uniform(-3, 3, (p.n_in, 1)))
    data = data.astype(dtype)
    merged = apply_merge(TokenMatrix(data), p).data
    expected = reference_apply_merge(data, p)
    assert merged.dtype == expected.dtype
    np.testing.assert_array_equal(merged.view(np.uint8), expected.view(np.uint8))


def test_merge_peak_memory_below_one_block_of_groups():
    # A pool plan at 4096x64, r=0.7: 1024 dst groups of 3892 rows.  The
    # whole-array form held every grouped row as float32 and float64 (3.09
    # MB); by blocks of groups the call peaks at about 1.9 MB.
    n, c = 4096, 64
    gen = np.random.default_rng(0)
    tokens = TokenMatrix(gen.standard_normal((n, c), dtype=np.float32), grid=(64, 64))
    importance = ImportanceMap(gen.random(n))
    p = plan_importance_pool(tokens, importance, MergeConfig("importance-pool", 0.7), Rng(0))
    assert p.dst_indices.size == 1024 and p.n_merged == n - p.n_out
    assert traced_peak(apply_merge, tokens, p) < 2.2e6
