import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_toydiff import traced_peak

from tokmerge import TokenMatrix, paired_cosine
from tokmerge import matching
from tokmerge.matching import _link_rows, _row_blocks, link_best, unit_rows


def brute_force_match(src, dst):
    """Independent O(S*D) double-loop oracle for the argmax link."""
    assignment = np.empty(len(src), dtype=np.int64)
    scores = np.empty(len(src), dtype=np.float64)
    for i, a in enumerate(src):
        best_j, best_s = 0, -2.0
        na = math.sqrt(float(np.dot(a, a)))
        for j, b in enumerate(dst):
            nb = math.sqrt(float(np.dot(b, b)))
            s = 0.0 if na == 0.0 or nb == 0.0 else float(np.dot(a, b)) / (na * nb)
            s = min(1.0, max(-1.0, s))
            if s > best_s:
                best_j, best_s = j, s
        assignment[i] = best_j
        scores[i] = best_s
    return assignment, scores


def cosine(a, b):
    """``paired_cosine`` of one row against one row."""
    (sim,) = paired_cosine([a], [b])
    return sim


def test_cosine_hand_value():
    expected = 0.9 / math.sqrt(0.82)
    assert cosine([1.0, 0.0], [0.9, 0.1]) == pytest.approx(expected, abs=1e-12)


def test_cosine_self_similarity_is_one():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal_is_zero():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_zero_vector_defined_as_zero():
    assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
    assert cosine([1.0, 2.0], [0.0, 0.0]) == 0.0


def test_cosine_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        cosine([1.0, 2.0], [1.0, 2.0, 3.0])


def test_cosine_clamped_against_rounding():
    v = np.full(64, 0.1)
    assert cosine(v, 3.0 * v) <= 1.0


def test_bipartite_hand_instance():
    src = TokenMatrix(np.array([[0.9, 0.1], [0.1, 0.9], [-1.0, 0.0]]))
    dst = TokenMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assignment, scores = link_best(src.data, dst.data)
    np.testing.assert_array_equal(assignment, [0, 1, 1])
    expected = 0.9 / math.sqrt(0.82)
    np.testing.assert_allclose(scores, [expected, expected, 0.0], atol=1e-12)


def test_bipartite_single_dst_forces_assignment():
    gen = np.random.default_rng(0)
    src = TokenMatrix(gen.standard_normal((10, 4)))
    dst = TokenMatrix(gen.standard_normal((1, 4)))
    assignment, _ = link_best(src.data, dst.data)
    np.testing.assert_array_equal(assignment, np.zeros(10))


def test_bipartite_identical_sets_match_their_twins():
    gen = np.random.default_rng(1)
    x = gen.standard_normal((8, 6))
    assignment, scores = link_best(x, x.copy())
    np.testing.assert_array_equal(assignment, np.arange(8))
    np.testing.assert_allclose(scores, np.ones(8), atol=1e-12)


def test_bipartite_ties_pick_lowest_dst_index():
    src = TokenMatrix(np.array([[1.0, 1.0]]))
    dst = TokenMatrix(np.array([[2.0, 2.0], [2.0, 2.0]]))
    assignment, scores = link_best(src.data, dst.data)
    assert assignment[0] == 0
    assert scores[0] == pytest.approx(1.0)


def test_link_best_rejects_empty_dst():
    with pytest.raises(ValueError, match="nonempty"):
        link_best(np.ones((2, 3)), np.empty((0, 3)))


def test_link_best_rejects_channel_mismatch():
    with pytest.raises(ValueError, match="channel"):
        link_best(np.ones((2, 3)), np.ones((2, 4)))


@pytest.mark.parametrize("seed", range(50))
def test_matches_brute_force_oracle(seed):
    gen = np.random.default_rng(seed)
    n_src = int(gen.integers(1, 40))
    n_dst = int(gen.integers(1, 40))
    c = int(gen.integers(2, 16))
    src = gen.standard_normal((n_src, c))
    dst = gen.standard_normal((n_dst, c))
    if seed % 5 == 0:  # sprinkle degenerate zero tokens
        src[gen.integers(0, n_src)] = 0.0
        dst[gen.integers(0, n_dst)] = 0.0
    assignment, scores = link_best(src, dst)
    oracle_assignment, oracle_scores = brute_force_match(src, dst)
    np.testing.assert_array_equal(assignment, oracle_assignment)
    np.testing.assert_allclose(scores, oracle_scores, atol=1e-6)


@pytest.mark.parametrize("seed", range(10))
def test_permutation_of_dst_permutes_assignment(seed):
    gen = np.random.default_rng(seed)
    src = gen.standard_normal((20, 5))
    dst = gen.standard_normal((12, 5))
    assignment, scores = link_best(src, dst)
    perm = gen.permutation(12)
    a2, s2 = link_best(src, dst[perm])
    np.testing.assert_allclose(s2, scores, atol=1e-12)
    np.testing.assert_array_equal(perm[a2], assignment)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_matches_brute_force_oracle_at_the_clamp(sign):
    # Power-of-two scales leave unit rows bit-identical, so the copies of a
    # src row tie exactly in both the kernel and the oracle.  Checked are the
    # rows whose float64 maximum rounds above 1 (parallel copies after two
    # unrelated dst rows) or to -1 or below (antiparallel copies alone).
    gen = np.random.default_rng(11)
    checked = 0
    for src in gen.standard_normal((40, 1, 24)):
        copies = sign * np.vstack([0.5 * src, src, 4.0 * src])
        dst = np.vstack([gen.standard_normal((2, 24)), copies]) if sign > 0 else copies
        raw = (unit_rows(src) @ unit_rows(dst).T).max()
        if (raw <= 1.0) if sign > 0 else (raw > -1.0):
            continue
        checked += 1
        assignment, scores = link_best(src, dst)
        oracle_assignment, oracle_scores = brute_force_match(src, dst)
        assert assignment[0] == oracle_assignment[0] == len(dst) - 3
        assert scores[0] == sign
        assert oracle_scores[0] == pytest.approx(sign, abs=1e-12)
    assert checked > 0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_clamp_ties_pick_lowest_dst_index(sign):
    # Copies at arbitrary scales differ by an ulp or two around +-1: the
    # unclamped maximum can sit after a copy that clamps to the same value.
    moved = 0
    for seed in range(40):
        gen = np.random.default_rng(seed)
        src = gen.standard_normal((1, int(gen.integers(3, 64))))
        dst = sign * gen.uniform(0.1, 10.0, (6, 1)) * src
        raw = (unit_rows(src) @ unit_rows(dst).T)[0]
        clamped = np.clip(raw, -1.0, 1.0)
        lowest = np.flatnonzero(clamped == clamped.max())[0]
        assignment, scores = link_best(src, dst)
        assert assignment[0] == lowest
        assert scores[0] == clamped.max()
        moved += np.argmax(raw) != lowest
    assert moved > 0


def test_scores_always_within_bounds():
    gen = np.random.default_rng(9)
    src = gen.standard_normal((50, 3)) * 1e6
    dst = gen.standard_normal((20, 3)) * 1e-6
    _, scores = link_best(src, dst)
    assert np.all(scores <= 1.0) and np.all(scores >= -1.0)


def test_paired_cosine_matches_scalar():
    gen = np.random.default_rng(2)
    a = gen.standard_normal((6, 4))
    b = gen.standard_normal((6, 4))
    expected = [float(np.dot(x, y)) / math.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))
                for x, y in zip(a, b)]
    np.testing.assert_allclose(paired_cosine(a, b), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Row blocks and the blocked kernel
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_row_blocks_tile_the_range_in_blocks_of_288_to_575_rows(n):
    blocks = _row_blocks(n)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(b.step is None for b in blocks)
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    if len(blocks) == 1:
        assert n < 576
    else:
        assert all(288 <= b.stop - b.start <= 575 for b in blocks)


def reference_link_best(src_rows, dst_rows):
    """The unblocked kernel: one (n_src, n_dst) matrix, argmax, clamp."""
    sims = unit_rows(src_rows) @ unit_rows(dst_rows).T
    assignment = np.argmax(sims, axis=1)
    best = sims[np.arange(sims.shape[0]), assignment]
    redo = ~((best > -1.0) & (best <= 1.0))
    if redo.any():
        assignment[redo] = np.argmax(np.clip(sims[redo], -1.0, 1.0), axis=1)
    return assignment, np.clip(best, -1.0, 1.0)


LINK_COUNTS = (256, 300, 511, 512, 575, 576, 1024, 1100, 1228, 4096)


@pytest.mark.parametrize("n_src", LINK_COUNTS)
def test_blocked_link_best_equals_unblocked_kernel(n_src):
    # With several BLAS threads, dgemm splits the rows of one call by thread,
    # so the unblocked kernel's own float64 bits depend on the thread count.
    # conftest.py holds the suite on one thread, as the benchmark runs.
    gen = np.random.default_rng(n_src)
    src = gen.standard_normal((n_src, 64), dtype=np.float32)
    dst = gen.standard_normal((n_src // 3 + 1, 64), dtype=np.float32)
    src[::97] = dst[0]  # rows whose best match rounds to (or past) 1
    assignment, scores = link_best(src, dst)
    ref_assignment, ref_scores = reference_link_best(src, dst)
    assert assignment.dtype == np.int64
    np.testing.assert_array_equal(assignment, ref_assignment)
    np.testing.assert_array_equal(scores.view(np.uint64), ref_scores.view(np.uint64))


def test_link_best_peak_memory_below_a_float64_src_copy_and_one_sims_block():
    n_src, n_dst, c = 3072, 1024, 64
    gen = np.random.default_rng(2)
    src = gen.standard_normal((n_src, c), dtype=np.float32)
    dst = gen.standard_normal((n_dst, c), dtype=np.float32)
    block = max(b.stop - b.start for b in _row_blocks(n_src))
    float64 = np.dtype(np.float64).itemsize
    peak = traced_peak(link_best, src, dst)
    assert peak < (n_src * c + block * n_dst) * float64
    # 96-row blocks against 1024 dst rows: the unit dst rows (or, while they
    # are made, their float64 copy and its squares) and one 0.79 MB block of
    # scores.  288-575-row blocks peaked at 4.76 MB.
    assert peak < 2e6


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=20_000))
def test_link_rows_keep_288_up_to_455_dst_rows_and_about_1_mb_of_scores_above(n_dst):
    rows, row_bytes = _link_rows(n_dst), 8 * n_dst
    assert rows % 48 == 0 and 48 <= rows <= 288
    assert (rows == 288) == (n_dst <= 455)
    if rows > 48:
        assert rows * row_bytes <= 1 << 20
    if rows < 288:
        assert (rows + 48) * row_bytes > 1 << 20


@pytest.mark.parametrize("n_src, n_dst", [
    (1000, 456), (1219, 700), (3072, 1024), (3100, 1024), (4000, 2731), (150, 3000),
])
def test_link_best_in_score_sized_blocks_equals_unblocked_kernel(n_src, n_dst):
    gen = np.random.default_rng(n_src + n_dst)
    src = gen.standard_normal((n_src, 64), dtype=np.float32)
    dst = gen.standard_normal((n_dst, 64), dtype=np.float32)
    src[::97] = dst[0]
    assert len(_row_blocks(n_src, _link_rows(n_dst))) > 1
    assignment, scores = link_best(src, dst)
    ref_assignment, ref_scores = reference_link_best(src, dst)
    np.testing.assert_array_equal(assignment, ref_assignment)
    np.testing.assert_array_equal(scores.view(np.uint64), ref_scores.view(np.uint64))


@pytest.mark.parametrize("n_src, n_dst, calls", [(192, 64, 1), (768, 256, 3), (3072, 1024, 33)])
def test_link_best_normalizes_dst_once_and_a_lone_src_block_with_it(monkeypatch, n_src, n_dst, calls):
    # A lone src block normalizes with dst in one unit_rows call: a flat
    # 96-row block split 192x64 into two calls and ran 37% slower.
    seen = []

    def counted(x):
        seen.append(x.shape[0])
        return unit_rows(x)

    monkeypatch.setattr(matching, "unit_rows", counted)
    gen = np.random.default_rng(n_src)
    link_best(gen.standard_normal((n_src, 64)), gen.standard_normal((n_dst, 64)))
    assert len(seen) == calls
    if calls == 1:
        assert seen == [n_src + n_dst]


# ---------------------------------------------------------------------------
# Rewritten kernels against their reference forms
# ---------------------------------------------------------------------------

def reference_unit_rows(x):
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms > 0.0, norms, 1.0)


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint8), expected.view(np.uint8))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unit_rows_equal_norm_and_where_form(dtype):
    gen = np.random.default_rng(7)
    x = gen.standard_normal((64, 12)) * 10.0 ** gen.uniform(-20, 20, (64, 1))
    x[3] = 0.0
    x[5, 2] = np.inf
    x[6, 0] = -np.inf
    x[7, 4] = np.nan
    x[8] = [np.inf] * 6 + [-np.inf] * 6
    x = x.astype(dtype)
    before = x.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        actual, expected = unit_rows(x), reference_unit_rows(x)
    assert_same_bits(actual, expected)
    np.testing.assert_array_equal(actual[3], 0.0)
    assert_same_bits(x, before)  # the argument is left as it was


@pytest.mark.parametrize("rows, cols", [(1215, 42), (4096, 64)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unit_rows_equal_norm_and_where_form_over_several_row_blocks(dtype, rows, cols):
    gen = np.random.default_rng(rows)
    x = gen.standard_normal((rows, cols)) * 10.0 ** gen.uniform(-20, 20, (rows, 1))
    x[::101] = 0.0
    x = x.astype(dtype)
    whole = unit_rows(x)
    assert_same_bits(whole, reference_unit_rows(x))
    # A row slice normalizes to that slice of the whole, at any offset.
    for block in (*_row_blocks(rows), slice(63, 700), slice(rows - 63, rows)):
        assert_same_bits(unit_rows(x[block]), whole[block])


@pytest.mark.parametrize("seed", range(30))
def test_link_best_equals_separately_normalized_operands(seed):
    gen = np.random.default_rng(seed)
    n_src, n_dst = int(gen.integers(1, 1300)), int(gen.integers(1, 300))
    c = int(gen.integers(2, 70))
    dtype = np.float32 if seed % 2 else np.float64
    src = (gen.standard_normal((n_src, c)) * 10.0 ** gen.uniform(-5, 5, (n_src, 1))).astype(dtype)
    dst = (gen.standard_normal((n_dst, c)) * 10.0 ** gen.uniform(-5, 5, (n_dst, 1))).astype(dtype)
    src[gen.random(n_src) < 0.05] = 0.0
    sims = reference_unit_rows(src) @ reference_unit_rows(dst).T
    assignment, scores = link_best(src, dst)
    np.testing.assert_array_equal(assignment, np.argmax(np.clip(sims, -1.0, 1.0), axis=1))
    assert_same_bits(scores, np.clip(sims.max(axis=1), -1.0, 1.0))
