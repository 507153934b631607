import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tokmerge import (
    ImportanceMap,
    TokenMatrix,
    guidance_magnitude,
    rank_tokens,
)
from tokmerge.importance import resample_importance


def test_guidance_magnitude_hand_value():
    cond = TokenMatrix(np.array([[0.5, -0.5]]))
    uncond = TokenMatrix(np.array([[0.1, 0.1]]))
    imp = guidance_magnitude(cond, uncond)
    # |diff| = (0.4, 0.6) -> channel mean 0.5
    np.testing.assert_allclose(imp.scores, [0.5])


def assert_guidance_magnitude_equals_widened_mean_form(dtype, rows, cols):
    gen = np.random.default_rng(3)
    a = (gen.standard_normal((rows, cols)) * 10.0 ** gen.uniform(-4, 4, (rows, 1))).astype(dtype)
    b = (gen.standard_normal((rows, cols)) * 10.0 ** gen.uniform(-4, 4, (rows, 1))).astype(dtype)
    expected = np.abs(a.astype(np.float64) - b.astype(np.float64)).mean(axis=1)
    scores = guidance_magnitude(TokenMatrix(a), TokenMatrix(b)).scores
    assert scores.dtype == expected.dtype
    np.testing.assert_array_equal(scores.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_guidance_magnitude_equals_widened_mean_form(dtype):
    assert_guidance_magnitude_equals_widened_mean_form(dtype, 256, 32)


# 1215 and 4096 rows split into several row blocks; 256 rows are one.
@pytest.mark.parametrize("rows, cols", [(1215, 42), (4096, 64)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_guidance_magnitude_equals_widened_mean_form_over_several_row_blocks(dtype, rows, cols):
    assert_guidance_magnitude_equals_widened_mean_form(dtype, rows, cols)


def test_guidance_magnitude_zero_when_predictions_agree():
    x = TokenMatrix(np.random.default_rng(0).standard_normal((6, 4)))
    imp = guidance_magnitude(x, x)
    np.testing.assert_array_equal(imp.scores, np.zeros(6))


def test_guidance_magnitude_invariant_under_joint_negation():
    gen = np.random.default_rng(1)
    a = TokenMatrix(gen.standard_normal((5, 3)))
    b = TokenMatrix(gen.standard_normal((5, 3)))
    neg = guidance_magnitude(TokenMatrix(-a.data), TokenMatrix(-b.data))
    np.testing.assert_allclose(guidance_magnitude(a, b).scores, neg.scores)


def test_guidance_magnitude_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        guidance_magnitude(TokenMatrix(np.zeros((2, 2))), TokenMatrix(np.zeros((3, 2))))


def test_resample_pools_means():
    imp = ImportanceMap(np.array([1.0, 3.0, 5.0, 7.0]))
    out = resample_importance(imp, (2, 2), (1, 1))
    np.testing.assert_allclose(out.scores, [4.0])


def test_resample_identity_grids():
    imp = ImportanceMap(np.array([1.0, 2.0, 3.0, 4.0]))
    out = resample_importance(imp, (2, 2), (2, 2))
    np.testing.assert_array_equal(out.scores, imp.scores)


def test_resample_constant_map_stays_constant():
    imp = ImportanceMap(np.full(64, 0.75))
    out = resample_importance(imp, (8, 8), (4, 4))
    np.testing.assert_allclose(out.scores, np.full(16, 0.75))


def test_resample_rejects_non_divisible_grids():
    imp = ImportanceMap(np.ones(36))
    with pytest.raises(ValueError, match="divide"):
        resample_importance(imp, (6, 6), (4, 4))


def test_resample_rejects_wrong_length():
    with pytest.raises(ValueError, match="cover"):
        resample_importance(ImportanceMap(np.ones(5)), (2, 2), (1, 1))


def test_resample_row_column_pooling():
    # 2x4 map pooled to 2x2: each output score is the mean of a 1x2 window.
    imp = ImportanceMap(np.array([0.0, 2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0]))
    out = resample_importance(imp, (2, 4), (2, 2))
    np.testing.assert_allclose(out.scores, [1.0, 5.0, 2.0, 6.0])


@pytest.mark.parametrize("seed", range(10))
def test_resample_conserves_global_mean(seed):
    gen = np.random.default_rng(seed)
    imp = ImportanceMap(gen.random(8 * 12))
    out = resample_importance(imp, (8, 12), (4, 4))
    assert abs(out.scores.mean() - imp.scores.mean()) < 1e-6


def test_rank_tokens_descending_with_index_tiebreak():
    imp = ImportanceMap(np.array([0.2, 0.9, 0.2]))
    np.testing.assert_array_equal(rank_tokens(imp), [1, 0, 2])


def test_rank_tokens_all_equal_is_identity():
    imp = ImportanceMap(np.full(7, 0.4))
    np.testing.assert_array_equal(rank_tokens(imp), np.arange(7))


@pytest.mark.parametrize("levels", [1, 2, 4, 16])
def test_rank_tokens_breaks_many_ties_by_index(levels):
    # One level makes every score equal; with more, a sort that is not
    # stable (numpy's quicksort) reorders the ties at this size.
    scores = np.random.default_rng(levels).integers(0, levels, 4096).astype(np.float64)
    by_score_then_index = np.lexsort((np.arange(scores.size), -scores))
    np.testing.assert_array_equal(rank_tokens(ImportanceMap(scores)), by_score_then_index)


def test_rank_tokens_increasing_scores_reverse():
    imp = ImportanceMap(np.arange(1.0, 9.0))
    np.testing.assert_array_equal(rank_tokens(imp), np.arange(8)[::-1])


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(min_value=1, max_value=64),
        elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
)
def test_rank_tokens_is_a_permutation(scores):
    perm = rank_tokens(ImportanceMap(scores))
    assert sorted(perm.tolist()) == list(range(len(scores)))


def test_scale_equivariance_of_scores_and_ranks():
    gen = np.random.default_rng(3)
    cond = TokenMatrix(gen.standard_normal((32, 8)))
    uncond = TokenMatrix(gen.standard_normal((32, 8)))
    base = guidance_magnitude(cond, uncond)
    for lam in (2.0, 4.0, 0.5):  # powers of two scale without rounding
        scaled = guidance_magnitude(
            TokenMatrix(uncond.data + lam * (cond.data - uncond.data)), uncond
        )
        np.testing.assert_allclose(scaled.scores, lam * base.scores, rtol=1e-12)
        np.testing.assert_array_equal(rank_tokens(scaled), rank_tokens(base))
