"""Merge-plan builders: random-grid baseline, importance pool, and top-k ablation.

All three share the same tail: every candidate src token is linked to its
most similar dst token, the least-similar links stay independent (up to the
count budget), and everything else merges into its linked dst.  They differ
in how dst tokens are chosen and in which tokens may become independent.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import (
    ConfigInfeasibleError,
    ImportanceMap,
    MergeConfig,
    MergePlan,
    TokenMatrix,
    counts_for,
)
from .importance import rank_tokens
from .matching import cosine_kernel, link_best
from .rng import Rng

_GRID_DST_FRACTION = 0.25  # one dst per 2x2 cell


def _assemble_plan(
    n: int,
    dst: np.ndarray,
    src: np.ndarray,
    assignment: np.ndarray,
    independent_positions: np.ndarray,
) -> MergePlan:
    """Build a plan from sorted dst and src indices and each src's dst position."""
    ind_mask = np.zeros(src.size, dtype=bool)
    ind_mask[independent_positions] = True
    return MergePlan(n, dst, src[ind_mask], src[~ind_mask], assignment[~ind_mask])


def _least_similar(scores: np.ndarray, count: int) -> np.ndarray:
    """Positions of the ``count`` lowest scores; ties keep the lower position."""
    return np.argsort(scores, kind="stable")[:count]


def plan_tome_grid(
    tokens: TokenMatrix,
    config: MergeConfig,
    rng: Rng,
    similarity=cosine_kernel,
) -> MergePlan:
    """Random-grid baseline: one dst per 2x2 cell, merge the most similar src.

    The dst fraction is pinned at 1/4 by the cell layout regardless of
    ``config.k``; the src tokens with the highest link similarity merge until
    the reduced count reaches ``floor(n * (1 - r))``, the rest stay
    independent.
    """
    if tokens.grid is None:
        raise ValueError("grid strategy needs tokens with a (height, width) grid")
    h, w = tokens.grid
    if h % 2 or w % 2:
        raise ValueError(f"grid {tokens.grid} must have even height and width")
    n = tokens.n_tokens
    counts = counts_for(n, dataclasses.replace(config, k=_GRID_DST_FRACTION))

    ch, cw = h // 2, w // 2
    gen = rng.generator()
    offsets = gen.integers(0, 4, size=ch * cw)
    cell = np.arange(ch * cw)
    rows = (cell // cw) * 2 + offsets // 2
    cols = (cell % cw) * 2 + offsets % 2
    dst = np.sort(rows * w + cols)

    src_mask = np.ones(n, dtype=bool)
    src_mask[dst] = False
    src = np.flatnonzero(src_mask)
    assignment, scores = link_best(tokens.data[src], tokens.data[dst], similarity)
    independent_positions = _least_similar(scores, counts.n_independent)
    return _assemble_plan(n, dst, src, assignment, independent_positions)


def plan_importance_pool(
    tokens: TokenMatrix,
    importance: ImportanceMap,
    config: MergeConfig,
    rng: Rng,
    similarity=cosine_kernel,
) -> MergePlan:
    """Pool method: dst and independent tokens both come from the importance pool.

    The pool is the top ``pool_size`` tokens by importance.  Dst tokens are
    drawn uniformly without replacement from the pool; the remaining pool
    members are the src candidates eligible to stay independent (the
    least-similar ones do).  Every other token, inside the pool or not,
    merges into its most similar dst.
    """
    n = tokens.n_tokens
    if len(importance) != n:
        raise ValueError(f"importance has {len(importance)} scores for {n} tokens")
    counts = counts_for(n, config)
    if counts.pool_size < counts.n_dst + counts.n_independent:
        raise ConfigInfeasibleError(
            f"pool of {counts.pool_size} cannot hold {counts.n_dst} dst "
            f"+ {counts.n_independent} independent tokens"
        )
    # Ascending order makes the draw a function of pool membership only, and
    # makes the pool == full-set regime consume the stream exactly like a
    # draw over arange(n).
    pool = np.sort(rank_tokens(importance)[: counts.pool_size])

    gen = rng.generator()
    dst = np.sort(gen.choice(pool, size=counts.n_dst, replace=False))

    src_mask = np.ones(n, dtype=bool)
    src_mask[dst] = False
    src = np.flatnonzero(src_mask)
    assignment, scores = link_best(tokens.data[src], tokens.data[dst], similarity)

    in_pool = np.zeros(n, dtype=bool)
    in_pool[pool] = True
    pool_src_positions = np.flatnonzero(in_pool[src])
    chosen = _least_similar(scores[pool_src_positions], counts.n_independent)
    independent_positions = pool_src_positions[chosen]
    return _assemble_plan(n, dst, src, assignment, independent_positions)


def plan_topk_dst(
    tokens: TokenMatrix,
    importance: ImportanceMap,
    config: MergeConfig,
    similarity=cosine_kernel,
) -> MergePlan:
    """Ablation baseline: dst = top importance, independents chosen globally.

    Deterministic (no randomness is consumed): the ``n_dst`` highest-scoring
    tokens become dst, and any src token, however unimportant, may stay
    independent if its best link similarity is low enough.
    """
    n = tokens.n_tokens
    if len(importance) != n:
        raise ValueError(f"importance has {len(importance)} scores for {n} tokens")
    counts = counts_for(n, config)
    dst = np.sort(rank_tokens(importance)[: counts.n_dst])

    src_mask = np.ones(n, dtype=bool)
    src_mask[dst] = False
    src = np.flatnonzero(src_mask)
    assignment, scores = link_best(tokens.data[src], tokens.data[dst], similarity)
    independent_positions = _least_similar(scores, counts.n_independent)
    return _assemble_plan(n, dst, src, assignment, independent_positions)
