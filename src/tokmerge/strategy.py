"""Merge-plan builders: random-grid baseline, importance pool, and top-k ablation.

Each planner only chooses its dst tokens; :func:`_plan_from_dst` does the
rest for all three.  Every other token is linked to its most similar dst,
the least-similar links stay independent (up to the count budget), and
everything else merges into its linked dst.  The planners differ in how dst
tokens are chosen and in which tokens may become independent.

Choosing the dst tokens reads no token data: it depends only on the
:class:`Rng` stream, the grid or the counts, and the importance map, which
ranks its tokens once (:attr:`ImportanceMap.ranking`) for every plan built
from it.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np

from .core import (
    STRATEGY_GRID,
    ImportanceMap,
    MergeConfig,
    MergePlan,
    TokenMatrix,
    counts_for,
)
from .importance import rank_tokens
from .matching import link_best
from .rng import Rng


def _plan_from_dst(
    tokens: TokenMatrix,
    dst: np.ndarray,
    n_independent: int,
    eligible: np.ndarray | None = None,
) -> MergePlan:
    """Link every non-dst token to its most similar of the sorted ``dst``.

    The ``n_independent`` least-similar src tokens among ``eligible`` (a
    boolean mask over all tokens; every src token when None) stay
    independent, ties keeping the lower index; the others merge.
    """
    n = tokens.n_tokens
    src_mask = np.ones(n, dtype=bool)
    src_mask[dst] = False
    src = np.flatnonzero(src_mask)
    data = tokens.data
    assignment, scores = link_best(data.take(src, axis=0), data.take(dst, axis=0))
    if eligible is None:
        chosen = np.argsort(scores, kind="stable")[:n_independent]
    else:
        candidates = np.flatnonzero(eligible[src])
        chosen = candidates[np.argsort(scores[candidates], kind="stable")[:n_independent]]
    merged = np.ones(src.size, dtype=bool)
    merged[chosen] = False
    return MergePlan(n, dst, src[~merged], src[merged], assignment[merged])


def top_tokens(importance: ImportanceMap, k: int) -> np.ndarray:
    """The ``k`` top tokens of ``importance`` (:func:`rank_tokens`), ascending."""
    return np.sort(rank_tokens(importance)[:k])


def _grid_dst(rng: Rng, h: int, w: int) -> np.ndarray:
    """The sorted dst tokens of ``rng``'s draw of one token per 2x2 cell of an
    ``h`` x ``w`` grid."""
    ch, cw = h // 2, w // 2
    offsets = rng.generator().integers(0, 4, size=ch * cw)
    cell = np.arange(ch * cw)
    rows = (cell // cw) * 2 + offsets // 2
    cols = (cell % cw) * 2 + offsets % 2
    return np.sort(rows * w + cols)


@lru_cache(maxsize=16)
def _grid_config(config: MergeConfig) -> MergeConfig:
    """``config`` as grid selection's own, built once per config."""
    return dataclasses.replace(config, strategy=STRATEGY_GRID)


def plan_tome_grid(tokens: TokenMatrix, config: MergeConfig, rng: Rng) -> MergePlan:
    """Random-grid baseline: one dst per 2x2 cell, merge the most similar src.

    ``config`` counts as grid's own whatever its strategy (prune steps and
    map fallbacks pass the importance strategies' configs), so the dst
    fraction is :data:`~tokmerge.core.GRID_DST_FRACTION`; the src tokens
    with the highest link similarity merge until the reduced count reaches
    ``floor(n * (1 - r))``, the rest stay independent.
    """
    if tokens.grid is None:
        raise ValueError("grid strategy needs tokens with a (height, width) grid")
    h, w = tokens.grid
    if h % 2 or w % 2:
        raise ValueError(f"grid {tokens.grid} must have even height and width")
    counts = counts_for(tokens.n_tokens, _grid_config(config))
    return _plan_from_dst(tokens, _grid_dst(rng, h, w), counts.n_independent)


def plan_importance_pool(
    tokens: TokenMatrix,
    importance: ImportanceMap,
    config: MergeConfig,
    rng: Rng,
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
    # Ascending order makes the draw a function of pool membership only, and
    # makes the pool == full-set regime consume the stream exactly like a
    # draw over arange(n).
    pool = top_tokens(importance, counts.pool_size)
    dst = np.sort(rng.generator().choice(pool, size=counts.n_dst, replace=False))
    in_pool = np.zeros(n, dtype=bool)
    in_pool[pool] = True
    return _plan_from_dst(tokens, dst, counts.n_independent, eligible=in_pool)


def plan_topk_dst(
    tokens: TokenMatrix,
    importance: ImportanceMap,
    config: MergeConfig,
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
    dst = top_tokens(importance, counts.n_dst)
    return _plan_from_dst(tokens, dst, counts.n_independent)
