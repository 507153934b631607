"""Per-token importance from guidance magnitude, plus resolution adaptation."""

from __future__ import annotations

import numpy as np

from .core import ImportanceMap, TokenMatrix
from .matching import _row_blocks


def guidance_magnitude(eps_cond: TokenMatrix, eps_uncond: TokenMatrix) -> ImportanceMap:
    """Score each token by the magnitude of its guidance correction.

    The score is the channel mean of |eps_cond - eps_uncond| per token, so it
    is non-negative and scale-stable across channel counts.
    """
    if eps_cond.data.shape != eps_uncond.data.shape:
        raise ValueError(
            f"shape mismatch: {eps_cond.data.shape} vs {eps_uncond.data.shape}"
        )
    # The float64 difference, in place |.|, and the add.reduce and division
    # by the channel count that .mean(axis=1) runs, one row block at a time
    # in one buffer, so no (N, C) float64 array is built.
    a, b = eps_cond.data, eps_uncond.data
    blocks = _row_blocks(a.shape[0])
    diff = np.empty((blocks[-1].stop - blocks[-1].start, a.shape[1]), dtype=np.float64)
    scores = np.empty(a.shape[0], dtype=np.float64)
    for rows in blocks:
        d = np.subtract(a[rows], b[rows], out=diff[: rows.stop - rows.start], dtype=np.float64)
        np.add.reduce(np.abs(d, out=d), axis=1, out=scores[rows])
    scores /= a.shape[1]
    return ImportanceMap(scores)


def resample_importance(
    imp: ImportanceMap, from_grid: tuple[int, int], to_grid: tuple[int, int]
) -> ImportanceMap:
    """Mean-pool an importance map from one token grid to a coarser one.

    The coarse grid must divide the fine grid along both axes; the identity
    case passes through.  Mean pooling conserves the global mean score.
    """
    h, w = from_grid
    if h * w != len(imp):
        raise ValueError(f"grid {from_grid} does not cover {len(imp)} scores")
    h2, w2 = to_grid
    if (h2, w2) == (h, w):
        return imp
    if h2 < 1 or w2 < 1 or h % h2 != 0 or w % w2 != 0:
        raise ValueError(
            f"target grid {to_grid} must divide source grid {from_grid}"
        )
    fh, fw = h // h2, w // w2
    pooled = imp.scores.reshape(h2, fh, w2, fw).mean(axis=(1, 3))
    return ImportanceMap(pooled.reshape(-1))


def rank_tokens(imp: ImportanceMap) -> np.ndarray:
    """Token indices sorted by descending score; ties break by ascending index.

    The map sorts once (:attr:`ImportanceMap.ranking`), so every plan built
    from one map shares the read-only result.
    """
    return imp.ranking
