"""Cosine similarity and argmax linking of src tokens to dst tokens."""

from __future__ import annotations

import numpy as np


def _unit_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms > 0.0, norms, 1.0)


def paired_cosine(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity of two equally shaped stacks of vectors.

    Similarities are clamped to [-1, 1], and a zero-norm row compares as 0
    to everything, so degenerate tokens never poison an argmax with NaN.
    """
    a = np.asarray(a_rows)
    b = np.asarray(b_rows)
    if a.shape != b.shape:
        raise ValueError(f"row stacks differ in shape: {a.shape} vs {b.shape}")
    sims = np.sum(_unit_rows(a) * _unit_rows(b), axis=1)
    return np.clip(sims, -1.0, 1.0)


def link_best(src_rows: np.ndarray, dst_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Link every src row to its most similar dst row.

    Similarities are float64 cosines clamped to [-1, 1], and ties break
    toward the lower dst index.  Returns the per-src dst index and the
    per-src maximum similarity.
    """
    src_rows = np.asarray(src_rows)
    dst_rows = np.asarray(dst_rows)
    if dst_rows.shape[0] == 0:
        raise ValueError("dst set must be nonempty")
    if src_rows.shape[1] != dst_rows.shape[1]:
        raise ValueError(
            f"channel mismatch: src {src_rows.shape[1]} vs dst {dst_rows.shape[1]}"
        )
    sims = _unit_rows(src_rows) @ _unit_rows(dst_rows).T
    assignment = np.argmax(sims, axis=1)
    best = sims[np.arange(sims.shape[0]), assignment]
    # For a row whose maximum lies in (-1, 1], clamping the matrix first
    # would not move its first argmax.  Rows that rounding pushed past 1, or
    # whose every entry is -1 or below, can tie at the clamp, and such ties
    # go to the lowest dst index: re-take their argmax over the clamped row.
    redo = ~((best > -1.0) & (best <= 1.0))
    if redo.any():
        assignment[redo] = np.argmax(np.clip(sims[redo], -1.0, 1.0), axis=1)
    return assignment.astype(np.int64), np.clip(best, -1.0, 1.0)
