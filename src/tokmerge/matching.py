"""Cosine similarity and argmax linking of src tokens to dst tokens."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Rows per block of the blocked layer kernels (see ``_row_blocks``).
_ROW_BLOCK = 288
# Bytes of one block of ``link_best``'s float64 scores (see ``_link_rows``).
_LINK_BLOCK_BYTES = 1 << 20


@lru_cache(maxsize=64)
def _row_blocks(n: int, rows: int = _ROW_BLOCK) -> tuple[slice, ...]:
    """Split ``range(n)`` into contiguous blocks of ``rows`` rows.

    ``rows`` is a multiple of 48, at most ``_ROW_BLOCK``.  The remainder
    joins the last block, so every block has ``rows`` to ``2 * rows - 1``
    rows (288-575 by default) and fewer than ``2 * rows`` rows stay one
    block.  A blocked row-wise kernel then equals the unblocked one bit for
    bit on one thread of OpenBLAS 0.3.31 (Haswell kernels), whose rounding
    depends on where a row falls in a call: sgemm differs on calls of fewer
    than 16 rows, and dgemm, when the columns leave a tail, on row offsets
    that are not a multiple of 12.  A remainder given its own block would be
    such a call: split into four blocks of 288 rows and one of 63,
    ``link_best`` of 1215 src rows (42 channels, 15 dst rows) scored 42 of
    the last 63 rows off the unblocked kernel's bits.  Smaller blocks buy
    attention no speed either: 96- and 192-row blocks ran 4096-token
    attention 2-3% slower, so only ``link_best`` asks for fewer rows.
    """
    starts = [i * rows for i in range(max(1, n // rows))]
    return tuple(slice(a, b) for a, b in zip(starts, starts[1:] + [n]))


def _link_rows(n_dst: int) -> int:
    """Src rows per ``link_best`` block against ``n_dst`` dst rows.

    The most rows, a multiple of 48 and at most ``_ROW_BLOCK``, whose
    float64 ``(rows, n_dst)`` scores fit in ``_LINK_BLOCK_BYTES`` (48 rows
    when none do).  Up to 455 dst rows, which covers every layer of 1024
    tokens or fewer, this is ``_ROW_BLOCK``; a 4096-token grid layer (1024
    dst rows) scores 96 src rows at a time.
    """
    fit = _LINK_BLOCK_BYTES // (8 * n_dst) // 48 * 48
    return min(_ROW_BLOCK, max(48, fit))


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Float64 rows of ``x`` over their Euclidean norms; a zero row stays zero.

    Each row is normalized on its own, so a row of ``unit_rows(x)`` equals,
    bit for bit, that row normalized alone or with any other rows: callers
    can normalize a layer's tokens once and gather the rows they need.

    Equal bit for bit to ``x / np.where(norms > 0, norms, 1)`` with ``norms =
    np.linalg.norm(x, axis=1, keepdims=True)``: that norm is the same
    ``sqrt(add.reduce(x * x))``, here without its Python wrapper.  As there,
    a row whose norm is NaN is divided by 1, and a row with an inf by its
    infinite norm.
    """
    x = np.array(x, dtype=np.float64)  # a copy: divided in place below
    norms = np.add.reduce(x * x, axis=1, keepdims=True)
    np.sqrt(norms, out=norms)
    norms[~(norms > 0.0)] = 1.0
    x /= norms
    return x


def paired_cosine(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity of two equally shaped stacks of vectors.

    Similarities are clamped to [-1, 1], and a zero-norm row compares as 0
    to everything, so degenerate tokens never poison an argmax with NaN.
    """
    a = np.asarray(a_rows)
    b = np.asarray(b_rows)
    if a.shape != b.shape:
        raise ValueError(f"row stacks differ in shape: {a.shape} vs {b.shape}")
    return unit_cosine(unit_rows(a), unit_rows(b))


def unit_cosine(a_unit: np.ndarray, b_unit: np.ndarray) -> np.ndarray:
    """Row-wise cosine of two equally shaped stacks of :func:`unit_rows`,
    clamped to [-1, 1].

    ``b_unit`` is scratch: the products overwrite it, so pass a copy the
    caller owns (a gather or a fresh :func:`unit_rows`).  Equal bit for bit
    to ``np.clip(np.sum(a_unit * b_unit, axis=1), -1, 1)``, whose sum is
    this ``add.reduce``, here without the Python wrappers.
    """
    np.multiply(a_unit, b_unit, out=b_unit)
    dots = np.add.reduce(b_unit, axis=1)
    return np.clip(dots, -1.0, 1.0, out=dots)


def link_best(src_rows: np.ndarray, dst_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Link every src row to its most similar dst row.

    Similarities are float64 cosines clamped to [-1, 1], and ties break
    toward the lower dst index.  Returns the per-src dst index and the
    per-src maximum similarity.

    The src rows are normalized and scored one block at a time against dst
    rows normalized once, in blocks of :func:`_link_rows` rows whose float64
    scores stay within about 1 MB.  At its peak the call holds the float64
    unit dst rows and one block's float64 unit src rows and (block, n_dst)
    scores, or, while it normalizes dst, that float64 copy and its squares;
    no (n_src, n_dst) kernel and no float64 copy of all src rows is built.
    """
    src_rows = np.asarray(src_rows)
    dst_rows = np.asarray(dst_rows)
    if dst_rows.shape[0] == 0:
        raise ValueError("dst set must be nonempty")
    if src_rows.shape[1] != dst_rows.shape[1]:
        raise ValueError(
            f"channel mismatch: src {src_rows.shape[1]} vs dst {dst_rows.shape[1]}"
        )
    # Each row is normalized on its own, so normalizing src by blocks and
    # dst apart gives the bits of normalizing them together.  One block of
    # src normalizes with dst in one call, which is the cheaper path there.
    n_src = src_rows.shape[0]
    blocks = _row_blocks(n_src, _link_rows(dst_rows.shape[0]))
    if len(blocks) == 1:
        unit = unit_rows(np.concatenate((src_rows, dst_rows)))
        assignment, best = _link_block(unit[:n_src], unit[n_src:].T)
    else:
        dst_unit_t = unit_rows(dst_rows).T
        links = [_link_block(unit_rows(src_rows[rows]), dst_unit_t) for rows in blocks]
        assignment, best = map(np.concatenate, zip(*links))
    return assignment.astype(np.int64, copy=False), np.clip(best, -1.0, 1.0)


def _link_block(src_unit: np.ndarray, dst_unit_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-src best dst index and unclamped score, from unit rows and unit columns."""
    sims = src_unit @ dst_unit_t
    assignment = np.argmax(sims, axis=1)
    best = sims[np.arange(sims.shape[0]), assignment]
    # For a row whose maximum lies in (-1, 1], clamping the matrix first
    # would not move its first argmax.  Rows that rounding pushed past 1, or
    # whose every entry is -1 or below, can tie at the clamp, and such ties
    # go to the lowest dst index: re-take their argmax over the clamped row.
    redo = ~((best > -1.0) & (best <= 1.0))
    if redo.any():
        assignment[redo] = np.argmax(np.clip(sims[redo], -1.0, 1.0), axis=1)
    return assignment, best
