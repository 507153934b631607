"""Core token-merge types and the mechanics of applying a merge plan.

A merge plan partitions the token index set {0..N-1} into three groups:
destination anchors (dst), independent tokens, and merged tokens.  Applying
a plan reduces the token count to ``n_out = n_dst + n_independent``; the
unmerge step restores the original count by copying each destination's
processed value back to every position that was merged into it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .matching import _row_blocks

STRATEGY_NONE = "none"
STRATEGY_GRID = "tome-random-grid"
STRATEGY_POOL = "importance-pool"
STRATEGY_TOPK = "topk-dst"
STRATEGIES = (STRATEGY_NONE, STRATEGY_GRID, STRATEGY_POOL, STRATEGY_TOPK)
# The strategies that plan from a guidance map; without one they use grid selection.
MAP_STRATEGIES = (STRATEGY_POOL, STRATEGY_TOPK)
# Grid selection keeps one dst per 2x2 cell, whatever dst fraction is asked for.
GRID_DST_FRACTION = 0.25

# Decimal ratios are not exactly representable in binary (10 * 0.7 evaluates
# to 6.999...), so floors of count formulas get a small upward guard.
_FLOOR_EPS = 1e-9


class InvalidPlanError(ValueError):
    """A merge plan disagrees with the tokens it is applied to."""


class ConfigInfeasibleError(ValueError):
    """The requested fractions cannot produce a valid token partition."""


def _floor_count(x: float) -> int:
    return int(math.floor(x + _FLOOR_EPS))


def require_finite(**settings: float) -> None:
    """Raise :class:`ConfigInfeasibleError` naming the first non-finite setting."""
    for name, value in settings.items():
        if not math.isfinite(value):
            raise ConfigInfeasibleError(f"{name}={value} must be finite")


def require_integer(**settings: int) -> None:
    """Raise :class:`ConfigInfeasibleError` naming the first non-integer setting."""
    for name, value in settings.items():
        if not isinstance(value, numbers.Integral):
            raise ConfigInfeasibleError(f"{name}={value!r} must be an integer")


@dataclass(frozen=True)
class TokenMatrix:
    """An ordered set of token feature vectors with stable positional indices.

    ``data`` is ``(n_tokens, n_channels)``; an optional ``grid`` of
    ``(height, width)`` declares the row-major spatial layout, in which case
    token ``i`` sits at row ``i // width``, column ``i % width``.
    """

    data: np.ndarray
    grid: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(
                f"token data must be (n_tokens, n_channels), got shape {data.shape}"
            )
        # dtype.kind and the array method, not np.issubdtype and np.all: a
        # step builds about 24 token matrices, and the function forms cost
        # microseconds each.
        if data.dtype.kind != "f":
            data = data.astype(np.float64)
        if not np.isfinite(data).all():
            raise ValueError("token data must be finite")
        object.__setattr__(self, "data", data)
        if self.grid is not None:
            h, w = self.grid
            if h < 1 or w < 1 or h * w != data.shape[0]:
                raise ValueError(
                    f"grid {self.grid} incompatible with {data.shape[0]} tokens"
                )
            object.__setattr__(self, "grid", (int(h), int(w)))

    @property
    def n_tokens(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ImportanceMap:
    """One non-negative relevance score per token position.

    The map holds a read-only copy of its scores, so :attr:`ranking` can be
    computed once and shared by every plan built from the map.
    """

    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.array(self.scores, dtype=np.float64)
        if scores.ndim != 1 or scores.shape[0] < 1:
            raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
        if not np.isfinite(scores).all():
            raise ValueError("importance scores must be finite")
        if (scores < 0).any():
            raise ValueError("importance scores must be non-negative")
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return self.scores.shape[0]

    @cached_property
    def ranking(self) -> np.ndarray:
        """Token indices by descending score, ties by ascending index; read-only."""
        order = np.argsort(-self.scores, kind="stable").astype(np.int64, copy=False)
        order.flags.writeable = False
        return order


@dataclass(frozen=True)
class MergeConfig:
    """Strategy choice plus the merge hyper-parameters.

    ``r`` is the fraction of tokens removed by merging, ``k`` the destination
    fraction (:data:`GRID_DST_FRACTION` for grid selection, whatever is
    passed), ``p`` the pool-size headroom factor, ``prune_steps`` the number
    of early sampling steps that drop (rather than average) merged tokens.
    """

    strategy: str
    r: float
    k: float = 0.25
    p: float = 0.4
    prune_steps: int = 6

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigInfeasibleError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.strategy == STRATEGY_GRID:
            object.__setattr__(self, "k", GRID_DST_FRACTION)
        require_finite(r=self.r, k=self.k, p=self.p)
        if not 0.0 <= self.r < 1.0:
            raise ConfigInfeasibleError(f"merge ratio r={self.r} must be in [0, 1)")
        if not 0.0 < self.k < 1.0:
            raise ConfigInfeasibleError(f"dst fraction k={self.k} must be in (0, 1)")
        # k + r == 1 is allowed: it just leaves zero independent tokens.
        if self.k + self.r > 1.0 + _FLOOR_EPS:
            raise ConfigInfeasibleError(
                f"{self.strategy}: k={self.k} + r={self.r} > 1 would need a negative "
                "independent-token count"
            )
        if self.p < 0.0:
            raise ConfigInfeasibleError(f"pool factor p={self.p} must be >= 0")
        require_integer(prune_steps=self.prune_steps)
        if self.prune_steps < 0:
            raise ConfigInfeasibleError(f"prune_steps={self.prune_steps} must be >= 0")
        object.__setattr__(self, "prune_steps", int(self.prune_steps))


class PlanCounts(NamedTuple):
    """Token counts implied by (n, r, k, p): pool, dst, independent, reduced."""

    pool_size: int
    n_dst: int
    n_independent: int
    n_out: int


def counts_for(n: int, config: MergeConfig) -> PlanCounts:
    """Derive the token-partition counts for ``n`` input tokens.

    ``none`` keeps every token as its own dst, as :func:`identity_plan` does
    for any ``n``: ``(n, n, 0, n)``.  For the merging strategies all
    fractional counts floor; the independent count is defined residually
    as ``n_out - n_dst`` so the reduced count is exactly ``floor(n * (1-r))``.
    The pool is clamped into ``[n_out, n]``.

    Raises:
        ConfigInfeasibleError: if rounding produces no destinations or a
            negative independent count.
    """
    if config.strategy == STRATEGY_NONE:
        return PlanCounts(n, n, 0, n)
    if n < 4:
        raise ConfigInfeasibleError(f"need at least 4 tokens, got {n}")
    n_dst = _floor_count(n * config.k)
    n_out = _floor_count(n * (1.0 - config.r))
    n_independent = n_out - n_dst
    # Clamped before flooring: a huge finite p makes the product inf.
    pool_size = _floor_count(min(n, n * (1.0 - config.r) * (1.0 + config.p)))
    pool_size = max(pool_size, n_out)
    if n_dst <= 0:
        raise ConfigInfeasibleError(
            f"{config.strategy}: k={config.k} yields no dst tokens for n={n}"
        )
    if n_independent < 0:
        raise ConfigInfeasibleError(
            f"r={config.r}, k={config.k} yield negative independent count "
            f"({n_independent}) for n={n}"
        )
    return PlanCounts(pool_size, n_dst, n_independent, n_out)


_min, _max, _any = np.minimum.reduce, np.maximum.reduce, np.logical_or.reduce

_PLAN_ARRAYS = ("dst_indices", "independent_indices", "merged_sources", "merged_dst_pos")


@dataclass(eq=False)
class MergePlan:
    """A token partition as index arrays, reusable for merge, prune, and unmerge.

    ``dst_indices``, ``independent_indices`` and ``merged_sources`` are
    ascending token indices that together partition ``range(n_in)``.
    ``merged_dst_pos[i]`` is the position in ``dst_indices`` of the dst that
    ``merged_sources[i]`` merges into.  The reduced matrix is laid out
    ``[dst..., independent...]`` in that order.
    """

    n_in: int
    dst_indices: np.ndarray
    independent_indices: np.ndarray
    merged_sources: np.ndarray
    merged_dst_pos: np.ndarray

    def __post_init__(self) -> None:
        n = self.n_in = int(self.n_in)
        dst = self.dst_indices = np.asarray(self.dst_indices, dtype=np.int64)
        ind = self.independent_indices = np.asarray(self.independent_indices, dtype=np.int64)
        src = self.merged_sources = np.asarray(self.merged_sources, dtype=np.int64)
        pos = self.merged_dst_pos = np.asarray(self.merged_dst_pos, dtype=np.int64)
        if dst.size == 0:
            raise InvalidPlanError("plan needs at least one dst token")
        # Plans are built per layer and step, so the checks call the ufunc
        # reductions directly: the array methods and np.any wrap them in
        # Python that costs microseconds per call.
        all_idx = np.concatenate((dst, ind, src))
        in_range = all_idx.size == n and _min(all_idx) >= 0 and _max(all_idx) < n
        if not in_range or _max(np.bincount(all_idx)) > 1:
            raise InvalidPlanError(
                "dst, independent, and merged indices must partition the token set"
            )
        # One comparison over the concatenation checks all three arrays; the
        # two joins between them may descend.
        descents = all_idx[1:] < all_idx[:-1]
        for join in (dst.size - 1, dst.size + ind.size - 1):
            if join < descents.size:
                descents[join] = False
        if _any(descents):
            raise InvalidPlanError("plan indices must be ascending")
        if pos.shape != src.shape or (pos.size and (_min(pos) < 0 or _max(pos) >= dst.size)):
            raise InvalidPlanError("merged tokens must be assigned to dst indices")

    @property
    def n_out(self) -> int:
        return self.dst_indices.size + self.independent_indices.size

    @property
    def n_merged(self) -> int:
        return self.merged_sources.size

    @property
    def merged_targets(self) -> np.ndarray:
        """The dst token index each merged token is assigned to, aligned with
        :attr:`merged_sources`."""
        return self.dst_indices[self.merged_dst_pos]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MergePlan):
            return NotImplemented
        return self.n_in == other.n_in and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _PLAN_ARRAYS
        )


@lru_cache(maxsize=16)
def identity_plan(n: int) -> MergePlan:
    """A plan that keeps every token as its own dst and merges nothing.

    ``none`` asks for this plan at every layer and step, so it is built once
    per token count, with read-only arrays so the shared copy cannot drift.
    """
    empty = np.empty(0, dtype=np.int64)
    plan = MergePlan(n, np.arange(n, dtype=np.int64), empty, empty, empty)
    for name in _PLAN_ARRAYS:
        getattr(plan, name).flags.writeable = False
    return plan


def _check_plan_input(tokens: TokenMatrix, plan: MergePlan) -> None:
    if plan.n_in != tokens.n_tokens:
        raise InvalidPlanError(
            f"plan built for {plan.n_in} tokens applied to {tokens.n_tokens}"
        )


def apply_merge(tokens: TokenMatrix, plan: MergePlan) -> TokenMatrix:
    """Reduce tokens per plan, averaging each dst with the tokens merged into it.

    Returns ``plan.n_out`` tokens ordered ``[dst..., independent...]``.
    Group means accumulate in float64 and round once to the input dtype.
    The groups are reduced one :func:`~tokmerge.matching._row_blocks` block
    of dst positions at a time, straight into the output, so at its peak the
    call holds the output, the plan's group order, one block's rows as
    gathered and in float64, and the previous block's float64 sums.
    """
    if not plan.n_merged:
        return apply_prune(tokens, plan)
    _check_plan_input(tokens, plan)
    data = tokens.data
    n_dst = plan.dst_indices.size
    # One reduceat over the rows grouped by dst position, each dst first and
    # then its sources by index.  Float64 sums of float32 tokens are exact in
    # practice, so the means equal those of a per-source np.add.at; for
    # float64 tokens they can differ in the last place.  A group's sum reads
    # only its own rows, so reducing by blocks of groups gives the same bits.
    group = np.concatenate((np.arange(n_dst), plan.merged_dst_pos))
    order = np.argsort(group, kind="stable")
    rows = np.concatenate((plan.dst_indices, plan.merged_sources))[order]
    sizes = np.bincount(group)
    ends = np.add.accumulate(sizes)
    # The means and the independent rows go straight into the output; the
    # float64 quotient rounds once on the way in.
    out = np.empty((plan.n_out, data.shape[1]), dtype=data.dtype)
    for block in _row_blocks(n_dst):
        first, last = ends[block.start] - sizes[block.start], ends[block.stop - 1]
        # Nested, so that a block's gather and its float64 copy (none for
        # float64 tokens) are freed as soon as they are summed.
        sums = np.add.reduceat(data.take(rows[first:last], axis=0).astype(np.float64, copy=False),
                               ends[block] - sizes[block] - first)
        np.divide(sums, sizes[block, None], out=out[block], casting="unsafe")
    data.take(plan.independent_indices, axis=0, out=out[n_dst:])
    return TokenMatrix(out)


def apply_prune(tokens: TokenMatrix, plan: MergePlan) -> TokenMatrix:
    """Reduce tokens per plan, dropping merged tokens instead of averaging.

    Destinations pass through unchanged; unmerging a pruned matrix uses
    :func:`apply_unmerge` exactly as for a merged one.
    """
    _check_plan_input(tokens, plan)
    kept = np.concatenate((plan.dst_indices, plan.independent_indices))
    return TokenMatrix(tokens.data.take(kept, axis=0))


def apply_unmerge(processed: TokenMatrix, plan: MergePlan) -> TokenMatrix:
    """Restore the original token count from a reduced, processed matrix.

    Dst and independent positions receive their processed values; every
    merged position receives its assigned dst's processed value.
    """
    if processed.n_tokens != plan.n_out:
        raise InvalidPlanError(
            f"plan expects {plan.n_out} processed tokens, got {processed.n_tokens}"
        )
    # One gather by the processed row each position takes.
    n_dst = plan.dst_indices.size
    source = np.empty(plan.n_in, dtype=np.int64)
    source[plan.dst_indices] = np.arange(n_dst)
    source[plan.independent_indices] = np.arange(n_dst, plan.n_out)
    source[plan.merged_sources] = plan.merged_dst_pos
    return TokenMatrix(processed.data.take(source, axis=0))
