"""Desk-scale conditional diffusion sampler wired to the token-merge engine.

A small attention denoiser (2 transformer blocks, seeded untrained weights)
runs a standard ancestral reverse loop with guidance.  At every self-attention
layer the scheduler picks one plan per step, shared by both guidance passes --
grid pruning in the early steps, the configured strategy afterwards, driven by
the guidance map cached from the previous step -- and the layer computes
attention on the reduced token set.

The denoiser is untrained on purpose: fidelity is always measured as
deviation from the unmerged baseline under matched seeds, which is well
defined regardless of training, and an untrained net exercises every merge
mechanism.  It holds only what its outputs depend on: its projection
weights, its class table and its time projection.  Its layer norms have no
affine step and its projections no biases, since untrained ones would be
ones and zeros.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    MAP_STRATEGIES,
    STRATEGY_GRID,
    STRATEGY_NONE,
    STRATEGY_POOL,
    ImportanceMap,
    MergeConfig,
    MergePlan,
    TokenMatrix,
    apply_merge,
    apply_prune,
    apply_unmerge,
    identity_plan,
)
# resample_importance is unused here but stays bound for tools that wrap it.
from .importance import guidance_magnitude, resample_importance  # noqa: F401
from .matching import _block_rows, _row_blocks
from .rng import Rng
from .strategy import _grid_config, plan_importance_pool, plan_tome_grid, plan_topk_dst

logger = logging.getLogger(__name__)

# Stream ids reserved for noise draws; attention layers use 0..n_blocks-1.
INIT_NOISE_LAYER = 1 << 20
STEP_NOISE_LAYER = (1 << 20) + 1

MODE_MERGE = "merge"
MODE_PRUNE = "prune"

_HIDDEN_MULT = 4  # MLP width per channel
# Bytes of one block of attention's float32 scores (see ``attention``).
_SCORE_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Forward-process variances: betas[t-1] is the variance added at step t."""

    betas: np.ndarray

    def __post_init__(self) -> None:
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("betas must be a non-empty 1-D array")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("betas must lie in (0, 1)")
        if np.any(np.diff(betas) < 0.0):
            raise ValueError("betas must be non-decreasing")
        object.__setattr__(self, "betas", betas)

    @classmethod
    def linear(cls, timesteps: int = 50, start: float = 1e-4, end: float = 2e-2):
        if timesteps < 2:
            raise ValueError("need at least 2 timesteps")
        return cls(np.linspace(start, end, timesteps))

    @property
    def T(self) -> int:
        return self.betas.size

    @cached_property
    def alphas(self) -> np.ndarray:
        return 1.0 - self.betas

    @cached_property
    def alpha_bars(self) -> np.ndarray:
        return np.cumprod(self.alphas)


def combine_guidance(
    eps_cond: TokenMatrix, eps_uncond: TokenMatrix, w: float
) -> TokenMatrix:
    """Steer the noise prediction: eps_uncond + w * (eps_cond - eps_uncond).

    w = 0 and w = 1 short-circuit to the respective inputs so the endpoint
    identities hold bit-exactly.
    """
    if eps_cond.data.shape != eps_uncond.data.shape:
        raise ValueError(
            f"shape mismatch: {eps_cond.data.shape} vs {eps_uncond.data.shape}"
        )
    if w == 0.0:
        return eps_uncond
    if w == 1.0:
        return eps_cond
    # The same operations, in the difference's buffer.
    guided = np.subtract(eps_cond.data, eps_uncond.data)
    guided *= eps_uncond.data.dtype.type(w)
    np.add(eps_uncond.data, guided, out=guided)
    return TokenMatrix(guided, grid=eps_uncond.grid)


class ScheduledPlan(NamedTuple):
    plan: MergePlan
    mode: str
    grid_fallback: bool = False


def planning_config(config: MergeConfig, importance: ImportanceMap | None) -> MergeConfig:
    """The config that actually plans a layer under ``config``.

    The strategies in :data:`~tokmerge.core.MAP_STRATEGIES` plan with grid
    selection, on grid's own config, when ``importance`` is None; every
    other case plans with ``config`` itself.  Configs that plan alike are
    equal, so callers can key plans on this.
    """
    if importance is None and config.strategy in MAP_STRATEGIES:
        return _grid_config(config)
    return config


def plan_layer(
    tokens: TokenMatrix,
    importance: ImportanceMap | None,
    config: MergeConfig,
    rng: Rng,
) -> MergePlan:
    """The plan ``config.strategy`` builds for one layer's tokens.

    ``none`` keeps every token, and the other strategies plan with
    :func:`planning_config`'s config.  The sampler and replay both plan
    through here, so matched seeds give the same plans in both.
    """
    config = planning_config(config, importance)
    if config.strategy == STRATEGY_NONE:
        return identity_plan(tokens.n_tokens)
    if config.strategy == STRATEGY_GRID:
        return plan_tome_grid(tokens, config, rng)
    if config.strategy == STRATEGY_POOL:
        return plan_importance_pool(tokens, importance, config, rng)
    return plan_topk_dst(tokens, importance, config)


def scheduled_plan(
    step_index: int,
    importance: ImportanceMap | None,
    layer_tokens: TokenMatrix,
    config: MergeConfig,
    rng: Rng,
) -> ScheduledPlan:
    """Pick the plan and reduction mode for one layer at one sampling step.

    Early steps (``step_index < prune_steps``) prune with grid selection;
    later steps merge with the plan :func:`plan_layer` builds from
    ``importance``, the previous step's guidance map.  Where no map is
    available yet and :func:`planning_config` falls back to grid selection,
    the plan says so with a logged diagnostic and ``grid_fallback`` set,
    never an exception.  A map whose length differs from the layer's token
    count raises the planner's ``ValueError``.
    """
    if config.strategy != STRATEGY_NONE and step_index < config.prune_steps:
        return ScheduledPlan(plan_tome_grid(layer_tokens, config, rng), MODE_PRUNE)
    fallback = planning_config(config, importance).strategy != config.strategy
    if fallback:
        logger.debug("no guidance at step %d; using grid selection", step_index)
    plan = plan_layer(layer_tokens, importance, config, rng)
    return ScheduledPlan(plan, MODE_MERGE, grid_fallback=fallback)


@dataclass(frozen=True, eq=False)
class LayerEvent:
    """What one attention layer saw and decided during a forward pass.

    Both passes of a step report their own ``tokens`` and the same ``plan``
    object, which the cond pass planned.
    """

    step_index: int
    timestep: int
    layer: int
    pass_id: str  # "cond" | "uncond"
    tokens: TokenMatrix
    importance: ImportanceMap | None
    plan: MergePlan
    mode: str
    grid_fallback: bool


def _layer_norm(x: np.ndarray) -> np.ndarray:
    # Equal bit for bit to (x - x.mean) / sqrt(x.var() + eps): each
    # mean is the add.reduce and division by n that .mean runs, without its
    # Python wrapper, and the centred rows are normalized in place.
    n = x.shape[1]
    mean = np.add.reduce(x, axis=1, keepdims=True)
    mean /= n
    d = x - mean
    var = np.add.reduce(d * d, axis=1, keepdims=True)
    var /= n
    var += x.dtype.type(1e-5)
    d /= np.sqrt(var, out=var)
    return d


def _gelu(x: np.ndarray, out: np.ndarray | None = None,
          scratch: np.ndarray | None = None) -> np.ndarray:
    # 0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x))) in that operation
    # order, the inner term in place in one scratch buffer.  The cube is
    # x * x * x: numpy's float32 power is about 100x slower.  ``out`` may be
    # ``x`` itself; ``scratch``, when given, is x's shape and is overwritten.
    t = np.multiply(x, x, out=scratch)
    t *= x
    t *= x.dtype.type(0.044715)
    t += x
    t *= x.dtype.type(math.sqrt(2.0 / math.pi))
    np.tanh(t, out=t)
    t += 1.0
    out = np.multiply(x.dtype.type(0.5), x, out=out)
    out *= t
    return out


def attention(
    h: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    wo: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Single-head scaled dot-product self-attention over token rows.

    The weights are (C, C).  Everything but kᵀ, v and the output runs one
    block of query rows at a time, FlashAttention-style: the q projection,
    scores, softmax, their product with v and the output projection.
    Blocks have the :func:`~tokmerge.matching._block_rows` rows whose scores
    fit in ``_SCORE_BLOCK_BYTES`` (2 MiB), and the last block takes the
    remainder: 288-575 rows up to 1820 keys, 96 (the last 160) at 4096.
    The 1/√C scale multiplies the block's q rows, and the softmax is left
    unnormalized until after its product with v: each output row is
    ``(exp(s - max s) @ v) / sum exp(s - max s)``, so the division runs over
    (rows, C) values instead of (rows, N) scores.

    At its peak the call holds kᵀ and v, (N, C) each, the output (``out``
    when given, else a new (N, C) array), plus one block's scores and one
    block of q rows, whose buffer then takes the product with v; both
    buffers are allocated once per call.  No (N, N) score matrix is built,
    and each row's result equals the unblocked form of the same operations
    bit for bit.

    ``out`` may be ``h`` itself: kᵀ and v are computed first, and each block
    reads its q rows before it writes its output rows.
    """
    kt = (h @ wk).T
    v = h @ wv
    scale = h.dtype.type(1.0 / math.sqrt(h.shape[1]))
    if out is None:
        out = np.empty_like(v)
    n_keys = h.shape[0]
    blocks = _row_blocks(n_keys, _block_rows(n_keys * v.itemsize, _SCORE_BLOCK_BYTES))
    # One set of buffers serves every block; the last block is the largest.
    # A fresh array per block let the C heap shrink and regrow on every call:
    # about 12k page faults per 3-step, 1024-token trajectory.
    n_max = blocks[-1].stop - blocks[-1].start
    rows_buf = np.empty((n_max, v.shape[1]), dtype=v.dtype)
    scores = np.empty((n_max, n_keys), dtype=v.dtype)
    for rows in blocks:
        n = rows.stop - rows.start
        # The block's q rows, then their scores' product with v.
        qv = np.matmul(h[rows], wq, out=rows_buf[:n])
        qv *= scale
        s = np.matmul(qv, kt, out=scores[:n])
        # The ufunc reductions that .max and .sum run, without their wrappers.
        s -= np.maximum.reduce(s, axis=1, keepdims=True)
        np.exp(s, out=s)
        np.matmul(s, v, out=qv)
        qv /= np.add.reduce(s, axis=1, keepdims=True)
        np.matmul(qv, wo, out=out[rows])
    return out


@dataclass
class _Block:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


def merged_attention(
    h: np.ndarray, blk: _Block, plan: MergePlan | None, mode: str
) -> np.ndarray:
    """``blk``'s attention step: the layer norm of the rows ``h``, then
    attention over the token set ``plan`` reduces them to, unmerged.

    ``mode`` picks the reduction: prune keeps the dst and independent rows
    of ``h`` and normalizes only those, merge normalizes every row and
    averages the merged ones into their dst.  ``plan`` None, or a plan that
    merges nothing, runs attention on all rows unpermuted, so the engine is
    bit-transparent (reductions are not permutation-bit-stable).  Every
    output bit equals that of normalizing all of ``h`` and then reducing.

    Attention writes into the operand it has just normalized or reduced, so
    at its peak, besides ``h``, the step holds that operand, its kᵀ and v
    and one row block of attention: (N, C) each without merging, (n_out, C)
    each when reducing.  A merge layer frees the normalized (N, C) rows as
    soon as it has reduced them, and the (N, C) unmerged output comes last.
    """
    if plan is None or plan.n_merged == 0:
        hn = _layer_norm(h)
        return attention(hn, blk.wq, blk.wk, blk.wv, blk.wo, out=hn)
    if mode == MODE_PRUNE:
        # _layer_norm works row by row, so the kept rows' bits are those of
        # normalizing every row.
        reduced = _layer_norm(apply_prune(TokenMatrix(h), plan).data)
    else:
        reduced = apply_merge(TokenMatrix(_layer_norm(h)), plan).data
    a = attention(reduced, blk.wq, blk.wk, blk.wv, blk.wo, out=reduced)
    return apply_unmerge(TokenMatrix(a), plan).data


def _mlp_residual(h: np.ndarray, blk: _Block) -> np.ndarray:
    """``h + MLP(LN(h))`` for ``blk``, one block of rows at a time.

    No (N, hidden) array is built: at its peak the call holds ``h``, the
    (N, C) output and two (block, hidden) buffers, allocated once per call,
    in which each block's hidden rows and their GELU are computed in place.
    Each row equals the unblocked ``h + _gelu(_layer_norm(h) @ w1) @ w2`` bit
    for bit.
    """
    out = np.empty_like(h)
    blocks = _row_blocks(h.shape[0])
    n_max = blocks[-1].stop - blocks[-1].start
    g_buf = np.empty((n_max, blk.w1.shape[1]), dtype=out.dtype)
    t_buf = np.empty_like(g_buf)
    for rows in blocks:
        n = rows.stop - rows.start
        g = np.matmul(_layer_norm(h[rows]), blk.w1, out=g_buf[:n])
        o = np.matmul(_gelu(g, out=g, scratch=t_buf[:n]), blk.w2, out=out[rows])
        o += h[rows]
    return out


class ToyDenoiser:
    """A 2-block attention noise predictor with seeded, untrained weights.

    Forward passes are deterministic given (weights, inputs), the output
    token shape equals the input shape, and the final class-table row serves
    as the unconditional embedding.
    """

    def __init__(
        self,
        n_channels: int,
        n_classes: int = 8,
        n_blocks: int = 2,
        seed: int = 0,
    ):
        if n_channels < 4 or n_channels % 2:
            raise ValueError("n_channels must be even and >= 4")
        if n_classes < 1 or n_blocks < 1:
            raise ValueError("need n_classes >= 1 and n_blocks >= 1")
        self.n_channels = n_channels
        self.n_classes = n_classes
        self.n_hidden = _HIDDEN_MULT * n_channels
        gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed & ((1 << 64) - 1)))
        )

        def w(*shape):
            return (gen.standard_normal(shape, dtype=np.float32) * np.float32(0.02))

        c, hid = n_channels, self.n_hidden
        self.class_table = w(n_classes + 1, c)
        self.w_time = w(c, c)
        self.blocks = [
            _Block(wq=w(c, c), wk=w(c, c), wv=w(c, c), wo=w(c, c),
                   w1=w(c, hid), w2=w(hid, c))
            for _ in range(n_blocks)
        ]
        self.w_out = w(c, c)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def _time_embedding(self, t: int) -> np.ndarray:
        half = self.n_channels // 2
        freqs = np.exp(
            -math.log(10000.0) * np.arange(half, dtype=np.float32) / np.float32(half)
        )
        angles = np.float32(t) * freqs
        sincos = np.concatenate([np.sin(angles), np.cos(angles)]).astype(np.float32)
        return sincos @ self.w_time

    def _class_embedding(self, y: int | None) -> np.ndarray:
        if y is None:
            return self.class_table[self.n_classes]
        if not 0 <= y < self.n_classes:
            raise ValueError(f"condition {y} outside [0, {self.n_classes})")
        return self.class_table[y]

    def forward(
        self,
        tokens: TokenMatrix,
        t: int,
        y: int | None,
        plan_for: Callable[[int, TokenMatrix], tuple[MergePlan, str]] | None = None,
    ) -> TokenMatrix:
        """Predict noise for ``tokens`` at timestep ``t`` under condition ``y``.

        Without ``plan_for`` every block runs plain attention.  With it, each
        block asks ``plan_for(layer, layer_tokens)`` for its plan and mode;
        ``layer_tokens`` is the block's raw input on ``tokens``' grid, and
        :func:`merged_attention` runs every block's attention step.
        """
        x = tokens.data.astype(np.float32, copy=False)
        h = x + self._time_embedding(t)[None, :]
        h += self._class_embedding(y)[None, :]
        for layer, blk in enumerate(self.blocks):
            # Planning runs before the layer step normalizes, so its
            # temporaries and the normalized operand are never alive together.
            plan, mode = ((None, MODE_MERGE) if plan_for is None
                          else plan_for(layer, TokenMatrix(h, grid=tokens.grid)))
            a = merged_attention(h, blk, plan, mode)
            h = np.add(a, h, out=a)  # h + a, in a's buffer
            del plan, a  # only the residual stays alive through the MLP
            h = _mlp_residual(h, blk)
        return TokenMatrix(_layer_norm(h) @ self.w_out, grid=tokens.grid)


def cfg_predict(
    model: ToyDenoiser,
    x_t: TokenMatrix,
    t: int,
    y: int | None,
    w: float,
    plan_for: Callable[[str, int, TokenMatrix], tuple[MergePlan, str]] | None = None,
) -> tuple[TokenMatrix, ImportanceMap]:
    """Guided noise prediction plus the guidance-magnitude map.

    The map is returned so the caller can plan the NEXT step's merges from
    it.  ``plan_for(pass_id, layer, layer_tokens)``, when given, serves both
    forward passes, bound to ``"cond"`` and ``"uncond"``.  The cond pass runs
    first, so with :func:`_step_planner`'s callback it plans each layer and
    the uncond pass reuses its plans.
    """
    def bound(pass_id: str) -> Callable | None:
        return None if plan_for is None else partial(plan_for, pass_id)

    eps_cond = model.forward(x_t, t, y, bound("cond"))
    eps_uncond = model.forward(x_t, t, None, bound("uncond"))
    guided = combine_guidance(eps_cond, eps_uncond, w)
    return guided, guidance_magnitude(eps_cond, eps_uncond)


def _step_planner(
    step_index: int,
    t: int,
    importance: ImportanceMap | None,
    config: MergeConfig,
    rng: Rng,
    hook: Callable[[LayerEvent], None] | None,
) -> Callable[[str, int, TokenMatrix], tuple[MergePlan, str]]:
    """One sampling step's plan callback for :func:`cfg_predict`.

    Each layer plans once per step, through :func:`scheduled_plan` on its
    ``(t, layer)`` stream of ``rng``: the first pass to reach the layer (the
    cond pass) plans it from its own tokens, and the other pass reuses that
    plan and mode, so both passes' merge errors agree and largely cancel in
    the guided difference.  Every call reports one :class:`LayerEvent` to
    ``hook``, with the pass's own tokens and the shared plan.
    """
    plans: dict[int, ScheduledPlan] = {}

    def plan_for(pass_id: str, layer: int, layer_tokens: TokenMatrix) -> tuple[MergePlan, str]:
        sp = plans.get(layer)
        if sp is None:
            sp = plans[layer] = scheduled_plan(
                step_index, importance, layer_tokens, config, rng.at(t, layer))
        if hook is not None:
            hook(LayerEvent(step_index, t, layer, pass_id, layer_tokens,
                            importance, sp.plan, sp.mode, sp.grid_fallback))
        return sp.plan, sp.mode

    return plan_for


def sample(
    model: ToyDenoiser,
    schedule: NoiseSchedule,
    config: MergeConfig,
    w: float,
    y: int | None,
    rng: Rng,
    grid: tuple[int, int],
    hook: Callable[[LayerEvent], None] | None = None,
) -> TokenMatrix:
    """Run the full ancestral reverse loop and return the clean-sample estimate.

    Deterministic given seeds: initial noise, per-step noise, and per-layer
    plan draws all come from disjoint (timestep, layer) streams of ``rng``,
    so matched-seed runs across strategies share every noise draw.

    Each step updates ``x`` in place and frees the guided prediction, the
    step's noise and its plan callback before the next step, so between
    steps the loop holds ``x`` and the guidance map alone; its peak is that
    of one :func:`cfg_predict` call beside ``x``.
    """
    h, w_grid = grid
    n = h * w_grid
    x = rng.at(schedule.T, INIT_NOISE_LAYER).generator().standard_normal(
        (n, model.n_channels), dtype=np.float32
    )
    x_t = TokenMatrix(x, grid=grid)
    guidance = None
    for step_index, t in enumerate(range(schedule.T, 0, -1)):
        plan_for = _step_planner(step_index, t, guidance, config, rng, hook)
        eps, guidance = cfg_predict(model, x_t, t, y, w, plan_for)
        del plan_for

        alpha = np.float32(schedule.alphas[t - 1])
        coef = np.float32(
            (1.0 - schedule.alphas[t - 1]) / math.sqrt(1.0 - schedule.alpha_bars[t - 1])
        )
        # mean = (x - coef * eps) / sqrt(alpha), then x = mean + sigma * z:
        # the same operations, in the buffers of eps, x and z.
        x -= np.multiply(eps.data, coef, out=eps.data)
        del eps
        x /= np.sqrt(alpha)
        if t > 1:
            z = rng.at(t, STEP_NOISE_LAYER).generator().standard_normal(
                x.shape, dtype=np.float32
            )
            z *= np.float32(math.sqrt(schedule.betas[t - 1]))
            x += z
            del z
        x_t = TokenMatrix(x, grid=grid)
    return x_t
