"""Importance-driven token merging for diffusion-style attention workloads."""

from .core import (
    STRATEGIES,
    STRATEGY_GRID,
    STRATEGY_NONE,
    STRATEGY_POOL,
    STRATEGY_TOPK,
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
)
from .importance import guidance_magnitude, rank_tokens
from .rng import Rng
from .strategy import plan_importance_pool, plan_tome_grid, plan_topk_dst
from .toydiff import (
    NoiseSchedule,
    ToyDenoiser,
    cfg_predict,
    combine_guidance,
    sample,
    scheduled_plan,
)

__version__ = "0.1.0"

__all__ = [
    "STRATEGIES",
    "STRATEGY_GRID",
    "STRATEGY_NONE",
    "STRATEGY_POOL",
    "STRATEGY_TOPK",
    "ConfigInfeasibleError",
    "ImportanceMap",
    "InvalidPlanError",
    "MergeConfig",
    "MergePlan",
    "NoiseSchedule",
    "Rng",
    "TokenMatrix",
    "ToyDenoiser",
    "apply_merge",
    "apply_prune",
    "apply_unmerge",
    "cfg_predict",
    "combine_guidance",
    "counts_for",
    "guidance_magnitude",
    "identity_plan",
    "plan_importance_pool",
    "plan_tome_grid",
    "plan_topk_dst",
    "rank_tokens",
    "sample",
    "scheduled_plan",
]
