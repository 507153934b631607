"""Closed-form FLOP accounting for the toy denoiser's layers.

Exact integer arithmetic; counts are additive across layers and monotone
increasing in the token count.
"""

from __future__ import annotations

from dataclasses import dataclass


def attention_flops(n_tokens: int, n_channels: int) -> int:
    # QKVO projections + score matrix + weighted sum
    return 8 * n_tokens * n_channels**2 + 4 * n_tokens**2 * n_channels


def mlp_flops(n_tokens: int, n_channels: int, n_hidden: int) -> int:
    return 2 * n_tokens * n_channels * n_hidden * 2


@dataclass(frozen=True)
class FlopModel:
    """Per-step cost of the denoiser at a given token budget.

    Attention runs on the reduced token count; the MLP always sees the full
    set.  A guided sampling step is ``cfg_passes`` forward passes.
    """

    n_tokens: int
    n_channels: int
    n_hidden: int
    n_blocks: int = 2
    cfg_passes: int = 2

    def forward_flops(self, n_attention_tokens: int | None = None) -> int:
        n_attn = self.n_tokens if n_attention_tokens is None else n_attention_tokens
        per_block = attention_flops(n_attn, self.n_channels) + mlp_flops(
            self.n_tokens, self.n_channels, self.n_hidden
        )
        return self.n_blocks * per_block

    def step_flops(self, n_attention_tokens: int | None = None) -> int:
        return self.cfg_passes * self.forward_flops(n_attention_tokens)
