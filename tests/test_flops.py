from tokmerge.core import MergeConfig, counts_for
from tokmerge.flops import (
    FlopModel,
    attention_flops,
    mlp_flops,
)


def test_attention_flops_closed_form():
    assert attention_flops(10, 4) == 8 * 10 * 16 + 4 * 100 * 4
    assert mlp_flops(10, 4, 16) == 2 * 10 * 4 * 16 * 2


def test_step_flops_strictly_decrease_with_ratio():
    model = FlopModel(n_tokens=256, n_channels=64, n_hidden=256)
    previous = None
    for r in (0.0, 0.3, 0.5, 0.7):
        cfg = MergeConfig("importance-pool", r=r) if r else None
        n_attn = counts_for(256, cfg).n_out if cfg else 256
        flops = model.step_flops(n_attn)
        assert isinstance(flops, int)
        if previous is not None:
            assert flops < previous
        previous = flops


def test_flops_additive_across_blocks_and_passes():
    one = FlopModel(64, 16, 64, n_blocks=1, cfg_passes=1)
    four = FlopModel(64, 16, 64, n_blocks=2, cfg_passes=2)
    assert four.step_flops() == 4 * one.step_flops()


def test_flops_monotone_in_token_count():
    assert attention_flops(64, 16) < attention_flops(65, 16)
    assert mlp_flops(64, 16, 64) < mlp_flops(65, 16, 64)
