"""Acceptance gate: every criterion prints one PASS/FAIL line (run with -s).

Expected values marked as derived below were computed with independent
oracles: exact rational arithmetic for counts, a brute-force double loop for
matching, and reference reconstructions for plan equivalence.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np

from tokmerge import (
    ImportanceMap,
    MergeConfig,
    MergePlan,
    NoiseSchedule,
    Rng,
    TokenMatrix,
    ToyDenoiser,
    apply_merge,
    apply_unmerge,
    cfg_predict,
    combine_guidance,
    counts_for,
    plan_importance_pool,
    plan_tome_grid,
    plan_topk_dst,
    rank_tokens,
    sample,
)
from tokmerge.bench import (
    HarnessParams,
    _record_layer,
    run_bench,
    run_compare,
)
from tokmerge.core import STRATEGY_NONE, STRATEGY_POOL
from tokmerge.flops import FlopModel
from tokmerge.fmap import (
    CaptureFormatError,
    CaptureRecord,
    parse_capture,
    read_capture,
    write_capture,
)
from tokmerge.matching import link_best
from tokmerge.toydiff import plan_layer


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {name}", flush=True)
                raise
            print(f"PASS  {name}", flush=True)

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. Formula fidelity
# ---------------------------------------------------------------------------

# (n, r, k, p) -> (pool, dst, independent, reduced); derived with exact
# rational floors, frozen here.
COUNT_TABLE = [
    (64, 0.3, 0.25, 0.4, (62, 16, 28, 44)),
    (64, 0.3, 0.25, 0.6, (64, 16, 28, 44)),
    (64, 0.3, 0.25, 0.8, (64, 16, 28, 44)),
    (64, 0.5, 0.25, 0.4, (44, 16, 16, 32)),
    (64, 0.5, 0.25, 0.6, (51, 16, 16, 32)),
    (64, 0.5, 0.25, 0.8, (57, 16, 16, 32)),
    (64, 0.6, 0.25, 0.4, (35, 16, 9, 25)),
    (64, 0.6, 0.25, 0.6, (40, 16, 9, 25)),
    (64, 0.6, 0.25, 0.8, (46, 16, 9, 25)),
    (64, 0.7, 0.25, 0.4, (26, 16, 3, 19)),
    (64, 0.7, 0.25, 0.6, (30, 16, 3, 19)),
    (64, 0.7, 0.25, 0.8, (34, 16, 3, 19)),
    (64, 0.75, 0.25, 0.4, (22, 16, 0, 16)),
    (64, 0.75, 0.25, 0.6, (25, 16, 0, 16)),
    (64, 0.75, 0.25, 0.8, (28, 16, 0, 16)),
    (100, 0.3, 0.25, 0.4, (98, 25, 45, 70)),
    (100, 0.3, 0.25, 0.6, (100, 25, 45, 70)),
    (100, 0.3, 0.25, 0.8, (100, 25, 45, 70)),
    (100, 0.5, 0.25, 0.4, (70, 25, 25, 50)),
    (100, 0.5, 0.25, 0.6, (80, 25, 25, 50)),
    (100, 0.5, 0.25, 0.8, (90, 25, 25, 50)),
    (100, 0.6, 0.25, 0.4, (56, 25, 15, 40)),
    (100, 0.6, 0.25, 0.6, (64, 25, 15, 40)),
    (100, 0.6, 0.25, 0.8, (72, 25, 15, 40)),
    (100, 0.7, 0.25, 0.4, (42, 25, 5, 30)),
    (100, 0.7, 0.25, 0.6, (48, 25, 5, 30)),
    (100, 0.7, 0.25, 0.8, (54, 25, 5, 30)),
    (100, 0.75, 0.25, 0.4, (35, 25, 0, 25)),
    (100, 0.75, 0.25, 0.6, (40, 25, 0, 25)),
    (100, 0.75, 0.25, 0.8, (45, 25, 0, 25)),
    (256, 0.5, 0.25, 0.4, (179, 64, 64, 128)),
    (1024, 0.7, 0.25, 0.4, (430, 256, 51, 307)),
    (36, 0.5, 0.25, 0.6, (28, 9, 9, 18)),
    (10, 0.3, 0.25, 0.4, (9, 2, 5, 7)),
    (4096, 0.75, 0.25, 0.8, (1843, 1024, 0, 1024)),
]


@criterion("formula fidelity: partition counts match hand-derived table")
def test_formula_fidelity():
    assert len(COUNT_TABLE) >= 20
    start = time.perf_counter()
    for n, r, k, p, expected in COUNT_TABLE:
        cfg = MergeConfig(STRATEGY_POOL, r=r, k=k, p=p)
        assert tuple(counts_for(n, cfg)) == expected, (n, r, k, p)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Matching oracle
# ---------------------------------------------------------------------------

def _oracle_match(src, dst):
    """Brute-force double loop, independent of the production kernel."""
    src_norms = [math.sqrt(float(np.dot(v, v))) for v in src]
    dst_norms = [math.sqrt(float(np.dot(v, v))) for v in dst]
    assignment = np.empty(len(src), dtype=np.int64)
    scores = np.empty(len(src), dtype=np.float64)
    for i in range(len(src)):
        best_j, best_s = 0, -2.0
        for j in range(len(dst)):
            if src_norms[i] == 0.0 or dst_norms[j] == 0.0:
                s = 0.0
            else:
                s = float(np.dot(src[i], dst[j])) / (src_norms[i] * dst_norms[j])
            s = min(1.0, max(-1.0, s))
            if s > best_s:
                best_j, best_s = j, s
        assignment[i], scores[i] = best_j, best_s
    return assignment, scores


@criterion("matching oracle: 1000 instances agree with brute force")
def test_matching_oracle():
    start = time.perf_counter()
    gen = np.random.default_rng(2024)
    for case in range(1000):
        n = int(gen.integers(8, 257))
        c = int(gen.integers(2, 65))
        n_dst = int(gen.integers(1, n))
        src = gen.standard_normal((n - n_dst, c))
        dst = gen.standard_normal((n_dst, c))
        if case % 25 == 0:
            src[int(gen.integers(0, len(src)))] = 0.0
        assignment, scores = link_best(src, dst)
        oracle_assignment, oracle_scores = _oracle_match(src, dst)
        assert np.array_equal(assignment, oracle_assignment), f"case {case}"
        assert np.allclose(scores, oracle_scores, atol=1e-6), f"case {case}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. Partition / shape suite
# ---------------------------------------------------------------------------

def _build_plan(strategy, tokens, imp, cfg, rng):
    if strategy == "tome-random-grid":
        return plan_tome_grid(tokens, cfg, rng)
    if strategy == "importance-pool":
        return plan_importance_pool(tokens, imp, cfg, rng)
    return plan_topk_dst(tokens, imp, cfg)


@criterion("partition/shape: 500 random plans across all strategies")
def test_partition_and_shape_suite():
    strategies = ["tome-random-grid", "importance-pool", "topk-dst"]
    ratios = [0.3, 0.5, 0.6, 0.7, 0.75]
    gen = np.random.default_rng(7)
    for case in range(500):
        side = int(gen.integers(2, 9)) * 2
        n = side * side
        r = float(ratios[int(gen.integers(0, len(ratios)))])
        strategy = strategies[case % 3]
        cfg = MergeConfig(strategy, r=r, k=0.25, p=0.4)
        tokens = TokenMatrix(
            gen.standard_normal((n, 8)).astype(np.float32), grid=(side, side)
        )
        imp = ImportanceMap(gen.random(n))
        plan = _build_plan(strategy, tokens, imp, cfg, Rng(case).at(3, 1))

        pieces = np.concatenate(
            [plan.dst_indices, plan.independent_indices, plan.merged_sources]
        )
        assert np.array_equal(np.sort(pieces), np.arange(n)), f"case {case}"

        expected_out = math.floor(n * (1 - Fraction(str(r))))
        merged = apply_merge(tokens, plan)
        assert merged.n_tokens == expected_out, f"case {case}"

        processed = TokenMatrix(merged.data * np.float32(1.5) + np.float32(0.25))
        restored = apply_unmerge(processed, plan)
        assert restored.n_tokens == n, f"case {case}"
        dst_row = {int(d): i for i, d in enumerate(plan.dst_indices)}
        for s, d in zip(plan.merged_sources.tolist(), plan.merged_targets.tolist()):
            assert np.array_equal(restored.data[s], processed.data[dst_row[d]])


# ---------------------------------------------------------------------------
# 4. Pool containment
# ---------------------------------------------------------------------------

@criterion("pool containment: dst and independents stay in the top-K set")
def test_pool_containment():
    gen = np.random.default_rng(11)
    violations = 0
    for case in range(500):
        n = int(gen.integers(8, 129))
        r = float(gen.choice([0.3, 0.5, 0.6, 0.7]))
        p = float(gen.choice([0.4, 0.6, 0.8]))
        cfg = MergeConfig(STRATEGY_POOL, r=r, k=0.25, p=p)
        try:
            counts = counts_for(n, cfg)
        except Exception:
            continue
        tokens = TokenMatrix(gen.standard_normal((n, 6)))
        imp = ImportanceMap(gen.random(n))
        plan = plan_importance_pool(tokens, imp, cfg, Rng(case).at(0, 0))
        in_pool = np.zeros(n, dtype=bool)
        in_pool[rank_tokens(imp)[: counts.pool_size]] = True
        selected = np.concatenate([plan.dst_indices, plan.independent_indices])
        violations += int(np.count_nonzero(~in_pool[selected]))
    assert violations == 0


# ---------------------------------------------------------------------------
# 5. Full-pool equivalence regime
# ---------------------------------------------------------------------------

def _full_set_random_plan(tokens, cfg, rng):
    n = tokens.n_tokens
    counts = counts_for(n, cfg)
    gen = rng.generator()
    dst = np.sort(
        gen.choice(np.arange(n, dtype=np.int64), size=counts.n_dst, replace=False)
    )
    src = np.setdiff1d(np.arange(n), dst)
    x = tokens.data.astype(np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    xn = x / np.where(norms > 0, norms, 1.0)
    sims = np.clip(xn[src] @ xn[dst].T, -1.0, 1.0)
    link = sims.argmax(axis=1)
    best = sims[np.arange(src.size), link]
    ind_pos = np.argsort(best, kind="stable")[: counts.n_independent]
    ind_mask = np.zeros(src.size, dtype=bool)
    ind_mask[ind_pos] = True
    return MergePlan(n, dst, np.sort(src[ind_mask]), src[~ind_mask], link[~ind_mask])


@criterion("full-pool regime: pool plans equal full-set random-dst plans")
def test_full_pool_equivalence():
    gen = np.random.default_rng(5)
    tokens = TokenMatrix(gen.standard_normal((64, 8)))
    imp = ImportanceMap(gen.random(64))
    cfg = MergeConfig(STRATEGY_POOL, r=0.3, k=0.25, p=0.8)
    assert counts_for(64, cfg).pool_size == 64  # the whole set is the pool
    for seed in range(100):
        rng = Rng(seed).at(9, 0)
        assert plan_importance_pool(tokens, imp, cfg, rng) == _full_set_random_plan(
            tokens, cfg, rng
        ), f"seed {seed}"


# ---------------------------------------------------------------------------
# 6. Engine transparency
# ---------------------------------------------------------------------------

@criterion("engine transparency: r=0 is bit-identical to strategy=none")
def test_engine_transparency():
    model = ToyDenoiser(8, n_classes=4, seed=0)
    schedule = NoiseSchedule.linear(8)
    for seed in range(20):
        base = sample(model, schedule, MergeConfig(STRATEGY_NONE, 0.0), 7.5,
                      seed % 4, Rng(seed), (6, 6))
        wrapped = sample(model, schedule, MergeConfig(STRATEGY_POOL, 0.0), 7.5,
                         seed % 4, Rng(seed), (6, 6))
        assert np.array_equal(base.data, wrapped.data), f"seed {seed}"


# ---------------------------------------------------------------------------
# 7. CFG correctness
# ---------------------------------------------------------------------------

@criterion("guidance combination: endpoint identities exact, affine in w")
def test_cfg_correctness():
    gen = np.random.default_rng(17)
    cond = TokenMatrix(gen.standard_normal((32, 8)).astype(np.float32))
    uncond = TokenMatrix(gen.standard_normal((32, 8)).astype(np.float32))
    assert np.array_equal(combine_guidance(cond, uncond, 0.0).data, uncond.data)
    assert np.array_equal(combine_guidance(cond, uncond, 1.0).data, cond.data)

    model = ToyDenoiser(8, n_classes=4, seed=1)
    x = TokenMatrix(gen.standard_normal((16, 8)).astype(np.float32), grid=(4, 4))
    outs = {}
    for w in (0.0, 1.0, 2.0):
        eps, _ = cfg_predict(model, x, 5, 2, w)
        outs[w] = eps.data.astype(np.float64)
    interp = 2.0 * outs[1.0] - outs[0.0]
    denom = np.maximum(np.abs(outs[2.0]), 1e-12)
    assert np.max(np.abs(outs[2.0] - interp) / denom) < 1e-5


# ---------------------------------------------------------------------------
# 8. Cost trends
# ---------------------------------------------------------------------------

@criterion("cost trends: FLOPs fall with r; merged sampling steps >= 1.2x faster")
def test_cost_trends():
    flop = FlopModel(n_tokens=4096, n_channels=64, n_hidden=256)
    previous = None
    for r in (0.0, 0.3, 0.5, 0.7):
        if r == 0.0:
            n_attn = 4096
        else:
            n_attn = counts_for(4096, MergeConfig(STRATEGY_POOL, r=r)).n_out
        flops = flop.step_flops(n_attn)
        if previous is not None:
            assert flops < previous
        previous = flops

    # Whole sampling steps: the MLP and the sampler cost the same in both rows,
    # so the bar holds only if merged attention, planning included, pays.
    params = HarnessParams(tokens=4096, channels=64, steps=2, prune_steps=0)
    none_row, grid_row = run_bench(["tome-random-grid"], [0.7], params,
                                   repeats=1, warmups=1)
    assert (none_row["strategy"], grid_row["status"]) == (STRATEGY_NONE, "ok")
    full, merged = none_row["latency_step_s"], grid_row["latency_step_s"]
    speedup = full / merged
    print(f"      latency_step_s none {full * 1e3:.1f} ms -> grid r=0.7 {merged * 1e3:.1f} ms "
          f"({speedup:.2f}x)", flush=True)
    assert speedup >= 1.2


# ---------------------------------------------------------------------------
# 9. Quality ordering
# ---------------------------------------------------------------------------

@criterion("quality ordering: pool cohesion beats the random-assignment control")
def test_quality_ordering():
    params = HarnessParams(tokens=64, channels=16, steps=20, prune_steps=4)
    rows = run_compare(["importance-pool", "topk-dst"], 0.7, params,
                       n_seeds=32, n_conditions=1)
    by_strategy = {row["strategy"]: row for row in rows}
    pool_row = by_strategy["importance-pool"]
    assert pool_row["status"] == "ok"
    assert pool_row["pool_violations"] == 0
    assert pool_row["homogeneity_mean"] > pool_row["homogeneity_random"]
    # the top-k ablation's deviation is reported alongside, not asserted:
    # with untrained weights the perceptual ordering need not transfer.
    topk_row = by_strategy["topk-dst"]
    print(
        f"      pool cohesion {pool_row['homogeneity_mean']:.4f} vs control "
        f"{pool_row['homogeneity_random']:.4f}; mse pool "
        f"{pool_row['mse_mean']:.3e}, topk {topk_row['mse_mean']:.3e}",
        flush=True,
    )
    assert np.isfinite(topk_row["mse_mean"])


# ---------------------------------------------------------------------------
# 10. FMAP round trip
# ---------------------------------------------------------------------------

@criterion("capture format: bit-exact plan replay and fuzz-safe parsing")
def test_fmap_round_trip(tmp_path):
    params = HarnessParams(tokens=16, channels=8, steps=5, prune_steps=2)
    model = params.model()
    schedule = params.schedule()
    events = []
    sample(model, schedule, params.config(STRATEGY_NONE, 0.0), params.cfg_scale,
           0, Rng(params.seed), params.grid(), hook=events.append)
    live_records = []
    for ev in events:
        if ev.pass_id != "cond":
            continue
        if ev.importance is not None and len(ev.importance) == ev.tokens.n_tokens:
            guidance = ev.importance.scores.astype(np.float32)
        else:
            guidance = np.zeros(ev.tokens.n_tokens, dtype=np.float32)
        live_records.append(
            CaptureRecord(ev.timestep, ev.layer,
                          ev.tokens.data.astype(np.float32, copy=False), guidance)
        )
    assert len(live_records) == params.steps * model.n_blocks

    path = tmp_path / "acceptance.fmap"
    write_capture(path, live_records)
    parsed = read_capture(path)
    assert len(parsed) == len(live_records)

    base = Rng(params.seed)
    for strategy in ("importance-pool", "topk-dst", "tome-random-grid"):
        cfg = params.config(strategy, 0.5)
        for live, replayed in zip(live_records, parsed):
            live_plan, replayed_plan = (
                plan_layer(*_record_layer(rec), cfg, base.at(rec.timestep, rec.layer))
                for rec in (live, replayed)
            )
            assert live_plan == replayed_plan, strategy

    blob = path.read_bytes()
    gen = np.random.default_rng(99)
    crashes = 0
    for _ in range(1000):
        mutated = bytearray(blob)
        kind = int(gen.integers(0, 3))
        if kind == 0:
            mutated[int(gen.integers(0, len(mutated)))] ^= int(gen.integers(1, 256))
        elif kind == 1:
            mutated = mutated[: int(gen.integers(0, len(mutated)))]
        else:
            mutated += bytes(
                gen.integers(0, 256, size=int(gen.integers(1, 17)), dtype=np.uint8)
            )
        try:
            parse_capture(bytes(mutated))
        except CaptureFormatError:
            pass
        except BaseException:
            crashes += 1
    assert crashes == 0
