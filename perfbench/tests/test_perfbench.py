"""The benchmark's own tests: its schema, its checks, and a smoke run of
every workload at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END, PER_LAYER = run.metric_tables()


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_benchmark_json_names_the_workloads_and_bounds():
    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {unit for unit, _ in END_TO_END.values()} <= {"s", "ms", "MB", "1/s", "1"}
    assert {better for _, better in PER_LAYER.values()} <= {"lower", "higher"}


def test_tail_keeps_ten_samples_and_a_tenth_above():
    assert workloads.tail([float(v) for v in range(400)]) == (359.0, 90.0)
    assert workloads.tail([float(v) for v in range(24)]) == (13.0, 100.0 * 14 / 24)
    # Below 20 samples only the 10% rule holds.
    assert workloads.tail([float(v) for v in range(19)]) == (16.0, 100.0 * 17 / 19)
    assert workloads.tail([float(v) for v in range(8)]) == (6.0, 87.5)
    assert workloads.tail([5.0]) == (5.0, 100.0)
    assert all(map(math.isnan, workloads.tail([])))


def test_fastest_steps_takes_each_position_from_its_fastest_trajectory():
    assert workloads.fastest_steps([[3.0, 1.0], [2.0, 2.0], [4.0, 5.0]]) == 1.5
    assert math.isnan(workloads.fastest_steps([]))


def test_checks_catch_pool_containment_violation(monkeypatch, tmp_path):
    ctx = workloads.make_context(workloads.smoke(workloads.WORKLOADS["sample-256"]), 5, tmp_path)
    workloads.set_up(ctx)
    run = workloads.Run()
    workloads.checks(ctx, run, workloads.round_input(5, 0))
    assert not run.failed

    def grid_plan(tokens, importance, config, rng):
        return workloads.strategy.plan_tome_grid(tokens, config, rng)

    monkeypatch.setattr(workloads.toydiff, "plan_importance_pool", grid_plan)
    run = workloads.Run()
    workloads.checks(ctx, run, workloads.round_input(5, 0))
    assert "pool-containment" in run.failed["check/pool-hooked"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert '"OPENBLAS_NUM_THREADS": "1"' in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _) in wanted.items()
    }
    if trace:
        assert 0.5 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["metrics"]["ok_share"]["value"] == 1.0


def test_total_failure_still_reports(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("broken sampler")

    monkeypatch.setattr(workloads.toydiff, "sample", broken)
    assert run.main(["--workload", "replay-1024", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert math.isnan(result["metrics"]["none.ms_per_step"]["value"])
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run("--workload", "sample-256", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
