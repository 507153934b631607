"""Committed benchmark records: every root ``BENCH_*.json`` against ``BENCHMARK.json``."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {trace: {m["name"] for m in SPEC[key]}
           for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}


def test_a_bench_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_names_only_benchmark_metrics(path):
    record = json.loads(path.read_text())
    assert record["parent"] and record["command"]
    runs = record["runs"]
    assert runs
    sides = {}
    for run in runs:
        assert run["workload"] in WORKLOADS
        assert run["side"] in ("parent", "change")
        assert run["environment"]["seed"] == run["seed"]
        result = run["result"]
        assert {"correct", "attempted", "failed", "metrics"} <= set(result)
        assert set(result["metrics"]) <= METRICS[run["trace"]]
        sides.setdefault((run["workload"], run["seed"], run["trace"]), set()).add(run["side"])
    # Every run has its counterpart on the other side, measured the same way.
    assert all(s == {"parent", "change"} for s in sides.values())
    for workload, metrics in record["summary"].items():
        assert workload in WORKLOADS
        assert set(metrics) <= METRICS[0]
