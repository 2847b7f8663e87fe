"""Checks of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(run.SRC))
    import tetrainst.cli

    return tetrainst.cli


@pytest.mark.parametrize("workload", sorted(run.SPEC["workloads"]))
def test_traced_counts_repeat_exactly(cli, workload):
    argv = [*run.SPEC["workloads"][workload]["argv"], "--seed", "0"]
    counts = []
    for _ in range(2):
        _wall, code, stdout, _rss, record = run.run_op(cli, argv, traced=True)
        doc, reason = run.check_report(argv, code, stdout)
        assert reason is None
        counts.append(tracing.op_counts(record, doc))
    assert counts[0] == counts[1]
    # the wrappers reached the bindings the callers use
    assert counts[0]["vertex.builds"] > 0
    assert counts[0]["algebra.measure_calls"] > 0


def test_self_time_excludes_children():
    spans = [(0, -1, "cli.main", 0.0, 10.0), (1, 0, "a.f", 1.0, 5.0), (2, 1, "b.g", 2.0, 3.0)]
    assert tracing.self_times(spans) == {"cli.main": 6.0, "a.f": 3.0, "b.g": 1.0}


def test_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: spec["unit"] for name, spec in run.SPEC["end_to_end"].items()
    }
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.SPEC["workloads"])
