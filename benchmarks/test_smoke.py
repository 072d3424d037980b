"""Smoke test of the benchmark itself, on every workload at tiny sizes.

    python -m pytest -q benchmarks/test_smoke.py

It is outside the repository's `testpaths`, so the main test suite does not
collect it.
"""

import json

import pytest

import run
from tracer import PER_LAYER, Tracer
from workloads import EXPERIMENTS, WORKLOADS, Sizes

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = Sizes(tiny=True)
REPEATED_COUNTS = ("tridiag.solves", "evolution.solves", "variational.iterations",
                   "grid.field_count")


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_twice(request):
    return request.param, [run.measure(request.param, 3, 0, True, TINY)["result"]
                           for _ in range(2)]


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_declared_per_layer_metrics_match_the_tracer():
    assert _declared("per_layer") == PER_LAYER


def test_traced_run_emits_every_per_layer_metric_with_its_unit(traced_twice):
    workload, results = traced_twice
    for result in results:
        # One untraced pass, then the self-check and one traced pass.
        assert result["attempted"] == 2 * len(EXPERIMENTS[workload]) + 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_counts_repeat_exactly_across_traced_runs(traced_twice):
    first, second = (r["metrics"] for r in traced_twice[1])
    for name, unit in PER_LAYER.items():
        if unit == "count" or name in REPEATED_COUNTS:
            assert first[name]["value"] == second[name]["value"], name
    # The self-check reaches every layer, so no traced count reads 0.
    assert all(first[name]["value"] > 0 for name in REPEATED_COUNTS)


def test_untraced_run_emits_end_to_end_metrics_and_records_no_spans():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    spans = run.OUT / "dynamics.spans.csv.gz"
    before = spans.stat().st_mtime_ns if spans.exists() else None

    record = run.measure("dynamics", 3, 0, False, TINY)

    assert len(tracer.span_name) == 0
    assert (spans.stat().st_mtime_ns if spans.exists() else None) == before
    result = record["result"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(record["workload_metrics"]) == {"instability_s", "evolve_s",
                                               "energy_drift_rel", "rate_rel_dev"}
    assert record["machine"]["nproc"] >= 1
