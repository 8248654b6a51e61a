"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is reported with its unit,
that the audit workload never reaches the LP solver, and that a corrupted
selection is caught by the output checks.
"""

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)
run._import_package()

import bench_tracer  # noqa: E402  (run.py's directory is on sys.path under pytest)
import bench_workloads  # noqa: E402
from mopr import algorithm  # noqa: E402
from mopr.similarity import Selection  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = 0.05


def _tiny(name, trace, seed=3):
    return run.run_benchmark(name, seed, SECONDS, trace, sizes=bench_workloads.TINY)


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == (
        bench_tracer.per_layer_metric_specs()
    )


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_end_to_end_metric_is_reported(name):
    result = _tiny(name, trace=False)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_per_layer_metric_is_reported(name):
    result = _tiny(name, trace=True)["result"]
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["datamodel.load_dataset.calls"]["value"] > 0
    solves = metrics["solver.solve_lp.calls"]["value"]
    if name == "audit":
        assert solves == 0
    else:
        assert solves > 0 and metrics["algorithm.iterations"]["value"] > 0


def test_same_seed_gives_the_same_selections():
    first = _tiny("audit", trace=False)["record"]["digest"]
    assert _tiny("audit", trace=False)["record"]["digest"] == first
    assert _tiny("audit", trace=False, seed=4)["record"]["digest"] != first


def test_corrupted_selection_is_counted_as_an_error(monkeypatch):
    honest = algorithm.mopr_retrieve

    def corrupted(*args, **kwargs):
        sel, trace = honest(*args, **kwargs)
        indicator = sel.indicator.copy()
        indicator[int(sel.indices[0])] = 0
        indicator[int(next(i for i in range(indicator.size) if not sel.indicator[i]))] = 1
        trace.selection = Selection(indicator, sel.k)
        return trace.selection, trace

    monkeypatch.setattr(algorithm, "mopr_retrieve", corrupted)
    run_ = _tiny("retrieve", trace=False)
    assert not run_["result"]["correct"]
    assert run_["result"]["failed"] >= 1
    assert run_["record"]["error_frac"] > 0
