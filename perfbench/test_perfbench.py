"""Self-tests of the benchmark: python -m pytest perfbench"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return run.import_program()


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_is_quick_correct_and_traced(program, workload):
    start = time.perf_counter()
    result = run.run_workload(workload, seed=3, seconds=0, trace=True,
                              program=program, smoke=True)
    assert time.perf_counter() - start < 30
    summary = result["summary"]
    assert summary["correct"], result["failures"]
    assert set(summary["metrics"]) == {name for name, _ in run.PER_LAYER}
    for layer in run.DESIGN[workload]:
        assert summary["metrics"][f"{layer}.s"]["value"] > 0


def test_end_to_end_metrics_are_all_reported(program):
    result = run.run_workload("verify", seed=4, seconds=0, trace=False,
                              program=program, smoke=True)
    metrics = result["summary"]["metrics"]
    assert set(metrics) == {name for name, _ in run.END_TO_END}
    assert all(metric["value"] > 0 for metric in metrics.values())


def test_wrapped_functions_are_restored(program):
    before = {(p, a): f for p, m in program.items() for a, f in vars(m).items()}
    tracer = Tracer(program)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert program["linalg"].as_matrix is not before[("linalg", "as_matrix")]
            program["linalg"].as_matrix([[1.0]])
            1 / 0
    after = {(p, a): f for p, m in program.items() for a, f in vars(m).items()}
    assert after == before
    assert [s.name for s in tracer.spans] == ["linalg.as_matrix"]


def test_self_times_are_never_negative(program):
    tracer = Tracer(program)
    with tracer:
        program["cli"].main(["check", "--trials", "10", "--seed", "1"])
    own = self_times(tracer.spans)
    assert len(own) > 100
    assert min(own) >= 0.0
    durations = [s.end - s.start for s in tracer.spans]
    assert all(o <= d for o, d in zip(own, durations))


def test_self_time_excludes_children():
    spans = [Span("a", 0.0, 10.0, -1, 0), Span("b", 1.0, 4.0, 0, 0),
             Span("c", 2.0, 3.0, 1, 0), Span("b", 5.0, 9.0, 0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_memory_pass_counts_live_buffers(program):
    import numpy as np

    x = np.random.default_rng(0).standard_normal((10, 400))
    tracer = Tracer(program, memory_layers=["solvers.lsr1"])
    with tracer:
        program["solvers"].lsr1(x, 0.1)
    top = next(s for s in tracer.spans if s.name == "solvers.lsr1")
    assert 2.0 <= top.peak / (8 * 400**2) <= 10.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
