"""Tests of the benchmark itself: span arithmetic and a tiny run of each workload.

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from tracing import GLUE, ROOT, Span, summarize, self_times, union_length  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_union_length_counts_overlaps_once():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.75)]) == 3.0


def test_busy_self_and_glue_on_synthetic_spans():
    spans = [
        Span(ROOT, 0.0, 10.0, None),
        Span("a.f", 1.0, 4.0, 0),
        Span("b.g", 4.0, 8.0, 0),
        Span("a.f", 8.5, 9.0, 0, error=True),
        Span("a.inner", 2.0, 3.0, 1),        # nested inside the first a.f
        Span(ROOT, 20.0, 25.0, None),
        Span("b.g", 21.0, 22.0, 5),
    ]
    assert self_times(spans) == [2.5, 2.0, 4.0, 0.5, 1.0, 4.0, 1.0]
    stats = summarize(spans)
    assert stats[ROOT].busy_s == 15.0 and stats[ROOT].calls == 2
    assert stats["a.f"].busy_s == 3.5 and stats["a.f"].calls == 2
    assert stats["a.f"].errors == 1
    assert stats["b.g"].busy_s == 5.0
    assert stats[GLUE].busy_s == 2.5 + 4.0
    # direct children of the roots plus glue add up to the op time
    assert stats["a.f"].busy_s + stats["b.g"].busy_s + stats[GLUE].busy_s == stats[ROOT].busy_s


def run_bench(tmp_path, workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", "--results", str(tmp_path)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(tmp_path, workload):
    text, result = run_bench(tmp_path, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line
                   for line in text)
    for name, unit in (("op_p50_s", "s"), ("cpu_s_per_op", "s"), ("failed_frac", "ratio")):
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in text)
    assert any(line.startswith("failed_frac 0.0 ") for line in text)
    # a second run of the same code must reproduce every op digest
    _, again = run_bench(tmp_path, workload, 0)
    assert again["failed"] == 0


def test_tiny_traced_run_prints_every_per_layer_metric(tmp_path):
    text, result = run_bench(tmp_path, "mc_fresh", 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in text)
    assert result["metrics"]["measure.measure_mc.calls"]["value"] == result["attempted"]
    assert 0.0 < result["metrics"]["measure.wall_hit_ratio"]["value"] <= 1.0
    saved = json.loads(next(tmp_path.glob("mc_fresh-*-trace1.json")).read_text())
    assert saved["trace_closure"]["within_overhead"]
    assert {"nproc", "cpu_model", "mem_total_mb", "python", "numpy", "scipy", "blas",
            "blas_threads", "workload_seed"} <= set(saved["machine"])
    assert all(op["digest"] for op in saved["ops"])
