"""Smoke test of the benchmark harness on a tiny workload.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

TINY = run.Workload(
    instances=2,
    gen=("--layers", "2", "--heads", "3", "--tokens", "16", "--head-dim", "4",
         "--steps", "5", "--block-size", "4", "--velocity-shape", "2,2,2"),
    calibrate=("--taus", "0.8,0.9", "--budget", "shared:0.9", "--intervals", "2"),
    run=("--delta", "0.5"),
)


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    return tmp_path


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_workload_reports_every_declared_metric(isolated, trace, kind):
    result = run.run_benchmark("tiny", TINY, seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(run.COMMANDS) * TINY.instances
    metrics = result["metrics"]
    assert set(metrics) == set(declared(kind))
    for name, unit in declared(kind).items():
        assert run.unit_of(name) == unit, name
    if trace:
        for name in ("surrogate.project_calls", "surrogate.masked_attention_calls",
                     "blocksparse.prefix_mask_s", "reuse.layer_gate_calls",
                     "calibration.solve_heads", "trace.qkv_copies", "runio.sha256_mb"):
            assert metrics[name] > 0, name
        assert metrics["calibration.solve_heads"] == 2 * 3
        assert metrics["reuse.mask_predictions"] + metrics["reuse.reuse_rate"] * 2 * 3 * 5 == \
            pytest.approx(2 * 3 * 5)
    else:
        assert all(value > 0 for value in metrics.values())
    assert not (isolated / "work").exists() or not any((isolated / "work").iterdir())


def test_instrument_rebinds_every_imported_copy():
    run.import_satool()
    from satool import analysis, blocksparse, calibration, cli, reuse, surrogate

    top_p, simulate = blocksparse.top_p_select, reuse.simulate
    project = surrogate.SurrogateModel.project
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        for module in (blocksparse, analysis, calibration, reuse):
            assert module.top_p_select.__wrapped__ is top_p, module.__name__
        assert cli.simulate.__wrapped__ is simulate
        assert surrogate.SurrogateModel.project.__wrapped__ is project
    finally:
        restore()
    for module in (blocksparse, analysis, calibration, reuse):
        assert module.top_p_select is top_p
    assert cli.simulate is simulate
    assert surrogate.SurrogateModel.project is project


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["c"]["self_s"] == 1.0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many-heads", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
