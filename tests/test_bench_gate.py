"""The benchmark gate's decision function, on synthetic perfbench result lines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_gate", _ROOT / "scripts" / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_gate)

BENCHMARK = _ROOT / "BENCHMARK.json"
VALUES = {"specs_per_s": 500.0, "sim_frames_per_s": 6000.0, "setup_s": 0.1, "peak_rss_mb": 50.0,
          "kernels.ms_per_frame": 0.045, "kernels.fixed_ms_per_spec": 0.14}


def _runs(scale: dict | None = None, correct: bool = True, failed: int = 0) -> dict:
    """Three rounds of every gated run, with the named metrics scaled."""
    metrics = {name: {"value": value * (scale or {}).get(name, 1.0), "unit": ""}
               for name, value in VALUES.items()}
    line = {"correct": correct, "attempted": 1000, "failed": failed, "metrics": metrics}
    keys = [(w, 0) for w in bench_gate.WORKLOADS] + [(w, 1) for w in bench_gate.TRACED]
    return {key: [line] * 3 for key in keys}


def _failures(head: dict, benchmark: Path = BENCHMARK, base: dict | None = None) -> list[str]:
    return bench_gate.judge(base or _runs(), head, benchmark)[1]


@pytest.mark.parametrize("scale, failing", [
    ({}, None),
    ({"specs_per_s": 0.7}, "specs_per_s"),
    ({"specs_per_s": 0.8}, None),
    ({"setup_s": 1.3}, "setup_s"),
    ({"setup_s": 0.5}, None),
    ({"peak_rss_mb": 1.12}, "peak_rss_mb"),
    ({"peak_rss_mb": 1.08}, None),
    ({"peak_rss_mb": 0.5}, None),
    ({"kernels.ms_per_frame": 1.3}, "fig12 kernels.ms_per_frame"),
])
def test_metric_bounds_and_directions(scale, failing):
    failures = _failures(_runs(scale))
    if failing is None:
        assert failures == []
    else:
        assert failures and all(failing in failure for failure in failures)


def test_incorrect_head_or_larger_failed_share_fails():
    assert any("correct: false" in f for f in _failures(_runs(correct=False)))
    assert any("failed-spec share" in f for f in _failures(_runs(failed=1)))
    assert _failures(_runs(failed=1), base=_runs(failed=1)) == []


def test_bounds_come_from_the_benchmark_file(tmp_path):
    bench = json.loads(BENCHMARK.read_text())
    for metric in bench["end_to_end"]:
        if metric["name"] == "specs_per_s":
            metric["bound"] = 0.4
    loose = tmp_path / "BENCHMARK.json"
    loose.write_text(json.dumps(bench))
    head = _runs({"specs_per_s": 0.7})
    assert _failures(head) and not _failures(head, loose)
