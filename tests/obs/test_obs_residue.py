"""Disabled tracing leaves nothing behind: the deterministic half of the obs gate.

The timing half lives in ``scripts/bench_gate.py``.
"""

from __future__ import annotations

import pickle

from repro.obs import metrics, trace
from repro.sim.runner import BatchEngine, RunSpec


def test_shutdown_leaves_no_tracer_registry_or_writes(tmp_path):
    spec = RunSpec(system="qvr", app="GRID", n_frames=40)
    before = BatchEngine(jobs=1).run_specs([spec])[spec]
    trace_dir = tmp_path / "t"
    trace.configure(trace_dir, process="parent")
    try:
        BatchEngine(jobs=1).run_specs([spec])
    finally:
        trace.shutdown()
    written = {path: path.stat().st_size for path in trace_dir.iterdir()}
    assert any(written.values())

    after = BatchEngine(jobs=1).run_specs([spec])[spec]
    assert trace.active() is trace._NULL_TRACER
    assert not metrics.enabled()
    assert {path: path.stat().st_size for path in trace_dir.iterdir()} == written
    assert pickle.dumps(after) == pickle.dumps(before)
