"""The churn stress harness's own checks: determinism and the baseline gate."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_session.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_session", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(module, tmp_path, *extra):
    # A tiny size; the tolerance is wide because millisecond plans are noisy.
    return module.main(["--events", "4", "--frames", "60", "--repeats", "1", "--tolerance",
                        "1e9", "--out", str(tmp_path / "fresh.json"), *extra])


def test_nondeterministic_plan_exits_1(tmp_path, monkeypatch):
    module = _load()
    drift = iter(range(1000))
    session = SimpleNamespace(
        timeline=lambda **_: SimpleNamespace(specs=(next(drift),), epochs=()))
    monkeypatch.setattr(module, "stress_session", lambda *_: session)
    assert _main(module, tmp_path) == 1


def test_baseline_with_other_sizes_is_refused(tmp_path):
    module = _load()
    assert _main(module, tmp_path) == 0
    fresh = json.loads((tmp_path / "fresh.json").read_text())
    assert fresh["sizes"] == [4, 8] and fresh["deterministic"]
    baseline = tmp_path / "baseline.json"
    for sizes, code in (([4, 8], 0), ([150, 300], 1)):
        slow = {str(size): 1e9 for size in sizes}
        baseline.write_text(json.dumps({**fresh, "sizes": sizes, "per_event_ms": slow}))
        assert _main(module, tmp_path, "--baseline", str(baseline)) == code
