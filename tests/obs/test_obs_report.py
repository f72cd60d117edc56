"""Stage breakdown, utilization, HTML timeline, and report rendering."""

from __future__ import annotations

import json

from repro.obs import metrics, report, sinks, trace


def _record_sample_trace(trace_dir):
    tracer = trace.configure(trace_dir, process="parent")
    with tracer.span("batch.run_specs", key=("b",), requested=2):
        with tracer.span("shard.execute", key=(0, "spec-a")):
            pass
        with tracer.span("shard.execute", key=(1, "spec-b")):
            pass
        tracer.instant("shard.steal", key=("steal", 1))
    trace.shutdown()


def test_stage_rows_aggregate_per_name(tmp_path):
    _record_sample_trace(tmp_path / "t")
    events, merged = report.load_trace(tmp_path / "t")
    rows = {row[0]: row for row in report.stage_rows(events)}
    assert rows["shard.execute"][1] == 2
    assert rows["batch.run_specs"][1] == 1
    # total_s and quantiles are non-negative and internally consistent
    # (the log-binned sketch has ~2% relative quantile error).
    for row in rows.values():
        name, count, total_s, mean_ms, p50, p99, max_ms = row
        assert total_s >= 0.0 and p50 <= p99 <= max_ms * 1.05 + 1e-9


def test_utilization_counts_only_top_level_spans(tmp_path):
    _record_sample_trace(tmp_path / "t")
    events, _ = report.load_trace(tmp_path / "t")
    rows = report.utilization_rows(events)
    assert [row[0] for row in rows] == ["parent"]
    proc, count, extent_s, busy_s, util = rows[0]
    # Nested shard.execute time must not double-count into busy_s.
    assert busy_s <= extent_s + 1e-9
    assert count == len(events)


def test_render_report_has_all_sections(tmp_path):
    _record_sample_trace(tmp_path / "t")
    text = report.render_report(tmp_path / "t")
    assert "Stage latency breakdown" in text
    assert "Process utilization" in text
    assert "shard.execute" in text


def test_render_report_empty_directory(tmp_path):
    text = report.render_report(tmp_path / "empty")
    assert "no trace events found" in text


def test_export_chrome_trace_counts_events(tmp_path):
    _record_sample_trace(tmp_path / "t")
    out = tmp_path / "chrome.json"
    count = report.export_chrome_trace(tmp_path / "t", out)
    payload = json.loads(out.read_text())
    # count covers timeline events; the payload adds metadata entries.
    assert count == 7  # 3 begins + 3 ends + 1 instant
    assert len(payload["traceEvents"]) == count + 1  # + process_name meta
    assert payload["traceEvents"][0]["ph"] == "M"


def test_render_html_is_standalone_and_escaped(tmp_path):
    _record_sample_trace(tmp_path / "t")
    page = report.render_html(tmp_path / "t")
    assert page.startswith("<!doctype html>")
    assert page.rstrip().endswith("</html>")
    assert 'class="span"' in page and 'class="instant"' in page
    assert "shard.execute" in page


def test_render_html_empty_directory(tmp_path):
    page = report.render_html(tmp_path / "none")
    assert "no trace events found" in page


def test_legacy_histogram_snapshots_still_load(tmp_path):
    # Trace directories recorded before the obs registry dropped its
    # histogram instrument carry a "histograms" entry in each metrics
    # snapshot; reports must still merge their counters and gauges.
    trace_dir = tmp_path / "t"
    tracer = trace.configure(trace_dir, process="parent")
    with tracer.span("batch.run_specs", key=("b",)):
        metrics.counter("batch.executed").inc(3)
        metrics.gauge("population.slo").set(0.5)
    trace.shutdown()
    legacy = {
        "counters": {"batch.executed": 2},
        "gauges": {"population.slo": {"value": 0.75, "updates": 2}},
        "histograms": {
            "lat": {
                "count": 3, "mean": 2.0, "m2": 2.0, "min": 1.0, "max": 3.0,
                "sketch": {
                    "lo": 1e-6, "hi": 1e9, "bins_per_decade": 64,
                    "counts": {"384": 1, "403": 1, "414": 1},
                },
            }
        },
    }
    with open(trace_dir / "worker-0.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "process", "proc": "worker-0",
                             "wall_s": 0.0, "mono_s": 0.0}) + "\n")
        fh.write(json.dumps({"kind": "metrics", "proc": "worker-0",
                             "snapshot": legacy}) + "\n")
    _, snapshots = sinks.merge_trace_dir(trace_dir)
    assert any("histograms" in snapshot for snapshot in snapshots)
    merged = metrics.merge_snapshots(snapshots)
    assert merged == {
        "counters": {"batch.executed": 5},
        "gauges": {"population.slo": {"value": 0.75, "updates": 2}},
    }
    text = report.render_report(trace_dir)
    assert "Counters (merged)" in text and "batch.executed" in text
    assert "Gauges (merged)" in text and "0.75" in text
