"""Outside-in layer timing for the traced benchmark run.

Nothing under ``src/`` is changed: :class:`LayerTracer` swaps each
layer's public function for a timing wrapper while a traced pass runs
and puts the originals back afterwards.  Every wrapped call is a span;
a span's *self time* is its duration minus the wrapped calls made inside
it, so self times add up without double counting and whatever the
wrappers do not cover is reported as the unattributed share.

Layer metrics and the end-to-end metric each should move:

* ``kernels.*`` (``repro.sim.runner.run``) -> ``specs_per_s`` and
  ``sim_frames_per_s`` on ``city``/``city-sharded``; the per-system
  ``kernels.ms_per_frame.<system>`` -> ``sim_frames_per_s`` on ``fig12``.
  ``kernels.runs`` reads 0 on ``city-rerun``.
* ``session.*`` (``Session.timeline``) -> ``specs_per_s`` on
  ``city-rerun`` first, ``city`` second; 0 on ``fig12``.
* ``runner.*`` (``spec_key``, ``ResultCache.get``/``put``) ->
  ``specs_per_s`` on ``city-rerun`` and ``setup_s`` on ``city-rerun``.
* ``demand.expand_s``, ``metrics.fold_s`` -> ``specs_per_s`` on
  ``city-rerun``.
* ``shard.*`` (``ShardedExecutor.execute``) -> ``specs_per_s`` and
  ``peak_rss_mb`` on ``city-sharded``.
* ``bench.*`` bound the instrument itself on every workload.

Times named ``*_s`` are self seconds per traced pass and counts are per
traced pass.  Kernel calls made inside forked shard workers are timed
there and reported through per-process spool files, so ``kernels.*``
covers ``city-sharded`` too; ``kernels.run_s`` sums the duration of every
kernel call, worker calls included, while the parent sees the workers'
time as ``shard.execute_s``.  The kernel cost split is the least-squares
intercept (``fixed_ms_per_spec``) and slope (``ms_per_frame``) of each
call's time against its frame count; on ``fig12``, whose specs are
160-320 frames long, the intercept is poorly determined and can be
negative.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

#: Systems of the Fig. 12 sweep; the population runs ``qvr`` only.
SYSTEMS = ("local", "static", "ffr", "dfr", "sw-qvr", "qvr")

#: Entries of the kernels' geometry LRU (``_GEOMETRY_CACHE_MAX``).
GEOMETRY_LRU = 8

#: Layers whose self time is accounted.
LAYERS = (
    "kernels.run",
    "session.timeline",
    "runner.spec_key",
    "runner.cache_get",
    "runner.cache_put",
    "demand.expand",
    "metrics.fold",
    "shard.execute",
)

#: Every per-layer metric with its unit and direction, as in BENCHMARK.json.
PER_LAYER = (
    ("kernels.fixed_ms_per_spec", "ms", "lower"),
    ("kernels.ms_per_frame", "ms", "lower"),
    *((f"kernels.fixed_ms_per_spec.{s}", "ms", "lower") for s in SYSTEMS),
    *((f"kernels.ms_per_frame.{s}", "ms", "lower") for s in SYSTEMS),
    ("kernels.run_s", "s", "lower"),
    ("kernels.runs", "count", "lower"),
    ("kernels.spec_ms_p50", "ms", "lower"),
    ("kernels.spec_ms_p99", "ms", "lower"),
    ("session.timeline_s", "s", "lower"),
    ("session.timeline_calls", "count", "lower"),
    ("session.epochs", "count", "lower"),
    ("runner.spec_key_s", "s", "lower"),
    ("runner.spec_key_calls", "count", "lower"),
    ("runner.cache_get_s", "s", "lower"),
    ("runner.cache_put_s", "s", "lower"),
    ("runner.cache_hit_ratio", "ratio", "higher"),
    ("demand.expand_s", "s", "lower"),
    ("metrics.fold_s", "s", "lower"),
    ("shard.execute_s", "s", "lower"),
    ("shard.first_result_s", "s", "lower"),
    ("shard.workers", "count", "higher"),
    ("shard.steals", "count", "lower"),
    ("shard.requeues", "count", "lower"),
    ("shard.spill_bytes", "B", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.available_cpus", "count", "higher"),
    ("workload.frames_per_spec_min", "frames", "higher"),
    ("workload.frames_per_spec_p50", "frames", "higher"),
    ("workload.frames_per_spec_max", "frames", "higher"),
    ("workload.specs_per_kernel_key", "ratio", "higher"),
    ("workload.reuse_distance_p50", "specs", "lower"),
    ("workload.lru_reuse_share", "ratio", "higher"),
    ("fig12.qvr_speedup_err", "ratio", "lower"),
)


def fit_line(points: list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares ``(intercept, slope)`` of ``y`` against ``x``.

    With fewer than two distinct ``x`` values the slope is the mean of
    ``y / x`` and the intercept 0: the split is unidentifiable, so all
    cost is booked per frame.
    """
    if not points:
        return 0.0, 0.0
    xs = [float(x) for x, _ in points]
    ys = [y for _, y in points]
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0, statistics.fmean(y / x for x, y in zip(xs, ys))
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    return mean_y - slope * mean_x, slope


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def spec_stream_properties(passes: list[list[tuple]]) -> dict[str, float]:
    """Frames-per-spec and kernel-key reuse of each pass's unique specs.

    Each pass is the ``(app, seed, n_frames)`` kernel key of its unique
    specs in request order.  A reuse's distance is the number of unique
    specs since the key's previous use; an 8-entry LRU over the keys (the
    size of the kernels' geometry LRU) serves the share reported as
    ``lru_reuse_share``.
    """
    frames: list[int] = []
    distances: list[int] = []
    per_key: list[float] = []
    lru_hits = 0
    total = 0
    for keys in passes:
        last_use: dict[tuple, int] = {}
        lru: OrderedDict = OrderedDict()
        for position, key in enumerate(keys):
            frames.append(key[2])
            if key in last_use:
                distances.append(position - last_use[key])
            last_use[key] = position
            if key in lru:
                lru_hits += 1
                lru.move_to_end(key)
            else:
                lru[key] = None
                if len(lru) > GEOMETRY_LRU:
                    lru.popitem(last=False)
        total += len(keys)
        if last_use:
            per_key.append(len(keys) / len(last_use))
    return {
        "workload.frames_per_spec_min": float(min(frames, default=0)),
        "workload.frames_per_spec_p50": float(percentile(frames, 50)),
        "workload.frames_per_spec_max": float(max(frames, default=0)),
        "workload.specs_per_kernel_key": statistics.fmean(per_key) if per_key else 0.0,
        "workload.reuse_distance_p50": float(percentile(distances, 50)),
        "workload.lru_reuse_share": lru_hits / total if total else 0.0,
    }


@dataclass
class PassTrace:
    """What one traced pass recorded."""

    self_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    calls: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    kernel_calls: list[tuple[str, int, float]] = field(default_factory=list)
    epochs: int = 0
    cache_hits: int = 0
    first_result_s: list[float] = field(default_factory=list)
    shard_workers: int = 0
    shard_steals: int = 0
    shard_requeues: int = 0
    specs: list = field(default_factory=list)


class LayerTracer:
    """Times calls into each layer's public functions from outside.

    :meth:`begin_pass` swaps the wrappers in and :meth:`end_pass` puts
    the originals back, so untraced passes run the unmodified program.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.owner = os.getpid()
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.trace = PassTrace()

    # -- passes -------------------------------------------------------------------

    def begin_pass(self) -> None:
        """Swap the layer functions for timing wrappers in this process."""
        from repro.sim import metrics, runner, session, shard
        from repro.sim.demand import DemandScenario

        self.owner = os.getpid()
        self.trace = PassTrace()
        self._rebind(runner.run, self._span("kernels.run", self._on_run))
        self._rebind(runner.spec_key, self._span("runner.spec_key"))
        self._patch(session.Session, "timeline",
                    self._span("session.timeline", self._on_timeline))
        self._patch(runner.ResultCache, "get",
                    self._span("runner.cache_get", self._on_cache_get))
        self._patch(runner.ResultCache, "put", self._span("runner.cache_put"))
        self._patch(DemandScenario, "expand", self._span("demand.expand"))
        self._patch(metrics.SimulationResult, "fold_into", self._span("metrics.fold"))
        self._patch(shard.ShardedExecutor, "execute", self._execute_wrapper)
        self._patch(runner.BatchEngine, "stream_specs", self._stream_wrapper)
        self._patch(runner.BatchEngine, "run_specs", self._run_specs_wrapper)

    def end_pass(self) -> PassTrace:
        """Restore the originals; returns the pass's trace, worker kernel calls included."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        trace = self.trace
        for path in sorted(self.spool.glob("kernels-*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    system, n_frames, ms = json.loads(line)
                    trace.kernel_calls.append((system, n_frames, ms))
            path.unlink()
        trace.specs = [
            (spec.app, spec.seed, spec.n_frames) for spec in dict.fromkeys(trace.specs)
        ]
        return trace

    def _patch(self, owner: object, name: str, make) -> None:
        original = getattr(owner, name)
        self._restore.append((owner, name, original))
        setattr(owner, name, make(original))

    def _rebind(self, original, make) -> None:
        """Rebind a function in every ``repro`` module that imported it."""
        wrapper = make(original)
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- spans ------------------------------------------------------------------

    def _span(self, layer: str, observe=None):
        def make(fn):
            # wraps() keeps the name, so a wrapped worker entry point
            # still pickles by reference.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if os.getpid() != self.owner:
                    return self._worker_call(layer, fn, args, kwargs)
                frame = self._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = self._exit(layer, frame)
                if observe is not None:
                    observe(args, kwargs, result, duration)
                return result

            return wrapper

        return make

    def _enter(self) -> list[float]:
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list[float]) -> float:
        duration = perf_counter() - frame[0]
        self._stack.pop()
        self.trace.self_s[layer] += duration - frame[1]
        self.trace.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def _worker_call(self, layer: str, fn, args, kwargs):
        """In a forked shard worker: spool kernel timings, pass the rest through."""
        if layer != "kernels.run":
            return fn(*args, **kwargs)
        start = perf_counter()
        result = fn(*args, **kwargs)
        duration = perf_counter() - start
        spec = args[0]
        line = json.dumps([spec.system, spec.n_frames, duration * 1000.0])
        with open(self.spool / f"kernels-{os.getpid()}.jsonl", "a") as handle:
            handle.write(line + "\n")
        return result

    def _on_run(self, args, kwargs, result, duration: float) -> None:
        spec = args[0]
        self.trace.kernel_calls.append((spec.system, spec.n_frames, duration * 1000.0))

    def _on_timeline(self, args, kwargs, result, duration: float) -> None:
        self.trace.epochs += len(result.epochs)

    def _on_cache_get(self, args, kwargs, result, duration: float) -> None:
        self.trace.cache_hits += result is not None

    # -- generators and spec streams ----------------------------------------------

    def _execute_wrapper(self, original):
        def execute(executor, specs):
            return self._timed_execute(executor, original(executor, specs))

        return execute

    def _timed_execute(self, executor, inner):
        """Time every resumption of the executor's generator as one span."""
        start = perf_counter()
        first = True
        while True:
            frame = self._enter()
            try:
                item = next(inner)
            except StopIteration:
                break
            finally:
                self._exit("shard.execute", frame)
            if first:
                self.trace.first_result_s.append(perf_counter() - start)
                first = False
            yield item
        stats = executor.stats
        self.trace.shard_workers = max(self.trace.shard_workers, stats.workers)
        self.trace.shard_steals += stats.steals
        self.trace.shard_requeues += stats.requeues

    def _stream_wrapper(self, original):
        def stream_specs(engine, specs):
            return original(engine, self._recorded(specs))

        return stream_specs

    def _run_specs_wrapper(self, original):
        def run_specs(engine, specs):
            specs = list(specs)
            self.trace.specs.extend(specs)
            return original(engine, specs)

        return run_specs

    def _recorded(self, specs):
        sink = self.trace.specs
        for spec in specs:
            sink.append(spec)
            yield spec



def layer_metrics(traces: list[PassTrace], traced_wall_s: float) -> dict[str, float]:
    """Per-layer figures averaged over the traced passes."""
    per_pass = max(len(traces), 1)
    self_s = {layer: sum(t.self_s[layer] for t in traces) / per_pass for layer in LAYERS}
    calls = {layer: sum(t.calls[layer] for t in traces) / per_pass for layer in LAYERS}
    kernel_calls = [call for t in traces for call in t.kernel_calls]
    out: dict[str, float] = {}
    timings = [(n, ms) for _, n, ms in kernel_calls]
    out["kernels.fixed_ms_per_spec"], out["kernels.ms_per_frame"] = fit_line(timings)
    for system in SYSTEMS:
        fixed, per_frame = fit_line([(n, ms) for s, n, ms in kernel_calls if s == system])
        out[f"kernels.fixed_ms_per_spec.{system}"] = fixed
        out[f"kernels.ms_per_frame.{system}"] = per_frame
    kernel_ms = [ms for _, ms in timings]
    out["kernels.run_s"] = sum(kernel_ms) / 1000.0 / per_pass
    out["kernels.runs"] = len(kernel_ms) / per_pass
    out["kernels.spec_ms_p50"] = percentile(kernel_ms, 50)
    out["kernels.spec_ms_p99"] = percentile(kernel_ms, 99)
    out["session.timeline_s"] = self_s["session.timeline"]
    out["session.timeline_calls"] = calls["session.timeline"]
    out["session.epochs"] = sum(t.epochs for t in traces) / per_pass
    out["runner.spec_key_s"] = self_s["runner.spec_key"]
    out["runner.spec_key_calls"] = calls["runner.spec_key"]
    out["runner.cache_get_s"] = self_s["runner.cache_get"]
    out["runner.cache_put_s"] = self_s["runner.cache_put"]
    gets = calls["runner.cache_get"] * per_pass
    hits = sum(t.cache_hits for t in traces)
    out["runner.cache_hit_ratio"] = hits / gets if gets else 0.0
    out["demand.expand_s"] = self_s["demand.expand"]
    out["metrics.fold_s"] = self_s["metrics.fold"]
    out["shard.execute_s"] = self_s["shard.execute"]
    first = [s for t in traces for s in t.first_result_s]
    out["shard.first_result_s"] = statistics.median(first) if first else 0.0
    out["shard.workers"] = float(max((t.shard_workers for t in traces), default=0))
    out["shard.steals"] = sum(t.shard_steals for t in traces) / per_pass
    out["shard.requeues"] = sum(t.shard_requeues for t in traces) / per_pass
    attributed = sum(self_s.values()) * per_pass
    out["bench.unattributed_share"] = (
        1.0 - attributed / traced_wall_s if traced_wall_s > 0 else 0.0
    )
    out.update(spec_stream_properties([t.specs for t in traces]))
    return out
