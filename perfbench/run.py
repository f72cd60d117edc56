"""The repository benchmark: population and Fig. 12 throughput, by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload city --seed 7 --seconds 15 --trace 0

Runs one workload (see ``passes.py``) pass after pass for ``--seconds``
of host time, checks every pass's output, and prints one JSON object as
the last line of standard output.  Lines before it are a human-readable
summary.

``--trace 0`` reports the end-to-end metrics, all host time:

* ``specs_per_s`` -- unique client-session specs per host second
  (median over pass groups, see ``passes.py``);
* ``sim_frames_per_s`` -- simulated frames per host second (median over
  pass groups; on ``city-rerun`` the frames are served from the cache);
* ``setup_s`` -- imports and scenario load including the trace CSVs,
  plus, for ``city-rerun``, the passes that fill the cache.  Imports and
  load run once here and then in fresh interpreters, at least three
  times in all and more while they are short, and their median is
  reported; the cache fill, many seconds of kernel work, is timed once;
* ``peak_rss_mb`` -- peak resident memory of the largest process: this
  one, a pass process or a shard worker, read after the first three
  passes so that it does not depend on how many passes fit in the
  window.

Every timed pass runs in a process forked from this one after set-up,
so each starts from the same state: imports done, scenario loaded,
module memos (the kernels' geometry, workload and render caches)
empty.  In one long-lived process those memos grow from pass to pass
and later passes run ~8% slower on ``fig12``.

``--trace 1`` alternates untraced and traced pass groups and reports the
per-layer metrics of ``layers.py`` from the traced ones; the ratio of
traced to untraced host time per simulated frame is
``bench.trace_overhead``.

A pass that raises, or whose output fails its check, counts all its
specs as failed; ``correct`` is true only when no pass failed.  No
parallel speed-up ratio is printed: ``city`` and ``city-sharded`` are
compared across runs, and ``bench.available_cpus`` records the host.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import layers
import passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run: at least this many (this process plus fresh
#: interpreters) ...
MIN_SETUPS = 3
#: ... and more while the fresh-interpreter set-ups took under this many
#: seconds, up to MAX_SETUPS: short set-ups are noisy.
SETUP_PROBE_S = 2.0
MAX_SETUPS = 15
#: Passes before peak memory is read (rounded up to whole groups).
RSS_PASSES = 3
#: Seconds a forked pass may take before it is killed and counted failed.
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "specs_per_s": "specs/s",
    "sim_frames_per_s": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=passes.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="run at the self-test size (no pinned digests)",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only time one set-up and print it (used by the benchmark itself)",
    )
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of the largest process so far: this one, a pass or a worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def timed_setup(args: argparse.Namespace, work: Path):
    """Import the program and load the workload; returns (workload, seconds)."""
    start = perf_counter()
    size = passes.TINY if args.tiny else passes.FULL
    workload = passes.make(args.workload, args.seed, size, work, passes.load_pins(size))
    workload.setup()
    return workload, perf_counter() - start


def probe_setup(args: argparse.Namespace) -> float:
    """Time one set-up in a fresh interpreter."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def probe_setups(args: argparse.Namespace, first: float) -> list[float]:
    """``first`` plus set-ups timed in fresh interpreters."""
    setups = [first]
    spent = 0.0
    while len(setups) < MIN_SETUPS or (spent < SETUP_PROBE_S and len(setups) < MAX_SETUPS):
        began = perf_counter()
        setups.append(probe_setup(args))
        spent += perf_counter() - began
    return setups


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def forked(call, *args):
    """Run ``call(*args)`` in a forked child; returns what it returned.

    The child starts from this process's state after set-up, so every
    timed pass starts alike: imports done, scenario loaded, module memos
    empty.  That inherited state is the point, hence ``fork`` rather than
    ``spawn``; the program's own process pool forks the same way.
    Raises ``ChildProcessError`` when the child fails or hangs.
    """
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_child_main, args=(send, call, args))
    child.start()
    send.close()
    try:
        if not receive.poll(CHILD_TIMEOUT_S):
            raise ChildProcessError(f"no result within {CHILD_TIMEOUT_S} s")
        try:
            return receive.recv()
        except EOFError:
            child.join()
            raise ChildProcessError(f"child exited with code {child.exitcode}") from None
    finally:
        receive.close()
        child.join(CHILD_TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()


def _child_main(send, call, args) -> None:
    send.send(call(*args))
    send.close()


def timed_pass(workload, k: int, tracer):
    """One pass in this process: (wall seconds, checked outcome, trace or None)."""
    if tracer is not None:
        tracer.begin_pass()
    try:
        began = perf_counter()
        produced = workload.run_pass(k)
        wall = perf_counter() - began
    finally:
        trace = tracer.end_pass() if tracer is not None else None
    return wall, workload.check(k, produced), trace


def run_passes(args, workload, tracer) -> dict:
    """Run whole groups of timed passes for ``args.seconds``.

    Each pass runs in its own forked process (see :func:`forked`).
    Untraced runs read peak memory once the first ``RSS_PASSES`` passes
    are done.  Traced runs alternate untraced and traced groups.
    """
    group = workload.group
    rss_groups = -(-RSS_PASSES // group)
    min_groups = max(2, -(-4 // group)) if tracer is not None else rss_groups
    attempted = failed = 0
    walls: dict[bool, list[float]] = {False: [], True: []}
    per_frame: dict[bool, list[float]] = {False: [], True: []}
    rates: list[tuple[float, float]] = []
    traces: list = []
    speedups: list[float] = []
    spill: list[int] = []
    digests: dict[int, str] = {}
    rss = 0.0
    start = perf_counter()
    groups = 0
    while groups < min_groups or perf_counter() - start < args.seconds:
        traced = tracer is not None and groups % 2 == 1
        done = []
        for k in range(groups * group, (groups + 1) * group):
            try:
                wall, outcome, trace = forked(timed_pass, workload, k, tracer if traced else None)
            except ChildProcessError as error:
                print(f"pass {k}: {error}", file=sys.stderr)
                attempted += workload.expected_specs(k)
                failed += workload.expected_specs(k)
                continue
            attempted += outcome.specs
            for error in outcome.errors:
                print(f"pass {k}: {error}", file=sys.stderr)
            if outcome.errors:
                failed += outcome.specs
                continue
            done.append((wall, outcome))
            digests[workload.pass_seed(k)] = outcome.digest
            if not math.isnan(outcome.qvr_speedup):
                speedups.append(outcome.qvr_speedup)
            if traced:
                traces.append(trace)
                spill.append(outcome.spill_bytes)
        groups += 1
        if groups == rss_groups and tracer is None:
            rss = peak_rss_mb()
        if len(done) < group:
            continue
        wall = sum(w for w, _ in done)
        specs = sum(o.specs for _, o in done)
        frames = sum(o.frames for _, o in done)
        walls[traced].append(wall)
        per_frame[traced].append(wall / frames)
        if not traced:
            rates.append((specs / wall, frames / wall))
    return {
        "passes": groups * group,
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "per_frame": per_frame,
        "rates": rates,
        "traces": traces,
        "speedups": speedups,
        "spill": spill,
        "digests": digests,
        "rss": rss,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "examples").is_dir():
        print(f"no program source under {ROOT}: src/repro and examples/ are required",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
    tempfile.tempdir = str(work)
    try:
        workload, setup_s = timed_setup(args, work)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        began = perf_counter()
        workload.prepared = forked(workload.prepare)
        prepare_s = perf_counter() - began
        tracer = None
        if args.trace:
            spool = work / "spool"
            spool.mkdir()
            tracer = layers.LayerTracer(spool)
        measured = run_passes(args, workload, tracer)
        setups = [setup_s] if args.trace else probe_setups(args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted, failed = measured["attempted"], measured["failed"]
    qvr_err = (
        abs(statistics.fmean(measured["speedups"]) - workload.anchor) / workload.anchor
        if measured["speedups"] else 0.0
    )
    print(f"# workload {args.workload}, seed {args.seed}, {measured['passes']} passes "
          f"in {args.seconds:g} s, trace {args.trace}")
    print(f"# available_cpus = {passes.available_cpus()}, workers = {workload.workers}")
    print(f"# failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} specs)")
    if args.workload == "fig12":
        print(f"# qvr_speedup_err = {qvr_err:.6g} ratio (simulated; error against the "
              "3.4 anchor the model was calibrated to, not a validation)")
    print("# report sha256 by input seed: " + ", ".join(
        f"{seed}={digest[:12]}" for seed, digest in sorted(measured["digests"].items())
    ))

    if args.trace:
        values = layers.layer_metrics(measured["traces"], sum(measured["walls"][True]))
        untraced = median_or_zero(measured["per_frame"][False])
        values["bench.trace_overhead"] = (
            median_or_zero(measured["per_frame"][True]) / untraced if untraced else 0.0
        )
        values["bench.available_cpus"] = float(passes.available_cpus())
        values["shard.spill_bytes"] = (
            statistics.fmean(measured["spill"]) if measured["spill"] else 0.0
        )
        values["fig12.qvr_speedup_err"] = qvr_err
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        rates = measured["rates"]
        values = {
            "specs_per_s": median_or_zero([specs for specs, _ in rates]),
            "sim_frames_per_s": median_or_zero([frames for _, frames in rates]),
            "setup_s": statistics.median(setups) + prepare_s,
            "peak_rss_mb": measured["rss"],
        }
        units = END_TO_END
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
