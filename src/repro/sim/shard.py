"""Sharded batch execution with an optional spill-to-disk result stream.

This is the one executor underneath :class:`~repro.sim.runner.
BatchEngine`: every uncached run goes through :class:`ShardedExecutor`.
The spec list is partitioned into contiguous **shards**, and every mode
runs a shard's specs through the same per-spec loop.

Results spill to disk only when a run can be resumed.  With a
``stream_dir``, every completed run is appended as a pickle frame to a
per-shard result file (:class:`ResultStream`), so an interrupted sweep
resumes from the spill files and a killed worker's shard is requeued
without losing the frames it already wrote.  Without one, nothing
touches disk: inline runs yield each result as it completes, and pool
workers return their shard's frames through the future.

Three execution modes:

* ``inline`` — shards run one after another in this process (the serial
  reference; process mode with one worker or one shard runs this way
  too, and it is the subprocess parent's fallback when every worker has
  died);
* ``process`` — every pending shard is submitted up front to a
  ``concurrent.futures`` process pool, whose free processes take them in
  order;
* ``subprocess`` — the simulated multi-machine mode: independent
  ``python -m repro.sim.shard`` worker processes claim shards from the
  spool directory via atomic claim files, heartbeat while executing,
  and steal unclaimed shards from the tail once their own partition is
  drained.  The parent requeues any shard whose claimant died or whose
  heartbeat went stale, so a ``SIGKILL``-ed worker's shard is stolen
  and re-executed — deterministically, because every run derives all
  randomness from its spec.  Its workers need the files, so this mode
  always spools: into a temporary directory when no ``stream_dir`` is
  given.

Determinism contract: shard planning is a pure function of the spec
list, frames within a shard are produced in spec order, and each run is
bit-reproducible from its spec — so results, and the stream's contents,
are identical at any shard count, worker count, mode, and across
crash/requeue or interrupt/resume cycles.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.obs import clock as obs_clock
from repro.obs import trace as obs_trace
from repro.sim.metrics import SimulationResult
from repro.sim.runner import RunSpec, run, spec_key

__all__ = [
    "Shard",
    "ShardStats",
    "ShardedExecutor",
    "ResultStream",
    "SHARD_MODES",
    "plan_shards",
]

#: Execution modes of the sharded executor (see the module docstring).
SHARD_MODES = ("inline", "process", "subprocess")

#: Heartbeat period (seconds) subprocess workers refresh their claim at.
DEFAULT_HEARTBEAT_S = 1.0

#: A claim whose heartbeat is older than this many periods is stale.
_STALE_HEARTBEATS = 4

#: Test hook: sleep this many milliseconds after each spec execution in a
#: subprocess worker, widening the mid-shard window fault tests kill in.
_DELAY_ENV = "REPRO_SHARD_SPEC_DELAY_MS"

#: What a torn or garbage frame tail surfaces as: the pickle machinery
#: raises different exception types depending on where the bytes were cut
#: (mid-length prefix, unknown opcode, bad protocol marker, missing
#: global), and all of them mean the same thing here — end of the valid
#: prefix.
_TORN_FRAME_ERRORS = (
    EOFError,
    pickle.UnpicklingError,
    AttributeError,
    ValueError,
    IndexError,
    KeyError,
)


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a sweep's spec list."""

    index: int
    specs: tuple[RunSpec, ...]

    def __len__(self) -> int:
        return len(self.specs)


def plan_shards(specs: Sequence[RunSpec], shards: int) -> tuple[Shard, ...]:
    """Partition ``specs`` into at most ``shards`` contiguous shards.

    A pure function of the inputs: sizes differ by at most one (the
    remainder lands on the leading shards), order is preserved, and a
    request for more shards than specs degrades to one-spec shards —
    empty shards are never produced, so every planned shard does work.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    specs = list(specs)
    if not specs:
        return ()
    shards = min(shards, len(specs))
    base, extra = divmod(len(specs), shards)
    planned = []
    cursor = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        planned.append(Shard(index=index, specs=tuple(specs[cursor : cursor + size])))
        cursor += size
    return tuple(planned)


def _plan_digest(specs: Sequence[RunSpec], shards: int) -> str:
    """Content hash binding a result stream to one (spec list, shards) plan."""
    hasher = hashlib.sha256()
    hasher.update(str(shards).encode())
    for spec in specs:
        hasher.update(spec_key(spec).encode())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# The on-disk result stream
# ---------------------------------------------------------------------------


class ResultStream:
    """Append-only per-shard result files with a manifest index.

    Layout of the stream directory::

        manifest.json       the shard plan: n_shards, spec count, digest
        shard-0007.spec     pickled Shard (subprocess workers read these)
        shard-0007.part     in-progress frames (appended, flushed per spec)
        shard-0007.results  completed shard (atomic rename of the .part)
        shard-0007.claim    subprocess-mode ownership + heartbeat (mtime)
        shard-0007.owner    who completed the shard (provenance)

    Each frame is one ``pickle.dump((spec, result))``, written in spec
    order and flushed immediately, so readers observe a valid prefix at
    every instant and a truncated tail (from a crash mid-write) is
    detected and discarded on the next scan.
    """

    MANIFEST = "manifest.json"

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def results_path(self, index: int) -> Path:
        """Completed-results file for shard ``index``."""
        return self.directory / f"shard-{index:04d}.results"

    def part_path(self, index: int) -> Path:
        """In-progress partial file for shard ``index``."""
        return self.directory / f"shard-{index:04d}.part"

    def spec_path(self, index: int) -> Path:
        """Pickled spec list for shard ``index``."""
        return self.directory / f"shard-{index:04d}.spec"

    def claim_path(self, index: int) -> Path:
        """Work-stealing claim marker for shard ``index``."""
        return self.directory / f"shard-{index:04d}.claim"

    def owner_path(self, index: int) -> Path:
        """Claim-owner record for shard ``index``."""
        return self.directory / f"shard-{index:04d}.owner"

    # -- manifest ------------------------------------------------------------

    def write_manifest(self, shards: Sequence[Shard], digest: str) -> None:
        """Record the shard plan; validate instead when one already exists.

        A stream directory is bound to exactly one plan: resuming with a
        different spec list or shard count would silently interleave two
        sweeps' results, so a digest mismatch fails loudly.
        """
        path = self.directory / self.MANIFEST
        payload = {
            "version": 1,
            "n_shards": len(shards),
            "n_specs": sum(len(s) for s in shards),
            "digest": digest,
        }
        if path.exists():
            existing = json.loads(path.read_text())
            if existing.get("digest") != digest:
                raise ConfigurationError(
                    f"result stream at {self.directory} was created for a "
                    "different sweep (spec list or shard count changed); "
                    "use a fresh stream directory per sweep configuration"
                )
            return
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, path)

    # -- shard spec spool (subprocess mode) -----------------------------------

    def write_shard_specs(self, shards: Sequence[Shard]) -> None:
        """Spool each shard's spec list for subprocess workers to claim."""
        for shard in shards:
            path = self.spec_path(shard.index)
            if path.exists():
                continue
            tmp = path.with_suffix(".tmp")
            with tmp.open("wb") as handle:
                pickle.dump(shard, handle)
            os.replace(tmp, path)

    def load_shard(self, index: int) -> Shard:
        """Load one spooled shard description."""
        with self.spec_path(index).open("rb") as handle:
            shard = pickle.load(handle)
        if not isinstance(shard, Shard) or shard.index != index:
            raise ConfigurationError(
                f"corrupt shard spool entry {self.spec_path(index)}"
            )
        return shard

    def spooled_indices(self) -> list[int]:
        """Indices of every spooled shard, ascending."""
        return sorted(
            int(path.stem.split("-")[1])
            for path in self.directory.glob("shard-*.spec")
        )

    # -- completion state ------------------------------------------------------

    def completed_shards(self) -> list[int]:
        """Indices of shards whose result files are complete, ascending."""
        return sorted(
            int(path.stem.split("-")[1])
            for path in self.directory.glob("shard-*.results")
        )

    def is_complete(self, index: int) -> bool:
        """True when shard ``index`` has a completed results file."""
        return self.results_path(index).exists()

    # -- reading ---------------------------------------------------------------

    @staticmethod
    def _iter_frames(path: Path) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Yield the valid frame prefix of one shard file, one at a time."""
        try:
            handle = path.open("rb")
        except OSError:
            return
        with handle:
            while True:
                try:
                    frame = pickle.load(handle)
                except _TORN_FRAME_ERRORS:
                    return
                if not isinstance(frame, tuple) or len(frame) != 2:
                    return
                yield frame

    def salvageable(self, shard: Shard) -> tuple[int, int]:
        """Frames and bytes of ``shard``'s partial file that a resume keeps.

        The prefix ends at the first torn frame or spec out of order.
        """
        count = offset = 0
        try:
            handle = self.part_path(shard.index).open("rb")
        except OSError:
            return 0, 0
        with handle:
            while count < len(shard.specs):
                try:
                    frame = pickle.load(handle)
                except _TORN_FRAME_ERRORS:
                    break
                if (
                    not isinstance(frame, tuple)
                    or len(frame) != 2
                    or frame[0] != shard.specs[count]
                ):
                    break
                offset = handle.tell()
                count += 1
        return count, offset

    def iter_shard(self, index: int) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Yield one completed shard's ``(spec, result)`` frames in order."""
        yield from self._iter_frames(self.results_path(index))

    def iter_results(self) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Yield every completed frame, shard by shard, lazily from disk."""
        for index in self.completed_shards():
            yield from self.iter_shard(index)

    def __len__(self) -> int:
        """Completed frames on disk (consumes only counters, not results)."""
        return sum(1 for _ in self.iter_results())


class _ShardWriter:
    """Appends one shard's frames, salvaging any valid prefix on resume.

    Opening the writer scans an existing ``.part`` file left by a crashed
    or interrupted run: frames whose specs match the shard's spec order
    are kept (their byte prefix is preserved verbatim, so the final file
    is bit-identical to an uninterrupted run), everything after the first
    mismatch or torn frame is truncated, and execution resumes at
    :attr:`start`.
    """

    def __init__(self, stream: ResultStream, shard: Shard) -> None:
        self.stream = stream
        self.shard = shard
        self.part = stream.part_path(shard.index)
        self.start, offset = stream.salvageable(shard)
        self._handle = self.part.open("r+b" if self.part.exists() else "wb")
        self._handle.truncate(offset)
        self._handle.seek(offset)
        self._written = self.start

    def append(self, spec: RunSpec, result: SimulationResult) -> None:
        """Append one (spec, result) record and flush it to disk."""
        pickle.dump((spec, result), self._handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._handle.flush()
        self._written += 1

    def close(self, completed: bool) -> None:
        """Close the writer; on completion, publish the results file."""
        self._handle.close()
        if completed:
            if self._written != len(self.shard.specs):
                raise ConfigurationError(
                    f"shard {self.shard.index} closed as complete with "
                    f"{self._written}/{len(self.shard.specs)} frames"
                )
            os.replace(self.part, self.stream.results_path(self.shard.index))


# ---------------------------------------------------------------------------
# Shard execution (shared by every mode)
# ---------------------------------------------------------------------------


def _run_shard(
    shard: Shard,
    writer: _ShardWriter | None,
    engine: str | None,
    tracer,
    heartbeat: Callable[[], None] | None = None,
    delay_ms: float = 0.0,
) -> Iterator[tuple[RunSpec, SimulationResult]]:
    """Run one shard's specs in order, yielding each executed frame.

    The one per-spec execution loop of every mode.  With a ``writer``,
    execution resumes after its salvaged prefix, each frame is appended
    to the shard's spill file before it is yielded, and the file is
    published as complete when the loop finishes (or left partial if it
    is interrupted).  Without one, nothing touches disk.  An engine
    override rewrites how each spec executes; the *requested* spec is
    what is yielded and spilled, so results are override-invariant.
    When tracing, each spec gets one execute span (keyed by shard
    ordinal + spec key) and a salvaged prefix one resume event.
    """
    start = 0 if writer is None else writer.start
    if start and tracer.enabled:
        tracer.instant(
            "shard.resume", key=("resume", shard.index, start),
            shard=shard.index, salvaged=start,
        )
    try:
        for spec in shard.specs[start:]:
            job = spec if engine is None else replace(spec, engine=engine)
            key = (shard.index, spec_key(job)) if tracer.enabled else None
            with tracer.span("shard.execute", key=key, shard=shard.index):
                result = run(job)
            if writer is not None:
                writer.append(spec, result)
            yield spec, result
            if heartbeat is not None:
                heartbeat()
            if delay_ms > 0.0:
                time.sleep(delay_ms / 1000.0)
    except BaseException:
        if writer is not None:
            writer.close(completed=False)
        raise
    if writer is not None:
        writer.close(completed=True)


def _execute_shard(
    shard: Shard,
    stream_dir: str | os.PathLike | None,
    engine: str | None,
    delay_ms: float = 0.0,
    heartbeat: Callable[[], None] | None = None,
    trace_dir: str | None = None,
) -> tuple[int, list[tuple[RunSpec, SimulationResult]]]:
    """Run one shard in a worker; returns ``(executed, frames)``.

    Without a ``stream_dir`` the frames travel back in the return value
    (through the pool's future).  With one they are spilled instead and
    the returned list is empty: a completed shard is a no-op, and a
    partial ``.part`` file resumes after its salvaged prefix.  With
    ``trace_dir`` set, a fork-safe per-process tracer records the spans.
    """
    tracer = obs_trace.ensure(trace_dir)
    if stream_dir is None:
        frames = list(_run_shard(shard, None, engine, tracer))
        return len(frames), frames
    stream = ResultStream(stream_dir)
    if stream.is_complete(shard.index):
        return 0, []
    writer = _ShardWriter(stream, shard)
    frames = _run_shard(shard, writer, engine, tracer, heartbeat, delay_ms)
    return sum(1 for _ in frames), []


# ---------------------------------------------------------------------------
# Executor statistics
# ---------------------------------------------------------------------------


@dataclass
class ShardStats:
    """Accounting of one sharded execution."""

    shards: int = 0
    specs: int = 0
    executed: int = 0
    salvaged: int = 0
    skipped_shards: int = 0
    steals: int = 0
    requeues: int = 0
    workers: int = 0
    inline_fallback: int = 0


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class ShardedExecutor:
    """Execution of spec shards, spilling to a result stream when resumable.

    Parameters
    ----------
    shards:
        Target shard count (capped at the spec count).
    workers:
        Concurrent workers (ignored by ``inline`` mode).
    mode:
        One of :data:`SHARD_MODES`.
    stream_dir:
        Directory for the :class:`ResultStream`.  Reusing a directory
        resumes the identical sweep: completed shards are skipped, a
        partial shard resumes after its salvaged prefix.  None keeps
        results off disk (``subprocess`` mode spools to a temporary
        directory instead, removed when execution finishes).
    engine:
        Optional execution-engine override (``"vector"`` / ``"scalar"``)
        applied at execution only; yielded frames keep requested specs.
    heartbeat_s:
        Subprocess-mode heartbeat period; a claim is considered stale —
        and its shard requeued for stealing — after four missed beats.
    """

    def __init__(
        self,
        shards: int = 4,
        workers: int = 1,
        mode: str = "inline",
        stream_dir: str | os.PathLike | None = None,
        engine: str | None = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        if mode not in SHARD_MODES:
            raise ConfigurationError(
                f"unknown shard mode {mode!r}; known: {SHARD_MODES}"
            )
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if heartbeat_s <= 0:
            raise ConfigurationError("heartbeat_s must be > 0")
        self.shards = shards
        self.workers = workers
        self.mode = mode
        self.engine = engine
        self.heartbeat_s = heartbeat_s
        self._stream_dir = stream_dir
        self._tempdir = None
        self.stats = ShardStats()
        self.stream: ResultStream | None = None

    def _resolve_stream(self) -> ResultStream | None:
        """The configured stream, a temporary subprocess spool, or None."""
        directory = self._stream_dir
        if directory is None and self.mode == "subprocess":
            self._tempdir = tempfile.TemporaryDirectory(prefix="qvr-shards-")
            directory = self._tempdir.name
        self.stream = None if directory is None else ResultStream(directory)
        return self.stream

    def cleanup(self) -> None:
        """Remove the temporary spool directory, when this executor owns one."""
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    # -- public API -----------------------------------------------------------

    def execute(
        self, specs: Iterable[RunSpec]
    ) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Execute specs shard by shard, yielding frames as they complete.

        Each planned spec is yielded exactly once, and memory stays
        bounded by one shard plus whatever the consumer retains.  Yield
        order follows *completion* order, which is timing-dependent with
        more than one worker — consumers key by spec, and the on-disk
        stream itself is deterministic.
        """
        planned = plan_shards(list(specs), self.shards)
        self.stats.shards = len(planned)
        self.stats.specs = sum(len(s) for s in planned)
        if not planned:
            return
        stream = self._resolve_stream()
        try:
            pending = list(planned)
            if stream is not None:
                digest = _plan_digest(
                    [s for shard in planned for s in shard.specs], len(planned)
                )
                stream.write_manifest(planned, digest)
                done = set(stream.completed_shards())
                pending = [shard for shard in planned if shard.index not in done]
                self.stats.skipped_shards = len(planned) - len(pending)
                for index in sorted(done):
                    yield from stream.iter_shard(index)
            if not pending:
                return
            one_worker = len(pending) == 1 or self.workers == 1
            if self.mode == "inline" or (self.mode == "process" and one_worker):
                # A single process-pool worker is sequential execution with
                # pickling overhead; run the reference inline order instead.
                yield from self._run_inline(pending)
            elif self.mode == "process":
                yield from self._run_pool(pending)
            else:
                yield from self._run_subprocess(pending)
        finally:
            self.cleanup()

    # -- inline ---------------------------------------------------------------

    def _run_inline(
        self, pending: list[Shard]
    ) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Execute shards in this process, yielding frames as they finish.

        Results cross no process boundary here, so each frame is yielded
        live.  With a stream every frame is also spilled (same resume and
        provenance contract as the other modes), and a salvaged prefix is
        replayed from disk before execution resumes after it.
        """
        tracer = obs_trace.active()
        for shard in pending:
            writer = None
            if self.stream is not None:
                writer = _ShardWriter(self.stream, shard)
                self.stats.salvaged += writer.start
                if writer.start:
                    # The writer truncated the spill to exactly the salvaged
                    # prefix, so a plain scan replays just those frames.
                    yield from ResultStream._iter_frames(
                        self.stream.part_path(shard.index)
                    )
            for frame in _run_shard(shard, writer, self.engine, tracer):
                self.stats.executed += 1
                yield frame

    # -- process pool ----------------------------------------------------------

    def _run_pool(
        self, pending: list[Shard]
    ) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Run every pending shard on a process pool, yielding as shards finish.

        All shards are submitted up front; the pool's free processes take
        them in order.  Without a stream a worker returns its shard's
        frames through the future; with one it spills them, and the
        completed shard file is read back here.
        """
        stream = self.stream
        workers = min(self.workers, len(pending))
        self.stats.workers = workers
        stream_dir = None if stream is None else str(stream.directory)
        trace_dir = obs_trace.active().directory
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _execute_shard, shard, stream_dir, self.engine,
                    trace_dir=trace_dir,
                ): shard
                for shard in pending
            }
            try:
                for future in concurrent.futures.as_completed(futures):
                    # Popped so a yielded shard's results are not retained.
                    shard = futures.pop(future)
                    executed, frames = future.result()
                    self.stats.executed += executed
                    if stream is not None:
                        self.stats.salvaged += len(shard) - executed
                        frames = stream.iter_shard(shard.index)
                    yield from frames
            finally:
                # An abandoned or failed sweep must not wait for the rest.
                for future in futures:
                    future.cancel()

    # -- subprocess (simulated multi-machine) -----------------------------------

    def _run_subprocess(
        self, pending: list[Shard]
    ) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Spool shards, launch claim-based workers, police heartbeats.

        The parent's only runtime roles are liveness and completion: it
        requeues shards whose claimant died or stopped heartbeating (the
        surviving workers then steal them), and falls back to inline
        execution if every worker has exited with work still pending, so
        the sweep always completes.  Once the workers are gone, each
        shard a worker completed outside its own partition counts as a
        steal.
        """
        stream = self.stream
        stream.write_shard_specs(pending)
        salvaged = {shard.index: stream.salvageable(shard)[0] for shard in pending}
        self.stats.salvaged += sum(salvaged.values())
        workers = min(self.workers, len(pending))
        self.stats.workers = workers
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.sim.shard",
                    "--spool",
                    str(stream.directory),
                    "--worker-id",
                    str(worker),
                    "--workers",
                    str(workers),
                    "--heartbeat",
                    str(self.heartbeat_s),
                ]
                + ([] if self.engine is None else ["--engine", self.engine])
                + (
                    []
                    if obs_trace.active().directory is None
                    else ["--trace", obs_trace.active().directory]
                ),
                env=env,
            )
            for worker in range(workers)
        ]
        stale_after = self.heartbeat_s * _STALE_HEARTBEATS
        remaining = {shard.index: shard for shard in pending}
        try:
            while remaining:
                for index in sorted(remaining):
                    if stream.is_complete(index):
                        shard = remaining.pop(index)
                        self.stats.executed += len(shard.specs) - salvaged[index]
                        yield from stream.iter_shard(index)
                if not remaining:
                    break
                self._requeue_stale(remaining, stale_after)
                if all(proc.poll() is not None for proc in procs):
                    # Every worker exited; run what is left ourselves.
                    for index in sorted(remaining):
                        shard = remaining.pop(index)
                        if not stream.is_complete(index):
                            stream.claim_path(index).unlink(missing_ok=True)
                            obs_trace.active().instant(
                                "shard.fallback", key=("fallback", index),
                                shard=index,
                            )
                            _execute_shard(
                                shard, stream.directory, self.engine,
                                trace_dir=obs_trace.active().directory,
                            )
                            self.stats.inline_fallback += 1
                            _write_owner(stream, index, "parent")
                        self.stats.executed += len(shard.specs) - salvaged[index]
                        yield from stream.iter_shard(index)
                    break
                time.sleep(min(0.05, self.heartbeat_s / 4))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            for shard in pending:
                owner = stream.owner_path(shard.index)
                home = f"worker-{shard.index % workers}\n"
                if owner.exists() and owner.read_text() not in (home, "parent\n"):
                    self.stats.steals += 1

    def _requeue_stale(self, remaining: dict[int, Shard], stale_after: float) -> None:
        """Release claims whose owner died or whose heartbeat went stale."""
        now = obs_clock.wall_s()
        for index in list(remaining):
            claim = self.stream.claim_path(index)
            if self.stream.is_complete(index) or not claim.exists():
                continue
            try:
                payload = json.loads(claim.read_text())
                pid = int(payload.get("pid", -1))
                beat = claim.stat().st_mtime
            except (OSError, ValueError):
                continue  # torn claim write; judge it next poll
            dead = not _pid_alive(pid)
            if dead or now - beat > stale_after:
                claim.unlink(missing_ok=True)
                self.stats.requeues += 1
                obs_trace.active().instant(
                    "shard.requeue", key=("requeue", index, self.stats.requeues),
                    shard=index, owner_pid=pid, dead=dead,
                )


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _write_owner(stream: ResultStream, index: int, owner: str) -> None:
    try:
        stream.owner_path(index).write_text(owner + "\n")
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Subprocess worker entry point (``python -m repro.sim.shard``)
# ---------------------------------------------------------------------------


def _claim(stream: ResultStream, index: int, worker: int) -> bool:
    """Atomically claim one shard; False when another worker holds it."""
    try:
        fd = os.open(stream.claim_path(index), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        json.dump({"pid": os.getpid(), "worker": worker}, handle)
    return True


def _next_claimable(stream: ResultStream, worker: int, workers: int) -> tuple[int, bool] | None:
    """The next shard this worker should take, and whether it is a steal.

    Own-partition shards (``index % workers == worker``) come first in
    ascending order; once the partition is drained, unclaimed shards are
    stolen from the tail (descending index) — the work-stealing
    discipline that keeps every machine busy through stragglers.
    """
    spooled = stream.spooled_indices()
    candidates = [i for i in spooled if not stream.is_complete(i) and not stream.claim_path(i).exists()]
    own = [i for i in candidates if i % workers == worker]
    if own:
        return own[0], False
    if candidates:
        return candidates[-1], True
    return None


def worker_main(argv: list[str] | None = None) -> int:
    """Claim-execute-heartbeat loop of one subprocess shard worker."""
    import argparse

    parser = argparse.ArgumentParser(description=worker_main.__doc__)
    parser.add_argument("--spool", required=True, help="stream/spool directory")
    parser.add_argument("--worker-id", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--engine", default=None)
    parser.add_argument("--heartbeat", type=float, default=DEFAULT_HEARTBEAT_S)
    parser.add_argument("--trace", default=None, help="obs trace directory")
    args = parser.parse_args(argv)

    label = f"worker-{args.worker_id}"
    tracer = obs_trace.ensure(args.trace, process=label)
    stream = ResultStream(args.spool)
    delay_ms = float(os.environ.get(_DELAY_ENV, "0") or "0")
    last_beat = obs_clock.monotonic_s()

    def heartbeat_for(index: int) -> Callable[[], None]:
        """Build the liveness heartbeat callback for shard ``index``."""
        claim = stream.claim_path(index)

        def beat() -> None:
            """Touch the claim mtime to signal this worker is alive."""
            nonlocal last_beat
            now = obs_clock.monotonic_s()
            if now - last_beat >= args.heartbeat / 2:
                try:
                    os.utime(claim)
                except OSError:
                    pass
                last_beat = now
                tracer.instant("shard.heartbeat", shard=index, worker=args.worker_id)

        return beat

    while True:
        claimable = _next_claimable(stream, args.worker_id, args.workers)
        if claimable is None:
            obs_trace.shutdown()
            return 0
        index, stolen = claimable
        if not _claim(stream, index, args.worker_id):
            continue  # lost the race; look again
        tracer.instant(
            "shard.claim", key=("claim", index, args.worker_id),
            shard=index, worker=args.worker_id, stolen=stolen,
        )
        if stolen:
            tracer.instant(
                "shard.steal", key=("steal", index),
                shard=index, worker=args.worker_id,
            )
        try:
            shard = stream.load_shard(index)
            _execute_shard(
                shard,
                stream.directory,
                args.engine,
                delay_ms=delay_ms,
                heartbeat=heartbeat_for(index),
                trace_dir=args.trace,
            )
            _write_owner(stream, index, label)
        finally:
            stream.claim_path(index).unlink(missing_ok=True)


if __name__ == "__main__":  # pragma: no cover — exercised via subprocess tests
    # `python -m repro.sim.shard` loads this file as ``__main__``; delegate to
    # the canonically imported module so pickled Shard objects (restored as
    # ``repro.sim.shard.Shard``) pass the isinstance checks in load_shard.
    from repro.sim.shard import worker_main as _canonical_worker_main

    raise SystemExit(_canonical_worker_main())
