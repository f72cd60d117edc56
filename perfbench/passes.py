"""The benchmark's workloads: set-up, one timed pass, and its output check.

Every workload is a closed loop with one caller: a pass is one blocking
call into a public entry point, and the next pass starts when it
returns.

* ``city`` -- ``run_population`` on the first sessions of
  ``examples/population.json`` under both policies, flat in-process
  engine, no cache (the ``repro population`` defaults).  Short specs
  with trace/LTE/Markov links and fleet schedules, every session with
  its own seed: shows per-spec fixed cost.
* ``city-rerun`` -- the same slice against an on-disk ``ResultCache``
  that set-up filled.  Every spec is a cache hit and the kernel is never
  called: shows planning, spec hashing and cache reads.
* ``fig12`` -- ``fig12_performance`` (6 systems x 7 apps) on the
  default constant Wi-Fi link with long specs: shows per-frame kernel
  cost, with no planning.
* ``city-sharded`` -- the ``city`` slice through
  ``BatchEngine(shards=4, shard_mode="process")`` with
  ``min(2, available CPUs)`` workers: shows ``sim/shard.py`` including
  its spill and re-read streams.

Pass ``k`` of a run with ``--seed n`` uses the input seed
``(n + k) % POOL``, and ``city-rerun`` cycles through the
``RERUN_SEEDS`` seeds it filled the cache with before timing.  Every
seed of the pool has its report digest pinned in ``pins.json``, so each
pass of each workload is checked against the same reference: the
population report is bit-identical across ``city``, ``city-rerun`` and
``city-sharded``.

Passes are measured in groups of ``group`` consecutive passes: one pass
for the population workloads, one per spec length for ``fig12`` and one
per filled seed for ``city-rerun``, so every group holds the same mix of
work and a group's rate is a like-for-like sample.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().with_name("pins.json")
SCENARIO = ROOT / "examples" / "population.json"

#: Input seeds cycle through this many values, all pinned.  A multiple
#: of the three ``fig12`` spec lengths, so consecutive seeds cycle them,
#: and well above the ~30 ``fig12`` passes a 15 s run makes today.
POOL = 180
#: Seeds a ``city-rerun`` set-up fills the cache for.  Rerun cost per
#: spec differs by up to ~20% between seeds (a few sessions with many
#: epochs dominate), so fewer seeds make the run-to-run spread that of
#: the seeds.
RERUN_SEEDS = 8

WORKLOADS = ("city", "city-rerun", "fig12", "city-sharded")


@dataclass(frozen=True)
class Size:
    """Input size of every workload."""

    sessions: int
    fig12_frames: tuple[int, ...]


#: The benchmark's size: 120 sessions is ~500 client-session specs.
FULL = Size(sessions=120, fig12_frames=(160, 240, 320))
#: A tiny size for the harness self-test; no digests are pinned for it.
TINY = Size(sessions=3, fig12_frames=(12, 16, 20))


@dataclass
class Outcome:
    """What one pass produced, and whether its output checked out."""

    specs: int
    frames: int
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    qvr_speedup: float = math.nan
    spill_bytes: int = 0


def input_seed(seed: int, k: int) -> int:
    """The input seed of pass ``k`` of a run started with ``seed``."""
    return (seed + k) % POOL


def available_cpus() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without an affinity API
        return os.cpu_count() or 1


def sha256_json(value: object) -> str:
    """SHA-256 of the canonical JSON of ``value``."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def load_pins(size: Size) -> dict:
    """Pinned outputs per input seed, or empty when ``size`` is not pinned."""
    pins = json.loads(PINS.read_text())
    if (
        pins["population"]["sessions"] != size.sessions
        or tuple(pins["fig12"]["frames"]) != size.fig12_frames
    ):
        return {}
    return pins


class Population:
    """``city``, ``city-rerun`` and ``city-sharded``: one population slice."""

    def __init__(self, mode: str, seed: int, size: Size, work: Path, pins: dict) -> None:
        self.mode = mode
        self.seed = seed
        self.size = size
        self.work = work
        self.pins = pins.get("population", {}).get("seeds", {})
        self.workers = 1
        self.group = RERUN_SEEDS if mode == "rerun" else 1
        self.cache = work / "cache"
        self.prepared: dict[int, str] = {}

    def setup(self) -> None:
        """Import the program and load the scenario with its trace CSVs."""
        from repro.sim.demand import DemandScenario, run_population
        from repro.sim.runner import BatchEngine

        self._run_population = run_population
        self._engine = BatchEngine
        self.scenario = DemandScenario.from_json(str(SCENARIO))
        if self.mode == "sharded":
            self.workers = min(2, available_cpus())

    def prepare(self) -> dict[int, str]:
        """For a rerun, fill the cache with one flat pass per seed it cycles through.

        Returns the filled reports' digests by seed; the caller stores
        them as :attr:`prepared` (the fill may run in another process).
        """
        filled = {}
        for k in range(self.group if self.mode == "rerun" else 0):
            report = self._run_population(
                self.scenario,
                seed=self.pass_seed(k),
                engine=self._engine(cache_dir=self.cache),
                max_sessions=self.size.sessions,
            )
            filled[self.pass_seed(k)] = sha256_json(report)
        return filled

    def pass_seed(self, k: int) -> int:
        """Input seed of pass ``k``; a rerun cycles through the seeds it filled."""
        return input_seed(self.seed, k % self.group if self.mode == "rerun" else k)

    def run_pass(self, k: int):
        """One blocking ``run_population`` call; returns (report, engine)."""
        if self.mode == "flat":
            engine = self._engine()
        elif self.mode == "rerun":
            engine = self._engine(cache_dir=self.cache)
        else:
            engine = self._engine(
                jobs=self.workers, shards=4, shard_mode="process",
                stream_dir=self.work / f"stream-{k}",
            )
        report = self._run_population(
            self.scenario,
            seed=self.pass_seed(k),
            engine=engine,
            max_sessions=self.size.sessions,
        )
        return report, engine

    def check(self, k: int, produced) -> Outcome:
        """Check one pass's report; drop its spill stream."""
        report, engine = produced
        seed = self.pass_seed(k)
        frames = sum(p["frames"] for p in report["policies"].values())
        outcome = Outcome(
            specs=report["executed"], frames=frames, digest=sha256_json(report)
        )
        errors = outcome.errors
        if report["seed"] != seed:
            errors.append(f"report seed {report['seed']} != {seed}")
        for policy, row in report["policies"].items():
            if row["executed"] != row["client_sessions"]:
                errors.append(
                    f"{policy}: {row['executed']} of {row['client_sessions']} specs folded"
                )
        if engine.stats.executed + engine.stats.cache_hits != engine.stats.unique:
            errors.append(f"engine accounting {engine.stats}")
        pinned = self.pins.get(str(seed))
        if pinned is not None and pinned["digest"] != outcome.digest:
            errors.append(f"seed {seed}: report digest {outcome.digest[:12]} != pin")
        if self.mode == "rerun":
            if engine.stats.executed:
                errors.append(f"rerun executed {engine.stats.executed} specs")
            if outcome.digest != self.prepared.get(seed):
                errors.append("rerun report differs from the report that filled the cache")
        if self.mode == "sharded":
            stream = self.work / f"stream-{k}"
            outcome.spill_bytes = sum(
                path.stat().st_size for path in stream.rglob("*") if path.is_file()
            )
            shutil.rmtree(stream, ignore_errors=True)
        return outcome

    def expected_specs(self, k: int) -> int:
        """Spec count of pass ``k`` when it cannot be read from a report."""
        pinned = self.pins.get(str(self.pass_seed(k)))
        return pinned["specs"] if pinned is not None else 1


class Fig12:
    """``fig12``: the Fig. 12 sweep, a fresh engine and seed per pass."""

    SPECS = 42  # 6 systems x 7 Table 3 apps

    def __init__(self, seed: int, size: Size, work: Path, pins: dict) -> None:
        self.seed = seed
        self.size = size
        self.pins = pins.get("fig12", {}).get("seeds", {})
        self.workers = 1
        self.group = len(size.fig12_frames)
        self.prepared = None

    def setup(self) -> None:
        """Import the experiment layer and read the calibration anchor."""
        from repro.analysis.calibration import ANCHORS
        from repro.analysis.experiments import fig12_performance
        from repro.sim.runner import BatchEngine

        self._fig12 = fig12_performance
        self._engine = BatchEngine
        self.anchor = ANCHORS["qvr_avg_speedup"].paper_value

    def prepare(self) -> None:
        """Nothing to do before the first pass."""

    def pass_seed(self, k: int) -> int:
        """Input seed of pass ``k``."""
        return input_seed(self.seed, k)

    def frames(self, seed: int) -> int:
        """Frames per spec at an input seed; three lengths feed the kernel fit."""
        return self.size.fig12_frames[seed % len(self.size.fig12_frames)]

    def run_pass(self, k: int):
        """One blocking ``fig12_performance`` call; returns its rows."""
        seed = self.pass_seed(k)
        return self._fig12(n_frames=self.frames(seed), seed=seed, engine=self._engine())

    def check(self, k: int, rows) -> Outcome:
        """Check the rows: one per app, finite, and equal to the pin."""
        seed = self.pass_seed(k)
        digest = sha256_json([asdict(row) for row in rows])
        outcome = Outcome(
            specs=self.SPECS, frames=self.SPECS * self.frames(seed), digest=digest
        )
        if len(rows) != 7:
            outcome.errors.append(f"{len(rows)} rows, expected 7")
        speedups = [row.qvr_speedup for row in rows]
        if not all(math.isfinite(value) and value > 0 for value in speedups):
            outcome.errors.append(f"non-finite or non-positive speedup in {speedups}")
        else:
            outcome.qvr_speedup = sum(speedups) / len(speedups)
        pinned = self.pins.get(str(seed))
        if pinned is not None and pinned["digest"] != digest:
            outcome.errors.append(f"seed {seed}: row digest {digest[:12]} != pin")
        return outcome

    def expected_specs(self, k: int) -> int:
        """Spec count of pass ``k`` when it cannot be read from its rows."""
        return self.SPECS


def make(name: str, seed: int, size: Size, work: Path, pins: dict):
    """The workload called ``name``."""
    if name == "fig12":
        return Fig12(seed, size, work, pins)
    mode = {"city": "flat", "city-rerun": "rerun", "city-sharded": "sharded"}[name]
    return Population(mode, seed, size, work, pins)
