"""Tiny-size self-test of the benchmark harness (about half a minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks, at the ``--tiny`` size:

* every workload, untraced and traced, prints a last line with exactly
  the result keys, no failed specs, and every metric BENCHMARK.json
  names with its unit (end-to-end values positive);
* ``city-rerun`` makes zero kernel calls and hits the cache every time;
* the population report is identical across ``city``, ``city-rerun``
  and ``city-sharded`` for several seeds;
* ``layers.PER_LAYER`` and BENCHMARK.json declare the same metrics.

Exits 0 when all hold, 1 with the failures listed otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
import passes

ROOT = passes.ROOT
RUN = Path(__file__).resolve().with_name("run.py")


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {done.returncode}: "
                             f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def check_emission(bench: dict, failures: list[str]) -> None:
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in passes.WORKLOADS:
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            result = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in declared[trace]}
            if set(metrics) != set(wanted):
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(wanted))}")
            for name, unit in wanted.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit:
                    failures.append(f"{where}: {name} unit {got.get('unit')!r} != {unit!r}")
                value = got.get("value")
                if not isinstance(value, (int, float)):
                    failures.append(f"{where}: {name} value {value!r}")
                elif trace == 0 and value <= 0:
                    failures.append(f"{where}: {name} = {value}, expected > 0")
            if workload == "city-rerun" and trace == 1:
                if metrics["kernels.runs"]["value"] != 0:
                    failures.append(f"{where}: kernels.runs = {metrics['kernels.runs']}")
                if metrics["runner.cache_hit_ratio"]["value"] != 1:
                    failures.append(f"{where}: cache hit ratio "
                                    f"{metrics['runner.cache_hit_ratio']}")


def check_digests(failures: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-work") as work:
        for seed in range(3):
            digests = {}
            for name in ("city", "city-rerun", "city-sharded"):
                workload = passes.make(name, seed, passes.TINY, Path(work) / name, {})
                workload.setup()
                workload.prepared = workload.prepare()
                outcome = workload.check(0, workload.run_pass(0))
                failures.extend(f"{name} seed {seed}: {error}" for error in outcome.errors)
                digests[name] = outcome.digest
            if len(set(digests.values())) != 1:
                failures.append(f"seed {seed}: report digests differ {digests}")
    try:
        (ROOT / ".perfbench-work").rmdir()
    except OSError:  # another run is using it
        pass


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if declared != list(layers.PER_LAYER):
        failures.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    check_emission(bench, failures)
    check_digests(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
