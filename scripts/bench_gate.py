"""Same-runner benchmark gate: ``perfbench`` A/B of this tree against a base tree.

Usage (from the repository root; about ten minutes)::

    git worktree add .bench-base <base commit>
    python3 scripts/bench_gate.py .bench-base

For ``ROUNDS`` rounds, alternating which tree goes first, runs each
tree's own ``perfbench/run.py`` on every workload with ``--trace 0``
and on ``fig12`` and ``city`` with ``--trace 1``.  This tree (the head)
fails when any of its runs is not ``correct`` (including a pinned
digest mismatch), when its failed-spec share exceeds the base's, when
the median of an end-to-end metric is worse than the base's by more
than the metric's BENCHMARK.json ``bound``, or when a kernel aggregate
is worse by more than ``KERNEL_BOUND``.  Per-system kernel rows are
printed, not gated: on ``fig12`` a system's fixed cost is the intercept
of a three-length fit and is ill-conditioned.

Then, on the head only, ``OBS_PAIRS`` alternating pairs of fresh
processes time a warm Fig. 12 sweep, one where no tracer was ever
configured and one after a ``trace.configure``/``shutdown`` cycle; the
median ratio of the second to the first must not exceed ``OBS_CEILING``.

Prints one Markdown table, appends it to ``$GITHUB_STEP_SUMMARY`` when
set, and exits 1 on any failure.  Standard library only.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ROUNDS = 5
SECONDS = 2
WORKLOADS = ("city", "city-rerun", "fig12", "city-sharded")
TRACED = ("fig12", "city")
KERNEL_AGGREGATES = {"fig12": "kernels.ms_per_frame", "city": "kernels.fixed_ms_per_spec"}
KERNEL_BOUND = 0.25
PER_SYSTEM = ("kernels.fixed_ms_per_spec.", "kernels.ms_per_frame.")

OBS_PAIRS = 41
OBS_REPS = 5
OBS_CEILING = 1.02
FIG12_SYSTEMS = ("local", "static", "ffr", "dfr", "sw-qvr", "qvr")


def alternating(first, second, rounds: int) -> tuple[list, list]:
    """Call ``first`` and ``second`` once per round, swapping their order each round."""
    out: tuple[list, list] = ([], [])
    for r in range(rounds):
        for i in ((0, 1) if r % 2 == 0 else (1, 0)):
            out[i].append((first, second)[i]())
    return out


def bench_round(tree: Path) -> dict:
    """Every ``(workload, trace)`` run of ``tree`` once: its result objects."""
    results = {}
    for workload, trace in [(w, 0) for w in WORKLOADS] + [(w, 1) for w in TRACED]:
        done = subprocess.run(
            [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
             "--seconds", str(SECONDS), "--trace", str(trace)],
            cwd=tree, capture_output=True, text=True,
        )
        if done.returncode != 0 or not done.stdout.strip():
            print(f"{tree} {workload} trace {trace} exited {done.returncode}:\n"
                  f"{done.stderr[-2000:]}", file=sys.stderr)
            results[workload, trace] = {"correct": False, "attempted": 0, "failed": 0,
                                        "metrics": {}}
        else:
            results[workload, trace] = json.loads(done.stdout.splitlines()[-1])
    return results


def judge(base: dict, head: dict, benchmark: Path) -> tuple[list[list[str]], list[str]]:
    """The verdict table's rows and the failures.

    ``base`` and ``head`` map ``(workload, trace)`` to the result objects
    (``perfbench/run.py``'s last line) of every round.  Bounds and
    directions come from the ``benchmark`` file.
    """
    bench = json.loads(benchmark.read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    rows, failures = [], []

    def check(name: str, b: str, h: str, change: str, bound: str, failure: str | None):
        rows.append([name, b, h, change, bound, "fail" if failure else "ok"])
        if failure:
            failures.append(failure)

    wrong = sum(not r["correct"] for results in head.values() for r in results)
    check("head runs not correct", "", str(wrong), "", "0",
          f"{wrong} head runs report correct: false" if wrong else None)
    share = [sum(r["failed"] for rs in runs.values() for r in rs)
             / max(1, sum(r["attempted"] for rs in runs.values() for r in rs))
             for runs in (base, head)]
    check("failed-spec share", f"{share[0]:.4g}", f"{share[1]:.4g}", "", "<= base",
          f"failed-spec share {share[1]:.4g} > base {share[0]:.4g}"
          if share[1] > share[0] else None)

    gated = [(w, 0, m["name"], m["bound"]) for w in WORKLOADS for m in bench["end_to_end"]]
    gated += [(w, 1, name, KERNEL_BOUND) for w, name in KERNEL_AGGREGATES.items()]
    shown = [("fig12", 1, m["name"], None) for m in bench["per_layer"]
             if m["name"].startswith(PER_SYSTEM)]
    for workload, trace, metric, bound in gated + shown:
        b, h = (statistics.median([r["metrics"][metric]["value"]
                                   for r in runs.get((workload, trace), [])
                                   if metric in r["metrics"]] or [math.nan])
                for runs in (base, head))
        change = h / b - 1.0 if b > 0 else math.nan
        cells = [f"{workload} {metric}", f"{b:.4g}", f"{h:.4g}",
                 "n/a" if math.isnan(change) else f"{change:+.1%}"]
        if bound is None:
            rows.append(cells + ["", "info"])
            continue
        # NaN (no value, or a base that is not positive) fails.
        worse = not (change if better[metric] == "lower" else -change) <= bound
        check(*cells, f"{bound:g}",
              f"{cells[0]}: {b:.4g} -> {h:.4g} ({cells[3]}, bound {bound:g}, "
              f"{better[metric]} is better)" if worse else None)
    return rows, failures


def obs_leg(cycle: bool) -> float:
    """Best-of-``OBS_REPS`` seconds of a warm Fig. 12 serial sweep in this process.

    Two sweeps warm the memos first; with ``cycle`` the second runs
    between ``trace.configure`` and ``trace.shutdown``.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs import trace
    from repro.sim.runner import Sweep, run
    from repro.workloads.apps import TABLE3_ORDER

    specs = Sweep(systems=FIG12_SYSTEMS, apps=TABLE3_ORDER, seeds=(0,), n_frames=320).specs()

    def sweep() -> float:
        began = perf_counter()
        for spec in specs:
            run(spec)
        return perf_counter() - began

    sweep()
    with tempfile.TemporaryDirectory() as directory:
        if cycle:
            trace.configure(directory, process="gate")
        try:
            sweep()
        finally:
            if cycle:
                trace.shutdown()
    return min(sweep() for _ in range(OBS_REPS))


def fresh_obs_leg(cycle: bool) -> float:
    done = subprocess.run(
        [sys.executable, "-c", f"import bench_gate; print(bench_gate.obs_leg({cycle}))"],
        cwd=HERE, capture_output=True, text=True, check=True,
    )
    return float(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not (Path(argv[0]) / "perfbench" / "run.py").is_file():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base_tree = Path(argv[0]).resolve()
    began = perf_counter()
    rounds = alternating(lambda: bench_round(base_tree), lambda: bench_round(ROOT), ROUNDS)
    base, head = ({key: [r[key] for r in tree] for key in tree[0]} for tree in rounds)
    rows, failures = judge(base, head, ROOT / "BENCHMARK.json")

    plain, cycled = alternating(lambda: fresh_obs_leg(False), lambda: fresh_obs_leg(True),
                                OBS_PAIRS)
    ratio = statistics.median(c / p for p, c in zip(plain, cycled))
    rows.append(["obs disabled-path ratio (head)", "", f"{ratio:.4f}", "",
                 f"<= {OBS_CEILING:g}", "ok" if ratio <= OBS_CEILING else "fail"])
    if ratio > OBS_CEILING:
        failures.append(f"disabled tracing costs {ratio:.4f}x (ceiling {OBS_CEILING:g})")

    table = "\n".join(
        ["## perfbench A/B: head vs base", "",
         f"{ROUNDS} alternating rounds of {SECONDS} s runs, medians; "
         f"{perf_counter() - began:.0f} s in all.", "",
         "| check | base | head | change | bound | verdict |", "|---|---|---|---|---|---|"]
        + ["| " + " | ".join(row) + " |" for row in rows]
        + [""] + [f"- FAIL {failure}" for failure in failures]
    )
    print(table)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a", encoding="utf-8") as summary:
            summary.write(table + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
