"""Churn stress harness: session-planner scaling in event count.

Plans (does **not** execute) event-driven fleet sessions carrying
hundreds of join/leave/capacity events and writes a
``BENCH_session.json`` timing artifact.  The property under test is the
planner's complexity: one planning epoch per event boundary over a
bounded roster, so wall-clock time must scale **~linearly** in the event
count — a superlinear planner would make large churn studies (and the
CI scenario grid) quadratic.  The script times the planner at a base
size and at double that size, checks the per-event cost ratio stays
under ``--tolerance``, and checks the plan is deterministic (two plans
of the same session freeze identical specs).  Either check failing
exits 1, as does a ``--baseline`` whose sizes differ from this run's.

Usage::

    PYTHONPATH=src python benchmarks/bench_session.py --events 150 --frames 600
    PYTHONPATH=src python benchmarks/bench_session.py \
        --baseline BENCH_session.json --out BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import deque
from pathlib import Path

from repro import constants
from repro.sim.fleet import RenderFleet, ServerDown, ServerUp
from repro.sim.session import ClientSpec, Join, Leave, Session

#: Stress-fleet shape: three homogeneous servers, least-loaded placement
#: so capacity toggles genuinely displace and re-seat clients.
FLEET_CAPACITIES = {"a": 2.0, "b": 2.0, "c": 2.0}


def stress_events(n_events: int, duration_ms: float):
    """A deterministic churn script of ``n_events`` valid session events.

    Joins and leaves alternate (the roster stays bounded, so scaling is
    attributable to the event count, not a growing roster) and every
    fifth event toggles server ``c`` down/up, exercising displacement,
    migration and queue promotion on top of membership churn.
    """
    events = []
    fifo: deque[int] = deque()
    next_index = 2  # two initial clients occupy indices 0 and 1
    c_down = False
    spacing = duration_ms / (n_events + 1)
    for i in range(n_events):
        t = spacing * (i + 1)
        kind = i % 5
        if kind == 4:
            events.append(
                ServerUp(t, server="c") if c_down else ServerDown(t, server="c")
            )
            c_down = not c_down
        elif kind in (1, 3) and fifo:
            events.append(Leave(t, client=fifo.popleft()))
        else:
            events.append(Join(t, ClientSpec("Doom3-L")))
            fifo.append(next_index)
            next_index += 1
    return tuple(events)


def stress_session(n_events: int, n_frames: int) -> Session:
    """A fleet session carrying ``n_events`` churn/capacity events."""
    duration_ms = n_frames * constants.FRAME_BUDGET_MS
    return Session(
        clients=(ClientSpec("GRID"), ClientSpec("Doom3-L")),
        events=stress_events(n_events, duration_ms),
        fleet=RenderFleet.from_capacities(
            FLEET_CAPACITIES, placement="least-loaded"
        ),
    )


def time_planner(session: Session, n_frames: int, seed: int, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for one full plan."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        session.timeline(n_frames=n_frames, seed=seed)
        best = min(best, time.perf_counter() - start)
    return best


def bench(
    base_events: int, n_frames: int, seed: int, repeats: int, tolerance: float
) -> dict:
    """Time the planner at ``base_events`` and double it; check linearity."""
    sizes = (base_events, 2 * base_events)
    times: dict[str, float] = {}
    epochs: dict[str, int] = {}
    deterministic = True
    for size in sizes:
        session = stress_session(size, n_frames)
        timeline = session.timeline(n_frames=n_frames, seed=seed)
        again = session.timeline(n_frames=n_frames, seed=seed)
        deterministic = deterministic and timeline.specs == again.specs
        epochs[str(size)] = len(timeline.epochs)
        times[str(size)] = time_planner(session, n_frames, seed, repeats)
    per_event = {
        size: 1000.0 * times[size] / int(size) for size in map(str, sizes)
    }
    ratio = per_event[str(sizes[1])] / per_event[str(sizes[0])]
    return {
        "sizes": list(sizes),
        "n_frames": n_frames,
        "seed": seed,
        "repeats": repeats,
        "fleet": FLEET_CAPACITIES,
        "times_s": {size: round(value, 4) for size, value in times.items()},
        "epochs": epochs,
        "per_event_ms": {size: round(value, 4) for size, value in per_event.items()},
        "linearity_ratio": round(ratio, 3),
        "tolerance": tolerance,
        "linear_ok": ratio <= tolerance,
        "deterministic": deterministic,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=150,
                        help="base event count (also timed at 2x)")
    parser.add_argument("--frames", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--tolerance", type=float, default=1.5,
        help="max allowed per-event cost ratio between 2x and 1x sizes "
        "(a quadratic planner measures 2.0 here; linear ~1.0)",
    )
    parser.add_argument("--out", default="BENCH_session.json")
    parser.add_argument(
        "--baseline", default=None,
        help="committed BENCH_session.json to gate per-event cost against",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=3.0,
        help="max fractional per-event slowdown vs the baseline "
        "(generous: machines differ; catches superlinear blowups)",
    )
    args = parser.parse_args(argv)

    report = bench(
        base_events=args.events, n_frames=args.frames, seed=args.seed,
        repeats=args.repeats, tolerance=args.tolerance,
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if not report["deterministic"]:
        print("ERROR: two plans of the same session froze different specs", file=sys.stderr)
        return 1
    if not report["linear_ok"]:
        print(
            f"ERROR: planner per-event cost grew {report['linearity_ratio']:.2f}x "
            f"from {args.events} to {2 * args.events} events "
            f"(tolerance {args.tolerance:g}x)",
            file=sys.stderr,
        )
        return 1
    if args.baseline is not None:
        baseline = json.loads(Path(args.baseline).read_text())
        if baseline["sizes"] != report["sizes"]:
            print(f"ERROR: baseline sizes {baseline['sizes']} differ from this run's "
                  f"{report['sizes']}; per-event costs are not comparable", file=sys.stderr)
            return 1
        key = str(max(report["sizes"]))
        fresh, committed = report["per_event_ms"][key], baseline["per_event_ms"][key]
        if fresh > committed * (1.0 + args.max_slowdown):
            print(f"ERROR: per-event cost {fresh:.3f} ms exceeds baseline {committed:.3f} ms "
                  f"by more than {args.max_slowdown:.0%}", file=sys.stderr)
            return 1
        print(f"baseline gate ok: {fresh:.3f} ms/event vs committed {committed:.3f} ms/event")
    return 0


if __name__ == "__main__":
    sys.exit(main())
