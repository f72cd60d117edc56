"""Session planning emits one ``session.epoch`` instant per epoch."""

from __future__ import annotations

import pytest

from repro import constants
from repro.obs import sinks, trace
from repro.sim.fleet import RenderFleet, ServerDown, ServerFail, ServerUp
from repro.sim.server import RenderServer
from repro.sim.session import Join, Leave, Session

N_FRAMES = 90
T = N_FRAMES * constants.FRAME_BUDGET_MS


def _fleet_session():
    return Session(
        clients=("GRID", "Doom3-L"),
        events=(
            Join(0.2 * T, "UT3"),
            ServerFail(0.3 * T, "b"),
            ServerUp(0.5 * T, "b"),
            ServerDown(0.7 * T, "a"),
            Leave(0.8 * T, 0),
        ),
        fleet=RenderFleet.from_capacities({"a": 2.0, "b": 1.0}),
    )


SESSIONS = {
    "fleet": _fleet_session,
    "fleet-static": lambda: Session(
        clients=("GRID", "Wolf"), fleet=RenderFleet.from_capacities({"a": 1.0})
    ),
    "server-churn": lambda: Session(
        clients=("GRID",),
        events=(Join(0.25 * T, "Wolf"), Leave(0.5 * T, 0)),
        server=RenderServer(capacity_clients=1.0, overflow="queue"),
    ),
    "legacy": lambda: Session(clients=("GRID", "Wolf")),
}


@pytest.mark.parametrize("shape", sorted(SESSIONS))
def test_one_epoch_instant_per_epoch_under_the_plan_span(tmp_path, shape):
    session = SESSIONS[shape]()
    tracer = trace.configure(tmp_path, process="parent")
    try:
        timeline = session.timeline(n_frames=N_FRAMES, seed=3)
    finally:
        trace.shutdown()
    events, _ = sinks.merge_trace_dir(tmp_path)
    plans = [e for e in events if e["kind"] == "span_begin" and e["name"] == "session.plan"]
    epochs = [e for e in events if e["kind"] == "instant" and e["name"] == "session.epoch"]
    assert tracer.enabled and len(plans) == 1
    assert len(epochs) == len(timeline.epochs)
    assert all(e["parent"] == plans[0]["id"] for e in epochs)
    assert [e["attrs"]["t0_ms"] for e in epochs] == [
        epoch.start_ms for epoch in timeline.epochs
    ]
