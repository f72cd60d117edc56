"""Golden snapshot of :meth:`repro.sim.session.Session.timeline`.

Plans a seeded corpus of generated sessions covering every session
shape the planner serves —

* legacy fair-share (no server, no events);
* a bare :class:`~repro.sim.server.RenderServer` under each overflow
  mode, with no events;
* a bare server with ``Join``/``Leave``/``ProfileSwitch`` churn;
* two-server fleets with ``ServerUp``/``ServerDown``/``ServerFail``
  under both migration modes and every placement policy —

and pins one SHA-256 over a canonical text form of every timeline: the
spec key of each frozen run plus ``repr`` of plain fields (epoch
windows, admission decisions, serviced sets, placements, per-server
windows and client rows).  The text holds only Python floats, ints,
strings and tuples, so the digest is the same on every supported
Python version.  Any change to what the planner emits fails here.

The digest also covers :func:`repro.sim.runner.spec_key`, so it moves
on a package version or spec schema bump, like
``tests/sim/test_spec_key_golden.py``.  Only then, regenerate it with::

    PYTHONPATH=src python tests/sim/test_timeline_golden.py
"""

from __future__ import annotations

import hashlib
import random

from repro import constants
from repro.errors import ConfigurationError
from repro.network.conditions import WIFI
from repro.network.profile import TraceProfile
from repro.sim.fleet import (
    MIGRATION_MODES,
    PLACEMENT_NAMES,
    RenderFleet,
    ServerDown,
    ServerFail,
    ServerUp,
)
from repro.sim.runner import spec_key
from repro.sim.server import OVERFLOW_MODES, POLICY_NAMES, RenderServer
from repro.sim.session import ClientSpec, Join, Leave, ProfileSwitch, Session

#: Pinned digest of the whole corpus.  Do not edit by hand.
GOLDEN = "15f8926c02f99481f73dd8af5485b5cad67d659aceafdfc77db66d18847275d6"

SHAPES = ("legacy", "static-server", "churn-server", "fleet")
SESSIONS_PER_SHAPE = 100
CORPUS_SEED = 20211

APPS = ("Doom3-H", "Doom3-L", "HL2-H", "HL2-L", "GRID", "UT3", "Wolf")
LINKS = (None, None, "wifi", "4g", "5g", "wifi-drop", "4g-drop", "wifi-markov")
WEIGHTS = (0.5, 1.0, 1.0, 1.0, 1.5)
FRAMES = (24, 45, 60, 90, 120)


def _trace(n_frames: int) -> TraceProfile:
    frame_ms = constants.FRAME_BUDGET_MS
    return TraceProfile(
        base=WIFI,
        times_ms=(0.0, 0.3 * n_frames * frame_ms, 0.6 * n_frames * frame_ms),
        throughput_mbps=(200.0, 25.0, 150.0),
        label="golden-drop",
    )


def _client(rng: random.Random, n_frames: int) -> ClientSpec:
    link = rng.choice(LINKS + ("trace",))
    return ClientSpec(
        app=rng.choice(APPS),
        profile=_trace(n_frames) if link == "trace" else link,
        system=rng.choice((None, None, None, "sw-qvr")),
        weight=rng.choice(WEIGHTS),
    )


def _server(rng: random.Random) -> RenderServer:
    return RenderServer(
        capacity_clients=rng.choice((0.5, 1.0, 1.5, 2.0, 3.0, None)),
        overflow=rng.choice(OVERFLOW_MODES),
    )


def _fleet(rng: random.Random) -> RenderFleet:
    return RenderFleet.from_capacities(
        {"a": rng.choice((1.0, 1.5, 2.0)), "b": rng.choice((1.0, 2.0))},
        placement=rng.choice(PLACEMENT_NAMES),
        migration=rng.choice(MIGRATION_MODES),
        migration_penalty_ms=rng.choice((0.0, 60.0, 120.0, 5000.0)),
        initial=rng.choice((None, None, ("a",), ("b",))),
        overflow=rng.choice(("queue", "reject")),
    )


def _churn(
    rng: random.Random, base: Session, n_frames: int, capacity: bool
) -> Session:
    """Grow ``base`` one random event at a time, keeping only valid ones."""
    duration = n_frames * constants.FRAME_BUDGET_MS
    session = base
    target = rng.randint(1, 8)
    for _ in range(8 * target):
        if len(session.events) == target:
            break
        # A coarse time grid, so same-instant events (and their rank
        # order) show up regularly.
        t = duration * rng.randint(1, 15) / 16
        known = session.n_clients
        kinds = ("join", "leave", "switch")
        if capacity:
            kinds += ("up", "down", "fail") * 2
        kind = rng.choice(kinds)
        server = rng.choice(("a", "b"))
        if kind == "join":
            event = Join(t, _client(rng, n_frames))
        elif kind == "leave":
            event = Leave(t, rng.randrange(known))
        elif kind == "switch":
            event = ProfileSwitch(
                t, rng.randrange(known), rng.choice(("wifi", "4g", "5g", "4g-drop"))
            )
            if any(
                isinstance(e, ProfileSwitch) and (e.t_ms, e.client) == (t, event.client)
                for e in session.events
            ):
                # Two switches of one client at one instant stay out of
                # the corpus (its digest predates their support);
                # test_session.py checks that the last one wins.
                continue
        elif kind == "up":
            event = ServerUp(t, server)
        elif kind == "down":
            event = ServerDown(t, server, drain=rng.random() < 0.5)
        else:
            event = ServerFail(rng.choice((0.0, t)), server)
        try:
            session = Session(
                clients=session.clients,
                events=session.events + (event,),
                platform=session.platform,
                policy=session.policy,
                server=session.server,
                fleet=session.fleet,
            )
        except ConfigurationError:
            continue  # names a missing/departed client or an inconsistent server
    return session


def _session(shape: str, rng: random.Random, n_frames: int) -> Session:
    clients = tuple(_client(rng, n_frames) for _ in range(rng.randint(1, 4)))
    if shape == "legacy":
        return Session(clients=clients)
    policy = rng.choice(POLICY_NAMES)
    if shape == "static-server":
        # No server: the default RenderServer (degrade) under any policy.
        server = _server(rng) if rng.random() < 0.85 else None
        return Session(clients=clients, policy=policy, server=server)
    if shape == "churn-server":
        server = rng.choice((None, _server(rng)))
        return _churn(
            rng, Session(clients=clients, policy=policy, server=server), n_frames, False
        )
    return _churn(
        rng, Session(clients=clients, policy=policy, fleet=_fleet(rng)), n_frames, True
    )


def corpus():
    """Yield ``(shape, session, n_frames, seed, warmup_frames)`` cases."""
    rng = random.Random(CORPUS_SEED)
    for shape in SHAPES:
        for _ in range(SESSIONS_PER_SHAPE):
            n_frames = rng.choice(FRAMES)
            warmup = rng.choice((None, None, 0, 5))
            yield shape, _session(shape, rng, n_frames), n_frames, rng.randrange(1000), warmup


def _opt(value):
    return None if value is None else float(value)


def canonical(timeline) -> str:
    """The canonical text form of one timeline (see the module docstring)."""
    lines = [repr(("timeline", timeline.n_frames, float(timeline.duration_ms)))]
    for epoch in timeline.epochs:
        lines.append(repr((
            "epoch",
            float(epoch.start_ms),
            float(epoch.end_ms),
            tuple(
                (d.client_index, d.action, float(d.service_level))
                for d in epoch.decisions
            ),
            tuple(epoch.serviced),
            tuple(epoch.placements),
            tuple(
                (
                    w.server, float(w.start_ms), float(w.end_ms),
                    float(w.capacity), float(w.load),
                    tuple(w.clients), tuple(w.arrivals), tuple(w.migrated_in),
                )
                for w in epoch.servers
            ),
        )))
    for row in timeline.clients:
        run = row.run
        lines.append(repr((
            "client",
            row.index,
            row.spec.app,
            float(row.joined_ms),
            _opt(row.start_ms),
            _opt(row.end_ms),
            tuple((float(t), name) for t, name in row.servers),
            row.migrations,
            None if run is None else (
                spec_key(run), run.n_frames, run.warmup_frames,
                run.shared_clients, float(run.start_ms),
            ),
        )))
    return "\n".join(lines)


def corpus_digest() -> tuple[str, dict[str, int]]:
    """SHA-256 of the whole corpus, plus per-shape session counts."""
    digest = hashlib.sha256()
    counts: dict[str, int] = {}
    for shape, session, n_frames, seed, warmup in corpus():
        timeline = session.timeline(
            n_frames=n_frames, seed=seed, warmup_frames=warmup
        )
        digest.update(f"== {shape}\n{canonical(timeline)}\n".encode("utf-8"))
        counts[shape] = counts.get(shape, 0) + 1
    return digest.hexdigest(), counts


def test_corpus_covers_every_shape():
    fleets = [s for shape, s, *_ in corpus() if shape == "fleet"]
    churned = [s for shape, s, *_ in corpus() if shape == "churn-server"]
    statics = [s for shape, s, *_ in corpus() if shape == "static-server"]
    assert {s.server.overflow for s in statics if s.server} == set(OVERFLOW_MODES)
    assert any(s.server is None for s in statics)
    assert all(s.events for s in churned + fleets)
    kinds = {type(e).__name__ for s in churned + fleets for e in s.events}
    assert {"Join", "Leave", "ProfileSwitch", "ServerUp", "ServerDown", "ServerFail"} <= kinds
    assert any(isinstance(e, ServerDown) and e.drain for s in fleets for e in s.events)
    assert {s.fleet.migration for s in fleets} == set(MIGRATION_MODES)
    assert {s.fleet.placement for s in fleets} == set(PLACEMENT_NAMES)


def test_timeline_corpus_matches_the_golden_digest():
    digest, counts = corpus_digest()
    assert sum(counts.values()) >= 300
    assert set(counts) == set(SHAPES)
    assert digest == GOLDEN, (
        "Session.timeline output drifted from the pinned corpus digest; "
        "see the module docstring before regenerating"
    )


if __name__ == "__main__":
    print(corpus_digest()[0])
