"""Collaborative sessions: one roster, optional churn, one epoch walker.

The paper's planet-scale framing ("users around the world, regardless of
their hardware and network conditions") puts **several Q-VR clients on
one rendering server and one access link**.  Each :class:`ClientSpec`
names its own ``(app, platform, profile)`` tuple — one participant on a
flagship SoC over Wi-Fi, another on a throttled GPU over a 4G link that
drops mid-run — and every client runs the full Q-VR control loop
against its share of the server and the downlink, so its LIWC observes a
degraded environment and re-balances by growing its local fovea.
Surveys of synchronous VR/AR collaboration also treat *churn* as the
defining workload of multi-party systems: clients join mid-session,
leave early, and roam between links.

A :class:`Session` composes :class:`ClientSpec` values with an optional
typed event timeline —

* :class:`Join` — a new client arrives mid-session;
* :class:`Leave` — a client departs (freeing its server capacity);
* :class:`ProfileSwitch` — a client's link changes (Wi-Fi to 4G roam);
* the :class:`CapacityEvent` family (:mod:`repro.sim.fleet`) —
  ``ServerUp`` / ``ServerDown`` / ``ServerFail`` grow and shrink a
  *fleet* of named rendering servers mid-session;

and :meth:`Session.timeline` plans every session with one epoch
walker.  The walker steps through the windows between events; at each
boundary it applies the pending events, seats the clients present,
allocates their shares of the server and the shared downlink over the
window, and finally freezes one :class:`~repro.sim.runner.RunSpec` per
serviced client — carrying its session start offset and the
concatenated per-epoch ``(start_ms, share)`` schedules in client-local
time — which the ordinary :class:`~repro.sim.runner.BatchEngine`
executes deterministically, in parallel, and cacheably like any other
spec.  Only the seating step depends on the session's shape:

* a session on a :class:`~repro.sim.fleet.RenderFleet` seats clients
  through the fleet's placement policy, migrating or parking the ones a
  capacity event displaces;
* a session on a bare :class:`~repro.sim.server.RenderServer` seats
  them through :meth:`~repro.sim.server.RenderServer.admit` over the
  present roster — incumbents keep their slots, and freed capacity
  **promotes queued clients**, which genuinely start late;
* the legacy static fair-share session (no server, no events) admits
  everyone and freezes unscheduled specs.

A session without events is a one-epoch walk whose window is the
planning horizon: its ``epochs[0].decisions`` are the admission verdicts
for the whole roster, and the legacy fair-share session freezes the
same specs — same cache keys, bit-identical results — as the earliest
static multi-user releases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro import constants
from repro.errors import ConfigurationError
from repro.obs import trace as obs_trace
from repro.network.conditions import NetworkConditions
from repro.network.profile import (
    AllocatedProfile,
    NetworkProfile,
    ShareSchedule,
    SwitchedProfile,
    as_profile,
)
from repro.sim.metrics import (
    ServerWindow,
    SimulationResult,
    WindowStats,
    aggregate_server_stats,
    window_stats,
)
from repro.sim.runner import (
    BatchEngine,
    CLIENT_SEED_STRIDE,
    RunSpec,
    default_engine,
    effective_warmup,
)
from repro.sim.server import (
    AdmissionDecision,
    ClientDemand,
    POLICY_NAMES,
    RenderServer,
)
from repro.sim.systems import PlatformConfig

if TYPE_CHECKING:  # imported lazily at runtime (fleet imports session)
    from repro.sim.fleet import RenderFleet

__all__ = [
    "ClientSpec",
    "SessionEvent",
    "CapacityEvent",
    "Join",
    "Leave",
    "ProfileSwitch",
    "Session",
    "Epoch",
    "ClientTimeline",
    "SessionTimeline",
    "SessionResult",
    "events_from_motion",
    "simulate_session",
]

#: Planning horizon slack over the nominal 90 Hz session duration, so
#: allocation schedules keep re-evaluating even when degraded clients run
#: well behind the target frame rate.
_HORIZON_SLACK = 3.0


@dataclass(frozen=True)
class ClientSpec:
    """One participant of a shared session: app, hardware, link dynamics.

    Attributes
    ----------
    app:
        The title this client runs.
    platform:
        The client's own platform; ``None`` inherits the session default.
    profile:
        Link conditions/profile override (a
        :class:`~repro.network.profile.NetworkProfile`, static
        conditions, or a registry name); ``None`` keeps the platform's
        network.  A client whose resolved network differs from the
        session default is on a *private* link: it still shares the
        rendering server, but its downlink is not divided across the
        session's clients.
    system:
        Per-client system design override; ``None`` uses the session
        run's system.
    weight:
        Demand in client-equivalents, the admission controller's
        currency (see :class:`~repro.sim.server.RenderServer`); 1.0 is
        one full-demand client.  Must be finite and > 0.
    """

    app: str
    platform: PlatformConfig | None = None
    profile: NetworkProfile | NetworkConditions | str | None = None
    system: str | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.weight) or self.weight <= 0:
            raise ConfigurationError(
                f"client weight must be finite and > 0, got {self.weight}"
            )

    def resolved_platform(self, default: PlatformConfig) -> PlatformConfig:
        """The platform this client runs on, with its profile applied."""
        platform = self.platform if self.platform is not None else default
        if self.profile is not None:
            platform = replace(platform, network=as_profile(self.profile))
        return platform


def _client_spec(value) -> ClientSpec:
    """Promote a bare app name to a ClientSpec."""
    return value if isinstance(value, ClientSpec) else ClientSpec(app=value)


# ---------------------------------------------------------------------------
# The event vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionEvent:
    """Something that happens to the session at instant ``t_ms``.

    Events must fall strictly inside the session: after its start (a
    client present at t = 0 is simply an initial client) and before its
    nominal end (checked against the frame count when the timeline is
    planned).  ``Leave`` and ``ProfileSwitch`` name clients by *session
    index*: initial clients count 0..n-1 in declaration order, and every
    ``Join`` appends the next index in event order.

    Events sharing one timestamp apply in a **deterministic total
    order**, not declaration order: first the events that free resources
    (``Leave``, ``ServerDown``, ``ServerFail`` — rank 0), then link
    switches (``ProfileSwitch`` — rank 1), then the events that claim
    resources (``Join``, ``ServerUp`` — rank 2); declaration order only
    breaks ties *within* a rank.  Capacity freed at an instant is thus
    always visible to arrivals at the same instant, however the events
    were listed — and a client cannot join and leave at the same
    instant (the leave would order first and name a client that does
    not exist yet).
    """

    #: Same-timestamp application rank (see the class docstring); lower
    #: ranks apply first.  Free resources (0) < switch links (1) < claim
    #: resources (2).
    rank: ClassVar[int] = 1

    t_ms: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.t_ms) or self.t_ms <= 0:
            raise ConfigurationError(
                f"event time must be finite and > 0 ms, got {self.t_ms}"
            )
        object.__setattr__(self, "t_ms", float(self.t_ms))


@dataclass(frozen=True)
class CapacityEvent(SessionEvent):
    """Base of the render-fleet capacity events (:mod:`repro.sim.fleet`).

    Capacity events name a fleet server rather than a client, and —
    unlike client events — may fire at t = 0: a ``ServerFail(0, ...)``
    models a server that was supposed to be there and is not.  Sessions
    carrying capacity events must declare a
    :class:`~repro.sim.fleet.RenderFleet`.
    """

    server: str = ""

    def __post_init__(self) -> None:
        if not np.isfinite(self.t_ms) or self.t_ms < 0:
            raise ConfigurationError(
                f"capacity-event time must be finite and >= 0 ms, got {self.t_ms}"
            )
        object.__setattr__(self, "t_ms", float(self.t_ms))
        if not self.server:
            raise ConfigurationError(
                f"{type(self).__name__} needs a fleet server name"
            )


@dataclass(frozen=True)
class Join(SessionEvent):
    """A new client arrives mid-session (admitted, degraded, or queued)."""

    rank: ClassVar[int] = 2

    spec: ClientSpec | str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.spec is None:
            raise ConfigurationError("Join needs a ClientSpec (or app name)")
        object.__setattr__(self, "spec", _client_spec(self.spec))


@dataclass(frozen=True)
class Leave(SessionEvent):
    """A client departs; its capacity frees for queued clients."""

    rank: ClassVar[int] = 0

    client: int = -1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.client < 0:
            raise ConfigurationError(
                f"Leave needs a session client index >= 0, got {self.client}"
            )


@dataclass(frozen=True)
class ProfileSwitch(SessionEvent):
    """A client's link profile changes mid-session (onto a private link)."""

    client: int = -1
    profile: "NetworkProfile | NetworkConditions | str | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.client < 0:
            raise ConfigurationError(
                f"ProfileSwitch needs a session client index >= 0, got {self.client}"
            )
        if self.profile is None:
            raise ConfigurationError("ProfileSwitch needs a target profile")
        object.__setattr__(self, "profile", as_profile(self.profile))


# ---------------------------------------------------------------------------
# The session builder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Session:
    """A declarative collaborative session: initial roster plus events.

    Attributes
    ----------
    clients:
        Clients present at t = 0 (bare app-name strings are promoted to
        :class:`ClientSpec`); ``("GRID",) * 4`` is four co-located
        clients running the same title.
    events:
        The churn timeline; events are applied in time order (ties keep
        declaration order).  Without events the session is *static*: one
        epoch, whose ``decisions`` are the admission verdicts for the
        whole roster.
    platform:
        The default single-user platform being shared.
    sharing_efficiency:
        Fraction of ideal 1/N scaling the infrastructure achieves.
    policy:
        Server scheduling policy (:data:`~repro.sim.server.POLICY_NAMES`),
        re-applied at every epoch.
    server:
        The rendering server.  ``None`` keeps the legacy behaviour for
        static fair-share sessions (everyone admitted, no schedules) and
        a default :class:`~repro.sim.server.RenderServer` otherwise; a
        session *with events* always seats through the server, since
        even fair shares change when the roster does.
    fleet:
        A :class:`~repro.sim.fleet.RenderFleet` replacing the single
        ``server`` with a roster of named servers whose capacity changes
        through :class:`CapacityEvent`s; mutually exclusive with
        ``server``.  A fleet session always seats through the fleet's
        placement policy (the fleet *is* the admission controller).
    """

    clients: tuple = ()
    events: tuple[SessionEvent, ...] = ()
    platform: PlatformConfig | None = None
    sharing_efficiency: float = 0.9
    policy: str = "fair-share"
    server: RenderServer | None = None
    fleet: "RenderFleet | None" = None

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown scheduling policy {self.policy!r}; known: {POLICY_NAMES}"
            )
        if not 0 < self.sharing_efficiency <= 1:
            raise ConfigurationError("sharing_efficiency must be in (0, 1]")
        if self.platform is None:
            object.__setattr__(self, "platform", PlatformConfig())
        object.__setattr__(
            self, "clients", tuple(_client_spec(c) for c in self.clients)
        )
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, SessionEvent):
                raise ConfigurationError(
                    f"events must be SessionEvent values, got "
                    f"{type(event).__name__}"
                )
        if self.fleet is not None and self.server is not None:
            raise ConfigurationError(
                "a session takes either a server or a fleet, not both "
                "(the fleet owns the servers)"
            )
        capacity_events = tuple(
            e for e in self.events if isinstance(e, CapacityEvent)
        )
        if capacity_events and self.fleet is None:
            raise ConfigurationError(
                "capacity events (ServerUp/ServerDown/ServerFail) require "
                "a RenderFleet on the session"
            )
        if self.fleet is not None:
            self.fleet.validate_events(capacity_events)
        self._validate_event_references()
        if not self.clients and not any(
            isinstance(e, Join) for e in self.events
        ):
            raise ConfigurationError(
                "session needs at least one client (initial or joining)"
            )

    def _validate_event_references(self) -> None:
        """Statically replay membership so bad indices fail at build time."""
        known = len(self.clients)
        left: set[int] = set()
        for event in self.ordered_events():
            if isinstance(event, CapacityEvent):
                continue  # server references validated by the fleet
            if isinstance(event, Join):
                known += 1
                continue
            index = event.client  # type: ignore[attr-defined]
            if index >= known:
                raise ConfigurationError(
                    f"{type(event).__name__} at {event.t_ms:g} ms names client "
                    f"{index}, but only {known} clients exist by then"
                )
            if index in left:
                raise ConfigurationError(
                    f"{type(event).__name__} at {event.t_ms:g} ms names client "
                    f"{index}, which already left the session"
                )
            if isinstance(event, Leave):
                left.add(index)

    def ordered_events(self) -> tuple[SessionEvent, ...]:
        """Events in application order: by time, then rank, then declaration.

        The enforced total order at one instant is Leave/ServerDown/
        ServerFail (free resources) before ProfileSwitch before
        Join/ServerUp (claim resources) — see
        :attr:`SessionEvent.rank` — with declaration order breaking ties
        only within a rank, so two sessions listing the same events in a
        different order plan identically.
        """
        return tuple(sorted(self.events, key=lambda e: (e.t_ms, e.rank)))

    @property
    def n_clients(self) -> int:
        """Total clients that ever participate (initial + joiners)."""
        return len(self.clients) + sum(
            1 for e in self.events if isinstance(e, Join)
        )

    def with_policy(self, policy: str) -> "Session":
        """This session under another scheduling policy.

        Roster, events, platform, and fleet are shared (all frozen); only
        the policy differs — the hook the population demand generator
        uses to re-plan one sampled city under every candidate policy.
        """
        if policy == self.policy:
            return self
        return replace(self, policy=policy)

    # -- planning ----------------------------------------------------------------

    def timeline(
        self,
        system: str = "qvr",
        n_frames: int = 200,
        seed: int = 0,
        warmup_frames: int | None = None,
    ) -> "SessionTimeline":
        """Walk the session's epochs and freeze it into run specs.

        The epoch walker steps chronologically through the windows
        between events.  At each boundary the pending events apply, the
        clients present are seated **in priority order** — clients
        already being serviced first (by service start, so re-seating
        never evicts an incumbent), then waiters by arrival (first-fit:
        the oldest waiting client that *fits* goes first, so a lighter
        late-comer may slip past a heavy queued client rather than
        head-of-line block) — and the policy allocates share schedules
        over the window.  How clients are seated depends on the
        session's shape (see the module docstring): through the fleet's
        placement policy, through the bare server's admission, or, for
        the legacy static fair-share session, by admitting everyone.
        Every serviced client freezes to one
        :class:`~repro.sim.runner.RunSpec` whose ``start_ms`` is its
        service start and whose frame count covers its active window.

        ``warmup_frames`` (``None``: the default warm-up for
        ``n_frames``) must leave at least one steady-state frame of the
        session; a client whose run is shorter than the warm-up keeps
        all its frames.
        """
        if warmup_frames is not None and not 0 <= warmup_frames < n_frames:
            raise ConfigurationError(
                f"warmup_frames ({warmup_frames}) must be >= 0 and < "
                f"n_frames ({n_frames})"
            )
        mode = (
            "fleet" if self.fleet is not None
            else "dynamic" if self.events
            else "static"
        )
        with obs_trace.active().span(
            "session.plan", mode=mode, clients=len(self.clients)
        ):
            return _walk_epochs(self, system, n_frames, seed, warmup_frames)


def _walk_epochs(
    session: Session,
    system: str,
    n_frames: int,
    seed: int,
    warmup_frames: int | None,
) -> "SessionTimeline":
    """The epoch walker behind :meth:`Session.timeline` (see the module docstring)."""
    from repro.sim import fleet as fleets  # late: the fleet module imports this one

    assert session.platform is not None
    duration_ms = n_frames * constants.FRAME_BUDGET_MS
    ordered = session.ordered_events()
    for event in ordered:
        if event.t_ms >= duration_ms:
            raise ConfigurationError(
                f"event at {event.t_ms:g} ms falls outside the nominal "
                f"session ({n_frames} frames = {duration_ms:g} ms)"
            )
    fleet = session.fleet
    if fleet is not None:
        placement = fleets.placement_by_name(fleet.placement)
        pool = dict(fleet.servers)
        up = {name: fleet.initially_up(name) for name in fleet.names}
    else:
        # A bare server is a one-seat pool named "".
        pool = {"": session.server if session.server is not None else RenderServer()}
        up = {"": True}
    config = next(iter(pool.values())).config
    capacities = {name: server.capacity for name, server in pool.items()}
    legacy = (
        fleet is None
        and session.server is None
        and session.policy == "fair-share"
        and not ordered
    )
    stalled = ((0.0, fleets.STALL_SHARE),)
    tracer = obs_trace.active()

    states = [
        _ClientState(index, spec, 0.0, spec.resolved_platform(session.platform))
        for index, spec in enumerate(session.clients)
    ]
    events_at: dict[float, list[SessionEvent]] = {}
    for event in ordered:
        events_at.setdefault(event.t_ms, []).append(event)
    boundaries = sorted(set(events_at) | {0.0})

    epochs: list[Epoch] = []
    for k, t0 in enumerate(boundaries):
        t1 = boundaries[k + 1] if k + 1 < len(boundaries) else duration_ms
        lost: dict[str, bool] = {}  # servers gone at t0 -> drained?
        for event in events_at.get(t0, ()):
            if isinstance(event, Join):
                states.append(
                    _ClientState(
                        len(states),
                        event.spec,
                        t0,
                        event.spec.resolved_platform(session.platform),
                    )
                )
            elif isinstance(event, Leave):
                states[event.client].leave(t0)
            elif isinstance(event, ProfileSwitch):
                states[event.client].switch(t0, event.profile)
            elif isinstance(event, fleets.ServerUp):
                up[event.server] = True
            else:  # ServerDown / ServerFail
                up[event.server] = False
                lost[event.server] = (
                    isinstance(event, fleets.ServerDown) and event.drain
                )
        for state in states:
            if state.assigned is None:
                continue
            if not state.present_at(t0):
                state.assigned = None  # a leaver frees its seat silently
            elif not up[state.assigned] or state.assigned in lost:
                # Down servers displace their clients even when a same-t
                # ServerUp brings the box straight back: a fail/up blip
                # still lost the in-flight state (penalty on re-seat).
                state.displace(
                    t0,
                    drained=lost.get(state.assigned, False),
                    requeue=fleet.migration == "requeue",
                )

        roster = sorted(
            (s for s in states if s.present_at(t0)), key=_ClientState.priority
        )
        demands = () if legacy else tuple(
            ClientDemand.estimate(
                app=s.spec.app,
                profile=s.profile(),
                # The allocation planner samples the profile with the
                # channel's seed, so Markov links replay the same state
                # sequence the run will observe.
                seed=seed + CLIENT_SEED_STRIDE * s.index + 7,
                weight=s.spec.weight,
                server=config,
            )
            for s in roster
        )
        up_names = tuple(name for name in pool if up[name])

        # -- seating: the one step that depends on the session's shape --
        loads = {name: 0.0 for name in up_names}
        arrivals: dict[str, list[int]] = {}
        migrated_in: dict[str, list[int]] = {}
        if fleet is not None:
            for s in roster:
                if s.assigned is not None:
                    loads[s.assigned] += s.spec.weight
            decisions = []
            for s, demand in zip(roster, demands):
                if s.assigned is not None:
                    decisions.append(AdmissionDecision(s.index, "admit"))
                    continue
                candidates = tuple(
                    name
                    for name in up_names
                    if pool[name].fits(demand.weight, loads[name])
                )
                if not candidates or s.holdoff_ms == t0:
                    spill = (
                        "reject"
                        if s.service_start is None and fleet.overflow == "reject"
                        else "queue"
                    )
                    decisions.append(
                        AdmissionDecision(s.index, spill, service_level=0.0)
                    )
                    continue
                target = placement.place(candidates, loads, capacities, s.last_server)
                loads[target] += demand.weight
                arrivals.setdefault(target, []).append(s.index)
                if s.assign(t0, target):
                    migrated_in.setdefault(target, []).append(s.index)
                decisions.append(AdmissionDecision(s.index, "admit"))
        elif legacy:
            decisions = [AdmissionDecision(s.index, "admit") for s in roster]
        else:
            decisions = [
                replace(d, client_index=s.index)
                for s, d in zip(roster, pool[""].admit(demands))
            ]
        for s, decision in zip(roster, decisions):
            # A rejection is final: the client is turned away, not parked
            # in the queue — only queued clients are re-tried (and
            # promoted) at later boundaries.
            if decision.action == "reject":
                s.rejected = True
            elif decision.serviced and fleet is None:
                s.assigned = ""  # a bare server seats without placement history

        placed = [s for s in roster if s.assigned is not None]
        if placed and legacy:
            for s in placed:
                s.record_segments(t0, (), (), len(placed))
        elif placed:
            # The downlink is shared session-wide, so its split is
            # computed over the whole placed roster; each server's
            # rendering throughput is split only within its own group.
            # When one server hosts everyone (always, on a bare server)
            # the two calls would be argument-identical, so one
            # allocation serves both resources.
            window = (
                duration_ms * _HORIZON_SLACK if k + 1 == len(boundaries) else t1
            ) - t0
            placed_demands = tuple(
                d for s, d in zip(roster, demands) if s.assigned is not None
            )
            hosts = {s.assigned for s in placed}
            # min() rather than next(iter(...)): the set is a singleton
            # here, but pulling its element via iteration order is a
            # determinism hazard the moment that invariant slips.
            session_alloc = pool[
                up_names[0] if len(hosts) > 1 else min(hosts)
            ].allocate(
                placed_demands,
                session.policy,
                horizon_ms=window,
                sharing_efficiency=session.sharing_efficiency,
                service_levels=tuple(d.service_level for d in decisions if d.serviced),
                start_ms=t0,
            )
            server_of = {s.index: a.server for s, a in zip(placed, session_alloc)}
            if len(hosts) > 1:
                for name in up_names:
                    group = [
                        (s, d) for s, d in zip(roster, demands) if s.assigned == name
                    ]
                    if not group:
                        continue
                    group_alloc = pool[name].allocate(
                        tuple(d for _, d in group),
                        session.policy,
                        horizon_ms=window,
                        sharing_efficiency=session.sharing_efficiency,
                        start_ms=t0,
                    )
                    for (s, _), allocation in zip(group, group_alloc):
                        server_of[s.index] = allocation.server
            for s, allocation in zip(placed, session_alloc):
                schedule = server_of[s.index]
                if s.penalty_pending and fleet.migration_penalty_ms > 0:
                    if fleet.migration_penalty_ms >= window:
                        schedule = ShareSchedule(stalled)
                    else:
                        schedule = schedule.with_stall(
                            fleet.migration_penalty_ms, fleets.STALL_SHARE
                        )
                s.penalty_pending = False
                s.record_segments(
                    t0, schedule.segments, allocation.downlink.segments, len(placed)
                )
        for s in roster:
            # Parked: displaced with nowhere to go (or re-queued) — keep
            # the run alive at the stall share until capacity returns.
            if s.assigned is None and s.service_start is not None:
                s.park(t0)
                s.record_segments(t0, stalled, stalled, len(placed))
        epochs.append(
            Epoch(
                start_ms=t0,
                end_ms=t1,
                decisions=tuple(decisions),
                serviced=tuple(s.index for s in placed),
                placements=()
                if fleet is None
                else tuple((s.index, s.assigned) for s in placed),
                servers=()
                if fleet is None
                else tuple(
                    ServerWindow(
                        server=name,
                        start_ms=t0,
                        end_ms=t1,
                        capacity=capacities[name],
                        load=loads[name],
                        clients=tuple(s.index for s in placed if s.assigned == name),
                        arrivals=tuple(arrivals.get(name, ())),
                        migrated_in=tuple(migrated_in.get(name, ())),
                    )
                    for name in up_names
                ),
            )
        )
        tracer.instant(
            "session.epoch", epoch=k, t0_ms=t0,
            roster=len(roster), serviced=len(placed),
        )

    warmup = effective_warmup(n_frames) if warmup_frames is None else warmup_frames
    return SessionTimeline(
        session=session,
        n_frames=n_frames,
        duration_ms=duration_ms,
        epochs=tuple(epochs),
        clients=tuple(
            state.freeze(session, system, n_frames, seed, warmup, duration_ms)
            for state in states
        ),
    )


class _ClientState:
    """Mutable per-client bookkeeping while the walker steps the epochs.

    ``assigned`` is the client's seat this epoch: a fleet server name,
    ``""`` on a bare server, ``None`` while waiting or parked.
    """

    def __init__(
        self,
        index: int,
        spec: ClientSpec,
        joined_ms: float,
        resolved: PlatformConfig,
    ) -> None:
        self.index = index
        self.spec = spec
        self.joined_ms = joined_ms
        self.resolved = resolved
        self.left_ms: float | None = None
        self.rejected = False
        self.profile_history: list[tuple[float, NetworkProfile]] = [
            (0.0, as_profile(resolved.network))
        ]
        self.service_start: float | None = None
        self.service_end: float | None = None
        self.server_segments: list[tuple[float, float]] = []
        self.downlink_segments: list[tuple[float, float]] = []
        self.peak_roster = 0
        self.assigned: str | None = None
        self.last_server: str | None = None
        self.placement_history: list[tuple[float, str | None]] = []
        self.migrations = 0
        self.queue_since = joined_ms
        self.requeued = False
        self.holdoff_ms: float | None = None
        self.penalty_pending = False

    def present_at(self, t_ms: float) -> bool:
        """True when the client is in the session at ``t_ms``."""
        return (
            self.joined_ms <= t_ms and self.left_ms is None and not self.rejected
        )

    def leave(self, t_ms: float) -> None:
        """Mark the client gone at ``t_ms``, ending any open service."""
        self.left_ms = t_ms
        if self.service_start is not None and self.service_end is None:
            self.service_end = t_ms

    def switch(self, t_ms: float, profile: NetworkProfile) -> None:
        """Record a network-profile switch taking effect at ``t_ms``.

        Of several switches at one instant the last applied wins.
        """
        if self.profile_history[-1][0] == t_ms:
            self.profile_history.pop()
        self.profile_history.append((t_ms, profile))

    def profile(self) -> NetworkProfile:
        """The client's link history so far, as one sampleable profile."""
        if len(self.profile_history) == 1:
            return self.profile_history[0][1]
        return SwitchedProfile(
            segments=tuple(self.profile_history),
            label=f"{self.profile_history[0][1].name}:switched",
        )

    def _switched_network(
        self, session: Session, default_network, shared_start: bool
    ) -> SwitchedProfile:
        """The executable composite link of a client that roamed mid-run.

        A client that began on the shared session link was contending on
        the session downlink until its first switch, so that span must
        sample the *allocated* view of the default link (the client's
        scheduled downlink share, with the session's jitter growth) —
        not the raw full-capacity link.  Splicing the allocation into
        the profile here keeps the pre-switch epochs bit-identical to
        the same session without the roam; the post-switch segments are
        the client's private links, sampled at full capacity.
        """
        segments = list(self.profile_history)
        if shared_start and self.downlink_segments:
            # Session-time shares; the first segment starts at the
            # client's service start, normalised to the 0-origin the
            # schedule requires (instants before it are never sampled).
            shares = tuple(self.downlink_segments)
            shares = ((0.0, shares[0][1]),) + shares[1:]
            segments[0] = (
                0.0,
                AllocatedProfile(
                    base=as_profile(default_network),
                    segments=shares,
                    n_clients=max(self.peak_roster, 1),
                    label=session.policy,
                ),
            )
        return SwitchedProfile(
            segments=tuple(segments),
            label=f"{self.profile_history[0][1].name}:switched",
        )

    @property
    def switched(self) -> bool:
        """True once the client has changed network profile."""
        return len(self.profile_history) > 1

    def record_segments(
        self,
        t0: float,
        server_segments,
        downlink_segments,
        roster_size: int,
    ) -> None:
        """Append one epoch's window-local share schedules at offset ``t0``.

        Migration-penalised and parked (stall-share) epochs are recorded
        here too, so the schedules need no single
        :class:`~repro.sim.server.SessionAllocation` behind them.
        """
        if self.service_start is None:
            self.service_start = t0
        self.peak_roster = max(self.peak_roster, roster_size)
        for start, share in server_segments:
            _append_merged(self.server_segments, t0 + start, share)
        for start, share in downlink_segments:
            _append_merged(self.downlink_segments, t0 + start, share)

    def assign(self, t_ms: float, server: str) -> bool:
        """Seat the client on a fleet server; True on a cross-server move."""
        migrated = self.last_server is not None and self.last_server != server
        if migrated:
            self.migrations += 1
            obs_trace.active().instant(
                "fleet.migrate", client=self.index, t_ms=t_ms,
                src=self.last_server, dst=server,
            )
        if not self.placement_history or self.placement_history[-1][1] != server:
            self.placement_history.append((t_ms, server))
        self.assigned = server
        self.last_server = server
        self.requeued = False
        self.holdoff_ms = None
        return migrated

    def park(self, t_ms: float) -> None:
        """Record a span with no server (rendering at the stall share)."""
        if not self.placement_history or self.placement_history[-1][1] is not None:
            self.placement_history.append((t_ms, None))
            obs_trace.active().instant(
                "fleet.park", client=self.index, t_ms=t_ms
            )

    def displace(self, t_ms: float, drained: bool, requeue: bool) -> None:
        """The client's fleet server went away; decide its queueing fate.

        A drained scale-down is planned: the client migrates gracefully
        (no penalty) and keeps incumbent priority even under the naive
        ``"requeue"`` mode, which models the handling of *unplanned*
        displacement only.
        """
        self.assigned = None
        obs_trace.active().instant(
            "fleet.displace", client=self.index, t_ms=t_ms,
            drained=drained, requeue=requeue,
        )
        if not drained:
            self.penalty_pending = True
        if requeue and not drained:
            self.requeued = True
            self.queue_since = t_ms
            self.holdoff_ms = t_ms

    def priority(self) -> tuple:
        """Seating order: seated/serviced incumbents, then waiters FCFS."""
        incumbent = self.assigned is not None or (
            self.service_start is not None and not self.requeued
        )
        if incumbent:
            start = (
                self.service_start
                if self.service_start is not None
                else self.joined_ms
            )
            return (0, start, self.joined_ms, self.index)
        return (1, self.queue_since, self.joined_ms, self.index)

    def freeze(
        self,
        session: Session,
        system: str,
        n_frames: int,
        seed: int,
        warmup_frames: int,
        duration_ms: float,
    ) -> "ClientTimeline":
        """Close the books: one RunSpec if the client was ever serviced."""
        if self.service_start is None:
            return ClientTimeline(
                index=self.index,
                spec=self.spec,
                joined_ms=self.joined_ms,
                start_ms=None,
                end_ms=self.left_ms,
                run=None,
            )
        start = self.service_start
        end = self.service_end
        active_ms = (end if end is not None else duration_ms) - start
        frames = max(1, int(round(n_frames * active_ms / duration_ms)))
        # A client is on the shared session downlink only while it holds
        # the default link: an override privatises it from the start; a
        # mid-session switch privatises it *from the switch on* (the
        # pre-switch span keeps its allocated share of the session link
        # — see _switched_network — so a later roam cannot retroactively
        # rewrite epochs the client spent contending on the downlink).
        default_network = session.platform.network
        shared_start = self.resolved.network == default_network
        shared_link = shared_start and not self.switched
        platform = (
            replace(
                self.resolved,
                network=self._switched_network(session, default_network, shared_start),
            )
            if self.switched
            else self.resolved
        )
        # The legacy static fair-share session records no schedules and
        # freezes unscheduled specs (``or None``).
        run = RunSpec(
            system=self.spec.system if self.spec.system is not None else system,
            app=self.spec.app,
            platform=platform,
            n_frames=frames,
            seed=seed + CLIENT_SEED_STRIDE * self.index,
            warmup_frames=effective_warmup(frames, warmup_frames),
            shared_clients=max(self.peak_roster, 1),
            sharing_efficiency=session.sharing_efficiency,
            shared_downlink=shared_link,
            policy=session.policy,
            server_allocation=tuple(
                (s - start, share) for s, share in self.server_segments
            ) or None,
            downlink_allocation=(
                tuple((s - start, share) for s, share in self.downlink_segments)
                or None
                if shared_link
                else None
            ),
            start_ms=start,
        )
        return ClientTimeline(
            index=self.index,
            spec=self.spec,
            joined_ms=self.joined_ms,
            start_ms=start,
            end_ms=end,
            run=run,
            servers=tuple(self.placement_history),
            migrations=self.migrations,
        )


def _append_merged(
    segments: list[tuple[float, float]], start_ms: float, share: float
) -> None:
    """Append a segment, merging runs of identical shares across epochs."""
    if segments and segments[-1][1] == share:
        return
    segments.append((start_ms, share))


# ---------------------------------------------------------------------------
# Timeline output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Epoch:
    """One planning window between consecutive session events.

    ``decisions`` covers the roster present during the epoch, in
    admission-priority order (clients already being serviced first, by
    service start, then waiters by arrival), with ``client_index``
    naming session indices; ``serviced`` lists the indices that actually
    render during the epoch.

    Fleet sessions additionally fill ``placements`` (which named server
    each serviced client renders on this epoch) and ``servers`` (one
    :class:`~repro.sim.metrics.ServerWindow` of occupancy per up
    server); both stay empty for single-server sessions.
    """

    start_ms: float
    end_ms: float
    decisions: tuple[AdmissionDecision, ...]
    serviced: tuple[int, ...]
    placements: tuple[tuple[int, str], ...] = ()
    servers: tuple[ServerWindow, ...] = ()

    @property
    def queued(self) -> tuple[int, ...]:
        """Session indices waiting in the admission queue this epoch."""
        return tuple(
            d.client_index for d in self.decisions if d.action == "queue"
        )

    def server_of(self, client: int) -> str | None:
        """The fleet server a client renders on this epoch (None: none)."""
        for index, name in self.placements:
            if index == client:
                return name
        return None


@dataclass(frozen=True)
class ClientTimeline:
    """One client's fate across the whole session.

    ``start_ms``/``end_ms`` bound the client's *service* window on the
    session clock (``None`` start: never serviced; ``None`` end: ran to
    the session's end).  ``run`` is the frozen executable spec, absent
    for clients that were rejected, or left while still queued.

    Fleet sessions additionally fill ``servers`` — the client's
    placement history as ``(t_ms, server)`` steps, where ``None`` marks
    a parked span (displaced with nowhere to go, rendering at the
    starvation share) — and ``migrations``, how many times the client
    moved between servers.
    """

    index: int
    spec: ClientSpec
    joined_ms: float
    start_ms: float | None
    end_ms: float | None
    run: RunSpec | None
    servers: tuple[tuple[float, str | None], ...] = ()
    migrations: int = 0

    @property
    def serviced(self) -> bool:
        """True when the client rendered at least one epoch."""
        return self.run is not None

    @property
    def queued_ms(self) -> float:
        """Time spent waiting in the admission queue before service."""
        if self.start_ms is None:
            return float("nan")
        return self.start_ms - self.joined_ms


@dataclass(frozen=True)
class SessionTimeline:
    """The planner's full output: epochs plus per-client verdicts."""

    session: Session
    n_frames: int
    duration_ms: float
    epochs: tuple[Epoch, ...]
    clients: tuple[ClientTimeline, ...]

    @property
    def specs(self) -> tuple[RunSpec, ...]:
        """One frozen spec per serviced client, in session index order."""
        return tuple(c.run for c in self.clients if c.run is not None)

    @property
    def serviced_indices(self) -> tuple[int, ...]:
        """Session indices of the clients that actually run."""
        return tuple(c.index for c in self.clients if c.run is not None)

    def client(self, index: int) -> ClientTimeline:
        """The timeline of one session client."""
        if not 0 <= index < len(self.clients):
            raise ConfigurationError(
                f"no session client {index}; session has {len(self.clients)}"
            )
        return self.clients[index]

    @property
    def server_stats(self):
        """Per-server utilisation/migration aggregates of a fleet session.

        One :class:`~repro.sim.metrics.ServerStats` per fleet server that
        was ever up, folded from the epochs'
        :class:`~repro.sim.metrics.ServerWindow` rows; empty for
        single-server sessions.
        """
        return aggregate_server_stats(
            [window for epoch in self.epochs for window in epoch.servers]
        )


# ---------------------------------------------------------------------------
# Motion-coupled event generation
# ---------------------------------------------------------------------------


def events_from_motion(
    trace,
    degraded: "NetworkProfile | NetworkConditions | str",
    recovered: "NetworkProfile | NetworkConditions | str",
    client: int = 0,
    threshold: float = 0.5,
    min_dwell_ms: float = 200.0,
) -> tuple[ProfileSwitch, ...]:
    """Synthesize degraded-link ``ProfileSwitch`` events from head motion.

    The paper's controller exploits the motion/workload correlation
    (Sec. 4.1, Fig. 8); on mmWave-class links the same bursts also break
    the radio — fast head sweeps defeat beam alignment, so high
    head-velocity windows coincide with throughput collapses.  This
    helper scans a :class:`~repro.motion.traces.MotionTrace` for
    sustained high-activity windows (``activity >= threshold`` for at
    least ``min_dwell_ms``) and couples them to the link: the client
    roams onto ``degraded`` (typically a checked-in ``data/`` 4G/5G
    trace) at each window start and back onto ``recovered`` at each
    window end.  Determinism is inherited from the trace: the same
    (trace seed, thresholds) pair always emits the same events.

    Windows still open at the trace's end emit only their opening
    switch; a window starting at the very first sample starts at the
    second sample instead (session events must fall strictly after
    t = 0).  The returned events plug straight into
    :attr:`Session.events` alongside any hand-written timeline.
    """
    degraded_profile = as_profile(degraded)
    recovered_profile = as_profile(recovered)
    if not 0 < threshold <= 1:
        raise ConfigurationError(
            f"activity threshold must be in (0, 1], got {threshold}"
        )
    if min_dwell_ms <= 0:
        raise ConfigurationError(
            f"min_dwell_ms must be > 0, got {min_dwell_ms}"
        )
    if client < 0:
        raise ConfigurationError(f"client index must be >= 0, got {client}")
    samples = list(trace)
    events: list[ProfileSwitch] = []
    window_start: float | None = None
    for position, sample in enumerate(samples):
        active = sample.activity >= threshold
        if active and window_start is None:
            window_start = sample.time_ms
            if window_start <= 0 and position + 1 < len(samples):
                window_start = samples[position + 1].time_ms
        elif not active and window_start is not None:
            if sample.time_ms - window_start >= min_dwell_ms:
                events.append(
                    ProfileSwitch(window_start, client, degraded_profile)
                )
                events.append(
                    ProfileSwitch(sample.time_ms, client, recovered_profile)
                )
            window_start = None
    if window_start is not None and samples:
        closing = samples[-1].time_ms
        if closing - window_start >= min_dwell_ms and window_start > 0:
            events.append(ProfileSwitch(window_start, client, degraded_profile))
    return tuple(events)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionResult:
    """Per-client simulation results plus the timeline they executed.

    ``per_client`` aligns with :attr:`SessionTimeline.serviced_indices`.
    Per-epoch aggregation maps each session epoch onto every client's
    local clock (records start at the client's own t = 0) via
    :func:`~repro.sim.metrics.window_stats`.
    """

    timeline: SessionTimeline
    per_client: tuple[SimulationResult, ...]

    def result_for(self, index: int) -> SimulationResult | None:
        """The run result of one session client (None if never serviced)."""
        for serviced, result in zip(
            self.timeline.serviced_indices, self.per_client
        ):
            if serviced == index:
                return result
        return None

    def client_window(
        self, index: int, start_ms: float, end_ms: float
    ) -> WindowStats | None:
        """Aggregate one client's frames inside a *session-clock* window.

        The window translates onto the client's local clock (local 0 is
        its service start); returns None when the window ends before the
        client ever started.
        """
        client = self.timeline.client(index)
        result = self.result_for(index)
        if result is None or client.start_ms is None:
            return None
        local_start = max(start_ms - client.start_ms, 0.0)
        local_end = end_ms - client.start_ms
        if local_end <= local_start:
            return None
        return window_stats(result.records, local_start, local_end)

    def epoch_stats(self, index: int) -> tuple[WindowStats | None, ...]:
        """One :class:`~repro.sim.metrics.WindowStats` per session epoch."""
        return tuple(
            self.client_window(index, epoch.start_ms, epoch.end_ms)
            for epoch in self.timeline.epochs
        )

    @property
    def mean_fps(self) -> float:
        """Average per-client frame rate across serviced clients."""
        if not self.per_client:
            return float("nan")
        return float(np.mean([r.measured_fps for r in self.per_client]))

    @property
    def mean_e1_deg(self) -> float:
        """Average steady-state eccentricity across serviced clients."""
        if not self.per_client:
            return float("nan")
        return float(np.mean([r.mean_e1_deg for r in self.per_client]))

    @property
    def mean_latency_ms(self) -> float:
        """Average end-to-end latency across serviced clients."""
        if not self.per_client:
            return float("nan")
        return float(np.mean([r.mean_latency_ms for r in self.per_client]))

    @property
    def clients_meeting_fps(self) -> int:
        """How many serviced clients hold the 90 Hz requirement."""
        return sum(1 for r in self.per_client if r.meets_target_fps)


def simulate_session(
    session: Session,
    n_frames: int = 200,
    seed: int = 0,
    system: str = "qvr",
    engine: BatchEngine | None = None,
    warmup_frames: int | None = None,
) -> SessionResult:
    """Plan and execute a session end to end.

    The one multi-user entry point, for static rosters and churning
    sessions alike.  The timeline's frozen specs run through the batch
    engine (the caller's, or the default serial one), so parallel and
    caching engines accelerate multi-user and churn studies exactly as
    they accelerate figure sweeps; clients the admission controller
    never serviced contribute no result but keep their verdicts on the
    timeline.
    """
    timeline = session.timeline(
        system=system, n_frames=n_frames, seed=seed, warmup_frames=warmup_frames
    )
    chosen = engine if engine is not None else default_engine()
    batch = chosen.run_specs(timeline.specs)
    return SessionResult(
        timeline=timeline,
        per_client=tuple(batch[spec] for spec in timeline.specs),
    )
