"""Elastic render fleets: multi-server capacity, failures, migration.

The paper's collaborative design assumes the remote tier can absorb
whatever the mobile clients offload; surveys of synchronous multi-party
VR stress the opposite — real sessions are bounded by *elastic,
failure-prone* server infrastructure.  This module turns the
reproduction's server from a scalar capacity into a simulated cluster:

* :class:`RenderFleet` — a roster of **named**
  :class:`~repro.sim.server.RenderServer`s with a pluggable
  :class:`PlacementPolicy` (first-fit, least-loaded, sticky/affinity)
  mapping serviced clients onto servers at every planning epoch;
* the capacity events extending the session vocabulary
  (:mod:`repro.sim.session`) — :class:`ServerUp`, :class:`ServerDown`
  (with graceful ``drain``), and :class:`ServerFail` — so
  :meth:`~repro.sim.session.Session.timeline` re-plans placement at
  every capacity *or* client event.

A fleet session is planned by the session module's one epoch walker;
the fleet decides only its seating step.  At each boundary the
placement policy seats new and promoted clients, and each server's
rendering throughput is allocated among the clients placed on it while
the session downlink is split across the whole placed roster.  On
shrink or failure, displaced clients are **migrated** to a surviving
server (a configurable migration penalty is spliced into their
``(start_ms, share)`` schedules as a starvation window while state
transfers) or — under the naive ``"requeue"`` mode — dropped to the
back of the admission queue FCFS behind incumbents, where they render
at the starvation share until a later re-planning event re-seats them.
Fleet epochs additionally carry placements and per-server occupancy
windows.

Planning invariants:

* incumbents whose server survives are never re-placed (no spontaneous
  consolidation churn); the placement policy decides only for new,
  promoted, and displaced clients;
* a displaced client that fits nowhere is **parked** — it keeps its one
  contiguous :class:`~repro.sim.runner.RunSpec` but renders at
  :data:`STALL_SHARE` until capacity returns (the connection survives
  the outage, the frames mostly do not);
* fleet servers are homogeneous in hardware
  (:class:`~repro.gpu.config.RemoteServerConfig`) and may differ only in
  capacity, so a mid-run migration never changes the render-time model
  behind a frozen spec;
* everything stays deterministic and cache-stable: the planner emits
  ordinary specs whose schedules carry the whole story, and a
  single-server fleet with no capacity events plans bit-identically to
  the same session on a bare ``RenderServer``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.server import RenderServer
from repro.sim.session import CapacityEvent

__all__ = [
    "ServerUp",
    "ServerDown",
    "ServerFail",
    "PlacementPolicy",
    "FirstFitPlacement",
    "LeastLoadedPlacement",
    "StickyPlacement",
    "PLACEMENTS",
    "PLACEMENT_NAMES",
    "placement_by_name",
    "MIGRATION_MODES",
    "FLEET_OVERFLOW_MODES",
    "STALL_SHARE",
    "RenderFleet",
    "fleet_from_payload",
]

#: Starvation share a parked or state-transferring client renders (and
#: transmits) at: the session keeps the connection alive, but the frames
#: all but stop — small enough to gut the tail frame rate, positive so
#: schedules stay valid and the run keeps advancing deterministically.
STALL_SHARE = 0.05

#: How a fleet treats clients displaced by a shrink or failure.
MIGRATION_MODES = ("migrate", "requeue")

#: What happens to a *new* client no server can seat.  Displaced
#: incumbents always park/queue — mid-session clients are never rejected.
FLEET_OVERFLOW_MODES = ("queue", "reject")


# ---------------------------------------------------------------------------
# Capacity events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServerUp(CapacityEvent):
    """A fleet server comes (back) online; its capacity joins the pool."""

    rank = 2


@dataclass(frozen=True)
class ServerDown(CapacityEvent):
    """A planned scale-down.  ``drain=True`` (the default) migrates the
    displaced clients gracefully — state was transferred while the server
    drained, so no migration penalty applies; ``drain=False`` yanks the
    server, and re-seated clients pay the penalty."""

    rank = 0

    drain: bool = True


@dataclass(frozen=True)
class ServerFail(CapacityEvent):
    """An abrupt failure: in-flight state is lost, every displaced client
    pays the migration penalty when re-seated (even on the same server
    after a later :class:`ServerUp`)."""

    rank = 0


# ---------------------------------------------------------------------------
# Placement policies
# ---------------------------------------------------------------------------


class PlacementPolicy(ABC):
    """Chooses a server for one client at one planning boundary."""

    name: str = "abstract"

    @abstractmethod
    def place(
        self,
        candidates: tuple[str, ...],
        loads: dict[str, float],
        capacities: dict[str, float],
        last_server: str | None,
    ) -> str:
        """Pick one of ``candidates`` (non-empty, fleet declaration order,
        all with room for the client).  ``loads`` holds the weight already
        placed this epoch; ``last_server`` is where the client last
        rendered (None for a first placement)."""


class FirstFitPlacement(PlacementPolicy):
    """The first declared server with room — the dense-packing baseline."""

    name = "first-fit"

    def place(self, candidates, loads, capacities, last_server):
        """Return the first candidate in fleet declaration order."""
        return candidates[0]


class LeastLoadedPlacement(PlacementPolicy):
    """The server with the lowest capacity-relative load (ties: declaration
    order) — spreads clients, keeping headroom for failover."""

    name = "least-loaded"

    def place(self, candidates, loads, capacities, last_server):
        """Return the candidate with the lowest load/capacity ratio."""
        best = min(
            range(len(candidates)),
            key=lambda i: (loads[candidates[i]] / capacities[candidates[i]], i),
        )
        return candidates[best]


class StickyPlacement(PlacementPolicy):
    """Affinity: the client's previous server when it has room (cheap
    re-attach, warm caches), least-loaded otherwise."""

    name = "sticky"

    def place(self, candidates, loads, capacities, last_server):
        """Return ``last_server`` when eligible, else least-loaded."""
        if last_server is not None and last_server in candidates:
            return last_server
        return LeastLoadedPlacement().place(
            candidates, loads, capacities, last_server
        )


#: Registry of placement policies by CLI name.
PLACEMENTS: dict[str, PlacementPolicy] = {
    policy.name: policy
    for policy in (FirstFitPlacement(), LeastLoadedPlacement(), StickyPlacement())
}

#: Placement-policy names, first-fit (the default) first.
PLACEMENT_NAMES: tuple[str, ...] = tuple(PLACEMENTS)


def placement_by_name(name: str) -> PlacementPolicy:
    """Resolve a placement policy by its registry name."""
    key = name.strip().lower()
    if key not in PLACEMENTS:
        raise ConfigurationError(
            f"unknown placement policy {name!r}; known: {PLACEMENT_NAMES}"
        )
    return PLACEMENTS[key]


# ---------------------------------------------------------------------------
# The fleet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RenderFleet:
    """A roster of named rendering servers behind one session.

    Attributes
    ----------
    servers:
        ``(name, RenderServer)`` pairs (a mapping is accepted and
        normalised); declaration order is the deterministic tie-break
        every placement policy falls back to.  Servers must share one
        :class:`~repro.gpu.config.RemoteServerConfig` and tick grid
        (homogeneous hardware — capacities may differ), so migrating a
        client never changes the render-time model inside its frozen
        spec.
    placement:
        Placement policy name (:data:`PLACEMENT_NAMES`).
    migration:
        ``"migrate"`` re-seats displaced clients immediately through the
        placement policy; ``"requeue"`` (the naive baseline the failover
        experiment beats) drops clients displaced by an *unplanned*
        outage (failure, non-drained down) to the back of the queue,
        where they stall until a later re-planning event re-admits them
        — drained scale-downs migrate gracefully under both modes.
    migration_penalty_ms:
        Starvation window spliced into a re-seated client's server
        schedule while its state transfers; clamped to the epoch (the
        next re-plan re-syncs).  Drained scale-downs skip it.
    initial:
        Names up at t = 0 (default: every declared server).  Servers not
        initially up join the pool through :class:`ServerUp` events.
    overflow:
        Fate of a *new* client no server can seat: ``"queue"`` (wait for
        capacity, the default) or ``"reject"`` (final, as on a bare
        server).
    """

    servers: tuple[tuple[str, RenderServer], ...]
    placement: str = "first-fit"
    migration: str = "migrate"
    migration_penalty_ms: float = 120.0
    initial: tuple[str, ...] | None = None
    overflow: str = "queue"

    def __post_init__(self) -> None:
        pairs = (
            tuple(self.servers.items())
            if isinstance(self.servers, dict)
            else tuple(tuple(pair) for pair in self.servers)
        )
        object.__setattr__(self, "servers", pairs)
        if not pairs:
            raise ConfigurationError("a fleet needs at least one server")
        names = [name for name, _ in pairs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate fleet server names: {names}")
        for name, server in pairs:
            if not isinstance(name, str) or not name:
                raise ConfigurationError(
                    f"fleet server names must be non-empty strings, got {name!r}"
                )
            if not isinstance(server, RenderServer):
                raise ConfigurationError(
                    f"fleet server {name!r} must be a RenderServer, got "
                    f"{type(server).__name__}"
                )
        reference = pairs[0][1]
        for name, server in pairs[1:]:
            if server.config != reference.config or server.tick_ms != reference.tick_ms:
                raise ConfigurationError(
                    f"fleet servers must share one hardware config and tick "
                    f"grid (capacities may differ); {name!r} disagrees with "
                    f"{pairs[0][0]!r}"
                )
        placement_by_name(self.placement)  # raises on unknown names
        if self.migration not in MIGRATION_MODES:
            raise ConfigurationError(
                f"unknown migration mode {self.migration!r}; "
                f"known: {MIGRATION_MODES}"
            )
        if self.overflow not in FLEET_OVERFLOW_MODES:
            raise ConfigurationError(
                f"unknown fleet overflow mode {self.overflow!r}; "
                f"known: {FLEET_OVERFLOW_MODES}"
            )
        if self.migration_penalty_ms < 0:
            raise ConfigurationError(
                f"migration_penalty_ms must be >= 0, got "
                f"{self.migration_penalty_ms}"
            )
        if self.initial is not None:
            initial = tuple(self.initial)
            object.__setattr__(self, "initial", initial)
            unknown = [name for name in initial if name not in names]
            if unknown:
                raise ConfigurationError(
                    f"initial servers {unknown} not in the fleet: {names}"
                )

    @classmethod
    def from_capacities(
        cls, capacities: dict[str, float], **kwargs
    ) -> "RenderFleet":
        """A homogeneous fleet from ``{name: capacity_clients}``."""
        return cls(
            servers=tuple(
                (name, RenderServer(capacity_clients=float(capacity)))
                for name, capacity in capacities.items()
            ),
            **kwargs,
        )

    @property
    def names(self) -> tuple[str, ...]:
        """Server names in declaration order."""
        return tuple(name for name, _ in self.servers)

    def server(self, name: str) -> RenderServer:
        """The named server."""
        for candidate, server in self.servers:
            if candidate == name:
                return server
        raise ConfigurationError(
            f"no fleet server {name!r}; known: {self.names}"
        )

    def initially_up(self, name: str) -> bool:
        """True when the named server is up at t = 0."""
        return self.initial is None or name in self.initial

    @property
    def total_capacity(self) -> float:
        """Capacity of the whole declared roster, in client-equivalents."""
        return sum(server.capacity for _, server in self.servers)

    def validate_events(self, events) -> None:
        """Replay up/down state so inconsistent capacity timelines fail
        at session build time (unknown server, double-down, up-while-up)."""
        up = {name: self.initially_up(name) for name in self.names}
        for event in sorted(events, key=lambda e: (e.t_ms, e.rank)):
            if event.server not in up:
                raise ConfigurationError(
                    f"{type(event).__name__} at {event.t_ms:g} ms names "
                    f"unknown server {event.server!r}; fleet has {self.names}"
                )
            if isinstance(event, ServerUp):
                if up[event.server]:
                    raise ConfigurationError(
                        f"ServerUp at {event.t_ms:g} ms: {event.server!r} "
                        "is already up"
                    )
                up[event.server] = True
            elif isinstance(event, (ServerDown, ServerFail)):
                if not up[event.server]:
                    raise ConfigurationError(
                        f"{type(event).__name__} at {event.t_ms:g} ms: "
                        f"{event.server!r} is already down"
                    )
                up[event.server] = False
            else:
                raise ConfigurationError(
                    f"unknown capacity event {type(event).__name__}"
                )


def fleet_from_payload(payload: object, source: str = "fleet") -> RenderFleet:
    """Build a :class:`RenderFleet` from a decoded JSON description.

    The one fleet schema shared by ``repro scenarios --fleet`` files and
    the ``"fleet"`` section of demand scenarios (:mod:`repro.sim.demand`)::

        {"servers": {"a": 2.0, "b": {"capacity": 1.0}},
         "placement": "least-loaded",      # optional
         "migration": "migrate",           # optional: migrate | requeue
         "migration_penalty_ms": 120.0,    # optional
         "initial": ["a"],                 # optional: names up at t = 0
         "overflow": "queue"}              # optional: queue | reject

    Server values are a bare capacity (client-equivalents) or an object
    with a ``"capacity"`` key.  ``source`` names the payload's origin in
    error messages.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("servers"), dict):
        raise ConfigurationError(
            f'{source} must be a JSON object with a "servers" mapping'
        )
    known = {
        "servers", "placement", "migration", "migration_penalty_ms",
        "initial", "overflow",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown fleet keys {unknown} in {source}; known: {sorted(known)}"
        )
    capacities: dict[str, float] = {}
    for name, value in payload["servers"].items():
        if isinstance(value, dict):
            value = value.get("capacity")
        try:
            capacities[str(name)] = float(value)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"bad capacity {value!r} for fleet server {name!r} in {source}"
            ) from None
    kwargs = {
        key: payload[key]
        for key in ("placement", "migration", "overflow")
        if key in payload
    }
    if "migration_penalty_ms" in payload:
        kwargs["migration_penalty_ms"] = float(payload["migration_penalty_ms"])
    if "initial" in payload:
        kwargs["initial"] = tuple(str(n) for n in payload["initial"])
    return RenderFleet.from_capacities(capacities, **kwargs)
