"""Generated scalar ≡ vector parity on population-shaped specs.

The hand-picked grid in ``test_kernels.py`` never runs the specs a
population actually carries: short sessions (1-20 frames), late
starters (non-zero ``start_ms``, hence ``OffsetProfile``), mid-session
link switches (``SwitchedProfile``), fleet share schedules
(``AllocatedProfile``) and replayed trace links.  Here Hypothesis draws
small :class:`~repro.sim.demand.DemandScenario` expansions, plans every
session under every policy, and runs the resulting client-session specs
through the vector engine in an interleaved order: consecutive runs
alternate seeds at one panel resolution, then switch resolution, so the
kernels' per-resolution lattice, workspaces and memos are shared across
seeds and resolutions exactly as a population run shares them.  Every
result must be bit-identical to the scalar task-graph oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle

from hypothesis import given, settings, strategies as st

from repro.sim.demand import DemandScenario
from repro.sim.runner import run
from repro.workloads.apps import get_app

#: Apps at both panel resolutions (1280x1600 and 1920x2160).
_APPS = ("Doom3-L", "HL2-L", "GRID", "UT3")
_PROFILES = ("lte", "wifi-drop", "data/lte_4g_drive.csv", "data/nr_5g_walk.csv")


@st.composite
def _population_specs(draw):
    """Client-session specs of a small generated city, every policy."""
    frames_min = draw(st.integers(1, 20))
    payload = {
        "name": "generated",
        "horizon_ms": 60_000,
        "arrivals": {"process": "poisson", "rate_per_min": 6.0},
        "party_sizes": {"1": 1.0, str(draw(st.integers(2, 4))): 2.0},
        "duration_frames": {"min": frames_min, "max": draw(st.integers(frames_min, 20))},
        "clients": [
            {"app": "Doom3-L", "share": 1.0},
            {"app": "GRID", "share": 1.0},
            {"app": draw(st.sampled_from(_APPS)), "share": 1.0, "weight": 2.0},
        ],
        "profiles": {
            "default": 1.0,
            **{name: 1.0 for name in draw(st.sets(st.sampled_from(_PROFILES), min_size=1))},
        },
        "churn": {
            "late_join": draw(st.sampled_from((0.0, 0.5, 0.9))),
            "leave": draw(st.sampled_from((0.0, 0.4))),
            "switch": draw(st.sampled_from((0.0, 0.5))),
        },
        "fleet": {
            "servers": {"edge": draw(st.integers(1, 2)), "metro": 2},
            "placement": draw(st.sampled_from(("first-fit", "least-loaded", "sticky"))),
        },
        "policies": ["fair-share", "deadline"],
    }
    scenario = DemandScenario.from_payload(payload)
    planned = scenario.expand(draw(st.integers(0, 10_000)), max_sessions=draw(st.integers(2, 4)))
    return [
        spec
        for item in planned
        for policy in scenario.policies
        for spec in item.session.with_policy(policy)
        .timeline(system=scenario.system, n_frames=item.n_frames, seed=item.seed)
        .specs
    ]


def _interleaved(specs):
    """Round-robin over ``(resolution, seed)`` groups, seeds adjacent per resolution."""
    groups: dict[tuple, list] = {}
    for spec in specs:
        app = get_app(spec.app)
        groups.setdefault((app.width_px, app.height_px, spec.seed), []).append(spec)
    rounds = itertools.zip_longest(*(groups[key] for key in sorted(groups)))
    return [spec for batch in rounds for spec in batch if spec is not None]


class TestPopulationShapedParity:
    @settings(max_examples=8, deadline=None)
    @given(specs=_population_specs())
    def test_vector_matches_scalar_bit_for_bit(self, specs):
        for spec in _interleaved(specs):
            vector = run(dataclasses.replace(spec, engine="vector"))
            scalar = run(dataclasses.replace(spec, engine="scalar"))
            assert pickle.dumps(vector) == pickle.dumps(scalar), spec
