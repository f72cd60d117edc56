"""Golden snapshot of :func:`repro.sim.runner.spec_key`.

``spec_key`` is the content hash behind the result cache and the spill
streams: every published artefact is addressed by it.  This module
pins the exact sha256 hex digests for a canonical matrix of specs so
that *any* drift — a new hashed field, a changed default, a
canonicalisation tweak, a version bump — fails loudly here instead of
silently orphaning cached results.

The key deliberately mixes in ``_SPEC_SCHEMA_VERSION`` and the package
``__version__``, so these digests are expected to change on a release or
schema bump.  When that happens (and ONLY then — an unexplained diff is
a determinism bug), regenerate the table with::

    PYTHONPATH=src python tests/sim/test_spec_key_golden.py

which prints the current matrix in copy-pasteable form.  HASH001 in
``repro-lint.toml`` guards the companion invariant: no RunSpec /
PlatformConfig / NetworkConditions field may be added without deciding
whether it is hashed (baseline), legacy-stripped (``_NEUTRAL_FIELDS``)
or execution-only (``_EXECUTION_FIELDS``).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.network.conditions import LTE_4G
from repro.sim.runner import RunSpec, spec_key
from repro.sim.systems import PlatformConfig


def _matrix() -> dict[str, RunSpec]:
    """The canonical spec matrix, in a stable label -> spec mapping."""
    base = RunSpec(system="qvr", app="GRID")
    return {
        "qvr-grid-default": base,
        "local-doom3h": RunSpec(system="local", app="Doom3-H"),
        "remote-lte": RunSpec(
            system="remote",
            app="Doom3-L",
            platform=PlatformConfig(network=LTE_4G),
        ),
        "qvr-seed7-frames120": replace(base, seed=7, n_frames=120),
        "qvr-shared4": replace(
            base,
            shared_clients=4,
            sharing_efficiency=0.8,
            shared_downlink=False,
        ),
        "qvr-chunks4": replace(base, platform=PlatformConfig(stream_chunks=4)),
        "swqvr-warmup0": RunSpec(system="sw-qvr", app="UT3", warmup_frames=0),
    }


#: Pinned digests.  Do not edit by hand — see the module docstring.
GOLDEN: dict[str, str] = {
    "local-doom3h": "7d3bab924fb6618be0f84e87ee6705c4e931ec9ff4acde96e560a9620168a598",
    "qvr-chunks4": "a37901244fe080f6d40896c21d5ca4df89a2445d40c18c65d853bf37bc7cef11",
    "qvr-grid-default": "85f0b5831502e52c523945418f1a48f7476244d2d564ef4b1231c3dd9ae47135",
    "qvr-seed7-frames120": "94c4abcb917a7e7efa41257eb48f39c22414508ec635860b6397d7e9deecc42d",
    "qvr-shared4": "22da3f081bfb5f61334c8a5ba4c9e9300aa0dfbc57fe215712c0ad1a2499860f",
    "remote-lte": "0793ff50e2dfe40e48ad532b41c87f88f4d532d299c72cfc91eda22a66359e99",
    "swqvr-warmup0": "0bd04595970d1b09e23ed0fc0fa12e650d37699bc23202fae60a89a2ce96d8a0",
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_spec_key_matches_golden(label: str) -> None:
    spec = _matrix()[label]
    assert spec_key(spec) == GOLDEN[label], (
        f"spec_key drifted for {label!r}.  If this PR bumped __version__ or "
        "_SPEC_SCHEMA_VERSION this is expected — regenerate with "
        "`PYTHONPATH=src python tests/sim/test_spec_key_golden.py`.  "
        "Otherwise the cache-key contract broke: find the change before "
        "touching this table."
    )


def test_matrix_and_golden_cover_same_labels() -> None:
    assert set(_matrix()) == set(GOLDEN)


def test_execution_fields_do_not_move_the_key() -> None:
    """Engine choice is execution-only: both engines share one cache key."""
    base = _matrix()["qvr-grid-default"]
    assert spec_key(replace(base, engine="scalar")) == GOLDEN["qvr-grid-default"]


def test_neutral_valued_fields_do_not_move_the_key() -> None:
    """Post-freeze fields at their neutral value are stripped, so specs
    that never touch the new features keep their published keys — while
    a *non*-neutral value must move the key, because it changes results.
    """
    base = _matrix()["qvr-grid-default"]
    explicit_neutral = replace(
        base,
        policy="fair-share",
        server_allocation=None,
        downlink_allocation=None,
        start_ms=0.0,
    )
    assert spec_key(explicit_neutral) == GOLDEN["qvr-grid-default"]
    assert spec_key(replace(base, policy="deadline")) != GOLDEN["qvr-grid-default"]
    assert spec_key(replace(base, start_ms=500.0)) != GOLDEN["qvr-grid-default"]


def test_hashed_fields_do_move_the_key() -> None:
    base = _matrix()["qvr-grid-default"]
    assert spec_key(replace(base, seed=1)) != GOLDEN["qvr-grid-default"]
    assert spec_key(replace(base, n_frames=301)) != GOLDEN["qvr-grid-default"]


if __name__ == "__main__":
    for name, spec in sorted(_matrix().items()):
        print(f'    "{name}": "{spec_key(spec)}",')
