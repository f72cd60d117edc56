"""Regenerate ``pins.json``: the reference output of every pooled input seed.

Usage (from the repository root; a few minutes)::

    python3 perfbench/pin.py

Runs the flat population path and the Fig. 12 sweep once per input seed
of the pool and records each output's SHA-256 (and the population's spec
count, used to count the specs of a pass that raised).  Regenerate only
when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import passes


def main() -> int:
    sys.path.insert(0, str(passes.ROOT / "src"))
    size = passes.FULL
    population: dict[str, dict] = {}
    fig12: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=passes.ROOT) as work:
        flat = passes.make("city", 0, size, Path(work), {})
        sweep = passes.make("fig12", 0, size, Path(work), {})
        flat.setup()
        sweep.setup()
        for k in range(passes.POOL):
            outcome = flat.check(k, flat.run_pass(k))
            outcome_fig12 = sweep.check(k, sweep.run_pass(k))
            if outcome.errors or outcome_fig12.errors:
                print(outcome.errors + outcome_fig12.errors, file=sys.stderr)
                return 1
            population[str(k)] = {"digest": outcome.digest, "specs": outcome.specs}
            fig12[str(k)] = {"digest": outcome_fig12.digest}
            print(f"seed {k}: {outcome.digest[:12]} {outcome_fig12.digest[:12]}")
    pins = {
        "population": {"sessions": size.sessions, "seeds": population},
        "fig12": {"frames": list(size.fig12_frames), "seeds": fig12},
    }
    passes.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
