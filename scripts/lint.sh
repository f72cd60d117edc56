#!/usr/bin/env bash
# Consolidated lint entry point: the ruff style gate plus the repro-lint
# determinism & hash-integrity gate (docs/determinism.md).  CI and
# `make lint` both run this script, so local runs match the gate.
#
# Extra arguments are passed through to `repro lint` (e.g.
# `scripts/lint.sh --format json`).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== ruff check =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks examples scripts
else
    # CI installs ruff explicitly; locally the determinism gate is still
    # worth running on its own.
    echo "ruff not installed; skipping the style gate" >&2
fi

echo "== repro lint =="
PYTHONPATH=src python -m repro lint src "$@"
