"""Keep the docs/ tree honest: working links, CLI reference in sync."""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[2]
DOCS = sorted((REPO / "docs").glob("*.md"))
PAGES = DOCS + [REPO / "README.md"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FLAG = re.compile(r"(?<![\w-])--([a-z][a-z0-9-]*)")
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
_IMPORT = re.compile(
    r"^\s*from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n]+)", re.M
)


def test_docs_tree_exists():
    names = {page.name for page in DOCS}
    assert {
        "architecture.md", "cli.md", "demand_scenarios.md", "determinism.md",
    } <= names


@pytest.mark.parametrize("page", PAGES, ids=lambda p: p.name)
def test_relative_links_resolve(page):
    """Every relative markdown link points at a file that exists."""
    broken = []
    for target in _LINK.findall(page.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path = target.split("#", 1)[0]
        if not path:  # pure in-page anchor
            continue
        resolved = (page.parent / path).resolve()
        if not resolved.is_relative_to(REPO):
            continue  # GitHub-side links (e.g. the CI badge) escape the repo
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"broken links in {page.name}: {broken}"


def test_readme_links_the_docs_tree():
    readme = (REPO / "README.md").read_text()
    for name in (
        "docs/architecture.md",
        "docs/cli.md",
        "docs/demand_scenarios.md",
        "docs/determinism.md",
    ):
        assert name in readme, f"README does not link {name}"


def test_determinism_page_documents_every_lint_rule():
    """docs/determinism.md must catalogue every registered rule code."""
    from repro.lint import all_rule_codes

    text = (REPO / "docs" / "determinism.md").read_text()
    missing = [code for code in all_rule_codes() if code not in text]
    assert not missing, f"docs/determinism.md omits lint rules {missing}"
    # The framework-reserved codes are part of the suppression contract.
    assert "LINT001" in text and "LINT002" in text


def _snippet_imports(page):
    """``(module, name)`` for every ``from repro… import …`` in fenced blocks."""
    pairs = []
    for block in _FENCE.findall(page.read_text()):
        for module, names in _IMPORT.findall(block):
            for name in names.strip("()").split(","):
                name = name.split("#", 1)[0].split(" as ", 1)[0].strip()
                if name:
                    pairs.append((module, name))
    return pairs


def test_snippet_import_scan_finds_the_readme_examples():
    pairs = _snippet_imports(REPO / "README.md")
    assert ("repro.sim.session", "simulate_session") in pairs


@pytest.mark.parametrize("page", PAGES, ids=lambda p: p.name)
def test_snippet_imports_resolve(page):
    """Every name a code snippet imports from ``repro`` exists."""
    missing = []
    for module, name in _snippet_imports(page):
        try:
            found = hasattr(importlib.import_module(module), name)
        except ImportError:
            found = False
        if not found:
            missing.append(f"from {module} import {name}")
    assert not missing, f"{page.name} snippets import missing names: {missing}"


# ---------------------------------------------------------------------------
# CLI reference consistency: docs/cli.md vs the real argparse tree
# ---------------------------------------------------------------------------


def _parser_flags():
    """{command: set of long flags} from the real parser (minus --help)."""
    flags = {}
    for action in build_parser()._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for name, sub in action.choices.items():
            flags[name] = {
                a.option_strings[-1].lstrip("-")
                for a in sub._actions
                if a.option_strings and "--help" not in a.option_strings
            }
    return flags


def _documented_flags():
    """{command: set of flags} parsed out of docs/cli.md sections."""
    text = (REPO / "docs" / "cli.md").read_text()
    shared_match = re.search(
        r"^## Shared engine options\n(.*?)(?=^### )", text, re.M | re.S
    )
    assert shared_match, "docs/cli.md lost its Shared engine options section"
    shared = set(_FLAG.findall(shared_match.group(1)))
    documented = {}
    sections = re.split(r"^### repro ", text, flags=re.M)[1:]
    for section in sections:
        name, _, body = section.partition("\n")
        flags = set(_FLAG.findall(body))
        if "shared engine options" in body.lower():
            flags |= shared
        documented[name.strip()] = flags
    return documented


def test_every_subcommand_is_documented():
    assert set(_documented_flags()) == set(_parser_flags())


@pytest.mark.parametrize("command", sorted(_parser_flags()))
def test_cli_reference_matches_parser(command):
    documented = _documented_flags()[command]
    actual = _parser_flags()[command]
    missing = actual - documented
    stale = documented - actual
    assert not missing, f"docs/cli.md omits {sorted(missing)} for {command!r}"
    assert not stale, (
        f"docs/cli.md documents {sorted(stale)} which {command!r} does not accept"
    )
