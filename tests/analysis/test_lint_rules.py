"""Every rule flags its fixture at exactly the marked lines.

Each fixture under ``fixtures/repro/`` tags its violations with a
trailing ``# lint-expect: MCS0xx`` comment; the shared harness diffs
the linter's findings against those markers, so rule id, file *and*
line are all asserted exactly (and unmarked lines are asserted clean).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import rules as _rules  # noqa: F401 - populates registry
from repro.analysis.lint import run_paths

from tests.analysis.harness import (
    assert_findings_match,
    expected_markers,
    expected_tree_markers,
)

FIXTURES = Path(__file__).parent / "fixtures" / "repro"

RULE_FIXTURES = [
    ("MCS001", "viol_storage_imports.py"),
    ("MCS002", "viol_commit_no_bump.py"),
    ("MCS003", "viol_cache_conn.py"),
    ("MCS004", "viol_fault_codes.py"),
    ("MCS005", "viol_metric_names.py"),
    ("MCS007", "viol_raw_locks.py"),
    ("MCS008", "viol_print_logging.py"),
    ("MCS009", "viol_swallowed_transport.py"),
    ("MCS010", "viol_unspanned_dispatch.py"),
    ("MCS011", "viol_blocking_in_coroutine.py"),
]


@pytest.mark.parametrize("rule_id,fixture", RULE_FIXTURES)
def test_rule_flags_fixture_at_exact_lines(rule_id: str, fixture: str) -> None:
    path = FIXTURES / fixture
    expected = expected_markers(path)
    assert expected, f"fixture {fixture} carries no lint-expect markers"
    findings = run_paths([path], select=[rule_id])
    assert_findings_match(
        findings, {(fixture, line, rule) for line, rule in expected}
    )


def test_full_registry_run_matches_every_marker() -> None:
    """All rules together over the whole fixture tree: the union of the
    markers, nothing more (no rule bleeds onto another's fixture) and
    nothing less."""
    assert_findings_match(
        run_paths([FIXTURES]), expected_tree_markers(FIXTURES)
    )


def test_clean_fixture_has_no_findings() -> None:
    assert run_paths([FIXTURES / "clean_module.py"]) == []


def test_select_restricts_to_requested_rules() -> None:
    findings = run_paths([FIXTURES], select=["MCS008"])
    assert findings
    assert {f.rule_id for f in findings} == {"MCS008"}


def test_mcs011_flags_rwlock_acquire_in_coroutine(tmp_path: Path) -> None:
    """RWLock acquisition in a coroutine is MCS011 territory too.

    Not part of the fixture tree because the same line would also trip
    MCS007 (raw lock acquisition outside the engine), and the fixture
    tests assert exactly one rule per fixture.
    """
    module = tmp_path / "coroutine_locks.py"
    module.write_text(
        "async def bad(lock):\n"
        "    lock.acquire_read()\n"
        "    try:\n"
        "        return 1\n"
        "    finally:\n"
        "        lock.release_read()\n"
    )
    findings = run_paths([module], select=["MCS011"])
    assert [(f.line, f.rule_id) for f in findings] == [(2, "MCS011")]


def test_src_tree_is_clean() -> None:
    """The acceptance gate: the shipped tree must lint clean."""
    src = Path(__file__).parents[2] / "src" / "repro"
    findings = run_paths([src])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_examples_are_clean() -> None:
    examples = Path(__file__).parents[2] / "examples"
    findings = run_paths([examples])
    assert findings == [], "\n".join(f.render() for f in findings)
