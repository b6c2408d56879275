"""Whole-program rules (MCS012–MCS016) against the wp fixture program.

The fixtures under ``fixtures/wp/`` form one small multi-module program
in which every violation needs facts from at least two functions — the
marker diff therefore proves each rule fires *only* through a call
chain, and the trace assertions prove the chain is reported.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.flow import run_whole_program
from repro.analysis.lint import Finding

from tests.analysis.harness import (
    assert_findings_match,
    expected_tree_markers,
)

WP = Path(__file__).parent / "fixtures" / "wp"

WP_RULES = ["MCS012", "MCS013", "MCS014", "MCS015", "MCS016"]


@pytest.fixture(scope="module")
def wp_findings() -> list[Finding]:
    """One program build for the whole module — it is the slow part."""
    return run_whole_program([WP])


@pytest.mark.parametrize("rule_id", WP_RULES)
def test_rule_fires_only_at_marked_lines(rule_id: str) -> None:
    expected = {
        (file, line, rule)
        for file, line, rule in expected_tree_markers(WP)
        if rule == rule_id
    }
    assert expected, f"wp fixtures carry no marker for {rule_id}"
    assert_findings_match(run_whole_program([WP], select=[rule_id]), expected)


def test_full_registry_matches_every_marker(wp_findings) -> None:
    assert_findings_match(wp_findings, expected_tree_markers(WP))


def test_every_finding_carries_a_call_path(wp_findings) -> None:
    """The trace is the point: each step is ``qual:line`` parseable and
    multi-step wherever the violation crosses functions."""
    assert wp_findings
    for finding in wp_findings:
        assert finding.trace, finding.render()
        for step in finding.trace:
            head = step.split(" (", 1)[0]
            if head.startswith("["):  # MCS013 witness-path labels
                continue
            qual, _, line = head.rpartition(":")
            assert qual and line.isdigit(), step


def test_mcs012_trace_spans_the_sync_chain(wp_findings) -> None:
    (finding,) = [f for f in wp_findings if f.rule_id == "MCS012"]
    assert len(finding.trace) >= 3  # coroutine -> helper -> blocking site
    assert "time.sleep" in finding.trace[-1]


def test_mcs013_reports_both_witness_paths(wp_findings) -> None:
    (finding,) = [f for f in wp_findings if f.rule_id == "MCS013"]
    labels = [s for s in finding.trace if s.startswith("[")]
    assert len(labels) == 2  # one label per direction of the cycle


def test_wp_ok_comment_suppresses(tmp_path: Path) -> None:
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "race.py").write_text(
        "_state = {}\n"
        "\n"
        "\n"
        "def run():\n"
        "    _bump()\n"
        "\n"
        "\n"
        "def _bump():\n"
        "    # wp-ok: MCS015 single-writer by construction\n"
        "    _state['x'] = 1\n"
    )
    assert run_whole_program([tmp_path], select=["MCS015"]) == []


def test_wp_ok_requires_a_reason(tmp_path: Path) -> None:
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "race.py").write_text(
        "_state = {}\n"
        "\n"
        "\n"
        "def run():\n"
        "    _bump()\n"
        "\n"
        "\n"
        "def _bump():\n"
        "    _state['x'] = 1  # wp-ok: MCS015\n"
    )
    findings = run_whole_program([tmp_path], select=["MCS015"])
    assert [f.rule_id for f in findings] == ["MCS015"]


def test_src_tree_is_clean_whole_program() -> None:
    """The acceptance gate: interprocedural rules, zero findings."""
    root = Path(__file__).parents[2]
    findings = run_whole_program([root / "src" / "repro", root / "examples"])
    assert findings == [], "\n".join(f.render_with_trace() for f in findings)


# -- generated forwarders (ShardedCatalog) ----------------------------------
#
# ShardedCatalog's pure forwarders are built at import from a routing
# table, so ``("ShardedCatalog", "*")`` cannot see them in the AST.  The
# routing classes they all run through are span roots instead.

_ROUTER_WITH_GENERATED_FORWARDERS = """\
from repro import obs
from repro.core import faults


class ShardedCatalog:
    def _call(self, op):
{call_body}

    def _route_replica(self, call):
        return self._call(call)


def _forwarder(method):
    def forward(self):
        return ShardedCatalog._route_replica(self, method)

    return forward


setattr(ShardedCatalog, "get_collection", _forwarder("get_collection"))
"""


def _router_program(tmp_path: Path, call_body: str) -> Path:
    shim = WP / "repro"
    for relative in ("__init__.py", "obs.py", "core/__init__.py", "core/faults.py"):
        target = tmp_path / "repro" / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text((shim / relative).read_text())
    (tmp_path / "repro" / "router.py").write_text(
        _ROUTER_WITH_GENERATED_FORWARDERS.format(call_body=call_body)
    )
    return tmp_path


def test_fault_site_behind_a_generated_forwarder_is_still_covered(tmp_path) -> None:
    """Reachable only through ``get_collection``, which exists only at run
    time: with ``_call``'s span removed the site must still be reported."""
    bare = _router_program(
        tmp_path / "bare", '        return faults.check("shard.call", op)'
    )
    findings = run_whole_program([bare], select=["MCS016"])
    assert [(f.file, f.line) for f in findings] == [("repro/router.py", 7)]
    assert "_route_replica" in findings[0].message

    spanned = _router_program(
        tmp_path / "spanned",
        '        with obs.span("shard.route", op=op):\n'
        '            return faults.check("shard.call", op)',
    )
    assert run_whole_program([spanned], select=["MCS016"]) == []


def test_every_routing_class_is_a_span_root() -> None:
    from repro.analysis.wprules import SPAN_ENTRY_POINTS
    from repro.shard.router import _FORWARDED

    roots = {method for cls, method in SPAN_ENTRY_POINTS if cls == "ShardedCatalog"}
    routes = {route.__name__ for route, _write in _FORWARDED.values()}
    assert routes and routes <= roots
