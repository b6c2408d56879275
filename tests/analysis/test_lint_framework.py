"""Framework mechanics: registry, discovery, reporting, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import main as lint_main
from repro.analysis.lint import (
    DEFAULT_REGISTRY,
    Finding,
    Module,
    Registry,
    Rule,
    apply_baseline,
    load_baseline,
    load_module,
    render_report,
    run_paths,
    write_baseline,
)

FIXTURES = Path(__file__).parent / "fixtures" / "repro"


class TestRegistry:
    def test_default_registry_has_all_rules(self) -> None:
        ids = [rule.id for rule in DEFAULT_REGISTRY.rules()]
        assert ids == sorted(ids)
        # MCS006 (deprecated query shims) retired with the shims themselves.
        assert {f"MCS00{i}" for i in range(1, 9)} - {"MCS006"} <= set(ids)

    def test_every_rule_documents_its_invariant(self) -> None:
        for rule in DEFAULT_REGISTRY.rules():
            assert rule.id and rule.name and rule.invariant

    def test_duplicate_rule_id_rejected(self) -> None:
        registry = Registry()

        class RuleA(Rule):
            id = "X001"
            name = "a"
            invariant = "a"

        registry.register(RuleA)
        with pytest.raises(ValueError, match="duplicate rule id"):
            registry.register(RuleA)

    def test_rule_without_id_rejected(self) -> None:
        class Anonymous(Rule):
            pass

        with pytest.raises(ValueError, match="no rule id"):
            Registry().register(Anonymous)


class TestDiscovery:
    def test_dotted_name_roots_at_repro(self, tmp_path: Path) -> None:
        file = tmp_path / "src" / "repro" / "db" / "thing.py"
        file.parent.mkdir(parents=True)
        file.write_text("x = 1\n")
        module = load_module(tmp_path, file)
        assert module.dotted == "repro.db.thing"
        assert module.in_package("repro.db")
        assert module.in_package("repro")
        assert not module.in_package("repro.dbx")

    def test_package_init_drops_the_suffix(self, tmp_path: Path) -> None:
        file = tmp_path / "repro" / "cache" / "__init__.py"
        file.parent.mkdir(parents=True)
        file.write_text("x = 1\n")
        assert load_module(tmp_path, file).dotted == "repro.cache"

    def test_non_package_file_uses_its_stem(self, tmp_path: Path) -> None:
        file = tmp_path / "script.py"
        file.write_text("x = 1\n")
        assert load_module(tmp_path, file).dotted == "script"

    def test_syntax_error_becomes_a_finding(self, tmp_path: Path) -> None:
        broken = tmp_path / "broken.py"
        broken.write_text("def nope(:\n")
        reported: list[Path] = []
        findings = run_paths(
            [broken], on_error=lambda path, exc: reported.append(path)
        )
        assert len(findings) == 1
        assert findings[0].rule_id == "LINT-SYNTAX"
        assert reported == [broken]

    def test_only_modules_gates_a_rule(self, tmp_path: Path) -> None:
        class LibraryOnly(Rule):
            id = "X100"
            name = "library-only"
            invariant = "x"
            only_modules = ("repro",)

            def check(self, module: Module):
                yield self.finding(module, module.tree, "flagged")

        registry = Registry()
        registry.register(LibraryOnly)
        inside = tmp_path / "repro" / "mod.py"
        inside.parent.mkdir()
        inside.write_text("x = 1\n")
        outside = tmp_path / "script.py"
        outside.write_text("x = 1\n")
        findings = run_paths([tmp_path], registry=registry)
        assert [f.file for f in findings] == ["repro/mod.py"]


class TestReporting:
    def test_text_report_lines_and_summary(self) -> None:
        findings = [
            Finding(file="a.py", line=3, rule_id="MCS001", message="bad"),
            Finding(file="b.py", line=7, rule_id="MCS004", message="worse"),
        ]
        report = render_report(findings)
        assert "a.py:3: MCS001 bad" in report
        assert report.endswith("2 findings")
        assert render_report(findings[:1]).endswith("1 finding")

    def test_empty_report_says_clean(self) -> None:
        assert render_report([]) == "clean: no findings"

    def test_json_report_round_trips(self) -> None:
        findings = [Finding(file="a.py", line=3, rule_id="MCS001", message="bad")]
        payload = json.loads(render_report(findings, fmt="json"))
        assert payload == [
            {"file": "a.py", "line": 3, "rule": "MCS001", "message": "bad"}
        ]

    def test_findings_sort_by_location(self) -> None:
        later = Finding(file="b.py", line=1, rule_id="MCS001", message="m")
        early = Finding(file="a.py", line=9, rule_id="MCS009", message="m")
        assert sorted([later, early]) == [early, later]

    def test_trace_rides_in_dict_and_text(self) -> None:
        finding = Finding(
            file="a.py", line=3, rule_id="MCS012", message="bad",
            trace=("pkg.f:3 (calls g)", "pkg.g:9 (time.sleep())"),
        )
        assert finding.to_dict()["trace"] == [
            "pkg.f:3 (calls g)", "pkg.g:9 (time.sleep())"
        ]
        rendered = finding.render_with_trace()
        assert rendered.splitlines()[1:] == [
            "    via pkg.f:3 (calls g)", "    via pkg.g:9 (time.sleep())"
        ]
        # a trace-less finding keeps the legacy payload exactly
        assert "trace" not in Finding(
            file="a.py", line=3, rule_id="MCS001", message="bad"
        ).to_dict()


class TestSarif:
    def _findings(self) -> list[Finding]:
        return [
            Finding(
                file="src/repro/a.py", line=3, rule_id="MCS012",
                message="bad", trace=("pkg.f:3 (calls g)",),
            ),
        ]

    def test_sarif_log_structure(self) -> None:
        payload = json.loads(
            render_report(
                self._findings(), fmt="sarif", rules=DEFAULT_REGISTRY.rules()
            )
        )
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "mcs-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        (result,) = run["results"]
        assert result["ruleId"] == "MCS012"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/a.py"
        assert location["region"]["startLine"] == 3
        assert "via pkg.f:3" in result["message"]["text"]

    def test_sarif_of_no_findings_is_an_empty_run(self) -> None:
        payload = json.loads(render_report([], fmt="sarif"))
        assert payload["runs"][0]["results"] == []


class TestBaseline:
    def _findings(self) -> list[Finding]:
        return [
            Finding(file="a.py", line=3, rule_id="MCS014", message="leak"),
            Finding(file="b.py", line=9, rule_id="MCS015", message="race"),
        ]

    def test_write_then_load_requires_justification(self, tmp_path: Path) -> None:
        path = tmp_path / "baseline.json"
        write_baseline(self._findings(), path)
        with pytest.raises(ValueError, match="justification"):
            load_baseline(path)

    def test_justified_baseline_suppresses_and_reports_unused(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "baseline.json"
        write_baseline(self._findings(), path)
        data = json.loads(path.read_text())
        for entry in data["entries"]:
            entry["justification"] = "accepted until the storage rework"
        path.write_text(json.dumps(data))
        kept, suppressed, unused = apply_baseline(
            self._findings()[:1], load_baseline(path)
        )
        assert kept == [] and suppressed == 1
        assert [e["rule"] for e in unused] == ["MCS015"]

    def test_matching_ignores_line_numbers(self, tmp_path: Path) -> None:
        path = tmp_path / "baseline.json"
        write_baseline(self._findings(), path)
        data = json.loads(path.read_text())
        for entry in data["entries"]:
            entry["justification"] = "line drift must not invalidate this"
        path.write_text(json.dumps(data))
        moved = [
            Finding(file="a.py", line=77, rule_id="MCS014", message="leak")
        ]
        kept, suppressed, _ = apply_baseline(moved, load_baseline(path))
        assert kept == [] and suppressed == 1

    def test_malformed_baseline_is_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "baseline.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            load_baseline(path)


class TestCli:
    def test_exit_one_on_findings(self, capsys: pytest.CaptureFixture) -> None:
        code = lint_main([str(FIXTURES / "viol_print_logging.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "MCS008" in out

    def test_exit_zero_when_clean(self, capsys: pytest.CaptureFixture) -> None:
        code = lint_main([str(FIXTURES / "clean_module.py")])
        assert code == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_select_filters_rules(self, capsys: pytest.CaptureFixture) -> None:
        code = lint_main([str(FIXTURES), "--select", "MCS007"])
        out = capsys.readouterr().out
        assert code == 1
        assert "MCS007" in out and "MCS008" not in out

    def test_json_output_parses(self, capsys: pytest.CaptureFixture) -> None:
        lint_main([str(FIXTURES / "viol_raw_locks.py"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert all(item["rule"] == "MCS007" for item in payload)

    def test_explain_lists_every_rule(self, capsys: pytest.CaptureFixture) -> None:
        code = lint_main(["--explain"])
        out = capsys.readouterr().out
        assert code == 0
        for rule in DEFAULT_REGISTRY.rules():
            assert rule.id in out

    def test_explain_covers_whole_program_rules(
        self, capsys: pytest.CaptureFixture
    ) -> None:
        lint_main(["--explain"])
        out = capsys.readouterr().out
        for rule_id in ("MCS012", "MCS013", "MCS014", "MCS015", "MCS016"):
            assert rule_id in out

    def test_sarif_output_parses(self, capsys: pytest.CaptureFixture) -> None:
        lint_main([str(FIXTURES / "viol_raw_locks.py"), "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        results = payload["runs"][0]["results"]
        assert results and all(r["ruleId"] == "MCS007" for r in results)

    def test_whole_program_flag_reports_wp_findings(
        self, capsys: pytest.CaptureFixture
    ) -> None:
        wp = Path(__file__).parent / "fixtures" / "wp"
        code = lint_main([str(wp), "--whole-program", "--select", "MCS012"])
        out = capsys.readouterr().out
        assert code == 1
        assert "MCS012" in out and "via" in out

    def test_baseline_cli_round_trip(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        fixture = str(FIXTURES / "viol_raw_locks.py")
        baseline = tmp_path / "baseline.json"
        assert lint_main([fixture, "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        # unjustified entries must refuse to load
        assert lint_main([fixture, "--baseline", str(baseline)]) == 2
        capsys.readouterr()
        data = json.loads(baseline.read_text())
        for entry in data["entries"]:
            entry["justification"] = "grandfathered pending the lock rework"
        baseline.write_text(json.dumps(data))
        assert lint_main([fixture, "--baseline", str(baseline)]) == 0
        assert "clean" in capsys.readouterr().out
