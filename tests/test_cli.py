"""Tests for the command-line interface (against a live SOAP server)."""

import json

import pytest

from repro.cli import _parse_pairs, _parse_value, build_parser, main
from repro.core import MCSService
from repro.soap import SoapServer


@pytest.fixture(scope="module")
def server():
    service = MCSService()
    with SoapServer(service.handle, fault_mapper=service.fault_mapper) as srv:
        yield srv


def run_cli(server, capsys, *argv):
    code = main(["--host", server.host, "--port", str(server.port), *argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestValueParsing:
    def test_int(self):
        assert _parse_value("42") == 42

    def test_float(self):
        assert _parse_value("2.5") == 2.5

    def test_date(self):
        import datetime as dt

        assert _parse_value("2003-11-15") == dt.date(2003, 11, 15)

    def test_string_fallback(self):
        assert _parse_value("hello") == "hello"

    def test_pairs(self):
        assert _parse_pairs(["a=1", "b=x"]) == {"a": 1, "b": "x"}

    def test_bad_pair(self):
        with pytest.raises(SystemExit):
            _parse_pairs(["nodelimiter"])


class TestCommands:
    def test_ping(self, server, capsys):
        code, out = run_cli(server, capsys, "ping")
        assert code == 0 and out == "pong"

    def test_full_file_lifecycle(self, server, capsys):
        code, _ = run_cli(server, capsys, "define-attribute", "cli_run", "int")
        assert code == 0
        code, _ = run_cli(server, capsys, "create-collection", "cli-coll")
        assert code == 0
        code, created = run_cli(
            server, capsys, "add-file", "cli-f1",
            "--collection", "cli-coll", "--data-type", "binary",
            "--attr", "cli_run=7",
        )
        assert code == 0 and created["name"] == "cli-f1"

        code, record = run_cli(server, capsys, "get-file", "cli-f1")
        assert record["data_type"] == "binary"
        assert record["user_attributes"] == {"cli_run": 7}

        code, names = run_cli(server, capsys, "query", "--attr", "cli_run=7")
        assert names == ["cli-f1"]

        code, names = run_cli(
            server, capsys, "query", "--field", "data_type=binary"
        )
        assert "cli-f1" in names

        code, members = run_cli(server, capsys, "list-collection", "cli-coll")
        assert members == ["cli-f1"]

        code, _ = run_cli(server, capsys, "annotate", "cli-f1", "note here")
        code, notes = run_cli(server, capsys, "annotations", "cli-f1")
        assert notes[0]["text"] == "note here"

        code, _ = run_cli(server, capsys, "delete-file", "cli-f1")
        assert code == 0
        code, _ = run_cli(server, capsys, "get-file", "cli-f1")
        assert code == 1  # typed error -> exit code 1

    def test_query_explain(self, server, capsys):
        run_cli(server, capsys, "define-attribute", "xp_attr", "int")
        run_cli(server, capsys, "add-file", "xp-f1", "--attr", "xp_attr=5")
        code, plan = run_cli(
            server, capsys, "query", "--attr", "xp_attr=5", "--explain"
        )
        assert code == 0
        # Planner lines, with what the index leaf reads indented under them.
        assert plan[0].startswith("leaf 0 [file]: strategy=index")
        assert any(line.startswith("    DRIVE attribute_value") for line in plan)
        assert plan[-1] == "order by name asc"

    def test_stats_and_attributes(self, server, capsys):
        code, stats = run_cli(server, capsys, "stats", "--json")
        assert code == 0 and "files" in stats
        assert "metrics" in stats  # registry snapshot rides along
        code, defs = run_cli(server, capsys, "list-attributes")
        assert code == 0 and isinstance(defs, list)

    def test_stats_pretty(self, server, capsys):
        code = main(
            ["--host", server.host, "--port", str(server.port), "stats"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "catalog objects:" in out
        assert "mcs_catalog_calls_total" in out

    def test_error_to_stderr(self, server, capsys):
        code = main(
            ["--host", server.host, "--port", str(server.port),
             "get-file", "definitely-missing"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_options(self):
        args = build_parser().parse_args(["serve", "--granularity", "object"])
        assert args.command == "serve"
        assert args.granularity == "object"

    def test_serve_shards_option(self):
        args = build_parser().parse_args(["serve", "--shards", "4"])
        assert args.shards == 4
        assert build_parser().parse_args(["serve"]).shards is None

    def test_lint_flags_reach_the_linter(self, capsys):
        # mcs lint declares no flag of its own: --explain is the linter's.
        assert main(["lint", "--explain"]) == 0
        assert capsys.readouterr().out.startswith("MCS001 storage-encapsulation")


class TestShardedServe:
    """The `mcs serve --shards N` stack: CLI client against a SOAP
    server whose service wraps a sharded catalog."""

    @pytest.fixture(scope="class")
    def sharded_server(self):
        from repro.shard import build_sharded_catalog

        catalog = build_sharded_catalog(4)
        service = MCSService(catalog)
        with SoapServer(
            service.handle, fault_mapper=service.fault_mapper
        ) as srv:
            yield srv
        catalog.close()

    def test_lifecycle_spans_shards(self, sharded_server, capsys):
        code, _ = run_cli(
            sharded_server, capsys, "create-collection", "sh-coll"
        )
        assert code == 0
        names = [f"sh-f{i}" for i in range(8)]
        for name in names:
            code, _ = run_cli(
                sharded_server, capsys, "add-file", name,
                "--collection", "sh-coll", "--data-type", "hdf",
            )
            assert code == 0
        code, members = run_cli(
            sharded_server, capsys, "list-collection", "sh-coll"
        )
        assert code == 0 and sorted(members) == names
        code, record = run_cli(sharded_server, capsys, "get-file", "sh-f3")
        assert code == 0 and record["name"] == "sh-f3"
        code, found = run_cli(
            sharded_server, capsys, "query", "--field", "data_type=hdf",
            "--order-by", "name",
        )
        assert code == 0 and found == names
