"""End to end: the child server's life cycle and the quick smoke run."""

import json
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perf import gen, runner
from perf.deploy import Child
from perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent


def _perf(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "perf", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def test_child_server_stops_and_frees_its_port(tmp_path):
    population = gen.Population(1, 100)
    directory = tmp_path / "db"
    directory.mkdir()
    child = Child(WORKLOADS["ws_mixed"], population, str(directory))
    try:
        client = child.connect()
        assert client.get_attributes("file", population.names[0]) == gen.typed_attributes(
            population.ranks[0]
        )
        client.close()
        assert child.counters()["files"] == 100
    finally:
        child.close()
    assert child._proc.poll() == 0
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", child.port), timeout=2).close()
    # The catalog was closed cleanly: it reopens with every file.
    assert runner.check_reopened(str(directory), population, []) == []


def test_child_exits_when_its_parent_goes_away(tmp_path):
    child = Child(WORKLOADS["ws_lookup"], gen.Population(1, 50), None)
    child._proc.stdin.close()  # what the child sees when the parent dies
    assert child._proc.wait(timeout=30) == 0
    child._proc.stdout.close()


def test_quick_run_covers_all_five_workloads(tmp_path):
    out = tmp_path / "result.json"
    started = time.monotonic()
    done = _perf("run", "--all", "--quick", "--seed", "5", "--out", str(out))
    assert time.monotonic() - started < 30
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == list(WORKLOADS)
    from perf.trace import LAYER_METRICS
    from perf.workloads import END_TO_END

    for name, entry in result["workloads"].items():
        assert entry["failed"] == 0 and entry["problems"] == []
        assert set(entry["summary"]) == set(END_TO_END) | {m for m, _u in LAYER_METRICS}
        assert entry["summary"]["error_share"]["median"] == 0
        assert entry["summary"]["trace.attributed_share"]["median"] > 0.9
        assert entry["runs"][0]["samples"]["measured_ops"] > 0
        assert f"{name}: attempted" in done.stdout
    direct = result["workloads"]["direct_discover"]["summary"]
    assert all(
        row["median"] == 0 for metric, row in direct.items()
        if metric.startswith(("soap.", "aserve."))
    )
    assert result["workloads"]["durable_ingest"]["summary"]["db.wal_appends_per_op"]["median"] > 0
    assert result["workloads"]["aws_lookup"]["summary"]["aserve.parse_us"]["median"] > 0
    assert not (ROOT / "perf" / "out" / "tmp").exists() or not any(
        (ROOT / "perf" / "out" / "tmp").iterdir()
    )


def test_driver_mode_prints_the_result_as_the_last_line(tmp_path):
    done = _perf(
        "run", "--workload", "durable_ingest", "--seed", "2", "--seconds", "1",
        "--trace", "0", "--quick", "--out", str(tmp_path / "r.json"),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "p50_ms", "p95_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["ws_lookup", "direct_discover", "durable_ingest"])
def test_a_wrong_expected_answer_fails_the_command(tmp_path, workload):
    done = _perf(
        "run", "--workload", workload, "--quick", "--trace", "0", "--corrupt-answer",
        "--out", str(tmp_path / "r.json"),
    )
    assert done.returncode == 1, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "wrong answer" in done.stdout
