"""Percentiles, summaries over repeats, and the verdicts of ``compare``."""

import json

import pytest

from perf import record
from perf.__main__ import main
from perf.runner import percentile
from perf.workloads import END_TO_END


def test_percentile_is_nearest_rank():
    values = sorted(float(v) for v in range(1, 201))  # 200 samples
    assert percentile(values, 0.50) == 100.0
    assert percentile(values, 0.95) == 190.0  # ten samples lie beyond it
    assert percentile(values, 0.99) == 198.0
    assert percentile([7.0], 0.95) == 7.0
    assert percentile([1.0, 2.0, 3.0], 0.50) == 2.0


def test_summary_is_median_and_quartiles():
    assert record.summarize([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    summary = record.summarize([1.0, 2.0, 4.0])
    assert summary["median"] == 2.0 and summary["q1"] == 1.0 and summary["q3"] == 4.0


def _record(**medians):
    base = {"setup_s": 2.0, "ops_per_s": 100.0, "p50_ms": 5.0, "p95_ms": 20.0,
            "error_share": 0.0, "peak_rss_mb": 90.0}
    base.update(medians)
    summary = {
        name: {"median": value, "q1": value, "q3": value, "unit": END_TO_END[name][0]}
        for name, value in base.items()
    }
    return {"workloads": {"ws_lookup": {"summary": summary}}}


def _verdicts(base, new):
    return {row["metric"]: row["verdict"] for row in record.compare(base, new)}


def _worse(metric, base, share):
    """``base`` made worse by ``share`` of itself, in the metric's direction."""
    return base * (1 + share if END_TO_END[metric][1] == "lower" else 1 - share)


@pytest.mark.parametrize("metric", ["setup_s", "ops_per_s", "p50_ms", "p95_ms", "peak_rss_mb"])
def test_compare_flags_only_what_is_worse_by_more_than_the_bound(metric):
    base = _record()["workloads"]["ws_lookup"]["summary"][metric]["median"]
    bound = END_TO_END[metric][2]
    inside = _record(**{metric: _worse(metric, base, bound * 0.9)})
    beyond = _record(**{metric: _worse(metric, base, bound * 1.1)})
    better = _record(**{metric: _worse(metric, base, -0.5)})
    assert _verdicts(_record(), inside)[metric] == "ok"
    assert _verdicts(_record(), beyond)[metric] == "regressed"
    assert _verdicts(_record(), better)[metric] == "ok"
    others = {m: v for m, v in _verdicts(_record(), beyond).items() if m != metric}
    assert set(others.values()) == {"ok"}


def test_error_share_bound_is_absolute():
    assert _verdicts(_record(), _record(error_share=0.0005))["error_share"] == "ok"
    assert _verdicts(_record(), _record(error_share=0.002))["error_share"] == "regressed"


def test_wide_spread_is_unresolved_not_ok():
    noisy = _record()
    noisy["workloads"]["ws_lookup"]["summary"]["p50_ms"].update(q1=4.0, q3=6.5)
    assert _verdicts(_record(), noisy)["p50_ms"] == "unresolved"
    assert _verdicts(noisy, _record(p50_ms=9.0))["p50_ms"] == "regressed"


def test_compare_command_exits_1_on_a_regression(tmp_path, monkeypatch, capsys):
    base, worse = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_record()))
    worse.write_text(json.dumps(_record(setup_s=4.0)))
    monkeypatch.setattr("sys.argv", ["perf", "compare", str(base), str(base)])
    assert main() == 0
    monkeypatch.setattr("sys.argv", ["perf", "compare", str(base), str(worse)])
    assert main() == 1
    out = capsys.readouterr().out
    assert "regressed" in out and out.count("ws_lookup") == 2 * len(END_TO_END)


def test_header_names_no_change_and_states_the_conditions():
    header = record.header(".", seed=3, seconds=12, setups=3, repeat=2, mode="both")
    assert header["schema"] == record.SCHEMA_VERSION and header["seed"] == 3
    assert header["windows_s"] == pytest.approx({"warmup": 2.0, "measured": 12.0, "traced": 4.8})
    assert "fsync" in header["flush_policy"] and "loopback" in header["network"]
    for key in ("git_sha", "python", "nproc", "repeat", "setups_per_run", "clients"):
        assert key in header
    assert not any("PR" in str(key) for key in header)
