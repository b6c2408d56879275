"""BENCHMARK.json says what the code measures, within the driver's limits."""

import json
import re
from pathlib import Path

from perf.trace import LAYER_METRICS
from perf.workloads import DEFAULT_SECONDS, END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_command_and_paths():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "-m", "perf", "run"]
    assert SPEC["paths"] == ["perf"]
    assert SPEC["run_seconds"] == DEFAULT_SECONDS and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_are_the_ones_the_code_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_and_bounds_match_the_code():
    listed = {m["name"]: m for m in SPEC["end_to_end"]}
    # error_share is 0 on a correct run; the driver takes failed/attempted.
    assert set(listed) == set(END_TO_END) - {"error_share"}
    for name, metric in listed.items():
        unit, better, bound = END_TO_END[name]
        assert metric == {"name": name, "unit": unit, "better": better, "bound": bound}
        assert 0 < bound <= 0.25
    assert listed["setup_s"]["unit"] == "s" and listed["setup_s"]["better"] == "lower"
    assert listed["setup_s"]["bound"] == max(m["bound"] for m in listed.values())


def test_per_layer_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(m["better"] in ("higher", "lower") for m in SPEC["per_layer"])


def test_names_and_units_are_well_formed_and_used_once():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
