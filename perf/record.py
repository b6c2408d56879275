"""The benchmark record: its schema, its summary statistics, and ``compare``.

The record says nothing about which change produced it beyond the git
revision it was measured at, so two records of any two commits can be
compared.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from typing import Any

from perf.trace import LAYER_METRICS
from perf.workloads import (
    CLIENTS,
    END_TO_END,
    FLUSH_POLICY,
    NETWORK,
    SWITCH_INTERVAL_S,
    windows,
)

SCHEMA_VERSION = 1
UNITS = {name: unit for name, (unit, _better, _bound) in END_TO_END.items()}
UNITS.update(LAYER_METRICS)


def git_revision(root: str) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def header(root: str, seed: int, seconds: float, setups: int, repeat: int, mode: str) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "git_sha": git_revision(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "repeat": repeat,
        "clients": CLIENTS,
        "load_model": "closed loop, one connection per client",
        "windows_s": windows(seconds, mode),
        "setups_per_run": setups,
        "switch_interval_s": SWITCH_INTERVAL_S,
        "flush_policy": FLUSH_POLICY,
        "network": NETWORK,
        "workloads": {},
    }


def summarize(values: list[float]) -> dict[str, float]:
    """Median and quartiles of one metric over the repeats."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize_runs(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """The record entry of one workload from its repeated runs."""
    summary = {}
    for group in ("end_to_end", "layers"):
        for name in runs[0][group]:
            summary[name] = dict(
                summarize([run[group][name] for run in runs]), unit=UNITS[name]
            )
    return {
        "summary": summary,
        "runs": runs,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "problems": [problem for run in runs for problem in run["problems"]],
    }


def format_summary(name: str, entry: dict[str, Any]) -> str:
    lines = [f"{name}: attempted {entry['attempted']}, failed {entry['failed']}"]
    for metric, row in entry["summary"].items():
        lines.append(
            f"  {metric:<30} {row['median']:>14.4f} {row['unit']:<6}"
            f" [q1 {row['q1']:.4f}, q3 {row['q3']:.4f}]"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------


def compare(base: dict[str, Any], new: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per workload x end-to-end metric, with a verdict.

    ``regressed``: the new median is worse than the base median by more
    than the bound.  ``unresolved``: it is not, but either record's spread
    over its repeats (q3 - q1, as a share of the median) is wider than the
    bound, so "no change" cannot be told from noise.
    """
    rows = []
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            continue
        for metric, (unit, better, bound) in END_TO_END.items():
            a, b = entry["summary"][metric], other["summary"][metric]
            worse = b["median"] - a["median"] if better == "lower" else a["median"] - b["median"]
            spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
            if metric != "error_share":  # whose bound is absolute
                worse = worse / a["median"]
                spread = spread / a["median"]
            if worse > bound:
                verdict = "regressed"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload, "metric": metric, "unit": unit,
                    "base": a["median"], "new": b["median"], "worse_by": worse,
                    "spread": spread, "bound": bound, "verdict": verdict,
                }
            )
    return rows


def format_rows(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<12} {'base':>12} {'new':>12} "
        f"{'worse by':>9} {'spread':>8} {'bound':>7}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<16} {row['metric']:<12} {row['base']:>12.4f} "
            f"{row['new']:>12.4f} {row['worse_by']:>+9.4f} {row['spread']:>8.4f} "
            f"{row['bound']:>7.3f}  {row['verdict']}"
        )
    return "\n".join(lines)
