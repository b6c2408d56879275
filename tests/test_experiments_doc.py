"""``EXPERIMENTS.md`` prints the paper-figure table; this keeps it true.

The table between the two markers is emitted by :func:`render` from
:data:`FIGURES` (which ``perf/`` workload measures each of the paper's
§7 figures, and what the paper varies that the workload does not) and
the medians in ``perf/baseline.json``.  When either changes,
``python tests/test_experiments_doc.py`` rewrites it.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).parents[1]
DOC = ROOT / "EXPERIMENTS.md"
BASELINE = ROOT / "perf" / "baseline.json"
BEGIN, END = "<!-- experiments:begin -->\n", "<!-- experiments:end -->\n"

#: (paper figure, the operation it times, perf/ workloads, paper axes not varied)
FIGURES = (
    (
        "Fig. 5 / 8",
        "add a file with 10 attributes",
        ("durable_ingest",),
        "threads (1–12), client hosts (1–6), DB size",
    ),
    (
        "Fig. 6 / 9",
        "simple query: one lookup by logical name",
        ("ws_lookup", "aws_lookup"),
        "threads (1–12), client hosts (1–10), DB size; no direct-call series",
    ),
    (
        "Fig. 7 / 10 / 11",
        "complex query: conjunction of attribute conditions",
        ("direct_discover",),
        "threads, client hosts, DB size (100 k / 1 M / 5 M), attribute count (1–10)",
    ),
    (
        "§6",
        "discover-then-register (Pegasus / LIGO)",
        ("ws_mixed",),
        "— (the paper gives no figure)",
    ),
)


def _number(value: float) -> str:
    return f"{value:.0f}" if value >= 100 else f"{value:#.3g}"


def render() -> str:
    record = json.loads(BASELINE.read_text(encoding="utf-8"))
    lines = [
        f"Medians of `perf/baseline.json`: seed {record['seed']}, "
        f"{record['repeat']} runs of {record['windows_s']['measured']} s, "
        f"{record['clients']} clients, {record['nproc']} CPUs, "
        f"commit `{record['git_sha'][:7]}`.",
        "",
        "| paper | operation | `perf/` workload | `ops_per_s` | `p50_ms` | `p95_ms` "
        "| the paper varies, `perf/` does not yet |",
        "|---|---|---|---|---|---|---|",
    ]
    for figure, operation, workloads, axes in FIGURES:
        for workload in workloads:
            summary = record["workloads"][workload]["summary"]
            medians = " | ".join(
                _number(summary[metric]["median"])
                for metric in ("ops_per_s", "p50_ms", "p95_ms")
            )
            lines.append(
                f"| {figure} | {operation} | `{workload}` | {medians} | {axes} |"
            )
    return "\n".join(lines) + "\n"


def test_experiments_md_prints_the_baseline():
    text = DOC.read_text(encoding="utf-8")
    printed = text[text.index(BEGIN) + len(BEGIN):text.index(END)]
    assert printed == render(), "run: python tests/test_experiments_doc.py"


if __name__ == "__main__":
    text = DOC.read_text(encoding="utf-8")
    head, tail = text[:text.index(BEGIN) + len(BEGIN)], text[text.index(END):]
    DOC.write_text(head + render() + tail, encoding="utf-8")
