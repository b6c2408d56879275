"""Command line: ``python3 -m perf run ...`` and ``python3 -m perf compare A B``."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

from perf import record
from perf.workloads import DEFAULT_SECONDS, FILES, SETUPS_PER_RUN, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perf" / "out"
QUICK_FILES = 500
QUICK_SECONDS = 1.0


def _run_here(args: argparse.Namespace, name: str, mode: str) -> dict[str, Any]:
    from perf import runner  # imported late: ``compare`` needs only records

    return runner.run(
        WORKLOADS[name],
        args.seed,
        args.seconds,
        mode,
        files=QUICK_FILES if args.quick else FILES,
        setups=args.setups,
        corrupt_answer=args.corrupt_answer,
    )


def _run_in_child(args: argparse.Namespace, name: str) -> dict[str, Any]:
    """One run in a process of its own, so that its peak memory is its own."""
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"run-{os.getpid()}.json"
    command = [
        sys.executable, "-m", "perf", "run", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out),
    ]
    if args.trace is not None:
        command += ["--trace", str(args.trace)]
    command += ["--quick"] * args.quick + ["--corrupt-answer"] * args.corrupt_answer
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if not out.exists():
            raise SystemExit(f"run of {name} failed:\n{done.stdout}{done.stderr}")
        return json.loads(out.read_text())["workloads"][name]["runs"][0]
    finally:
        out.unlink(missing_ok=True)


def _run(args: argparse.Namespace) -> int:
    if args.all == (args.workload is not None):
        raise SystemExit("run needs exactly one of --workload NAME and --all")
    names = list(WORKLOADS) if args.all else [args.workload]
    mode = {None: "both", 0: "end_to_end", 1: "layers"}[args.trace]
    if args.quick:
        args.seconds = QUICK_SECONDS
    args.setups = 1 if args.quick else SETUPS_PER_RUN
    result = record.header(
        str(ROOT), args.seed, args.seconds, args.setups, args.repeat, mode
    )
    single = len(names) == 1 and args.repeat == 1
    failed = 0
    for name in names:
        if single:
            runs = [_run_here(args, name, mode)]
        else:
            runs = [_run_in_child(args, name) for _ in range(args.repeat)]
        entry = record.summarize_runs(runs)
        result["workloads"][name] = entry
        failed += entry["failed"]
        print(record.format_summary(name, entry))
        for problem in entry["problems"]:
            print(f"  PROBLEM {problem}")
        sys.stdout.flush()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    if args.trace is not None and single:
        # The benchmark driver's contract: one JSON object on the last line.
        run = runs[0]
        group = "end_to_end" if args.trace == 0 else "layers"
        metrics = {
            metric: {"value": value, "unit": record.UNITS[metric]}
            for metric, value in run[group].items()
            if metric != "error_share"  # reported as failed / attempted
        }
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": run["attempted"],
                    "failed": run["failed"],
                    "metrics": metrics,
                }
            )
        )
    return 0 if failed == 0 else 1


def _compare(args: argparse.Namespace) -> int:
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    rows = record.compare(base, new)
    print(record.format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads and write the record")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--all", action="store_true", help="every workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="length of the measured window; warm-up and traced windows scale with it",
    )
    run.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: end-to-end metrics only; 1: per-layer metrics only; "
        "omitted: both, one after the other. With --trace the last line "
        "printed is the result as one JSON object",
    )
    run.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload; with --all or --repeat each run gets a process of its own",
    )
    run.add_argument(
        "--quick", action="store_true",
        help=f"smoke test: {QUICK_SECONDS:g} s windows, {QUICK_FILES} files, one set-up",
    )
    run.add_argument(
        "--corrupt-answer", action="store_true",
        help="self-test: expect one wrong answer; the run must fail",
    )
    run.add_argument("--out", default=str(OUT / "result.json"))
    run.set_defaults(call=_run)

    compare = commands.add_parser(
        "compare", help="compare two records; exit 1 on a regression"
    )
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(call=_compare)

    args = parser.parse_args()
    return args.call(args)


if __name__ == "__main__":
    sys.exit(main())
