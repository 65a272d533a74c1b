#!/usr/bin/env python3
"""Perf/success-rate trend history over the BENCH_*.json reports.

The nightly soak appends each run's metrics to a BENCH_history.jsonl
artifact (one JSON object per line) and renders a markdown trend
summary into the job summary, so regressions that stay inside the
±20% gate of tools/check_bench.py are still visible as a drifting
sparkline before they trip it.

  bench_trend.py append --history BENCH_history.jsonl FILE...
      Append one history row holding the numeric metrics of every
      given BENCH_*.json (envelope env_* keys are kept only as row
      metadata: git sha, wall, RSS). Rows are stamped with
      $GITHUB_RUN_ID / $GITHUB_SHA when present.

  bench_trend.py report --history BENCH_history.jsonl
      Render a markdown table (latest value, delta vs previous run,
      min/max, unicode sparkline) for the tracked metrics to stdout
      and, under GitHub Actions, to $GITHUB_STEP_SUMMARY.

History rows are self-describing, so adding a bench or metric later
needs no migration: old rows simply lack the new keys.

Exit status: 0 unless the history file is unreadable or an input
report is malformed. stdlib only.
"""

import argparse
import json
import os
import pathlib
import sys
import time

# metric key (as stored: "<file stem>.<metric>") -> direction, for the
# report's trend table. Everything appended is kept in history; this
# only selects what the summary table shows.
TRACKED = [
    ("BENCH_clone.fork_speedup", "higher"),
    ("BENCH_table3.s1_trials_per_second", "higher"),
    ("BENCH_soak.success_rate", "higher"),
    ("BENCH_soak.degraded_rate", "lower"),
    ("BENCH_soak.faults_fired", "info"),
]

SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return SPARK[0] * len(values)
    return "".join(
        SPARK[min(len(SPARK) - 1,
                  int((v - lo) / (hi - lo) * (len(SPARK) - 1)))]
        for v in values)


def load_history(path: pathlib.Path) -> list[dict]:
    if not path.exists():
        return []
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            # A half-written trailing line (killed run) is dropped,
            # not fatal: history is an accumulating artifact.
            print(f"warning: skipping malformed history line",
                  file=sys.stderr)
    return rows


def cmd_append(args: argparse.Namespace) -> int:
    row = {
        "ts": int(time.time()),
        "git_sha": os.environ.get("GITHUB_SHA", ""),
        "run_id": os.environ.get("GITHUB_RUN_ID", ""),
        "metrics": {},
    }
    for file_name in args.files:
        path = pathlib.Path(file_name)
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            sys.exit(f"error: cannot read report {path}: {exc}")
        stem = path.stem  # BENCH_soak.json -> BENCH_soak
        if not row["git_sha"] and isinstance(
                report.get("env_git_sha"), str):
            row["git_sha"] = report["env_git_sha"]
        row["metrics"][stem] = {
            key: value for key, value in report.items()
            if isinstance(value, (int, float))
            and not key.startswith("env_")
        }
        for key in ("env_wall_seconds", "env_peak_rss_bytes"):
            if isinstance(report.get(key), (int, float)):
                row["metrics"][stem][key] = report[key]
    history = pathlib.Path(args.history)
    history.parent.mkdir(parents=True, exist_ok=True)
    with history.open("a", encoding="utf-8") as out:
        out.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"appended run to {history} "
          f"({len(load_history(history))} rows)")
    return 0


def metric_series(rows: list[dict], key: str) -> list[float]:
    stem, metric = key.split(".", 1)
    series = []
    for row in rows:
        value = row.get("metrics", {}).get(stem, {}).get(metric)
        if isinstance(value, (int, float)):
            series.append(float(value))
    return series


def cmd_report(args: argparse.Namespace) -> int:
    rows = load_history(pathlib.Path(args.history))
    lines = [f"## Bench trends ({len(rows)} runs)", ""]
    if not rows:
        lines.append("No history yet.")
    else:
        lines += ["| metric | runs | latest | Δ vs prev | min | max "
                  "| trend |",
                  "|---|---|---|---|---|---|---|"]
        for key, direction in TRACKED:
            series = metric_series(rows, key)
            if not series:
                continue
            latest = series[-1]
            if len(series) > 1 and series[-2] != 0:
                delta = (latest - series[-2]) / abs(series[-2])
                delta_text = f"{delta:+.1%}"
            else:
                delta_text = "n/a"
            arrow = {"higher": "↑ better", "lower": "↓ better",
                     "info": ""}[direction]
            lines.append(
                f"| {key} {arrow} | {len(series)} | {latest:.4g} "
                f"| {delta_text} | {min(series):.4g} "
                f"| {max(series):.4g} | {sparkline(series[-30:])} |")
    text = "\n".join(lines)
    print(text)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as summary:
            summary.write(text + "\n\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    append = sub.add_parser("append",
                            help="append one run's reports to the "
                                 "history")
    append.add_argument("--history", required=True)
    append.add_argument("files", nargs="+",
                        metavar="BENCH_x.json")
    report = sub.add_parser("report",
                            help="render the markdown trend summary")
    report.add_argument("--history", required=True)
    args = parser.parse_args()
    if args.command == "append":
        return cmd_append(args)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
