#!/usr/bin/env python3
"""Perf regression gate over the BENCH_*.json telemetry reports.

Two sources, selected by flags:

  --bench-dir DIR   run the profile's benches from DIR at pinned
                    configurations and collect the JSON they emit
  --json-dir DIR    skip running; read pre-generated BENCH_*.json
                    from DIR (the nightly soak pipeline hands over
                    reports it already produced)

and two gating profiles:

  --profile pr      (default) the fast PR gate: fork_speedup only
  --profile nightly the soak gate: fork_speedup, the Table 3 S1
                    trial rate, and the BENCH_soak.json report
                    (informational -- soak seeds rotate nightly, so
                    its rates are trended, not gated)

A file the selected profile expects but cannot find is a loud FAIL,
never a skip: a bench that silently stops emitting its report must
not look like a green gate. Wall-clock numbers vary with the machine,
so only machine-portable ratios are gated; everything else (absolute
seconds, trials/sec, peak RSS, the env_* telemetry envelope) is
reported for trend-watching (tools/bench_trend.py) and uploaded as a
CI artifact.

The comparison table always goes to stdout and -- under GitHub
Actions -- into the job summary ($GITHUB_STEP_SUMMARY), pass or fail.
Intentional perf changes are re-baselined with --update-baseline and
the new bench/baselines/*.json committed.

Exit status: 0 when every gated metric holds (or baselines were
updated), 1 on a regression, a missing report or a bench failure.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_DIR = REPO_ROOT / "bench" / "baselines"

# Pinned flags: the perf smoke must be fast and reproducible in shape,
# so it runs the --quick workloads at small world sizes.
# (binary, emitted json, output flag, extra flags)
BENCHES = {
    "BENCH_clone.json": (
        "bench_clone_fork", "--out=",
        ["--quick", "--host-gib=2", "--seed=1"]),
    "BENCH_table3.json": (
        "bench_table3_exploitation", "--json-out=",
        ["--quick", "--host-gib=1", "--seed=1", "--system=s1"]),
    "BENCH_soak.json": (
        "bench_fault_soak", "--json-out=",
        ["--quick", "--trials=8", "--seed-base=1", "--intensity=0.5"]),
    "BENCH_mitigation.json": (
        "bench_mitigation_matrix", "--json-out=",
        ["--quick", "--host-gib=1", "--seed=2", "--trials=16",
         "--attacks=pairwise"]),
}

# profile -> {json file -> {metric -> direction}}. A listed file is
# required; an empty metric map means report-only (still uploaded and
# trended, but nothing gated and no baseline needed).
PROFILES = {
    "pr": {
        "BENCH_clone.json": {"fork_speedup": "higher"},
        # Table 3 rates are absolute wall-clock -> informational on
        # the PR gate, where runner noise would make them flaky.
        "BENCH_table3.json": {},
    },
    "nightly": {
        "BENCH_clone.json": {"fork_speedup": "higher"},
        "BENCH_table3.json": {"s1_trials_per_second": "higher"},
        # Soak seeds rotate nightly: rates are trended, not gated.
        "BENCH_soak.json": {},
        # Mitigation matrix: per-cell progress counters are exact
        # (fingerprint-stable), so correctness lives in the golden
        # trace and the tier-2 properties; here the report feeds the
        # cells_per_second trend only.
        "BENCH_mitigation.json": {},
    },
}


def run_bench(bench_dir: pathlib.Path, json_name: str,
              work_dir: pathlib.Path) -> pathlib.Path:
    name, out_flag, flags = BENCHES[json_name]
    # Absolute: the bench runs from a scratch cwd (stray checkpoint or
    # JSON files must not land in the build tree).
    exe = (bench_dir / name).resolve()
    if not exe.exists():
        sys.exit(f"error: bench binary not found: {exe}")
    out_path = work_dir / json_name
    result = subprocess.run(
        [str(exe), *flags, out_flag + str(out_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=1200,
        cwd=work_dir,
    )
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        sys.exit(f"error: {name} exited with {result.returncode}")
    return out_path


def write_step_summary(table: list[str], failures: list[str]) -> None:
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    with open(summary_path, "a", encoding="utf-8") as summary:
        summary.write("## Perf gate\n\n")
        summary.write("\n".join(table) + "\n\n")
        if failures:
            summary.write("### Failures\n\n")
            summary.write("\n".join(f"- {f}" for f in failures) + "\n\n")
            summary.write(
                "Intentional perf change? Re-baseline with "
                "`tools/check_bench.py --bench-dir <dir> "
                "--update-baseline` and commit bench/baselines/.\n")


def compare(json_name: str, gated: dict, actual: dict, baseline: dict,
            tolerance: float, table: list[str],
            failures: list[str]) -> None:
    for metric, direction in gated.items():
        if metric not in baseline:
            failures.append(f"{json_name}: baseline lacks gated "
                            f"metric '{metric}'; re-baseline")
            continue
        if metric not in actual:
            failures.append(f"{json_name}: bench no longer emits "
                            f"gated metric '{metric}'")
            continue
        base, cur = float(baseline[metric]), float(actual[metric])
        if base <= 0:
            continue  # degenerate baseline; nothing to gate against
        change = (cur - base) / base
        regressed = (change < -tolerance if direction == "higher"
                     else change > tolerance)
        verdict = "REGRESSED" if regressed else "ok"
        print(f"{verdict:9s} {json_name}:{metric} "
              f"baseline={base:.3f} current={cur:.3f} "
              f"({change:+.1%}, gate ±{tolerance:.0%}, "
              f"{direction} is better)")
        table.append(f"| {json_name} | {metric} | {base:.3f} | "
                     f"{cur:.3f} | {change:+.1%} | {verdict} |")
        if regressed:
            failures.append(
                f"{json_name}: {metric} regressed {change:+.1%} "
                f"(baseline {base:.3f} -> {cur:.3f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-dir", type=pathlib.Path,
                        help="directory holding the bench binaries "
                             "(runs the profile's benches)")
    parser.add_argument("--json-dir", type=pathlib.Path,
                        help="directory holding pre-generated "
                             "BENCH_*.json (no benches are run)")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="pr",
                        help="which gating profile to apply "
                             "(default: pr)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite bench/baselines/ instead of "
                             "comparing")
    parser.add_argument("--out-dir", type=pathlib.Path,
                        help="also copy the fresh JSON reports here "
                             "(for CI artifact upload)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="gated-metric regression tolerance "
                             "(default 0.20 = 20%%)")
    args = parser.parse_args()
    if bool(args.bench_dir) == bool(args.json_dir):
        parser.error("exactly one of --bench-dir / --json-dir "
                     "is required")

    profile = PROFILES[args.profile]
    failures: list[str] = []
    table = [f"Profile: `{args.profile}`, tolerance "
             f"±{args.tolerance:.0%}", "",
             "| report | metric | baseline | current | change "
             "| verdict |",
             "|---|---|---|---|---|---|"]
    with tempfile.TemporaryDirectory() as tmp:
        work_dir = pathlib.Path(tmp)
        for json_name, gated in profile.items():
            if args.json_dir:
                out_path = args.json_dir / json_name
                if not out_path.exists():
                    failures.append(
                        f"missing report {json_name} in "
                        f"{args.json_dir} (the producing bench did "
                        "not run or did not write it)")
                    table.append(f"| {json_name} | *(missing)* | | | "
                                 "| MISSING |")
                    continue
            else:
                out_path = run_bench(args.bench_dir, json_name,
                                     work_dir)
                if not out_path.exists():
                    failures.append(
                        f"{BENCHES[json_name][0]} did not write "
                        f"{json_name}")
                    table.append(f"| {json_name} | *(missing)* | | | "
                                 "| MISSING |")
                    continue
            actual = json.loads(out_path.read_text())
            if args.out_dir:
                args.out_dir.mkdir(parents=True, exist_ok=True)
                shutil.copy(out_path, args.out_dir / json_name)
            baseline_path = BASELINE_DIR / json_name
            if args.update_baseline:
                if gated:
                    BASELINE_DIR.mkdir(parents=True, exist_ok=True)
                    shutil.copy(out_path, baseline_path)
                    print("updated "
                          f"{baseline_path.relative_to(REPO_ROOT)}")
                continue
            if not gated:
                print(f"ok        {json_name} (report-only)")
                table.append(f"| {json_name} | *(report-only)* | | | "
                             "| ok |")
                continue
            if not baseline_path.exists():
                failures.append(
                    f"missing baseline {json_name}; run with "
                    "--update-baseline to create it")
                continue
            baseline = json.loads(baseline_path.read_text())
            compare(json_name, gated, actual, baseline,
                    args.tolerance, table, failures)

    for failure in failures:
        print(f"FAIL {failure}")
    write_step_summary(table, failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
