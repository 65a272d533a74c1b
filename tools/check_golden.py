#!/usr/bin/env python3
"""Golden-trace regression check for the experiment benches.

Runs each configured bench or example at its pinned flags (most at
1 GiB and --quick, E1 also at paper scale) and diffs its stdout
against the checked-in trace in tests/golden/. The simulator is
bitwise-deterministic for a fixed seed, so any diff is a behaviour
change that must be either fixed or explicitly re-baselined with
--update.

Usage:
    check_golden.py --bench-dir <dir-with-bench-binaries> [--update]
                    [--diff-file <path>]

On a mismatch the unified diff goes to stdout, to --diff-file when
given (so CI can upload it as an artifact), and -- when running under
GitHub Actions -- into the job summary ($GITHUB_STEP_SUMMARY), so the
divergence is readable without digging through raw logs.

Exit status: 0 when every trace matches (or was updated), 1 on any
mismatch or bench failure.
"""

import argparse
import difflib
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

# The small pinned configuration: 1 GiB host, fixed seed, reduced
# workload. --quick cannot be undone by a later flag, so a trace at
# another scale spells out its own flags instead.
SMALL = ["--host-gib=1", "--seed=1", "--quick"]

# (bench binary, golden file, full flag list) triples; each golden file
# records exactly its flags, so keep the two in sync. E1 covers
# profiling end to end (DRAM model, mapping, profiler), once small and
# once at the paper's scale (16 GiB S1 and S2, 12 GiB profiled, the
# Table 1 rows); E3 covers steering (virtio-mem, buddy placement, EPT
# spray); E11's --smoke covers the mitigation matrix (defense
# transforms, sharded cells, matrix fingerprint), and the whole quick
# matrix pins every defense's bytes in its campaign fingerprints
# (siloz, catt, catt-hole and trr-ecc, which the smoke leaves out).
# The fault soak runs whole trials, mark and detect included, under
# fault plans; its "Faults fired" column counts every fault-site hit,
# dram.read among them, so a change to the number or order of DRAM
# reads on the trial path shows here. E7 and the three small examples pin what no other
# trace reaches: DramDig's conflict-set search and timed accesses
# (E7, profile_dimm), TRRespass's pattern sweep and a profile of the
# same DIMM (profile_dimm), steering's IOVA exhaustion and spray on
# its own (steering_lab), and a whole campaign with its escalation
# (quickstart). An example is named relative to --bench-dir.
TRACES = [
    ("bench_table1_profiling", "e1_profiling_seed1.txt", SMALL),
    ("bench_table1_profiling", "e1_profiling_full_seed1.txt", []),
    ("bench_table2_page_steering", "e3_page_steering_seed1.txt", SMALL),
    ("bench_mitigation_matrix", "e11_mitigation_smoke_seed1.txt",
     [*SMALL, "--smoke", "--json-out=/dev/null"]),
    ("bench_mitigation_matrix", "e11_mitigation_quick_seed1.txt",
     [*SMALL, "--json-out=/dev/null"]),
    ("bench_fault_soak", "fault_soak_seed41.txt",
     [*SMALL, "--trials=8", "--seed-base=41", "--intensity=1.0"]),
    ("bench_dramdig", "e7_dramdig_seed1.txt", SMALL),
    ("../examples/profile_dimm", "profile_dimm_1_1.txt", ["1", "1"]),
    ("../examples/steering_lab", "steering_lab_1_1.txt", ["1", "1"]),
    ("../examples/quickstart", "quickstart_42_4.txt", ["42", "4"]),
]


def run_bench(bench_dir: pathlib.Path, name: str,
              flags: list[str]) -> str:
    exe = bench_dir / name
    if not exe.exists():
        sys.exit(f"error: bench binary not found: {exe}")
    result = subprocess.run(
        [str(exe), *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,  # warn/info logs are not golden
        text=True,
        timeout=600,
    )
    if result.returncode != 0:
        sys.exit(f"error: {name} exited with {result.returncode}")
    return result.stdout


def write_step_summary(failed: list[str], diff_text: str) -> None:
    """Echo the diff into the GitHub job summary, when available."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    with open(summary_path, "a", encoding="utf-8") as summary:
        summary.write("## Golden-trace mismatch\n\n")
        summary.write("Diverging traces: " + ", ".join(failed) + "\n\n")
        summary.write(
            "Intentional behaviour change? Re-baseline with "
            "`tools/check_golden.py --bench-dir <dir> --update` and "
            "commit the new traces.\n\n")
        summary.write("```diff\n" + diff_text + "```\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-dir", required=True, type=pathlib.Path,
                        help="directory holding the bench binaries "
                             "(examples sit in its ../examples)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden files instead of diffing")
    parser.add_argument("--diff-file", type=pathlib.Path,
                        help="also write the combined unified diff here "
                             "(for CI artifact upload)")
    args = parser.parse_args()

    failed: list[str] = []
    diff_chunks: list[str] = []
    for bench, golden_name, flags in TRACES:
        actual = run_bench(args.bench_dir, bench, flags)
        golden_path = GOLDEN_DIR / golden_name
        if args.update:
            golden_path.parent.mkdir(parents=True, exist_ok=True)
            golden_path.write_text(actual)
            print(f"updated {golden_path.relative_to(REPO_ROOT)}")
            continue
        if not golden_path.exists():
            print(f"FAIL {bench}: missing golden file {golden_path}; "
                  f"run with --update to create it")
            failed.append(golden_name)
            continue
        expected = golden_path.read_text()
        if actual == expected:
            print(f"ok   {bench} matches {golden_name}")
            continue
        failed.append(golden_name)
        print(f"FAIL {bench}: output differs from {golden_name}")
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/{golden_name}",
            tofile=f"{bench} (current)",
        ))
        sys.stdout.write(diff)
        diff_chunks.append(diff)

    diff_text = "".join(diff_chunks)
    if args.diff_file and not args.update:
        args.diff_file.parent.mkdir(parents=True, exist_ok=True)
        args.diff_file.write_text(diff_text)
        if failed:
            print(f"diff written to {args.diff_file}")
    if failed:
        write_step_summary(failed, diff_text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
