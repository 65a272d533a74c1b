#!/usr/bin/env python3
"""The hh_sweep degrade-and-resume cycle with real processes.

A supervised sweep keeps no state on disk but its range records, so a
degraded sweep is finished by rerunning it with --resume:

  1. `single` prints the reference dump.
  2. A sweep with two shards quarantined by hook exits 4 and names
     both missing trial ranges on stderr.
  3. The same sweep with --resume (no hook) launches exactly the two
     missing shards, exits 0 and prints the reference dump byte for
     byte; the output directory then holds only range records and
     their .prev rotations.
  4. A resume with another campaign's flags exits 1 and touches no
     record: a later `merge` of the records still prints the reference.
  5. A numeric flag that does not parse whole is a usage error (2).
  6. Workers rebuild the supervisor's exact campaign: a fault
     intensity with more than six decimals still merges to the
     single-process dump.

Usage:
    sweep_resume_cycle.py <path-to-hh_sweep>

Exit status: 0 when every step holds, 1 otherwise.
"""

import pathlib
import re
import subprocess
import sys
import tempfile

CAMPAIGN = ["--trials=16", "--threads=2", "--seed=5"]


def run(sweep, *args):
    return subprocess.run([sweep, *args], capture_output=True, text=True,
                          timeout=60)


def check(ok, what, proc=None):
    if ok:
        return
    print(f"FAIL: {what}")
    if proc is not None:
        print(f"  rc={proc.returncode}\n  stderr:\n{proc.stderr}")
    sys.exit(1)


def snapshot(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def main():
    sweep = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp) / "shards"
        sweep_args = ["sweep", *CAMPAIGN, "--shards=8",
                      f"--out-dir={out_dir}"]

        ref = run(sweep, "single", *CAMPAIGN)
        check(ref.returncode == 0, "single", ref)

        degraded = run(sweep, *sweep_args, "--quarantine=2,5")
        check(degraded.returncode == 4, "quarantined sweep exits 4",
              degraded)
        for hole in ("[4, 6)", "[10, 12)"):
            check(f"hh_sweep: missing trials {hole}" in degraded.stderr,
                  f"degraded sweep names {hole}", degraded)

        resumed = run(sweep, *sweep_args, "--resume")
        check(resumed.returncode == 0, "resume exits 0", resumed)
        check(re.search(r"\blaunches=2\b", resumed.stderr) is not None,
              "resume launches only the two missing shards", resumed)
        check(resumed.stdout == ref.stdout,
              "resumed dump is byte-identical to single", resumed)
        names = snapshot(out_dir)
        check(all(re.fullmatch(r"shard_\d+\.bin(\.prev)?", n)
                  for n in names),
              f"out-dir holds only range records: {sorted(names)}")

        foreign = run(sweep, "sweep", "--trials=16", "--threads=2",
                      "--seed=6", "--shards=8", f"--out-dir={out_dir}",
                      "--resume")
        check(foreign.returncode == 1, "foreign resume exits 1", foreign)
        check(snapshot(out_dir) == names,
              "foreign resume leaves every record untouched")
        records = sorted(str(p) for p in out_dir.glob("shard_*.bin"))
        merged = run(sweep, "merge", *records)
        check(merged.returncode == 0 and merged.stdout == ref.stdout,
              "merge of the records equals single", merged)

        for bad in ("--trials=x", "--seed=3x", "--shard=1/",
                    "--fault-intensity=0.5x"):
            usage = run(sweep, "single", bad)
            check(usage.returncode == 2, f"{bad} is a usage error", usage)

        faulted = ["--trials=4", "--threads=2", "--seed=3",
                   "--fault-seed=99", "--fault-intensity=0.1234567"]
        faulted_ref = run(sweep, "single", *faulted)
        swept = run(sweep, "sweep", *faulted, "--shards=2",
                    f"--out-dir={pathlib.Path(tmp) / 'faulted'}")
        check(swept.returncode == 0
              and swept.stdout == faulted_ref.stdout,
              "faulted sweep equals single", swept)
    print("sweep resume cycle: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
