#!/usr/bin/env python3
"""hh_sweep's sweep identity and hole cycle with real processes.

A sweep is `run` + `merge`: its only state is the range records in
--out-dir, and rerunning it launches only the ranges without a
finishing record. Every dump below is byte-diffed against `single`:

  1. Sweep identity: a clean 4-shard sweep and the same sweep under a
     fault plan (whose campaign fingerprint is pinned) print the
     single-process dump. A `run` over its own finished record runs
     nothing, exits 0 and leaves the record as it was. The faulted
     pair is the slowest step, so it runs alongside the others.
  2. A landed SIGKILL: a range is killed while it is still running,
     after its first block's record; a merge of what it left exits 4
     naming the range, and a sweep over its directory finishes it.
  3. Holes from missing records: with 6 of 8 shards run by hand,
     `merge` exits 4 naming both holes, and the sweep launches exactly
     those two ranges; the output directory then holds only range
     records and their .prev rotations.
  4. A failed worker leaves a hole: a worker that cannot write its
     record makes the sweep exit 4 naming its range; once the cause is
     gone, the same sweep launches only that range.
  5. A foreign record (another campaign, another tiling) refuses the
     sweep or a `run` before anything is written.
  6. A numeric flag that does not parse whole, or an unknown flag, is
     a usage error (2).
  7. Workers rebuild the sweep's exact campaign: a fault intensity
     with more than six decimals still merges to the single dump (a
     worker of a rounded campaign would leave a foreign record).

Usage:
    sweep_resume_cycle.py <path-to-hh_sweep>

Exit status: 0 when every step holds, 1 otherwise.
"""

import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

CAMPAIGN = ["--trials=16", "--threads=2", "--seed=5"]
SEED3 = ["--trials=8", "--threads=2", "--seed=3"]
FAULTED = ["--fault-seed=99", "--fault-intensity=0.5"]
FAULTED_FINGERPRINT = "campaign fingerprint=f93aa9c0df95705a trials=8\n"


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


def records(out_dir):
    return sorted(str(p) for p in out_dir.glob("shard_*.bin"))


def launched(proc):
    return re.findall(r"^hh_sweep: launching trials (\[\d+, \d+\))$",
                      proc.stderr, re.MULTILINE)


def faulted_identity(faulted_ref, faulted):
    """Step 1, faulted: the pinned fingerprint and sweep == single."""
    check(faulted_ref.returncode == 0
          and faulted_ref.stdout.startswith(FAULTED_FINGERPRINT),
          "faulted campaign keeps its pinned fingerprint", faulted_ref)
    check(faulted.returncode == 0
          and faulted.stdout == faulted_ref.stdout,
          "faulted 4-shard sweep equals single", faulted)


def sweep_identity(sweep, tmp):
    """Step 1, clean: a 4-shard sweep and a rerun over a finished
    record."""
    ref = run(sweep, "single", *SEED3)
    check(ref.returncode == 0, "seed-3 single", ref)
    shards = tmp / "seed3"
    clean = run(sweep, "sweep", *SEED3, "--shards=4",
                f"--out-dir={shards}")
    check(clean.returncode == 0 and clean.stdout == ref.stdout,
          "clean 4-shard sweep equals single", clean)

    finished = shards / "shard_1.bin"
    kept = finished.read_bytes()
    rerun = run(sweep, "run", *SEED3, "--shard=1/4", f"--out={finished}",
                "--checkpoint-every=1")
    check(rerun.returncode == 0 and finished.read_bytes() == kept,
          "a run over its own finished record exits 0 and keeps it",
          rerun)


def landed_kill(sweep, tmp, ref):
    """Step 2: SIGKILL a range that is still running."""
    out_dir = tmp / "killed"
    out_dir.mkdir()
    out = out_dir / "shard_0.bin"
    worker = subprocess.Popen(
        [sweep, "run", "--trials=16", "--threads=1", "--seed=5",
         "--range=0:16", f"--out={out}", "--checkpoint-every=1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    prev = out_dir / "shard_0.bin.prev"
    deadline = time.monotonic() + 50
    while not prev.exists() and worker.poll() is None \
            and time.monotonic() < deadline:
        time.sleep(0.002)
    alive = worker.poll() is None
    worker.send_signal(signal.SIGKILL)
    rc = worker.wait()
    check(prev.exists() and alive,
          f"range still running after its first block (rc={rc})")
    check(rc == -signal.SIGKILL, f"SIGKILL landed (rc={rc})")
    # The newest record the kill left: one that lands mid-rotation
    # leaves only the .prev.
    left = out if out.exists() else prev
    holed = run(sweep, "merge", str(left))
    check(holed.returncode == 4
          and "hh_sweep: missing trials [0, 16)" in holed.stderr,
          "a merge names the killed record's range", holed)
    finished = run(sweep, "sweep", *CAMPAIGN, "--shards=1",
                   f"--out-dir={out_dir}")
    check(finished.returncode == 0 and finished.stdout == ref.stdout,
          "sweep over the killed record equals single", finished)
    check(launched(finished) == ["[0, 16)"],
          "sweep relaunches the killed range", finished)


def main():
    sweep = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp_name, \
            ThreadPoolExecutor(max_workers=2) as pool:
        tmp = pathlib.Path(tmp_name)
        faulted = [pool.submit(run, sweep, "single", *SEED3, *FAULTED),
                   pool.submit(run, sweep, "sweep", *SEED3, *FAULTED,
                               "--shards=4",
                               f"--out-dir={tmp / 'seed3_faulted'}")]
        ref = run(sweep, "single", *CAMPAIGN)
        check(ref.returncode == 0, "single", ref)

        sweep_identity(sweep, tmp)
        landed_kill(sweep, tmp, ref)

        # Step 3: holes from missing records.
        out_dir = tmp / "shards"
        sweep_args = ["sweep", *CAMPAIGN, "--shards=8", "--jobs=4",
                      f"--out-dir={out_dir}"]
        out_dir.mkdir()
        for index in (0, 1, 3, 4, 6, 7):
            shard = run(sweep, "run", *CAMPAIGN, f"--shard={index}/8",
                        f"--out={out_dir}/shard_{index}.bin")
            check(shard.returncode == 0, f"shard {index} runs", shard)
        degraded = run(sweep, "merge", *records(out_dir))
        check(degraded.returncode == 4, "merge with holes exits 4",
              degraded)
        for hole in ("[4, 6)", "[10, 12)"):
            check(f"hh_sweep: missing trials {hole}" in degraded.stderr,
                  f"merge names {hole}", degraded)

        closed = run(sweep, *sweep_args)
        check(closed.returncode == 0, "sweep over the holes exits 0",
              closed)
        check(launched(closed) == ["[4, 6)", "[10, 12)"],
              "sweep launches only the two missing ranges", closed)
        check(closed.stdout == ref.stdout,
              "closed dump is byte-identical to single", closed)
        names = snapshot(out_dir)
        check(all(re.fullmatch(r"shard_\d+\.bin(\.prev)?", n)
                  for n in names),
              f"out-dir holds only range records: {sorted(names)}")

        # Step 4: a worker that cannot write its record.
        failing = tmp / "failing"
        failing.mkdir()
        blocker = failing / "shard_3.bin.tmp"
        blocker.mkdir()
        failing_args = ["sweep", *CAMPAIGN, "--shards=8",
                        f"--out-dir={failing}"]
        holed = run(sweep, *failing_args)
        check(holed.returncode == 4, "failed worker makes exit 4", holed)
        check("hh_sweep: missing trials [6, 8)" in holed.stderr,
              "the failed worker's range is named", holed)
        blocker.rmdir()
        healed = run(sweep, *failing_args)
        check(healed.returncode == 0 and healed.stdout == ref.stdout,
              "rerun closes the failed worker's hole", healed)
        check(launched(healed) == ["[6, 8)"],
              "rerun launches only the failed range", healed)

        # Step 5: foreign records are refused before any write.
        other = ["--trials=16", "--threads=2", "--seed=6"]
        for what, args in (
                ("sweep of another campaign",
                 ["sweep", *other, "--shards=8", f"--out-dir={out_dir}"]),
                ("sweep of another tiling",
                 ["sweep", *CAMPAIGN, "--shards=4",
                  f"--out-dir={out_dir}"]),
                ("run of another campaign",
                 ["run", *other, "--shard=1/8",
                  f"--out={out_dir}/shard_1.bin"])):
            foreign = run(sweep, *args)
            check(foreign.returncode == 1
                  and "of another campaign or range" in foreign.stderr,
                  f"{what} is refused", foreign)
        check(snapshot(out_dir) == names,
              "foreign sweeps and runs leave every record untouched")
        merged = run(sweep, "merge", *records(out_dir))
        check(merged.returncode == 0 and merged.stdout == ref.stdout,
              "merge of the records equals single", merged)

        # Step 6: numeric flags parse whole.
        for bad in ("--trials=x", "--seed=3x", "--shard=1/",
                    "--fault-intensity=0.5x", "--shards=x", "--jobs=x"):
            usage = run(sweep, "single", bad)
            check(usage.returncode == 2, f"{bad} is a usage error", usage)
        unknown = run(sweep, "run", *SEED3, "--shard=1/4",
                      f"--out={tmp / 'unused.bin'}", "--stop-after=1")
        check(unknown.returncode == 2
              and "unknown flag --stop-after=1" in unknown.stderr,
              "--stop-after is an unknown flag", unknown)

        # Step 7: the exact fault intensity reaches the workers.
        precise = ["--trials=2", "--threads=2", "--seed=3",
                   "--fault-seed=99", "--fault-intensity=0.50000001"]
        precise_ref = run(sweep, "single", *precise)
        swept = run(sweep, "sweep", *precise, "--shards=2",
                    f"--out-dir={tmp / 'precise'}")
        check(swept.returncode == 0
              and swept.stdout == precise_ref.stdout,
              "sweep of a precise fault intensity equals single", swept)

        faulted_identity(*(future.result() for future in faulted))
    print("sweep resume cycle: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
