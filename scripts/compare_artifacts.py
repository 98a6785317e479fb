#!/usr/bin/env python3
"""Compare the artifacts of every shipped command between the working
tree and a git revision.

Each command runs at full size on its shipped config, at SCLAW_THREADS=1
and 2, from the working tree and from a `git archive` of <rev>, each in
its own subprocess.  Every file a run writes, the manifest included, is
compared byte for byte, and so is every exit code.  Run it from inside a
checkout:

    python scripts/compare_artifacts.py HEAD~1

It names each file whose bytes differ (or that only one side wrote) and
each exit code that differs, and exits 1 if there is any; else 0.  It
also prints a table of each run's wall time, peak RSS and minor page
faults on both sides: the wall time from a monotonic clock around the
child's start and os.wait4, the rest read from os.wait4 (the whole
child: interpreter start-up and imports included).
"""

import io
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNS = (("validate", "burgers2mode.json"), ("simulate", "burgers2mode.json"),
        ("tail", "burgers2mode.json"), ("scan", "burgers2mode.json"),
        ("scaling", "burgers2mode.json"), ("doubling", "burgers2mode.json"),
        ("rate", "rate_additive.json"), ("rate", "rate_infeasible.json"))
THREADS = ("1", "2")


def export(rev: str, dest: pathlib.Path) -> pathlib.Path:
    """Extract `git archive <rev>` into dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_all(tree: pathlib.Path, out: pathlib.Path) -> tuple[dict, dict]:
    """({run label: exit code}, {run label: (wall seconds, peak RSS in
    MB, minor page faults)}) of every shipped command run from tree, each
    writing into out / <label>."""
    codes, usage = {}, {}
    for command, config in RUNS:
        for threads in THREADS:
            label = f"{command}-{config.removesuffix('.json')}-{threads}w"
            env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                       SCLAW_THREADS=threads)
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, "-m", "sclaw.cli", command, "--config",
                 str(tree / "configs" / config), "--out", str(out / label),
                 "--quiet"], env=env, cwd=out, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            _, status, rusage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            proc.returncode = codes[label] = os.waitstatus_to_exitcode(status)
            usage[label] = (wall, rusage.ru_maxrss / 1024.0,
                            rusage.ru_minflt)
            print(f"{tree.name}: {label} exited {codes[label]}", flush=True)
    return codes, usage


def usage_table(base_usage: dict, work_usage: dict) -> list[str]:
    """Wall time, peak RSS and minor faults of each run, revision
    against working tree."""
    out = [f"{'run':<32} {'wall s':>17} {'peak RSS MB':>23} "
           f"{'minor faults':>21}",
           f"{'':<32} {'revision':>8} {'working':>8} {'revision':>11} "
           f"{'working':>11} {'revision':>10} {'working':>10}"]
    for label, (wall, rss, faults) in base_usage.items():
        w_wall, w_rss, w_faults = work_usage[label]
        out.append(f"{label:<32} {wall:>8.2f} {w_wall:>8.2f} {rss:>11.1f} "
                   f"{w_rss:>11.1f} {faults:>10} {w_faults:>10}")
    return out


def differences(base: pathlib.Path, work: pathlib.Path, base_codes: dict,
                work_codes: dict) -> list[str]:
    """Every differing exit code and every file whose bytes differ or
    that only one side wrote."""
    out = [f"exit code {label}: {base_codes[label]} at the revision, "
           f"{work_codes[label]} in the working tree"
           for label in base_codes if base_codes[label] != work_codes[label]]
    names = {p.relative_to(side) for side in (base, work)
             for p in side.rglob("*") if p.is_file()}
    for name in sorted(names):
        a, b = base / name, work / name
        if not (a.is_file() and b.is_file()):
            out.append(f"file {name}: only in the "
                       f"{'revision' if a.is_file() else 'working tree'}")
        elif a.read_bytes() != b.read_bytes():
            out.append(f"file {name}: bytes differ")
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        scratch = pathlib.Path(scratch)
        try:
            base_tree = export(sys.argv[1], scratch / "revision")
        except subprocess.CalledProcessError as exc:
            print(exc.stderr.decode(errors="replace"), file=sys.stderr)
            return 2
        base, work = scratch / "base", scratch / "work"
        base.mkdir()
        work.mkdir()
        base_codes, base_usage = run_all(base_tree, base)
        work_codes, work_usage = run_all(ROOT, work)
        n_files = sum(1 for p in work.rglob("*") if p.is_file())
        diffs = differences(base, work, base_codes, work_codes)
    for line in usage_table(base_usage, work_usage) + diffs:
        print(line)
    print(f"{len(diffs)} differences over {len(work_codes)} runs and "
          f"{n_files} files")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
