#!/usr/bin/env python3
"""sclaw benchmark: CLI workloads timed end to end, traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc --seed 1 --seconds 55 --trace 0

Each repetition runs the workload's command sequence through
``sclaw.cli.run`` in a fresh interpreter (perfbench/rep.py), so set-up
(imports, config resolution, lazy kernel tables) is paid as a CLI user
pays it.  Repetitions run one at a time until the next one would
overrun ``--seconds``.  Every command's artifacts are checked (see
``check_command``); a command that fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics (medians over
repetitions).  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones
(perfbench/tracer.py), the per-command times of the untraced ones, and
the tracing overhead between the two.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it are facts about the
run and per-command medians.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402  (perfbench/tracer.py)

# Shipped configs, shrunk so that one repetition takes a few seconds: the
# whole benchmark (4 + 22 runs per workload) must fit in under an hour.
# Only sample sizes and the rate iteration cap change; the model, grid,
# time step, epsilon ladder and rate target are the shipped ones.
BURGERS = ("burgers2mode.json",
           {"harness": {"n_tail": 640, "n_scaling": 256, "n_moment": 128,
                        "n_pairs": 6}})
RATE_ADDITIVE = ("rate_additive.json", {"rate": {"max_iters": 50}})
RATE_INFEASIBLE = ("rate_infeasible.json", {})
SHIPPED = (BURGERS, RATE_ADDITIVE, RATE_INFEASIBLE)

# Two workloads, so that each run can measure for about a minute: on a
# shared 2-core VM the speed of the same computation drifted by 15-20 %
# over tens of seconds, and only runs that long averaged it out within the
# hour the whole benchmark may take.
# Each command is (label, subcommand, config, expected exit code,
# SCLAW_THREADS, label whose artifacts it must reproduce byte for byte).
WORKLOADS = {
    # batched pair/endpoint sweeps, Philox, tallies and KS, serially and
    # then through the harness worker pool at two workers (the default on
    # two cores); no certificates, no rate
    "mc": [
        ("tail", "tail", BURGERS, 0, 1, None),
        ("scan", "scan", BURGERS, 0, 1, None),
        ("scaling", "scaling", BURGERS, 0, 1, None),
        ("tail_2w", "tail", BURGERS, 0, 2, "tail"),
        ("scaling_2w", "scaling", BURGERS, 0, 2, "scaling")],
    # the per-path recording stepper, the J and I certificate kernels, and
    # the rate line search; no batched sweeps and no worker pool
    "certs_rate": [
        ("validate", "validate", BURGERS, 0, 1, None),
        ("simulate", "simulate", BURGERS, 0, 1, None),
        ("doubling", "doubling", BURGERS, 0, 1, None),
        ("rate", "rate", RATE_ADDITIVE, 0, 1, None),
        ("rate_infeasible", "rate", RATE_INFEASIBLE, 4, 1, None)],
}

# files each command must list in its manifest (more are allowed)
EXPECTED_FILES = {
    "validate": {"validation.txt"},
    "simulate": {"u.csv", "v.csv"},
    "tail": {"tail.csv"},
    "scan": {"scan.csv", "eps_log_p.csv", "eps_log_p.plot.txt",
             "moment_scan.csv", "moment_scan.plot.txt"},
    "scaling": {"scaling.csv"},
    "doubling": {"bounds.csv", "error_ladder.csv", "error_ladder.plot.txt"},
    "rate": {"rate.txt", "rate_control.csv"},
    "rate_infeasible": {"rate.txt", "rate_control.csv"},
}

# per-command times reported by the traced run, from its untraced reps
COMMAND_TIMES = ("tail", "scan", "scaling", "tail_2w", "scaling_2w",
                 "doubling", "rate")

RATE_I_HAT = 0.245
CHILD_TIMEOUT = 150.0


def merged(base, over):
    out = dict(base)
    for key, val in over.items():
        out[key] = merged(base.get(key, {}), val) if isinstance(val, dict) \
            else val
    return out


def write_configs(root, work):
    """Write the workload configs derived from the shipped ones; returns
    {shipped name: (path, document)}."""
    out = {}
    for name, over in SHIPPED:
        with open(root / "configs" / name) as fh:
            doc = json.load(fh)
        doc = merged(doc, over)
        path = work / name
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        out[name] = (path, doc)
    return out


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def read_report(path):
    with open(path) as fh:
        return dict(line.split(" ", 1) for line in fh.read().splitlines())


def check_command(label, code, expect_code, out, cfg, seed):
    """Correctness oracle for one command; returns (problems, file hashes)."""
    label = label.removesuffix("_2w")
    if code != expect_code:
        return [f"exit code {code}, expected {expect_code}"], {}
    mpath = out / "manifest.json"
    if not mpath.is_file():
        return ["no manifest.json"], {}
    with open(mpath) as fh:
        manifest = json.load(fh)
    problems = []
    hashes = {"manifest.json": sha256(mpath)}
    for entry in manifest["files"]:
        f = out / entry["name"]
        if not f.is_file():
            problems.append(f"listed file {entry['name']} missing")
            continue
        hashes[entry["name"]] = sha256(f)
        if hashes[entry["name"]] != entry["sha256"]:
            problems.append(f"sha256 mismatch for {entry['name']}")
    missing = EXPECTED_FILES[label] - set(hashes)
    if missing:
        problems.append(f"manifest lacks {sorted(missing)}")
    if manifest["seed"] != seed:
        problems.append(f"manifest seed {manifest['seed']} != {seed}")
    if problems:
        return problems, hashes

    h = cfg.get("harness", {})
    if label in ("tail", "scan"):
        rows = read_csv(out / f"{label}.csv")
        for r in rows:
            if not float(r["ci_lo"]) <= float(r["p_hat"]) <= float(r["ci_hi"]):
                problems.append(f"{label}.csv: p_hat outside its interval")
        want = 1 if label == "tail" else len(h["ladder"])
        if len(rows) != want:
            problems.append(f"{label}.csv has {len(rows)} rows, want {want}")
    elif label == "scaling":
        rows = read_csv(out / "scaling.csv")
        if [r["functional"] for r in rows] != list(h["functionals"]):
            problems.append("scaling.csv rows do not match the functionals")
        for r in rows:
            if not 0.0 <= float(r["p_value"]) <= 1.0:
                problems.append(f"scaling.csv p_value {r['p_value']}")
    elif label == "doubling":
        rows = read_csv(out / "bounds.csv")
        if len(rows) != 3 * h["n_pairs"]:
            problems.append(f"bounds.csv has {len(rows)} rows")
        if any(r["pass"] != "true" for r in rows):
            problems.append("bounds.csv has a failing certificate")
    elif label == "rate":
        rep = read_report(out / "rate.txt")
        if rep["feasible"] != "true" or \
                abs(float(rep["i_hat"]) - RATE_I_HAT) > 1e-3:
            problems.append(f"rate: feasible {rep['feasible']}, "
                            f"i_hat {rep['i_hat']}")
    elif label == "rate_infeasible":
        rep = read_report(out / "rate.txt")
        if rep["i_hat"] != "inf" or rep["feasible"] != "false":
            problems.append(f"rate_infeasible: i_hat {rep['i_hat']}")
    return problems, hashes


class Bench:
    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.commands = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.versions = None
        self.first_hashes = {}      # label -> artifact hashes of first rep

    def run_rep(self, work, configs, index, traced):
        rep_dir = work / f"rep{index}"
        rep_dir.mkdir()
        commands = []
        for label, sub, (cfg_name, _), expect, threads, same in self.commands:
            out, path = rep_dir / label, configs[cfg_name][0]
            commands.append({
                "label": label, "config": str(path), "out": str(out),
                "threads": threads, "expect": expect, "same_as": same,
                "cfg": configs[cfg_name][1],
                "argv": [sub, "--config", str(path), "--out", str(out),
                         "--quiet", "--seed", str(self.seed)]})
        job = {"src": str(self.root / "src"), "trace": traced,
               "commands": [{k: c[k] for k in ("label", "config", "out",
                                              "threads", "argv")}
                            for c in commands],
               "report": str(rep_dir / "report.json"),
               "spans": str(work.parent / f"spans-{self.workload}.jsonl")}
        with open(rep_dir / "job.json", "w") as fh:
            json.dump(job, fh)
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), str(rep_dir / "job.json")],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            err = f"repetition timed out after {CHILD_TIMEOUT} s\n{err}"
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        self.attempted += len(commands)
        if proc.returncode != 0:
            self.failed += len(commands)
            self.problems.append(f"rep {index} crashed: {err.strip()[-2000:]}")
            shutil.rmtree(rep_dir)
            return None
        with open(rep_dir / "report.json") as fh:
            report = json.load(fh)
        report["setup_s"] = report["ready"] - t_spawn
        self.versions = report["versions"]
        hashes = {}
        for cmd, res in zip(commands, report["commands"]):
            label = cmd["label"]
            try:
                problems, hashes[label] = check_command(
                    label, res["code"], cmd["expect"], Path(cmd["out"]),
                    cmd["cfg"], self.seed)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems, hashes[label] = [f"malformed artifacts: {exc!r}"], {}
            same = cmd["same_as"]
            if not problems:
                if same is not None and hashes[label] != hashes[same]:
                    problems.append(f"artifacts differ from {same}'s")
                elif hashes[label] != self.first_hashes.setdefault(
                        label, hashes[label]):
                    problems.append("artifacts differ from the first "
                                    "repetition")
            if problems:
                self.failed += 1
                self.problems.append(f"rep {index} {label}: "
                                     + "; ".join(problems))
        shutil.rmtree(rep_dir)
        return report

    def run(self, work, configs):
        """Repetitions until the next would overrun --seconds; a traced
        run alternates untraced and traced ones."""
        reps, traced_reps = [], []
        start = time.monotonic()
        longest = 0.0
        min_reps = 4 if self.trace else 2
        index = 0
        while index < min_reps or \
                time.monotonic() - start + longest <= self.seconds:
            traced = self.trace and index % 2 == 1
            t0 = time.monotonic()
            rep = self.run_rep(work, configs, index, traced)
            longest = max(longest, time.monotonic() - t0)
            index += 1
            if rep is None:
                break
            (traced_reps if traced else reps).append(rep)
        return reps, traced_reps


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps):
    return {
        "wall_s": (median([r["wall_s"] for r in reps]), "s"),
        "setup_s": (median([r["setup_s"] for r in reps]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
    }


def per_layer(bench, reps, traced_reps):
    layers = [r["layers"] for r in traced_reps]
    for key in tracer.COUNTS:
        seen = {lay[key] for lay in layers}
        if len(seen) > 1:
            bench.problems.append(f"count {key} diverged: {sorted(seen)}")
    out = {}
    for key in layers[0]:
        out[key] = (median([lay[key] for lay in layers]), tracer.unit(key))
    untraced = median([r["wall_s"] for r in reps])
    traced = median([r["wall_s"] for r in traced_reps])
    out["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    for label in COMMAND_TIMES:
        times = [c["seconds"] for r in reps for c in r["commands"]
                 if c["label"] == label]
        out[f"{label}_s"] = (median(times), "s")
    return out


def source_lines(root):
    n = 0
    for path in sorted((root / "src" / "sclaw").glob("*.py")):
        for line in path.read_text().splitlines():
            s = line.strip()
            if s and not s.startswith("#"):
                n += 1
    return n


def command_summary(reps):
    lines = []
    labels = [c["label"] for c in reps[0]["commands"]] if reps else []
    for label in labels:
        times = sorted(c["seconds"] for r in reps for c in r["commands"]
                       if c["label"] == label)
        lines.append(f"{label}_s median {median(times):.4f} s, "
                     f"min {times[0]:.4f}, max {times[-1]:.4f}, "
                     f"n={len(times)}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    root = Path.cwd()
    needed = [root / "src" / "sclaw" / "cli.py"] + \
        [root / "configs" / name for name, _ in SHIPPED]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    work_root = root / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    bench = Bench(root, args.workload, args.seed, args.seconds,
                  bool(args.trace))
    try:
        reps, traced_reps = bench.run(work, write_configs(root, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = {
        "workload": args.workload, "seed": args.seed,
        "SCLAW_THREADS": {c[0]: c[4] for c in bench.commands},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), **(bench.versions or {}),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "src_lines": source_lines(root),
        "repetitions": len(reps), "traced_repetitions": len(traced_reps),
    }
    complete = bool(reps) and (bool(traced_reps) or not args.trace)
    metrics = {}
    if complete:
        metrics = per_layer(bench, reps, traced_reps) if args.trace \
            else end_to_end(reps)

    print("facts " + json.dumps(facts))
    print("rep wall_s " + " ".join(f"{r['wall_s']:.4f}" for r in reps))
    print("rep setup_s " + " ".join(f"{r['setup_s']:.4f}" for r in reps))
    for line in command_summary(reps):
        print(line)
    for problem in bench.problems:
        print(f"FAIL {problem}")
    print(f"fail_frac {bench.failed}/{bench.attempted}")
    result = {
        "correct": complete and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
