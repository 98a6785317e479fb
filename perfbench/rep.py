"""One repetition of a workload, run in a fresh interpreter by run.py.

Usage: python3 perfbench/rep.py <job.json>

The job (written by run.py) names sclaw's source directory, whether to
trace, and the commands: each an argv for ``sclaw.cli.run`` with its
SCLAW_THREADS and output directory.  The report written to
the job's ``report`` path holds the monotonic time at which sclaw.cli
was imported and the first config resolved (run.py subtracts its spawn
time to get setup_s), each command's exit code and wall time, the
sequence's wall time, peak RSS, library facts and, when traced, the
per-layer summary.
"""

import json
import os
import sys
import time


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import sclaw.cli as cli
    cli.load_config(job["commands"][0]["config"])
    ready = time.monotonic()

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    t_seq = time.perf_counter()
    for cmd in job["commands"]:
        os.environ["SCLAW_THREADS"] = str(cmd["threads"])
        span = tracer.open("cli.command") if tracer else None
        t0 = time.perf_counter()
        code = cli.run(cmd["argv"])
        t1 = time.perf_counter()
        if span is not None:
            tracer.close(span)
        results.append({"label": cmd["label"], "code": code,
                        "seconds": t1 - t0})
    wall = time.perf_counter() - t_seq

    import resource
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "ready": ready,
        "commands": results,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
    }
    if tracer is not None:
        from tracer import summarize
        iterations = 0
        for cmd in job["commands"]:
            if cmd["argv"][0] == "rate":
                iterations += _rate_iterations(cmd["out"])
        report["layers"] = summarize(tracer.spans, iterations)
        tracer.dump(job["spans"])
    with open(job["report"], "w") as fh:
        json.dump(report, fh)


def _rate_iterations(out_dir):
    with open(f"{out_dir}/rate.txt") as fh:
        for line in fh:
            key, _, val = line.partition(" ")
            if key == "iterations":
                return int(val)
    raise ValueError(f"no iterations line in {out_dir}/rate.txt")


if __name__ == "__main__":
    main(sys.argv[1])
