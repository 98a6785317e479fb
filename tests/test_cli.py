import copy
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sclaw import cli, harness, solvers
from sclaw.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERICAL, EXIT_OK,
                       load_config, run)
from sclaw.diagnostics import certify_pairs
from sclaw.errors import ConfigError, NumericalFailure

BASE = {
    "model": {"noise": {"modes": [
        {"sigma": 0.4, "alpha": 0.0, "beta": 1.0},
        {"sigma": 0.25, "profile": "cos", "wavenumber": 1, "alpha": 1.0,
         "beta": 0.5},
    ]}},
    "initial": {"kind": "sine", "mean": 0.0, "amp": 0.5, "mode": 1},
    "sim": {"epsilon": 0.1, "cells": 32, "seed": 11, "dt": 1.0 / 128,
            "cfl_fraction": 0.9},
}

MAIN_CONFIG = Path(__file__).resolve().parents[1] / "configs" / \
    "burgers2mode.json"

RATE_BASE = {
    "model": {"flux": {"kind": "zero"},
              "noise": {"modes": [{"sigma": 1.0, "alpha": 1.0, "beta": 0.0}]}},
    "initial": {"kind": "constant", "value": 0.0},
    "sim": {"epsilon": 1.0, "cells": 8, "seed": 7},
    "rate": {"target": "drift", "slope": 0.7, "n_steps": 32, "bins": 4},
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def patched(doc, **sections):
    out = copy.deepcopy(doc)
    for key, val in sections.items():
        out.setdefault(key, {}).update(val)
    return out


# ---------------------------------------------------------------------------
# configuration resolution


def test_resolution_fills_defaults(tmp_path):
    resolved = load_config(write_cfg(tmp_path, BASE))
    assert resolved["model"]["flux"]["kind"] == "burgers"
    assert resolved["sim"]["splitting"] == "lie"
    assert resolved["harness"]["n_tail"] == 1000
    assert resolved["model"]["noise"]["modes"][0]["profile"] == "constant"
    assert resolved["model"]["noise"]["modes"][1]["wavenumber"] == 1


def test_resolution_is_idempotent(tmp_path):
    resolved = load_config(write_cfg(tmp_path, BASE))
    again = load_config(write_cfg(tmp_path, resolved, "resolved.json"))
    assert again == resolved


def test_unknown_keys_fail_closed(tmp_path, capsys):
    bad = patched(BASE, sim={"foo": 1})
    assert run(["validate", "--config", write_cfg(tmp_path, bad)]) == \
        EXIT_CONFIG
    assert "unknown key: sim.foo" in capsys.readouterr().err
    worse = copy.deepcopy(BASE)
    worse["model"]["noise"]["modes"][0]["fish"] = 1
    assert run(["validate", "--config", write_cfg(tmp_path, worse)]) == \
        EXIT_CONFIG
    assert "model.noise.modes[0].fish" in capsys.readouterr().err


def test_missing_required_keys(tmp_path, capsys):
    doc = copy.deepcopy(BASE)
    del doc["sim"]["epsilon"]
    assert run(["validate", "--config", write_cfg(tmp_path, doc)]) == \
        EXIT_CONFIG
    assert "missing key: sim.epsilon" in capsys.readouterr().err
    nomodes = copy.deepcopy(BASE)
    del nomodes["model"]["noise"]["modes"]
    assert run(["validate", "--config", write_cfg(tmp_path, nomodes)]) == \
        EXIT_CONFIG
    assert "missing key: model.noise.modes" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert run(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["validate"]) == 2
    assert run(["frobnicate", "--config", "x"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# value format


@pytest.mark.parametrize("value, text", [
    (True, "true"), (np.True_, "true"), (False, "false"),
    (7, "7"), (np.int64(7), "7"),
    # numpy's own repr would read np.float64(0.1)
    (0.1, "0.1"), (np.float64(0.1), "0.1"), (-0.0, "-0.0"),
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
    ("J1", "J1")])
def test_value_format(value, text):
    assert cli._fmt(value) == text


# ---------------------------------------------------------------------------
# validate


def test_validate_happy_path(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["validate", "--config", write_cfg(tmp_path, BASE),
                "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "PASS" in stdout
    assert (out / "validation.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert {f["name"] for f in manifest["files"]} == {"validation.txt"}
    assert set(manifest["versions"]) == {"numpy", "python", "scipy", "sclaw"}
    import scipy
    assert manifest["versions"]["scipy"] == scipy.__version__
    assert manifest["seed"] == 11
    assert manifest["config"]["sim"]["cells"] == 32


def test_validate_checks_the_declared_state_bound(tmp_path):
    # C1 is certified for |u| <= state_bound only, so validate states it
    # at the declared bound: mode1's x-part is 0.25 * 2 pi (1 + 0.5 * 5)
    doc = copy.deepcopy(BASE)
    doc["model"]["noise"]["state_bound"] = 5
    out = tmp_path / "out"
    assert run(["validate", "--config", write_cfg(tmp_path, doc),
                "--out", str(out), "--quiet"]) == EXIT_OK
    lines = (out / "validation.txt").read_text().splitlines()
    assert "  PASS  state_bound=5.0" in lines
    assert "  PASS  mode0_C1=0.4" in lines
    assert f"  PASS  mode1_C1={0.25 * (2 * math.pi * (1 + 0.5 * 5))!r}" in lines


def test_validate_rejects_uncertified_flux(tmp_path, capsys):
    # cubic speed outgrows the quadratic envelope: certificate must fail
    doc = patched(BASE, model={})
    doc["model"]["flux"] = {"kind": "polynomial",
                            "coeffs": [0.0, 0.0, 0.0, 0.0, 0.25],
                            "growth_power": 2.0, "growth_const": 1.0}
    out = tmp_path / "out"
    code = run(["validate", "--config", write_cfg(tmp_path, doc),
                "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "certificate failure in model.flux" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_pair(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["simulate", "--config", write_cfg(tmp_path, BASE),
                "--out", str(out)])
    assert code == EXIT_OK
    assert "final_l1_gap" in capsys.readouterr().out
    assert (out / "u.csv").exists() and (out / "v.csv").exists()
    u_header = (out / "u.csv").read_text().splitlines()[0]
    assert u_header.startswith("t,cell_0,cell_1")


def test_simulate_quiet(tmp_path, capsys):
    code = run(["simulate", "--config", write_cfg(tmp_path, BASE), "--quiet"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""


def test_seed_override_reaches_outputs(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--config", cfg, "--out", str(out_a),
                "--quiet"]) == EXIT_OK
    assert run(["simulate", "--config", cfg, "--out", str(out_b),
                "--seed", "99", "--quiet"]) == EXIT_OK
    man_b = json.loads((out_b / "manifest.json").read_text())
    assert man_b["seed"] == 99
    assert man_b["config"]["sim"]["seed"] == 99
    assert (out_a / "u.csv").read_bytes() != (out_b / "u.csv").read_bytes()


def test_cfl_violation_exits_3(tmp_path, capsys):
    doc = patched(BASE, sim={"epsilon": 1.0, "dt": 0.25, "cfl_fraction": 0.45})
    code = run(["simulate", "--config", write_cfg(tmp_path, doc)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: CFL violation")
    assert "[path 0, step 0]" in err


def test_blocked_output_dir_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = run(["simulate", "--config", write_cfg(tmp_path, BASE),
                "--out", str(blocker / "sub")])
    assert code == EXIT_NUMERICAL
    assert "i/o failure:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tail and scan


def test_tail_requires_iota(tmp_path, capsys):
    assert run(["tail", "--config", write_cfg(tmp_path, BASE)]) == EXIT_CONFIG
    assert "missing key: harness.iota" in capsys.readouterr().err


def test_tail_reports_estimate(tmp_path, capsys):
    doc = patched(BASE, harness={"iota": 0.02, "n_tail": 40})
    out = tmp_path / "out"
    code = run(["tail", "--config", write_cfg(tmp_path, doc),
                "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "p_hat" in stdout and "n 40" in stdout
    lines = (out / "tail.csv").read_text().splitlines()
    assert lines[0] == "n,hits,p_hat,ci_lo,ci_hi"
    assert lines[1].startswith("40,")


def test_scan_requires_ladder(tmp_path, capsys):
    doc = patched(BASE, harness={"iota": 0.02})
    assert run(["scan", "--config", write_cfg(tmp_path, doc)]) == EXIT_CONFIG
    assert "missing key: harness.ladder" in capsys.readouterr().err


def test_scan_artifacts_and_reruns_byte_identical(tmp_path, capsys):
    doc = patched(BASE, harness={"iota": 0.02, "n_tail": 40,
                                 "ladder": [0.5, 0.2]})
    cfg = write_cfg(tmp_path, doc)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["scan", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "eps_log_p decreasing:" in stdout
    assert run(["scan", "--config", cfg, "--out", str(out_b),
                "--quiet"]) == EXIT_OK
    for name in ("scan.csv", "eps_log_p.csv", "eps_log_p.plot.txt",
                 "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    plot = (out_a / "eps_log_p.plot.txt").read_text().splitlines()
    assert "x: epsilon (log scale)" in plot
    assert "y: eps_log_p" in plot
    scan_header = (out_a / "scan.csv").read_text().splitlines()[0]
    assert scan_header == "epsilon,iota,n,hits,p_hat,ci_lo,ci_hi,eps_log_p"


def test_scan_with_moment_ladder(tmp_path):
    doc = patched(BASE, harness={"iota": 0.02, "n_tail": 24,
                                 "ladder": [0.5, 0.2],
                                 "moment_ladder": [0.5, 0.2],
                                 "n_moment": 24, "p_list": [2.0]})
    out = tmp_path / "out"
    assert run(["scan", "--config", write_cfg(tmp_path, doc),
                "--out", str(out), "--quiet"]) == EXIT_OK
    assert (out / "moment_scan.csv").exists()
    desc = (out / "moment_scan.plot.txt").read_text()
    assert "series: p=2.0" in desc


def test_scan_failing_moment_scan_writes_nothing(tmp_path, capsys):
    # the epsilon ladder steps within the CFL ceiling, the moment ladder's
    # epsilon 1 does not: no file of the scan may be left behind
    doc = patched(BASE, initial={"amp": 3.0},
                  harness={"iota": 0.02, "n_tail": 24, "ladder": [0.5, 0.2],
                           "moment_ladder": [1.0], "n_moment": 24})
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert run(["scan", "--config", cfg, "--out", str(out)]) == \
        EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(
        "numerical failure: CFL violation")
    assert not out.exists()
    # without --out the moment scan, which only feeds an artifact, is skipped
    assert run(["scan", "--config", cfg, "--quiet"]) == EXIT_OK


# ---------------------------------------------------------------------------
# scaling and doubling


def test_scaling_command(tmp_path, capsys):
    doc = patched(BASE, harness={"functionals": ["mass"], "n_scaling": 200})
    out = tmp_path / "out"
    code = run(["scaling", "--config", write_cfg(tmp_path, doc),
                "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "all passed:" in stdout
    lines = (out / "scaling.csv").read_text().splitlines()
    assert lines[0] == "functional,n,mode,ks_stat,p_value,max_abs_gap,pass"
    assert lines[1].startswith("mass,200,")


def test_doubling_command(tmp_path, capsys):
    doc = patched(BASE, harness={"n_pairs": 2})
    out = tmp_path / "out"
    code = run(["doubling", "--config", write_cfg(tmp_path, doc),
                "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "certificates: 6/6 pass" in stdout
    bounds = (out / "bounds.csv").read_text().splitlines()
    assert bounds[0] == "name,path,epsilon,gamma,delta,lhs,rhs,pass"
    assert len(bounds) == 7
    ladder = (out / "error_ladder.csv").read_text().splitlines()
    assert ladder[0] == "gamma,delta,abs_error"
    # 32-cell grid: the gamma/4 rung dives below dx and is dropped
    assert len(ladder) == 3


def test_doubling_rejects_uncertified_flux(tmp_path, capsys, monkeypatch):
    # the transport bound I rests on the declared N: |a(xi)| = |xi| breaks
    # N (1 + xi^2) at N = 0.02, so no pair may be stepped: every run,
    # recorded or not, steps through solvers._sweep
    doc = patched(BASE, harness={"n_pairs": 2})
    doc["model"]["flux"] = {"kind": "burgers", "growth_const": 0.02}
    monkeypatch.setattr(solvers, "_sweep", _no_compute)
    out = tmp_path / "out"
    assert run(["doubling", "--config", write_cfg(tmp_path, doc),
                "--out", str(out)]) == EXIT_CONFIG
    assert "certificate failure in model.flux" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("save_stride", [1, 16])
def test_doubling_fails_the_j_rows_of_pairs_past_the_state_bound(
        tmp_path, capsys, save_stride):
    # D1 of J1 and J2 holds for |u| <= state_bound only.  On the shipped
    # config at 6 pairs, pair 0 alone goes past 0.6 (|u| 0.6085, |v|
    # 0.6231); the others peak between 0.50 and 0.59.  The range is read
    # at every step, also where only every 16th is recorded
    doc = json.loads(MAIN_CONFIG.read_text())
    doc["model"]["noise"]["state_bound"] = 0.6
    doc["harness"]["n_pairs"] = 6
    doc["sim"]["save_stride"] = save_stride
    out = tmp_path / "out"
    assert run(["doubling", "--config", write_cfg(tmp_path, doc),
                "--out", str(out)]) == EXIT_OK
    assert "certificates: 16/18 pass" in capsys.readouterr().out
    rows = [row.split(",") for row in
            (out / "bounds.csv").read_text().splitlines()[1:]]
    assert len(rows) == 18
    assert [row[:2] for row in rows if row[-1] == "false"] == [
        ["J1", "0"], ["J2", "0"]]
    # every lhs is within its rhs: only the state range fails them
    assert all(float(row[5]) <= float(row[6]) for row in rows)


def test_doubling_same_bytes_across_workers_and_blocks(tmp_path,
                                                      monkeypatch):
    # two full pair blocks, then a partial block of 3 pairs
    n_pairs = 2 * cli.PAIR_BLOCK + 3
    path = write_cfg(tmp_path, patched(BASE, harness={"n_pairs": n_pairs}))
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("SCLAW_THREADS", threads)
        out = tmp_path / f"out{threads}"
        assert run(["doubling", "--config", path, "--out", str(out),
                    "--quiet"]) == EXIT_OK
        outputs[threads] = {name: (out / name).read_bytes() for name in
                            ("bounds.csv", "error_ladder.csv",
                             "error_ladder.plot.txt")}
    assert outputs["1"] == outputs["2"]
    rows = outputs["1"]["bounds.csv"].decode().splitlines()
    assert len(rows) == 1 + 3 * n_pairs
    resolved = load_config(path)
    cfg, flux, noise, eta = cli.build_run(resolved)
    moll = cli.build_mollifier(resolved, eta.grid)
    block = cli.PAIR_BLOCK
    for i in (0, block - 1, block, 2 * block, n_pairs - 1):
        want = certify_pairs(eta, cfg, flux, noise, moll, [i])[0]
        assert rows[1 + 3 * i:4 + 3 * i] == cli._bound_csv(want)[1:], i


def test_doubling_names_the_failure_one_sweep_meets_first(tmp_path, capsys,
                                                         monkeypatch):
    # strong multiplicative noise breaks the Courant bound on most paths;
    # with this seed the first pair block fails at a later step than the
    # second, and doubling names what one sweep of every pair meets first
    n_pairs = 2 * cli.PAIR_BLOCK
    doc = patched(BASE, sim={"epsilon": 0.9, "seed": 1, "cfl_fraction": 0.5},
                  harness={"n_pairs": n_pairs})
    doc["model"]["noise"]["modes"] = [{"sigma": 1.0, "alpha": 1.0,
                                       "beta": 1.0}]
    path = write_cfg(tmp_path, doc)
    cfg, flux, noise, eta = cli.build_run(load_config(path))
    failures = []
    for block in (range(cli.PAIR_BLOCK), range(n_pairs)):
        with pytest.raises(NumericalFailure) as err:
            solvers.pair_l1_distances(eta, cfg, flux, noise, block)
        failures.append(err.value)
    first_block, every_pair = failures
    assert every_pair.step < first_block.step
    for threads in ("1", "2"):
        monkeypatch.setenv("SCLAW_THREADS", threads)
        assert run(["doubling", "--config", path, "--quiet"]) == \
            EXIT_NUMERICAL
        assert (f"[path {every_pair.path_index}, step {every_pair.step}]"
                in capsys.readouterr().err)


def test_scan_names_the_failure_of_its_rungs_one_at_a_time(tmp_path, capsys,
                                                          monkeypatch):
    # strong multiplicative noise breaks the Courant bound on most paths,
    # the largest epsilon first.  A scan names the failure that its rungs
    # meet one at a time, in ladder order, each over blocks of 1024 paths;
    # with this seed a block of the first 512 paths of both rungs meets
    # another failure first
    ladder, n = [0.9, 0.5], 2048
    doc = patched(BASE, sim={"seed": 9},
                  harness={"iota": 0.02, "n_tail": n, "ladder": ladder})
    doc["model"]["noise"]["modes"] = [{"sigma": 1.0, "alpha": 1.0,
                                       "beta": 1.0}]
    path = write_cfg(tmp_path, doc)
    cfg, flux, noise, eta = cli.build_run(load_config(path))

    def failure(eps, block):
        try:
            solvers.pair_l1_distances(eta, replace(cfg, epsilon=eps), flux,
                                      noise, block)
        except NumericalFailure as exc:
            return exc
        return None

    first, second = (failure(eps, range(1024)) for eps in ladder)
    assert first.step < second.step
    want = (str(first), first.path_index, first.step)
    # the earliest step of the first stacked block, then its first row
    step, _, path_index = min(
        (exc.step, k, exc.path_index) for k, exc in enumerate(
            failure(eps, range(512)) for eps in ladder) if exc is not None)
    assert (path_index, step) != (first.path_index, first.step)
    for threads in ("1", "2"):
        monkeypatch.setenv("SCLAW_THREADS", threads)
        assert run(["scan", "--config", path, "--quiet"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"numerical failure: {want[0]} [path {want[1]}, step {want[2]}]\n")
        for scan, args in ((harness.exp_equiv_scan, (0.02,)),
                           (harness.moment_scan, ([2.0],))):
            with pytest.raises(NumericalFailure) as err:
                scan(eta, ladder, *args, n, cfg, flux, noise)
            got = err.value
            assert (str(got), got.path_index, got.step) == want, scan


def test_doubling_traces_under_half_its_snapshot_bytes(tmp_path,
                                                      monkeypatch):
    # the certificates reduce each tile of a pair block while it is
    # stepped, so no pair's snapshots are held whole.  Measured at 64
    # pairs: 4.77 MB (1.13 x the snapshot bytes) when every pair was
    # recorded whole, 1.44 MB (0.34 x) streamed in blocks of 25 pairs.
    # Below about 30 pairs validate_flux's 1.0 MB sets the peak
    n_pairs = 64
    monkeypatch.setenv("SCLAW_THREADS", "1")
    warm = write_cfg(tmp_path, patched(BASE, harness={"n_pairs": 1}), "w.json")
    assert run(["doubling", "--config", warm, "--quiet"]) == EXIT_OK
    path = write_cfg(tmp_path, patched(BASE, harness={"n_pairs": n_pairs}))
    tracemalloc.start()
    try:
        assert run(["doubling", "--config", path, "--quiet"]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # what recording every pair whole takes: 129 snapshots of both members
    snapshots = n_pairs * 2 * 129 * 32 * 8
    assert peak < 0.5 * snapshots, peak / snapshots


# ---------------------------------------------------------------------------
# rate


def test_rate_feasible(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["rate", "--config", write_cfg(tmp_path, RATE_BASE),
                "--out", str(out)])
    assert code == EXIT_OK
    assert "feasible true" in capsys.readouterr().out
    report = (out / "rate.txt").read_text()
    assert report.startswith("i_hat ")
    i_hat = float(report.splitlines()[0].split()[1])
    assert abs(i_hat - 0.245) <= 1e-3
    control = (out / "rate_control.csv").read_text().splitlines()
    assert control[0] == "bin,mode,value"
    assert len(control) == 5


def test_rate_infeasible_exits_4(tmp_path, capsys):
    doc = copy.deepcopy(RATE_BASE)
    doc["model"]["noise"]["modes"][0]["sigma"] = 0.0
    code = run(["rate", "--config", write_cfg(tmp_path, doc)])
    assert code == EXIT_INFEASIBLE
    stdout = capsys.readouterr().out
    assert "feasible false" in stdout
    assert "i_hat inf" in stdout


def test_rate_bad_target(tmp_path, capsys):
    doc = patched(RATE_BASE, rate={"target": "sideways"})
    assert run(["rate", "--config", write_cfg(tmp_path, doc)]) == EXIT_CONFIG
    assert "rate.target" in capsys.readouterr().err


# the CLI's compute entry points: a malformed input must stop a run first
COMPUTE = ("validate_flux", "validate_noise", "solve_coupled_pair",
           "certify_pairs", "estimate_tail", "exp_equiv_scan", "moment_scan",
           "scaling_check", "rate_estimate")

SCAN_BASE = patched(BASE, harness={"iota": 0.02, "n_tail": 24,
                                   "ladder": [0.5, 0.2],
                                   "moment_ladder": [0.5, 0.2],
                                   "n_moment": 24, "n_pairs": 2})

# rows that load_config accepts: their checks need the environment, the
# command line, a built model or the command
HUGE_WAVENUMBER = [{"sigma": 0.25, "profile": "cos", "wavenumber": 10 ** 300}]
HUGE_SIGMA = [{"sigma": 1e200}]
AFTER_LOAD = [("SCLAW_THREADS", "0"), ("SCLAW_THREADS", "abc"),
              ("--seed", "-1"), ("--seed", str(2 ** 64)), ("dt", 0.3),
              ("amp", None), ("gamma", 0.02), ("noise.state_bound", 1e160),
              ("noise.modes", HUGE_WAVENUMBER), ("noise.modes", HUGE_SIGMA)]


def _no_compute(*_args, **_kwargs):
    raise AssertionError("compute started before the configuration check")


# key is a path below the section of the named key (or a tuple of them,
# set to the tuple of values), or an environment variable, or a
# command-line flag, or "file" for the file's bytes
@pytest.mark.parametrize("key,value,named", [
    ("bins", 0, "rate.bins"),
    ("n_steps", 0, "rate.n_steps"),
    ("bins", 3, "rate.bins"),              # 32 steps are not a multiple of 3
    ("slope", "abc", "rate.slope"),
    ("bins", 4.5, "rate.bins"),
    ("bins", True, "rate.bins"),
    ("n_steps", 32.5, "rate.n_steps"),
    ("max_iters", 2.5, "rate.max_iters"),
    ("tol_feas", "abc", "rate.tol_feas"),
    ("lambda_ladder", 5, "rate.lambda_ladder"),
    ("lambda_ladder", [10.0, "x"], "rate.lambda_ladder[1]"),
    ("lambda_ladder", [100.0, 10.0], "rate.lambda_ladder"),
    ("ladder", [0.2, 0.5], "harness.ladder"),
    ("n_scaling", 100, "harness.n_scaling"),
    ("p_list", [9.0], "harness.p_list[0]"),
    ("iota", 0, "harness.iota"),
    ("n_tail", 0, "harness.n_tail"),
    ("n_tail", 40.7, "harness.n_tail"),
    ("n_pairs", 0, "harness.n_pairs"),
    ("functionals", ["mass", "entropy"], "harness.functionals[1]"),
    ("moment_ladder", [2.0], "harness.moment_ladder[0]"),
    ("gamma", 0.02, "mollifier.gamma"),    # below dx = 1/32
    ("gamma", 0.6, "mollifier.gamma"),
    ("horizon", 2, "sim.horizon"),
    ("epsilon", "abc", "sim.epsilon"),
    ("cells", 32.5, "sim.cells"),
    ("seed", 1.5, "sim.seed"),
    ("save_stride", 1.5, "sim.save_stride"),
    ("dt", 0.3, "sim.dt"),                 # does not divide 1
    ("--seed", "-1", "sim.seed"),
    ("noise.modes", [{"sigma": "x"}], "model.noise.modes[0].sigma"),
    ("noise.modes", [{"sigma": 0.4, "profile": "tan"}],
     "model.noise.modes[0].profile"),
    ("amp", None, "initial.amp"),          # a sine needs its amplitude
    ("SCLAW_THREADS", "0", "SCLAW_THREADS"),
    ("SCLAW_THREADS", "abc", "SCLAW_THREADS"),
    ("seed", 2 ** 64, "sim.seed"),         # one 64-bit word of the key
    ("--seed", str(2 ** 64), "sim.seed"),
    ("noise.state_bound", 1e160, "model.noise.state_bound"),   # D1 overflows
    # a mode's own constants overflow at any state bound
    ("noise.modes", HUGE_WAVENUMBER, "model.noise.modes[0].wavenumber"),
    ("noise.modes", HUGE_SIGMA, "model.noise.modes[0].sigma"),
    # the whole file: json.load fails, and the message names the file
    pytest.param("file", b'{"sim": {"seed": ' + b"1" * 5001 + b"}}",
                 "cfg.json", id="file-5001_digit_integer-cfg.json"),
    pytest.param("file", b'{"initial": {"kind": "caf\xe9"}}', "cfg.json",
                 id="file-latin1-cfg.json"),
    pytest.param("file", b"[" * 200_000, "cfg.json",
                 id="file-200000_brackets-cfg.json"),
    # 1 mode x 1024 bins is past the control dimension cap of 512
    pytest.param(("n_steps", "bins"), (1024, 1024), "rate.bins",
                 id="n_steps+bins-1024-rate.bins"),
])
def test_rate_config_errors_exit_2_before_compute(tmp_path, capsys,
                                                  monkeypatch, key, value,
                                                  named):
    section = named.split(".")[0]
    doc = copy.deepcopy(RATE_BASE if section == "rate" else SCAN_BASE)
    command = {"rate": "rate", "mollifier": "doubling"}.get(section, "scan")
    flags = []
    if key == "SCLAW_THREADS":
        monkeypatch.setenv(key, value)
    elif key == "--seed":
        flags = [key, value]
    elif key != "file":
        keys, values = (key, value) if isinstance(key, tuple) else \
            ((key,), (value,))
        for one, val in zip(keys, values):
            node = doc
            *parents, leaf = f"{section}.{one}".split(".")
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = val
    path = write_cfg(tmp_path, doc)
    if key == "file":
        Path(path).write_bytes(value)
    if (key, value) not in AFTER_LOAD:
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(path)
    for name in COMPUTE:
        monkeypatch.setattr(cli, name, _no_compute)
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", str(out)] + flags) == \
        EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_largest_seed_is_accepted(tmp_path):
    top = 2 ** 64 - 1
    path = write_cfg(tmp_path, patched(BASE, sim={"seed": top}))
    assert load_config(path)["sim"]["seed"] == top
    out = tmp_path / "out"
    assert run(["simulate", "--config", write_cfg(tmp_path, BASE, "b.json"),
                "--seed", str(top), "--out", str(out), "--quiet"]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["seed"] == top


# the table accepts these values; 2^q0 or delta^(q0 + 1) of the transport
# bound, or D1 of the smoothing-cost bound, then overflows, which doubling
# checks before it steps a pair
@pytest.mark.parametrize("section,key,value", [
    ("model.flux", "growth_power", 2000),
    ("mollifier", "delta", 1e200),
    ("model.noise", "state_bound", 1e160),    # D1 of J1 and J2
])
def test_doubling_bound_overflow_exits_2_before_compute(
        tmp_path, capsys, monkeypatch, section, key, value):
    doc = copy.deepcopy(SCAN_BASE)
    node = doc
    for part in section.split("."):
        node = node.setdefault(part, {})
    node[key] = value
    path = write_cfg(tmp_path, doc)
    load_config(path)
    for name in COMPUTE:
        monkeypatch.setattr(cli, name, _no_compute)
    out = tmp_path / "out"
    assert run(["doubling", "--config", path, "--out", str(out)]) == \
        EXIT_CONFIG
    assert f"{section}.{key} " in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# plot data


def test_emit_moment_scan_series_lines(tmp_path):
    doc = patched(BASE, harness={"iota": 0.02, "n_tail": 24,
                                 "ladder": [0.5, 0.2],
                                 "moment_ladder": [1.0, 0.5],
                                 "n_moment": 24, "p_list": [2.0, 4.0]})
    out = tmp_path / "out"
    assert run(["scan", "--config", write_cfg(tmp_path, doc),
                "--out", str(out), "--quiet"]) == EXIT_OK
    names = {f["name"] for f in
             json.loads((out / "manifest.json").read_text())["files"]}
    assert {"moment_scan.csv", "moment_scan.plot.txt"} <= names
    csv = (out / "moment_scan.csv").read_text().splitlines()
    assert csv[0] == "epsilon,p,u_moment,v_moment"
    assert len(csv) == 5
    assert [row.split(",")[:2] for row in csv[1:]] == [
        ["1.0", "2.0"], ["1.0", "4.0"], ["0.5", "2.0"], ["0.5", "4.0"]]
    desc = (out / "moment_scan.plot.txt").read_text().splitlines()
    assert desc.count("series: p=2.0") == 1
    assert desc.count("series: p=4.0") == 1


def test_emit_error_ladder(tmp_path):
    out = tmp_path / "out"
    assert run(["doubling", "--config",
                write_cfg(tmp_path, patched(BASE, harness={"n_pairs": 1})),
                "--out", str(out), "--quiet"]) == EXIT_OK
    names = {f["name"] for f in
             json.loads((out / "manifest.json").read_text())["files"]}
    assert names == {"bounds.csv", "error_ladder.csv", "error_ladder.plot.txt"}
    csv = (out / "error_ladder.csv").read_text().splitlines()
    # the default widths 0.1 halved once; gamma/4 is below dx = 1/32
    assert csv[0] == "gamma,delta,abs_error"
    assert [row.split(",")[:2] for row in csv[1:]] == [["0.1", "0.1"],
                                                       ["0.05", "0.05"]]
    for row in csv[1:]:
        assert row == ",".join(repr(float(x)) for x in row.split(","))
    desc = (out / "error_ladder.plot.txt").read_text()
    assert desc == ("kind: error_ladder\nx: gamma (log scale)\n"
                    "y: abs_error\nseries: abs_error\n")


# ---------------------------------------------------------------------------
# manifest integrity


def test_manifest_hashes_match_files(tmp_path):
    doc = patched(BASE, harness={"iota": 0.02, "n_tail": 24})
    out = tmp_path / "out"
    assert run(["tail", "--config", write_cfg(tmp_path, doc),
                "--out", str(out), "--quiet"]) == EXIT_OK
    import hashlib
    manifest = json.loads((out / "manifest.json").read_text())
    emitted = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert {f["name"] for f in manifest["files"]} == emitted
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_manifest_config_reproduces_outputs(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out_a = tmp_path / "a"
    assert run(["simulate", "--config", cfg, "--out", str(out_a),
                "--quiet"]) == EXIT_OK
    embedded = json.loads((out_a / "manifest.json").read_text())["config"]
    cfg_b = write_cfg(tmp_path, embedded, "roundtrip.json")
    out_b = tmp_path / "b"
    assert run(["simulate", "--config", cfg_b, "--out", str(out_b),
                "--quiet"]) == EXIT_OK
    for name in ("u.csv", "v.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_cold_start_loads_no_scipy(tmp_path):
    # importing the CLI loads neither scipy (the manifest reads its
    # version.py), numpy.polynomial nor the thread pool; validate,
    # doubling, tail and rate at the benchmark's sizes still import no
    # scipy (smirnov loads scipy.special on first use)
    configs = Path(cli.__file__).resolve().parents[2] / "configs"
    burgers = json.loads((configs / "burgers2mode.json").read_text())
    burgers["harness"].update(n_tail=640, n_scaling=256, n_moment=128,
                              n_pairs=6)
    rate = json.loads((configs / "rate_additive.json").read_text())
    rate["rate"]["max_iters"] = 50
    runs = [[command, "--config", write_cfg(tmp_path, burgers, "b.json"),
             "--out", str(tmp_path / command), "--quiet"]
            for command in ("validate", "doubling", "tail")]
    runs.append(["rate", "--config", write_cfg(tmp_path, rate, "r.json"),
                 "--out", str(tmp_path / "rate"), "--quiet"])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys, sclaw.cli\n"
        "def loaded(names):\n"
        "    print(sorted(m for m in names if m in sys.modules))\n"
        "loaded(('scipy', 'numpy.polynomial', 'concurrent.futures'))\n"
        f"print([sclaw.cli.run(argv) for argv in {runs!r}])\n"
        "loaded(('scipy',))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", str([EXIT_OK] * 4), "[]", ""]
