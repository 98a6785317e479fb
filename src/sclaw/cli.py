"""Command line front end: config ingestion, experiment orchestration,
deterministic artifacts.

One JSON configuration document drives every subcommand.  Resolution is
fail-closed: unknown keys are errors, defaults are filled in, and the
fully resolved document is embedded in ``manifest.json`` next to a
sha256 of every emitted file, so a run can be reproduced byte for byte
from its own manifest.

Exit codes: 0 success, 2 configuration error, 3 numerical or I/O
failure, 4 infeasible rate target.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, NumericalFailure
from .grid import TorusGrid, make_initial
from .models import (NoiseMode, NoiseModel, SimConfig, make_flux,
                     validate_flux, validate_noise)
from .mollifier import MollifierPair
from .solvers import solve_coupled_pair
from .diagnostics import (bound_check_I, bound_check_J, error_term,
                          write_bound_reports)
from .harness import (estimate_tail, exp_equiv_scan, map_paths, moment_scan,
                      scaling_check)
from .ratefn import OptConfig, constant_target, drift_target, rate_estimate

PLOT_KINDS = ("eps_log_p", "moment_scan", "error_ladder")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4


# ---------------------------------------------------------------------------
# configuration schema

_REQ = object()   # no default: the key must be present in the document

_MODE_SCHEMA = {
    "sigma": _REQ,
    "profile": "constant",
    "wavenumber": 1,
    "alpha": 1.0,
    "beta": 0.0,
}

_SCHEMA = {
    "model": {
        "flux": {"kind": "burgers", "growth_power": 2.0, "growth_const": 1.0,
                 "speed": 0.0, "coeffs": []},
        "noise": {"modes": _REQ, "state_bound": 10.0},
    },
    "initial": {"kind": _REQ, "value": None, "left": None, "right": None,
                "x0": None, "mean": None, "amp": None, "mode": None},
    "sim": {"epsilon": _REQ, "cells": _REQ, "seed": _REQ, "dt": None,
            "cfl_fraction": 0.45, "horizon": 1.0, "splitting": "lie",
            "save_stride": 1},
    "mollifier": {"gamma": 0.1, "delta": 0.1},
    "harness": {"iota": None, "ladder": None, "n_tail": 1000,
                "functionals": ["mass", "l2norm"], "n_scaling": 2000,
                "p_list": [2.0], "moment_ladder": None, "n_moment": 500,
                "n_pairs": 50},
    "rate": {"target": "drift", "slope": 0.7, "n_steps": 64, "bins": 16,
             "lambda_ladder": None, "tol_feas": None, "max_iters": None},
}


def _resolve(user: dict, schema: dict, prefix: str = "") -> dict:
    if not isinstance(user, dict):
        raise ConfigError(f"expected an object at {prefix[:-1] or 'top level'}")
    for key in user:
        if key not in schema:
            raise ConfigError(f"unknown key: {prefix}{key}")
    out = {}
    for key, default in schema.items():
        dotted = f"{prefix}{key}"
        if dotted == "model.noise.modes":
            modes = user.get(key)
            if modes is None:
                raise ConfigError(f"missing key: {dotted}")
            if not isinstance(modes, list) or not modes:
                raise ConfigError(f"{dotted} must be a non-empty list")
            out[key] = [_resolve(m, _MODE_SCHEMA, f"{dotted}[{i}].")
                        for i, m in enumerate(modes)]
        elif isinstance(default, dict):
            out[key] = _resolve(user.get(key, {}), default, dotted + ".")
        elif default is _REQ:
            if user.get(key) is None:
                raise ConfigError(f"missing key: {dotted}")
            out[key] = user[key]
        else:
            val = user.get(key)
            out[key] = default if val is None else val
    return out


def _check_rate(rc: dict) -> None:
    """Types and ranges of the rate section, checked before any compute."""
    if rc["target"] not in ("drift", "constant"):
        raise ConfigError(f"rate.target must be 'drift' or 'constant', "
                          f"got {rc['target']!r}")
    ladder = rc["lambda_ladder"]
    if ladder is not None and not isinstance(ladder, list):
        raise ConfigError(f"rate.lambda_ladder must be a list, got {ladder!r}")
    numbers = [("slope", rc["slope"]), ("tol_feas", rc["tol_feas"])] + \
        [(f"lambda_ladder[{i}]", lam) for i, lam in enumerate(ladder or [])]
    for key, val in numbers:
        if val is not None and (isinstance(val, bool) or not isinstance(
                val, (int, float)) or not math.isfinite(val)):
            raise ConfigError(f"rate.{key} must be a finite number, "
                              f"got {val!r}")
    for key in ("bins", "n_steps", "max_iters"):
        val = rc[key]
        if val is not None and (isinstance(val, bool)
                                or not isinstance(val, int) or val < 1):
            raise ConfigError(f"rate.{key} must be a positive integer, "
                              f"got {val!r}")
    if rc["n_steps"] % rc["bins"]:
        raise ConfigError(f"rate.n_steps {rc['n_steps']} must be a multiple "
                          f"of rate.bins {rc['bins']}")


def load_config(path) -> dict:
    """Parse and resolve a configuration document against the schema."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    resolved = _resolve(raw, _SCHEMA)
    _check_rate(resolved["rate"])
    return resolved


def _require(resolved: dict, dotted: str):
    node = resolved
    for part in dotted.split("."):
        node = node[part]
    if node is None:
        raise ConfigError(f"missing key: {dotted}")
    return node


# ---------------------------------------------------------------------------
# model builders (constructor errors surface as configuration errors)


def _cfgerr(builder, *args, **kwargs):
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_flux(resolved: dict):
    f = resolved["model"]["flux"]
    return _cfgerr(make_flux, f["kind"], growth_power=f["growth_power"],
                   growth_const=f["growth_const"], speed=f["speed"],
                   coeffs=tuple(f["coeffs"]))


def build_noise(resolved: dict) -> NoiseModel:
    nz = resolved["model"]["noise"]
    modes = tuple(_cfgerr(NoiseMode, **m) for m in nz["modes"])
    return _cfgerr(NoiseModel, modes, state_bound=nz["state_bound"])


def build_initial(resolved: dict, grid: TorusGrid):
    ini = resolved["initial"]
    params = {k: v for k, v in ini.items() if k != "kind" and v is not None}
    return _cfgerr(make_initial, grid, ini["kind"], **params)


def build_sim(resolved: dict) -> SimConfig:
    s = resolved["sim"]
    return _cfgerr(SimConfig, epsilon=s["epsilon"], cells=int(s["cells"]),
                   seed=int(s["seed"]), dt=s["dt"],
                   cfl_fraction=s["cfl_fraction"], horizon=s["horizon"],
                   splitting=s["splitting"],
                   save_stride=int(s["save_stride"]))


def build_mollifier(resolved: dict) -> MollifierPair:
    m = resolved["mollifier"]
    return _cfgerr(MollifierPair, m["gamma"], m["delta"])


# ---------------------------------------------------------------------------
# artifacts


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, resolved: dict, seed: int,
                   files) -> Path:
    """Manifest with the resolved config, effective seed, content hash of
    every emitted file and the library versions.  No timestamps: a rerun
    with the same config and seed reproduces it byte for byte."""
    entries = [{"name": p.name, "sha256": _sha256(p)}
               for p in sorted(files, key=lambda p: p.name)]
    manifest = {
        "config": resolved,
        "seed": int(seed),
        "files": entries,
        "versions": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
            "sclaw": __version__,
        },
    }
    path = out_dir / "manifest.json"
    with open(path, "w", newline="") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def emit_plot_data(table, kind: str, out_dir) -> list[Path]:
    """Write <kind>.csv plus <kind>.plot.txt, a plain-text descriptor
    (axes, scale hints, series) for external plotting tools."""
    out_dir = Path(out_dir)
    if kind == "eps_log_p":
        if not table.rows:
            raise ValueError("cannot emit an empty eps_log_p table")
        csv_lines = table.csv_lines()
        desc = ["kind: eps_log_p",
                "x: epsilon (log scale)",
                "y: eps_log_p",
                "series: eps_log_p"]
    elif kind == "moment_scan":
        if not table.rows:
            raise ValueError("cannot emit an empty moment_scan table")
        csv_lines = ["epsilon,p,u_moment,v_moment"]
        csv_lines += [f"{r.epsilon!r},{r.p!r},{r.u_moment!r},{r.v_moment!r}"
                      for r in table.rows]
        seen = dict.fromkeys(r.p for r in table.rows)
        desc = ["kind: moment_scan",
                "x: epsilon (log scale)",
                "y: running max moment, both pair members"]
        desc += [f"series: p={p!r}" for p in seen]
    elif kind == "error_ladder":
        rows = list(table)
        if not rows:
            raise ValueError("cannot emit an empty error_ladder table")
        csv_lines = ["gamma,delta,abs_error"]
        csv_lines += [f"{g!r},{d!r},{v!r}" for g, d, v in rows]
        desc = ["kind: error_ladder",
                "x: gamma (log scale)",
                "y: abs_error",
                "series: abs_error"]
    else:
        raise ValueError(f"unknown plot kind: {kind}")
    csv_path = out_dir / f"{kind}.csv"
    txt_path = out_dir / f"{kind}.plot.txt"
    _write_lines(csv_path, csv_lines)
    _write_lines(txt_path, desc)
    return [csv_path, txt_path]


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, written files, report lines)


def _cmd_validate(resolved, out_dir):
    flux = build_flux(resolved)
    noise = build_noise(resolved)
    reports = {"model.flux": validate_flux(flux),
               "model.noise": validate_noise(noise)}
    lines = []
    for rep in reports.values():
        lines += rep.lines()
    files = []
    if out_dir is not None:
        path = out_dir / "validation.txt"
        _write_lines(path, lines)
        files.append(path)
    bad = [key for key, rep in reports.items() if not rep.passed]
    if bad:
        raise ConfigError(f"certificate failure in {', '.join(bad)}")
    return EXIT_OK, files, lines


def _cmd_simulate(resolved, out_dir):
    cfg = build_sim(resolved)
    flux = build_flux(resolved)
    noise = build_noise(resolved)
    eta = build_initial(resolved, cfg.grid)
    u, v = solve_coupled_pair(eta, cfg, flux, noise)
    gap = float(np.abs(u.values[-1] - v.values[-1]).sum() * u.grid.dx)
    lines = [f"steps {len(u.times) - 1}",
             f"final_l1_gap {gap!r}"]
    files = []
    if out_dir is not None:
        for name, traj in (("u.csv", u), ("v.csv", v)):
            path = out_dir / name
            traj.to_csv(path)
            files.append(path)
    return EXIT_OK, files, lines


def _cmd_tail(resolved, out_dir):
    cfg = build_sim(resolved)
    flux = build_flux(resolved)
    noise = build_noise(resolved)
    eta = build_initial(resolved, cfg.grid)
    iota = _require(resolved, "harness.iota")
    n = int(resolved["harness"]["n_tail"])
    est = estimate_tail(eta, iota, n, cfg, flux, noise)
    lines = [f"n {est.n}", f"hits {est.hits}", f"p_hat {est.p_hat!r}",
             f"ci_lo {est.ci_lo!r}", f"ci_hi {est.ci_hi!r}"]
    files = []
    if out_dir is not None:
        path = out_dir / "tail.csv"
        _write_lines(path, ["n,hits,p_hat,ci_lo,ci_hi",
                            f"{est.n},{est.hits},{est.p_hat!r},"
                            f"{est.ci_lo!r},{est.ci_hi!r}"])
        files.append(path)
    return EXIT_OK, files, lines


def _cmd_scan(resolved, out_dir):
    cfg = build_sim(resolved)
    flux = build_flux(resolved)
    noise = build_noise(resolved)
    eta = build_initial(resolved, cfg.grid)
    iota = _require(resolved, "harness.iota")
    ladder = _require(resolved, "harness.ladder")
    n = int(resolved["harness"]["n_tail"])
    table = exp_equiv_scan(eta, ladder, iota, n, cfg, flux, noise)
    lines = table.csv_lines()
    lines.append("eps_log_p decreasing: "
                 f"{str(table.eps_log_p_decreasing()).lower()}")
    files = []
    if out_dir is not None:
        path = out_dir / "scan.csv"
        _write_lines(path, table.csv_lines())
        files.append(path)
        files += emit_plot_data(table, "eps_log_p", out_dir)
        if resolved["harness"]["moment_ladder"] is not None:
            moments = moment_scan(eta, resolved["harness"]["moment_ladder"],
                                  resolved["harness"]["p_list"],
                                  int(resolved["harness"]["n_moment"]),
                                  cfg, flux, noise)
            files += emit_plot_data(moments, "moment_scan", out_dir)
    return EXIT_OK, files, lines


def _cmd_scaling(resolved, out_dir):
    cfg = build_sim(resolved)
    flux = build_flux(resolved)
    noise = build_noise(resolved)
    eta = build_initial(resolved, cfg.grid)
    names = resolved["harness"]["functionals"]
    n = int(resolved["harness"]["n_scaling"])
    result = scaling_check(eta, cfg.epsilon, names, n, cfg, flux, noise)
    header = "functional,n,mode,ks_stat,p_value,max_abs_gap,pass"
    rows = [f"{r.functional},{r.n},{r.mode},{r.ks_stat!r},{r.p_value!r},"
            f"{r.max_abs_gap!r},{str(r.passed).lower()}"
            for r in result.rows]
    lines = [header] + rows
    lines.append(f"all passed: {str(result.passed).lower()}")
    files = []
    if out_dir is not None:
        path = out_dir / "scaling.csv"
        _write_lines(path, [header] + rows)
        files.append(path)
    return EXIT_OK, files, lines


def _cmd_doubling(resolved, out_dir):
    cfg = build_sim(resolved)
    flux = build_flux(resolved)
    noise = build_noise(resolved)
    eta = build_initial(resolved, cfg.grid)
    moll = build_mollifier(resolved)
    n_pairs = int(resolved["harness"]["n_pairs"])

    def one(i):
        pair = solve_coupled_pair(eta, cfg, flux, noise, path_index=i)
        j1, j2 = bound_check_J(pair, moll, cfg.epsilon, noise, path_index=i)
        rep_i = bound_check_I(pair, moll, cfg.epsilon, flux, path_index=i)
        finals = (pair[0].final(), pair[1].final()) if i == 0 else None
        return [j1, j2, rep_i], finals

    results = map_paths(one, n_pairs)
    reports = [rep for batch, _ in results for rep in batch]
    u_final, v_final = results[0][1]
    # half the widths twice; rungs finer than the grid are dropped
    ladder = []
    for k in range(3):
        g, d = moll.gamma / 2 ** k, moll.delta / 2 ** k
        if g >= eta.grid.dx:
            ladder.append(
                (g, d, abs(error_term(u_final, v_final, MollifierPair(g, d)))))
    n_pass = sum(r.passed for r in reports)
    lines = [f"certificates: {n_pass}/{len(reports)} pass"]
    lines += [f"error_ladder gamma={g!r} delta={d!r} abs_error={v!r}"
              for g, d, v in ladder]
    files = []
    if out_dir is not None:
        path = out_dir / "bounds.csv"
        write_bound_reports(reports, path)
        files.append(path)
        files += emit_plot_data(ladder, "error_ladder", out_dir)
    return EXIT_OK, files, lines


def _cmd_rate(resolved, out_dir):
    noise = build_noise(resolved)
    grid = TorusGrid(int(_require(resolved, "sim.cells")))
    eta = build_initial(resolved, grid)
    rc = resolved["rate"]
    if rc["target"] == "drift":
        target = drift_target(eta, float(rc["slope"]), rc["n_steps"])
    else:
        target = constant_target(eta, rc["n_steps"])
    opt = _cfgerr(OptConfig, **{key: rc[key] for key in (
        "lambda_ladder", "tol_feas", "max_iters") if rc[key] is not None})
    result = rate_estimate(target, noise, eta=eta, bins=rc["bins"], opt=opt)
    lines = result.report_lines()
    files = []
    if out_dir is not None:
        path = out_dir / "rate.txt"
        _write_lines(path, result.report_lines())
        files.append(path)
        path = out_dir / "rate_control.csv"
        _write_lines(path, result.control_csv_lines())
        files.append(path)
    code = EXIT_OK if result.feasible else EXIT_INFEASIBLE
    return code, files, lines


_DISPATCH = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "tail": _cmd_tail,
    "scan": _cmd_scan,
    "scaling": _cmd_scaling,
    "doubling": _cmd_doubling,
    "rate": _cmd_rate,
}


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sclaw",
        description="stochastic scalar conservation law experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        resolved = load_config(args.config)
        if args.seed is not None:
            resolved["sim"]["seed"] = args.seed
        out_dir = None
        if args.out is not None:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
        code, files, lines = _DISPATCH[args.command](resolved, out_dir)
        if not args.quiet:
            for line in lines:
                print(line)
        if out_dir is not None:
            write_manifest(out_dir, resolved, int(resolved["sim"]["seed"]),
                           files)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        where = ""
        if exc.path_index is not None or exc.step is not None:
            where = f" [path {exc.path_index}, step {exc.step}]"
        print(f"numerical failure: {exc}{where}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
