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
import operator
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, NumericalFailure
from .grid import TorusGrid, make_initial
from .models import (FLUX_KINDS, PROFILE_KINDS, NoiseMode, NoiseModel,
                     SimConfig, check_mode_constants, check_state_bound,
                     make_flux, validate_flux, validate_noise)
from .mollifier import MollifierPair
from .solvers import pair_l1_distances, solve_coupled_pair
from .diagnostics import certify_pairs, error_term, transport_constants
from .harness import (FUNCTIONALS, estimate_tail, exp_equiv_scan,
                      moment_scan, scaling_check, worker_count)
from .ratefn import (DIMENSION_CAP, OptConfig, action, constant_target,
                     drift_target, rate_estimate)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4

# coupled pairs per block of doubling: each block runs its own sweep and
# certifies its tiles as they are recorded, and the blocks are stepped in
# order.  On the shipped grid a block of 25 pairs traces about 3.2 MB at
# its peak, where their snapshots alone took 6.6 MB when recorded whole.
# Blocks of 8 or 16 pairs ran slower.  Mapped over two worker threads,
# the blocks ran no faster than in order, since the threads contend for
# the interpreter lock between numpy calls on small arrays, and raised
# the peak by about 4 MB
PAIR_BLOCK = 25


# ---------------------------------------------------------------------------
# configuration table
#
# Every leaf is (default, rule).  A default of _REQ makes the key
# required; a default of None leaves it unset unless given.  A rule
# checks a value under its dotted key, raises a ConfigError naming that
# key, and returns the resolved value.

_REQ = object()   # no default: the key must be present in the document

_SIGNS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}


def _rule(what: str, test):
    """Accept the values that pass test; what describes them."""
    def rule(key, val):
        if not test(val):
            raise ConfigError(f"{key} must be {what}, got {val!r}")
        return val
    return rule


def _int(lo: int, hi: float = math.inf):
    # booleans and integral floats such as 64.0 are not integers
    what = f"an integer >= {lo}" + (f" and <= {hi}" if hi < math.inf else "")
    return _rule(what, lambda v: type(v) is int and lo <= v <= hi)


def _num(**bounds):
    """A finite number meeting each bound, e.g. _num(gt=0, le=1)."""
    return _rule("a finite number" + "".join(
        f" {_SIGNS[op]} {b}" for op, b in bounds.items()),
        lambda v: type(v) in (int, float) and math.isfinite(v) and all(
            getattr(operator, op)(v, b) for op, b in bounds.items()))


def _one_of(choices):
    return _rule(f"one of {', '.join(choices)}", lambda v: v in choices)


def _list(entry, nonempty: bool = True, strictly: str | None = None):
    """A list whose entries, named key[i], pass entry (a rule or a table);
    strictly ("descending" or "increasing") orders consecutive entries."""
    def rule(key, val):
        if not isinstance(val, list) or (nonempty and not val):
            raise ConfigError(f"{key} must be a {'non-empty ' * nonempty}"
                              f"list, got {val!r}")
        out = [_resolve(v, entry, f"{key}[{i}].") if isinstance(entry, dict)
               else entry(f"{key}[{i}]", v) for i, v in enumerate(val)]
        cmp = operator.gt if strictly == "descending" else operator.lt
        if strictly and not all(map(cmp, out, out[1:])):
            raise ConfigError(f"{key} must be strictly {strictly}, got {val!r}")
        return out
    return rule


_EPSILON = _num(gt=0, le=1)

_SCHEMA = {
    "model": {
        "flux": {"kind": ("burgers", _one_of(FLUX_KINDS)),
                 "growth_power": (2.0, _num(ge=1)),
                 "growth_const": (1.0, _num(ge=0)), "speed": (0.0, _num()),
                 "coeffs": ([], _list(_num(), nonempty=False))},
        "noise": {"modes": (_REQ, _list({
                      "sigma": (_REQ, _num()),
                      "profile": ("constant", _one_of(PROFILE_KINDS)),
                      "wavenumber": (1, _int(1)), "alpha": (1.0, _num()),
                      "beta": (0.0, _num())})),
                  "state_bound": (10.0, _num(gt=0))},
    },
    "initial": {"kind": (_REQ, _one_of(("constant", "riemann", "sine"))),
                "value": (None, _num()), "left": (None, _num()),
                "right": (None, _num()), "x0": (None, _num(ge=0, le=1)),
                "mean": (None, _num()), "amp": (None, _num()),
                "mode": (None, _int(1))},
    "sim": {"epsilon": (_REQ, _EPSILON), "cells": (_REQ, _int(2)),
            # the seed is one 64-bit word of the Philox key
            "seed": (_REQ, _int(0, 2 ** 64 - 1)),
            "dt": (None, _num(gt=0, le=1)),
            "cfl_fraction": (0.45, _num(gt=0, lt=1)),
            "splitting": ("lie", _one_of(("lie", "strang"))),
            "save_stride": (1, _int(1))},
    "mollifier": {"gamma": (0.1, _num(gt=0, lt=0.5)),
                  "delta": (0.1, _num(gt=0))},
    "harness": {"iota": (None, _num(gt=0)),
                "ladder": (None, _list(_EPSILON, strictly="descending")),
                "n_tail": (1000, _int(1)),
                "functionals": (["mass", "l2norm"], _list(_one_of(FUNCTIONALS))),
                "n_scaling": (2000, _int(200)),
                "p_list": ([2.0], _list(_num(ge=1, le=8))),
                "moment_ladder": (None, _list(_EPSILON)),
                "n_moment": (500, _int(1)), "n_pairs": (50, _int(1))},
    "rate": {"target": ("drift", _one_of(("drift", "constant"))),
             "slope": (0.7, _num()), "n_steps": (64, _int(1)),
             "bins": (16, _int(1)),
             "lambda_ladder": (None, _list(_num(gt=0), strictly="increasing")),
             "tol_feas": (None, _num(gt=0)), "max_iters": (None, _int(1))},
}


def _resolve(user: dict, schema: dict, prefix: str = "") -> dict:
    if not isinstance(user, dict):
        raise ConfigError(f"expected an object at {prefix[:-1] or 'top level'}")
    for key in user:
        if key not in schema:
            raise ConfigError(f"unknown key: {prefix}{key}")
    out = {}
    for key, spec in schema.items():
        dotted = f"{prefix}{key}"
        if isinstance(spec, dict):
            out[key] = _resolve(user.get(key, {}), spec, dotted + ".")
            continue
        default, rule = spec
        val = user.get(key)
        if val is None and default is _REQ:
            raise ConfigError(f"missing key: {dotted}")
        val = default if val is None else val
        out[key] = None if val is None else rule(dotted, val)
    return out


def load_config(path, seed: int | None = None) -> dict:
    """Parse a configuration document and resolve it against the table;
    a given seed overrides sim.seed under the same rule."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    # JSONDecodeError, UnicodeDecodeError and the integer digit limit are
    # all ValueErrors; nesting too deep for the parser is a RecursionError
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    resolved = _resolve(raw, _SCHEMA)
    if seed is not None:
        resolved["sim"]["seed"] = _SCHEMA["sim"]["seed"][1]("sim.seed", seed)
    rc = resolved["rate"]
    if rc["n_steps"] % rc["bins"]:
        raise ConfigError(f"rate.n_steps {rc['n_steps']} must be a multiple "
                          f"of rate.bins {rc['bins']}")
    n_modes = len(resolved["model"]["noise"]["modes"])
    if n_modes * rc["bins"] > DIMENSION_CAP:
        raise ConfigError(f"rate.bins {rc['bins']} times {n_modes} noise "
                          f"modes exceeds the control dimension cap "
                          f"{DIMENSION_CAP}")
    return resolved


def _require(resolved: dict, dotted: str):
    node = resolved
    for part in dotted.split("."):
        node = node[part]
    if node is None:
        raise ConfigError(f"missing key: {dotted}")
    return node


# ---------------------------------------------------------------------------
# model builders (a library guard's message starts with its field name, so
# prefixing the section names the key)


def _cfgerr(prefix: str, builder, *args, **kwargs):
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def build_flux(resolved: dict):
    f = resolved["model"]["flux"]
    return _cfgerr("model.flux.", make_flux, f["kind"],
                   growth_power=f["growth_power"],
                   growth_const=f["growth_const"], speed=f["speed"],
                   coeffs=tuple(f["coeffs"]))


def build_noise(resolved: dict) -> NoiseModel:
    nz = resolved["model"]["noise"]
    modes = tuple(_cfgerr(f"model.noise.modes[{i}].", NoiseMode, **m)
                  for i, m in enumerate(nz["modes"]))
    noise = _cfgerr("model.noise.", NoiseModel, modes,
                    state_bound=nz["state_bound"])
    _cfgerr("model.noise.", check_mode_constants, noise)
    _cfgerr("model.noise.", check_state_bound, noise)
    return noise


def build_initial(resolved: dict, grid: TorusGrid):
    ini = resolved["initial"]
    params = {k: v for k, v in ini.items() if k != "kind" and v is not None}
    return _cfgerr("initial.", make_initial, grid, ini["kind"], **params)


def build_sim(resolved: dict) -> SimConfig:
    return _cfgerr("sim.", SimConfig, **resolved["sim"])


def build_run(resolved: dict):
    """(SimConfig, flux, noise, initial field) of a stochastic run."""
    cfg = build_sim(resolved)
    return (cfg, build_flux(resolved), build_noise(resolved),
            build_initial(resolved, cfg.grid))


def build_mollifier(resolved: dict, grid: TorusGrid) -> MollifierPair:
    m = resolved["mollifier"]
    moll = _cfgerr("mollifier.", MollifierPair, m["gamma"], m["delta"])
    _cfgerr("mollifier.", moll.support_offsets, grid)   # gamma >= dx
    return moll


# ---------------------------------------------------------------------------
# artifacts: every file and report line is formed here, each value by _fmt


def _fmt(v) -> str:
    """A value's text in every artifact and report line: a float in
    round-trip repr, a bool as true or false, an int by str, a str as it
    is."""
    # float alone first: most values are floats (numpy's float64 is
    # one), and the tuple test (float, np.floating) took about 15 %
    # longer on a 257 x 64 trajectory
    if isinstance(v, float) or isinstance(v, np.floating):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer, str)):
        return str(v)
    raise TypeError(f"no artifact format for {type(v).__name__}")


def _csv(header, rows) -> list[str]:
    """CSV lines: the header's column names, then one line per row."""
    return [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]


def _key_lines(pairs) -> list[str]:
    """One "key value" line per (key, value) pair."""
    return [f"{key} {_fmt(value)}" for key, value in pairs]


def _trajectory_csv(traj) -> list[str]:
    """The header t,cell_0,...,cell_{M-1}, then one row per snapshot."""
    return _csv(["t"] + [f"cell_{i}" for i in range(traj.grid.cells)],
                ([t, *row] for t, row in zip(traj.times.tolist(),
                                             traj.values.tolist())))


def _validation_lines(rep) -> list[str]:
    """The report's verdict, then one line per check: a stated constant
    with its value, a sampled check with its worst ratio and point."""
    out = [f"{rep.subject}: {'PASS' if rep.passed else 'FAIL'}"]
    for c in rep.checks:
        head = f"  {'PASS' if c.passed else 'FAIL'}  {c.name}"
        if not c.worst_point:
            out.append(f"{head}={_fmt(c.worst_ratio)}")
            continue
        pt = ", ".join(f"{v:.6g}" for v in c.worst_point)
        out.append(f"{head}  worst_ratio={c.worst_ratio:.6g}  at ({pt})")
    return out


def _scan_csv(table) -> list[str]:
    return _csv(("epsilon", "iota", "n", "hits", "p_hat", "ci_lo", "ci_hi",
                 "eps_log_p"),
                [(r.epsilon, r.iota, r.n, r.hits, r.p_hat, r.ci_lo, r.ci_hi,
                  r.eps_log_p) for r in table.rows])


def _bound_csv(reports) -> list[str]:
    return _csv(("name", "path", "epsilon", "gamma", "delta", "lhs", "rhs",
                 "pass"),
                [(r.name, r.path_index, r.epsilon, r.gamma, r.delta, r.lhs,
                  r.rhs, r.passed) for r in reports])


def _rate_files(result) -> dict:
    """rate.txt, the report lines, and rate_control.csv, the control per
    bin and mode."""
    h = result.h_opt
    return {"rate.txt": _key_lines([
                ("i_hat", result.i_hat), ("action", action(h)),
                ("residual", result.residual), ("feasible", result.feasible),
                ("iterations", result.iterations)]),
            "rate_control.csv": _csv(("bin", "mode", "value"), [
                (b, k, h.values[k, b]) for b in range(h.bins)
                for k in range(h.n_modes)])}


def _write_lines(path: Path, lines) -> str:
    """Write the lines, each ended by a newline, and return the sha256 of
    the bytes written."""
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_manifest(out_dir: Path, resolved: dict, hashes: dict) -> None:
    """Manifest with the resolved config, effective seed, content hash of
    every emitted file (hashes maps its name to its sha256) and the
    library versions.  No timestamps: a rerun with the same config and
    seed reproduces it byte for byte."""
    manifest = {
        "config": resolved,
        "seed": resolved["sim"]["seed"],
        "files": [{"name": name, "sha256": hashes[name]}
                  for name in sorted(hashes)],
        "versions": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
            "sclaw": __version__,
        },
    }
    _write_lines(out_dir / "manifest.json",
                 [json.dumps(manifest, sort_keys=True, indent=2)])


def _plot_files(kind: str, csv: list[str], x: str, y: str, series) -> dict:
    """<kind>.csv plus <kind>.plot.txt, a plain-text descriptor (axes,
    scale hints, series) for external plotting tools."""
    desc = [f"kind: {kind}", f"x: {x}", f"y: {y}"]
    return {f"{kind}.csv": csv,
            f"{kind}.plot.txt": desc + [f"series: {s}" for s in series]}


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved config and whether the run writes
# artifacts, and returns (exit code, {file name: lines}, report lines)


def _cmd_validate(resolved, _writes):
    flux = build_flux(resolved)
    noise = build_noise(resolved)
    reports = {"model.flux": validate_flux(flux),
               "model.noise": validate_noise(noise)}
    bad = [key for key, rep in reports.items() if not rep.passed]
    if bad:
        raise ConfigError(f"certificate failure in {', '.join(bad)}")
    lines = [line for rep in reports.values()
             for line in _validation_lines(rep)]
    return EXIT_OK, {"validation.txt": lines}, lines


def _cmd_simulate(resolved, _writes):
    cfg, flux, noise, eta = build_run(resolved)
    u, v = solve_coupled_pair(eta, cfg, flux, noise)
    gap = float(np.abs(u.values[-1] - v.values[-1]).sum() * u.grid.dx)
    lines = _key_lines([("steps", len(u.times) - 1), ("final_l1_gap", gap)])
    return EXIT_OK, {"u.csv": _trajectory_csv(u),
                     "v.csv": _trajectory_csv(v)}, lines


def _cmd_tail(resolved, _writes):
    cfg, flux, noise, eta = build_run(resolved)
    iota = _require(resolved, "harness.iota")
    est = estimate_tail(eta, iota, resolved["harness"]["n_tail"], cfg, flux,
                        noise)
    cols = ("n", "hits", "p_hat", "ci_lo", "ci_hi")
    row = (est.n, est.hits, est.p_hat, est.ci_lo, est.ci_hi)
    lines = _key_lines(zip(cols, row))
    return EXIT_OK, {"tail.csv": _csv(cols, [row])}, lines


def _cmd_scan(resolved, writes):
    cfg, flux, noise, eta = build_run(resolved)
    h = resolved["harness"]
    iota = _require(resolved, "harness.iota")
    ladder = _require(resolved, "harness.ladder")
    table = exp_equiv_scan(eta, ladder, iota, h["n_tail"], cfg, flux, noise)
    csv = _scan_csv(table)
    lines = csv + ["eps_log_p decreasing: "
                   + _fmt(table.eps_log_p_decreasing())]
    files = {"scan.csv": csv, **_plot_files(
        "eps_log_p", csv, "epsilon (log scale)", "eps_log_p", ["eps_log_p"])}
    # the moment scan only feeds an artifact
    if writes and h["moment_ladder"] is not None:
        moments = moment_scan(eta, h["moment_ladder"], h["p_list"],
                              h["n_moment"], cfg, flux, noise)
        rows = [(r.epsilon, r.p, r.u_moment, r.v_moment)
                for r in moments.rows]
        csv = _csv(("epsilon", "p", "u_moment", "v_moment"), rows)
        files.update(_plot_files(
            "moment_scan", csv, "epsilon (log scale)",
            "running max moment, both pair members",
            [f"p={_fmt(p)}" for p in dict.fromkeys(r[1] for r in rows)]))
    return EXIT_OK, files, lines


def _cmd_scaling(resolved, _writes):
    cfg, flux, noise, eta = build_run(resolved)
    h = resolved["harness"]
    result = scaling_check(eta, cfg.epsilon, h["functionals"], h["n_scaling"],
                           cfg, flux, noise)
    csv = _csv(("functional", "n", "mode", "ks_stat", "p_value",
                "max_abs_gap", "pass"),
               [(r.functional, r.n, r.mode, r.ks_stat, r.p_value,
                 r.max_abs_gap, r.passed) for r in result.rows])
    lines = csv + ["all passed: " + _fmt(result.passed)]
    return EXIT_OK, {"scaling.csv": csv}, lines


def _cmd_doubling(resolved, _writes):
    cfg, flux, noise, eta = build_run(resolved)
    moll = build_mollifier(resolved, eta.grid)
    # the transport bound's constants, before any pair is stepped; q0
    # alone first (a unit delta cannot overflow), so a failure names its key
    _cfgerr("model.flux.", transport_constants, flux.growth_power, 1.0)
    _cfgerr("mollifier.", transport_constants, flux.growth_power, moll.delta)
    # the transport bound I rests on the flux's declared certificate
    if not validate_flux(flux).passed:
        raise ConfigError("certificate failure in model.flux")

    n_pairs = resolved["harness"]["n_pairs"]
    blocks = [range(lo, min(lo + PAIR_BLOCK, n_pairs))
              for lo in range(0, n_pairs, PAIR_BLOCK)]
    try:
        certified = [certify_pairs(eta, cfg, flux, noise, moll, b)
                     for b in blocks]
    except NumericalFailure:
        # a block stops at its own first failure: name the one that a
        # single sweep of every pair meets first
        pair_l1_distances(eta, cfg, flux, noise, range(n_pairs))
        raise
    reports = [rep for block, _ in certified for rep in block]
    u_final, v_final = certified[0][1]
    # half the widths twice; rungs finer than the grid are dropped
    ladder = []
    for k in range(3):
        g, d = moll.gamma / 2 ** k, moll.delta / 2 ** k
        if g >= eta.grid.dx:
            ladder.append(
                (g, d, abs(error_term(u_final, v_final, MollifierPair(g, d)))))
    n_pass = sum(r.passed for r in reports)
    lines = [f"certificates: {n_pass}/{len(reports)} pass"]
    lines += [f"error_ladder gamma={_fmt(g)} delta={_fmt(d)} "
              f"abs_error={_fmt(v)}" for g, d, v in ladder]
    files = {"bounds.csv": _bound_csv(reports), **_plot_files(
        "error_ladder", _csv(("gamma", "delta", "abs_error"), ladder),
        "gamma (log scale)", "abs_error", ["abs_error"])}
    return EXIT_OK, files, lines


def _cmd_rate(resolved, _writes):
    noise = build_noise(resolved)
    eta = build_initial(resolved, TorusGrid(resolved["sim"]["cells"]))
    rc = resolved["rate"]
    if rc["target"] == "drift":
        target = drift_target(eta, rc["slope"], rc["n_steps"])
    else:
        target = constant_target(eta, rc["n_steps"])
    opt = _cfgerr("rate.", OptConfig, **{key: rc[key] for key in (
        "lambda_ladder", "tol_feas", "max_iters") if rc[key] is not None})
    result = rate_estimate(target, noise, eta=eta, bins=rc["bins"], opt=opt)
    files = _rate_files(result)
    code = EXIT_OK if result.feasible else EXIT_INFEASIBLE
    return code, files, files["rate.txt"]


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
        resolved = load_config(args.config, seed=args.seed)
        _cfgerr("", worker_count)
        code, files, lines = _DISPATCH[args.command](resolved,
                                                      args.out is not None)
        # --out is made only once the command has returned, so a command
        # that fails leaves nothing behind
        if args.out is not None:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_manifest(out_dir, resolved, {
                name: _write_lines(out_dir / name, body)
                for name, body in files.items()})
        if not args.quiet:
            for line in lines:
                print(line)
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
