"""Finite-volume and splitting solvers on the periodic unit interval.

The deterministic substep is the Engquist-Osher scheme in conservation
form; the stochastic substep is Ito Euler-Maruyama with the noise
evaluated at the pre-update state.  Lie splitting runs flux then noise
each step, Strang wraps the noise update between two half flux steps.
Every flux substep re-checks the Courant certificate

    scale * sup|a| * dt / dx <= nu < 1

with sup|a| taken over the running solution range widened by a fixed
margin, and raises a NumericalFailure naming the attained Courant
number (and the path/step) on violation.

One stepper, ``_sweep``, advances every run: a block of paths moves in
lockstep as a (paths, cells) array, and a single path is a block of one
row.  What a caller needs (tiles of trajectory snapshots, the pair's L1
gap, moment maxima and the state range, endpoints) is observed along
the way, at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalFailure
from .grid import ScalarField, Trajectory
from .models import (STREAM_BASE, STREAM_MAIN, STREAM_SCALED, FluxModel,
                     NoiseModel, SimConfig, block_increments)

# widening of the running solution range when certifying the CFL condition
RANGE_PAD = 1.0


def resolve_time_grid(cfg: SimConfig, flux: FluxModel,
                      eta: ScalarField) -> tuple[int, float]:
    """Fixed (n_steps, dt) for a run; shared by both members of a pair.

    Explicit cfg.dt wins.  Otherwise dt comes from the CFL fraction
    applied to the initial range plus margin, capped at dx so that a
    run whose flux has no speed still resolves the noise in time.
    """
    if cfg.dt is not None:
        n = round(1.0 / cfg.dt)
        return n, 1.0 / n
    dx = dt = 1.0 / cfg.cells
    lo, hi = eta.range_bounds()
    sup = flux.sup_abs_a(lo - RANGE_PAD, hi + RANGE_PAD)
    if cfg.epsilon * sup > 0.0:
        dt = min(dt, cfg.cfl_fraction * dx / (cfg.epsilon * sup))
    n = max(1, int(np.ceil(1.0 / dt - 1e-12)))
    return n, 1.0 / n


# ---------------------------------------------------------------------------
# the stepping engine
#
# Each update acts row by row.  The flux substep's two cell shifts (the
# right state u[i+1] and the difference F[i] - F[i-1]) run as one flat
# pass over the C-contiguous (paths, cells) block, which is row by row
# except in the wrap column, where the flat shift pairs a row with its
# neighbour row; that one column is then rewritten from the row itself.
# The noise coefficients c0 = db^T P0 and c1 = db^T P1 are two
# fixed-order einsums over the K modes, each into its own contiguous
# (paths, cells) buffer, which never reach BLAS.  A row's bits therefore
# do not depend on the height of its block.  Every (paths, cells) buffer
# a step writes is allocated once per block; a step allocates only
# per-row vectors.  A recording run writes its snapshots path-major
# into a tile, (paths, members, tile, cells), and hands each filled tile
# to its consumer, which reduces or copies it before the next one is
# written.


def _range(u: np.ndarray, path_indices, step: int) -> tuple[float, float]:
    """(min, max) of the block, raising on the first non-finite row."""
    lo = float(u.min())
    hi = float(u.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = int(np.nonzero(~np.isfinite(u).all(axis=1))[0][0])
        raise NumericalFailure("non-finite state", path_indices[bad], step)
    return lo, hi


def _flux_substep(u: np.ndarray, lo: float, hi: float, dx: float,
                  flux: FluxModel, scale: float, dt: float,
                  cfl_fraction: float, path_indices, step: int,
                  scratch: np.ndarray) -> None:
    """Engquist-Osher update of every row of u, in place; scratch holds
    three C-contiguous arrays shaped like u."""
    right, f, work = scratch
    if not (right.flags.c_contiguous and f.flags.c_contiguous):
        raise ValueError("flux substep scratch must be C-contiguous")
    sup = flux.sup_abs_a(lo - RANGE_PAD, hi + RANGE_PAD)
    if scale * sup * dt / dx > cfl_fraction:
        # the hull bound is conservative: certify per path before failing
        lows, highs = u.min(axis=1), u.max(axis=1)
        for r in range(u.shape[0]):
            rsup = flux.sup_abs_a(float(lows[r]) - RANGE_PAD,
                                  float(highs[r]) + RANGE_PAD)
            courant = scale * rsup * dt / dx
            if courant > cfl_fraction:
                raise NumericalFailure(
                    f"CFL violation: Courant number {courant:.6g} exceeds "
                    f"the certified fraction {cfl_fraction:.6g}",
                    path_indices[r], step)
    # flat shifts; each row's wrap column is then patched from the row
    right.reshape(-1)[:-1] = u.reshape(-1)[1:]
    right[:, -1] = u[:, 0]
    flux.eo_flux(u, right, f, work)  # flux through right interfaces
    div = right
    flat = f.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=div.reshape(-1)[1:])
    np.subtract(f[:, :1], f[:, -1:], out=div[:, :1])
    div *= scale * (dt / dx)
    u -= div


def _noise_substep(u: np.ndarray, c0: np.ndarray, c1: np.ndarray,
                   amp: float, tmp: np.ndarray) -> None:
    """u += amp * (c0 + c1 * u) in place; tmp is scratch."""
    np.multiply(c1, u, out=tmp)
    tmp += c0
    tmp *= amp
    u += tmp


@dataclass
class _Observed:
    ends: np.ndarray                  # final first-member states (paths, cells)
    gap: np.ndarray | None = None     # space-time L1 gaps of pairs (paths,)
    moms: np.ndarray | None = None    # (paths, len(p_list), members)


def _snapshot_times(n: int, dt: float, stride: int) -> np.ndarray:
    """Times of the snapshots that a run of n steps of dt records: the
    start, every stride steps and the end, which is t = 1 exactly."""
    steps = np.minimum(np.arange(1 + math.ceil(n / stride)) * stride, n)
    times = steps * dt
    times[-1] = 1.0
    return times


def _sweep(eta: ScalarField, flux: FluxModel, flux_scale: float,
           noise: NoiseModel, amp: float, dt: float, inc: np.ndarray,
           splitting: str, cfl_fraction: float, path_indices,
           pair: bool = False, p_list=(), record=None) -> _Observed:
    """Advance one block of paths from eta and report what was observed.

    Row r is path_indices[r], driven by inc[:, :, r] (step-major
    increments, (n_steps, K, paths)).  A step is the flux substep (two
    half steps around the noise for Strang) and the Euler-Maruyama noise
    substep.  The noise coefficients sum_k db_k P0[k] and sum_k db_k P1[k]
    are formed once per step, shared by both members when pair is set;
    the second member runs without flux.  Observers: the endpoint always,
    the trapezoidal L1 gap of a pair, the running maxima over every step
    of dx * sum |.|^p for each p in p_list (of max |.| for p = math.inf),
    and, when record is given as (stride, tile, consume), the snapshots
    of _snapshot_times.  They land in a (paths, members, tile, cells)
    buffer, and consume(buffer, first) gets it whenever it is full and
    at the end (then only its filled part), first being the index of its
    first snapshot.  The buffer is written again after consume returns,
    unless it held the last snapshot.
    """
    n, n_modes, rows = inc.shape
    indices = [int(i) for i in path_indices]
    dx = eta.grid.dx
    m = eta.grid.cells
    p0, p1 = np.hsplit(noise.stacked_parts(eta.grid), 2)
    c0, c1 = np.empty((2, rows, m))
    scratch = np.empty((3, rows, m))  # flux substep: right states, f, work
    tmp = scratch[0]
    u = np.tile(eta.values, (rows, 1))
    members = [u, u.copy()] if pair else [u]
    out = _Observed(u)
    strang = splitting == "strang"
    h = 0.5 * dt if strang else dt
    lo_hi = _range(u, indices, 0)     # range of u, None once stale

    def flux_step(s):
        nonlocal lo_hi
        lo, hi = lo_hi or _range(u, indices, s)
        _flux_substep(u, lo, hi, dx, flux, flux_scale, h, cfl_fraction,
                      indices, s, scratch)
        lo_hi = None

    def snap(last):
        nonlocal filled, first
        for i, w in enumerate(members):
            buf[:, i, filled] = w
        filled += 1
        if filled == tile or last:
            consume(buf if filled == tile else buf[:, :, :filled], first)
            first += filled
            filled = 0

    def observe():
        for i, w in enumerate(members):
            for j, p in enumerate(p_list):
                a = np.abs(w, out=tmp)
                if p == math.inf:
                    size = a.max(axis=1)
                else:
                    a **= p
                    size = dx * a.sum(axis=1)
                np.maximum(out.moms[:, j, i], size, out=out.moms[:, j, i])

    if pair:
        out.gap = np.zeros(rows)
        prev = np.zeros(rows)
    if p_list:
        out.moms = np.full((rows, len(p_list), len(members)), -np.inf)
        observe()
    if record:
        stride, tile, consume = record
        tile = min(tile, 1 + math.ceil(n / stride))
        buf = np.empty((rows, len(members), tile, m))
        filled = first = 0      # snapshots in buf, index of its first
        snap(n == 0)
    for s in range(n):
        flux_step(s)
        if n_modes:
            np.einsum("kb,kc->bc", inc[s], p0, out=c0)
            np.einsum("kb,kc->bc", inc[s], p1, out=c1)
            for w in members:
                _noise_substep(w, c0, c1, amp, tmp)
            lo_hi = _range(u, indices, s)
        if strang:
            flux_step(s)
        if pair:
            v = members[1]
            np.subtract(u, v, out=tmp)
            np.abs(tmp, out=tmp)
            cur = dx * tmp.sum(axis=1)
            # a finite gap next to a finite u implies a finite v
            if not np.isfinite(cur).all():
                _range(v, indices, s)
            out.gap += 0.5 * dt * (prev + cur)
            prev = cur
        if p_list:
            observe()
        if record and ((s + 1) % stride == 0 or s + 1 == n):
            snap(s + 1 == n)
    return out


def deterministic_step(field: ScalarField, flux: FluxModel, scale: float,
                       dt: float) -> ScalarField:
    """One conservative Engquist-Osher step of size dt, certified at the
    default Courant fraction."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = field.values[None, :].copy()
    _flux_substep(u, *field.range_bounds(), field.grid.dx, flux, scale, dt,
                  SimConfig.cfl_fraction, [None], None,
                  np.empty((3,) + u.shape))
    return ScalarField(field.grid, u[0])


def _scaled(cfg: SimConfig, flux: FluxModel,
            eta: ScalarField) -> tuple[float, float, int, float]:
    """(flux scale, noise amplitude, n_steps, dt) of the rescaled dynamics."""
    n, dt = resolve_time_grid(cfg, flux, eta)
    return cfg.epsilon, math.sqrt(cfg.epsilon), n, dt


def _base(eta: ScalarField, epsilon: float, cfg: SimConfig,
          flux: FluxModel) -> tuple[float, float, int, float]:
    """The same for the unscaled dynamics run to time epsilon in as many
    steps (dt_base = epsilon * dt); at epsilon = 1 it is the same run."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    n, dt = resolve_time_grid(replace(cfg, epsilon=epsilon), flux, eta)
    return 1.0, 1.0, n, epsilon * dt


def _block(eta: ScalarField, cfg: SimConfig, flux: FluxModel,
           noise: NoiseModel, dynamics, path_indices, stream: int,
           **observers) -> _Observed:
    """_sweep of the given dynamics over a block of paths, each driven by
    its own counter-keyed increments."""
    scale, amp, n, dt = dynamics
    inc = block_increments(cfg.seed, stream, path_indices, n, noise.n_modes,
                           dt)
    return _sweep(eta, flux, scale, noise, amp, dt, inc, cfg.splitting,
                  cfg.cfl_fraction, path_indices, **observers)


def recorded_times(eta: ScalarField, cfg: SimConfig,
                   flux: FluxModel) -> np.ndarray:
    """Snapshot times of a recorded coupled pair (see _snapshot_times)."""
    return _snapshot_times(*resolve_time_grid(cfg, flux, eta),
                           cfg.save_stride)


def record_coupled_pairs(eta: ScalarField, cfg: SimConfig, flux: FluxModel,
                         noise: NoiseModel, path_indices, p_list, tile: int,
                         consume) -> _Observed:
    """Step the coupled pairs of a block of path indices, handing consume
    each tile of up to tile snapshots at recorded_times, and observing
    the moment maxima of p_list (see _sweep).

    Both members of a pair are driven by one shared noise path on the
    time grid resolved from the transport side, so they see identical
    Brownian increments step by step and their gap isolates the effect
    of the scaled flux.  Rows do not depend on the height of the block.
    """
    return _block(eta, cfg, flux, noise, _scaled(cfg, flux, eta),
                  path_indices, STREAM_MAIN, pair=True, p_list=p_list,
                  record=(cfg.save_stride, tile, consume))


def solve_coupled_pair(eta: ScalarField, cfg: SimConfig, flux: FluxModel,
                       noise: NoiseModel) -> tuple[Trajectory, Trajectory]:
    """(transport run, flux-free run) of path 0, recorded as one tile
    that each Trajectory copies its run from."""
    times = recorded_times(eta, cfg, flux)
    tiles = []
    record_coupled_pairs(eta, cfg, flux, noise, [0], (), len(times),
                         lambda buf, _first: tiles.append(buf))
    return tuple(Trajectory(eta.grid, times, run) for run in tiles[0][0])


def pair_l1_distances(eta: ScalarField, cfg: SimConfig, flux: FluxModel,
                      noise: NoiseModel, path_indices) -> np.ndarray:
    """Space-time L1 gaps of coupled pairs for a block of path indices.

    The running trapezoidal integral of ||u - v||_L1, accumulated on the
    fly, so large Monte Carlo sweeps avoid building trajectories.
    """
    return _block(eta, cfg, flux, noise, _scaled(cfg, flux, eta),
                  path_indices, STREAM_MAIN, pair=True).gap


def pair_moment_maxes(eta: ScalarField, cfg: SimConfig, flux: FluxModel,
                      noise: NoiseModel, path_indices, p_list) -> np.ndarray:
    """max_t dx * sum |.|^p for both pair members, (paths, len(p_list), 2)."""
    return _block(eta, cfg, flux, noise, _scaled(cfg, flux, eta),
                  path_indices, STREAM_MAIN, pair=True,
                  p_list=[float(p) for p in p_list]).moms


def scaled_endpoints(eta: ScalarField, cfg: SimConfig, flux: FluxModel,
                     noise: NoiseModel, path_indices) -> np.ndarray:
    """Final states of the rescaled dynamics for a block of paths, (paths,
    cells), on their own stream."""
    return _block(eta, cfg, flux, noise, _scaled(cfg, flux, eta),
                  path_indices, STREAM_SCALED).ends


def base_small_time_endpoints(eta: ScalarField, epsilon: float,
                              cfg: SimConfig, flux: FluxModel,
                              noise: NoiseModel, path_indices) -> np.ndarray:
    """Endpoints of the unscaled dynamics at horizon epsilon, (paths,
    cells), on their own stream."""
    return _block(eta, cfg, flux, noise, _base(eta, epsilon, cfg, flux),
                  path_indices, STREAM_BASE).ends


# ---------------------------------------------------------------------------
# the skeleton integrator
#
# Per bin the right-hand side is affine, q0 + q1 * u, and one classical
# RK4 step of an affine ODE is exactly the affine map u -> A * u + B with
# A = 1 + z * S, B = dt * q0 * S, S = 1 + z/2 (1 + z/3 (1 + z/4)) and
# z = dt * q1.  The per-bin coefficients are a fixed-order einsum over
# the K modes, as in _sweep, so a control's rows do not depend on the
# height of its stack.
#
# When every z of a stack is +0 or -0 (additive noise, beta = 0, with
# finite controls), S and A round to exactly 1.0 and B to dt * q0, and
# u * 1.0 is u to the bit.  The map is then the running sum u + B: the
# tile's rows are filled with each step's B and summed in place, row
# after row, with the same operands in the same order.  A nan in z (an
# infinite control times a zero beta part) is not zero, so that stack
# keeps the affine map.


# snapshots per tile: the buffer holds one tile
SKELETON_TILE = 64


def uniform_times(n_steps: int) -> np.ndarray:
    """The n_steps + 1 times of a uniform grid on [0, 1]."""
    return _snapshot_times(n_steps, 1.0 / n_steps, 1)


def _skeleton_steps(rows: np.ndarray, amp: np.ndarray | None,
                    shift: np.ndarray, first: int, n_steps: int) -> None:
    """Step rows[0] into rows[1:], starting at step `first`; amp None
    means every amp is 1.0.  The row, amp and shift views are made once
    per call: at the shipped sizes a slice costs about as much as the
    arithmetic of a step."""
    bins = len(shift)
    views = list(rows)
    if amp is None:
        # each step's shift into its row (mode="raise" would buffer out;
        # the bin index is in range), then the running sum row by row: a
        # row add beats add.accumulate, which loops down each column
        steps = np.arange(first, first + len(rows) - 1)
        np.take(shift, (steps * bins) // n_steps, axis=0, out=rows[1:],
                mode="clip")
        for u, nxt in zip(views, views[1:]):
            np.add(u, nxt, nxt)
        return
    amp, shift = list(amp), list(shift)
    for j, (u, nxt) in enumerate(zip(views, views[1:]), first):
        b = (j * bins) // n_steps
        np.multiply(u, amp[b], nxt)
        np.add(nxt, shift[b], nxt)


def integrate_skeleton(eta: ScalarField, h: np.ndarray, noise: NoiseModel,
                       n_steps: int, target: np.ndarray) -> np.ndarray:
    """RK4 skeleton du/dt = sum_k g_k(x, u) h_k(t) on [0, 1] for a stack
    h of piecewise-constant controls shaped (C, K, B), all from eta.

    Returns the trapezoidal L1-in-time, L1-in-space distance of each
    skeleton to target ((n_steps + 1, cells) values on the same uniform
    time grid), shaped (C,), observed per tile of SKELETON_TILE steps.
    Nothing is checked for finiteness here: a control that overflows
    yields inf or nan.

    A stack whose every z = dt * q1 is +0 or -0 is stepped as a running
    sum of dt * q0: there each RK4 factor is exactly 1.0, so its bits are
    the affine map's.  Any other stack, one nan in z included, takes the
    affine map.
    """
    if h.ndim != 3 or h.shape[1] != noise.n_modes:
        raise ValueError(f"control stack shape {h.shape} does not match "
                         f"{noise.n_modes} noise modes")
    bins = h.shape[2]
    if bins < 1 or n_steps < bins or n_steps % bins:
        raise ValueError(
            f"n_steps={n_steps} must be a positive multiple of bins={bins}")
    m = eta.grid.cells
    dx = eta.grid.dx
    dt = 1.0 / n_steps
    q = np.einsum("ckb,kx->bcx", h, noise.stacked_parts(eta.grid))
    z = dt * q[:, :, m:]
    if z.any():
        poly = 1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0))
        amp = 1.0 + z * poly
        shift = dt * q[:, :, :m] * poly
    else:
        amp, shift = None, dt * q[:, :, :m]
    gaps = np.empty((len(h), n_steps + 1))
    buf = np.empty((min(n_steps, SKELETON_TILE) + 1, len(h), m))
    buf[0] = eta.values
    for lo in range(0, n_steps, SKELETON_TILE):
        hi = min(lo + SKELETON_TILE, n_steps)
        rows = buf[:hi - lo + 1]
        _skeleton_steps(rows, amp, shift, lo, n_steps)
        carry = rows[-1].copy()
        # |u - target| in place; each (snapshot, lane) sum runs over its
        # own contiguous cells, so the bits do not depend on the tile
        np.subtract(rows, target[lo:hi + 1, None, :], out=rows)
        np.abs(rows, out=rows)
        gaps[:, lo:hi + 1] = np.add.reduce(rows, axis=2).T
        buf[0] = carry
    weights = np.full(n_steps + 1, dt)
    weights[[0, -1]] = 0.5 * dt
    # each lane's time sum runs along its own contiguous row
    return dx * (gaps * weights).sum(axis=1)
