"""Reference computations shared by the tests.

The library evaluates the kernel through tabulated primitives and the
doubling functional through the closed Xi reduction; most oracles here
go back to the definitions with adaptive quadrature instead (slow, small
grids only).  kernel_cdf reads the kernel CDF from the tables, and
coarsen aggregates a noise path onto a coarser time grid.
skeleton_per_step integrates the skeleton without tiles, and is the
only integrator that keeps every snapshot.  validate_flux_untiled
evaluates the flux certificate lattice as one array, as validate_flux
did before it went through it in tiles.  recorded_runs keeps every
snapshot of a block of stochastic runs, from one tile of the stepper's
recording, lp_norms reduces snapshots to their moment norms, noise_g
evaluates a noise mode from its definition, and affine_parts forms a
noise model's parts P0 and P1 as two arrays.
"""

import math

import numpy as np
from scipy.integrate import dblquad

from sclaw.grid import Trajectory
from sclaw.models import (FLUX_LATTICE_RADIUS, NoisePath, ValidationReport,
                          _ratio_check)
from sclaw.mollifier import bump_norm, kernel_tables
from sclaw.solvers import STREAM_MAIN, _block, _scaled, _snapshot_times


def psi_scalar(w: float) -> float:
    """The normalized unit bump for one float, for scalar quadrature."""
    if not -1.0 < w < 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - w * w)) / bump_norm()


def kernel_cdf(r):
    """Kernel CDF X from the shared tables: 0 left of the support, 1
    right of it."""
    r = np.asarray(r, dtype=float)
    rc = np.clip(r, -1.0, 1.0)
    # clip away sub-1e-30 spline wiggle at the flat ends of the bump
    out = np.clip(kernel_tables().primitives(rc, 0)[0], 0.0, 1.0)
    return np.where(r <= -1.0, 0.0, np.where(r >= 1.0, 1.0, out))


def coarsen(path: NoisePath, factor: int) -> NoisePath:
    """The same Brownian path on a grid coarsened by an integer factor:
    consecutive increments summed."""
    n_steps, n_modes = path.increments.shape
    if factor < 1 or n_steps % factor:
        raise ValueError(f"factor {factor} does not divide {n_steps} steps")
    inc = path.increments.reshape(n_steps // factor, factor,
                                  n_modes).sum(axis=1)
    return NoisePath(path.seed, path.stream, path.path_index,
                     path.dt * factor, inc)


def wedges_quadrature(a: float, b: float, moll) -> float:
    """T+ + T- for one (a, b) pair by adaptive 2-D quadrature.

    T+ integrates psi_delta(xi - zeta) over {xi < a, zeta >= b}, which
    meets the kernel support only for xi in (b - delta, a); T- covers
    the opposite wedge {xi >= a, zeta < b}.
    """
    delta = moll.delta
    kw = dict(epsabs=1e-9, epsrel=1e-9)

    def psi_d(z, x):
        return psi_scalar((x - z) / delta) / delta

    tp = 0.0
    if a > b - delta:
        tp, _ = dblquad(psi_d, b - delta, a,
                        lambda x: b, lambda x: x + delta, **kw)
    tm = 0.0
    if a < b + delta:
        tm, _ = dblquad(psi_d, a, b + delta,
                        lambda x: x - delta, lambda x: b, **kw)
    return tp + tm


def doubling_bruteforce(u, v, moll) -> float:
    """The doubling functional with each cell pair's wedges integrated
    by wedges_quadrature."""
    offs, w = moll.spatial_weights(u.grid)
    total = 0.0
    for d, wd in zip(offs, w):
        vy = np.roll(v.values, d)
        total += wd * sum(wedges_quadrature(a, b, moll)
                          for a, b in zip(u.values, vy))
    return float(total * u.grid.dx)


def noise_g(noise, k: int, x, u):
    """Mode k of a noise model at positions x and states u (broadcasting):
    sigma_k * phi_k(x) * (alpha_k + beta_k * u)."""
    m = noise.modes[k]
    return m.sigma * m.phi(x) * (m.alpha + m.beta * np.asarray(u, dtype=float))


def affine_parts(noise, x):
    """(P0, P1) with g_k(x, u) = P0[k] + P1[k] * u, each shaped (K, len(x))."""
    x = np.asarray(x, dtype=float)
    if not noise.modes:
        return np.zeros((0, x.size)), np.zeros((0, x.size))
    p0 = np.stack([m.sigma * m.alpha * m.phi(x) for m in noise.modes])
    p1 = np.stack([m.sigma * m.beta * m.phi(x) for m in noise.modes])
    return p0, p1


def recorded_runs(eta, cfg, flux, noise, path_indices, pair=True):
    """Every snapshot of the rescaled runs of a block of paths on the main
    stream, as Trajectories: per path [u, v] of its coupled pair, or [u]
    of its transport run alone.  The block records one tile that holds
    every snapshot."""
    dynamics = _scaled(cfg, flux, eta)
    times = _snapshot_times(*dynamics[2:], cfg.save_stride)
    tiles = []
    _block(eta, cfg, flux, noise, dynamics, path_indices, STREAM_MAIN,
           pair=pair, record=(cfg.save_stride, len(times),
                              lambda buf, _first: tiles.append(buf)))
    return [[Trajectory(eta.grid, times, run) for run in runs]
            for runs in tiles[0]]


def lp_norms(values, p: float, dx: float) -> np.ndarray:
    """The p-th power norm dx * sum |u_i|^p of each snapshot, summed over
    the last axis, which holds the cells."""
    return dx * np.sum(np.abs(values) ** p, axis=-1)


def validate_flux_untiled(flux):
    """validate_flux over the whole 2-D lattice at once."""
    xi = np.linspace(-FLUX_LATTICE_RADIUS, FLUX_LATTICE_RADIUS, 1024)
    checks = [
        _ratio_check("speed_growth", np.abs(flux.a(xi)),
                     flux.growth_envelope(xi), [xi]),
    ]
    zeta = xi[:, None]
    diff = np.abs(flux.a(xi)[None, :] - flux.a(zeta))
    env = (flux.lipschitz_envelope(xi[None, :], zeta)
           * np.abs(xi[None, :] - zeta))
    mask = np.abs(xi[None, :] - zeta) > 0
    checks.append(_ratio_check(
        "speed_local_lipschitz",
        np.where(mask, diff, 0.0), np.where(mask, env, 1.0),
        [np.broadcast_to(xi[None, :], env.shape),
         np.broadcast_to(zeta, env.shape)]))
    return ValidationReport(f"flux[{flux.kind}]", tuple(checks))


def skeleton_per_step(eta, h, noise, n_steps, target=None):
    """The RK4 skeleton one step at a time on one state array, observed
    after every step: every snapshot, (n_steps + 1, C, cells), or with
    target the distance integrate_skeleton returns."""
    bins = h.shape[2]
    m = eta.grid.cells
    dt = 1.0 / n_steps
    p0, p1 = affine_parts(noise, eta.grid.centers)
    q = np.einsum("ckb,kx->bcx", h, np.concatenate([p0, p1], axis=1))
    z = dt * q[:, :, m:]
    poly = 1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0))
    amp = 1.0 + z * poly
    shift = dt * q[:, :, :m] * poly
    u = np.tile(eta.values, (len(h), 1))
    if target is None:
        saved = np.empty((n_steps + 1,) + u.shape)

        def observe(s):
            saved[s] = u
    else:
        gaps = np.empty((len(h), n_steps + 1))
        tmp = np.empty_like(u)

        def observe(s):
            np.subtract(u, target[s], out=tmp)
            np.abs(tmp, out=tmp)
            np.add.reduce(tmp, axis=1, out=gaps[:, s])
    observe(0)
    for s in range(n_steps):
        b = (s * bins) // n_steps
        u *= amp[b]
        u += shift[b]
        observe(s + 1)
    if target is None:
        return saved
    weights = np.full(n_steps + 1, dt)
    weights[[0, -1]] = 0.5 * dt
    return eta.grid.dx * (gaps * weights).sum(axis=1)
