"""Reference computations shared by the tests.

The library evaluates the kernel through tabulated primitives and the
doubling functional through the closed Xi reduction; most oracles here
go back to the definitions with adaptive quadrature instead (slow, small
grids only).  kernel_cdf reads the kernel CDF from the tables, and
coarsen aggregates a noise path onto a coarser time grid.
"""

import math

import numpy as np
from scipy.integrate import dblquad

from sclaw.models import NoisePath
from sclaw.mollifier import bump_norm, kernel_tables


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
