"""Compactly supported smoothing kernels and their integral tables.

Both regularization directions use the same normalized bump

    psi(w) = exp(-1/(1 - w^2)) / Z   on |w| < 1,   Z ~= 0.4439938162,

scaled to width gamma in space (wrapped on the torus) and width delta in
the state variable.  The doubling functional and its certificates need
the primitives

    X(r)  = int_{-inf}^{r} psi(s) ds          (the kernel CDF)
    Xi(r) = int_{-inf}^{r} X(s) ds            (second antiderivative)

One stack of moment primitives P_k(r) = int_{-1}^{r} s^k psi(s) ds,
k = 0..kmax, is tabulated once on 4096 uniform knots by per-interval
Gauss quadrature and stored as the per-interval coefficients of a cubic
spline through each.  A read at a point of the band |r| < 1 finds its
interval by direct index on the uniform knots and sums that cubic
exactly as CubicSpline does; a point off the band takes P_k(-1) or
P_k(1), read the same way once.
X = P_0, and Xi follows from the exact integration-by-parts identity
Xi(r) = r*X(r) - P_1(r), so Xi(1) = 1 and Xi(r) = r for r >= 1 with no
drift.  The higher moments carry the transport wedges in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

TABLE_POINTS = 4096
# P_0..P_2: X, Xi and the transport wedges of a speed of degree <= 1
BASE_MOMENTS = 2
# 5-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def bump_raw(w):
    """Unnormalized bump exp(-1/(1-w^2)) on |w| < 1, zero outside."""
    w = np.asarray(w, dtype=float)
    inside = np.abs(w) < 1.0
    ws = np.where(inside, w, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.exp(-1.0 / (1.0 - ws * ws))
    return np.where(inside, vals, 0.0)


def bump_norm() -> float:
    """Normalizer Z = int_{-1}^{1} exp(-1/(1-w^2)) dw, the bits of adaptive
    quadrature at 1e-13 absolute and relative tolerance (the tests
    recompute it)."""
    return 0.44399381616807937


def psi(w):
    """Normalized unit-width kernel."""
    return bump_raw(w) / bump_norm()


def psi_sup() -> float:
    """C_psi = sup psi = psi(0) = e^{-1}/Z (< 1, so psi_delta <= 1/delta)."""
    return float(np.exp(-1.0) / bump_norm())


def _gauss_cumulative(f, grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of f from grid[0], 5-point Gauss per interval."""
    lo, hi = grid[:-1], grid[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    pieces = half * (f(nodes) @ _GL_WEIGHTS)
    return np.concatenate([[0.0], np.cumsum(pieces)])


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solve the tridiagonal system (sub-, main, superdiagonal dl, d, du;
    n >= 2 rows; float lists, overwritten) for one right-hand side b.

    LAPACK dgtsv, the routine scipy.linalg.solve_banded calls for (1, 1),
    ported operation for operation: its bits on any LAPACK build.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):     # no interchange
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:                           # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:               # dl[i] becomes the second superdiagonal
                dl[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    b[-1] = b[-1] / d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _spline_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-interval power-form coefficients of the not-a-knot cubic spline
    through (x, y), at least 4 knots.

    The knot slopes solve CubicSpline's tridiagonal system, set up the
    same way and solved by the port of the LAPACK routine its banded
    solve calls, and the coefficients are formed as CubicHermiteSpline
    forms them, so they equal CubicSpline(x, y).c bit for bit.
    """
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    lower, diag, upper = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    rhs = np.empty(n)
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]                     # not-a-knot at the left end
    diag[0] = dx[1]
    upper[0] = d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]                   # and at the right end
    diag[-1] = dx[-2]
    lower[-1] = d
    rhs[-1] = (dx[-1] ** 2 * slope[-2]
               + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = np.array(_gtsv(lower.tolist(), diag.tolist(), upper.tolist(),
                       rhs.tolist()))
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


@dataclass(frozen=True)
class KernelTables:
    """Cubic tables of the moment primitives P_k(r) = int_{-1}^{r} s^k psi(s) ds.

    coeffs[k] holds the per-interval power-form coefficients of the
    not-a-knot cubic spline through P_k on the uniform knots.
    """

    knots: np.ndarray
    coeffs: np.ndarray = field(repr=False)  # (kmax + 1, 4, len(knots) - 1)

    @classmethod
    def build(cls, kmax: int) -> "KernelTables":
        knots = np.linspace(-1.0, 1.0, TABLE_POINTS)
        coeffs = [_spline_coeffs(knots, _gauss_cumulative(
            lambda s, k=k: s ** k * psi(s), knots)) for k in range(kmax + 1)]
        return cls(knots, np.stack(coeffs))

    def primitives(self, rc, kmax: int) -> np.ndarray:
        """P_0(rc), ..., P_kmax(rc) for rc already clipped to [-1, 1], as
        the kmax + 1 rows of a new array."""
        out = np.empty((kmax + 1,) + np.shape(rc))
        reader = PrimitiveReader(self, np.size(rc))
        reader.locate(rc)
        for k, row in enumerate(out.reshape(kmax + 1, -1)):
            reader.moment(k, row)
        return out

    @cached_property
    def right_ends(self) -> np.ndarray:
        """P_k(1) for every tabulated k, read once."""
        return self.primitives(np.ones(1), len(self.coeffs) - 1)[:, 0]

    def Xi(self, r):
        """Second antiderivative of psi: 0 for r <= -1, r for r >= 1."""
        r = np.asarray(r, dtype=float)
        rc = np.clip(r, -1.0, 1.0)
        p0, p1 = self.primitives(rc, 1)
        core = np.maximum(rc * p0 - p1, 0.0)
        return np.where(r <= -1.0, 0.0, np.where(r >= 1.0, r, core))


class PrimitiveReader:
    """Reads the moment primitives at up to size points per locate, in
    arrays allocated once.

    locate(r) finds the points of the band |r| < 1 and the interval of
    each; moment(k, out) then sums P_k's cubic at each band point in the
    order CubicSpline uses, so every value equals CubicSpline's bit for
    bit.  Only band points read the tables: every other point takes
    P_k(-1) or P_k(1), read the same way once per moment.

    rows float arrays of size points are the caller's, as self.rows; they
    share one allocation with the reader's own floats.
    """

    def __init__(self, tables: KernelTables, size: int, rows: int = 0):
        self.tables = tables
        self.lo, self.hi, self.band = np.empty((3, size), dtype=bool)
        # the band points, then -1 and 1, with their intervals
        block = np.empty((4 + rows, size + 2))
        self.t, self.acc, self.g, self.h = block[:4]
        self.rows = block[4:, :size]
        self.i = np.empty(size + 2, dtype=np.intp)
        self.below, self.inside = np.empty((2, size + 2), dtype=bool)
        self.n = self.nb = 0

    def locate(self, r) -> None:
        """Take the points of r (clipped to [-1, 1], at most size of
        them) for the following moment calls."""
        r = np.ravel(r)
        n = self.n = r.size
        lo, hi, band = self.lo[:n], self.hi[:n], self.band[:n]
        np.less_equal(r, -1.0, out=lo)
        np.greater_equal(r, 1.0, out=hi)
        np.logical_not(np.logical_or(lo, hi, out=band), out=band)
        # gather the band points into t: each takes its rank among them,
        # every other point the slot nb, which then holds -1 and the next
        # 1.  The ranks live in i until the intervals replace them
        rank = self.i[:n]
        np.copyto(rank, band)
        np.cumsum(rank, out=rank)
        nb = self.nb = int(rank[-1]) if n else 0
        rank -= 1
        np.copyto(rank, nb, where=lo)
        np.copyto(rank, nb, where=hi)
        np.put(self.t, rank, r, mode="clip")
        self.t[nb:nb + 2] = -1.0, 1.0
        # the interval from the uniform spacing, corrected once each way
        # against the knots
        t, g, i = self.t[:nb + 2], self.g[:nb + 2], self.i[:nb + 2]
        below, inside = self.below[:nb + 2], self.inside[:nb + 2]
        knots = self.tables.knots
        last = len(knots) - 2
        np.add(t, 1.0, out=g)
        g *= last + 1
        g /= 2.0
        np.copyto(i, g, casting="unsafe")
        np.minimum(i, last, out=i)
        np.less(t, np.take(knots, i, out=g, mode="clip"), out=below)
        np.subtract(i, 1, out=i, where=below)
        np.greater_equal(t, np.take(knots[1:], i, out=g, mode="clip"),
                         out=below)
        np.logical_and(below, np.less(i, last, out=inside), out=below)
        np.add(i, 1, out=i, where=below)
        t -= np.take(knots, i, out=g, mode="clip")

    def moment(self, k: int, out: np.ndarray) -> np.ndarray:
        """P_k at the located points, into out (C-contiguous, one entry
        per point)."""
        nb = self.nb
        t, acc, g, h = (w[:nb + 2] for w in (self.t, self.acc, self.g,
                                             self.h))
        i = self.i[:nb + 2]
        c = self.tables.coeffs[k]
        np.take(c[3], i, out=acc, mode="clip")
        acc += np.multiply(np.take(c[2], i, out=g, mode="clip"), t, out=g)
        np.multiply(t, t, out=h)
        acc += np.multiply(np.take(c[1], i, out=g, mode="clip"), h, out=g)
        h *= t
        acc += np.multiply(np.take(c[0], i, out=g, mode="clip"), h, out=g)
        row = out.reshape(self.n)
        np.place(row, self.band[:self.n], acc[:nb])
        np.copyto(row, acc[nb], where=self.lo[:self.n])
        np.copyto(row, acc[nb + 1], where=self.hi[:self.n])
        return out


def kernel_tables(kmax: int = BASE_MOMENTS) -> KernelTables:
    """Shared immutable tables holding at least P_0..P_kmax (safe to use
    from worker threads)."""
    return _shared_tables(max(kmax, BASE_MOMENTS))


@lru_cache(maxsize=None)
def _shared_tables(kmax: int) -> KernelTables:
    return KernelTables.build(kmax=kmax)


@dataclass(frozen=True)
class MollifierPair:
    """Widths (gamma, delta) of the space/state regularization pair.

    gamma must leave room on both sides of the torus (gamma < 1/2) and
    delta must be positive.  All kernel evaluations are exact formulas;
    only Xi and the moment primitives go through the shared tables.
    """

    gamma: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5:
            raise ValueError(f"gamma must lie in (0, 1/2), got {self.gamma}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    # -- space kernel -------------------------------------------------------

    def rho(self, z):
        """Spatial kernel rho_gamma(z) = psi(z/gamma)/gamma for |z| < gamma."""
        return psi(np.asarray(z, dtype=float) / self.gamma) / self.gamma

    def rho_grad(self, z):
        """Analytic derivative of rho_gamma."""
        z = np.asarray(z, dtype=float)
        s = z / self.gamma
        inside = np.abs(s) < 1.0
        ss = np.where(inside, s, 0.0)
        one = 1.0 - ss * ss
        with np.errstate(divide="ignore", over="ignore"):
            val = np.exp(-1.0 / one) * (-2.0 * ss) / (one * one)
        out = np.where(inside, val, 0.0)
        return out / (bump_norm() * self.gamma * self.gamma)

    # -- state kernel -------------------------------------------------------

    def psi_delta(self, w):
        """State kernel psi_delta(w) = psi(w/delta)/delta."""
        return psi(np.asarray(w, dtype=float) / self.delta) / self.delta

    # -- discrete offsets on a grid -----------------------------------------

    def support_offsets(self, grid) -> np.ndarray:
        """Integer cell offsets d with periodic displacement |d*dx| < gamma."""
        if self.gamma < grid.dx:
            raise ValueError(
                f"gamma={self.gamma} is below the grid resolution dx={grid.dx}")
        dmax = int(np.ceil(self.gamma * grid.cells)) - 1
        return np.arange(-dmax, dmax + 1)

    def spatial_weights(self, grid) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, weights) for the discrete kernel sum.

        Midpoint weights rho_gamma(d*dx)*dx rescaled to unit total, so
        the discrete kernel carries mass exactly 1 and every continuum
        certificate that integrates rho to 1 transfers to the grid
        verbatim.
        """
        offs = self.support_offsets(grid)
        z = offs * grid.dx
        w = self.rho(z) * grid.dx
        total = w.sum()
        if total <= 0:
            raise ValueError("empty kernel support on this grid")
        return offs, w / total

    def gradient_weights(self, grid) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, rho_gamma'(d*dx)*dx), signed, not normalized."""
        offs = self.support_offsets(grid)
        z = offs * grid.dx
        return offs, self.rho_grad(z) * grid.dx
