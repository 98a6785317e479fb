"""Kinetic-formulation diagnostics and pathwise certificate checks.

Everything here works with the level-set (kinetic) picture of a pair of
fields u, v: the indicator f(x, xi) = 1_{u(x) > xi}, its conjugate
1 - f, and smoothed products against the mollifier pair.  The central
object is the doubling functional

    R(u, v) = sum_{x,y} rho_gamma(x - y) * delta * [ Xi((u(x)-v(y))/delta)
                                                   + Xi((v(y)-u(x))/delta) ] dx dy

which is the exact xi,zeta-integral of the smoothed kinetic products:
for the wedge {xi < a, zeta >= b},

    int int psi_delta(xi - zeta) dxi dzeta = delta * Xi((a - b)/delta),

and symmetrically for the opposite wedge.  The tests check this against
a brute-force adaptive 2-D quadrature of the same wedges.

Discrete kernel sums use the unit-mass spatial weights of the
MollifierPair, so the continuum inequalities for the error term and the
J-type certificates transfer to the grid exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, Trajectory
from .mollifier import (MollifierPair, PrimitiveReader, kernel_tables,
                        psi_sup)
from .models import FluxModel, NoiseModel, horner
from .solvers import lp_moment

Pair = tuple[Trajectory, Trajectory]

# snapshots per tile of the transport wedges.  Each work array of a call
# holds one (snapshots, offsets, cells) tile, 96 KB on the shipped grid,
# and is allocated once per call, the float ones in one block.  Fresh
# tile-sized temporaries per operation took about 4 200 minor faults per
# pair on the benchmark's grid, and three float blocks per call about
# 190 on every call; one block takes about 210 on the first call, 130
# to 210 on the second and none after them, once glibc has raised its
# mmap and trim thresholds past the block it freed.  Tiles of 32 snapshots measured
# no faster per snapshot, and raised doubling's peak RSS by 1 MB.
TRANSPORT_TILE = 16


# ---------------------------------------------------------------------------
# state-variable quadratures


def _xi_grid(lo: float, hi: float, dxi: float) -> np.ndarray:
    n = int(np.ceil((hi - lo) / dxi))
    return lo + (np.arange(n) + 0.5) * dxi


def bracket_identity(u: ScalarField, v: ScalarField,
                     dxi: float) -> tuple[float, float]:
    """Midpoint xi-quadrature of the two kinetic products.

    Returns (plus, minus) approximating the integrals of
    1_{u > xi} * 1_{v <= xi} and 1_{v > xi} * 1_{u <= xi} over x and xi,
    which collapse to int (u - v)^+ dx and int (u - v)^- dx.  The xi
    grid covers both field ranges with a unit margin.
    """
    if dxi <= 0:
        raise ValueError("dxi must be positive")
    if u.grid.cells != v.grid.cells:
        raise ValueError("fields must share a grid")
    lo = min(u.values.min(), v.values.min()) - 1.0
    hi = max(u.values.max(), v.values.max()) + 1.0
    xi = _xi_grid(lo, hi, dxi)
    dx = u.grid.dx
    # number of midpoints strictly below a value, exact on the sorted grid
    below_u = np.searchsorted(xi, u.values)
    below_v = np.searchsorted(xi, v.values)
    plus = dx * dxi * np.maximum(below_u - below_v, 0).sum()
    minus = dx * dxi * np.maximum(below_v - below_u, 0).sum()
    return float(plus), float(minus)


def direct_brackets(u: ScalarField, v: ScalarField) -> tuple[float, float]:
    """Exact right-hand sides int (u-v)^+ dx and int (u-v)^- dx."""
    d = u.values - v.values
    dx = u.grid.dx
    return (float(dx * np.sum(np.maximum(d, 0.0))),
            float(dx * np.sum(np.maximum(-d, 0.0))))


# ---------------------------------------------------------------------------
# doubling functional


def doubling_functional(u: ScalarField, v: ScalarField,
                        moll: MollifierPair) -> float:
    """Kernel-smoothed kinetic overlap of two fields (see module docstring),
    by the exact Xi reduction through the kernel tables."""
    if u.grid.cells != v.grid.cells:
        raise ValueError("fields must share a grid")
    offs, w = moll.spatial_weights(u.grid)
    tab = kernel_tables()
    delta = moll.delta
    total = 0.0
    for d, wd in zip(offs, w):
        diff = (u.values - np.roll(v.values, d)) / delta
        total += wd * float(np.sum(tab.Xi(diff) + tab.Xi(-diff)))
    return float(total * delta * u.grid.dx)


def error_term(u: ScalarField, v: ScalarField, moll: MollifierPair) -> float:
    """Defect of the doubling functional against the exact L1 bracket:

        E = R(u, v) - int (u - v)^+ dx - int (u - v)^- dx.

    |E| <= 4*delta + 2*omega_v(gamma) with omega the grid shift modulus;
    the smoothing-in-state part contributes at most 4*delta and the
    kernel off-diagonal at most twice the modulus.
    """
    plus, minus = direct_brackets(u, v)
    return doubling_functional(u, v, moll) - plus - minus


def smoothing_defect(u: ScalarField, v: ScalarField, moll: MollifierPair) -> float:
    """The state-smoothing part of the error term alone:

        H2 = R(u, v) - sum_{x,y} rho_gamma(x - y) |u(x) - v(y)| dx dy,

    bounded by 4*delta pointwise under the unit-mass discrete kernel.
    """
    offs, w = moll.spatial_weights(u.grid)
    dx = u.grid.dx
    diag = 0.0
    for d, wd in zip(offs, w):
        diag += wd * float(np.abs(u.values - np.roll(v.values, d)).sum())
    return doubling_functional(u, v, moll) - diag * dx


# ---------------------------------------------------------------------------
# pathwise certificates


@dataclass(frozen=True)
class BoundReport:
    """One certificate instance: lhs <= rhs with its run context."""

    name: str
    lhs: float
    rhs: float
    epsilon: float
    gamma: float
    delta: float
    path_index: int = 0

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs

    def csv_row(self) -> str:
        cols = [self.name, str(self.path_index), repr(self.epsilon),
                repr(self.gamma), repr(self.delta), repr(self.lhs),
                repr(self.rhs), str(self.passed).lower()]
        return ",".join(cols)


BOUND_CSV_HEADER = "name,path,epsilon,gamma,delta,lhs,rhs,pass"


def bound_csv_lines(reports: list[BoundReport]) -> list[str]:
    return [BOUND_CSV_HEADER] + [r.csv_row() for r in reports]


def _pair_arrays(pair: Pair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    u, v = pair
    if u.grid.cells != v.grid.cells or not np.array_equal(u.times, v.times):
        raise ValueError("coupled pair must share grid and time grid")
    return u.values, v.values, u.times


def bound_check_J(pair: Pair, moll: MollifierPair, epsilon: float,
                  noise: NoiseModel, path_index: int
                  ) -> tuple[BoundReport, BoundReport]:
    """Evaluate both smoothing-cost certificates along a coupled pair.

    With D1 the aggregate noise Lipschitz constant, w the unit-mass
    kernel weights over offsets z and psi_d the state kernel,

        J1 = eps*D1 * int_t sum_z w(z) z^2 sum_x psi_d(u - v_z) dx
           <= eps*D1 * gamma^2 / delta
        J2 = eps*D1 * int_t sum_z w(z) sum_x psi_d(u - v_z) (u - v_z)^2
                      1_{|u - v_z| <= delta} dx
           <= eps*D1 * delta * C_psi

    Time integrals are left-endpoint sums over the saved snapshots.
    """
    uvals, vvals, times = _pair_arrays(pair)
    grid = pair[0].grid
    offs, w = moll.spatial_weights(grid)
    z = offs * grid.dx
    delta = moll.delta
    d1 = noise.D1
    wts = np.diff(times)
    j1_t = np.zeros(len(times) - 1)
    j2_t = np.zeros(len(times) - 1)
    u = uvals[:-1]
    for d, wd, zd in zip(offs, w, z):
        diff = u - np.roll(vvals[:-1], d, axis=1)
        psi_vals = moll.psi_delta(diff)
        j1_t += wd * zd * zd * psi_vals.sum(axis=1)
        inside = np.abs(diff) <= delta
        j2_t += wd * np.sum(psi_vals * diff * diff * inside, axis=1)
    dx = grid.dx
    j1 = epsilon * d1 * float(np.dot(wts, j1_t)) * dx
    j2 = epsilon * d1 * float(np.dot(wts, j2_t)) * dx
    r1 = BoundReport("J1", j1, epsilon * d1 * moll.gamma ** 2 / delta,
                     epsilon, moll.gamma, delta, path_index)
    r2 = BoundReport("J2", j2, epsilon * d1 * delta * psi_sup(),
                     epsilon, moll.gamma, delta, path_index)
    return r1, r2


class _WedgeWork:
    """The arrays of a transport tile of up to size points, allocated
    once: the gathered b, _wedges' r, running lead and band sums, p_j and
    term of each moment, and a reader of the kernel primitives, whose
    one float block they share (see TRANSPORT_TILE)."""

    def __init__(self, flux: FluxModel, size: int):
        self.reader = PrimitiveReader(kernel_tables(len(flux.speed_coeffs)),
                                      size, rows=6)
        self.b, self.r, self.lead, self.band, self.p, self.term = \
            self.reader.rows


def _wedges(a, b, flux: FluxModel, delta: float,
            work: _WedgeWork) -> np.ndarray:
    """W+(a,b) + W-(a,b): the speed-weighted kinetic wedges

        W+(a,b) = int_{xi < a} a(xi) X_delta(xi - b) dxi
        W-(a,b) = int_{xi >= a} a(xi) (1 - X_delta(xi - b)) dxi

    in closed form.  Off the band (b - delta, b + delta) the integrands
    are the plain speed, above it in W+ and below it in W-, and give
    exact flux differences A(.) - A(.).  On the band, xi = b + delta*s
    turns the speed into a(b + delta*s) = sum_j p_j(b) s^j with
    p_j = delta^j a^(j)(b) / j!, and with r = clip((a - b)/delta, -1, 1)
    the two banded parts add up to

        delta * sum_j p_j(b) * [2 M_j(r) - M_j(1) + (1 - r^(j+1))/(j+1)]
      = delta * sum_j p_j(b) * [r^(j+1) (2 X(r) - 1) - 2 P_(j+1)(r)
                                + P_(j+1)(1)] / (j+1),

    since M_j(r) = int_{-1}^{r} s^j X(s) ds = (r^(j+1) X(r) - P_(j+1)(r))/(j+1)
    by parts, with P_k the tabulated moment primitives of psi.

    a broadcasts against b.  Every array shaped like b lives in work, a
    _WedgeWork of at least b.size points, and the result is its band sum.
    """
    q = flux.speed_coeffs
    kmax = len(q)
    r, lead, band, p_j, term = (w[:b.size].reshape(b.shape) for w in (
        work.r, work.lead, work.band, work.p, work.term))
    np.clip(np.divide(np.subtract(a, b, out=r), delta, out=r), -1.0, 1.0,
            out=r)
    reader = work.reader
    reader.locate(r)
    ends = kernel_tables(kmax).right_ends
    # r^(j+1) (2 X(r) - 1), at j = 0
    reader.moment(0, p_j)
    np.multiply(np.subtract(np.multiply(2.0, p_j, out=lead), 1.0,
                            out=lead), r, out=lead)
    band.fill(0.0)
    for j in range(kmax):
        np.multiply(delta ** j, horner(b, q, p_j), out=p_j)
        reader.moment(j + 1, term)
        np.subtract(lead, np.multiply(2.0, term, out=term), out=term)
        term += ends[j + 1]
        term /= j + 1
        band += np.multiply(p_j, term, out=term)
        # polyder(q) / (j + 1), operation for operation
        q = [(m + 1) * c / (j + 1) for m, c in enumerate(q[1:])]
        lead *= r
    # the flat tails, (A(max(a, hi)) - A(hi)) + (A(lo) - A(min(a, lo))),
    # in the arrays the band sum is done with
    hi_lo, tails, w0, w1 = lead, p_j, r, term
    np.add(b, delta, out=hi_lo)
    flux.A(np.maximum(a, hi_lo, out=w0), out=tails)
    tails -= flux.A(hi_lo, out=w0)
    np.subtract(b, delta, out=hi_lo)
    flux.A(hi_lo, out=w1)
    w1 -= flux.A(np.minimum(a, hi_lo, out=w0), out=hi_lo)
    tails += w1
    band *= delta
    band += tails
    return band


def transport_term(pair: Pair, moll: MollifierPair, epsilon: float,
                   flux: FluxModel) -> float:
    """Signed transport contribution along the pair:

        I = eps * int_t sum_z rho_gamma'(z) dx sum_x [W+ + W-](u(x), v(x-z)) dx

    Each wedge sum is exact for the polynomial speed: with b = v(x - z),
    r = clip((u(x) - b)/delta, -1, 1) and p_j = delta^j a^(j)(b)/j!,

        [W+ + W-](u(x), b) = delta * sum_j p_j [r^(j+1) (2 X(r) - 1)
                                 - 2 P_(j+1)(r) + P_(j+1)(1)] / (j+1)
                             + the flux differences of the flat tails,

    P_k the tabulated kernel moment primitives (derived at _wedges).
    Every offset with a nonzero gradient weight is evaluated in one call
    per tile of TRANSPORT_TILE snapshots, in work arrays allocated once
    per call.
    """
    uvals, vvals, times = _pair_arrays(pair)
    grid = pair[0].grid
    offs, gw = moll.gradient_weights(grid)
    keep = gw != 0.0
    # cell indices of v(x - z) for each kept offset z: (offsets, cells)
    shifted = (np.arange(grid.cells) - offs[keep][:, None]) % grid.cells
    u, v = uvals[:-1], vvals[:-1]
    per_t = np.empty((len(u), len(shifted)))
    tile = min(TRANSPORT_TILE, len(u)) * shifted.size
    work = _WedgeWork(flux, tile)
    for lo in range(0, len(u), TRANSPORT_TILE):
        hi = lo + TRANSPORT_TILE
        # (snapshots, offsets, cells) wedges; each sum runs over its own
        # contiguous cells, so the bits do not depend on the tile
        b = work.b[:len(u[lo:hi]) * shifted.size].reshape(
            (len(u[lo:hi]),) + shifted.shape)
        np.take(v[lo:hi], shifted, axis=1, out=b, mode="wrap")
        per_t[lo:hi] = _wedges(u[lo:hi, None, :], b, flux, moll.delta,
                               work).sum(axis=2)
    total_t = np.zeros(len(times) - 1)
    for gwd, col in zip(gw[keep], per_t.T):
        total_t += gwd * col
    return epsilon * float(np.dot(np.diff(times), total_t)) * grid.dx


def transport_constants(q0: float, delta: float) -> tuple[float, float]:
    """(Cq, 1 + delta^(q0+1)) of bound_check_I, Cq = max(1, 2^q0); a
    power that overflows raises ValueError naming growth_power or delta."""
    try:
        cq = max(1.0, 2.0 ** q0)
    except OverflowError:
        raise ValueError(f"growth_power {q0!r} overflows 2^q0") from None
    try:
        return cq, 1.0 + delta ** (q0 + 1.0)
    except OverflowError:
        raise ValueError(f"delta {delta!r} overflows delta^(q0+1)") from None


def bound_check_I(pair: Pair, moll: MollifierPair, epsilon: float,
                  flux: FluxModel, path_index: int) -> BoundReport:
    """Certificate for the transport term via the growth envelope of a:

        |I| <= (2 eps N Cq / gamma) * (1 + delta^(q0+1))
             + (2 eps N Cq / gamma) * (max_t ||u||_{q0+1}^{q0+1}
                                       + max_t ||v||_{q0+1}^{q0+1})

    with Cq = max(1, 2^q0).
    """
    lhs = abs(transport_term(pair, moll, epsilon, flux))
    q0 = flux.growth_power
    cq, lift = transport_constants(q0, moll.delta)
    lead = 2.0 * epsilon * flux.growth_const * cq / moll.gamma
    mom_u = lp_moment(pair[0], q0 + 1.0)
    mom_v = lp_moment(pair[1], q0 + 1.0)
    rhs = lead * lift + lead * (mom_u + mom_v)
    return BoundReport("I", lhs, rhs, epsilon, moll.gamma, moll.delta,
                       path_index)
