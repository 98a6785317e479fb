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

from .grid import ScalarField
from .mollifier import (MollifierPair, PrimitiveReader, kernel_tables,
                        psi_sup)
from .models import (FLUX_LATTICE_RADIUS, FluxModel, NoiseModel, SimConfig,
                     horner)
from .solvers import record_coupled_pairs, recorded_times

# snapshots per tile that the sweep of a doubling pair block hands its
# certificates, and per tile of the transport wedges.  Each wedge work
# array holds one (snapshots, offsets, cells) tile, 96 KB on the shipped
# grid, and is allocated once per pair block, the float ones in one
# block.  Fresh tile-sized temporaries per operation took about 4 200
# minor faults per pair on the benchmark's grid.  certify_pairs on the
# benchmark's 6 pairs, one block, takes 74 faults on its first call and
# none after, once glibc has raised its mmap and trim thresholds past the
# block it freed.  Tiles of 32 snapshots measured no faster per snapshot,
# and raised doubling's peak RSS by 1 MB.
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
    """One certificate instance: lhs <= rhs with its run context.  It
    passes only when the pair's states stayed in the range that the
    bound's constants were derived for (in_range)."""

    name: str
    lhs: float
    rhs: float
    epsilon: float
    gamma: float
    delta: float
    path_index: int
    in_range: bool

    @property
    def passed(self) -> bool:
        return self.in_range and self.lhs <= self.rhs


# Each certificate reduces per snapshot first, over its own contiguous
# cells, and only then over time.  certify_pairs reduces each tile that
# the sweep hands it with the per-snapshot kernels below, and runs the
# time sums once at the end over the per-snapshot arrays; so a pair's
# reports do not depend on the tile width or on the block it runs in.


def _smoothing_rows(u: np.ndarray, v: np.ndarray, moll: MollifierPair,
                    grid) -> tuple[np.ndarray, np.ndarray]:
    """Per-snapshot kernel sums (j1_t, j2_t) of J1 and J2 for snapshots
    u, v (..., cells), shaped like u without its cells axis."""
    offs, w = moll.spatial_weights(grid)
    z = offs * grid.dx
    delta = moll.delta
    j1_t = np.zeros(u.shape[:-1])
    j2_t = np.zeros(u.shape[:-1])
    for d, wd, zd in zip(offs, w, z):
        diff = u - np.roll(v, d, axis=-1)
        psi_vals = moll.psi_delta(diff)
        j1_t += wd * zd * zd * psi_vals.sum(axis=-1)
        inside = np.abs(diff) <= delta
        # psi_vals * diff * diff * inside, in place
        psi_vals *= diff
        psi_vals *= diff
        psi_vals *= inside
        j2_t += wd * np.sum(psi_vals, axis=-1)
    return j1_t, j2_t


def _smoothing_reports(j1_t: np.ndarray, j2_t: np.ndarray,
                       times: np.ndarray, moll: MollifierPair,
                       epsilon: float, noise: NoiseModel, dx: float,
                       path_index: int,
                       peak: float) -> tuple[BoundReport, BoundReport]:
    """J1 and J2 from a pair's per-snapshot sums j1_t, j2_t and its
    largest |u| and |v|, peak: D1 holds for |u| <= state_bound only.

    With D1 the aggregate noise Lipschitz constant, w the unit-mass
    kernel weights over offsets z and psi_d the state kernel,

        J1 = eps*D1 * int_t sum_z w(z) z^2 sum_x psi_d(u - v_z) dx
           <= eps*D1 * gamma^2 / delta
        J2 = eps*D1 * int_t sum_z w(z) sum_x psi_d(u - v_z) (u - v_z)^2
                      1_{|u - v_z| <= delta} dx
           <= eps*D1 * delta * C_psi

    Time integrals are left-endpoint sums over the snapshots at times,
    all but the last.
    """
    delta = moll.delta
    d1 = noise.D1
    wts = np.diff(times)
    j1 = epsilon * d1 * float(np.dot(wts, j1_t)) * dx
    j2 = epsilon * d1 * float(np.dot(wts, j2_t)) * dx
    held = peak <= noise.state_bound
    r1 = BoundReport("J1", j1, epsilon * d1 * moll.gamma ** 2 / delta,
                     epsilon, moll.gamma, delta, path_index, held)
    r2 = BoundReport("J2", j2, epsilon * d1 * delta * psi_sup(),
                     epsilon, moll.gamma, delta, path_index, held)
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


def _transport_offsets(moll: MollifierPair, grid) -> tuple[np.ndarray,
                                                            np.ndarray]:
    """The nonzero gradient weights, and the cell indices of v(x - z) for
    each of their offsets z: (offsets, cells)."""
    offs, gw = moll.gradient_weights(grid)
    keep = gw != 0.0
    return gw[keep], (np.arange(grid.cells) - offs[keep][:, None]) % grid.cells


def _wedge_sums(u: np.ndarray, v: np.ndarray, shifted: np.ndarray,
                flux: FluxModel, delta: float, work: _WedgeWork,
                out: np.ndarray) -> None:
    """Wedge sums over the cells of one tile of snapshots u, v (snapshots,
    cells), one column per offset of shifted, into out (snapshots,
    offsets); one _wedges call, in work."""
    # (snapshots, offsets, cells) wedges; each sum runs over its own
    # contiguous cells, so the bits do not depend on the tile
    b = work.b[:len(u) * shifted.size].reshape((len(u),) + shifted.shape)
    np.take(v, shifted, axis=1, out=b, mode="wrap")
    out[:] = _wedges(u[:, None, :], b, flux, delta, work).sum(axis=2)


def _transport_rows(per_t: np.ndarray, gw: np.ndarray) -> np.ndarray:
    """Per-snapshot transport sums from the wedge sums per_t (..., offsets):
    the gradient weights gw times their columns, added in offset order."""
    total_t = np.zeros(per_t.shape[:-1])
    for gwd, col in zip(gw, np.moveaxis(per_t, -1, 0)):
        total_t += gwd * col
    return total_t


def transport_constants(q0: float, delta: float) -> tuple[float, float]:
    """(Cq, 1 + delta^(q0+1)) of the I bound, Cq = max(1, 2^q0); a power
    that overflows raises ValueError naming growth_power or delta."""
    try:
        cq = max(1.0, 2.0 ** q0)
    except OverflowError:
        raise ValueError(f"growth_power {q0!r} overflows 2^q0") from None
    try:
        return cq, 1.0 + delta ** (q0 + 1.0)
    except OverflowError:
        raise ValueError(f"delta {delta!r} overflows delta^(q0+1)") from None


def _transport_report(total_t: np.ndarray, times: np.ndarray,
                      mom_u: float, mom_v: float, moll: MollifierPair,
                      epsilon: float, flux: FluxModel, dx: float,
                      path_index: int, peak: float) -> BoundReport:
    """I from a pair's per-snapshot transport sums total_t, whose
    left-endpoint time sum over the snapshots at times, all but the
    last, is the signed transport term

        I = eps * int_t sum_z rho_gamma'(z) dx sum_x [W+ + W-](u(x), v(x-z)) dx

    (the wedges at _wedges), and from the maxima over every step of the
    q0 + 1 moment norms of u and v.  The bound rests on the growth
    envelope of a:

        |I| <= (2 eps N Cq / gamma) * (1 + delta^(q0+1))
             + (2 eps N Cq / gamma) * (max_t ||u||_{q0+1}^{q0+1}
                                       + max_t ||v||_{q0+1}^{q0+1})

    with Cq = max(1, 2^q0).  The envelope is checked on validate_flux's
    lattice only, so the pair's largest |u| and |v|, peak, widened by
    delta, must stay within FLUX_LATTICE_RADIUS.
    """
    term = epsilon * float(np.dot(np.diff(times), total_t)) * dx
    cq, lift = transport_constants(flux.growth_power, moll.delta)
    lead = 2.0 * epsilon * flux.growth_const * cq / moll.gamma
    rhs = lead * lift + lead * (mom_u + mom_v)
    return BoundReport("I", abs(term), rhs, epsilon, moll.gamma, moll.delta,
                       path_index, peak + moll.delta <= FLUX_LATTICE_RADIUS)


# ---------------------------------------------------------------------------
# certificates evaluated while the sweep runs


def certify_pairs(eta: ScalarField, cfg: SimConfig, flux: FluxModel,
                  noise: NoiseModel, moll: MollifierPair, path_indices
                  ) -> tuple[list[BoundReport], tuple[ScalarField,
                                                      ScalarField]]:
    """J1, J2 (see _smoothing_reports) and I (see _transport_report) of
    the coupled pair of each path index of a block, and the final states
    of its first pair.

    The sweep hands over one tile of TRANSPORT_TILE snapshots of the
    block at a time, and the tile is reduced at once to the per-snapshot
    sums of J1, J2 and the transport term; so the pairs' snapshots are
    never held whole.  The q0 + 1 moment norms of both members and each
    pair's largest |u| and |v| are the sweep's own observers, which read
    every step, not only the recorded ones.
    """
    grid, dx, epsilon = eta.grid, eta.grid.dx, cfg.epsilon
    times = recorded_times(eta, cfg, flux)
    n = len(times) - 1
    gw, shifted = _transport_offsets(moll, grid)
    j1, j2, transport = np.empty((3, len(path_indices), n))
    tile = min(TRANSPORT_TILE, n)
    work = _WedgeWork(flux, tile * shifted.size)
    per_t = np.empty((len(path_indices), tile, len(shifted)))
    last = []

    def consume(buf, first):
        last[:] = buf[0, :, -1]
        # J and I skip the final snapshot, which only closes time
        k = min(buf.shape[2], n - first)
        if not k:
            return
        span = slice(first, first + k)
        u, v = buf[:, 0, :k], buf[:, 1, :k]
        # each row of the block sums only its own cells
        j1[:, span], j2[:, span] = _smoothing_rows(u, v, moll, grid)
        for r in range(len(buf)):
            _wedge_sums(u[r], v[r], shifted, flux, moll.delta, work,
                        per_t[r, :k])
        transport[:, span] = _transport_rows(per_t[:, :k], gw)

    moms = record_coupled_pairs(
        eta, cfg, flux, noise, path_indices,
        [flux.growth_power + 1.0, np.inf], TRANSPORT_TILE, consume).moms
    reports = []
    for r, i in enumerate(path_indices):
        (mom_u, mom_v), peaks = moms[r].tolist()
        peak = max(peaks)
        reports += _smoothing_reports(j1[r], j2[r], times, moll, epsilon,
                                      noise, dx, i, peak)
        reports.append(_transport_report(transport[r], times, mom_u, mom_v,
                                         moll, epsilon, flux, dx, i, peak))
    return reports, tuple(ScalarField(grid, w) for w in last)
