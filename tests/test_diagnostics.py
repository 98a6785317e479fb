import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sclaw import cli, diagnostics
from sclaw.diagnostics import (TRANSPORT_TILE, BoundReport, _smoothing_rows,
                               _transport_offsets, _transport_rows,
                               _wedge_sums, _WedgeWork, _wedges,
                               bracket_identity, certify_pairs,
                               direct_brackets, doubling_functional,
                               error_term,
                               smoothing_defect, transport_constants)
from sclaw.grid import ScalarField, TorusGrid, make_initial
from sclaw.models import (FLUX_LATTICE_RADIUS, NoiseMode, NoiseModel,
                          SimConfig, make_flux)
from sclaw.mollifier import MollifierPair, psi_sup
from sclaw.solvers import solve_coupled_pair

from oracles import (doubling_bruteforce, kernel_cdf, lp_norms, psi_scalar,
                     recorded_runs)

XI_ZERO_REF = 0.16722699885498704


def _rand_field(grid, seed, lo=-1.0, hi=1.0):
    g = np.random.default_rng(seed)
    return ScalarField(grid, g.uniform(lo, hi, grid.cells))


@pytest.fixture(scope="module")
def pair_noise():
    return NoiseModel((
        NoiseMode(sigma=0.4, profile="constant", alpha=0.0, beta=1.0),
        NoiseMode(sigma=0.25, profile="cos", wavenumber=1, alpha=1.0,
                  beta=0.5),
    ))


@pytest.fixture(scope="module")
def sine_run():
    grid = TorusGrid(32)
    eta = make_initial(grid, "sine", mean=0.0, amp=0.5, mode=1)
    cfg = SimConfig(epsilon=0.1, cells=32, seed=11, dt=1.0 / 128,
                    cfl_fraction=0.9)
    return eta, cfg


@pytest.fixture(scope="module")
def certified(sine_run, pair_noise):
    """J1, J2 and I of the Burgers pair of path 0 from sine_run."""
    eta, cfg = sine_run
    return certify_pairs(eta, cfg, make_flux("burgers"), pair_noise,
                         MollifierPair(0.1, 0.1), [0])[0]


# ---------------------------------------------------------------------------
# kinetic brackets


def test_bracket_constant_fields():
    grid = TorusGrid(4)
    u = ScalarField(grid, np.full(4, 1.0))
    v = ScalarField(grid, np.zeros(4))
    plus, minus = bracket_identity(u, v, 1e-3)
    assert plus == pytest.approx(1.0, abs=2e-3)
    assert minus == pytest.approx(0.0, abs=2e-3)


def test_bracket_riemann_half():
    grid = TorusGrid(4)
    u = make_initial(grid, "riemann", left=1.0, right=0.0, x0=0.5)
    v = ScalarField(grid, np.zeros(4))
    plus, _ = bracket_identity(u, v, 1e-3)
    assert plus == pytest.approx(0.5, abs=2e-3)


def test_bracket_matches_direct_on_random_pairs():
    grid = TorusGrid(24)
    for seed in range(5):
        u = _rand_field(grid, seed)
        v = _rand_field(grid, seed + 100)
        plus, minus = bracket_identity(u, v, 1e-3)
        dplus, dminus = direct_brackets(u, v)
        assert abs(plus - dplus) <= 2e-3
        assert abs(minus - dminus) <= 2e-3


def test_bracket_argument_validation():
    grid = TorusGrid(4)
    u = ScalarField(grid, np.zeros(4))
    v = ScalarField(TorusGrid(8), np.zeros(8))
    with pytest.raises(ValueError):
        bracket_identity(u, u, 0.0)
    with pytest.raises(ValueError):
        bracket_identity(u, v, 1e-3)
    plus, minus = bracket_identity(u, u, 1e-3)
    assert plus == 0.0 and minus == 0.0


def test_direct_brackets_hand_values():
    grid = TorusGrid(4)
    u = ScalarField(grid, np.array([1.0, -1.0, 2.0, 0.0]))
    v = ScalarField(grid, np.zeros(4))
    plus, minus = direct_brackets(u, v)
    assert plus == pytest.approx(0.75)
    assert minus == pytest.approx(0.25)
    assert plus - minus == pytest.approx(np.mean(u.values) * 1.0)


# ---------------------------------------------------------------------------
# doubling functional


def test_doubling_equal_constants_closed_form():
    grid = TorusGrid(64)
    c = ScalarField(grid, np.full(64, 0.7))
    moll = MollifierPair(0.1, 0.1)
    val = doubling_functional(c, c, moll)
    assert val == pytest.approx(2 * 0.1 * XI_ZERO_REF, abs=1e-12)


def test_doubling_separated_constants_is_l1_gap():
    grid = TorusGrid(64)
    u = ScalarField(grid, np.full(64, 2.0))
    v = ScalarField(grid, np.zeros(64))
    moll = MollifierPair(0.1, 0.1)
    # fields differ by 20 delta, so the state kernel saturates and the
    # functional collapses to the exact L1 distance
    assert doubling_functional(u, v, moll) == pytest.approx(2.0, abs=1e-12)


def test_doubling_closed_matches_bruteforce():
    grid = TorusGrid(16)
    u = _rand_field(grid, 1)
    v = _rand_field(grid, 2)
    moll = MollifierPair(0.2, 0.15)
    closed = doubling_functional(u, v, moll)
    brute = doubling_bruteforce(u, v, moll)
    assert abs(closed - brute) <= 1e-6


def test_doubling_validation():
    grid = TorusGrid(8)
    u = ScalarField(grid, np.zeros(8))
    moll = MollifierPair(0.25, 0.1)
    with pytest.raises(ValueError):
        doubling_functional(u, ScalarField(TorusGrid(4), np.zeros(4)), moll)


def test_doubling_symmetric():
    grid = TorusGrid(16)
    u = _rand_field(grid, 3)
    v = _rand_field(grid, 4)
    moll = MollifierPair(0.2, 0.1)
    a = doubling_functional(u, v, moll)
    b = doubling_functional(v, u, moll)
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# defects and moduli


def shift_modulus(v: ScalarField, gamma: float) -> float:
    """L1 modulus of continuity over the kernel-resolvable grid shifts:
    max over offsets |d * dx| < gamma of int |v(x - d dx) - v(x)| dx."""
    moll_offsets = int(np.ceil(gamma * v.grid.cells)) - 1
    if moll_offsets < 1:
        return 0.0
    out = 0.0
    for d in range(1, moll_offsets + 1):
        for s in (d, -d):
            out = max(out, float(np.abs(np.roll(v.values, s) - v.values).sum()
                                 * v.grid.dx))
    return out


def test_shift_modulus_basics():
    grid = TorusGrid(32)
    const = ScalarField(grid, np.full(32, 1.4))
    assert shift_modulus(const, 0.2) == 0.0
    sine = ScalarField(grid, np.sin(2 * np.pi * grid.centers))
    narrow = shift_modulus(sine, 2.5 * grid.dx)
    wide = shift_modulus(sine, 8.5 * grid.dx)
    assert 0.0 < narrow <= wide
    one = float(np.abs(np.roll(sine.values, 1) - sine.values).sum() * grid.dx)
    assert narrow >= one - 1e-15
    assert shift_modulus(sine, 0.5 * grid.dx) == 0.0


def test_error_term_certificate_random_pairs():
    grid = TorusGrid(32)
    moll = MollifierPair(0.1, 0.1)
    for seed in range(6):
        u = _rand_field(grid, seed)
        v = _rand_field(grid, seed + 50)
        err = error_term(u, v, moll)
        bound = 4 * moll.delta + 2 * shift_modulus(v, moll.gamma)
        assert abs(err) <= bound


def test_error_term_equal_constants():
    grid = TorusGrid(32)
    c = ScalarField(grid, np.full(32, -0.4))
    moll = MollifierPair(0.1, 0.05)
    assert error_term(c, c, moll) == pytest.approx(2 * 0.05 * XI_ZERO_REF,
                                                   abs=1e-12)


def test_smoothing_defect_bounded_and_vanishing():
    grid = TorusGrid(32)
    moll = MollifierPair(0.1, 0.1)
    for seed in range(6):
        u = _rand_field(grid, seed)
        v = _rand_field(grid, seed + 50)
        assert abs(smoothing_defect(u, v, moll)) <= 4 * moll.delta
    far_u = ScalarField(grid, np.full(32, 2.0))
    far_v = ScalarField(grid, np.zeros(32))
    assert smoothing_defect(far_u, far_v, moll) == pytest.approx(0.0,
                                                                 abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_smoothing_defect_certificate_property(seed):
    grid = TorusGrid(16)
    g = np.random.default_rng(seed)
    u = ScalarField(grid, g.uniform(-3, 3, 16))
    v = ScalarField(grid, g.uniform(-3, 3, 16))
    moll = MollifierPair(0.2, 0.07)
    assert abs(smoothing_defect(u, v, moll)) <= 4 * moll.delta


# ---------------------------------------------------------------------------
# certificate reports


def test_bound_report_pass_logic_and_csv():
    good = BoundReport("J1", 0.5, 1.0, 0.1, 0.1, 0.1, 3, True)
    bad = BoundReport("J1", 2.0, 1.0, 0.1, 0.1, 0.1, 0, True)
    # lhs <= rhs, but the states left the range the bound holds on
    out = BoundReport("J1", 0.5, 1.0, 0.1, 0.1, 0.1, 3, False)
    assert good.passed and not bad.passed and not out.passed
    _, row, out_row = cli._bound_csv([good, out])
    assert row.split(",") == ["J1", "3", "0.1", "0.1", "0.1", "0.5", "1.0",
                              "true"]
    assert out_row == row[:-len("true")] + "false"


def test_write_bound_reports():
    reports = [BoundReport("J1", 0.5, 1.0, 0.1, 0.1, 0.1, 0, True),
               BoundReport("I", 3.0, 2.0, 0.1, 0.1, 0.1, 1, True)]
    lines = cli._bound_csv(reports)
    assert lines[0] == "name,path,epsilon,gamma,delta,lhs,rhs,pass"
    assert len(lines) == 3
    assert lines[2].endswith("false")


def test_smoothing_cost_certificates_hold(sine_run, certified, pair_noise):
    _, cfg = sine_run
    moll = MollifierPair(0.1, 0.1)
    r1, r2, _ = certified
    assert (r1.name, r2.name) == ("J1", "J2")
    assert r1.passed and r2.passed
    assert 0.0 <= r1.lhs and 0.0 <= r2.lhs
    assert r1.rhs == pytest.approx(
        cfg.epsilon * pair_noise.D1 * moll.gamma ** 2 / moll.delta)


def test_transport_certificate_holds(certified):
    rep = certified[2]
    assert rep.passed
    assert rep.name == "I"


def test_transport_rhs_linear_in_epsilon():
    # without noise a constant state stays put, so each member's q0 + 1
    # moment norm is |c|^3 = 0.125 at every snapshot, and with Burgers'
    # N = 1, Cq = 2^2: rhs = lead * (1 + delta^3) + lead * 2 * 0.125,
    # lead = 2 eps N Cq / gamma
    eta = make_initial(TorusGrid(32), "constant", value=-0.5)
    flux, moll = make_flux("burgers"), MollifierPair(0.1, 0.1)
    rhs = []
    for eps in (0.05, 0.10):
        cfg = SimConfig(epsilon=eps, cells=32, seed=11, dt=1.0 / 128,
                        cfl_fraction=0.9)
        rep = certify_pairs(eta, cfg, flux, NoiseModel(()), moll, [0])[0][2]
        lead = 2.0 * eps * 1.0 * 4.0 / 0.1
        assert rep.rhs == lead * (1.0 + 0.1 ** 3.0) + lead * (0.125 + 0.125)
        rhs.append(rep.rhs)
    assert rhs[1] == 2.0 * rhs[0]


def test_transport_constants_and_their_overflow():
    assert transport_constants(-0.5, 0.1) == (1.0, 1.0 + 0.1 ** 0.5)
    assert transport_constants(2.0, 3.0) == (4.0, 28.0)
    # the largest finite 2^q0, and delta^(q0+1) on either side of overflow
    assert transport_constants(1023.0, 1.0) == (2.0 ** 1023, 2.0)
    assert transport_constants(1.0, 1e154) == (2.0, 1e308)
    with pytest.raises(ValueError, match=r"^growth_power 1024\.0 "):
        transport_constants(1024.0, 1.0)
    with pytest.raises(ValueError, match="^growth_power 2000 "):
        transport_constants(2000, 0.1)
    with pytest.raises(ValueError, match=r"^delta 1e\+155 "):
        transport_constants(1.0, 1e155)
    with pytest.raises(ValueError, match=r"^delta 1e\+200 "):
        transport_constants(2.0, 1e200)


def test_transport_vanishes_for_zero_flux(sine_run, pair_noise):
    eta, cfg = sine_run
    rep = certify_pairs(eta, cfg, make_flux("zero"), pair_noise,
                        MollifierPair(0.1, 0.1), [0])[0][2]
    assert rep.lhs == 0.0


# ---------------------------------------------------------------------------
# transport wedges against independent quadratures

_GL12_NODES, _GL12_WEIGHTS = np.polynomial.legendre.leggauss(12)


def gl12_transport_term(pair, moll, epsilon, flux):
    """Reference transport term: the banded parts of both wedges by
    12-point Gauss-Legendre against the tabulated CDF, the flat tails
    as flux differences, one offset at a time."""
    u_all, v_all = pair[0].values, pair[1].values
    grid = pair[0].grid
    delta = moll.delta

    def wedges(a, b):
        def band(lo, hi, conj):
            half = 0.5 * np.maximum(hi - lo, 0.0)
            mid = 0.5 * (hi + lo)
            nodes = mid[:, None] + half[:, None] * _GL12_NODES[None, :]
            xfac = kernel_cdf((nodes - b[:, None]) / delta)
            if conj:
                xfac = 1.0 - xfac
            return half * ((flux.a(nodes) * xfac) @ _GL12_WEIGHTS)

        wplus = band(b - delta, np.minimum(a, b + delta), conj=False)
        wplus += np.where(a > b + delta, flux.A(a) - flux.A(b + delta), 0.0)
        wminus = band(np.maximum(a, b - delta), b + delta, conj=True)
        wminus += np.where(a < b - delta, flux.A(b - delta) - flux.A(a), 0.0)
        return wplus + wminus

    offs, gw = moll.gradient_weights(grid)
    u = u_all[:-1]
    total_t = np.zeros(len(pair[0].times) - 1)
    for d, gwd in zip(offs, gw):
        if gwd != 0.0:
            b = np.roll(v_all[:-1], d, axis=1)
            vals = wedges(u.ravel(), b.ravel())
            total_t += gwd * vals.reshape(u.shape).sum(axis=1)
    return epsilon * float(np.dot(np.diff(pair[0].times), total_t)) * grid.dx


def quad_wedges(a, b, flux, delta):
    """W+(a,b) + W-(a,b) from their definitions by adaptive quadrature,
    with the kernel CDF itself integrated adaptively (no tables)."""
    def cdf(s):
        if s <= -1.0:
            return 0.0
        if s >= 1.0:
            return 1.0
        return quad(psi_scalar, -1.0, s, epsabs=1e-14, epsrel=1e-13,
                    limit=200)[0]

    def xfac(xi):
        return cdf((xi - b) / delta)

    def speed(xi):
        return float(flux.a(xi))

    def integrate(f, lo, hi):
        pts = [p for p in (b - delta, b + delta) if lo < p < hi]
        return quad(f, lo, hi, points=pts or None, epsabs=1e-14,
                    epsrel=1e-13, limit=200)[0]

    wplus = wminus = 0.0
    if a > b - delta:
        wplus = integrate(lambda xi: speed(xi) * xfac(xi), b - delta, a)
    if a < b + delta:
        wminus = integrate(lambda xi: speed(xi) * (1.0 - xfac(xi)), a,
                           b + delta)
    return wplus + wminus


WEDGE_FLUXES = {
    "zero": make_flux("zero"),
    "linear": make_flux("linear", speed=-0.7),
    "burgers": make_flux("burgers"),
    "cubic": make_flux("polynomial", coeffs=(0.1, -0.3, 0.5, 0.25)),
    "quartic": make_flux("polynomial", coeffs=(0.0, 0.2, -0.4, 0.1, 0.3)),
}


@pytest.mark.parametrize("kind", sorted(WEDGE_FLUXES))
@pytest.mark.parametrize("regime,gap", [("below", -0.23), ("band_lo", -0.06),
                                        ("band_hi", 0.041), ("above", 0.37)])
def test_wedges_match_adaptive_quadrature(kind, regime, gap):
    # regimes: a < b - delta, |a - b| < delta (both sides), a > b + delta
    flux = WEDGE_FLUXES[kind]
    delta = 0.1
    for b in (-0.85, 0.3, 1.4):
        a = b + gap
        got = float(_wedges(np.array([a]), np.array([b]), flux, delta,
                            _WedgeWork(flux, 1))[0])
        want = quad_wedges(a, b, flux, delta)
        assert abs(got - want) <= 1e-12, (b, got, want)


def test_transport_matches_gl12_reference(sine_run, pair_noise):
    # a linear flux is left to the quadrature test above: its term nearly
    # cancels over the antisymmetric weights, so GL12's own error
    # dominates the relative gap
    eta, cfg = sine_run
    moll = MollifierPair(0.1, 0.1)
    for flux in (WEDGE_FLUXES["burgers"], WEDGE_FLUXES["cubic"],
                 WEDGE_FLUXES["quartic"]):
        rep = certify_pairs(eta, cfg, flux, pair_noise, moll, [0])[0][2]
        pair = solve_coupled_pair(eta, cfg, flux, pair_noise)
        want = gl12_transport_term(pair, moll, cfg.epsilon, flux)
        assert rep.lhs == pytest.approx(abs(want), rel=1e-6)


def untiled_wedge_sums(u, v, moll, grid, flux):
    """Untiled reference for _wedge_sums: the wedges of every snapshot
    of u, v (snapshots, cells) in one array, then one cell sum per
    snapshot and offset."""
    offs, gw = moll.gradient_weights(grid)
    keep = gw != 0.0
    shifted = (np.arange(grid.cells) - offs[keep][:, None]) % grid.cells
    b = v[:, shifted]
    return _wedges(u[:, None, :], b, flux, moll.delta,
                   _WedgeWork(flux, b.size)).sum(axis=2)


def tiled_wedge_sums(u, v, moll, grid, flux):
    """_wedge_sums of u, v, one call per tile of TRANSPORT_TILE snapshots,
    in work arrays sized as certify_pairs sizes them, allocated here."""
    shifted = _transport_offsets(moll, grid)[1]
    out = np.empty((len(u), len(shifted)))
    work = _WedgeWork(flux, min(TRANSPORT_TILE, len(u)) * shifted.size)
    for lo in range(0, len(u), TRANSPORT_TILE):
        hi = lo + TRANSPORT_TILE
        _wedge_sums(u[lo:hi], v[lo:hi], shifted, flux, moll.delta, work,
                    out[lo:hi])
    return out


TILE_FLUXES = {
    "linear_pos": make_flux("linear", speed=0.8),
    "linear_neg": make_flux("linear", speed=-0.7),
    "burgers": make_flux("burgers"),
    "cubic": WEDGE_FLUXES["cubic"],
}


@pytest.mark.parametrize("kind", sorted(TILE_FLUXES))
def test_transport_tiles_match_untiled_bitwise(kind, pair_noise):
    flux = TILE_FLUXES[kind]
    moll = MollifierPair(0.2, 0.1)
    g = np.random.default_rng(3)
    grid = TorusGrid(16)
    cases = []
    for count in (1, TRANSPORT_TILE - 1, TRANSPORT_TILE, TRANSPORT_TILE + 1):
        cases.append((grid, *(g.uniform(-1.2, 1.2, (count, 16))
                              for _ in range(2))))
    eta = make_initial(TorusGrid(32), "sine", mean=0.0, amp=0.5, mode=1)
    cfg = SimConfig(epsilon=0.1, cells=32, seed=11, dt=1.0 / 128,
                    cfl_fraction=0.9, save_stride=3)
    run = solve_coupled_pair(eta, cfg, make_flux("burgers"), pair_noise)
    # the final snapshot only closes time
    assert (len(run[0].times) - 1) % TRANSPORT_TILE != 0   # a partial tile
    cases.append((eta.grid, run[0].values[:-1], run[1].values[:-1]))
    for grid, u, v in cases:
        got = tiled_wedge_sums(u, v, moll, grid, flux)
        want = untiled_wedge_sums(u, v, moll, grid, flux)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
            len(u)


def whole_pair_rows(pair, dense, moll, epsilon, flux, noise, path_index):
    """csv rows of J1, J2 and I of a recorded pair, from the per-snapshot
    kernels applied to its whole trajectories: J and I read every
    snapshot but the final one.  The moment norms and the range read
    every step, from dense, the same pair recorded at every step."""
    grid, times = pair[0].grid, pair[0].times
    dx, wts = grid.dx, np.diff(times)
    u, v = pair[0].values[:-1], pair[1].values[:-1]
    scale = epsilon * noise.D1
    j1_t, j2_t = _smoothing_rows(u, v, moll, grid)
    gw = moll.gradient_weights(grid)[1]
    total_t = _transport_rows(untiled_wedge_sums(u, v, moll, grid, flux),
                              gw[gw != 0.0])
    cq, lift = transport_constants(flux.growth_power, moll.delta)
    lead = 2.0 * epsilon * flux.growth_const * cq / moll.gamma
    p = flux.growth_power + 1.0
    mom_u, mom_v = (float(np.max(lp_norms(run.values, p, dx)))
                    for run in dense)
    # the largest |u| and |v| over every step, the final one included
    peak = max(float(np.max(np.abs(run.values))) for run in dense)
    j_held = peak <= noise.state_bound
    widths = (epsilon, moll.gamma, moll.delta)
    reports = [
        BoundReport("J1", scale * float(np.dot(wts, j1_t)) * dx,
                    scale * moll.gamma ** 2 / moll.delta, *widths,
                    path_index, j_held),
        BoundReport("J2", scale * float(np.dot(wts, j2_t)) * dx,
                    scale * moll.delta * psi_sup(), *widths, path_index,
                    j_held),
        BoundReport("I", abs(epsilon * float(np.dot(wts, total_t)) * dx),
                    lead * lift + lead * (mom_u + mom_v), *widths,
                    path_index, peak + moll.delta <= FLUX_LATTICE_RADIUS)]
    return cli._bound_csv(reports)[1:]


@pytest.mark.parametrize("dt, stride, last_tile", [
    # 50 steps, not a multiple of the stride: 18 snapshots, and the last
    # tile holds snapshot 16 and the final one, after a short step
    (1.0 / 50, 3, 2),
    # 33 snapshots, S - 1 a multiple of the tile: the last tile holds only
    # the final snapshot, which J and I skip
    (1.0 / 64, 2, 1)])
def test_streamed_certificates_match_whole_pairs_bitwise(
        pair_noise, monkeypatch, dt, stride, last_tile):
    # a small initial wave, which the noise outgrows on some paths
    eta = make_initial(TorusGrid(32), "sine", mean=0.0, amp=0.2, mode=1)
    cfg = SimConfig(epsilon=0.1, cells=32, seed=11, dt=dt, cfl_fraction=0.9,
                    save_stride=stride)
    flux, moll = make_flux("burgers"), MollifierPair(0.1, 0.1)
    indices = range(3, 8)
    pairs = recorded_runs(eta, cfg, flux, pair_noise, indices)
    dense = recorded_runs(eta, replace(cfg, save_stride=1), flux, pair_noise,
                          indices)
    snapshots = len(pairs[0][0].times)
    assert (snapshots - 1) % TRANSPORT_TILE == last_tile - 1
    # some run's largest moment norm is at its final step, so the
    # moments must read it
    p = flux.growth_power + 1.0
    assert any(np.argmax(lp_norms(run.values, p, eta.grid.dx))
               == len(run.times) - 1 for pair in dense for run in pair)
    want = [row for i, pair, every in zip(indices, pairs, dense)
            for row in whole_pair_rows(pair, every, moll, cfg.epsilon, flux,
                                       pair_noise, i)]

    def rows(block):
        reports, ends = certify_pairs(eta, cfg, flux, pair_noise, moll,
                                      block)
        # csv rows carry every float in round-trip form
        return cli._bound_csv(reports)[1:], ends

    got, (u_end, v_end) = rows(indices)
    assert got == want
    assert np.array_equal(u_end.values, pairs[0][0].values[-1])
    assert np.array_equal(v_end.values, pairs[0][1].values[-1])
    # as blocks of one pair, with one tile that holds every snapshot, and
    # with tiles of one snapshot
    assert [row for i in indices for row in rows([i])[0]] == want
    for tile in (snapshots, 1):
        monkeypatch.setattr(diagnostics, "TRANSPORT_TILE", tile)
        assert rows(indices)[0] == want, tile


def test_certificates_fail_when_the_states_leave_their_range(
        sine_run, pair_noise, monkeypatch):
    # J1 and J2 rest on D1, derived for |u| <= state_bound, and I on the
    # growth envelope, checked for |xi| <= FLUX_LATTICE_RADIUS.  A pair
    # whose largest |u| or |v| leaves that range fails the row, whatever
    # its margin
    eta, cfg = sine_run
    flux, moll = make_flux("burgers"), MollifierPair(0.1, 0.1)
    indices = range(6)
    pairs = recorded_runs(eta, cfg, flux, pair_noise, indices)
    peaks = [max(float(np.max(np.abs(run.values))) for run in pair)
             for pair in pairs]
    bound = float(np.median(peaks))
    noise = NoiseModel(pair_noise.modes, state_bound=bound)
    want = [peak <= bound for peak in peaks]
    assert any(want) and not all(want)
    # the peaks of one tile of every snapshot, and of one-snapshot tiles
    for tile in (len(pairs[0][0].times), 1):
        monkeypatch.setattr(diagnostics, "TRANSPORT_TILE", tile)
        reports = certify_pairs(eta, cfg, flux, noise, moll, indices)[0]
        assert all(r.lhs <= r.rhs for r in reports)
        assert [r.passed for r in reports if r.name != "I"] == [
            held for held in want for _ in ("J1", "J2")], tile
        assert all(r.passed for r in reports if r.name == "I")
    # delta widens I's range: just inside the lattice, then just past it
    reach = FLUX_LATTICE_RADIUS - peaks[0]
    for delta, held in ((reach * (1 - 1e-9), True),
                        (reach * (1 + 1e-9), False)):
        rep = certify_pairs(eta, cfg, flux, pair_noise,
                            MollifierPair(0.1, delta), [0])[0][2]
        assert rep.lhs <= rep.rhs and rep.passed == held, delta


def test_transport_term_traces_a_few_tiles(pair_noise):
    # the shipped grid and kernel widths, several tiles of snapshots; fresh
    # temporaries per tile of 32 snapshots peaked above thirty of these
    # 16-snapshot tiles.  The work block's nine rows, the primitive
    # reader's index and masks and numpy's fixed 64 KB ufunc buffer come
    # to about 11.2
    eta = make_initial(TorusGrid(64), "sine", mean=0.0, amp=0.5, mode=1)
    cfg = SimConfig(epsilon=0.1, cells=64, seed=2024, dt=1.0 / 256,
                    cfl_fraction=0.9)
    flux = make_flux("burgers")
    pair = solve_coupled_pair(eta, cfg, flux, pair_noise)
    u, v = pair[0].values[:-1], pair[1].values[:-1]
    moll = MollifierPair(0.1, 0.1)
    offsets = int(np.count_nonzero(moll.gradient_weights(eta.grid)[1]))
    tile = TRANSPORT_TILE * offsets * eta.grid.cells * 8
    tiled_wedge_sums(u, v, moll, eta.grid, flux)
    tracemalloc.start()
    try:
        tiled_wedge_sums(u, v, moll, eta.grid, flux)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * tile


def test_transport_term_is_zero_when_gamma_is_one_cell(pair_noise):
    # gamma = dx leaves only the offset 0, whose gradient weight is 0
    grid = TorusGrid(10)
    eta = make_initial(grid, "sine", mean=0.0, amp=0.5, mode=1)
    cfg = SimConfig(epsilon=0.1, cells=10, seed=2024, dt=1.0 / 64,
                    cfl_fraction=0.9)
    moll = MollifierPair(grid.dx, 0.1)
    assert not moll.gradient_weights(grid)[1].any()
    rep = certify_pairs(eta, cfg, make_flux("burgers"), pair_noise, moll,
                        [0])[0][2]
    assert np.float64(rep.lhs).view(np.uint64) == \
        np.float64(0.0).view(np.uint64)


def test_certificate_ranges_read_every_step_at_any_stride(
        small_eta, burgers, two_mode_noise):
    # I's moment maxima and every row's state range are observed at each
    # step, so recording every 8th snapshot changes neither: not I's rhs,
    # and not which rows keep their range
    cfg = SimConfig(epsilon=0.1, cells=32, seed=5, dt=1.0 / 64,
                    cfl_fraction=0.9)
    moll, indices = MollifierPair(0.1, 0.1), range(6)
    peaks = [max(float(np.max(np.abs(run.values))) for run in pair)
             for pair in recorded_runs(small_eta, cfg, burgers,
                                       two_mode_noise, indices)]
    noise = NoiseModel(two_mode_noise.modes,
                       state_bound=float(np.median(peaks)))
    rows = {}
    for stride in (1, 8):
        reports = certify_pairs(small_eta, replace(cfg, save_stride=stride),
                                burgers, noise, moll, indices)[0]
        rows[stride] = [(r.name, r.rhs, r.in_range) for r in reports]
    assert rows[1] == rows[8]
    held = [in_range for name, _, in_range in rows[1] if name == "J1"]
    assert any(held) and not all(held)
