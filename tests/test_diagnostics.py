import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sclaw.diagnostics import (BOUND_CSV_HEADER, TRANSPORT_TILE,
                               BoundReport, _WedgeWork, _wedges,
                               bound_check_I,
                               bound_check_J, bound_csv_lines,
                               bracket_identity, certify_pairs,
                               direct_brackets, doubling_functional,
                               error_term,
                               smoothing_defect, transport_constants,
                               transport_term)
from sclaw.grid import ScalarField, Trajectory, TorusGrid, make_initial
from sclaw.models import NoiseMode, NoiseModel, SimConfig, make_flux
from sclaw.mollifier import MollifierPair
from sclaw.solvers import lp_norms, solve_coupled_pair, solve_coupled_pairs

from oracles import doubling_bruteforce, kernel_cdf, psi_scalar

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
def coupled(pair_noise):
    grid = TorusGrid(32)
    eta = make_initial(grid, "sine", mean=0.0, amp=0.5, mode=1)
    cfg = SimConfig(epsilon=0.1, cells=32, seed=11, dt=1.0 / 128,
                    cfl_fraction=0.9)
    pair = solve_coupled_pair(eta, cfg, make_flux("burgers"), pair_noise)
    return pair, cfg


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
    good = BoundReport("J1", 0.5, 1.0, 0.1, 0.1, 0.1, 3)
    bad = BoundReport("J1", 2.0, 1.0, 0.1, 0.1, 0.1)
    assert good.passed and not bad.passed
    row = good.csv_row()
    assert row.split(",") == ["J1", "3", "0.1", "0.1", "0.1", "0.5", "1.0",
                              "true"]


def test_write_bound_reports():
    reports = [BoundReport("J1", 0.5, 1.0, 0.1, 0.1, 0.1),
               BoundReport("I", 3.0, 2.0, 0.1, 0.1, 0.1, 1)]
    lines = bound_csv_lines(reports)
    assert lines[0] == BOUND_CSV_HEADER
    assert len(lines) == 3
    assert lines[2].endswith("false")


def test_smoothing_cost_certificates_hold(coupled, pair_noise):
    pair, cfg = coupled
    moll = MollifierPair(0.1, 0.1)
    r1, r2 = bound_check_J(pair, moll, cfg.epsilon, pair_noise,
                           path_index=0)
    assert r1.passed and r2.passed
    assert 0.0 <= r1.lhs and 0.0 <= r2.lhs
    assert r1.rhs == pytest.approx(
        cfg.epsilon * pair_noise.D1 * moll.gamma ** 2 / moll.delta)


def test_transport_certificate_holds(coupled):
    pair, cfg = coupled
    moll = MollifierPair(0.1, 0.1)
    rep = bound_check_I(pair, moll, cfg.epsilon, make_flux("burgers"),
                        path_index=0)
    assert rep.passed
    assert rep.name == "I"


def test_transport_rhs_linear_in_epsilon(coupled):
    pair, _ = coupled
    moll = MollifierPair(0.1, 0.1)
    flux = make_flux("burgers")
    r1 = bound_check_I(pair, moll, 0.05, flux, path_index=0)
    r2 = bound_check_I(pair, moll, 0.10, flux, path_index=0)
    assert r2.rhs == 2.0 * r1.rhs
    assert r2.lhs == pytest.approx(2.0 * r1.lhs, rel=1e-12)


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


def test_transport_vanishes_for_zero_flux(coupled):
    pair, cfg = coupled
    moll = MollifierPair(0.1, 0.1)
    assert transport_term(pair, moll, cfg.epsilon, make_flux("zero")) == 0.0


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


def test_transport_matches_gl12_reference(coupled):
    # a linear flux is left to the quadrature test above: its term nearly
    # cancels over the antisymmetric weights, so GL12's own error
    # dominates the relative gap
    pair, cfg = coupled
    moll = MollifierPair(0.1, 0.1)
    for flux in (WEDGE_FLUXES["burgers"], WEDGE_FLUXES["cubic"],
                 WEDGE_FLUXES["quartic"]):
        got = transport_term(pair, moll, cfg.epsilon, flux)
        want = gl12_transport_term(pair, moll, cfg.epsilon, flux)
        assert got == pytest.approx(want, rel=1e-6)


def untiled_transport_term(pair, moll, epsilon, flux):
    """Untiled reference for transport_term: the wedges of every
    snapshot in one array, then one cell sum."""
    uvals, vvals = pair[0].values, pair[1].values
    grid = pair[0].grid
    offs, gw = moll.gradient_weights(grid)
    keep = gw != 0.0
    shifted = (np.arange(grid.cells) - offs[keep][:, None]) % grid.cells
    b = vvals[:-1][:, shifted]
    per_t = _wedges(uvals[:-1][:, None, :], b, flux, moll.delta,
                    _WedgeWork(flux, b.size)).sum(axis=2)
    total_t = np.zeros(len(pair[0].times) - 1)
    for gwd, col in zip(gw[keep], per_t.T):
        total_t += gwd * col
    return epsilon * float(np.dot(np.diff(pair[0].times), total_t)) * grid.dx


TILE_FLUXES = {
    "linear_pos": make_flux("linear", speed=0.8),
    "linear_neg": make_flux("linear", speed=-0.7),
    "burgers": make_flux("burgers"),
    "cubic": WEDGE_FLUXES["cubic"],
}


@pytest.mark.parametrize("kind", sorted(TILE_FLUXES))
def test_transport_tiles_match_untiled_bitwise(kind, pair_noise):
    flux = TILE_FLUXES[kind]
    grid = TorusGrid(16)
    moll = MollifierPair(0.2, 0.1)
    g = np.random.default_rng(3)
    pairs = []
    for count in (1, TRANSPORT_TILE - 1, TRANSPORT_TILE, TRANSPORT_TILE + 1):
        # count snapshots enter the wedges: the last one only closes time
        times = np.linspace(0.0, 1.0, count + 1)
        pairs.append(tuple(
            Trajectory(grid, times, g.uniform(-1.2, 1.2, (count + 1, 16)))
            for _ in range(2)))
    eta = make_initial(TorusGrid(32), "sine", mean=0.0, amp=0.5, mode=1)
    cfg = SimConfig(epsilon=0.1, cells=32, seed=11, dt=1.0 / 128,
                    cfl_fraction=0.9, save_stride=3)
    run = solve_coupled_pair(eta, cfg, make_flux("burgers"), pair_noise)
    assert (len(run[0].times) - 1) % TRANSPORT_TILE != 0   # a partial tile
    pairs.append(run)
    for pair in pairs:
        got = transport_term(pair, moll, 0.1, flux)
        want = untiled_transport_term(pair, moll, 0.1, flux)
        assert np.float64(got).view(np.uint64) == \
            np.float64(want).view(np.uint64), len(pair[0].times)


@pytest.mark.parametrize("dt, stride, last_tile", [
    # 50 steps, not a multiple of the stride: 18 snapshots, and the last
    # tile holds snapshot 16 and the final one, after a short step
    (1.0 / 50, 3, 2),
    # 33 snapshots, S - 1 a multiple of the tile: the last tile holds only
    # the final snapshot, which J and I skip and the moments read
    (1.0 / 64, 2, 1)])
def test_streamed_certificates_match_whole_pairs_bitwise(pair_noise, dt,
                                                         stride, last_tile):
    # a small initial wave, which the noise outgrows on some paths
    eta = make_initial(TorusGrid(32), "sine", mean=0.0, amp=0.2, mode=1)
    cfg = SimConfig(epsilon=0.1, cells=32, seed=11, dt=dt, cfl_fraction=0.9,
                    save_stride=stride)
    flux, moll = make_flux("burgers"), MollifierPair(0.1, 0.1)
    indices = range(3, 8)
    got, (u_end, v_end) = certify_pairs(eta, cfg, flux, pair_noise, moll,
                                        indices)
    pairs = solve_coupled_pairs(eta, cfg, flux, pair_noise, indices)
    assert (len(pairs[0][0].times) - 1) % TRANSPORT_TILE == last_tile - 1
    want = []
    for i, pair in zip(indices, pairs):
        want += [*bound_check_J(pair, moll, cfg.epsilon, pair_noise, i),
                 bound_check_I(pair, moll, cfg.epsilon, flux, i)]
    # csv rows carry every float in round-trip form
    assert [r.csv_row() for r in got] == [r.csv_row() for r in want]
    assert np.array_equal(u_end.values, pairs[0][0].values[-1])
    assert np.array_equal(v_end.values, pairs[0][1].values[-1])
    # some run's largest moment norm is at its final snapshot, so the
    # moments must read it
    p = flux.growth_power + 1.0
    assert any(np.argmax(lp_norms(run.values, p, eta.grid.dx))
               == len(run.times) - 1 for pair in pairs for run in pair)


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
    moll = MollifierPair(0.1, 0.1)
    offsets = int(np.count_nonzero(moll.gradient_weights(eta.grid)[1]))
    tile = TRANSPORT_TILE * offsets * eta.grid.cells * 8
    transport_term(pair, moll, cfg.epsilon, flux)
    tracemalloc.start()
    try:
        transport_term(pair, moll, cfg.epsilon, flux)
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
    flux = make_flux("burgers")
    pair = solve_coupled_pair(eta, cfg, flux, pair_noise)
    moll = MollifierPair(grid.dx, 0.1)
    assert not moll.gradient_weights(grid)[1].any()
    got = transport_term(pair, moll, cfg.epsilon, flux)
    assert np.float64(got).view(np.uint64) == np.float64(0.0).view(np.uint64)
