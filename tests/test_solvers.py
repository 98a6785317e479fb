import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sclaw.errors import NumericalFailure
from sclaw.grid import ScalarField, TorusGrid, Trajectory, make_initial
from sclaw import cli
from sclaw.cli import PAIR_BLOCK
from sclaw.harness import _BATCH
from sclaw import solvers
from sclaw.models import (FluxModel, NoiseMode, NoiseModel, NoisePath,
                          SimConfig, additive_noise, block_increments,
                          make_flux)
from sclaw.solvers import (SKELETON_TILE, STREAM_BASE, STREAM_MAIN,
                           STREAM_SCALED, _base, _block, _flux_substep,
                           _scaled, _sweep, base_small_time_endpoints,
                           deterministic_step, integrate_skeleton,
                           pair_l1_distances, pair_moment_maxes,
                           scaled_endpoints, solve_coupled_pair,
                           uniform_times)

from oracles import (affine_parts, coarsen, lp_norms, recorded_runs,
                     skeleton_per_step)

rng = np.random.default_rng(42)


def _run(eta, cfg, flux, noise, i=0):
    """The recorded rescaled run of path i."""
    return recorded_runs(eta, cfg, flux, noise, [i], pair=False)[0][0]


def _pair(eta, cfg, flux, noise, i):
    """The coupled pair of path i, as a block of one."""
    return tuple(recorded_runs(eta, cfg, flux, noise, [i])[0])


def _eo(flux, ul, ur):
    """eo_flux into freshly allocated buffers."""
    out = np.empty(np.broadcast_shapes(np.shape(ul), np.shape(ur)))
    return flux.eo_flux(ul, ur, out, np.empty_like(out))


def _base_end(eta, epsilon, cfg, flux, noise, i=0, stream=STREAM_BASE):
    """The endpoint of path i of the unscaled dynamics at time epsilon."""
    return _block(eta, cfg, flux, noise, _base(eta, epsilon, cfg, flux), [i],
                  stream).ends[0]


def _noise_step(eta, noise, amp, db):
    """One Euler-Maruyama noise step from eta of every column of db,
    shaped (K, rows): a zero-flux _sweep block of one step."""
    inc = np.asarray(db, dtype=float)[None]
    return _sweep(eta, make_flux("zero"), 1.0, noise, amp, 1.0, inc, "lie",
                  0.9, range(inc.shape[2])).ends


# ---------------------------------------------------------------------------
# numerical flux


def test_eo_consistency_burgers():
    flux = make_flux("burgers")
    for c in (-1.3, 0.0, 0.4, 2.0):
        assert _eo(flux, c, c) == pytest.approx(0.5 * c * c, abs=1e-15)


def test_eo_transonic_rarefaction_value():
    # both half-integrals contribute through the sonic point
    flux = make_flux("burgers")
    assert _eo(flux, 1.0, -1.0) == 1.0


def test_eo_linear_upwind():
    flux = make_flux("linear", speed=2.0)
    assert _eo(flux, 0.7, -5.0) == pytest.approx(1.4)
    back = make_flux("linear", speed=-2.0)
    assert _eo(back, 0.7, -5.0) == pytest.approx(10.0)


def apos(flux, u):
    """Integral of max(a, 0) from 0 to u, in closed form."""
    u = np.asarray(u, dtype=float)
    if flux.kind == "zero":
        return np.zeros_like(u)
    if flux.kind == "linear":
        return max(flux.speed, 0.0) * u
    if flux.kind == "burgers":
        return 0.5 * np.maximum(u, 0.0) ** 2
    return flux._piecewise_part(u, positive=True)


def aneg(flux, u):
    """Integral of min(a, 0) from 0 to u, in closed form."""
    u = np.asarray(u, dtype=float)
    if flux.kind == "zero":
        return np.zeros_like(u)
    if flux.kind == "linear":
        return min(flux.speed, 0.0) * u
    if flux.kind == "burgers":
        return 0.5 * np.minimum(u, 0.0) ** 2
    return flux._piecewise_part(u, positive=False)


def test_eo_polynomial_parts_match_quadrature():
    # quartic A with genuinely sign-changing speed a = A'
    flux = FluxModel(kind="polynomial", coeffs=(0.0, -0.5, 0.1, 0.0, 0.25),
                     growth_power=4.0, growth_const=2.0)
    for u in (-1.7, -0.3, 0.0, 0.6, 1.9):
        pos, _ = quad(lambda s: max(float(flux.a(s)), 0.0), 0.0, u)
        neg, _ = quad(lambda s: min(float(flux.a(s)), 0.0), 0.0, u)
        assert float(apos(flux, u)) == pytest.approx(pos, abs=1e-9)
        assert float(aneg(flux, u)) == pytest.approx(neg, abs=1e-9)


_EO_FLUXES = {
    "zero": make_flux("zero"),
    "linear_pos": make_flux("linear", speed=0.7),
    "linear_neg": make_flux("linear", speed=-0.7),
    "burgers": make_flux("burgers"),
    # A(0) = 0.25, and a = -0.5 + 0.2 u + 0.3 u^2 changes sign at u = -5/3
    # and u = 1
    "cubic": make_flux("polynomial", coeffs=(0.25, -0.5, 0.1, 0.1),
                       growth_power=3.0, growth_const=3.0),
}


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("kind", sorted(_EO_FLUXES))
def test_eo_flux_buffers_match_reference_bitwise(kind):
    flux = _EO_FLUXES[kind]
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e150,
                        -1e150, 1.0, -1.0, 0.3])
    g = np.random.default_rng(17)
    ul = np.concatenate([np.repeat(special, special.size),
                         g.normal(0.0, 2.0, 399)]).reshape(-1, 8)
    ur = np.concatenate([np.tile(special, special.size),
                         g.normal(0.0, 2.0, 399)]).reshape(-1, 8)
    with np.errstate(all="ignore"):
        ref = float(flux.A(0.0)) + apos(flux, ul) + aneg(flux, ur)
        out, work = np.full((2,) + ul.shape, np.nan)
        assert flux.eo_flux(ul, ur, out, work) is out
        fresh = _eo(flux, ul, ur)
    assert np.array_equal(_bits(out), _bits(ref))
    assert np.array_equal(_bits(fresh), _bits(ref))


@pytest.mark.parametrize("n_modes", [1, 2, 3, 5])
def test_split_noise_coefficients_match_concatenated_einsum(n_modes):
    # the sweep forms c0 and c1 by two einsums into contiguous buffers;
    # the former single einsum over [P0 | P1] gave the same bits
    g = np.random.default_rng(n_modes)
    m = 16
    p0, p1 = g.normal(size=(2, n_modes, m))
    p0[:, ::5] = -0.0
    p1[:, 1::7] = 0.0
    for rows in (1, 7, _BATCH):
        inc = g.normal(size=(3, n_modes, rows))   # step-major, as swept
        inc[:, :, ::4] = -0.0
        for s in range(3):
            old = np.einsum("kb,kc->bc", inc[s], np.concatenate([p0, p1],
                                                                axis=1))
            c0, c1 = np.full((2, rows, m), np.nan)
            np.einsum("kb,kc->bc", inc[s], p0, out=c0)
            np.einsum("kb,kc->bc", inc[s], p1, out=c1)
            assert np.array_equal(_bits(c0), _bits(old[:, :m]))
            assert np.array_equal(_bits(c1), _bits(old[:, m:]))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.5, 8.0])
def test_inplace_moment_power_matches_power_bitwise(p):
    tiny = np.finfo(float).smallest_subnormal
    w = np.random.default_rng(5).normal(0.0, 3.0, (33, 16))
    w[0, :6] = (0.0, -0.0, tiny, -tiny, 1e150, -1e-310)
    with np.errstate(all="ignore"):
        ref = np.abs(w) ** p
        a = np.abs(w, out=np.empty_like(w))
        a **= p
    assert np.array_equal(_bits(a), _bits(ref))


# ---------------------------------------------------------------------------
# deterministic step


def test_constant_field_is_steady():
    grid = TorusGrid(16)
    f = ScalarField(grid, np.full(16, 0.8))
    out = deterministic_step(f, make_flux("burgers"), 1.0, 0.01)
    assert np.allclose(out.values, 0.8, atol=1e-15)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_step_preserves_mean(seed):
    grid = TorusGrid(32)
    vals = np.random.default_rng(seed).uniform(-1.0, 1.0, 32)
    f = ScalarField(grid, vals)
    out = deterministic_step(f, make_flux("burgers"), 1.0, 0.005)
    mean = np.mean(f.values)
    assert abs(np.mean(out.values) - mean) <= 1e-12 * (1.0 + abs(mean))


def test_cfl_violation_names_courant_number():
    grid = TorusGrid(16)
    f = ScalarField(grid, np.full(16, 3.0))
    with pytest.raises(NumericalFailure, match="Courant"):
        deterministic_step(f, make_flux("burgers"), 1.0, 0.1)


def test_shock_speed_coarse():
    # Riemann (1, 0): the shock moves at speed 1/2
    grid = TorusGrid(100)
    eta = make_initial(grid, "riemann", left=1.0, right=0.0, x0=0.5)
    f, t, dt = eta, 0.0, 0.2 * grid.dx
    while t < 0.5 - 1e-12:
        step = min(dt, 0.5 - t)
        f = deterministic_step(f, make_flux("burgers"), 1.0, step)
        t += step
    jumps = np.diff(f.values)
    pos = (np.argmin(jumps) + 1) * grid.dx
    assert abs(pos - 0.75) <= 3 * grid.dx


def test_l1_contraction_sample():
    grid = TorusGrid(32)
    flux = make_flux("burgers")
    g = np.random.default_rng(3)
    for _ in range(10):
        u = ScalarField(grid, g.uniform(-1, 1, 32))
        v = ScalarField(grid, g.uniform(-1, 1, 32))
        dist = float(np.abs(u.values - v.values).sum() * grid.dx)
        for _ in range(40):
            u = deterministic_step(u, flux, 1.0, 0.005)
            v = deterministic_step(v, flux, 1.0, 0.005)
            new = float(np.abs(u.values - v.values).sum() * grid.dx)
            assert new <= dist + 1e-10
            dist = new


def _roll_eo_step(u, flux, scale, dt, dx):
    """The EO step by np.roll, in the substep's operation order."""
    f = _eo(flux, u, np.roll(u, -1, axis=1))
    div = f - np.roll(f, 1, axis=1)
    div *= scale * (dt / dx)
    return u - div


@pytest.mark.parametrize("rows", [1, 2, 7, _BATCH])
@pytest.mark.parametrize("kind", sorted(_EO_FLUXES))
def test_flux_substep_matches_roll_reference_bitwise(kind, rows):
    # distinct rows, so a wrap column that mixes neighbour rows shows;
    # the scratch starts as nan, so a cell left unwritten shows
    flux = _EO_FLUXES[kind]
    g = np.random.default_rng(rows)
    u = g.uniform(-1.0, 1.0, (rows, 16))
    u[:, ::5] = -0.0
    ref = _roll_eo_step(u, flux, 0.3, 0.02, 1.0 / 16)
    scratch = np.full((3,) + u.shape, np.nan)
    _flux_substep(u, float(u.min()), float(u.max()), 1.0 / 16, flux, 0.3,
                  0.02, 0.9, list(range(rows)), 0, scratch)
    assert np.array_equal(_bits(u), _bits(ref))
    field = ScalarField(TorusGrid(16), ref[-1])
    one = deterministic_step(field, flux, 0.3, 0.02)
    want = _roll_eo_step(ref[-1:], flux, 0.3, 0.02, 1.0 / 16)[0]
    assert np.array_equal(_bits(one.values), _bits(want))


@pytest.mark.parametrize("splitting", ["lie", "strang"])
@pytest.mark.parametrize("kind", sorted(_EO_FLUXES))
def test_flux_only_sweep_matches_roll_reference_bitwise(kind, splitting):
    flux = _EO_FLUXES[kind]
    eta = make_initial(TorusGrid(16), "sine", mean=0.1, amp=0.5, mode=1)
    cfg = SimConfig(epsilon=0.3, cells=16, seed=3, dt=1.0 / 16,
                    cfl_fraction=0.9, splitting=splitting)
    u = eta.values[None, :]
    for _ in range(16):
        if splitting == "lie":
            u = _roll_eo_step(u, flux, 0.3, 1.0 / 16, 1.0 / 16)
        else:
            for _ in range(2):
                u = _roll_eo_step(u, flux, 0.3, 0.5 * (1.0 / 16), 1.0 / 16)
    for rows in (1, 2, 7, _BATCH):
        ends = scaled_endpoints(eta, cfg, flux, NoiseModel(()), range(rows))
        assert ends.shape == (rows, 16)
        assert np.array_equal(_bits(ends), _bits(np.repeat(u, rows, 0)))


def test_flux_substep_rejects_non_contiguous_scratch():
    u = np.random.default_rng(1).uniform(-1.0, 1.0, (4, 8))
    before = u.copy()
    scratch = np.empty((3, 8, 4)).transpose(0, 2, 1)
    with pytest.raises(ValueError, match="C-contiguous"):
        _flux_substep(u, -1.0, 1.0, 1.0 / 8, make_flux("burgers"), 1.0,
                      0.01, 0.9, list(range(4)), 0, scratch)
    assert np.array_equal(u, before)


# ---------------------------------------------------------------------------
# stochastic substep


def test_noise_substep_zero_amp():
    grid = TorusGrid(8)
    f = ScalarField(grid, np.linspace(-1, 1, 8))
    out = _noise_step(f, additive_noise(1.0), 0.0, [[0.4]])[0]
    assert np.array_equal(out, f.values)


def test_noise_substep_additive_shift():
    grid = TorusGrid(8)
    f = ScalarField(grid, np.zeros(8))
    out = _noise_step(f, additive_noise(1.0), 1.0, [[0.3]])[0]
    assert np.allclose(out, 0.3, atol=1e-16)


def test_noise_substep_mean_zero():
    grid = TorusGrid(4)
    f = ScalarField(grid, np.full(4, 0.2))
    noise = additive_noise(1.0)
    draws = math.sqrt(0.01) * np.random.default_rng(9).standard_normal(10_000)
    # one block of 10 000 rows: a row does not depend on the block height
    mean = np.mean(_noise_step(f, noise, 1.0, draws[None, :])[:, 0])
    se = math.sqrt(0.01 / 10_000)
    assert abs(mean - 0.2) <= 3 * se


# ---------------------------------------------------------------------------
# full paths


def test_flux_zero_matches_flux_free_bitwise(small_eta, burgers,
                                             two_mode_noise):
    # a pair's second member skips the flux substep; a zero-flux run on
    # the same grid and increments must reproduce it bit for bit
    for splitting in ("lie", "strang"):
        cfg = SimConfig(epsilon=0.1, cells=32, seed=5, dt=1.0 / 64,
                        splitting=splitting)
        _, free = _pair(small_eta, cfg, burgers, two_mode_noise, 0)
        zero = _run(small_eta, cfg, make_flux("zero"), two_mode_noise)
        assert np.array_equal(_bits(free.values), _bits(zero.values))
        assert np.array_equal(_bits(free.times), _bits(zero.times))


def test_trajectory_determinism(small_eta, two_mode_noise, burgers):
    cfg = SimConfig(epsilon=0.1, cells=32, seed=5, dt=1.0 / 64,
                    cfl_fraction=0.9)
    a = _run(small_eta, cfg, burgers, two_mode_noise, 3)
    b = _run(small_eta, cfg, burgers, two_mode_noise, 3)
    assert np.array_equal(a.values, b.values)
    c = _run(small_eta, cfg, burgers, two_mode_noise, 4)
    assert not np.array_equal(a.values, c.values)


def test_zero_noise_flux_free_is_frozen(small_eta):
    dead = NoiseModel(())
    cfg = SimConfig(epsilon=0.1, cells=32, seed=5, dt=1.0 / 64)
    traj = _run(small_eta, cfg, make_flux("zero"), dead)
    assert np.allclose(traj.values, small_eta.values[None, :], atol=0.0)


def test_flux_free_additive_integrates_exactly(small_eta):
    cfg = SimConfig(epsilon=0.25, cells=32, seed=8, dt=1.0 / 64)
    traj = _run(small_eta, cfg, make_flux("zero"), additive_noise(1.0))
    inc = block_increments(8, STREAM_MAIN, [0], 64, 1, 1.0 / 64)
    brownian = np.concatenate([[0.0], np.cumsum(inc[:, 0, 0])])
    expect = small_eta.values[None, :] + 0.5 * brownian[:, None]
    assert np.allclose(traj.values, expect, atol=1e-12)


def test_coupled_pair_identical_when_flux_zero(small_eta, two_mode_noise):
    cfg = SimConfig(epsilon=0.1, cells=32, seed=5, dt=1.0 / 64)
    u, v = solve_coupled_pair(small_eta, cfg, make_flux("zero"),
                              two_mode_noise)
    assert np.array_equal(u.values, v.values)


def test_base_small_time_zero_noise_maps_onto_scaled(small_eta, burgers):
    dead = NoiseModel(())
    cfg = SimConfig(epsilon=0.25, cells=32, seed=5, dt=1.0 / 64,
                    cfl_fraction=0.9)
    base = _base_end(small_eta, 0.25, cfg, burgers, dead)
    scaled = _run(small_eta, cfg, burgers, dead)
    assert np.allclose(base, scaled.values[-1], atol=1e-12)


def test_base_small_time_at_unit_epsilon_is_scaled_run(small_eta, burgers,
                                                       two_mode_noise):
    cfg = SimConfig(epsilon=1.0, cells=32, seed=5, dt=1.0 / 64,
                    cfl_fraction=0.9)
    base = _base_end(small_eta, 1.0, cfg, burgers, two_mode_noise,
                     stream=STREAM_MAIN)
    scaled = _run(small_eta, cfg, burgers, two_mode_noise)
    assert np.array_equal(base, scaled.values[-1])


def test_splitting_gap_shrinks_with_dt(small_eta, burgers, two_mode_noise):
    fine = NoisePath.generate(5, STREAM_MAIN, 0, 512, 2, 1.0 / 512)
    gaps = []
    for n in (128, 256, 512):
        inc = coarsen(fine, 512 // n).increments[:, :, None]
        ends = {}
        for splitting in ("lie", "strang"):
            obs = _sweep(small_eta, burgers, 0.1, two_mode_noise,
                         math.sqrt(0.1), 1.0 / n, inc, splitting, 0.9, [0])
            ends[splitting] = obs.ends[0]
        gaps.append(float(np.abs(ends["lie"] - ends["strang"]).max()))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# skeleton


def test_skeleton_zero_control_constant(small_eta, unit_additive):
    values = skeleton_per_step(small_eta, np.zeros((1, 4))[None],
                               unit_additive, 16)[:, 0]
    assert np.array_equal(values[-1], small_eta.values)
    assert integrate_skeleton(small_eta, np.zeros((1, 4))[None],
                              unit_additive, 16, values)[0] == 0.0


def test_skeleton_additive_linear_in_time(small_eta, unit_additive):
    c = 0.37
    values = skeleton_per_step(small_eta, np.full((1, 8), c)[None],
                               unit_additive, 64)[:, 0]
    expect = small_eta.values + c
    assert np.allclose(values[-1], expect, atol=1e-13)
    mid = small_eta.values + 0.5 * c
    j = np.argmin(np.abs(uniform_times(64) - 0.5))
    assert np.allclose(values[j], mid, atol=1e-13)
    exact = small_eta.values + c * uniform_times(64)[:, None]
    assert integrate_skeleton(small_eta, np.full((1, 8), c)[None],
                              unit_additive, 64, exact)[0] <= 1e-13


def test_skeleton_multiplicative_exponential():
    grid = TorusGrid(8)
    eta = ScalarField(grid, np.linspace(0.5, 1.2, 8))
    mult = NoiseModel((NoiseMode(
        sigma=1.0, alpha=0.0, beta=1.0),))
    c = 0.9
    values = skeleton_per_step(eta, np.full((1, 4), c)[None], mult,
                               100)[:, 0]
    assert np.allclose(values[-1], eta.values * math.exp(c), atol=1e-8)


def test_skeleton_rk4_order():
    grid = TorusGrid(4)
    eta = ScalarField(grid, np.full(4, 1.0))
    mult = NoiseModel((NoiseMode(
        sigma=1.0, alpha=0.0, beta=1.0),))
    errs = []
    for n in (4, 8, 16, 32):
        values = skeleton_per_step(eta, np.full((1, 4), 1.0)[None], mult,
                                   n)[:, 0]
        errs.append(abs(float(values[-1][0]) - math.e))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert all(r > 3.5 for r in rates)


def test_skeleton_requires_bin_divisibility(small_eta, unit_additive):
    with pytest.raises(ValueError):
        integrate_skeleton(small_eta, np.zeros((1, 3))[None], unit_additive,
                           16, np.zeros((17, small_eta.grid.cells)))


_SKELETON_NOISES = {
    "additive-1": (NoiseMode(sigma=0.8),),
    "multiplicative-1": (NoiseMode(sigma=0.6, alpha=0.0, beta=1.0),),
    "additive-2": (NoiseMode(sigma=0.8),
                   NoiseMode(sigma=0.3, profile="cos", wavenumber=1)),
    "multiplicative-2": (NoiseMode(sigma=0.6, alpha=0.0, beta=1.0),
                         NoiseMode(sigma=0.25, profile="sin", wavenumber=2,
                                   alpha=0.5, beta=0.75)),
}


@pytest.mark.parametrize("kind", sorted(_SKELETON_NOISES))
def test_skeleton_rows_independent_of_stack_height(kind):
    # heights 1, 40 (one line-search ladder) and 1025 (2 * 512 + 1, the
    # finite-difference bundle at the dimension cap)
    noise = NoiseModel(_SKELETON_NOISES[kind])
    eta = make_initial(TorusGrid(8), "sine", mean=0.5, amp=0.5, mode=1)
    n_steps, bins = 64, 16
    gen = np.random.default_rng(9)
    stack = gen.normal(0.0, 0.7, (1025, noise.n_modes, bins))
    target = gen.normal(0.5, 0.4, (n_steps + 1, 8))
    res = integrate_skeleton(eta, stack, noise, n_steps, target=target)
    assert res.shape == (1025,)
    assert np.all(np.isfinite(res)) and np.all(res > 0.0)
    assert np.array_equal(integrate_skeleton(eta, stack[:40], noise, n_steps,
                                             target=target), res[:40])
    for i in (0, 17, 39, 1024):
        one = stack[i:i + 1]
        assert np.array_equal(integrate_skeleton(eta, one, noise, n_steps,
                                                 target=target),
                              res[i:i + 1]), i


def test_stacked_parts_built_once_per_grid(two_mode_noise):
    grid = TorusGrid(16)
    parts = two_mode_noise.stacked_parts(grid)
    assert two_mode_noise.stacked_parts(TorusGrid(16)) is parts
    assert not parts.flags.writeable
    want = np.concatenate(affine_parts(two_mode_noise, grid.centers), axis=1)
    assert np.array_equal(_bits(parts), _bits(want))
    assert two_mode_noise.stacked_parts(TorusGrid(8)).shape == (2, 16)


def test_stacked_parts_shared_across_threads(two_mode_noise):
    # more threads than cores and a short switch interval: every thread
    # must get the one array the cache kept
    noise = NoiseModel(two_mode_noise.modes)
    grid = TorusGrid(64)
    barrier = threading.Barrier(8)
    got = []

    def worker():
        barrier.wait(timeout=10)
        got.append(noise.stacked_parts(grid))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8
    assert all(parts is noise.stacked_parts(grid) for parts in got)


@pytest.mark.parametrize("lanes", [1, 40, 1025])
@pytest.mark.parametrize("cells", [2, 9, 130])
@pytest.mark.parametrize("kind", sorted(_SKELETON_NOISES))
def test_skeleton_tiles_match_per_step_reference(kind, cells, lanes):
    # one tile exactly, and three tiles with a partial last one
    noise = NoiseModel(_SKELETON_NOISES[kind])
    eta = make_initial(TorusGrid(cells), "sine", mean=0.5, amp=0.5, mode=1)
    bins = 16
    gen = np.random.default_rng(cells * 7919 + lanes)
    stack = gen.normal(0.0, 0.7, (lanes, noise.n_modes, bins))
    if lanes > 1:
        # the last lane's controls are near the float limit: under
        # multiplicative noise its state overflows to inf and nan
        stack[-1, :, ::2] = 1.7e308
        stack[-1, :, 1::2] = -1.7e308
    overflows = lanes > 1 and kind.startswith("multiplicative")
    for n_steps in (SKELETON_TILE, 2 * SKELETON_TILE + bins):
        target = gen.normal(0.5, 0.4, (n_steps + 1, cells))
        with np.errstate(all="ignore"):
            got = integrate_skeleton(eta, stack, noise, n_steps,
                                     target=target)
            ref = skeleton_per_step(eta, stack, noise, n_steps, target)
        finite = np.isfinite(ref)
        assert finite[:-1].all() and (finite[-1] or lanes > 1)
        assert not (overflows and finite[-1])
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


# a zero control under multiplicative noise has every z = dt * q1 at +-0,
# so it takes the running sum; one lane of infinite controls under
# additive noise makes z nan (inf times a zero beta part), so the whole
# stack keeps the affine map
@pytest.mark.parametrize("lanes", [1, 40])
@pytest.mark.parametrize("kind,control", [("multiplicative-2", "zero"),
                                          ("additive-2", "inf")])
def test_skeleton_running_sum_matches_per_step_reference(
        monkeypatch, kind, control, lanes):
    running_sum = control == "zero"
    noise = NoiseModel(_SKELETON_NOISES[kind])
    eta = make_initial(TorusGrid(9), "sine", mean=0.5, amp=0.5, mode=1)
    bins = 16
    gen = np.random.default_rng(lanes)
    if control == "zero":
        stack = np.zeros((lanes, noise.n_modes, bins))
        stack[::2, 0] = -0.0
    else:
        stack = gen.normal(0.0, 0.7, (lanes, noise.n_modes, bins))
        stack[-1, :, ::2] = np.inf
        stack[-1, :, 1::2] = -np.inf
    taken = []
    steps = solvers._skeleton_steps

    def spy(rows, amp, *args):
        taken.append(amp is None)
        steps(rows, amp, *args)

    monkeypatch.setattr(solvers, "_skeleton_steps", spy)
    for n_steps in (SKELETON_TILE, 2 * SKELETON_TILE + bins):
        target = gen.normal(0.5, 0.4, (n_steps + 1, 9))
        with np.errstate(all="ignore"):
            got = integrate_skeleton(eta, stack, noise, n_steps,
                                     target=target)
            ref = skeleton_per_step(eta, stack, noise, n_steps, target)
        finite = np.isfinite(ref)
        assert finite[:-1].all() and finite[-1] == running_sum
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert taken == [running_sum] * 4


# ---------------------------------------------------------------------------
# moments


def test_lp_moment_constant_and_riemann():
    grid = TorusGrid(10)
    c = ScalarField(grid, np.full(10, -1.5))
    traj_c = Trajectory(grid, uniform_times(4), skeleton_per_step(
        c, np.zeros((0, 1))[None], NoiseModel(()), 4)[:, 0])
    assert np.max(lp_norms(traj_c.values, 2.0, grid.dx)) == pytest.approx(
        2.25, abs=1e-14)
    grid4 = TorusGrid(4)
    step = make_initial(grid4, "riemann", left=1.0, right=0.0, x0=0.5)
    traj_s = Trajectory(grid4, uniform_times(4), skeleton_per_step(
        step, np.zeros((0, 1))[None], NoiseModel(()), 4)[:, 0])
    assert np.max(lp_norms(traj_s.values, 1.0, grid4.dx)) == pytest.approx(
        0.5, abs=1e-14)


# ---------------------------------------------------------------------------
# a path's numbers do not depend on the block it runs in


def test_batched_pair_distances_match_scalar(small_eta, burgers,
                                             two_mode_noise):
    cfg = SimConfig(epsilon=0.2, cells=32, seed=21, dt=1.0 / 64,
                    cfl_fraction=0.9)
    idx = np.arange(5)
    batched = pair_l1_distances(small_eta, cfg, burgers, two_mode_noise, idx)
    single = np.concatenate([pair_l1_distances(small_eta, cfg, burgers,
                                               two_mode_noise, [i])
                             for i in idx])
    assert np.array_equal(batched, single)


def test_batched_moments_match_scalar(small_eta, burgers, two_mode_noise):
    cfg = SimConfig(epsilon=0.2, cells=32, seed=21, dt=1.0 / 64,
                    cfl_fraction=0.9)
    idx = np.arange(3)
    # p = inf observes the largest |.|
    p_list = [1.0, 2.0, math.inf]
    batched = pair_moment_maxes(small_eta, cfg, burgers, two_mode_noise, idx,
                                p_list)
    for r, i in enumerate(idx):
        u, v = _pair(small_eta, cfg, burgers, two_mode_noise, int(i))
        for c, p in enumerate(p_list[:2]):
            assert batched[r, c, 0] == np.max(lp_norms(u.values, p, u.grid.dx))
            assert batched[r, c, 1] == np.max(lp_norms(v.values, p, v.grid.dx))
        assert batched[r, 2, 0] == np.max(np.abs(u.values))
        assert batched[r, 2, 1] == np.max(np.abs(v.values))


def test_batched_endpoints_match_scalar(small_eta, burgers, two_mode_noise):
    cfg = SimConfig(epsilon=0.2, cells=32, seed=21, dt=1.0 / 64,
                    cfl_fraction=0.9)
    idx = np.arange(4)
    ends = scaled_endpoints(small_eta, cfg, burgers, two_mode_noise, idx)
    dynamics = _scaled(cfg, burgers, small_eta)
    for r, i in enumerate(idx):
        # the recorded run of path i on the scaled stream, in tiles of 4
        # snapshots: the 65th, the last, is a tile of its own
        tiles = []
        _block(small_eta, cfg, burgers, two_mode_noise, dynamics, [int(i)],
               STREAM_SCALED, record=(1, 4, lambda buf, first: tiles.append(
                   (first, buf[0, 0].copy()))))
        assert [first for first, _ in tiles] == list(range(0, 65, 4))
        assert np.array_equal(ends[r], tiles[-1][1][-1])
    base = base_small_time_endpoints(small_eta, 0.2, cfg, burgers,
                                     two_mode_noise, idx)
    for r, i in enumerate(idx):
        fld = _base_end(small_eta, 0.2, cfg, burgers, two_mode_noise, int(i))
        assert np.array_equal(base[r], fld)


def test_coupled_pair_members_match_single_runs(small_eta, burgers,
                                                two_mode_noise):
    cfg = SimConfig(epsilon=0.2, cells=32, seed=21, dt=1.0 / 64,
                    cfl_fraction=0.9, save_stride=4)
    u, v = _pair(small_eta, cfg, burgers, two_mode_noise, 2)
    alone = _run(small_eta, cfg, burgers, two_mode_noise, 2)
    # the zero-flux run on the pair's grid (dt is explicit) and increments
    free = _run(small_eta, cfg, make_flux("zero"), two_mode_noise, 2)
    assert np.array_equal(u.values, alone.values)
    assert np.array_equal(v.values, free.values)
    assert np.array_equal(u.times, free.times)


@pytest.mark.parametrize("indices, stride", [
    ([0], 1), ([0, 1], 3),
    # a partial block that starts at PAIR_BLOCK
    (range(PAIR_BLOCK, PAIR_BLOCK + 3), 4)])
def test_pair_block_rows_match_single_pairs(two_mode_noise, burgers,
                                            indices, stride):
    eta = make_initial(TorusGrid(16), "sine", mean=0.0, amp=0.5, mode=1)
    cfg = SimConfig(epsilon=0.2, cells=16, seed=9, dt=1.0 / 32,
                    cfl_fraction=0.9, save_stride=stride)
    block = recorded_runs(eta, cfg, burgers, two_mode_noise, indices)
    assert len(block) == len(indices)
    for i, pair in zip(indices, block):
        alones = [_pair(eta, cfg, burgers, two_mode_noise, i)]
        if i == 0:
            # simulate's recording of path 0
            alones.append(solve_coupled_pair(eta, cfg, burgers,
                                             two_mode_noise))
        for alone in alones:
            assert len(alone) == 2
            for got, want in zip(pair, alone):
                assert got.values.shape == want.values.shape
                assert np.array_equal(got.values.view(np.uint64),
                                      want.values.view(np.uint64)), i
                assert np.array_equal(got.times.view(np.uint64),
                                      want.times.view(np.uint64)), i


# Burgers under Lie keeps the ids 1..3; the other cases run every
# in-place branch of eo_flux, and Strang reuses the flux buffers twice
# per step
_BLOCK_CASES = (
    [pytest.param("burgers", "lie", k, id=str(k)) for k in (1, 2, 3)]
    + [pytest.param(f, s, k, id=f"{f}-{s}-{k}")
       for f in ("burgers", "linear_neg", "cubic")
       for s in ("lie", "strang") for k in (1, 2, 3)
       if (f, s) != ("burgers", "lie")])


@pytest.mark.parametrize("flux_name, splitting, n_modes", _BLOCK_CASES)
def test_rows_independent_of_block_width(flux_name, splitting, n_modes):
    flux = _EO_FLUXES[flux_name]
    modes = (NoiseMode(sigma=0.4, alpha=0.0, beta=1.0),
             NoiseMode(sigma=0.25, profile="cos", wavenumber=1, alpha=1.0,
                       beta=0.5),
             NoiseMode(sigma=0.3, profile="sin", wavenumber=2, alpha=-0.5,
                       beta=0.25))
    noise = NoiseModel(modes[:n_modes])
    grid = TorusGrid(8)
    eta = make_initial(grid, "sine", mean=0.0, amp=0.5, mode=1)
    cfg = SimConfig(epsilon=0.3, cells=8, seed=4, dt=1.0 / 16,
                    cfl_fraction=0.9, splitting=splitting)
    full = np.arange(_BATCH)
    partial = full[:_BATCH // 3]
    singles = (0, 5, _BATCH // 3 - 1)
    sweeps = {
        "gap": lambda idx: pair_l1_distances(eta, cfg, flux, noise, idx),
        "moments": lambda idx: pair_moment_maxes(eta, cfg, flux, noise,
                                                 idx, [1.0, 2.0, 3.5]),
        "scaled": lambda idx: scaled_endpoints(eta, cfg, flux, noise, idx),
        "base": lambda idx: base_small_time_endpoints(eta, 0.3, cfg, flux,
                                                      noise, idx),
    }
    for name, sweep in sweeps.items():
        wide = sweep(full)
        assert np.array_equal(sweep(partial), wide[:len(partial)]), name
        for i in singles:
            assert np.array_equal(sweep([i])[0], wide[i]), (name, i)


def test_batched_cfl_failure_names_offender(small_eta, burgers):
    # large multiplicative noise at a generous dt blows the certificate
    wild = NoiseModel((NoiseMode(
        sigma=40.0, alpha=1.0, beta=1.0),))
    cfg = SimConfig(epsilon=0.9, cells=32, seed=1, dt=1.0 / 16,
                    cfl_fraction=0.5)
    with pytest.raises(NumericalFailure) as err:
        pair_l1_distances(small_eta, cfg, burgers, wild, np.arange(4))
    assert err.value.path_index is not None
    assert err.value.step is not None


@pytest.mark.parametrize("splitting", ["lie", "strang"])
def test_pair_sweep_allocates_no_per_step_block(two_mode_noise, burgers,
                                                splitting):
    # a block holds u, v, c0, c1 and three scratch arrays; one more
    # (rows, cells) temporary per step would lift the peak past 8
    rows, cells, n = 256, 64, 256
    eta = make_initial(TorusGrid(cells), "sine", mean=0.0, amp=0.5, mode=1)
    inc = block_increments(7, STREAM_MAIN, range(rows), n, 2, 1.0 / n)
    tracemalloc.start()
    try:
        _sweep(eta, burgers, 0.1, two_mode_noise, math.sqrt(0.1), 1.0 / n,
               inc, splitting, 0.9, range(rows), pair=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * rows * cells * 8


def test_coupled_pair_holds_its_tile_and_one_copy(two_mode_noise, burgers):
    # the shipped grid and step: the recording tile holds both runs' 257
    # snapshots, and the two Trajectories copy them once.  The rest is
    # small: the path's increments, the one-row stepping arrays and a
    # copy's finiteness mask, a byte per value of one run
    eta = make_initial(TorusGrid(64), "sine", mean=0.0, amp=0.5, mode=1)
    cfg = SimConfig(epsilon=0.1, cells=64, seed=2024, dt=1.0 / 256,
                    cfl_fraction=0.9)
    tracemalloc.start()
    try:
        pair = solve_coupled_pair(eta, cfg, burgers, two_mode_noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    snapshots = sum(run.values.nbytes for run in pair)
    assert snapshots == 2 * 257 * 64 * 8
    assert peak <= 2.125 * snapshots


def test_trajectory_copies_what_another_holder_can_write():
    grid, times = TorusGrid(4), np.array([0.0, 0.5, 1.0])
    values = np.arange(12.0).reshape(3, 4)
    traj = Trajectory(grid, times, values)
    values[1, 2] = -7.0
    assert traj.values[1, 2] == 6.0
    assert not traj.values.flags.writeable
    # a read-only view of a writeable array is copied as well
    view = values.view()
    view.setflags(write=False)
    assert not np.shares_memory(Trajectory(grid, times, view).values, values)
    # a block of a read-only buffer is copied too
    frozen = np.arange(24.0).reshape(2, 3, 4).copy()
    frozen.setflags(write=False)
    assert not np.shares_memory(Trajectory(grid, times, frozen[1]).values,
                                frozen)


# ---------------------------------------------------------------------------
# trajectory export


def trajectory_from_csv(lines) -> Trajectory:
    """Inverse of the CLI's trajectory CSV (exact, thanks to repr
    round-trip)."""
    header = lines[0].split(",")
    if header[0] != "t" or not all(h == f"cell_{i}" for i, h
                                   in enumerate(header[1:])):
        raise ValueError("unrecognized trajectory header")
    data = np.array([[float(tok) for tok in line.split(",")]
                     for line in lines[1:]])
    grid = TorusGrid(len(header) - 1)
    return Trajectory(grid, data[:, 0], data[:, 1:])


def test_trajectory_csv_roundtrip(small_eta, burgers, two_mode_noise):
    cfg = SimConfig(epsilon=0.1, cells=32, seed=5, dt=1.0 / 64,
                    cfl_fraction=0.9, save_stride=4)
    traj = _run(small_eta, cfg, burgers, two_mode_noise)
    lines = cli._trajectory_csv(traj)
    assert lines[0] == "t," + ",".join(f"cell_{i}" for i in range(32))
    assert len(lines) == 1 + len(traj.times)
    back = trajectory_from_csv(lines)
    assert np.array_equal(back.values, traj.values)
    assert np.array_equal(back.times, traj.times)
