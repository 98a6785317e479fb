import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sclaw import models
from sclaw.grid import ScalarField, TorusGrid, make_initial
from sclaw.models import (PROFILE_KINDS, CheckResult, FluxModel, NoiseMode,
                          NoiseModel, NoisePath, SimConfig, _common_scale,
                          _pow2_floor, _ratio_check, _rescaled, _Worst,
                          additive_noise, block_increments,
                          check_mode_constants, check_state_bound, make_flux,
                          validate_flux, validate_noise)

from oracles import coarsen, noise_g, validate_flux_untiled


# ---------------------------------------------------------------------------
# grids and fields


def test_grid_geometry_exact():
    g = TorusGrid(8)
    assert g.dx * g.cells == 1.0
    assert g.centers.shape == (8,)
    assert np.allclose(np.diff(g.centers), g.dx)


def test_grid_rejects_tiny():
    with pytest.raises(ValueError):
        TorusGrid(1)


def test_field_rejects_nonfinite():
    g = TorusGrid(4)
    with pytest.raises(ValueError):
        ScalarField(g, np.array([0.0, 1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(3))


def test_initial_constant():
    f = make_initial(TorusGrid(8), "constant", value=0.5)
    assert np.array_equal(f.values, np.full(8, 0.5))


def test_initial_riemann_cell_averages():
    f = make_initial(TorusGrid(4), "riemann", left=1.0, right=0.0, x0=0.5)
    assert np.array_equal(f.values, np.array([1.0, 1.0, 0.0, 0.0]))
    # jump inside a cell becomes a partial average
    f2 = make_initial(TorusGrid(2), "riemann", left=1.0, right=0.0, x0=0.25)
    assert np.allclose(f2.values, [0.5, 0.0])


def test_initial_sine_zero_mean():
    f = make_initial(TorusGrid(128), "sine", mean=0.0, amp=1.0, mode=1)
    assert abs(np.mean(f.values)) <= 1e-12


def test_initial_unknown_params_rejected():
    with pytest.raises(ValueError):
        make_initial(TorusGrid(8), "sine", mean=0.0, amp=1.0, mode=1, tilt=2)
    with pytest.raises(ValueError):
        make_initial(TorusGrid(8), "constant")


# ---------------------------------------------------------------------------
# flux certificates


def test_flux_burgers_passes():
    rep = validate_flux(make_flux("burgers"))
    assert rep.passed
    assert all(c.worst_ratio <= 1.0 for c in rep.checks)


def test_flux_zero_passes_with_zero_constant():
    rep = validate_flux(FluxModel(kind="zero", growth_power=2.0,
                                  growth_const=0.0))
    assert rep.passed


def test_flux_cubic_speed_fails_quadratic_certificate():
    # a(x) = x^3 grows faster than the declared 1 + |x|^2 envelope
    cubic = FluxModel(kind="polynomial", coeffs=(0.0, 0.0, 0.0, 0.0, 0.25),
                      growth_power=2.0, growth_const=1.0)
    rep = validate_flux(cubic)
    assert not rep.passed
    worst = max(c.worst_ratio for c in rep.checks)
    assert worst >= 1000.0 / 101.0 - 1e-9


def test_flux_certificate_monotone_in_range():
    flux = make_flux("burgers")
    assert validate_flux(flux).passed


def test_burgers_sup_abs_a_matches_candidate_evaluation():
    def by_candidates(flux, lo, hi):
        # the former evaluation: |a| at both ends and at the critical
        # point 0 when it lies inside
        cand = [lo, hi] + [r for r in (0.0,) if lo < r < hi]
        return float(np.max(np.abs(flux.a(np.array(cand)))))

    flux = make_flux("burgers")
    tiny = float(np.finfo(float).smallest_subnormal)
    ends = (-1e150, -2.5, -1.0, -tiny, -0.0, 0.0, tiny, 0.75, 1.0, 2.5,
            1e150)
    for lo in ends:
        for hi in ends:
            new = flux.sup_abs_a(lo, hi)
            old = by_candidates(flux, lo, hi)
            assert type(new) is float
            assert math.copysign(1.0, new) == 1.0 and new == old, (lo, hi)


# ---------------------------------------------------------------------------
# noise certificates


def test_noise_constant_mode_consts():
    model = additive_noise(1.0)
    rep = validate_noise(model)
    assert rep.passed
    assert np.array_equal(model.mode_growth_consts(), [1.0])
    assert np.array_equal(model.mode_lipschitz_consts(), [0.0])
    assert model.D0 == 2.0
    assert model.D1 == 0.0


def test_noise_identity_mode_consts():
    model = NoiseModel((NoiseMode(sigma=1.0, alpha=0.0, beta=1.0),))
    rep = validate_noise(model)
    assert rep.passed
    assert model.mode_growth_consts()[0] == 1.0
    assert model.mode_lipschitz_consts()[0] == 1.0
    assert model.D0 == 2.0 and model.D1 == 2.0


def test_noise_two_cos_modes_certificate():
    modes = tuple(NoiseMode(sigma=1.0 / k, profile="cos", wavenumber=k,
                            alpha=1.0, beta=1.0) for k in (1, 2))
    model = NoiseModel(modes, state_bound=10.0)
    rep = validate_noise(model)
    assert rep.passed
    assert np.allclose(model.mode_growth_consts(), [2.0, 1.0])


def test_noise_aggregate_identities():
    model = NoiseModel((
        NoiseMode(sigma=0.4, alpha=0.0, beta=1.0),
        NoiseMode(sigma=0.25, profile="cos", wavenumber=1, alpha=1.0,
                  beta=0.5),
    ))
    c0 = model.mode_growth_consts()
    c1 = model.mode_lipschitz_consts()
    assert model.D0 == 2.0 * float(np.sum(c0 * c0))
    assert model.D1 == 2.0 * float(np.sum(c1 * c1))


def test_noise_profile_validation():
    with pytest.raises(ValueError):
        NoiseMode(sigma=1.0, profile="tanh")
    with pytest.raises(ValueError):
        NoiseMode(sigma=1.0, profile="cos", wavenumber=0)


# relative slack where an inequality is attained with equality
_REL_SLACK = 1e-12
# absolute slack in units of a power-of-two-rescaled sigma: underflow
# errors lie far below it
_TINY = 2.0 ** -1000


def _holds(lhs, rhs) -> bool:
    return bool(np.all(lhs <= rhs * (1.0 + _REL_SLACK) + _TINY))


def _noise_lattice_holds(noise, n_x: int = 25, n_u: int = 25) -> bool:
    """Whether the four noise certificate inequalities (see NoiseModel)
    hold on the lattice of n_x points x in [0, 1) and n_u states u in
    [-b, b], b = state_bound, with the model's stated constants.

    Every inequality is homogeneous in sigma, so each is checked with
    sigma divided by a power of two, which is exact: a mode's own
    inequalities at its own scale, the sums at the scale of the largest
    sigma.  A difference of two computed values of g_k is off by a few
    ulps of M_k = |sigma_k| (|alpha_k| + |beta_k| b), the largest |g_k|,
    so it is shrunk by 8 ulps of M_k before it is compared.
    """
    b = noise.state_bound
    xs = np.linspace(0.0, 1.0, n_x, endpoint=False)
    u = np.linspace(-b, b, n_u)
    x = xs[:, None]
    x1, x2 = xs[:, None, None, None], xs[None, :, None, None]
    u1, u2 = u[None, None, :, None], u[None, None, None, :]
    dx, du = np.abs(x1 - x2), np.abs(u1 - u2)

    def gaps(model, k):
        m = model.modes[k]
        roundoff = 8.0 * np.spacing(abs(m.sigma)
                                    * (abs(m.alpha) + abs(m.beta) * b))
        gap = np.abs(noise_g(model, k, x1, u1) - noise_g(model, k, x2, u2))
        return np.maximum(gap - roundoff, 0.0)

    for mode in noise.modes:
        unit = _rescaled(NoiseModel((mode,), b), _pow2_floor(abs(mode.sigma)))
        if not (_holds(np.abs(noise_g(unit, 0, x, u)),
                       unit.mode_growth_consts()[0] * (1.0 + np.abs(u)))
                and _holds(gaps(unit, 0),
                           unit.mode_lipschitz_consts()[0] * (dx + du))):
            return False
    common = _rescaled(noise, _common_scale(noise))
    ks = range(common.n_modes)
    return (_holds(sum(noise_g(common, k, x, u) ** 2 for k in ks),
                   common.D0 * (1.0 + u * u))
            and _holds(sum(gaps(common, k) ** 2 for k in ks),
                       common.D1 * (dx * dx + du * du)))


@dataclass(frozen=True)
class _RampMode(NoiseMode):
    """g = sigma * x * (alpha + beta * u): a profile whose slope, 1 on
    [0, 1), a test can understate."""

    slope: float = 1.0

    def phi(self, x):
        return np.asarray(x, dtype=float) * 1.0

    @property
    def profile_slope(self) -> float:
        return self.slope


_SHIPPED_MODES = (NoiseMode(sigma=0.4, alpha=0.0, beta=1.0),
                  NoiseMode(sigma=0.25, profile="cos", wavenumber=1,
                            alpha=1.0, beta=0.5))

_NOISE_MODES = st.builds(
    NoiseMode, sigma=st.floats(-2.0, 2.0),
    profile=st.sampled_from(PROFILE_KINDS), wavenumber=st.integers(1, 8),
    alpha=st.floats(-2.0, 2.0), beta=st.floats(-2.0, 2.0))


@given(modes=st.lists(_NOISE_MODES, max_size=3),
       state_bound=st.floats(0.01, 100.0))
@example(modes=[NoiseMode(sigma=5e-324, profile="cos", wavenumber=2,
                          alpha=0.0, beta=1.0)],
         state_bound=10.0)                          # subnormal sigma
@example(modes=list(_SHIPPED_MODES), state_bound=10.0)
@settings(max_examples=50, deadline=None)
def test_noise_certificate_always_holds_on_a_lattice(modes, state_bound):
    """The derived constants bound every affine family, so the lattice
    never finds a violation, and validate_noise passes."""
    noise = NoiseModel(tuple(modes), state_bound)
    assert _noise_lattice_holds(noise)
    assert validate_noise(noise).passed


def test_noise_lattice_catches_an_understated_slope():
    ramp = _RampMode(sigma=0.7, alpha=1.0, beta=1.0)
    assert _noise_lattice_holds(NoiseModel((ramp,), state_bound=0.05))
    assert not _noise_lattice_holds(
        NoiseModel((replace(ramp, slope=0.5),), state_bound=0.05))


def _ratio_where(name, lhs, rhs, points):
    """The two-where ratio check, kept as the reference."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, lhs / rhs, np.where(lhs > 0, np.inf, 0.0))
    flat = int(np.argmax(ratio))
    worst = float(ratio.flat[flat])
    idx = np.unravel_index(flat, ratio.shape)
    point = tuple(float(np.broadcast_to(p, ratio.shape)[idx]) for p in points)
    return CheckResult(name, worst <= 1.0 + 1e-12, worst, point)


_RATIO_VALUES = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan,
                          5e-324, 1e308, 2.5])


@pytest.mark.parametrize("lhs_axis", [0, 1])
def test_ratio_check_matches_where_reference(lhs_axis):
    # lhs along one axis and rhs along the other, each side also given
    # full-shape; the whole cross, the cross without nan, every subset that
    # drops one value, and every single pair
    n = len(_RATIO_VALUES)
    pick = np.arange(n)
    subsets = [pick, pick[~np.isnan(_RATIO_VALUES)]]
    subsets += [np.delete(pick, i) for i in range(n)]
    cases = [(sl, sr) for sl in subsets for sr in subsets[:2]]
    cases += [(sr, sl) for sl, sr in cases]
    cases += [(pick[i:i + 1], pick[j:j + 1]) for i in pick for j in pick]
    lhs_shape, rhs_shape = ((-1, 1), (1, -1))[::1 - 2 * lhs_axis]
    for keep_l, keep_r in cases:
        # points are the value indices, so a nan value stays comparable
        il = keep_l.reshape(lhs_shape).astype(float)
        ir = keep_r.reshape(rhs_shape).astype(float)
        lhs = _RATIO_VALUES[keep_l].reshape(lhs_shape)
        rhs = _RATIO_VALUES[keep_r].reshape(rhs_shape)
        full = np.broadcast_shapes(lhs.shape, rhs.shape)
        for a, b in ((lhs, rhs), (np.broadcast_to(lhs, full).copy(), rhs),
                     (lhs, np.broadcast_to(rhs, full).copy())):
            with np.errstate(over="ignore"):
                ref = _ratio_where("r", a, b, [il, ir])
                got = _ratio_check("r", a, b, [il, ir])
            assert got.passed == ref.passed
            assert got.worst_point == ref.worst_point
            assert (np.float64(got.worst_ratio).view(np.uint64)
                    == np.float64(ref.worst_ratio).view(np.uint64))


# tiles of (lhs, rhs) rows fed to _Worst, against one _ratio_check over
# their concatenation; every tile is 3 columns wide
_NAN, _INF = np.nan, np.inf
_TILE_CASES = {
    "ties across tiles": [
        ([[0.5, 2.0, 1.0]], [[1.0, 1.0, 1.0]]),
        ([[2.0, 2.0, 0.0], [1.0, 2.0, 2.0]], [[1.0, 1.0, 1.0]] * 2),
        ([[4.0, 1.0, 4.0]], [[2.0, 1.0, 2.0]])],
    "nan in a later tile": [
        ([[3.0, 1.0, 0.0]], [[1.0, 1.0, 1.0]]),
        ([[5.0, _NAN, 1.0]], [[1.0, 1.0, 1.0]]),
        ([[7.0, _NAN, 9.0]], [[1.0, 1.0, _NAN]])],
    "nan first, then larger finite": [
        ([[0.5, _NAN, 0.5]], [[1.0, 1.0, 1.0]]),
        ([[1e308, 2.0, 0.5]], [[1.0, 1.0, 1.0]]),
        ([[_INF, 2.0, 0.5]], [[1.0, 1.0, 1.0]])],
    "inf ratios": [
        ([[2.0, 0.5, 0.0]], [[1.0, 1.0, 1.0]]),
        ([[1.0, 0.0, 1.0]], [[0.0, 0.0, -1.0]]),
        ([[_INF, 1e308, 3.0]], [[1.0, 5e-324, -0.0]])],
    "all below zero": [
        ([[-_INF, -1.0, -2.0]], [[1.0, 1.0, 1.0]]),
        ([[-1.0, -0.5, -_INF]], [[1.0, 2.0, 1.0]])],
}


def _assert_same_check(got, ref):
    assert got.name == ref.name
    assert got.passed == ref.passed
    assert got.worst_point == ref.worst_point
    assert (np.float64(got.worst_ratio).view(np.uint64)
            == np.float64(ref.worst_ratio).view(np.uint64))


def _tiles_against_one_check(tiles):
    """_Worst fed tiles along the leading axis, and _ratio_check over
    their concatenation, with the global (row, column) as the point."""
    worst, row = _Worst("r"), 0
    for lhs, rhs in tiles:
        lhs, rhs = np.array(lhs, dtype=float), np.array(rhs, dtype=float)
        rows = np.arange(row, row + lhs.shape[0], dtype=float)[:, None]
        with np.errstate(over="ignore"):
            worst.add(lhs, rhs, [rows, np.arange(3.0)])
        row += lhs.shape[0]
    lhs = np.concatenate([np.array(t[0], dtype=float) for t in tiles])
    rhs = np.concatenate([np.array(t[1], dtype=float) for t in tiles])
    with np.errstate(over="ignore"):
        ref = _ratio_check("r", lhs, rhs,
                           [np.arange(float(row))[:, None], np.arange(3.0)])
    _assert_same_check(worst.result(), ref)


@pytest.mark.parametrize("case", list(_TILE_CASES))
def test_worst_over_tiles_matches_one_ratio_check(case):
    _tiles_against_one_check(_TILE_CASES[case])


def test_worst_over_random_tilings_matches_one_ratio_check():
    # lattices drawn from the special values of the where reference, cut
    # into tiles at random rows
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        lhs = rng.choice(_RATIO_VALUES, size=(n, 3))
        rhs = rng.choice(_RATIO_VALUES, size=(n, 3))
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(
            rng.integers(0, n)), replace=False)) if n > 1 else []
        bounds = [0, *cuts, n]
        _tiles_against_one_check([(lhs[a:b], rhs[a:b])
                                  for a, b in zip(bounds, bounds[1:])])


_REFERENCE_FLUXES = {
    "burgers": make_flux("burgers"),
    "zero": FluxModel(kind="zero", growth_power=2.0, growth_const=0.0),
    "linear": make_flux("linear", speed=-1.5),
    "cubic, failing": FluxModel(kind="polynomial", growth_power=2.0,
                                growth_const=1.0,
                                coeffs=(0.0, 0.0, 0.0, 0.0, 0.25)),
    # worst at zeta = 9.98, in the last tile
    "skew cubic, failing": FluxModel(kind="polynomial", growth_power=2.0,
                                     growth_const=1.0,
                                     coeffs=(0.0, 0.0, 0.0, 0.1, 0.25)),
    "polynomial, q0 2.5": FluxModel(kind="polynomial", growth_power=2.5,
                                    growth_const=3.0,
                                    coeffs=(0.1, -1.0, 0.5, 0.02)),
    "polynomial, q0 3.7": FluxModel(kind="polynomial", growth_power=3.7,
                                    growth_const=0.5, coeffs=(0.0, 1.0, 0.5)),
}

def _assert_same_report(got, ref):
    assert got.subject == ref.subject
    assert [c.name for c in got.checks] == [c.name for c in ref.checks]
    for g, r in zip(got.checks, ref.checks):
        _assert_same_check(g, r)


@pytest.mark.parametrize("name", list(_REFERENCE_FLUXES))
def test_tiled_validate_flux_matches_untiled_reference(name, monkeypatch):
    flux = _REFERENCE_FLUXES[name]
    ref = validate_flux_untiled(flux)
    _assert_same_report(validate_flux(flux), ref)
    # tiles of 24 rows end in a partial tile of 16 (1024 = 42 * 24 + 16)
    monkeypatch.setattr(models, "_FLUX_TILE", 24)
    _assert_same_report(validate_flux(flux), ref)


def test_reference_cases_cover_failures_and_the_last_tile():
    flux = validate_flux(_REFERENCE_FLUXES["skew cubic, failing"])
    assert not flux.passed
    assert flux.checks[1].worst_point[1] >= 9.98 - 1e-9   # zeta, last tile
    # a stated noise constant fails only when it is not finite
    noise = validate_noise(NoiseModel((NoiseMode(
        sigma=1e200, profile="cos", wavenumber=1, alpha=1.0, beta=0.5),)))
    assert not noise.passed
    assert [c.name for c in noise.checks if not c.passed] == ["D0", "D1"]


@pytest.mark.parametrize("validate,model", [
    (validate_flux, make_flux("burgers")),
])
def test_validators_trace_under_8_mb(validate, model):
    # the whole lattice held 43 MB
    validate(model)
    tracemalloc.start()
    try:
        validate(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_validate_flux_trace_under_1_5_mb():
    # 64-row tiles of fresh temporaries traced 3.4 MB; 16-row tiles in
    # work arrays allocated once per call hold three 128 KB floats
    flux = make_flux("burgers")
    validate_flux(flux)
    tracemalloc.start()
    try:
        validate_flux(flux)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_validate_noise_fails_a_wavenumber_past_the_float_range():
    # 2 pi * wavenumber cannot convert to a float: its slope reads inf
    rep = validate_noise(NoiseModel((NoiseMode(0.25, "sin", 10 ** 400),)))
    assert [c.name for c in rep.checks if not c.passed] == ["mode0_C1",
                                                            "D1"]
    assert not rep.passed


def test_check_state_bound_names_only_its_own_overflow():
    check_state_bound(NoiseModel(_SHIPPED_MODES, state_bound=1e76))
    for bound in (1e77, 1e160, 1.7e308):
        with pytest.raises(ValueError, match="state_bound"):
            check_state_bound(NoiseModel(_SHIPPED_MODES, state_bound=bound))
    # D1 is infinite at any state bound: not the state bound's overflow
    with np.errstate(over="ignore"):
        check_state_bound(NoiseModel((NoiseMode(
            sigma=1e200, profile="cos", alpha=1.0, beta=0.5),),
            state_bound=1e100))


@pytest.mark.parametrize("mode,named", [
    (NoiseMode(sigma=1e200, profile="cos", alpha=1.0, beta=0.5), "sigma"),
    (NoiseMode(sigma=0.25, profile="cos", wavenumber=10 ** 300),
     "wavenumber"),
    # 2 pi * wavenumber is past the float range
    (NoiseMode(sigma=0.25, profile="sin", wavenumber=10 ** 400),
     "wavenumber"),
    (NoiseMode(sigma=0.25, alpha=1e200), "alpha"),
    (NoiseMode(sigma=0.25, profile="cos", alpha=0.0, beta=1e200), "beta"),
])
def test_check_mode_constants_names_the_overflowing_key(mode, named):
    noise = NoiseModel((_SHIPPED_MODES[0], mode))
    with pytest.raises(ValueError, match=re.escape(f"modes[1].{named} ")):
        check_mode_constants(noise)


def test_check_mode_constants_passes_finite_models():
    check_mode_constants(NoiseModel(_SHIPPED_MODES, state_bound=1e160))
    check_mode_constants(NoiseModel((
        NoiseMode(sigma=0.25, profile="constant", wavenumber=10 ** 400),)))
    # each mode's constants are finite, their sum is not
    with pytest.raises(ValueError, match=r"^modes overflow"):
        check_mode_constants(NoiseModel((NoiseMode(sigma=9e153),) * 2))


# ---------------------------------------------------------------------------
# counter-based noise path


def test_noise_path_reproducible_and_order_free():
    a = NoisePath.generate(7, 0, 3, 64, 2, 0.01)
    b = NoisePath.generate(7, 0, 3, 64, 2, 0.01)
    assert np.array_equal(a.increments, b.increments)
    # a different path index shares nothing and leaves `a` untouched
    c = NoisePath.generate(7, 0, 4, 64, 2, 0.01)
    assert not np.array_equal(a.increments, c.increments)
    assert np.array_equal(a.increments,
                          NoisePath.generate(7, 0, 3, 64, 2, 0.01).increments)


def test_block_increments_equal_stacked_paths():
    def philox_path(i, n_modes):
        # the documented keying: (seed, stream) is the Philox key and the
        # path index the high counter word
        bits = np.random.Philox(counter=[0, 0, i, 0], key=[7, 2])
        z = np.random.Generator(bits).standard_normal((40, n_modes))
        return math.sqrt(0.01) * z

    idx = [0, 3, 17, 2 ** 40]
    for n_modes in (0, 1, 3):
        block = block_increments(7, 2, idx, 40, n_modes, 0.01)
        stacked = np.stack([philox_path(i, n_modes) for i in idx], axis=-1)
        assert block.shape == (40, n_modes, len(idx))
        assert np.array_equal(block, stacked)
        for r, i in enumerate(idx):
            path = NoisePath.generate(7, 2, i, 40, n_modes, 0.01)
            assert np.array_equal(path.increments, block[:, :, r])
    with pytest.raises(ValueError):
        block_increments(7, 2, [-1], 40, 1, 0.01)


def test_block_increments_reject_keys_past_64_bits():
    # a masked key word would alias seed s and s + 2^64
    for seed, stream in ((2 ** 64, 0), (5 + 2 ** 64, 0), (0, 2 ** 64)):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            block_increments(seed, stream, [0], 4, 1, 0.01)
    # the largest key words reach Philox exactly: a float64 round trip
    # warned, and turned 2^64 - 1 into 0
    top = 2 ** 64 - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = block_increments(top, top, [0], 4, 1, 0.01)
    bits = np.random.Philox(key=np.array([top, top], dtype=np.uint64))
    z = np.random.Generator(bits).standard_normal((4, 1))
    z *= math.sqrt(0.01)
    assert np.array_equal(block[:, :, 0].view(np.uint64), z.view(np.uint64))


def test_block_increments_match_fresh_generators():
    # one generator is reset before every path; the repeated 5 after
    # other draws would expose a stale buffer position or cached word
    idx = [5, 3, 5, 0]
    for n_modes in (1, 3):
        block = block_increments(11, 4, idx, 37, n_modes, 0.02)
        for r, i in enumerate(idx):
            bits = np.random.Philox(counter=[0, 0, i, 0], key=[11, 4])
            z = np.random.Generator(bits).standard_normal((37, n_modes))
            z *= math.sqrt(0.02)
            assert np.array_equal(block[:, :, r].view(np.uint64),
                                  z.view(np.uint64)), (n_modes, r)


def test_noise_path_stream_separation():
    a = NoisePath.generate(7, 0, 0, 16, 1, 0.01)
    b = NoisePath.generate(7, 1, 0, 16, 1, 0.01)
    assert not np.array_equal(a.increments, b.increments)


def test_noise_path_variance():
    dt = 0.125
    path = NoisePath.generate(123, 0, 0, 10_000, 1, dt)
    var = float(np.var(path.increments))
    assert abs(var - dt) <= 0.05 * dt


def test_noise_path_coarsen_sums_increments():
    path = NoisePath.generate(5, 0, 0, 32, 2, 0.03125)
    coarse = coarsen(path, 4)
    assert coarse.increments.shape == (8, 2)
    assert coarse.dt == 0.125
    assert np.allclose(coarse.increments,
                       path.increments.reshape(8, 4, 2).sum(axis=1))
    with pytest.raises(ValueError):
        coarsen(path, 5)


# ---------------------------------------------------------------------------
# run configuration


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(epsilon=0.0, cells=8, seed=1)
    with pytest.raises(ValueError):
        SimConfig(epsilon=1.5, cells=8, seed=1)
    with pytest.raises(ValueError):
        SimConfig(epsilon=0.5, cells=8, seed=1, dt=0.3)   # does not divide 1
    with pytest.raises(ValueError):
        SimConfig(epsilon=0.5, cells=8, seed=1, splitting="yoshida")
    cfg = SimConfig(epsilon=0.5, cells=8, seed=1, dt=0.25)
    assert cfg.grid.cells == 8
