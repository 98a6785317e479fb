import math
import warnings

import numpy as np
import pytest

from sclaw import cli
from sclaw.errors import ConfigError, NumericalFailure
from sclaw.grid import ScalarField, TorusGrid, Trajectory, make_initial
from sclaw.models import NoiseMode, NoiseModel, additive_noise
from sclaw.ratefn import (ARMIJO, BACKTRACKING_STEPS, Control, OptConfig,
                          RateResult, _fd_bundle, _line_search, _objectives,
                          action, constant_target, drift_target,
                          inverse_dynamics_start, rate_estimate,
                          skeleton_residual, uniform_times)

from oracles import skeleton_per_step


def refine_control(h: Control) -> Control:
    """Same function on twice as many bins (exact piecewise embedding)."""
    return Control(np.repeat(h.values, 2, axis=1))


@pytest.fixture(scope="module")
def flat8():
    return make_initial(TorusGrid(8), "constant", value=0.0)


@pytest.fixture(scope="module")
def unit_mode():
    return additive_noise(1.0)


# ---------------------------------------------------------------------------
# control representation


def test_control_shape_and_finiteness():
    with pytest.raises(ValueError):
        Control(np.zeros(4))
    with pytest.raises(ValueError):
        Control(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        Control(np.array([[np.nan]]))
    h = Control(np.zeros((0, 4)))
    assert h.n_modes == 0 and h.bins == 4


def test_control_is_frozen():
    h = Control(np.ones((1, 2)))
    with pytest.raises(ValueError):
        h.values[0, 0] = 2.0


def test_action_values():
    assert action(Control(np.zeros((2, 5)))) == 0.0
    c = Control(np.full((1, 7), 0.7))
    assert action(c) == pytest.approx(0.5 * 0.49, abs=1e-15)
    h = Control(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert action(h) == pytest.approx(7.5)


def test_refine_preserves_function_and_action():
    h = Control(np.array([[1.0, -2.0]]))
    r = refine_control(h)
    assert r.bins == 4
    assert np.array_equal(r.values, [[1.0, 1.0, -2.0, -2.0]])
    assert action(r) == action(h)
    rr = refine_control(r)
    assert rr.bins == 8 and action(rr) == action(h)


def test_uniform_times_grid():
    t = uniform_times(5)
    assert t[0] == 0.0 and t[-1] == 1.0 and len(t) == 6
    assert np.allclose(np.diff(t), 0.2)


# ---------------------------------------------------------------------------
# targets


def test_drift_and_constant_targets(flat8):
    d = drift_target(flat8, 0.7, 10)
    assert d.values.shape == (11, 8)
    assert np.allclose(d.values[-1], 0.7)
    assert np.allclose(d.values[5], 0.35)
    c = constant_target(flat8, 10)
    assert np.allclose(c.values, 0.0)


# ---------------------------------------------------------------------------
# residual and objective


def test_residual_zero_when_target_is_reachable(flat8, unit_mode):
    target = drift_target(flat8, 0.7, 32)
    h = Control(np.full((1, 8), 0.7))
    assert skeleton_residual(h, target, unit_mode, flat8) <= 1e-12


def test_residual_hand_value(flat8, unit_mode):
    # unit drive against a frozen target: gap t integrates to 1/2
    target = constant_target(flat8, 32)
    h = Control(np.full((1, 8), 1.0))
    assert skeleton_residual(h, target, unit_mode, flat8) == pytest.approx(
        0.5, abs=1e-12)


def test_residual_requires_divisible_bins(flat8, unit_mode):
    target = drift_target(flat8, 0.7, 10)
    with pytest.raises(ValueError):
        skeleton_residual(Control(np.zeros((1, 3))), target, unit_mode,
                          flat8)


def test_residual_rejects_foreign_time_grid(flat8, unit_mode):
    target = drift_target(flat8, 0.7, 8)
    bent = Trajectory(flat8.grid, target.times ** 2, target.values)
    with pytest.raises(ValueError, match="time grid"):
        skeleton_residual(Control(np.zeros((1, 4))), bent, unit_mode, flat8)


def penalty_objective(h, lam, rho_target, noise, eta):
    """action + lam * residual^2 of one control: the scalar reference
    for the optimizer's stacked objectives."""
    res = skeleton_residual(h, rho_target, noise, eta)
    phi = action(h) + lam * res * res
    if not math.isfinite(phi):
        raise NumericalFailure("non-finite penalty objective")
    return phi


def test_penalty_objective_combines_action_and_residual(flat8, unit_mode):
    target = constant_target(flat8, 32)
    h = Control(np.full((1, 8), 1.0))
    res = skeleton_residual(h, target, unit_mode, flat8)
    phi = penalty_objective(h, 50.0, target, unit_mode, flat8)
    assert phi == pytest.approx(action(h) + 50.0 * res * res, rel=1e-14)


# ---------------------------------------------------------------------------
# gradients


def central_gradient(fn, x, step):
    """Central finite differences of a scalar function, one coordinate
    at a time: the reference for the batched gradient."""
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (fn(xp) - fn(xm)) / (2.0 * step)
    return g


def objective_gradient(h, lam, target, noise):
    """The optimizer's batched central-difference gradient at h."""
    objectives = _objectives(lam, h.n_modes, h.bins, target, noise,
                             ScalarField(target.grid, target.values[0]))
    return _fd_bundle(objectives, h.values.flatten())[0]


def test_central_gradient_quadratic_exact():
    grad = central_gradient(lambda x: float(x @ x), np.array([1.0, -2.0, 3.0]),
                            1e-6)
    assert np.allclose(grad, [2.0, -4.0, 6.0], atol=1e-8)


def test_objective_gradient_matches_secant(flat8, unit_mode):
    target = drift_target(flat8, 0.7, 16)
    h = Control(np.array([[0.3, 0.9, -0.2, 0.5]]))
    lam = 25.0
    g = objective_gradient(h, lam, target, unit_mode)

    def fn(flat):
        return penalty_objective(Control(flat.reshape(1, 4)), lam, target,
                                 unit_mode, flat8)

    ref = central_gradient(fn, h.values.flatten(), 1e-6)
    assert np.allclose(g, ref, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# line search


def _sequential_search(x, d, phi, slope, lam, target, noise, eta, shape):
    """The backtracking loop one scalar objective at a time: steps from 1,
    halved while >= 1e-12."""
    s = 1.0
    while s >= 1e-12:
        try:
            cand = penalty_objective(Control((x + s * d).reshape(shape)), lam,
                                     target, noise, eta)
        except NumericalFailure:
            cand = math.inf
        if cand <= phi + ARMIJO * s * slope or cand < phi - 1e-14:
            return s, cand
        s *= 0.5
    return None


def _search_case(noise, eta, slope_t, bins, x, lam, scale=1.0, ascent=False,
                 overstate=1.0):
    """(sequential, batched) line searches from x along the scaled
    negative gradient (or, with ascent, along the gradient), with the
    directional slope overstated by a factor."""
    target = drift_target(eta, slope_t, 64)
    shape = (noise.n_modes, bins)
    h = Control(np.asarray(x, dtype=float).reshape(shape))
    phi = penalty_objective(h, lam, target, noise, eta)
    g = objective_gradient(h, lam, target, noise)
    d = (g if ascent else -g) * (scale / math.sqrt(float(g @ g)))
    slope = -abs(float(g @ d)) * overstate
    xf = h.values.flatten()
    with np.errstate(all="ignore"):
        ref = _sequential_search(xf, d, phi, slope, lam, target, noise, eta,
                                 shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _line_search(_objectives(lam, *shape, target, noise, eta), xf,
                           d, phi, slope)
    return ref, got


def test_backtracking_ladder_default():
    steps = BACKTRACKING_STEPS
    assert len(steps) == 40
    assert steps[0] == 1.0 and steps[-1] == 2.0 ** -39
    assert np.all(steps[1:] == 0.5 * steps[:-1])
    with pytest.raises(ValueError):
        steps[0] = 2.0


_FLAT8 = make_initial(TorusGrid(8), "constant", value=0.0)
_SINE8 = make_initial(TorusGrid(8), "sine", mean=0.2, amp=0.5, mode=1)
_TWO_MODES = NoiseModel((NoiseMode(sigma=1.0),
                         NoiseMode(sigma=0.5, profile="cos", wavenumber=1,
                                   alpha=0.5, beta=0.5)))
_JITTER = np.random.default_rng(5).standard_normal(16)
_SEARCH_CASES = {
    # name: (noise, eta, target slope, bins, x, lam, _search_case options)
    "start": (additive_noise(1.0), _FLAT8, 0.7, 16, np.zeros(16), 10.0,
              {"scale": 3.0}),
    "near-optimum": (additive_noise(1.0), _FLAT8, 0.7, 16,
                     0.7 + 1e-3 * _JITTER, 1e4, {"scale": 0.1}),
    "two-modes": (_TWO_MODES, _SINE8, -0.4, 8, 0.3 * _JITTER, 100.0,
                  {"scale": 20.0}),
    # no step meets Armijo against a slope overstated 1e5 times, so the
    # plain-decrease rule must take the first lane that drops
    "plain-decrease": (additive_noise(1.0), _FLAT8, 0.7, 16, np.zeros(16),
                       10.0, {"scale": 3.0, "overstate": 1e5}),
    "ascent": (additive_noise(1.0), _FLAT8, 0.7, 16, np.zeros(16), 10.0,
               {"ascent": True}),
}


@pytest.mark.parametrize("case", list(_SEARCH_CASES))
def test_batched_line_search_matches_sequential(case):
    *args, options = _SEARCH_CASES[case]
    ref, got = _search_case(*args, **options)
    if case == "ascent":
        assert ref is None and got is None
    else:
        assert ref is not None and got == ref


def test_batched_line_search_skips_overflowing_lanes():
    # u' = h u from u = 1: the largest steps drive exp(int h) past the
    # float range; those lanes must read +inf without a warning or a
    # NumericalFailure, and the first finite lane that passes is taken
    mult = NoiseModel((NoiseMode(sigma=1.0, alpha=0.0, beta=1.0),))
    eta = make_initial(TorusGrid(8), "constant", value=1.0)
    ref, got = _search_case(mult, eta, 0.7, 16, np.zeros(16), 100.0,
                            scale=4e4)
    assert ref is not None and got == ref
    assert ref[0] < 1.0 / 64


# ---------------------------------------------------------------------------
# inverse-dynamics initializer


def test_inverse_dynamics_recovers_additive_control(flat8, unit_mode):
    true = Control(np.array([[0.8, -0.3, 0.1, 0.6]]))
    target = Trajectory(flat8.grid, uniform_times(32), skeleton_per_step(
        flat8, true.values[None], unit_mode, 32)[:, 0])
    start = inverse_dynamics_start(target, unit_mode, bins=4)
    assert np.allclose(start.values, true.values, atol=1e-12)


def test_inverse_dynamics_drift_slope(flat8, unit_mode):
    target = drift_target(flat8, 0.7, 32)
    start = inverse_dynamics_start(target, unit_mode, bins=8)
    assert np.allclose(start.values, 0.7, atol=1e-12)


def test_inverse_dynamics_edge_cases(flat8):
    target = drift_target(flat8, 0.7, 32)
    empty = inverse_dynamics_start(target, NoiseModel(()), bins=4)
    assert empty.values.shape == (0, 4)
    with pytest.raises(ValueError):
        inverse_dynamics_start(target, additive_noise(1.0), bins=5)


# ---------------------------------------------------------------------------
# optimizer configuration and results


def test_opt_config_validation():
    with pytest.raises(ValueError):
        OptConfig(lambda_ladder=())
    with pytest.raises(ValueError):
        OptConfig(lambda_ladder=(10.0, 10.0))
    with pytest.raises(ValueError):
        OptConfig(lambda_ladder=(-1.0, 10.0))
    with pytest.raises(ValueError):
        OptConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptConfig(tol_feas=0.0)


def test_rate_result_report_format():
    res = RateResult(0.245, Control(np.full((1, 2), 0.7)), 1e-9, True, 42)
    files = cli._rate_files(res)
    lines = files["rate.txt"]
    assert lines[0] == "i_hat 0.245"
    assert lines[3] == "feasible true"
    assert lines[4] == "iterations 42"
    csv = files["rate_control.csv"]
    assert csv[0] == "bin,mode,value"
    assert len(csv) == 3
    assert csv[1] == "0,0,0.7"


# ---------------------------------------------------------------------------
# rate estimation


def test_rate_constant_target_is_free(flat8, unit_mode):
    res = rate_estimate(constant_target(flat8, 32), unit_mode, bins=4,
                        eta=flat8, opt=OptConfig())
    assert res.feasible
    assert res.i_hat == 0.0
    assert res.residual <= 1e-12


def test_rate_drift_target_quadratic_cost(flat8, unit_mode):
    res = rate_estimate(drift_target(flat8, 0.7, 32), unit_mode, bins=4,
                        eta=flat8, opt=OptConfig())
    assert res.feasible
    assert res.i_hat == pytest.approx(0.5 * 0.49, abs=1e-3)
    assert res.residual <= 1e-3


def test_rate_unreachable_target_signals_infeasible(flat8):
    dead = NoiseModel((NoiseMode(sigma=0.0),))
    res = rate_estimate(drift_target(flat8, 0.7, 32), dead, bins=4,
                        eta=flat8, opt=OptConfig())
    assert not res.feasible
    assert res.i_hat == math.inf
    assert math.isfinite(res.residual)
    assert res.residual == pytest.approx(0.35, abs=1e-6)


def test_rate_dimension_cap(flat8):
    with pytest.raises(ConfigError):
        rate_estimate(constant_target(flat8, 600), additive_noise(1.0),
                      bins=600, eta=flat8, opt=OptConfig())


def test_rate_rejects_indivisible_bins(flat8, unit_mode):
    with pytest.raises(ValueError):
        rate_estimate(constant_target(flat8, 30), unit_mode, bins=4,
                      eta=flat8, opt=OptConfig())
