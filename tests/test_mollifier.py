import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from sclaw import mollifier
from sclaw.grid import TorusGrid
from sclaw.mollifier import (BASE_MOMENTS, TABLE_POINTS, KernelTables,
                             MollifierPair, _gauss_cumulative, _gtsv,
                             bump_norm, bump_raw, kernel_tables, psi,
                             psi_sup)

from oracles import kernel_cdf, psi_scalar

# independently frozen reference values (adaptive quadrature of the
# closed-form bump, double-checked below against a second route)
Z_REF = 0.44399381616807937
PSI_SUP_REF = 0.8285688398691053
XI_ZERO_REF = 0.16722699885498704


# ---------------------------------------------------------------------------
# unit kernel


def test_normalizer_value_and_oracle():
    assert bump_norm() == pytest.approx(Z_REF, abs=1e-13)
    # second route: fixed-order Gauss on a fine partition, no shared code
    knots = np.linspace(-1.0, 1.0, 2001)
    nodes, weights = np.polynomial.legendre.leggauss(12)
    lo, hi = knots[:-1], knots[1:]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(np.abs(pts) < 1.0,
                        np.exp(-1.0 / (1.0 - pts ** 2)), 0.0)
    total = float((half[:, None] * weights[None, :] * vals).sum())
    assert total == pytest.approx(Z_REF, abs=1e-13)


def test_normalizer_literal_is_the_quadrature_result():
    # the constant was frozen from this adaptive quadrature; same bits
    val, err = quad(lambda s: float(bump_raw(s)), -1.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-10
    assert (np.float64(bump_norm()).view(np.uint64)
            == np.float64(val).view(np.uint64))


def test_kernel_integrates_to_one():
    val, _ = quad(psi_scalar, -1.0, 1.0, epsabs=1e-12, limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_kernel_peak():
    assert psi_sup() == pytest.approx(PSI_SUP_REF, abs=1e-13)
    assert psi_sup() == pytest.approx(math.exp(-1.0) / bump_norm(), abs=0.0)
    assert float(psi(0.0)) == pytest.approx(psi_sup(), abs=1e-15)
    assert psi_sup() < 1.0


def test_kernel_support_and_symmetry():
    w = np.linspace(-2.0, 2.0, 401)
    vals = psi(w)
    assert np.all(vals[np.abs(w) >= 1.0] == 0.0)
    assert np.allclose(vals, vals[::-1], atol=0.0)
    assert np.all(vals >= 0.0)


def test_scalar_kernel_matches_array_kernel():
    for w in (-1.5, -1.0, -0.999, -0.3, 0.0, 0.7, 1.0, 4.2):
        assert psi_scalar(w) == pytest.approx(float(psi(w)), abs=1e-16)


def test_bump_raw_outside_support_is_zero():
    assert float(bump_raw(1.0)) == 0.0
    assert float(bump_raw(-3.0)) == 0.0


# ---------------------------------------------------------------------------
# tabulated antiderivatives


def test_gauss_legendre_literals():
    # the tables' 5-point rule is frozen as literals: symmetric, of total
    # weight 2, and within 1 ulp of numpy's eigensolver route
    nodes, weights = mollifier._GL_NODES, mollifier._GL_WEIGHTS
    assert np.array_equal(nodes[::-1], -nodes)
    assert np.array_equal(weights[::-1], weights)
    assert math.fsum(weights) == pytest.approx(2.0, rel=0.0,
                                               abs=np.spacing(2.0))
    want_nodes, want_weights = np.polynomial.legendre.leggauss(5)
    for got, want in ((nodes, want_nodes), (weights, want_weights)):
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_cdf_endpoints_and_center():
    assert float(kernel_cdf(-1.0)) == 0.0
    assert float(kernel_cdf(1.0)) == 1.0
    assert float(kernel_cdf(-5.0)) == 0.0
    assert float(kernel_cdf(5.0)) == 1.0
    assert float(kernel_cdf(0.0)) == pytest.approx(0.5, abs=1e-12)


def test_cdf_against_quadrature():
    for r in (-0.9, -0.5, -0.1, 0.2, 0.65, 0.95):
        want, _ = quad(psi_scalar, -1.0, r, epsabs=1e-12, limit=200)
        assert float(kernel_cdf(r)) == pytest.approx(want, abs=1e-10)


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_cdf_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert float(kernel_cdf(lo)) <= float(kernel_cdf(hi)) + 1e-15


def test_second_antiderivative_pinned_values():
    tables = kernel_tables()
    assert float(tables.Xi(-1.0)) == 0.0
    assert float(tables.Xi(-2.0)) == 0.0
    assert float(tables.Xi(1.0)) == 1.0
    assert float(tables.Xi(1.5)) == 1.5
    assert float(tables.Xi(7.0)) == 7.0
    assert float(tables.Xi(0.0)) == pytest.approx(XI_ZERO_REF, abs=1e-10)


def test_second_antiderivative_against_nested_quadrature():
    tables = kernel_tables()

    def x_of(s):
        return quad(psi_scalar, -1.0, s, epsabs=1e-11, limit=200)[0]

    for r in (-0.5, 0.0, 0.5):
        want, _ = quad(x_of, -1.0, r, epsabs=1e-9, limit=200)
        assert float(tables.Xi(r)) == pytest.approx(want, abs=1e-8)


@given(st.floats(-1.2, 1.2))
@settings(max_examples=60, deadline=None)
def test_second_antiderivative_bounds(r):
    tables = kernel_tables()
    val = float(tables.Xi(r))
    assert 0.0 <= val <= max(r + 1.0, 0.0) + 1e-12
    assert val >= r - 1e-12  # Xi(r) - r = int_r^1 X(s) ds >= 0 on [-1, 1]


def test_tables_are_shared():
    assert kernel_tables() is kernel_tables()


def test_table_lookup_matches_cubic_spline_bitwise():
    # the direct-index lookup against scipy's own spline evaluation of
    # the same knot values, for X and for S(r) = int_{-1}^{r} s psi(s) ds
    knots = np.linspace(-1.0, 1.0, TABLE_POINTS)
    x_spline = CubicSpline(knots, _gauss_cumulative(psi, knots))
    s_spline = CubicSpline(knots, _gauss_cumulative(lambda s: s * psi(s),
                                                    knots))

    def x_ref(r):
        rc = np.clip(r, -1.0, 1.0)
        out = np.clip(x_spline(rc), 0.0, 1.0)
        return np.where(r <= -1.0, 0.0, np.where(r >= 1.0, 1.0, out))

    def xi_ref(r):
        rc = np.clip(r, -1.0, 1.0)
        core = np.maximum(rc * x_spline(rc) - s_spline(rc), 0.0)
        return np.where(r <= -1.0, 0.0, np.where(r >= 1.0, r, core))

    g = np.random.default_rng(5)
    r = np.concatenate([knots, np.nextafter(knots, -np.inf),
                        np.nextafter(knots, np.inf),
                        [-1.0, 1.0, -1.0 - 1e-12, 1.0 + 1e-12, -3.0, 2.5],
                        g.uniform(-1.0, 1.0, 10_000)])
    tables = kernel_tables()
    for got, want in ((kernel_cdf(r), x_ref(r)), (tables.Xi(r), xi_ref(r))):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    rc = np.clip(r, -1.0, 1.0)
    # P_2 carries the Burgers wedges, whose reads come in tiles shaped
    # (snapshots, offsets, cells)
    splines = (x_spline, s_spline, CubicSpline(knots, _gauss_cumulative(
        lambda s: s ** 2 * psi(s), knots)))
    tile = g.permutation(rc)[:8 * 12 * 64].reshape(8, 12, 64)
    for arg in (rc, tile):
        got = tables.primitives(arg, 2)
        assert len(got) == 3
        for p, spline in zip(got, splines):
            assert p.shape == arg.shape
            assert np.array_equal(p.view(np.uint64),
                                  spline(arg).view(np.uint64))


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_nan_reads_as_nan():
    # a nan point takes a clipped interval and a nan offset; numpy warns
    # when it casts the interval index, nothing raises, and the points
    # read with it keep their bits
    tables = kernel_tables()
    r = np.array([0.25, np.nan, -1.0, 1.0, -0.5])
    got = tables.primitives(r, BASE_MOMENTS)
    assert np.isnan(got[:, 1]).all()
    rest = np.delete(r, 1)
    assert np.array_equal(np.delete(got, 1, axis=1).view(np.uint64),
                          tables.primitives(rest, BASE_MOMENTS).view(
                              np.uint64))
    assert np.isnan(tables.Xi(np.nan))
    xi = tables.Xi(r)
    assert np.isnan(xi[1])
    assert np.array_equal(np.delete(xi, 1).view(np.uint64),
                          tables.Xi(rest).view(np.uint64))


# ---------------------------------------------------------------------------
# width pair


def _banded(dl, d, du):
    """solve_banded's (1, 1) layout of a tridiagonal matrix."""
    ab = np.zeros((3, len(d)))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    return ab


def _gtsv_against_lapack(dl, d, du, b):
    """(port, solve_banded) bits of one tridiagonal solve."""
    want = solve_banded((1, 1), _banded(dl, d, du), b)
    got = np.array(_gtsv(*(np.asarray(v).tolist() for v in (dl, d, du, b))))
    return got.view(np.uint64), want.view(np.uint64)


def test_tridiagonal_solve_matches_lapack_on_the_table_systems(monkeypatch):
    # every system the tables solve: TABLE_POINTS knots, moments 0..2
    systems = []
    monkeypatch.setattr(mollifier, "_gtsv", lambda *a: systems.append(
        [np.array(v) for v in a]) or _gtsv(*a))
    KernelTables.build(BASE_MOMENTS)
    assert len(systems) == BASE_MOMENTS + 1
    for dl, d, du, b in systems:
        assert len(d) == TABLE_POINTS
        got, want = _gtsv_against_lapack(dl, d, du, b)
        assert np.array_equal(got, want)


def test_tridiagonal_solve_matches_lapack_with_pivoting():
    # normal entries make |dl| > |d| on about half the rows, so both the
    # plain and the interchanging elimination step run
    g = np.random.default_rng(3)
    swaps = 0
    for _ in range(300):
        n = int(g.integers(2, 40))
        dl, d, du, b = (g.normal(size=k) for k in (n - 1, n, n - 1, n))
        swaps += int(np.sum(np.abs(dl) > np.abs(d[:-1])))
        got, want = _gtsv_against_lapack(dl, d, du, b)
        assert np.array_equal(got, want)
    assert swaps > 1000


@pytest.mark.parametrize("dl, d, du", [
    ([0.0], [0.0, 1.0], [1.0]),                     # the first pivot
    ([1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0]),      # one eliminated to 0
    ([1.0], [1.0, 1.0], [1.0]),                     # the last pivot
])
def test_tridiagonal_solve_raises_on_a_zero_pivot(dl, d, du):
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_banded((1, 1), _banded(dl, d, du), np.ones(len(d)))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _gtsv(dl, d, du, [1.0] * len(d))


def test_width_validation():
    with pytest.raises(ValueError):
        MollifierPair(0.0, 0.1)
    with pytest.raises(ValueError):
        MollifierPair(0.5, 0.1)
    with pytest.raises(ValueError):
        MollifierPair(0.1, 0.0)
    with pytest.raises(ValueError):
        MollifierPair(0.1, -1.0)


def test_space_kernel_mass_and_scaling():
    pair = MollifierPair(0.2, 0.1)
    val, _ = quad(lambda z: float(pair.rho(z)), -0.2, 0.2,
                  epsabs=1e-12, limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)
    assert float(pair.rho(0.0)) == pytest.approx(psi_sup() / 0.2, abs=1e-13)
    assert float(pair.rho(0.2)) == 0.0


def test_space_kernel_gradient_matches_difference_quotient():
    pair = MollifierPair(0.2, 0.1)
    h = 1e-7
    for z in (-0.15, -0.05, 0.0, 0.08, 0.19):
        fd = (float(pair.rho(z + h)) - float(pair.rho(z - h))) / (2 * h)
        assert float(pair.rho_grad(z)) == pytest.approx(fd, abs=5e-4)
    assert float(pair.rho_grad(0.3)) == 0.0


def test_state_kernel_scaling():
    pair = MollifierPair(0.2, 0.05)
    val, _ = quad(lambda w: float(pair.psi_delta(w)), -0.05, 0.05,
                  epsabs=1e-12, limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)
    assert float(pair.psi_delta(0.0)) <= 1.0 / 0.05
    x = kernel_cdf   # the CDF of psi_delta is X(w / delta)
    assert float(x(-0.05 / pair.delta)) == 0.0
    assert float(x(0.05 / pair.delta)) == 1.0
    assert float(x(0.0 / pair.delta)) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# discrete weights


def test_discrete_weights_unit_mass_and_symmetry():
    pair = MollifierPair(0.1, 0.1)
    grid = TorusGrid(64)
    offs, w = pair.spatial_weights(grid)
    assert offs[0] == -offs[-1]
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(w, w[::-1], atol=0.0)
    assert np.all(w >= 0.0)


def test_discrete_weights_reject_subgrid_width():
    pair = MollifierPair(0.01, 0.1)
    with pytest.raises(ValueError):
        pair.spatial_weights(TorusGrid(16))


def test_gradient_weights_antisymmetric():
    pair = MollifierPair(0.1, 0.1)
    grid = TorusGrid(64)
    offs, gw = pair.gradient_weights(grid)
    assert np.allclose(gw, -gw[::-1], atol=0.0)
    assert abs(gw.sum()) <= 1e-15


def test_discrete_smoothing_preserves_constants():
    pair = MollifierPair(0.1, 0.1)
    grid = TorusGrid(64)
    offs, w = pair.spatial_weights(grid)
    field = np.full(64, 2.3)
    out = np.zeros(64)
    for d, wd in zip(offs, w):
        out += wd * np.roll(field, d)
    assert np.allclose(out, 2.3, atol=1e-13)
