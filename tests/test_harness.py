import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclaw import cli
from sclaw.grid import ScalarField, TorusGrid, make_initial
from sclaw.harness import (_BATCH, FUNCTIONALS, MCEstimate, MomentRow,
                           MomentTable, ScanRow, ScanTable, estimate_tail,
                           exp_equiv_scan, fmean, functional_values,
                           map_blocks, moment_scan, scaling_check,
                           worker_count)
from sclaw.models import NoiseModel, SimConfig, additive_noise, make_flux
from sclaw.solvers import pair_l1_distances

Z95 = 1.959963984540054


# ---------------------------------------------------------------------------
# parallel plumbing


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SCLAW_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("SCLAW_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("SCLAW_THREADS", "x")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("SCLAW_THREADS")
    assert worker_count() >= 1


def test_map_blocks_covers_indices(monkeypatch):
    seen = []

    def collect(block):
        seen.append(block)
        return np.asarray(list(block), dtype=float)

    n = 2 * _BATCH + 150          # two full blocks and a partial one
    monkeypatch.setenv("SCLAW_THREADS", "1")
    a = map_blocks(collect, n)
    monkeypatch.setenv("SCLAW_THREADS", "8")
    b = map_blocks(collect, n)
    assert np.array_equal(a, np.arange(float(n)))
    assert np.array_equal(a, b)
    assert sorted(blk.start for blk in seen[:3]) == [0, _BATCH, 2 * _BATCH]
    assert sorted(len(blk) for blk in seen[3:]) == [150, _BATCH, _BATCH]


def test_fmean_order_insensitive():
    vals = [0.1, 0.2, 0.3, 1e16, -1e16, 0.4]
    assert fmean(vals) == fmean(list(reversed(vals)))
    assert fmean([2.0, 4.0]) == 3.0


# ---------------------------------------------------------------------------
# Wilson intervals


def test_wilson_hand_value():
    est = MCEstimate.from_counts(5, 10)
    z2 = Z95 * Z95
    denom = 1.0 + z2 / 10
    center = (0.5 + z2 / 20) / denom
    half = Z95 * math.sqrt(0.5 * 0.5 / 10 + z2 / 400) / denom
    assert est.p_hat == 0.5
    assert est.ci_lo == pytest.approx(center - half, abs=1e-15)
    assert est.ci_hi == pytest.approx(center + half, abs=1e-15)


def test_wilson_edge_counts():
    zero = MCEstimate.from_counts(0, 50)
    assert zero.p_hat == 0.0 and zero.ci_lo == 0.0 and zero.ci_hi > 0.0
    full = MCEstimate.from_counts(50, 50)
    assert full.p_hat == 1.0 and full.ci_hi == 1.0 and full.ci_lo < 1.0
    with pytest.raises(ValueError):
        MCEstimate.from_counts(-1, 10)
    with pytest.raises(ValueError):
        MCEstimate.from_counts(11, 10)
    with pytest.raises(ValueError):
        MCEstimate.from_counts(0, 0)


def test_wilson_width_shrinks_like_sqrt_n():
    w1 = MCEstimate.from_counts(30, 100)
    w2 = MCEstimate.from_counts(120, 400)
    ratio = (w2.ci_hi - w2.ci_lo) / (w1.ci_hi - w1.ci_lo)
    assert 0.4 <= ratio <= 0.6


@given(st.integers(1, 500).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))))
@settings(max_examples=60, deadline=None)
def test_wilson_interval_ordering(pair):
    n, hits = pair
    est = MCEstimate.from_counts(hits, n)
    assert 0.0 <= est.ci_lo <= est.p_hat <= est.ci_hi <= 1.0


# ---------------------------------------------------------------------------
# tail estimates


def test_tail_validation(small_eta, small_cfg, burgers, two_mode_noise):
    with pytest.raises(ValueError):
        estimate_tail(small_eta, 0.0, 10, small_cfg, burgers, two_mode_noise)
    with pytest.raises(ValueError):
        estimate_tail(small_eta, 0.1, 0, small_cfg, burgers, two_mode_noise)


def test_tail_zero_for_zero_flux(small_eta, small_cfg, two_mode_noise):
    est = estimate_tail(small_eta, 1e-9, 16, small_cfg, make_flux("zero"),
                        two_mode_noise)
    assert est.hits == 0 and est.p_hat == 0.0


def test_tail_monotone_in_threshold(small_eta, small_cfg, burgers,
                                    two_mode_noise):
    lo = estimate_tail(small_eta, 0.01, 64, small_cfg, burgers,
                       two_mode_noise)
    hi = estimate_tail(small_eta, 0.05, 64, small_cfg, burgers,
                       two_mode_noise)
    assert lo.hits >= hi.hits


def test_tail_thread_invariant(small_eta, small_cfg, burgers, two_mode_noise,
                               monkeypatch):
    monkeypatch.setenv("SCLAW_THREADS", "1")
    a = estimate_tail(small_eta, 0.02, 70, small_cfg, burgers, two_mode_noise)
    monkeypatch.setenv("SCLAW_THREADS", "8")
    b = estimate_tail(small_eta, 0.02, 70, small_cfg, burgers, two_mode_noise)
    assert a == b


def test_tail_thread_invariant_across_blocks(burgers, two_mode_noise,
                                            monkeypatch):
    grid = TorusGrid(8)
    eta = make_initial(grid, "sine", mean=0.0, amp=0.5, mode=1)
    cfg = SimConfig(epsilon=0.3, cells=8, seed=9, dt=1.0 / 16,
                    cfl_fraction=0.9)
    n = 2 * _BATCH + 100          # three blocks, the last one partial
    monkeypatch.setenv("SCLAW_THREADS", "1")
    gaps = map_blocks(lambda idx: pair_l1_distances(eta, cfg, burgers,
                                                    two_mode_noise, idx), n)
    iota = float(np.median(gaps))
    a = estimate_tail(eta, iota, n, cfg, burgers, two_mode_noise)
    monkeypatch.setenv("SCLAW_THREADS", "2")
    b = estimate_tail(eta, iota, n, cfg, burgers, two_mode_noise)
    assert a == b
    assert a.hits == int(np.count_nonzero(gaps > iota))
    assert 0 < a.hits < n


# ---------------------------------------------------------------------------
# exponential-equivalence scan


def test_scan_rejects_bad_ladder(small_eta, small_cfg, burgers,
                                 two_mode_noise):
    for ladder in ([], [0.1, 0.5], [0.5, 0.5]):
        with pytest.raises(ValueError):
            exp_equiv_scan(small_eta, ladder, 0.05, 8, small_cfg, burgers,
                           two_mode_noise)


def test_scan_single_rung_matches_direct_estimate(small_eta, small_cfg,
                                                  burgers, two_mode_noise):
    table = exp_equiv_scan(small_eta, [0.1], 0.02, 64, small_cfg, burgers,
                           two_mode_noise)
    est = estimate_tail(small_eta, 0.02, 64, small_cfg, burgers,
                        two_mode_noise)
    row = table.rows[0]
    assert (row.hits, row.p_hat, row.ci_lo, row.ci_hi) == \
        (est.hits, est.p_hat, est.ci_lo, est.ci_hi)
    if row.hits > 0:
        assert row.eps_log_p == pytest.approx(0.1 * math.log(row.p_hat))


def test_scan_empty_tail_writes_minus_inf(small_eta, small_cfg,
                                          two_mode_noise):
    table = exp_equiv_scan(small_eta, [0.1], 1e9, 8, small_cfg,
                           make_flux("zero"), two_mode_noise)
    assert table.rows[0].eps_log_p == float("-inf")
    lines = cli._scan_csv(table)
    assert lines[0] == "epsilon,iota,n,hits,p_hat,ci_lo,ci_hi,eps_log_p"
    assert lines[1].endswith(",-inf")


def _row(eps, hits, elp):
    return ScanRow(eps, 0.05, 10, hits, hits / 10, 0.0, 1.0, elp)


def test_scan_decrease_check_skips_empty_rows():
    good = ScanTable(0.05, (_row(0.5, 9, -0.05), _row(0.2, 4, -0.18),
                            _row(0.1, 0, float("-inf")),
                            _row(0.05, 0, float("-inf"))))
    assert good.eps_log_p_decreasing()
    flat = ScanTable(0.05, (_row(0.5, 9, -0.05), _row(0.2, 4, -0.05)))
    assert not flat.eps_log_p_decreasing()


# ---------------------------------------------------------------------------
# scaling comparison


def test_functional_values_hand():
    states = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, -1.0, 0.0, 1.0]])
    dx = 0.25
    assert np.allclose(functional_values("mass", states, dx), [2.5, 0.0])
    assert np.allclose(functional_values("l2norm", states, dx),
                       [math.sqrt(7.5), math.sqrt(0.5)])
    assert np.allclose(functional_values("maxval", states, dx), [4.0, 1.0])
    with pytest.raises(ValueError):
        functional_values("median", states, dx)
    assert set(FUNCTIONALS) == {"mass", "l2norm", "maxval"}


def test_scaling_validation(small_eta, small_cfg, burgers, two_mode_noise):
    with pytest.raises(ValueError):
        scaling_check(small_eta, 0.1, ["mass"], 100, small_cfg, burgers,
                      two_mode_noise)
    with pytest.raises(ValueError):
        scaling_check(small_eta, 0.1, ["entropy"], 400, small_cfg, burgers,
                      two_mode_noise)


def test_scaling_exact_mode_with_dead_noise(small_eta, small_cfg, burgers):
    res = scaling_check(small_eta, 0.1, ["mass", "l2norm"], 200, small_cfg,
                        burgers, NoiseModel(()))
    assert res.passed
    for row in res.rows:
        assert row.mode == "exact"
        assert row.max_abs_gap <= 1e-12


def test_scaling_ks_mode_additive(small_cfg):
    grid = TorusGrid(32)
    eta = make_initial(grid, "constant", value=0.0)
    res = scaling_check(eta, 0.1, ["mass"], 300, small_cfg,
                        make_flux("zero"), additive_noise(1.0))
    row = res.rows[0]
    assert row.mode == "ks"
    assert row.n == 300
    # identical laws on disjoint streams: fixed seed, comfortable p-value
    assert row.p_value > 0.01


# ---------------------------------------------------------------------------
# moment scan


def test_moment_scan_validation(small_eta, small_cfg, burgers,
                                two_mode_noise):
    for ladder, p_list in (([], [2.0]), ([0.1], []), ([0.1], [0.5]),
                           ([0.1], [9.0])):
        with pytest.raises(ValueError):
            moment_scan(small_eta, ladder, p_list, 8, small_cfg, burgers,
                        two_mode_noise)
    with pytest.raises(ValueError, match="need at least one path"):
        moment_scan(small_eta, [0.1], [2.0], 0, small_cfg, burgers,
                    two_mode_noise)


def test_moment_scan_dead_noise_constant(small_cfg):
    grid = TorusGrid(32)
    eta = make_initial(grid, "constant", value=-1.5)
    table = moment_scan(eta, [1.0, 0.5, 0.1], [2.0], 4, small_cfg,
                        make_flux("zero"), NoiseModel(()))
    assert len(table.rows) == 3
    for row in table.rows:
        assert row.u_moment == pytest.approx(2.25, abs=1e-13)
        assert row.v_moment == pytest.approx(2.25, abs=1e-13)
    assert table.ladder_max(2.0) == pytest.approx(table.ladder_min(2.0))
    assert math.isnan(table.ladder_max(3.0))


def test_moment_table_extremes():
    rows = (MomentRow(1.0, 2.0, 1.0, 3.0), MomentRow(0.5, 2.0, 2.0, 0.5),
            MomentRow(1.0, 1.0, 9.0, 9.0))
    table = MomentTable(rows)
    assert table.ladder_max(2.0) == 3.0
    assert table.ladder_min(2.0) == 2.0
    assert table.ladder_max(1.0) == 9.0
