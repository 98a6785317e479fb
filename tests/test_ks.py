"""The KS port against scipy.stats, bit for bit (scipy.stats is the
oracle here and nowhere in the library)."""

import numpy as np
import pytest
from scipy.stats import ks_2samp as scipy_ks_2samp
from scipy.stats import kstwo

from sclaw import ks
from sclaw.harness import ks_2samp


def bits(x):
    return np.float64(x).view(np.uint64)


def _samples(n1, n2, shift, seed, decimals=None):
    g = np.random.default_rng(seed)
    a, b = g.normal(size=n1), g.normal(shift, 1.0, size=n2)
    if decimals is not None:   # coarse rounding leaves many ties
        a, b = np.round(a, decimals), np.round(b, decimals)
    return a, b


# (n1, n2, shift of b, rounding, sign scipy reports: -1 when minS > maxS)
TWO_SAMPLE = {
    "shipped_2000": (2000, 2000, 0.0, None, None),
    "bench_256": (256, 256, 0.0, None, None),
    "unequal": (300, 517, 0.05, None, None),
    "small_pomeranz_range": (30, 41, 0.0, None, None),
    "ties": (400, 350, 0.0, 1, None),
    "ties_equal_sizes": (256, 256, 0.1, 0, None),
    "min_branch": (256, 256, -0.4, None, -1),
    "max_branch": (256, 256, 0.4, None, 1),
    "min_branch_unequal": (2000, 700, -0.15, None, -1),
    "max_branch_unequal": (700, 2000, 0.15, None, 1),
    "far_apart": (256, 256, 5.0, None, 1),
}


@pytest.mark.parametrize("case", sorted(TWO_SAMPLE))
def test_ks_2samp_matches_scipy_bitwise(case):
    n1, n2, shift, decimals, sign = TWO_SAMPLE[case]
    for seed in range(4):
        a, b = _samples(n1, n2, shift, seed, decimals)
        want = scipy_ks_2samp(a, b, method="asymp")
        got = ks_2samp(a, b)
        if sign is not None:
            assert want.statistic_sign == sign
        assert bits(got.statistic) == bits(want.statistic)
        assert bits(got.pvalue) == bits(want.pvalue)
        if decimals is not None:
            assert len(np.unique(np.concatenate([a, b]))) < n1 + n2


def test_ks_2samp_rejects_empty_sample():
    with pytest.raises(ValueError):
        ks_2samp(np.zeros(0), np.zeros(3))


# (n, x, the helper that branch must call, if any)
BRANCHES = {
    "t_at_most_half": (3, float(np.nextafter(0.5 / 3, 1.0)), None),
    "below_support": (50, 0.01, None),
    "above_support": (50, 1.0, None),
    "ruben_gambino_low_small_n": (40, 0.02, None),
    "ruben_gambino_low_large_n": (500, 0.0015, None),
    "ruben_gambino_high": (3, 0.7, None),
    "two_smirnov_exact": (10, 0.6, "smirnov"),
    "dmtw_small_n": (50, 0.1, "dmtw"),
    "pomeranz": (50, 0.2, "pomeranz"),
    "miller_small_n": (50, 0.4, "smirnov"),
    "zero_nx2_at_least_370": (2000, 0.45, None),
    "miller_large_n": (2000, 0.05, "smirnov"),
    "dmtw_large_n": (200, 0.03, "dmtw"),
    "pelz_good": (1000, 0.03, "pelz_good"),
    "pelz_good_beyond_dmtw_size": (200000, 0.002, "pelz_good"),
}


@pytest.mark.parametrize("case", sorted(BRANCHES))
def test_kolmogorov_sf_branches_match_kstwo(case, monkeypatch):
    n, x, helper = BRANCHES[case]
    if case == "t_at_most_half":   # inside the support, yet n*x rounds to 1/2
        assert x > 0.5 / n and n * x <= 0.5
    called = []
    for name in ("dmtw", "pomeranz", "pelz_good"):
        fn = getattr(ks, f"_kolmogn_{name}")
        monkeypatch.setattr(ks, f"_kolmogn_{name}",
                            lambda *a, _f=fn, _n=name: called.append(_n)
                            or _f(*a))
    smirnov = ks.smirnov
    monkeypatch.setattr(ks, "smirnov",
                        lambda *a: called.append("smirnov") or smirnov(*a))
    got = ks.kolmogorov_sf(np.float64(x), np.float64(n))
    assert called == ([helper] if helper else [])
    assert bits(got) == bits(kstwo.sf(x, float(n)))


def test_kolmogorov_sf_grid_matches_kstwo():
    ns = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 139, 140, 141, 256, 1000, 2000,
          100000, 100001]
    checked = 0
    for n in ns:
        xs = np.concatenate([np.linspace(0.0, 1.0, 41),
                             np.geomspace(0.2, 3.0, 25) / np.sqrt(n),
                             [0.5 / n, 1.0 / n, (n - 1.0) / n]])
        for x in xs:
            got = ks.kolmogorov_sf(np.float64(x), np.float64(n))
            assert bits(got) == bits(kstwo.sf(x, float(n))), (n, x)
            checked += 1
    assert checked == len(ns) * 69


def test_kolmogorov_sf_nonintegral_size_is_nan():
    assert np.isnan(ks.kolmogorov_sf(0.1, 0.0))
    assert np.isnan(ks.kolmogorov_sf(0.1, 2.5))
    assert np.isnan(kstwo.sf(0.1, 2.5))
