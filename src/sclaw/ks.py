"""Two-sample Kolmogorov-Smirnov test, two-sided, asymptotic p-value.

A port of the path that ``scipy.stats.ks_2samp(a, b, method="asymp")``
takes: the statistic from the two empirical CDFs, and the survival
function of the one-sample two-sided Kolmogorov distribution D_N at the
effective size N = round(m*n/(m+n)).  That survival function follows
Simard & L'Ecuyer, *Computing the two-sided Kolmogorov-Smirnov
distribution*, J. Stat. Softw. 39(11), 2011, which picks among
Ruben-Gambino, 2*smirnov (exact for x >= 1/2, Miller's approximation
beyond), the Durbin matrix algorithm in the form of Marsaglia, Tsang &
Wang (2003), the Pomeranz recursion (1974) and the Pelz-Good expansion
(1976).  The code follows ``scipy/stats/_ksstats.py`` of scipy 1.17.1
(BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and 2003 SciPy
Developers) operation for operation, including its long-double
rescaling constants, so the statistic and p-value equal scipy's bit for
bit; only the CDF side of each branch is kept, and the survival
function is formed from it as scipy does.  Importing it loads no
scipy subpackage: ``scipy.special.smirnov`` is imported on the first
call that needs it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_2j / (2j) / (2j - 1), j = 8..1
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def smirnov(n, x):
    """scipy.special.smirnov, imported on first use (x >= 1/2, or Miller)."""
    from scipy.special import smirnov
    return smirnov(n, x)


class KSResult(NamedTuple):
    statistic: np.float64
    pvalue: np.float64


def ks_2samp(a, b) -> KSResult:
    """Two-sided two-sample KS statistic and its asymptotic p-value,
    equal bit for bit to ``scipy.stats.ks_2samp(a, b, method="asymp")``."""
    data1 = np.sort(a)
    data2 = np.sort(b)
    n1, n2 = data1.shape[0], data2.shape[0]
    if min(n1, n2) == 0:
        raise ValueError("KS samples must not be empty")
    data_all = np.concatenate([data1, data2])
    # side="right" counts ties in full, so tied data are handled exactly
    cdf1 = np.searchsorted(data1, data_all, side="right") / n1
    cdf2 = np.searchsorted(data2, data_all, side="right") / n2
    cddiffs = cdf1 - cdf2
    min_s = np.clip(-cddiffs[np.argmin(cddiffs)], 0, 1)
    max_s = cddiffs[np.argmax(cddiffs)]
    d = min_s if min_s > max_s else max_s
    m, n = sorted([float(n1), float(n2)], reverse=True)
    en = np.round(m * n / (m + n))
    return KSResult(np.float64(d), kolmogorov_sf(d, en))


def kolmogorov_sf(x, n) -> np.float64:
    """P(D_n > x) for the one-sample two-sided KS statistic D_n, with the
    support handling of ``scipy.stats.kstwo.sf``: 1 at or below 1/(2n),
    0 at or above 1, nan unless n is a positive integer."""
    if not (n >= 1 and n == np.round(n)):
        return np.float64(np.nan)
    if x <= 0.5 / n:
        return np.float64(1.0)
    if x >= 1.0:
        return np.float64(0.0)
    return np.float64(_kolmogn_sf(int(n), np.asarray(x, dtype=np.float64)))


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n**n) by Stirling, with n*log(n) taken out up front
    rn = 1.0 / n
    return (np.log(n) / 2 - n + _LOG_2PI / 2
            + rn * np.polyval(_STIRLING_COEFFS, rn / n))


def _kolmogn_sf(n, x):
    """Simard & L'Ecuyer's choice of method for P(D_n > x), 0 < x < 1."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n)
                          + n * np.log(2 * t - 1))
        return np.clip(1.0 - prob, 0.0, 1.0)
    if t >= n - 1:  # Ruben-Gambino
        return np.clip(2 * (1.0 - x) ** n, 0.0, 1.0)
    if x >= 0.5:  # exact: 2 * smirnov
        return np.clip(2 * smirnov(n, x), 0.0, 1.0)
    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            cdf = _kolmogn_dmtw(n, x)
        elif nxsquared <= 4:
            cdf = _kolmogn_pomeranz(n, x)
        else:  # Miller's approximation by 2 * smirnov
            return np.clip(2 * smirnov(n, x), 0.0, 1.0)
        return np.clip(1.0 - cdf, 0.0, 1.0)
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return np.clip(2 * smirnov(n, x), 0.0, 1.0)
    if n <= 100000 and n * x ** 1.5 <= 1.4:
        cdf = _kolmogn_dmtw(n, x)
    else:
        cdf = _kolmogn_pelz_good(n, x)
    return np.clip(1.0 - cdf, 0.0, 1.0)


def _kolmogn_dmtw(n, d):
    """P(D_n <= d) by the Durbin matrix algorithm (Marsaglia-Tsang-Wang):
    with d = (k - h)/n, the k-th diagonal entry of (n!/n^n) H^n for an
    m x m matrix H, m = 2k - 1, squared up with rescaling; 1 < n*d."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    # v is the first column (and reversed last row) of H, w the powers
    # 1/j! on and below the diagonal
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow; harmless
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0   # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """Endpoints of the nonzero stretch of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = (ip1div2 - 1 - ll - roundf - 1,
                          ip1div2 + ll - 1 + ceilf - 1)
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_pomeranz(n, x):
    """P(D_n <= x) by the Pomeranz recursion: 2n + 1 convolutions of a
    row with near-Poisson weights, two rows kept, rescaled as needed;
    the answer is n! times the last entry of the last row."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)      # most powers a convolution needs
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_n, twog_n, onem2g_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_n / m
        twogpower[m] = twogpower[m - 1] * twog_n / m
        onem2gpower[m] = onem2gpower[m - 1] * onem2g_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:  # against underflow
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return np.clip(ans, 0.0, 1.0)


def _kolmogn_pelz_good(n, x):
    """Pelz-Good approximation of P(D_n <= x): the Li-Chien/Korolyuk
    expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n^1.5, z = x sqrt(n),
    with each K_i moved to its small-z form by the Jacobi theta
    functional equation; 1/n < x < 1/2."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z ** 2, z ** 3, z ** 4, z ** 6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # coefficients of the K1, K2 and K3 sums
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z ** 8

    K0to3 = np.zeros(4)
    # Horner in q over the odd integers of sum c_i q^(i^2)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m ** 2, m ** 4, m ** 6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z ** 7, 6480 * z ** 10])

    # the sums over all integers k, computed directly:
    # K2 gets (pi^2 k^2) q^(k^2), K3 gets (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2)
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)
