"""Monte Carlo harness: tail estimates, scans, distribution checks, moments.

Every sweep cuts path indices 0..n-1 into fixed blocks (the last one
partial) and runs each block through the batched stepper of
``solvers``.  A block is a task of at most 1024 rows: 1024 paths of one
run, or, in a scan, 1024 // rungs paths of every rung of a stack that
steps the rungs of a shared time grid together, rung by rung.  A path's
result depends only on (seed, stream, path_index) and its rung: its
increments come from its own Philox counter, and the stepper's
arithmetic acts row by row, so a row's bits do not depend on the width
of its block or on the other rungs of its stack.  Cross-path tallies go
through math.fsum.  The numbers are therefore bitwise independent of the
worker count, the block width and the stacking.  Workers are threads,
taken from the SCLAW_THREADS environment variable (default: machine
parallelism); a 1024-row task spends long enough in numpy, which
releases the GIL, for two workers to beat one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import NumericalFailure
from .grid import ScalarField
from .ks import ks_2samp
from .models import FluxModel, NoiseModel, SimConfig
from .solvers import (base_small_time_endpoints, pair_l1_distances,
                      resolve_time_grid, scaled_endpoints, stacked_pairs)

_Z95 = 1.959963984540054
# rows per task: a block of one run holds _BATCH paths, a scan's stack of
# R rungs _BATCH // R paths of each; fixed so results never depend on
# workers
_BATCH = 1024

FUNCTIONALS = ("mass", "l2norm", "maxval")


def worker_count() -> int:
    env = os.environ.get("SCLAW_THREADS", "").strip()
    if env and not (env.isdecimal() and int(env) >= 1):
        raise ValueError(f"SCLAW_THREADS must be a positive integer, "
                         f"got {env!r}")
    return int(env) if env else os.cpu_count() or 1


def map_blocks(fn, n: int, width: int) -> np.ndarray:
    """Concatenate fn(range_of_indices) over blocks of width indices of
    0..n-1 (the last one partial), in block order however many workers
    run them.

    The width is the caller's constant (a function of _BATCH and, for a
    stack, its rung count), so the split, and hence every float produced,
    is identical for any worker count.
    """
    blocks = [range(lo, min(lo + width, n)) for lo in range(0, n, width)]
    workers = min(worker_count(), len(blocks))
    if workers <= 1:
        return np.concatenate([fn(b) for b in blocks], axis=0)
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(fn, blocks)), axis=0)


def _stacked_scan(eta: ScalarField, ladder, n: int, cfg: SimConfig,
                  flux: FluxModel, noise: NoiseModel, p_list) -> list:
    """Per rung of ladder, in ladder order: the pair gaps (n,) of paths
    0..n-1 when p_list is empty, else their moment maxima (n,
    len(p_list), 2).

    Rungs that resolve one time grid step as one stack (a repeated
    epsilon is a rung of its own), in blocks of _BATCH // rungs paths.
    """
    stacks = {}
    for k, eps in enumerate(ladder):
        grid = resolve_time_grid(replace(cfg, epsilon=eps), flux, eta)
        stacks.setdefault(grid, []).append(k)
    per_rung = [None] * len(ladder)

    def task(rungs, idx):
        obs = stacked_pairs(eta, cfg, rungs, flux, noise, idx, p_list)
        found = obs.moms if p_list else obs.gap
        # rung-major rows to (paths, rungs, ...)
        return found.reshape(len(rungs), len(idx),
                             *found.shape[1:]).swapaxes(0, 1)

    try:
        for ks in stacks.values():
            rungs = [ladder[k] for k in ks]
            found = map_blocks(partial(task, rungs), n,
                               max(1, _BATCH // len(rungs)))
            for j, k in enumerate(ks):
                per_rung[k] = found[:, j]
    except NumericalFailure:
        # a stack stops at its first failing step, whichever rung fails:
        # name the failure that the rungs meet one at a time, in ladder
        # order, each in blocks of _BATCH paths
        for eps in ladder:
            map_blocks(partial(task, [eps]), n, _BATCH)
        raise
    return per_rung


def fmean(values) -> float:
    """Order-insensitive mean via exact compensated summation."""
    vals = list(values)
    return math.fsum(vals) / len(vals)


# ---------------------------------------------------------------------------
# tail estimates


@dataclass(frozen=True)
class MCEstimate:
    """Binomial proportion with a Wilson 95% interval."""

    n: int
    hits: int
    p_hat: float
    ci_lo: float
    ci_hi: float

    @classmethod
    def from_counts(cls, hits: int, n: int) -> "MCEstimate":
        if n < 1 or not 0 <= hits <= n:
            raise ValueError(f"bad counts hits={hits} n={n}")
        p = hits / n
        z2 = _Z95 * _Z95
        denom = 1.0 + z2 / n
        center = (p + z2 / (2.0 * n)) / denom
        half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
        # the interval must contain p_hat; at p in {0, 1} center -+ half
        # is analytically p but can land an ulp on the wrong side
        lo = min(p, max(0.0, center - half))
        hi = max(p, min(1.0, center + half))
        return cls(n, hits, p, lo, hi)


def estimate_tail(eta: ScalarField, iota: float, n: int, cfg: SimConfig,
                  flux: FluxModel, noise: NoiseModel) -> MCEstimate:
    """P(space-time L1 gap of the coupled pair exceeds iota), n paths."""
    if iota <= 0:
        raise ValueError("iota must be positive")
    if n < 1:
        raise ValueError("need at least one path")
    dists = map_blocks(
        lambda idx: pair_l1_distances(eta, cfg, flux, noise, idx), n, _BATCH)
    hits = int(np.count_nonzero(dists > iota))
    return MCEstimate.from_counts(hits, n)


# ---------------------------------------------------------------------------
# exponential-equivalence scan


@dataclass(frozen=True)
class ScanRow:
    epsilon: float
    iota: float
    n: int
    hits: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    eps_log_p: float


@dataclass(frozen=True)
class ScanTable:
    iota: float
    rows: tuple[ScanRow, ...]

    def eps_log_p_decreasing(self) -> bool:
        """Strict decrease of eps*log(p_hat) across rows with hits."""
        seq = [r.eps_log_p for r in self.rows if r.hits > 0]
        return all(a > b for a, b in zip(seq, seq[1:]))


def exp_equiv_scan(eta: ScalarField, ladder, iota: float, n: int,
                   cfg: SimConfig, flux: FluxModel,
                   noise: NoiseModel) -> ScanTable:
    """Tail estimate per epsilon of a descending ladder.

    Each row carries eps * log(p_hat) (the quantity that must fall for
    superexponential equivalence; literal -inf when no path exceeded
    iota).  The rungs are stepped as stacks (see _stacked_scan); each
    row has the bits of estimate_tail at its epsilon.
    """
    ladder = [float(e) for e in ladder]
    if not ladder or any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError("epsilon ladder must be strictly descending")
    if iota <= 0:
        raise ValueError("iota must be positive")
    if n < 1:
        raise ValueError("need at least one path")
    gaps = _stacked_scan(eta, ladder, n, cfg, flux, noise, ())
    rows = []
    for eps, dists in zip(ladder, gaps):
        est = MCEstimate.from_counts(int(np.count_nonzero(dists > iota)), n)
        if est.hits == 0:
            elp = float("-inf")
        else:
            elp = eps * math.log(est.p_hat)
        rows.append(ScanRow(eps, iota, n, est.hits, est.p_hat, est.ci_lo,
                            est.ci_hi, elp))
    return ScanTable(iota, tuple(rows))


# ---------------------------------------------------------------------------
# small-time vs rescaled distribution check


def functional_values(name: str, states: np.ndarray, dx: float) -> np.ndarray:
    """Apply a named scalar functional along the cell axis of (paths, cells)."""
    if name == "mass":
        return dx * states.sum(axis=1)
    if name == "l2norm":
        return np.sqrt(dx * (states * states).sum(axis=1))
    if name == "maxval":
        return states.max(axis=1)
    raise ValueError(f"unknown functional: {name}")


@dataclass(frozen=True)
class ScalingRow:
    functional: str
    n: int
    mode: str          # "ks" or "exact"
    ks_stat: float
    p_value: float
    max_abs_gap: float

    @property
    def passed(self) -> bool:
        if self.mode == "exact":
            return self.max_abs_gap <= 1e-12
        return self.p_value > 0.01


@dataclass(frozen=True)
class ScalingResult:
    epsilon: float
    rows: tuple[ScalingRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def scaling_check(eta: ScalarField, epsilon: float, functionals, n: int,
                  cfg: SimConfig, flux: FluxModel,
                  noise: NoiseModel) -> ScalingResult:
    """Compare the small-time endpoint law against the rescaled one.

    Sample A runs the base dynamics to time epsilon, sample B the
    rescaled dynamics to time 1, on disjoint RNG streams; each requested
    functional of the endpoint gets a two-sample KS test.  Its p-value is
    the two-sided asymptotic one of ``ks.ks_2samp``: the Kolmogorov
    survival function at the effective size round(n/2) (Simard &
    L'Ecuyer 2011; scipy.stats' code, ported bit for bit).  If both
    samples are degenerate (zero spread, e.g. with zero noise) the
    comparison falls back to exact equality within 1e-12.  A KS p-value
    above 0.01 passes; by construction that fails for about 2% of honest
    seed pairs, so callers may retry once with a fresh seed before
    treating a failure as real.
    """
    functionals = tuple(functionals)
    for f in functionals:
        if f not in FUNCTIONALS:
            raise ValueError(f"unknown functional: {f}")
    if n < 200:
        raise ValueError("need at least 200 paths per sample")
    run_cfg = replace(cfg, epsilon=epsilon)
    ends_a = map_blocks(
        lambda idx: base_small_time_endpoints(eta, epsilon, run_cfg, flux,
                                              noise, idx), n, _BATCH)
    ends_b = map_blocks(
        lambda idx: scaled_endpoints(eta, run_cfg, flux, noise, idx), n,
        _BATCH)
    dx = eta.grid.dx
    rows = []
    for name in functionals:
        a = functional_values(name, ends_a, dx)
        b = functional_values(name, ends_b, dx)
        gap = float(np.max(np.abs(np.sort(a) - np.sort(b))))
        # exact spread: std of n identical floats is polluted by the
        # rounded mean, ptp is not
        if np.ptp(a) == 0.0 and np.ptp(b) == 0.0:
            rows.append(ScalingRow(name, n, "exact", 0.0, 1.0, gap))
        else:
            ks = ks_2samp(a, b)
            rows.append(ScalingRow(name, n, "ks", float(ks.statistic),
                                   float(ks.pvalue), gap))
    return ScalingResult(epsilon, tuple(rows))


# ---------------------------------------------------------------------------
# uniform-moment scan


@dataclass(frozen=True)
class MomentRow:
    epsilon: float
    p: float
    u_moment: float
    v_moment: float


@dataclass(frozen=True)
class MomentTable:
    rows: tuple[MomentRow, ...]

    def ladder_max(self, p: float) -> float:
        vals = [max(r.u_moment, r.v_moment) for r in self.rows if r.p == p]
        return max(vals) if vals else float("nan")

    def ladder_min(self, p: float) -> float:
        vals = [max(r.u_moment, r.v_moment) for r in self.rows if r.p == p]
        return min(vals) if vals else float("nan")


def moment_scan(eta: ScalarField, ladder, p_list, n: int, cfg: SimConfig,
                flux: FluxModel, noise: NoiseModel) -> MomentTable:
    """Monte Carlo means of max_t ||.||_p^p for both members of the pair,
    per epsilon of the ladder; the across-ladder max/min ratio is the
    desk surrogate for moment uniformity in epsilon.  The rungs are
    stepped as stacks (see _stacked_scan)."""
    ladder = [float(e) for e in ladder]
    p_list = [float(p) for p in p_list]
    if not ladder or not p_list:
        raise ValueError("need nonempty epsilon ladder and p list")
    if n < 1:
        raise ValueError("need at least one path")
    if any(not 1.0 <= p <= 8.0 for p in p_list):
        raise ValueError("moment orders must lie in [1, 8]")
    per_rung = _stacked_scan(eta, ladder, n, cfg, flux, noise, p_list)
    rows = []
    for eps, moms in zip(ladder, per_rung):
        for j, p in enumerate(p_list):
            rows.append(MomentRow(eps, p, fmean(moms[:, j, 0]),
                                  fmean(moms[:, j, 1])))
    return MomentTable(tuple(rows))
