"""Control action and rate estimation by penalty optimization.

The reachable-trajectory problem "which controls steer the forced ODE to
a target path, and at what quadratic cost" is solved approximately over
piecewise-constant controls: minimize action + lambda * residual^2 for
an increasing ladder of penalties, warm-starting each rung from the
previous optimum.  Both the final residual and the action are reported,
so the gap between the penalized surrogate and the hard constraint stays
visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .grid import ScalarField, Trajectory
from .models import NoiseModel
from .solvers import integrate_skeleton, uniform_times

DIMENSION_CAP = 512

FD_STEP = 1e-4        # central-difference step of the gradient
ARMIJO = 1e-4         # sufficient-decrease fraction of the line search
GRAD_TOL = 1e-8       # a gradient this small ends a penalty rung
# the line search's steps: 1 halved while >= 1e-12, so 2^0 .. 2^-39
BACKTRACKING_STEPS = np.ldexp(1.0, -np.arange(40))
BACKTRACKING_STEPS.setflags(write=False)


@dataclass(frozen=True)
class Control:
    """Piecewise-constant control: values[k, b] on B uniform bins of [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] < 1:
            raise ValueError(f"control values must be (modes, bins), "
                             f"got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("control values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_modes(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]


def action(h: Control) -> float:
    """(1/2) sum_k integral |h_k|^2: exact for piecewise-constant controls."""
    v = h.values
    return 0.5 * float((v * v).sum()) / h.bins


def drift_target(eta: ScalarField, slope: float, n_steps: int) -> Trajectory:
    """Target path eta + slope * t on the skeleton time grid."""
    times = uniform_times(n_steps)
    return Trajectory(eta.grid, times,
                      eta.values[None, :] + slope * times[:, None])


def constant_target(eta: ScalarField, n_steps: int) -> Trajectory:
    return Trajectory(eta.grid, uniform_times(n_steps),
                      np.tile(eta.values, (n_steps + 1, 1)))


def _check_time_grid(rho_target: Trajectory) -> int:
    """Step count of a target, which must live on the skeleton time grid."""
    n_steps = len(rho_target.times) - 1
    if not np.allclose(rho_target.times, uniform_times(n_steps), rtol=0.0,
                       atol=1e-12):
        raise ValueError("target must live on the uniform skeleton time grid")
    return n_steps


def _objectives(lam: float, n_modes: int, bins: int, rho_target: Trajectory,
                noise: NoiseModel, eta: ScalarField):
    """The map from a stack of flattened controls to their (penalty
    objectives, skeleton residuals), integrated in one call; a lane's
    values do not depend on the height of the stack."""
    def fn(flats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        res = integrate_skeleton(eta, flats.reshape(-1, n_modes, bins),
                                 noise, len(rho_target.times) - 1,
                                 target=rho_target.values)
        return 0.5 * (flats * flats).sum(axis=1) / bins + lam * res * res, res
    return fn


def skeleton_residual(h: Control, rho_target: Trajectory, noise: NoiseModel,
                      eta: ScalarField) -> float:
    """L1-in-time, L1-in-space distance between the driven skeleton and
    the target.  The skeleton starts from eta and integrates on the
    target's own time grid."""
    n_steps = _check_time_grid(rho_target)
    res = float(integrate_skeleton(eta, h.values[None], noise, n_steps,
                                   target=rho_target.values)[0])
    if not math.isfinite(res):
        raise NumericalFailure("non-finite state in skeleton integration")
    return res


def _fd_bundle(objectives, x: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """One batched sweep of x and its coordinate perturbations.

    Returns (gradient of the penalty objective by central differences,
    central-difference gradient of the bare residual, residual at x,
    penalty objective at x).
    """
    dim = x.size
    pts = np.tile(x, (2 * dim + 1, 1))
    pts[:dim, :] += FD_STEP * np.eye(dim)
    pts[dim:2 * dim, :] -= FD_STEP * np.eye(dim)
    vals, res = objectives(pts)
    if not np.all(np.isfinite(res)):
        raise NumericalFailure("non-finite state in skeleton integration")
    gphi = (vals[:dim] - vals[dim:2 * dim]) / (2.0 * FD_STEP)
    gres = (res[:dim] - res[dim:2 * dim]) / (2.0 * FD_STEP)
    return gphi, gres, float(res[-1]), float(vals[-1])


def inverse_dynamics_start(rho_target: Trajectory, noise: NoiseModel,
                           bins: int) -> Control:
    """Initial control from a bin-wise least-squares fit of the target's
    discrete time derivative through the forcing basis.

    For each bin, solve min_h sum_j ||G_j h - drho_j/dt||^2 where G_j
    stacks the mode shapes g_k(x, rho_j).  Exact when the target is
    itself a skeleton path of a piecewise-constant control; a neutral
    zero start when the modes vanish.
    """
    n_steps = len(rho_target.times) - 1
    if n_steps % bins:
        raise ValueError(f"target steps {n_steps} must be a multiple of "
                         f"control bins {bins}")
    p0, p1 = np.hsplit(noise.stacked_parts(rho_target.grid), 2)
    k = noise.n_modes
    vals = np.zeros((k, bins))
    if k == 0:
        return Control(np.zeros((0, bins)))
    per = n_steps // bins
    dt = 1.0 / n_steps
    rho = rho_target.values
    for b in range(bins):
        rows = []
        rhs = []
        for j in range(b * per, (b + 1) * per):
            basis = p0 + p1 * rho[j][None, :]          # (K, M)
            rows.append(basis.T)
            rhs.append((rho[j + 1] - rho[j]) / dt)
        a = np.concatenate(rows, axis=0)
        y = np.concatenate(rhs)
        vals[:, b] = np.linalg.lstsq(a, y, rcond=None)[0]
    return Control(vals)


def _line_search(objectives, x: np.ndarray, d: np.ndarray, phi: float,
                 slope: float) -> tuple[float, float] | None:
    """(s, objective at x + s * d) for the first of BACKTRACKING_STEPS
    that passes the acceptance rules, or None.

    Every lane x + s * d is integrated in one call; a lane that is not
    finite reads +inf.  Lanes are then taken in ladder order: Armijo
    sufficient decrease, else plain decrease, which is all the kinks of
    the L1 residual may allow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals, _ = objectives(x + BACKTRACKING_STEPS[:, None] * d)
    vals[~np.isfinite(vals)] = math.inf
    for s, cand in zip(BACKTRACKING_STEPS.tolist(), vals.tolist()):
        if cand <= phi + ARMIJO * s * slope or cand < phi - 1e-14:
            return s, cand
    return None


@dataclass(frozen=True)
class OptConfig:
    lambda_ladder: tuple = (10.0, 100.0, 1000.0, 10000.0)
    tol_feas: float = 1e-3
    max_iters: int = 150

    def __post_init__(self):
        ladder = tuple(float(x) for x in self.lambda_ladder)
        if not ladder or any(x <= 0 for x in ladder):
            raise ValueError("lambda_ladder must be non-empty and positive")
        if any(a >= b for a, b in zip(ladder, ladder[1:])):
            raise ValueError("lambda_ladder must be strictly increasing")
        object.__setattr__(self, "lambda_ladder", ladder)
        if self.tol_feas <= 0:
            raise ValueError("tol_feas must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class RateResult:
    i_hat: float
    h_opt: Control
    residual: float
    feasible: bool
    iterations: int


def rate_estimate(rho_target: Trajectory, noise: NoiseModel, bins: int,
                  eta: ScalarField, opt: OptConfig) -> RateResult:
    """Estimated minimal action over controls steering the skeleton to
    the target.

    Runs penalty descent over an increasing penalty ladder, warm-starting
    each level from the previous one, and returns the lowest-action point
    visited whose residual is within opt.tol_feas.  If no visited point
    is feasible the result carries i_hat = inf with the smallest residual
    found, never a float overflow.
    """
    n_modes = noise.n_modes
    if n_modes * bins > DIMENSION_CAP:
        raise ConfigError(f"control dimension {n_modes}x{bins} exceeds "
                          f"the cap {DIMENSION_CAP}")
    n_steps = _check_time_grid(rho_target)
    if bins < 1 or n_steps % bins:
        raise ValueError(f"target steps {n_steps} must be a multiple of "
                         f"control bins {bins}")
    x = inverse_dynamics_start(rho_target, noise, bins).values.flatten()

    # The ladder is allowed to wander through infeasible territory (low
    # penalties actively reward trading feasibility for action), so the
    # answer is the best point seen anywhere along the hike, not the last.
    best_feas = None       # (action, x, residual), residual within tolerance
    best_res = (math.inf, x)
    def track(flat, res):
        nonlocal best_feas, best_res
        if res < best_res[0]:
            best_res = (res, flat)
        if res <= opt.tol_feas:
            act = 0.5 * float(flat @ flat) / bins
            if best_feas is None or act < best_feas[0]:
                best_feas = (act, flat, res)

    total_iters = 0
    for lam in opt.lambda_ladder:
        objectives = _objectives(lam, n_modes, bins, rho_target, noise, eta)
        stall = 0
        for _ in range(opt.max_iters):
            # phi at x is the bundle's own lane, bit for bit the value the
            # previous line search accepted
            g, r, res_here, phi = _fd_bundle(objectives, x)
            track(x, res_here)
            if math.sqrt(float(g @ g)) <= GRAD_TOL:
                break
            # The objective is quadratic action plus lam * (scalar
            # residual)^2, so its stiffness is one rank-one term; scale
            # the gradient by the exact inverse of that surrogate
            # curvature (Sherman-Morrison) to keep steps usable at high
            # penalties.  The direction stays downhill because the
            # scaling matrix is positive definite.
            bq = float(bins)
            rr = float(r @ r)
            d = -bq * (g - (2.0 * lam * bq * float(r @ g))
                       / (1.0 + 2.0 * lam * bq * rr) * r)
            slope = float(g @ d)
            if slope >= 0.0:
                d = -g
                slope = -float(g @ g)
            found = _line_search(objectives, x, d, phi, slope)
            if found is None:
                break
            s, trial_phi = found
            if trial_phi > phi + 1e-12:
                raise NumericalFailure(
                    f"line search accepted an ascent step: objective "
                    f"{phi!r} -> {trial_phi!r}")
            x = x + s * d
            stall = stall + 1 if phi - trial_phi <= 1e-9 * max(1.0, abs(phi)) \
                else 0
            total_iters += 1
            if stall >= 10:
                break

    track(x, skeleton_residual(Control(x.reshape(n_modes, bins)),
                               rho_target, noise, eta))
    if best_feas is not None:
        h_opt = Control(best_feas[1].reshape(n_modes, bins))
        return RateResult(action(h_opt), h_opt, best_feas[2], True,
                          total_iters)
    res, flat = best_res
    return RateResult(math.inf, Control(flat.reshape(n_modes, bins)), res,
                      False, total_iters)
