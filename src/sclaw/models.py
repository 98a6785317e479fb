"""Flux and noise models, certificate validation, noise paths, run config.

A flux model carries the scalar flux A, its derivative a = A', and the
pieces of the Engquist-Osher numerical flux in closed form.  A noise
model is a finite family of modes g_k(x, u) = sigma_k * phi_k(x) *
(alpha_k + beta_k * u) with spatial profile phi_k constant, cos, or sin.
``validate_flux`` checks the flux's declared growth/Lipschitz
inequalities on a sampling lattice and reports the worst ratio and where
it occurred.  The noise constants are derived so that their inequalities
hold by construction, and ``validate_noise`` states them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random import Generator, Philox

FLUX_KINDS = ("zero", "linear", "burgers", "polynomial")
PROFILE_KINDS = ("constant", "cos", "sin")

# Stream identifiers keyed into the RNG so that independent Monte Carlo
# samples (e.g. the two sides of a distribution comparison) never share
# Brownian increments.
STREAM_MAIN = 0
STREAM_BASE = 1
STREAM_SCALED = 2


# ---------------------------------------------------------------------------
# flux models


@dataclass(frozen=True)
class FluxModel:
    """Scalar flux A with closed-form Engquist-Osher decomposition.

    With A+(u) and A-(u) the exact integrals of max(a, 0) and min(a, 0)
    from 0 to u, the two-point numerical flux is

        F(ul, ur) = A(0) + A+(ul) + A-(ur),

    consistent (F(c, c) = A(c)), nondecreasing in ul and nonincreasing
    in ur.  ``growth_const`` (N) and ``growth_power`` (q0 >= 1) declare
    the polynomial growth certificate |a(xi)| <= N * (1 + |xi|^q0).
    """

    kind: str
    growth_power: float
    growth_const: float
    speed: float = 0.0
    coeffs: tuple[float, ...] = ()
    _a_roots: np.ndarray = field(init=False, repr=False, compare=False)
    _take_pos: np.ndarray = field(init=False, repr=False, compare=False)
    _take_neg: np.ndarray = field(init=False, repr=False, compare=False)
    _phi_pos: np.ndarray = field(init=False, repr=False, compare=False)
    _phi_neg: np.ndarray = field(init=False, repr=False, compare=False)
    _crit: np.ndarray = field(init=False, repr=False, compare=False)
    _a0: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in FLUX_KINDS:
            raise ValueError(f"unknown flux kind: {self.kind}")
        if self.growth_power < 1:
            raise ValueError(f"growth_power must be >= 1, got {self.growth_power}")
        if self.growth_const < 0:
            raise ValueError(f"growth_const must be >= 0, got {self.growth_const}")
        if self.kind == "polynomial" and len(self.coeffs) == 0:
            raise ValueError("coeffs must be non-empty for a polynomial flux")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "_a0", float(self.A(0.0)))
        self._build_piecewise()

    # -- basic evaluations --------------------------------------------------

    def A(self, u, out=None):
        """Flux function, formed in out (not u) when given."""
        u = np.asarray(u, dtype=float)
        if out is None:
            out = np.empty_like(u)
        if self.kind == "zero":
            out.fill(0.0)
        elif self.kind == "linear":
            np.multiply(self.speed, u, out=out)
        elif self.kind == "burgers":
            np.multiply(np.multiply(0.5, u, out=out), u, out=out)
        else:
            horner(u, self.coeffs, out)
        return out

    def a(self, u):
        """Characteristic speed a = A'."""
        u = np.asarray(u, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(u)
        if self.kind == "linear":
            return np.full_like(u, self.speed)
        if self.kind == "burgers":
            return u.copy()
        return np.polynomial.polynomial.polyval(u, self._da_coeffs)

    @property
    def speed_coeffs(self) -> tuple[float, ...]:
        """Ascending power-series coefficients of a (every kind is polynomial)."""
        if self.kind == "polynomial":
            return self._da_coeffs
        return {"zero": (0.0,), "linear": (self.speed,),
                "burgers": (0.0, 1.0)}[self.kind]

    def growth_envelope(self, xi):
        """Right-hand side of the growth certificate, N * (1 + |xi|^q0)."""
        return self.growth_const * (1.0 + np.abs(xi) ** self.growth_power)

    def lipschitz_envelope(self, xi, zeta, out=None):
        """Local Lipschitz envelope N * (1 + |xi|^(q0-1) + |zeta|^(q0-1)),
        formed in out when given."""
        q = self.growth_power - 1.0
        env = np.add(1.0 + np.abs(xi) ** q, np.abs(zeta) ** q, out=out)
        return np.multiply(self.growth_const, env, out=env)

    # -- Engquist-Osher pieces ----------------------------------------------

    def eo_flux(self, ul, ur, out, work):
        """Engquist-Osher two-point flux (a0 + A+(ul)) + A-(ur).

        A+(ul) is formed in the buffer out and A-(ur) in the buffer work,
        each in closed form for its kind.  Burgers skips the a0 add:
        a0 = 0 and 0.5 * max(ul, 0)**2 is never -0.0, so 0.0 + out is out
        bit for bit.  Returns out.
        """
        if self.kind == "zero":
            out.fill(0.0)
            work.fill(0.0)
        elif self.kind == "linear":
            np.multiply(max(self.speed, 0.0), ul, out=out)
            np.multiply(min(self.speed, 0.0), ur, out=work)
        elif self.kind == "burgers":
            for buf, part, u in ((out, np.maximum, ul),
                                 (work, np.minimum, ur)):
                part(u, 0.0, out=buf)
                np.square(buf, out=buf)
                np.multiply(0.5, buf, out=buf)
        else:
            out[...] = self._piecewise_part(ul, positive=True)
            work[...] = self._piecewise_part(ur, positive=False)
        if self.kind != "burgers":
            np.add(self._a0, out, out=out)
        out += work
        return out

    def sup_abs_a(self, lo: float, hi: float) -> float:
        """sup |a| over [lo, hi]: endpoints plus interior critical points."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "linear":
            return abs(self.speed)
        if self.kind == "burgers":
            return max(abs(lo), abs(hi))
        cand = [lo, hi]
        cand.extend(r for r in self._crit if lo < r < hi)
        return float(np.max(np.abs(self.a(np.array(cand)))))

    # -- internal piecewise machinery for polynomial kind -------------------

    def _build_piecewise(self):
        empty = np.empty(0)
        if self.kind != "polynomial":
            for name in ("_a_roots", "_take_pos", "_take_neg", "_phi_pos",
                         "_phi_neg", "_crit"):
                object.__setattr__(self, name, empty)
            return
        pa = np.polynomial.Polynomial(self.coeffs).deriv()
        object.__setattr__(self, "_da_coeffs", tuple(pa.coef))
        roots = pa.roots() if pa.degree() >= 1 else np.empty(0, dtype=complex)
        real = np.sort(np.real(roots[np.abs(np.imag(roots)) < 1e-9]))
        # merge numerically coincident roots
        keep = []
        for r in real:
            if not keep or r - keep[-1] > 1e-9 * max(1.0, abs(r)):
                keep.append(float(r))
        knots = np.array(keep)
        # second-derivative roots, for range maximization of |a|
        paa = pa.deriv()
        croots = paa.roots() if paa.degree() >= 1 else np.empty(0, dtype=complex)
        crit = np.sort(np.real(croots[np.abs(np.imag(croots)) < 1e-9]))
        object.__setattr__(self, "_crit", crit)
        object.__setattr__(self, "_a_roots", knots)
        # constant sign of a on each of the m+1 intervals between knots
        if knots.size:
            mids = np.concatenate([[knots[0] - 1.0],
                                   0.5 * (knots[:-1] + knots[1:]),
                                   [knots[-1] + 1.0]])
        else:
            mids = np.array([0.0])
        sgn = np.sign(np.polynomial.polynomial.polyval(mids, self._da_coeffs))
        object.__setattr__(self, "_take_pos", (sgn > 0).astype(float))
        object.__setattr__(self, "_take_neg", (sgn < 0).astype(float))
        # cumulative antiderivative values at the knots, anchored at knots[0]
        for attr, take in (("_phi_pos", self._take_pos),
                           ("_phi_neg", self._take_neg)):
            phi = np.zeros(max(knots.size, 1))
            if knots.size > 1:
                jumps = take[1:-1] * np.diff(self.A(knots))
                phi[1:] = np.cumsum(jumps)
            object.__setattr__(self, attr, phi)

    def _piecewise_part(self, u, positive: bool):
        take = self._take_pos if positive else self._take_neg
        phi = self._phi_pos if positive else self._phi_neg
        knots = self._a_roots
        if knots.size == 0:
            scale = take[0]
            return scale * (self.A(u) - self.A(0.0))

        def antider(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            j = np.searchsorted(knots, x)
            left = np.maximum(j - 1, 0)
            ref = knots[np.where(j == 0, 0, left)]
            base = np.where(j == 0, 0.0, phi[left])
            return base + take[j] * (self.A(x) - self.A(ref))

        out = antider(u) - antider(0.0)[0]
        return out.reshape(np.shape(u))


def horner(x, coeffs, out):
    """np.polynomial.polynomial.polyval(x, coeffs) for ascending 1-D
    coeffs, operation for operation, formed in out (not x)."""
    c = np.asarray(coeffs, dtype=float)
    np.add(c[-1], np.multiply(x, 0, out=out), out=out)
    for ck in c[-2::-1]:
        np.add(ck, np.multiply(out, x, out=out), out=out)
    return out


def make_flux(kind: str, *, growth_power: float = 2.0, growth_const: float = 1.0,
              speed: float = 0.0, coeffs=()) -> FluxModel:
    return FluxModel(kind=kind, growth_power=growth_power,
                     growth_const=growth_const, speed=speed,
                     coeffs=tuple(coeffs))


# ---------------------------------------------------------------------------
# noise models


@dataclass(frozen=True)
class NoiseMode:
    """One forcing mode sigma * phi(x) * (alpha + beta * u)."""

    sigma: float
    profile: str = "constant"
    wavenumber: int = 1
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if self.profile not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind: {self.profile}")
        if self.profile != "constant" and self.wavenumber < 1:
            raise ValueError(f"wavenumber must be >= 1, got {self.wavenumber}")

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        if self.profile == "constant":
            return np.ones_like(x)
        w = 2.0 * np.pi * self.wavenumber
        return np.cos(w * x) if self.profile == "cos" else np.sin(w * x)

    @property
    def profile_slope(self) -> float:
        """Lipschitz constant of phi on the torus."""
        if self.profile == "constant":
            return 0.0
        try:
            return 2.0 * np.pi * self.wavenumber
        except OverflowError:       # an int wavenumber past the float range
            return math.inf


@dataclass(frozen=True)
class NoiseModel:
    """Finite family of affine noise modes with derived certificate constants.

    Per-mode constants (certified for |u| <= state_bound):

        C0_k = |sigma_k| * (|alpha_k| + |beta_k|)
        C1_k = |sigma_k| * max(Lphi_k * (|alpha_k| + |beta_k| * state_bound),
                               |beta_k|)

    and the aggregates D0 = 2 * sum C0_k^2, D1 = 2 * sum C1_k^2.  They
    give |g_k(x, u)| <= C0_k (1 + |u|), |g_k(x, u) - g_k(y, v)| <=
    C1_k (|x - y| + |u - v|), G^2 <= D0 (1 + u^2) and sum_k |g_k(x, u) -
    g_k(y, v)|^2 <= D1 (|x - y|^2 + |u - v|^2) from |phi| <= 1, Lip phi =
    2 pi w, the triangle inequality and (a + b)^2 <= 2 (a^2 + b^2).  The
    x-Lipschitz part of C1 cannot be state-uniform when a varying
    profile multiplies a state-dependent factor, which is why the
    certificate is tied to a bounded state range.
    """

    modes: tuple[NoiseMode, ...]
    state_bound: float = 10.0
    _stacked: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if self.state_bound <= 0:
            raise ValueError("state_bound must be positive")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mode_growth_consts(self) -> np.ndarray:
        return np.array([abs(m.sigma) * (abs(m.alpha) + abs(m.beta))
                         for m in self.modes])

    def mode_lipschitz_consts(self) -> np.ndarray:
        out = []
        for m in self.modes:
            space = m.profile_slope * (abs(m.alpha) + abs(m.beta) * self.state_bound)
            state = abs(m.beta)
            out.append(abs(m.sigma) * max(space, state))
        return np.array(out)

    @property
    def D0(self) -> float:
        c = self.mode_growth_consts()
        return float(2.0 * np.sum(c * c))

    @property
    def D1(self) -> float:
        c = self.mode_lipschitz_consts()
        return float(2.0 * np.sum(c * c))

    def stacked_parts(self, grid) -> np.ndarray:
        """[P0 | P1], (K, 2 * cells), with g_k(x, u) = P0[k] + P1[k] * u
        at the grid's cell centers x; the per-step noise increment is
        then amp * (P0^T db + (P1^T db) * u).  Built once per grid and
        read-only.  Worker threads may share the model: setdefault on an
        int key is atomic, so every caller gets the first array stored."""
        parts = self._stacked.get(grid.cells)
        if parts is None:
            m, x = grid.cells, grid.centers
            parts = np.empty((self.n_modes, 2 * m))
            for k, mode in enumerate(self.modes):
                parts[k, :m] = mode.sigma * mode.alpha * mode.phi(x)
                parts[k, m:] = mode.sigma * mode.beta * mode.phi(x)
            parts.setflags(write=False)
            parts = self._stacked.setdefault(grid.cells, parts)
        return parts


def additive_noise(scale: float) -> NoiseModel:
    """Single constant mode g(x, u) = scale."""
    return NoiseModel(modes=(NoiseMode(sigma=scale, alpha=1.0, beta=0.0),))


# ---------------------------------------------------------------------------
# certificate validation


@dataclass(frozen=True)
class CheckResult:
    """A sampled check, with its worst lhs/rhs and where it occurred, or
    a stated constant, with no point and worst_ratio holding the value."""

    name: str
    passed: bool
    worst_ratio: float
    worst_point: tuple[float, ...]


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class _Worst:
    """Running worst lhs/rhs of a ratio check fed one lattice tile at a time.

    Tiles arrive in the C order of the whole lattice.  A tile's worst
    replaces the held one only when the held value is not nan and the
    tile's is nan or strictly larger: that is how np.argmax ranks nan,
    and it keeps the first occurrence on ties, so the result equals one
    argmax over the whole lattice.
    """

    def __init__(self, name: str):
        self.name = name
        self.worst = None
        self.point = ()

    def add(self, lhs, rhs, points, out=None) -> "_Worst":
        """Fold in one tile; each of points broadcasts against it.  out,
        a float and a bool array of the tile's shape, takes the tile's
        ratios and mask in place of fresh arrays."""
        ratio, off = (None, None) if out is None else out
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(lhs, rhs, out=ratio)
        # where not rhs > 0 (nan included) the ratio reads inf if lhs > 0,
        # else 0
        off = np.logical_not(np.greater(rhs, 0, out=off), out=off)
        off = np.broadcast_to(off, ratio.shape)
        if off.any():
            ratio[off] = np.where(np.broadcast_to(lhs, ratio.shape)[off] > 0,
                                  np.inf, 0.0)
        flat = int(np.argmax(ratio))
        worst = float(ratio.flat[flat])
        held = self.worst
        if held is None or (not math.isnan(held)
                            and (math.isnan(worst) or worst > held)):
            idx = np.unravel_index(flat, ratio.shape)
            self.worst = worst
            self.point = tuple(float(np.broadcast_to(p, ratio.shape)[idx])
                               for p in points)
        return self

    def result(self) -> CheckResult:
        """Passes when lhs <= rhs everywhere; a relative slack of 1e-12
        absorbs roundoff where the inequality is attained with equality."""
        return CheckResult(self.name, self.worst <= 1.0 + 1e-12, self.worst,
                           self.point)


def _ratio_check(name: str, lhs: np.ndarray, rhs: np.ndarray,
                 points: list[np.ndarray]) -> CheckResult:
    """Worst lhs/rhs over a whole lattice in one tile."""
    return _Worst(name).add(lhs, rhs, points).result()


# half-width of validate_flux's lattice: the flux certificate is checked
# for states in [-FLUX_LATTICE_RADIUS, FLUX_LATTICE_RADIUS] only
FLUX_LATTICE_RADIUS = 10.0

# points per axis of validate_flux's lattice
_FLUX_LATTICE_N = 1024

# zeta rows per tile of validate_flux's lattice: 16 x 1024 points, so a
# tile's float array is 128 KB
_FLUX_TILE = 16


def validate_flux(flux: FluxModel) -> ValidationReport:
    """Check the declared growth and local-Lipschitz certificates of a
    flux on the lattice xi, zeta in [-FLUX_LATTICE_RADIUS,
    FLUX_LATTICE_RADIUS], the 2-D one in tiles of _FLUX_TILE zeta rows.
    The tiles' work arrays are allocated once per call: a fresh
    tile-sized temporary per operation costs a page fault per 4 KB
    whenever malloc hands it out from mmap."""
    xi = np.linspace(-FLUX_LATTICE_RADIUS, FLUX_LATTICE_RADIUS,
                     _FLUX_LATTICE_N)
    a_xi = flux.a(xi)
    growth = _ratio_check("speed_growth", np.abs(a_xi),
                          flux.growth_envelope(xi), [xi])
    lipschitz = _Worst("speed_local_lipschitz")
    work = np.empty((3, _FLUX_TILE, _FLUX_LATTICE_N))
    flags = np.empty((_FLUX_TILE, _FLUX_LATTICE_N), dtype=bool)
    for lo in range(0, _FLUX_LATTICE_N, _FLUX_TILE):
        zeta = xi[lo:lo + _FLUX_TILE, None]
        gap, diff, env = work[:, :len(zeta)]
        off = flags[:len(zeta)]
        np.abs(np.subtract(xi, zeta, out=gap), out=gap)
        np.abs(np.subtract(a_xi, a_xi[lo:lo + _FLUX_TILE, None], out=diff),
               out=diff)
        flux.lipschitz_envelope(xi, zeta, out=env)
        env *= gap
        # where gap is not > 0 the check reads 0 / 1
        np.logical_not(np.greater(gap, 0, out=off), out=off)
        np.copyto(diff, 0.0, where=off)
        np.copyto(env, 1.0, where=off)
        # gap and off are spent: they take the tile's ratios and mask
        lipschitz.add(diff, env, [xi, zeta], out=(gap, off))
    return ValidationReport(f"flux[{flux.kind}]",
                            (growth, lipschitz.result()))


def _pow2_floor(x: float) -> float:
    """Largest power of two not above x > 0 (1.0 for x == 0)."""
    return math.ldexp(1.0, math.frexp(x)[1] - 1) if x else 1.0


def _rescaled(noise: NoiseModel, scale: float) -> NoiseModel:
    """The model with every sigma divided by scale."""
    return NoiseModel(tuple(replace(m, sigma=m.sigma / scale)
                            for m in noise.modes), noise.state_bound)


def _common_scale(noise: NoiseModel) -> float:
    """The power of two of the largest sigma."""
    return _pow2_floor(max((abs(m.sigma) for m in noise.modes), default=0.0))


def _constants_finite(noise: NoiseModel, b: float = math.ulp(0.0)) -> bool:
    """Whether D0, D1 and the certificates' right-hand sides at |u| = b,
    D0 (1 + b^2) and D1 (1 + 4 b^2) of the model rescaled by its largest
    sigma, are finite at state bound b, by default the smallest positive
    one."""
    model = replace(noise, state_bound=b)
    common = _rescaled(model, _common_scale(model))
    with np.errstate(over="ignore"):
        sides = (model.D0, model.D1, common.D0 * (1.0 + b * b),
                 common.D1 * (1.0 + 4.0 * b * b))
    return all(map(math.isfinite, sides))


def check_state_bound(noise: NoiseModel) -> None:
    """Raise ValueError naming state_bound when it alone makes the noise
    constants overflow: they are finite at the smallest positive bound
    but not at state_bound."""
    if _constants_finite(noise) and not _constants_finite(
            noise, noise.state_bound):
        raise ValueError(f"state_bound {noise.state_bound!r} overflows D1 "
                         "or the certificates' right-hand sides at |u| = b "
                         "= state_bound, D0 (1 + b^2) and D1 (1 + 4 b^2)")


def check_mode_constants(noise: NoiseModel) -> None:
    """Raise ValueError naming a mode's key when the noise constants
    overflow at any state bound: the first of sigma, wavenumber, alpha
    and beta whose unit value makes its mode's constants finite."""
    if _constants_finite(noise):
        return
    for i, mode in enumerate(noise.modes):
        if _constants_finite(NoiseModel((mode,))):
            continue
        for key, unit in (("sigma", 1.0), ("wavenumber", 1), ("alpha", 1.0),
                          ("beta", 0.0)):
            if _constants_finite(NoiseModel((replace(mode, **{key: unit}),))):
                raise ValueError(f"modes[{i}].{key} overflows the noise "
                                 "constants")
    raise ValueError("modes overflow the noise constants")


def validate_noise(noise: NoiseModel) -> ValidationReport:
    """State the noise constants and the state bound they hold on.

    Every certificate inequality follows from the constants' formulas
    (see NoiseModel), so nothing is sampled: a stated constant fails
    only when it is not finite.
    """
    with np.errstate(over="ignore"):
        stated = [("state_bound", noise.state_bound)]
        for k, (c0, c1) in enumerate(zip(noise.mode_growth_consts(),
                                         noise.mode_lipschitz_consts())):
            stated += [(f"mode{k}_C0", c0), (f"mode{k}_C1", c1)]
        stated += [("D0", noise.D0), ("D1", noise.D1)]
    return ValidationReport(f"noise[{noise.n_modes} modes]", tuple(
        CheckResult(name, math.isfinite(v), float(v), ())
        for name, v in stated))


# ---------------------------------------------------------------------------
# counter-keyed Brownian increments


@dataclass(frozen=True)
class NoisePath:
    """Per-step, per-mode Brownian increments with variance dt.

    The block of standard normals for a path is a pure function of the
    counter-based key (seed, stream, path_index): seed and stream form
    the Philox key, path_index sits in the high counter word.  The
    increment at (step, mode) therefore never depends on generation
    order or on how many other paths were sampled, which is what makes
    multi-threaded tallies bitwise reproducible.
    """

    seed: int
    stream: int
    path_index: int
    dt: float
    increments: np.ndarray

    def __post_init__(self):
        inc = np.array(self.increments, dtype=float, copy=True)
        if inc.ndim != 2:
            raise ValueError("increments must be (steps, modes)")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @classmethod
    def generate(cls, seed: int, stream: int, path_index: int,
                 n_steps: int, n_modes: int, dt: float) -> "NoisePath":
        inc = block_increments(seed, stream, [path_index], n_steps,
                               n_modes, dt)
        return cls(seed, stream, path_index, dt, inc[:, :, 0])


def block_increments(seed: int, stream: int, path_indices, n_steps: int,
                     n_modes: int, dt: float) -> np.ndarray:
    """Increments of a block of paths, step-major: (n_steps, n_modes, paths).

    Column r is the NoisePath of path_indices[r]: each path draws its
    (n_steps, n_modes) normals from its own Philox counter, then the
    whole block is scaled by sqrt(dt) in place.  One Philox generator
    serves the block: before each path its state is reset to that of a
    fresh Philox(counter=[0, 0, i, 0], key=key), so no draw depends on
    the path drawn before it.
    """
    indices = [int(i) for i in path_indices]
    if min(seed, stream, *indices) < 0 or max(seed, stream) >= 2 ** 64:
        raise ValueError("seed and stream must lie in [0, 2**64) and "
                         "path_index must be nonnegative")
    if n_steps < 1 or dt <= 0:
        raise ValueError("need n_steps >= 1 and dt > 0")
    out = np.empty((n_steps, max(n_modes, 0), len(indices)))
    z = np.empty(out.shape[:2])
    # a list of Python ints above 2**63 would reach Philox through float64
    key = np.array([seed, stream], dtype=np.uint64)
    bits = Philox(key=key)
    gen = Generator(bits)
    fresh = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for r, i in enumerate(indices):
        fresh["state"]["counter"][2] = i
        bits.state = fresh
        gen.standard_normal(out=z)
        out[:, :, r] = z
    out *= math.sqrt(dt)
    return out


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class SimConfig:
    """Static description of one stochastic run on the unit horizon.

    Exactly one time-step policy applies: an explicit dt (must divide
    1) or a CFL-derived dt.  ``cfl_fraction`` doubles as the
    ceiling of the per-step Courant certificate even when dt is
    explicit.
    """

    epsilon: float
    cells: int
    seed: int
    dt: float | None = None
    cfl_fraction: float = 0.45
    splitting: str = "lie"
    save_stride: int = 1

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.cells < 2:
            raise ValueError(f"cells must be >= 2, got {self.cells}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive when given")
        if not 0.0 < self.cfl_fraction < 1.0:
            raise ValueError(
                f"cfl_fraction must lie in (0, 1), got {self.cfl_fraction}")
        if self.splitting not in ("lie", "strang"):
            raise ValueError(f"unknown splitting: {self.splitting}")
        if self.save_stride < 1:
            raise ValueError("save_stride must be >= 1")
        if self.dt is not None:
            n = round(1.0 / self.dt)
            if n < 1 or abs(n * self.dt - 1.0) > 1e-9:
                raise ValueError(f"dt={self.dt} does not divide 1")

    @property
    def grid(self) -> "TorusGrid":
        from .grid import TorusGrid
        return TorusGrid(self.cells)
