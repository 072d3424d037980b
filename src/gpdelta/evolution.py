"""Crank-Nicolson evolution of i u_t = H u - (1-|u|^2)u with clamped boundaries.

CN is the implicit midpoint rule: the step iterates on the midpoint w of
(I + i dt/2 H) w = u + (i dt/2) F(w) and returns u+ = 2w - u, which solves
(I + i dt/2 H) u+ = (I - i dt/2 H) u + i dt F((u + u+)/2). H is real symmetric
tridiagonal, so the linear part is a Cayley transform: exactly unitary on the
clamped interior, which is what makes the norm and energy traces meaningful
test objects rather than artifacts of dissipation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .energy import energy_gamma, nonlinear_values, orbit_distance
from .grid import Field, GridSpec, TridiagonalLU, build_hgamma
from .solitons import StateKind, StationaryState, eval_state

__all__ = [
    "EvolveConfig",
    "Trajectory",
    "FixedPointError",
    "InstabilityResult",
    "check_eps",
    "check_fit_points",
    "evolve",
    "instability_run",
    "seeded_perturbation",
    "TARGET_D0",
]


# Midpoint iteration: relative residual tolerance and iteration cap.
_FP_TOL = 1e-12
_FP_MAX_ITER = 50

# Linear steps solve for w + _SHIFT (1 + i): 2^-900 sits far above the subnormals
# (below 2.2e-308) and far below eps times any value read.
_SHIFT = 2.0 ** -900

# The orbit distance d0 a seeded perturbation sits at unless told otherwise.
TARGET_D0 = 0.04

FIT_FLOOR = 10.0
FIT_CEILING = 1e-2
FIT_MIN_POINTS = 4


class FixedPointError(RuntimeError):
    """Midpoint iteration failed to contract; carries the diagnostic state."""

    def __init__(self, message: str, residual: float, iterations: int, time: float):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.time = time

    def __reduce__(self):
        # The default rebuilds from self.args, the message alone.
        return type(self), (str(self), self.residual, self.iterations, self.time)


@dataclass(frozen=True)
class EvolveConfig:
    dt: float
    t_end: float
    gamma: float
    record_every: int = 100
    linear: bool = False

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_end {self.t_end:g} is not a whole number of dt {self.dt:g} "
                             f"steps (t_end/dt = {steps:.6g})")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Energy (and orbit distance) at each recorded time, and the final field.

    No intermediate field is kept, so memory does not grow with the records.
    """

    times: np.ndarray
    energy_trace: np.ndarray
    orbit_trace: np.ndarray | None
    final: np.ndarray

    @property
    def snapshots(self) -> np.ndarray:
        """The final field as one row; only for `benchmarks/`, until its next change."""
        return self.final[None, :]


class _CrankNicolson:
    """Prefactorized midpoint solve on the n - 2 interior samples, the ends held fixed.

    `step` takes and returns interior arrays. The clamped ends are given once;
    their coupling through I + i dt/2 H is a constant on the first and last rows.

    A linear step solves for w + c, c = _SHIFT (1 + i). A decaying packet's tails
    underflow in each part on its own; unshifted, the sweep would carry them down to
    the subnormals, where every operation is many times slower.
    """

    def __init__(self, grid: GridSpec, cfg: EvolveConfig, ends: np.ndarray):
        self.cfg = cfg
        op = build_hgamma(grid, cfg.gamma)
        self._z = 0.5j * cfg.dt
        off = self._z * op.off_diagonal
        diag = 1.0 + self._z * op.diagonal[1:-1]
        bands = np.full(diag.size - 1, off)
        self._lu = TridiagonalLU(bands, diag, bands)
        self._coupling = (off * ends[0], off * ends[-1])  # the ends' terms, first and last row
        self._end_scale = float(np.max(np.abs(ends)))  # their share of max|u| in the tolerance
        c = _SHIFT * (1.0 + 1.0j)
        self._rhs = diag * c  # A c less the coupling: a linear right-hand side's constant part
        self._rhs[:-1] += bands * c
        self._rhs[1:] += bands * c
        self._rhs[[0, -1]] -= self._coupling

    def step(self, u: np.ndarray, prev: np.ndarray, t: float) -> np.ndarray:
        """u advanced by one dt to time t; prev is u one step back. FixedPointError names t."""
        if self.cfg.linear:
            w = self._lu.solve(u + self._rhs)
            w -= _SHIFT * (1.0 + 1.0j)  # w + c, worked on in place
            w *= 2.0
            w -= u
            return w
        base = u.copy()
        base[0] -= self._coupling[0]
        base[-1] -= self._coupling[1]
        w = 1.5 * u - 0.5 * prev  # the midpoint extrapolated from the last two steps
        # The residual is that of u+ = 2w - u, against a scale fixed by u, ends included.
        tol = _FP_TOL * (1.0 + max(float(np.max(np.abs(u))), self._end_scale))
        # A divergent iterate overflows before the residual test sees it: the expected
        # failure, reported at the first non-finite residual, not as a warning.
        finite = math.nan  # the last finite residual, NaN before the first
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, _FP_MAX_ITER + 1):
                rhs = nonlinear_values(w)  # base + z F(w)
                np.multiply(self._z, rhs, out=rhs)
                rhs += base
                new = self._lu.solve(rhs)
                residual = 2.0 * float(np.max(np.abs(new - w)))
                if not math.isfinite(residual):
                    raise FixedPointError(
                        f"step to t={t:.6g} failed: midpoint iteration diverged (residual "
                        f"non-finite at iteration {k}; last finite residual "
                        f"{finite:.2e} at iteration {k - 1})", finite, k - 1, time=t)
                w, finite = new, residual
                if residual <= tol:
                    return 2.0 * w - u
        raise FixedPointError(f"step to t={t:.6g} failed: midpoint iteration stalled "
                              f"(residual {residual:.2e} after {_FP_MAX_ITER} iterations)",
                              residual, _FP_MAX_ITER, time=t)


def evolve(
    u0: Field,
    cfg: EvolveConfig,
    orbit_target: StationaryState | None = None,
) -> Trajectory:
    """Step u0, its end samples held, to t_end; return the final field and the traces.

    Energy (and, with orbit_target, the orbit distance) is evaluated at t = 0,
    every record_every steps and at the last step, as the run passes them. A
    non-finite value at t = 0 is a RuntimeError before any step.
    """
    grid = u0.grid
    full = u0.values.copy()  # the field with its ends, refreshed at each record
    stepper = _CrankNicolson(grid, cfg, full[[0, -1]])
    n_steps = int(round(cfg.t_end / cfg.dt))

    times, energies, orbit = [], [], []

    def record(k: int, u: np.ndarray) -> None:
        times.append(k * cfg.dt)
        full[1:-1] = u
        field = Field(grid, full)
        energies.append(energy_gamma(field, cfg.gamma).total)
        if orbit_target is not None:
            orbit.append(orbit_distance(field, orbit_target.kind, orbit_target.gamma).distance)

    u = prev = full[1:-1].copy()
    # The check below names the stage; numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, u)
    for name, trace in (("energy", energies), ("orbit distance", orbit)):
        if trace and not math.isfinite(trace[0]):
            raise RuntimeError(f"initial state: {name} at t=0 is {trace[0]}; no step taken")
    for k in range(1, n_steps + 1):
        prev, u = u, stepper.step(u, prev, k * cfg.dt)
        if k % cfg.record_every == 0 or k == n_steps:
            record(k, u)

    orbit_trace = np.array(orbit) if orbit_target is not None else None
    return Trajectory(np.asarray(times), np.array(energies), orbit_trace, full)


@dataclass(frozen=True)
class InstabilityResult:
    trajectory: Trajectory
    rate: float | None
    window_points: int


def check_eps(eps: float) -> None:
    """Refuse an instability eps outside (0, 1e-3), where the fit window is empty."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps:g}")
    if not FIT_FLOOR * eps < FIT_CEILING:
        raise ValueError(f"eps must be below 1e-3, got {eps:g}: the fit window "
                         f"[10 eps, 1e-2] = [{FIT_FLOOR * eps:g}, 1e-2] is empty")


def check_fit_points(eps: float, rate: float, cfg: EvolveConfig) -> None:
    """Refuse an eps whose window would hold under FIT_MIN_POINTS of cfg's records at `rate`."""
    points = math.log(FIT_CEILING / (FIT_FLOOR * eps)) / (rate * cfg.dt * cfg.record_every)
    if points < FIT_MIN_POINTS:
        raise ValueError(f"eps {eps:g} at growth rate {rate:.6g} leaves about {points:.2g} "
                         f"recorded points in the fit window [10 eps, 1e-2] = "
                         f"[{FIT_FLOOR * eps:g}, 1e-2]; the fit needs {FIT_MIN_POINTS}")


def instability_run(eps: float, direction: Field, cfg: EvolveConfig) -> InstabilityResult:
    """Evolve kink + eps*direction at cfg.gamma and fit the growth rate of d0 to the kink orbit.

    The fit is least squares on log d0 in [FIT_FLOOR eps, FIT_CEILING], above the projection
    noise and below saturation; fewer than FIT_MIN_POINTS points there give rate None. The
    sampled kink is no discrete steady state: under Crank-Nicolson its own d0 oscillates up
    to about 0.15 h^2 (gamma = 1, t <= 3), which at h = 0.1 and eps = 1e-4 reaches the
    floor and makes the fitted rate wrong.
    """
    if cfg.gamma <= 0.0:
        raise ValueError("instability runs target the repulsive case gamma > 0")
    check_eps(eps)
    norm = float(np.sqrt(np.sum(np.abs(direction.values) ** 2) * direction.grid.h))
    if not np.isclose(norm, 1.0, rtol=1e-8):
        raise ValueError("direction must be normalized")
    kink = StationaryState(StateKind.KINK, cfg.gamma)
    u0 = Field(direction.grid, eval_state(kink, direction.grid).values + eps * direction.values)
    traj = evolve(u0, cfg, orbit_target=kink)

    d = traj.orbit_trace
    mask = (d >= FIT_FLOOR * eps) & (d <= FIT_CEILING)
    # Restrict to the first contiguous stretch so a saturated tail that dips
    # back into the window cannot pollute the fit.
    idx = np.flatnonzero(mask)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    if breaks.size:
        idx = idx[: breaks[0] + 1]
    if idx.size < FIT_MIN_POINTS:
        return InstabilityResult(traj, None, int(idx.size))
    slope = np.polyfit(traj.times[idx], np.log(d[idx]), 1)[0]
    return InstabilityResult(traj, float(slope), int(idx.size))


def seeded_perturbation(
    state: StationaryState,
    grid: GridSpec,
    seed: int,
    target_d0: float = TARGET_D0,
) -> Field:
    """Soliton plus three random complex bumps, scaled to sit at target_d0.

    Bumps live well inside the box so the clamped boundary values stay those
    of the unperturbed soliton. d0 is not homogeneous in the bump amplitude
    (the modulus term is quadratic and the optimal phase moves), so a single
    proportional rescale can land 2x off target; solve for the scale with a
    bracketed root find instead.
    """
    if target_d0 <= 0.0:
        raise ValueError(f"target_d0 must be positive, got {target_d0}")
    rng = np.random.default_rng([1, seed])
    centers = rng.uniform(-5.0, 5.0, 3)
    widths = rng.uniform(0.6, 2.0, 3)
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    pert = np.zeros(grid.n_nodes, dtype=complex)
    for c, w, a in zip(centers, widths, amps):
        pert += a * np.exp(-(((grid.x - c) / w) ** 2))
    pert[[0, -1]] = 0.0  # exact zeros: the held ends are the soliton's
    base = eval_state(state, grid)

    def d0(s: float) -> float:
        # The check below names the stage; numpy's overflow warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            trial = Field(grid, base.values + s * pert)
            d = orbit_distance(trial, state.kind, state.gamma).distance
        if not math.isfinite(d):
            raise RuntimeError(f"perturbation scale search: d0 is {d} at scale {s:.3g}, "
                               f"so target_d0={target_d0:g} is out of reach")
        return d

    hi = target_d0 / d0(1.0)
    lo = 0.0
    while d0(hi) < target_d0:
        lo, hi = hi, 2.0 * hi
    scale = brentq(lambda s: d0(s) - target_d0, lo, hi, rtol=1e-6)
    if not abs((d := d0(scale)) - target_d0) <= 1e-4 * target_d0:  # d0 is noise near rounding
        raise ValueError(f"perturbation scale search: d0 {d:.3g} misses target_d0={target_d0:g}")
    return Field(grid, base.values + scale * pert)
