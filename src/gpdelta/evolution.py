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
    "evolve",
    "instability_run",
    "seeded_perturbation",
]


# Midpoint iteration: relative residual tolerance and iteration cap.
_FP_TOL = 1e-12
_FP_MAX_ITER = 50

# Linear steps solve for w + _SHIFT (1 + i) on the interior rows: 2^-900 sits far
# above the subnormals (below 2.2e-308) and far below eps times any value read.
_SHIFT = 2.0 ** -900


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
    """Prefactorized midpoint solve for a fixed (grid, dt, gamma).

    Rows and columns 0 and n-1 of the factored I + i dt/2 H are identity; `step`
    moves the ends' coupling into the right-hand side, so no pivot mixes them in.
    With F zeroed there, w keeps u's end samples bit for bit, and so does 2w - u,
    since 2x and 2x - x are exact. Elsewhere this is the plain midpoint rule.

    A linear step solves for w + c, with c = _SHIFT (1 + i) on the interior rows.
    A decaying packet's tails underflow, and the solve's forward sweep would carry
    them down to the smallest subnormal, where every operation is many times
    slower; shifted, no sweep works on a value near that range. Both parts of c
    are nonzero, since each underflows on its own. c is 0 on the end rows, where
    A c is then 0, so the end samples stay bit for bit.
    """

    def __init__(self, grid: GridSpec, cfg: EvolveConfig):
        self.cfg = cfg
        op = build_hgamma(grid, cfg.gamma)
        self._z = 0.5j * cfg.dt
        self._off = self._z * op.off_diagonal
        diag = np.ones(grid.n_nodes, dtype=complex)
        diag[1:-1] += self._z * op.diagonal[1:-1]
        off = np.full(grid.n_nodes - 1, self._off)
        off[0] = off[-1] = 0.0
        self._lu = TridiagonalLU(off, diag, off)
        c = np.full(grid.n_nodes, _SHIFT * (1.0 + 1.0j))
        c[0] = c[-1] = 0.0
        self._ac = diag * c  # the band product A c
        self._ac[:-1] += off * c[1:]
        self._ac[1:] += off * c[:-1]

    def step(self, u: np.ndarray, prev: np.ndarray, t: float) -> np.ndarray:
        """u advanced by one dt to time t; prev is u one step back. FixedPointError names t."""
        # u with the clamped ends' coupling moved into rows 1 and n-2.
        base = u + self._ac if self.cfg.linear else u.copy()
        base[1] -= self._off * u[0]
        base[-2] -= self._off * u[-1]
        if self.cfg.linear:
            w = self._lu.solve(base)  # w + c, worked on in place
            w[1:-1] -= _SHIFT * (1.0 + 1.0j)
            w *= 2.0
            w -= u
            return w
        w = 1.5 * u - 0.5 * prev  # the midpoint extrapolated from the last two steps
        # The residual is that of u+ = 2w - u, against a scale fixed by u.
        tol = _FP_TOL * (1.0 + float(np.max(np.abs(u))))
        # A divergent iterate overflows before the residual test catches it;
        # that is the expected failure mode, reported at the first non-finite
        # residual, not a warning.
        finite = math.nan  # the last finite residual, NaN before the first
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, _FP_MAX_ITER + 1):
                f = nonlinear_values(w)
                f[0] = f[-1] = 0.0
                new = self._lu.solve(base + self._z * f)
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
    """Step u0 to t_end and return the final field with the recorded traces.

    Energy (and, with orbit_target, the orbit distance) is evaluated at t = 0,
    every record_every steps and at the last step, as the run passes them. A
    non-finite value at t = 0 is a RuntimeError before any step.
    """
    grid = u0.grid
    stepper = _CrankNicolson(grid, cfg)
    n_steps = int(round(cfg.t_end / cfg.dt))

    times, energies, orbit = [], [], []

    def record(k: int, u: np.ndarray) -> None:
        times.append(k * cfg.dt)
        field = Field(grid, u)
        energies.append(energy_gamma(field, cfg.gamma).total)
        if orbit_target is not None:
            orbit.append(orbit_distance(field, orbit_target.kind, orbit_target.gamma).distance)

    u = prev = u0.values.copy()
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
    return Trajectory(np.asarray(times), np.array(energies), orbit_trace, u)


@dataclass(frozen=True)
class InstabilityResult:
    trajectory: Trajectory
    rate: float | None
    window_points: int


def instability_run(eps: float, direction: Field, cfg: EvolveConfig) -> InstabilityResult:
    """Evolve kink + eps*direction at cfg.gamma and fit the growth rate of d0 to the kink orbit.

    The fit is least squares on log d0 over the window d0 in [10 eps, 1e-2]:
    below it the signal is still projection-contaminated, above it nonlinear
    saturation bends the curve. Fewer than 4 recorded points in the window
    means no exponential growth was seen, reported as rate None.
    """
    if cfg.gamma <= 0.0:
        raise ValueError("instability runs target the repulsive case gamma > 0")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps:g}")
    if not 10.0 * eps < 1e-2:
        raise ValueError(f"eps must be below 1e-3, got {eps:g}: the fit window "
                         f"[10 eps, 1e-2] = [{10.0 * eps:g}, 1e-2] is empty")
    norm = float(np.sqrt(np.sum(np.abs(direction.values) ** 2) * direction.grid.h))
    if not np.isclose(norm, 1.0, rtol=1e-8):
        raise ValueError("direction must be normalized")
    kink = StationaryState(StateKind.KINK, cfg.gamma)
    base = eval_state(kink, direction.grid)
    u0 = Field(direction.grid, base.values + eps * direction.values)
    traj = evolve(u0, cfg, orbit_target=kink)

    d = traj.orbit_trace
    mask = (d >= 10.0 * eps) & (d <= 1e-2)
    # Restrict to the first contiguous stretch so a saturated tail that dips
    # back into the window cannot pollute the fit.
    idx = np.flatnonzero(mask)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    if breaks.size:
        idx = idx[: breaks[0] + 1]
    if idx.size < 4:
        return InstabilityResult(traj, None, int(idx.size))
    slope = np.polyfit(traj.times[idx], np.log(d[idx]), 1)[0]
    return InstabilityResult(traj, float(slope), int(idx.size))


def seeded_perturbation(
    state: StationaryState,
    grid: GridSpec,
    seed: int,
    target_d0: float = 0.04,
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
    x = grid.x
    pert = np.zeros(grid.n_nodes, dtype=complex)
    for c, w, a in zip(centers, widths, amps):
        pert += a * np.exp(-(((x - c) / w) ** 2))
    pert[0] = 0.0  # exact zeros: the clamped rows hold endpoints forever
    pert[-1] = 0.0
    base = eval_state(state, grid)

    def excess(s: float) -> float:
        trial = Field(grid, base.values + s * pert)
        return orbit_distance(trial, state.kind, state.gamma).distance - target_d0

    hi = target_d0 / (excess(1.0) + target_d0)
    lo = 0.0
    while excess(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    scale = brentq(excess, lo, hi, rtol=1e-6)
    return Field(grid, base.values + scale * pert)
