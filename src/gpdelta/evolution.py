"""Crank-Nicolson evolution of i u_t = H u - (1-|u|^2)u with clamped boundaries.

The step solves (I + i dt/2 H) u+ = (I - i dt/2 H) u + i dt F(u_mid) with
u_mid = (u + u+)/2 resolved by fixed-point iteration. H is real symmetric
tridiagonal, so the linear part is a Cayley transform: exactly unitary on the
clamped interior, which is what makes the norm and energy traces meaningful
test objects rather than artifacts of dissipation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .energy import energy_gamma, orbit_distance
from .grid import Field, GridSpec, TridiagonalLU, build_hgamma
from .solitons import StationaryState, eval_state

__all__ = [
    "EvolveConfig",
    "Trajectory",
    "FixedPointError",
    "InstabilityResult",
    "cn_step",
    "evolve",
    "instability_run",
    "seeded_perturbation",
]


class FixedPointError(RuntimeError):
    """Midpoint iteration failed to contract; carries the diagnostic state."""

    def __init__(self, message: str, residual: float, iterations: int, time: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.time = time


@dataclass(frozen=True)
class EvolveConfig:
    dt: float
    t_end: float
    gamma: float
    nonlinear_tol: float = 1e-12
    nonlinear_max_iter: int = 50
    record_every: int = 100
    linear: bool = False

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if not self.nonlinear_tol > 0.0:
            raise ValueError("nonlinear_tol must be positive")
        if self.nonlinear_max_iter < 1:
            raise ValueError("nonlinear_max_iter must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Energy (and orbit distance) at each recorded time, and the final field.

    No intermediate field is kept, so memory does not grow with the records.
    """

    grid: GridSpec
    times: np.ndarray
    energy_trace: np.ndarray
    orbit_trace: np.ndarray | None
    final: np.ndarray

    def __post_init__(self):
        lengths = {self.times.shape[0], self.energy_trace.shape[0]}
        if self.orbit_trace is not None:
            lengths.add(self.orbit_trace.shape[0])
        if len(lengths) != 1:
            raise ValueError("trace arrays must have equal lengths")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def snapshots(self) -> np.ndarray:
        """The final field as one row; only for `benchmarks/`, until its next change."""
        return self.final[None, :]


class _CrankNicolson:
    """Prefactorized step operator for a fixed (grid, dt, gamma).

    Boundary rows of both Cayley factors are identity, so the endpoints hold
    whatever the initial condition put there; everything else is the plain
    tridiagonal midpoint rule.
    """

    def __init__(self, grid: GridSpec, cfg: EvolveConfig):
        self.cfg = cfg
        op = build_hgamma(grid, cfg.gamma)
        n = grid.n_nodes
        z = 0.5j * cfg.dt
        diag = np.ones(n, dtype=complex)
        diag[1:-1] += z * op.diagonal[1:-1]
        upper = np.full(n - 1, z * op.off_diagonal, dtype=complex)
        lower = upper.copy()
        upper[0] = 0.0
        lower[-1] = 0.0
        self._lu = TridiagonalLU(lower, diag, upper)
        self._op = op
        self._z = z

    def _apply_b(self, u: np.ndarray) -> np.ndarray:
        out = u.copy()
        out[1:-1] -= self._z * self._op.interior(u)
        return out

    def step(self, u: np.ndarray, guess: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        b = self._apply_b(u)
        if cfg.linear:
            return self._lu.solve(b)
        nxt = guess
        # A divergent iterate overflows before the residual test catches it;
        # that is the expected failure mode, reported below, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(cfg.nonlinear_max_iter):
                mid = 0.5 * (u + nxt)
                rhs = b + (1j * cfg.dt) * _interior_f(mid)
                new = self._lu.solve(rhs)
                residual = float(np.max(np.abs(new - nxt)))
                nxt = new
                if residual <= cfg.nonlinear_tol * (1.0 + float(np.max(np.abs(new)))):
                    return nxt
        raise FixedPointError(
            f"midpoint iteration stalled (residual {residual:.2e} "
            f"after {cfg.nonlinear_max_iter} iterations)",
            residual,
            cfg.nonlinear_max_iter,
        )


def _interior_f(v: np.ndarray) -> np.ndarray:
    out = (1.0 - v.real**2 - v.imag**2) * v
    out[0] = 0.0
    out[-1] = 0.0
    return out


def cn_step(u: Field, cfg: EvolveConfig) -> Field:
    """One midpoint step; builds its own factorization, so use evolve for runs."""
    stepper = _CrankNicolson(u.grid, cfg)
    return Field(u.grid, stepper.step(u.values, u.values.copy()))


def evolve(
    u0: Field,
    cfg: EvolveConfig,
    orbit_target: StationaryState | None = None,
) -> Trajectory:
    """Step u0 to t_end and return the final field with the recorded traces.

    Energy (and, with orbit_target, the orbit distance) is evaluated at t = 0,
    every record_every steps and at the last step, as the run passes them.
    """
    grid = u0.grid
    stepper = _CrankNicolson(grid, cfg)
    n_steps = int(round(cfg.t_end / cfg.dt))

    times, energies, orbit = [], [], []
    u = prev = u0.values.copy()
    for k in range(n_steps + 1):
        if k:
            # Named, so it lives until the next step: freed inside the step, linear
            # runs at n = 16001 took 10% longer (2-core box, same work).
            guess = 2.0 * u - prev
            try:
                nxt = stepper.step(u, guess)
            except FixedPointError as err:
                raise FixedPointError(
                    f"step to t={k * cfg.dt:.6g} failed: {err}",
                    err.residual,
                    err.iterations,
                    time=k * cfg.dt,
                ) from err
            prev, u = u, nxt
        if k % cfg.record_every == 0 or k == n_steps:
            times.append(k * cfg.dt)
            energies.append(energy_gamma(Field(grid, u), cfg.gamma).total)
            if orbit_target is not None:
                orbit.append(orbit_distance(
                    Field(grid, u), orbit_target.kind, orbit_target.gamma).distance)

    orbit_trace = np.array(orbit) if orbit_target is not None else None
    return Trajectory(grid, np.asarray(times), np.array(energies), orbit_trace, u)


@dataclass(frozen=True)
class InstabilityResult:
    trajectory: Trajectory
    rate: float | None
    window_points: int
    residual: float | None


def instability_run(
    gamma: float,
    eps: float,
    direction: Field,
    cfg: EvolveConfig,
    kink: StationaryState | None = None,
) -> InstabilityResult:
    """Evolve kink + eps*direction and fit the growth rate of d0 to the kink orbit.

    The fit is least squares on log d0 over the window d0 in [10 eps, 1e-2]:
    below it the signal is still projection-contaminated, above it nonlinear
    saturation bends the curve. Fewer than 4 recorded points in the window
    means no exponential growth was seen, reported as rate None.
    """
    if gamma <= 0.0:
        raise ValueError("instability runs target the repulsive case gamma > 0")
    norm = float(np.sqrt(np.sum(np.abs(direction.values) ** 2) * direction.grid.h))
    if not np.isclose(norm, 1.0, rtol=1e-8):
        raise ValueError("direction must be normalized")
    if kink is None:
        from .solitons import StateKind

        kink = StationaryState(StateKind.KINK, gamma)
    base = eval_state(kink, direction.grid)
    u0 = Field(direction.grid, base.values + eps * direction.values)
    traj = evolve(u0, cfg, orbit_target=kink)

    d = traj.orbit_trace
    mask = (d >= 10.0 * eps) & (d <= 1e-2)
    # Restrict to the first contiguous stretch so a saturated tail that dips
    # back into the window cannot pollute the fit.
    idx = np.flatnonzero(mask)
    if idx.size >= 1:
        breaks = np.flatnonzero(np.diff(idx) > 1)
        if breaks.size:
            idx = idx[: breaks[0] + 1]
    if idx.size < 4:
        return InstabilityResult(traj, None, int(idx.size), None)
    t = traj.times[idx]
    logd = np.log(d[idx])
    coeffs, res = np.polyfit(t, logd, 1, full=True)[:2]
    rms = float(np.sqrt(res[0] / idx.size)) if res.size else 0.0
    return InstabilityResult(traj, float(coeffs[0]), int(idx.size), rms)


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
