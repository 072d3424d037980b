"""Imaginary-time minimization of the point-interaction energy.

The semi-implicit step solves (I + tau H) u+ = u + tau F(u): the stiff
Laplacian goes implicit, so the default tau = 0.9 is stable at any h, while
the bounded nonlinearity, which keeps tau below 1, stays explicit. Boundary
rows are reflected-Neumann stencils and the two end values are re-projected
to unit modulus after every step. That leaves the far-field phase free to
rotate, which matters: initial data with kink-like ends (-1 and +1) can only
reach the even-soliton orbit by unwinding one arm's phase, and a
value-clamped boundary makes that sector change impossible for any descent
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (
    energy_values,
    extrapolated_energy,
    gradient_values,
    nonlinear_values,
    orbit_distance,
)
from .grid import (
    DeltaOperator,
    Field,
    GridSpec,
    TridiagonalLU,
    build_hgamma,
    trapezoid_weights,
)
from .solitons import StateKind, families

__all__ = [
    "FlowConfig",
    "FlowResult",
    "StartReport",
    "MinimizeReport",
    "gradient_flow",
    "seeded_start",
    "minimize_report",
]

_SQRT2 = float(np.sqrt(2.0))
BASIN_TOL = 0.05


@dataclass(frozen=True)
class FlowConfig:
    # The Laplacian is unconditionally stable implicit, and the explicitly
    # treated nonlinearity (local stiffness 2 at unit modulus) allows tau < 1;
    # 0.9 keeps the useful margin the energy guard never has to rescue in
    # practice.
    tau: float = 0.9
    max_iters: int = 50000
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class FlowResult:
    field: Field
    iterations: int
    energy: float
    converged: bool
    grad_norm: float
    energies: np.ndarray  # accepted-iterate energy trace, starts at E(u0)


@dataclass(frozen=True)
class StartReport:
    index: int
    converged: bool
    iterations: int
    energy: float
    energy_extrapolated: float
    basin: StateKind | None
    distance: float


@dataclass(frozen=True)
class MinimizeReport:
    gamma: float
    odd: bool
    starts: tuple[StartReport, ...]


def _implicit_factor(op: DeltaOperator, tau: float) -> TridiagonalLU:
    """Factor (I + tau H) with reflected-Neumann end rows."""
    grid = op.grid
    diag = (1.0 + tau * op.diagonal).astype(complex)
    diag[0] = diag[-1] = 1.0 + 2.0 * tau / grid.h**2
    upper = np.full(grid.n_nodes - 1, tau * op.off_diagonal, dtype=complex)
    lower = upper.copy()
    upper[0] *= 2.0
    lower[-1] *= 2.0
    return TridiagonalLU(lower, diag, upper)


def _postprocess(values: np.ndarray, odd: bool) -> np.ndarray:
    if odd:
        values = 0.5 * (values - values[::-1])
    for end in (0, -1):
        mod = abs(values[end])
        if mod < 1e-8:
            raise RuntimeError("boundary modulus collapsed during the flow")
        values[end] /= mod
    return values


def gradient_flow(
    u0: Field,
    gamma: float,
    cfg: FlowConfig,
    odd_projection: bool = False,
) -> FlowResult:
    """Descend the energy from u0 until the interior gradient norm passes tol.

    Steps that raise the energy are rejected and retried at half the step
    size (never re-grown), so the accepted energy trace is non-increasing by
    construction. Hitting max_iters or a vanishing step returns the current
    iterate flagged as non-converged instead of raising.
    """
    grid = u0.grid
    op = build_hgamma(grid, gamma)
    weights = trapezoid_weights(grid)
    tau = cfg.tau
    tau_floor = tau * 2.0**-50
    solver = _implicit_factor(op, tau)

    def f_and_grad(v):
        # F(v) feeds both the gradient norm and the next step's right-hand side.
        f = nonlinear_values(v)
        grad = float(np.sqrt(np.sum(weights * np.abs(gradient_values(op, v, f)) ** 2)))
        return f, grad

    u = _postprocess(u0.values.astype(complex, copy=True), odd_projection)
    energy = energy_values(u, grid, gamma, weights).total
    energies = [energy]
    f, grad = f_and_grad(u)
    iterations = 0
    while iterations < cfg.max_iters and not grad < cfg.grad_tol:
        while True:
            trial = _postprocess(solver.solve(u + tau * f), odd_projection)
            trial_energy = energy_values(trial, grid, gamma, weights).total
            # Near convergence the true decrement tau*|grad|^2 sinks below the
            # resolution of double precision on E itself; insisting on a
            # measured decrease there would stall the contraction, so accept
            # anything within one ulp-scale band of the current energy.
            if trial_energy <= energy + 1e-15 * (1.0 + abs(energy)):
                break
            tau *= 0.5
            if tau < tau_floor:
                return FlowResult(
                    Field(grid, u), iterations, energy, False, grad, np.asarray(energies)
                )
            solver = _implicit_factor(op, tau)
        u, energy = trial, trial_energy
        energies.append(energy)
        iterations += 1
        f, grad = f_and_grad(u)

    return FlowResult(
        Field(grid, u), iterations, energy, grad < cfg.grad_tol, grad, np.asarray(energies)
    )


def seeded_start(grid: GridSpec, seed: int, index: int = 0) -> Field:
    """Kink background plus three complex Gaussian bumps, |amplitude| <= 0.3.

    Complex phases are essential, not decoration: real bumps keep the whole
    flow real, and a real field with opposite-sign ends can never descend
    into the even orbit (the sign flip costs a modulus excursion through
    zero that the energy penalizes). The per-start stream is derived from
    (seed, index) so sweeps are reproducible bit for bit.
    """
    rng = np.random.default_rng([seed, index])
    centers = rng.uniform(-5.0, 5.0, 3)
    radii = rng.uniform(0.0, 0.3, 3)
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    values = np.tanh(grid.x / _SQRT2).astype(complex)
    for c, r, p in zip(centers, radii, phases):
        values += r * np.exp(1j * p) * np.exp(-((grid.x - c) ** 2))
    return Field(grid, values)


def _classify(u: Field, gamma: float) -> tuple[StateKind | None, float]:
    best_kind = None
    best = np.inf
    for kind in families(gamma):
        d = orbit_distance(u, kind, gamma).distance
        if d < best:
            best_kind, best = kind, d
    if best >= BASIN_TOL:
        return None, best
    return best_kind, best


def minimize_report(
    gamma: float,
    grid: GridSpec,
    n_starts: int = 10,
    cfg: FlowConfig = FlowConfig(),
    odd: bool = False,
) -> MinimizeReport:
    """Run n_starts seeded flows and classify where each one landed.

    Basins are decided by orbit distance below 0.05 among the families that
    exist at this coupling; a non-converged flow or an unrecognized endpoint
    reports basin None.
    """
    if gamma == 0.0:
        raise ValueError(
            "gamma = 0 is rejected: translation invariance leaves no canonical orbit"
        )
    starts = []
    for k in range(n_starts):
        u0 = seeded_start(grid, cfg.seed, k)
        res = gradient_flow(u0, gamma, cfg, odd_projection=odd)
        if res.converged:
            basin, dist = _classify(res.field, gamma)
        else:
            basin, dist = None, np.inf
        starts.append(
            StartReport(
                index=k,
                converged=res.converged,
                iterations=res.iterations,
                energy=res.energy,
                energy_extrapolated=extrapolated_energy(res.field, gamma),
                basin=basin,
                distance=float(dist),
            )
        )
    return MinimizeReport(gamma=float(gamma), odd=odd, starts=tuple(starts))
