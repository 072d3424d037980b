"""Energy minimization by preconditioned nonlinear conjugate gradients.

The descent is Polak-Ribiere+ nonlinear CG (Antoine, Levitt & Tang, J.
Comput. Phys. 343, 2017) preconditioned by P = (I + tau H_N)^-1, where H_N
is H_gamma with reflected-Neumann end rows. The gradient H_N u - F(u), end
rows included, is the exact gradient of the trapezoid energy in the
trapezoid inner product, in which P is self-adjoint. P damps the stiff
Laplacian end of the spectrum; CG takes care of the slow box-scale modes
that a fixed-step flow contracts by only 1 - (pi/2L)^2 per step. Along a
search direction the trapezoid energy is a quartic polynomial in the step,
so the line search is exact.

The two end values are re-projected to unit modulus after every step. That
leaves the far-field phase free to rotate, which matters: initial data with
kink-like ends (-1 and +1) can only reach the even-soliton orbit by
unwinding one arm's phase, and a value-clamped boundary makes that sector
change impossible for any descent path. The projection can raise the energy
the line search just lowered, which is why the flow keeps an energy guard.
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
# Shift of the preconditioner (I + tau H_N)^-1.
_TAU = 0.9
# A step the energy guard halves this often has underflowed.
_MAX_HALVINGS = 50


@dataclass(frozen=True)
class FlowConfig:
    max_iters: int = 50000
    grad_tol: float = 1e-8

    def __post_init__(self):
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


def _gradient(op: DeltaOperator, v: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, float]:
    """H_N v - F(v) on every row, and the trapezoid norm of its interior rows.

    The array is the exact gradient of energy_values in the trapezoid inner
    product; the interior norm, that of energy_gradient, feeds the stop rule.
    """
    f = nonlinear_values(v)
    g = gradient_values(op, v, f)
    norm = float(np.sqrt(np.sum(weights * np.abs(g) ** 2)))
    g[0] = 2.0 * op.off_diagonal * (v[1] - v[0]) - f[0]
    g[-1] = 2.0 * op.off_diagonal * (v[-2] - v[-1]) - f[-1]
    return g, norm


def _energy_quartic(
    u: np.ndarray, d: np.ndarray, grid: GridSpec, gamma: float, weights: np.ndarray
) -> np.ndarray:
    """Coefficients, highest first, of E(u + a d) - E(u) as a polynomial in a.

    The kinetic and point terms are quadratic in a; the potential
    (1/4) sum w (1 - |u|^2 - 2a s - a^2 q)^2, with s = Re(conj(u) d) and
    q = |d|^2, is quartic.
    """
    s = u.real * d.real + u.imag * d.imag
    q = d.real * d.real + d.imag * d.imag
    a = 1.0 - (u.real * u.real + u.imag * u.imag)
    ws, wq = weights * s, weights * q
    du, dd, m = np.diff(u), np.diff(d), grid.M
    return np.array([
        0.25 * np.dot(wq, q),
        np.dot(ws, q),
        np.vdot(dd, dd).real / (2.0 * grid.h) + 0.5 * gamma * q[m] + np.dot(ws, s)
        - 0.5 * np.dot(wq, a),
        np.vdot(du, dd).real / grid.h + gamma * s[m] - np.dot(ws, a),
        0.0,
    ])


def gradient_flow(
    u0: Field,
    gamma: float,
    cfg: FlowConfig,
    odd_projection: bool = False,
) -> FlowResult:
    """Descend the energy from u0 until the interior gradient norm passes tol.

    Preconditioned Polak-Ribiere+ nonlinear CG: the direction is -Pg plus
    beta times the last one, with P = (I + tau H_N)^-1 factored once, and it
    restarts at -Pg whenever it is not a descent direction. The step goes to
    the lowest real critical point of the energy's quartic along the
    direction. The end projection after the step can still raise the energy,
    so a step that does is retried from -Pg and then at half the length until
    it is accepted: the accepted energy trace is non-increasing by
    construction. One iteration is one accepted step. Hitting max_iters or
    halving _MAX_HALVINGS times returns the current iterate flagged as
    non-converged instead of raising.
    """
    grid = u0.grid
    op = build_hgamma(grid, gamma)
    weights = trapezoid_weights(grid)
    precond = _implicit_factor(op, _TAU)

    def inner(a, b):
        return np.vdot(a, weights * b).real

    def exact_step(u, d):
        # The real critical point of the quartic with the lowest energy.
        coef = _energy_quartic(u, d, grid, gamma, weights)
        roots = np.roots(np.polyder(coef)).real
        return float(roots[np.argmin(np.polyval(coef, roots))])

    u = _postprocess(u0.values.astype(complex, copy=True), odd_projection)
    energy = energy_values(u, grid, gamma, weights).total
    energies = [energy]
    g, grad = _gradient(op, u, weights)
    d = None
    iterations = 0
    while iterations < cfg.max_iters and not grad < cfg.grad_tol:
        pg = precond.solve(g)
        g_pg = inner(g, pg)
        beta = 0.0 if d is None else max(0.0, (g_pg - inner(g_prev, pg)) / g_pg_prev)
        d = beta * d - pg if beta > 0.0 else -pg
        steepest = beta == 0.0
        if not steepest and not inner(g, d) < 0.0:
            d, steepest = -pg, True
        alpha, halvings = exact_step(u, d), 0
        while True:
            trial = _postprocess(u + alpha * d, odd_projection)
            trial_energy = energy_values(trial, grid, gamma, weights).total
            # Near convergence the decrement sinks below the resolution of
            # double precision on E itself; insisting on a measured decrease
            # there would stall the descent, so accept anything within one
            # ulp-scale band of the current energy.
            if trial_energy <= energy + 1e-15 * (1.0 + abs(energy)):
                break
            if not steepest:
                d, steepest = -pg, True
                alpha = exact_step(u, d)
                continue
            alpha, halvings = 0.5 * alpha, halvings + 1
            if halvings > _MAX_HALVINGS:
                return FlowResult(
                    Field(grid, u), iterations, energy, False, grad, np.asarray(energies)
                )
        u, energy = trial, trial_energy
        energies.append(energy)
        iterations += 1
        g_prev, g_pg_prev = g, g_pg
        g, grad = _gradient(op, u, weights)

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
    seed: int = 0,
) -> MinimizeReport:
    """Run n_starts flows from seeded_start(grid, seed, k) and classify where each landed.

    Basins are decided by orbit distance below 0.05 among the families that
    exist at this coupling; a non-converged flow or an unrecognized endpoint
    reports basin None. The extrapolated energy coarsens by 2, so an odd M is
    refused before any flow runs.
    """
    if gamma == 0.0:
        raise ValueError(
            "gamma = 0 is rejected: translation invariance leaves no canonical orbit"
        )
    if grid.M % 2:
        raise ValueError(f"the extrapolated energy needs an even M, got M = {grid.M}")
    starts = []
    for k in range(n_starts):
        u0 = seeded_start(grid, seed, k)
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
