"""Energy minimization by preconditioned nonlinear conjugate gradients.

The descent is Polak-Ribiere+ nonlinear CG (Antoine, Levitt & Tang, J.
Comput. Phys. 343, 2017) on the trapezoid energy with natural ends,
preconditioned by P = (s I + tau H_N)^-1, where H_N is H_gamma with
reflected-Neumann end rows. The gradient H_N u - F(u), end rows included,
is the exact gradient of the trapezoid energy in the trapezoid inner
product, in which P is self-adjoint. P damps the stiff Laplacian end of
the spectrum; CG takes care of the slow box-scale modes that a fixed-step
flow contracts by only 1 - (pi/2L)^2 per step.

Phase and modulus of the end values are as free as every interior sample.
The free far-field phase matters: initial data with kink-like ends (-1 and
+1) can only reach the even-soliton orbit by unwinding one arm's phase,
which a value-clamped boundary forbids. Along a search direction the
energy is a quartic polynomial in the step, so the line search is exact:
its lowest real critical point is the quartic's global minimum, and the
step cannot raise the energy. Nothing projects the iterate afterwards (the
odd sector's projection maps odd fields to themselves), so the flow needs
no energy guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (
    coarse_grid,
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
from .solitons import StateKind, StationaryState, eval_state, families

__all__ = [
    "FlowConfig",
    "FlowResult",
    "StartReport",
    "gradient_flow",
    "seeded_start",
    "minimize_report",
]

BASIN_TOL = 0.05
# Weight of H_N in the preconditioner (s I + tau H_N)^-1.
_TAU = 0.9
_GRAD_TOL = 1e-8  # the flow stops once the interior gradient norm is below this


@dataclass(frozen=True)
class FlowConfig:
    max_iters: int = 50000

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class FlowResult:
    field: Field
    iterations: int
    energy: float
    converged: bool
    grad_norm: float


@dataclass(frozen=True)
class StartReport:
    index: int
    converged: bool
    iterations: int
    energy: float
    energy_extrapolated: float
    basin: StateKind | None
    distance: float


def _implicit_factor(op: DeltaOperator, tau: float) -> TridiagonalLU:
    """Factor (s I + tau H) with reflected-Neumann end rows.

    For gamma < 0, H_gamma has the bound state -gamma^2/4, so the shift
    s = 1 + tau gamma^2/4 keeps the matrix positive at every coupling;
    s = 1 for gamma >= 0.
    """
    grid = op.grid
    try:
        shift = 1.0 + tau * min(op.gamma, 0.0) ** 2 / 4.0
    except OverflowError as err:
        raise RuntimeError(f"gradient-flow preconditioner: the shift 1 + tau gamma^2/4 "
                           f"overflows at gamma={op.gamma:g}, tau={tau:g}") from err
    diag = (shift + tau * op.diagonal).astype(complex)
    diag[0] = diag[-1] = shift + 2.0 * tau / grid.h**2
    upper = np.full(grid.n_nodes - 1, tau * op.off_diagonal, dtype=complex)
    lower = upper.copy()
    upper[0] *= 2.0
    lower[-1] *= 2.0
    return TridiagonalLU(lower, diag, upper)


def _odd_part(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values - values[::-1])


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
    """Descend the energy from u0 until the interior gradient norm is below _GRAD_TOL.

    Preconditioned Polak-Ribiere+ nonlinear CG with natural ends: the
    direction is -Pg plus beta times the last one, with P factored once, and
    the step goes to the lowest real critical point of the energy's quartic
    along the direction. The exact search leaves the new gradient orthogonal
    to the last direction, so every direction descends and no step raises
    the energy beyond roundoff. One iteration is one step. Hitting
    max_iters returns the current iterate flagged as non-converged instead
    of raising.
    """
    grid = u0.grid
    op = build_hgamma(grid, gamma)
    weights = trapezoid_weights(grid)
    precond = _implicit_factor(op, _TAU)

    def inner(a, b):
        return np.vdot(a, weights * b).real

    u = u0.values.astype(complex, copy=True)
    if odd_projection:
        u = _odd_part(u)
    d = None
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g, grad = _gradient(op, u, weights)
        while iterations < cfg.max_iters and not grad < _GRAD_TOL:
            pg = precond.solve(g.copy())
            g_pg = inner(g, pg)
            beta = 0.0 if d is None else max(0.0, (g_pg - inner(g_prev, pg)) / g_pg_prev)
            d = beta * d - pg if beta > 0.0 else -pg
            # The real critical point of the quartic with the lowest energy.
            coef = _energy_quartic(u, d, grid, gamma, weights)
            try:  # a flow that leaves the doubles fails here, by name, with numpy kept quiet
                roots = np.roots(np.polyder(coef)).real
                u = u + roots[np.argmin(np.polyval(coef, roots))] * d
            except ValueError as err:  # LinAlgError on a non-finite quartic; no real root
                raise RuntimeError(f"gradient-flow line search: no finite minimum at "
                                   f"iteration {iterations + 1}, gamma={gamma:g}") from err
            if odd_projection:
                u = _odd_part(u)
            iterations += 1
            g_prev, g_pg_prev = g, g_pg
            g, grad = _gradient(op, u, weights)

    energy = energy_values(u, grid, gamma, weights).total
    return FlowResult(Field(grid, u), iterations, energy, grad < _GRAD_TOL, grad)


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
    values = eval_state(StationaryState(StateKind.KINK, 0.0), grid).values
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
) -> tuple[StartReport, ...]:
    """Run n_starts flows from seeded_start(grid, seed, k) and classify where each landed.

    Basins are decided by orbit distance below 0.05 among the families that
    exist at this coupling; a non-converged flow or an unrecognized endpoint
    reports basin None. The extrapolated energy coarsens by 2, so a grid it
    cannot coarsen is refused before any flow runs.
    """
    if gamma == 0.0:
        raise ValueError("minimization needs gamma != 0: at gamma = 0 translation "
                         "invariance leaves no canonical orbit")
    coarse_grid(grid)
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
    return tuple(starts)
