"""Discrete energy, its gradient, and the distance to soliton orbits.

The discretization is chosen so that the gradient of the discrete energy is
exactly the tridiagonal operator action minus the nonlinearity (see
energy_gradient); tests check this against finite differences of energy_gamma
rather than trusting the algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DeltaOperator, Field, GridSpec, build_hgamma, trapezoid_weights
from .solitons import StateKind, StationaryState, eval_state

__all__ = [
    "EnergyBreakdown",
    "OrbitDistanceResult",
    "coarse_grid",
    "energy_gamma",
    "energy_values",
    "extrapolated_energy",
    "nonlinear_F",
    "nonlinear_values",
    "energy_gradient",
    "gradient_values",
    "orbit_distance",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    point: float
    potential: float
    total: float


@dataclass(frozen=True)
class OrbitDistanceResult:
    distance: float
    best_phase: float
    target: StationaryState


def energy_gamma(u: Field, gamma: float) -> EnergyBreakdown:
    """Trapezoid energy: (1/2)||u'||^2 + (gamma/2)|u(0)|^2 + (1/4)||1-|u|^2||^2.

    The kinetic term uses consecutive-node differences, so it is the exact
    counterpart of the tridiagonal operator; the potential term uses trapezoid
    weights. Both are second-order accurate away from the origin kink of the
    profiles; use extrapolated_energy when 1e-6 absolute accuracy is needed.
    """
    return energy_values(u.values, u.grid, gamma, trapezoid_weights(u.grid))


def energy_values(
    v: np.ndarray, grid: GridSpec, gamma: float, weights: np.ndarray
) -> EnergyBreakdown:
    """energy_gamma on raw samples with precomputed trapezoid weights; no checks."""
    kinetic = float(np.sum(np.abs(np.diff(v)) ** 2) / (2.0 * grid.h))
    point = 0.5 * gamma * float(np.abs(v[grid.M]) ** 2)
    potential = 0.25 * float(np.sum(weights * (1.0 - np.abs(v) ** 2) ** 2))
    return EnergyBreakdown(kinetic, point, potential, kinetic + point + potential)


def coarse_grid(grid: GridSpec) -> GridSpec:
    """The grid of spacing 2h that extrapolated_energy also evaluates on."""
    if grid.M % 2 or grid.M < 4:
        raise ValueError("the extrapolated energy coarsens by 2: it needs at least 4 "
                         f"intervals per half line and an even M, got M = {grid.M}")
    return GridSpec(grid.L, grid.M // 2)


def extrapolated_energy(u: Field, gamma: float) -> float:
    """Two-level Richardson value (4 E_h - E_2h) / 3.

    The profiles of interest have a derivative kink at the origin node, which
    leaves a clean h^2 term in the trapezoid energy; since the origin is a
    node of both grids the h^2 term cancels exactly and the O(h^4) remainder
    is far below 1e-6 at production resolution.
    """
    coarse = Field(coarse_grid(u.grid), u.values[::2])
    e_h = energy_gamma(u, gamma).total
    e_2h = energy_gamma(coarse, gamma).total
    return (4.0 * e_h - e_2h) / 3.0


def _modulus_gap_norm(u: Field, v: Field) -> float:
    # |u|^2 - |v|^2 = Re((u-v) conj(u+v)) avoids cancellation when both
    # moduli are near 1 but the fields differ by a phase.
    gap = ((u.values - v.values) * np.conj(u.values + v.values)).real
    return float(np.sqrt(np.sum(trapezoid_weights(u.grid) * gap**2)))


def nonlinear_F(u: Field) -> Field:
    return Field(u.grid, nonlinear_values(u.values))


def nonlinear_values(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(1 - |v|^2) v on raw samples, written into out if given."""
    return np.multiply(1.0 - np.abs(v) ** 2, v, out=out)


def energy_gradient(u: Field, gamma: float) -> Field:
    """Gradient of energy_gamma in the rescaled real inner product.

    With the kinetic term built from consecutive differences, the potential
    from trapezoid weights and the point term lumped, the chain rule gives
    exactly H_gamma u - (1-|u|^2) u at every interior node; weights cancel.
    The end components are zero, the gradient for clamped ends; the flow,
    which leaves its ends free, overwrites them with its Neumann rows.
    """
    v = u.values
    return Field(u.grid, gradient_values(build_hgamma(u.grid, gamma), v, nonlinear_values(v)))


def gradient_values(op: DeltaOperator, v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """energy_gradient on raw samples v, given f = nonlinear_values(v); no checks."""
    out = np.empty_like(v)
    out[1:-1] = op.interior(v) - f[1:-1]
    out[0] = out[-1] = 0.0
    return out


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def orbit_distance(u: Field, kind: StateKind, gamma: float) -> OrbitDistanceResult:
    """min over theta of d0(u, e^{i theta} s) for the requested soliton family.

    The modulus term of d0 is phase independent and the other two reduce to
    a - 2 Re(e^{-i theta} b) expressions, so the scan over theta costs O(1)
    per angle after one O(N) precomputation. A 64-point scan brackets the
    minimum of the (smooth, possibly two-welled) angle profile and golden
    section refines it below 1e-8.
    """
    target0 = StationaryState(kind, gamma)
    s = eval_state(target0, u.grid)
    h = u.grid.h
    mid = u.grid.M

    du, ds = np.diff(u.values), np.diff(s.values)
    deriv_const = (np.sum(np.abs(du) ** 2) + np.sum(np.abs(ds) ** 2)) / h
    deriv_cross = complex(np.sum(du * np.conj(ds))) / h
    origin_const = abs(u.values[mid]) ** 2 + abs(s.values[mid]) ** 2
    origin_cross = u.values[mid] * np.conj(s.values[mid])
    modulus = _modulus_gap_norm(u, s)  # phase free

    def dist(theta: float) -> float:
        ph = np.exp(-1j * theta)
        t1 = math.sqrt(max(deriv_const - 2.0 * (ph * deriv_cross).real, 0.0))
        t2 = math.sqrt(max(origin_const - 2.0 * (ph * origin_cross).real, 0.0))
        return t1 + t2 + modulus

    thetas = np.linspace(-math.pi, math.pi, 65)[:-1]
    values = np.array([dist(t) for t in thetas])
    step = thetas[1] - thetas[0]
    a = thetas[np.argmin(values)] - step
    b = a + 2.0 * step
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = dist(c), dist(d)
    while b - a > 1e-8:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = dist(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = dist(d)
    theta = 0.5 * (a + b)
    theta = math.atan2(math.sin(theta), math.cos(theta))
    return OrbitDistanceResult(dist(theta), theta, StationaryState(kind, gamma, theta))
