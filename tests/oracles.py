"""Energy-space distances of the paper, written from their definitions.

No run computes these: `gpdelta.energy.orbit_distance` minimises d0 over
the soliton's phase in a closed form of its own, and these serve as its
oracle and as the yardsticks of the evolution tests.
"""

import math

import numpy as np

from gpdelta.grid import Field, trapezoid_weights


def _deriv_sq_norm(values: np.ndarray, h: float) -> float:
    return float(np.sum(np.abs(np.diff(values)) ** 2) / h)


def _modulus_term(u: Field, v: Field) -> float:
    """|| |u|^2 - |v|^2 || in the trapezoid norm."""
    gap = np.abs(u.values) ** 2 - np.abs(v.values) ** 2
    return float(np.sqrt(np.sum(trapezoid_weights(u.grid) * gap**2)))


def d0(u: Field, v: Field) -> float:
    """||u'-v'|| + |u(0)-v(0)| + || |u|^2-|v|^2 ||, all on the grid."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    deriv = math.sqrt(_deriv_sq_norm(u.values - v.values, u.grid.h))
    origin = abs(u.values[u.grid.M] - v.values[v.grid.M])
    return deriv + origin + _modulus_term(u, v)


def dinfty(u: Field, v: Field) -> float:
    """Like d0 but with the sup norm of u - v as the middle term."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    deriv = math.sqrt(_deriv_sq_norm(u.values - v.values, u.grid.h))
    sup = float(np.max(np.abs(u.values - v.values)))
    return deriv + sup + _modulus_term(u, v)
