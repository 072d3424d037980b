"""Black-soliton stationary states of the defect problem and their closed-form data.

Profiles are real; a stationary state carries an overall phase e^{i theta}.
All three families solve u'' + (1 - u^2) u = 0 away from the origin together
with the derivative jump u'(0+) - u'(0-) = gamma u(0) and |u| -> 1 at infinity:

  kink        tanh(x / sqrt2)                     any gamma (vanishes at 0)
  even tanh   tanh((|x| - c_gamma) / sqrt2)       gamma != 0
  even coth   coth((|x| + c_gamma) / sqrt2)       gamma < 0 only

with the shift c_gamma = asinh(-2 sqrt2 / gamma) / sqrt2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec

__all__ = [
    "StateKind",
    "StationaryState",
    "families",
    "c_gamma",
    "theta_gamma",
    "theta_tilde",
    "origin_value",
    "eval_state",
    "eval_state_derivative",
    "closed_form_energy",
    "bound_state",
]

_SQRT2 = math.sqrt(2.0)
_E_KINK = 2.0 * _SQRT2 / 3.0


class StateKind(enum.Enum):
    KINK = "kink"
    EVEN_TANH = "even_tanh"
    EVEN_COTH = "even_coth"


@dataclass(frozen=True)
class StationaryState:
    kind: StateKind
    gamma: float
    theta: float = 0.0

    def __post_init__(self):
        if self.kind is not StateKind.KINK and self.gamma == 0.0:
            raise ValueError("even states degenerate at gamma = 0; use the kink")
        if self.kind is StateKind.EVEN_COTH and self.gamma >= 0.0:
            raise ValueError("the coth state exists only for attractive gamma < 0")


def families(gamma: float) -> tuple[StateKind, ...]:
    """Families that exist at gamma: kink, even tanh if gamma != 0, even coth if gamma < 0."""
    return tuple(StateKind)[: 1 + (gamma != 0.0) + (gamma < 0.0)]


def c_gamma(gamma: float) -> float:
    """Half-profile shift; positive for gamma < 0, negative for gamma > 0."""
    if gamma == 0.0:
        raise ValueError("shift undefined at gamma = 0")
    return math.asinh(-2.0 * _SQRT2 / gamma) / _SQRT2


def theta_gamma(gamma: float) -> float:
    """Origin value tanh(-c_gamma / sqrt2) of the even tanh state.

    Written as sign(gamma) * 2 sqrt2 / (sqrt(gamma^2 + 8) + |gamma|) so the
    subtraction in the naive root formula never cancels for large |gamma|.
    """
    if gamma == 0.0:
        raise ValueError("origin value undefined at gamma = 0")
    return math.copysign(2.0 * _SQRT2 / (math.hypot(gamma, 2.0 * _SQRT2) + abs(gamma)), gamma)


def theta_tilde(gamma: float) -> float:
    """Origin value coth(c_gamma / sqrt2) > 1 of the even coth state."""
    if gamma >= 0.0:
        raise ValueError("the coth state exists only for gamma < 0")
    return -1.0 / theta_gamma(gamma)


def origin_value(state: StationaryState) -> float:
    """Profile value at x = 0: theta_gamma, theta_tilde, or 0 for the kink."""
    if state.kind is StateKind.KINK:
        return 0.0
    if state.kind is StateKind.EVEN_TANH:
        return theta_gamma(state.gamma)
    return theta_tilde(state.gamma)


def _profile(state: StationaryState, x: np.ndarray) -> np.ndarray:
    if state.kind is StateKind.KINK:
        return np.tanh(x / _SQRT2)
    c = c_gamma(state.gamma)
    if state.kind is StateKind.EVEN_TANH:
        return np.tanh((np.abs(x) - c) / _SQRT2)
    return 1.0 / np.tanh((np.abs(x) + c) / _SQRT2)


def eval_state(state: StationaryState, grid: GridSpec) -> Field:
    return Field(grid, np.exp(1j * state.theta) * _profile(state, grid.x))


def eval_state_derivative(state: StationaryState, grid: GridSpec) -> Field:
    """Analytic x-derivative of the sampled state.

    Every family satisfies u' = (1 - u^2)/sqrt2 on x > 0 (the coth branch
    included, via 1 - coth^2 = -csch^2); even profiles pick up sign(x), which
    also zeroes the origin sample, the symmetric average of the two one-sided
    slopes.
    """
    u = _profile(state, grid.x)
    du = (1.0 - u * u) / _SQRT2
    if state.kind is not StateKind.KINK:
        du = np.sign(grid.x) * du
    return Field(grid, np.exp(1j * state.theta) * du)


def closed_form_energy(state: StationaryState) -> float:
    """Exact energy of the state, point-interaction term included.

    Both even families obey the same reduction: with th the origin value,
    u' = (1 - u^2)/sqrt2 turns the kinetic and potential integrals into
    int_0^inf (1-u^2)^2 dx, an exact antiderivative evaluation, and the jump
    relation sqrt2 (1 - th^2) = gamma th absorbs the point term, leaving

        E = 2 sqrt2 / 3 - (sqrt2/2) th - (sqrt2/6) th^3.

    A tempting further "simplification" that linearizes th^3 through the jump
    relation drops a gamma^2 th term and is wrong; the form above matches
    direct quadrature of the energy integrand to machine precision. The kink
    (th = 0) gets 2 sqrt2 / 3 exactly.
    """
    th = origin_value(state)
    return _E_KINK - _SQRT2 * th * (0.5 + th * th / 6.0)


def bound_state(gamma: float, grid: GridSpec) -> Field:
    """Unit-norm eigenfunction sqrt(|gamma|/2) e^{-|gamma||x|/2} of H_gamma.

    Exists only for attractive gamma < 0, with eigenvalue -gamma^2/4.
    """
    if gamma >= 0.0:
        raise ValueError("the linear bound state exists only for gamma < 0")
    a = abs(gamma)
    return Field(grid, math.sqrt(a / 2.0) * np.exp(-a * np.abs(grid.x) / 2.0))
