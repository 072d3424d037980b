"""Explicit kernels of the delta-perturbed free propagator and their application.

For t > 0 the free kernel is K0(t, z) = (4 i pi t)^{-1/2} e^{i z^2 / (4t)} and
the correction kernel of the point interaction is, for gamma > 0,

    Gamma(t,x,y) = -(gamma/2) int_0^inf e^{-gamma s/2} K0(t, s + a) ds,
    a = |x| + |y|,

while for gamma < 0 the same integral runs over K0(t, s - a) and the
bound-state projection (|gamma|/2) e^{i gamma^2 t/4} e^{-|gamma| a/2} is added.
Completing the square turns every semi-infinite piece into a scaled
complementary error function: both signs of gamma collapse to the single
closed form

    Gamma(t,x,y) = -(gamma/4) e^{i a^2/(4t)} w(e^{i pi/4} (a + i gamma t) / (2 sqrt t)),

with w(z) = e^{-z^2} erfc(-iz). The w argument satisfies
(Im z)^2 - (Re z)^2 = a gamma / 2, which is <= 0 precisely in the attractive
case, so |w| stays O(1) on every physical query and the evaluation never
rides an exponentially growing branch. Negative times come from the adjoint
relation Gamma(-t,x,y) = conj(Gamma(t,x,y)).

The defining integrals oscillate without decay in s, so they are kept only as
validation routes: gamma_kernel_by_quadrature, and the finite-interval piece
of attractive_split, which kernel-check compares with the closed form. Each
is a sum of integrals along steepest-descent paths of the quadratic phase,
(s + c)^2 = (s0 + c)^2 + i q^2, on which the oscillation becomes the
Gaussian e^{-q^2/(4t)}. One Gauss-Legendre rule in a sinh-mapped q, doubled
from order 64 to 256 until two levels agree, costs the same at every t
(Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44, 2006).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft, ifft, next_fast_len
from scipy.special import wofz

from .grid import Field, trapezoid_weights

__all__ = [
    "KernelQuery",
    "k0",
    "w_erfc",
    "gamma_kernel",
    "gamma_kernel_by_quadrature",
    "attractive_split",
    "g_func",
    "apply_propagator",
]

_EIPI4 = cmath.exp(1j * math.pi / 4.0)


@dataclass(frozen=True)
class KernelQuery:
    t: float
    x: float
    y: float
    gamma: float

    def __post_init__(self):
        if self.t == 0.0:
            raise ValueError("kernel is defined for t != 0")


def k0(t: float, zeta):
    """Free kernel (4 i pi t)^{-1/2} e^{i zeta^2/(4t)}, conjugated for t < 0."""
    if t == 0.0:
        raise ValueError("free kernel is defined for t != 0")
    at = abs(t)
    pref = cmath.exp(-1j * math.pi / 4.0) / (2.0 * math.sqrt(math.pi * at))
    z = np.asarray(zeta, dtype=float)
    out = pref * np.exp(1j * z * z / (4.0 * at))
    if t < 0.0:
        out = np.conj(out)
    return out if out.ndim else complex(out)


def w_erfc(z):
    """Faddeeva function w(z) = e^{-z^2} erfc(-iz).

    Grows like 2 e^{(Im z)^2 - (Re z)^2} in the lower half plane; arguments
    that would overflow a double are rejected instead of returning inf.
    """
    zz = np.asarray(z, dtype=complex)
    x, y = zz.real, zz.imag
    if np.any((y < 0.0) & (y * y - x * x > 700.0)):
        raise ValueError("w(z) overflows double precision for this argument")
    out = wofz(zz)
    if not np.all(np.isfinite(out)):
        raise ValueError("w(z) evaluation produced non-finite values")
    return out if out.ndim else complex(out)


def _gamma_closed_form(t: float, a, gamma: float):
    """Unified closed form of Gamma(t,x,y), any t != 0 and gamma != 0; a = |x|+|y|.

    Evaluated at |t| and conjugated for t < 0: Gamma(-t,x,y) = conj(Gamma(t,x,y)).
    """
    aa = np.asarray(a, dtype=float)
    at = abs(t)
    rt = math.sqrt(at)
    arg = _EIPI4 * (aa + 1j * gamma * at) / (2.0 * rt)
    out = -(gamma / 4.0) * np.exp(1j * aa * aa / (4.0 * at)) * w_erfc(arg)
    if t < 0.0:
        out = np.conj(out)
    return out if out.ndim else complex(out)


def g_func(t: float, rho: float, gamma: float) -> complex:
    """Bounded remainder profile of the attractive-kernel decomposition.

    Defined for t > 0, rho >= 0, gamma < 0 as
    e^{-|gamma| rho sqrt t} ((4 i pi t)^{-1/2} int_{-2 rho sqrt t}^{inf}
    e^{i (v + i|gamma|t)^2/(4t)} dv - 1); completing the square gives
    g = -(1/2) e^{i b^2/(4t)} e^{-i gamma^2 t/4} w(e^{i pi/4}(b + i gamma t)/(2 sqrt t))
    with b = 2 rho sqrt t. The exponential prefactors cancel exactly, which
    is what keeps g bounded while both raw factors are exponentially large.
    """
    if t <= 0.0:
        raise ValueError("g is defined for t > 0")
    if rho < 0.0:
        raise ValueError("g is defined for rho >= 0")
    if gamma >= 0.0:
        raise ValueError("g belongs to the attractive case gamma < 0")
    rt = math.sqrt(t)
    b = 2.0 * rho * rt
    arg = _EIPI4 * (b + 1j * gamma * t) / (2.0 * rt)
    return -0.5 * cmath.exp(1j * b * b / (4.0 * t)) * cmath.exp(-0.25j * gamma * gamma * t) * complex(w_erfc(arg))


# ---------------------------------------------------------------------------
# The defining s-integrals, on the steepest-descent paths of their phase.

_gl_rule = functools.cache(leggauss)


# Gauss-Legendre orders of the path rule, each double the last.
_ORDERS = (64, 128, 256)


def _descent(t: float, c: float, s0: float, ag: float, side: float) -> complex:
    """int_{s0}^{inf} e^{-ag s/2} e^{i (s+c)^2/(4t)} ds along a steepest-descent path.

    The path (s + c)^2 = (s0 + c)^2 + i q^2, q >= 0, leaves s0 toward 45
    degrees (side = +1) or 225 degrees (side = -1); side is the sign of
    s0 + c unless that is zero. On it the phase factor is the Gaussian
    e^{-q^2/(4t)}, cut where it falls below 1e-40. s + c = side sqrt((s0 + c)^2
    + i q^2) has branch points at |q| = |s0 + c|, which may lie far inside
    the Gaussian's width; the rule runs in v with q = |s0 + c| sinh v, which
    keeps them a fixed distance from the real v axis. The orders in _ORDERS
    are tried in turn and the value is returned once two agree; an
    unconverged value raises RuntimeError instead.

    c = a for gamma > 0 and c = -a for gamma < 0 (-0.0 when a = 0), so the
    failure message can name the query (t, a, gamma).
    """
    u0 = s0 + c
    b = abs(u0)
    qmax = math.sqrt(160.0 * math.log(10.0) * t)
    vmax = math.asinh(qmax / b) if b > 0.0 else qmax
    # For b << sqrt t the integrand grows like cosh v up to the Gaussian's edge
    # near v = asinh(sqrt t / b); that edge gets a panel of its own.
    vsplit = math.asinh(math.sqrt(t) / b) - 2.0 if b > 0.0 else 0.0
    edges = (0.0, vsplit, vmax) if vsplit > 1.0 else (0.0, vmax)

    def level(order: int) -> tuple[complex, float]:
        nodes, wts = _gl_rule(order)
        half = [0.5 * (hi - lo) for lo, hi in zip(edges, edges[1:])]
        v = np.concatenate([lo + hw * (nodes + 1.0) for lo, hw in zip(edges, half)])
        q, dq = (b * np.sinh(v), b * np.cosh(v)) if b > 0.0 else (v, 1.0)
        u = side * np.sqrt(u0 * u0 + 1j * q * q)
        f = np.exp(-0.5 * ag * (u - c) - q * q / (4.0 * t)) * (1j * q / u) * dq
        contrib = np.concatenate([hw * wts for hw in half]) * f
        return complex(np.sum(contrib)), float(np.sum(np.abs(contrib)))

    prev, _ = level(_ORDERS[0])
    for order in _ORDERS[1:]:
        total, mass = level(order)
        diff = abs(total - prev)
        # leggauss weights err near 1e-13 relative at these orders, so level
        # differences plateau near 400 eps * mass even without cancellation
        # (the 45-degree vertex ray at |gamma| = 5, t = 1).
        if diff <= max(1e-13 * abs(total), 1024.0 * np.finfo(float).eps * mass):
            return cmath.exp(1j * u0 * u0 / (4.0 * t)) * total
        prev = total
    raise RuntimeError(
        f"kernel quadrature did not converge at t = {t:.17g}, a = {abs(c):.17g}, "
        f"gamma = {math.copysign(ag, c):.17g} (path from s = {s0:.17g}): "
        f"orders {_ORDERS[-2]} and {_ORDERS[-1]} differ by {diff:.3g}"
    )


def gamma_kernel(q: KernelQuery) -> complex:
    """Correction kernel Gamma(t,x,y) by the unified closed form.

    No quadrature runs, so every folded distance a = |x| + |y| is answered.
    """
    if q.gamma == 0.0:
        return 0.0j
    return _gamma_closed_form(q.t, abs(q.x) + abs(q.y), q.gamma)


def attractive_split(q: KernelQuery) -> tuple[complex, complex]:
    """The two routes (part1, part2) whose sum is Gamma(t,x,y) for gamma < 0, t > 0.

    part1 is the finite-interval piece, integrated on steepest-descent paths;
    part2 the closed-form remainder through g_func. gamma_kernel never calls
    either, so part1 + part2 = gamma_kernel(q) is a genuine two-route
    identity, not algebra.
    """
    if q.gamma >= 0.0 or q.t <= 0.0:
        raise ValueError("the split exists for gamma < 0 and t > 0")
    a = abs(q.x) + abs(q.y)
    ag = abs(q.gamma)
    # K0(t, s - a) = K0(t, 0) e^{i (s - a)^2/(4t)}: the paths from 0 and from
    # a/2 leave the same way, so their difference is the integral over [0, a/2].
    part1 = -(0.5 * ag) * k0(q.t, 0.0) * (
        _descent(q.t, -a, 0.0, ag, -1.0) - _descent(q.t, -a, 0.5 * a, ag, -1.0))
    part2 = (
        -(0.5 * ag)
        * cmath.exp(0.25j * q.gamma * q.gamma * q.t)
        * math.exp(-0.25 * ag * a)
        * g_func(q.t, 0.25 * a / math.sqrt(q.t), q.gamma)
    )
    return part1, part2


def gamma_kernel_by_quadrature(q: KernelQuery) -> complex:
    """Gamma(t,x,y) straight from the defining s-integral.

    The half line [0, inf) is moved onto steepest-descent paths of the
    integrand's quadratic phase (_descent). For gamma > 0 one path from s = 0
    suffices. For gamma < 0 the phase has its vertex at s = a inside the
    range: the path from 0 runs out toward 225 degrees, so the ray from the
    vertex toward 225 degrees is taken off and the ray from the vertex
    toward 45 degrees added. Exists to check the closed form, which it
    never calls.
    """
    if q.t < 0.0:
        return gamma_kernel_by_quadrature(
            KernelQuery(-q.t, q.x, q.y, q.gamma)
        ).conjugate()
    if q.gamma == 0.0:
        return 0.0j
    t, gamma = q.t, q.gamma
    a = abs(q.x) + abs(q.y)
    ag = abs(gamma)
    pref = -(0.5 * ag) * k0(t, 0.0)
    if gamma > 0.0:
        return pref * _descent(t, a, 0.0, ag, 1.0)
    paths = (_descent(t, -a, 0.0, ag, -1.0) - _descent(t, -a, a, ag, -1.0)
             + _descent(t, -a, a, ag, 1.0))
    return pref * paths + (0.5 * ag) * cmath.exp(0.25j * gamma * gamma * t) * math.exp(-0.5 * ag * a)


# ---------------------------------------------------------------------------
# Kernel application.


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two complex sequences by FFT."""
    n = a.size + b.size - 1
    nfft = next_fast_len(n)
    return ifft(fft(a, nfft) * fft(b, nfft))[:n]


def apply_propagator(u0: Field, t: float, gamma: float, boundary_tol: float = 1e-8) -> Field:
    """e^{-itH_gamma} u0 = free convolution with K0 plus the Gamma correction.

    Both kernel products are FFT convolutions, so a call costs O(n log n).
    Targets localized wavepackets: the kernel products treat the field as
    zero outside the box, so fields with boundary modulus above boundary_tol,
    which that would cut off, are rejected (background-carrying states belong
    to the time-stepping evolution, not to this kernel route).
    """
    if t == 0.0:
        return Field(u0.grid, u0.values.copy())
    grid = u0.grid
    v = u0.values
    edge = max(abs(v[0]), abs(v[-1]))
    if edge > boundary_tol:
        raise ValueError(
            f"boundary modulus {edge:.2e} exceeds {boundary_tol:.2e}; "
            "apply_propagator handles decaying fields only"
        )
    n = grid.n_nodes
    m = grid.M
    h = grid.h
    wv = trapezoid_weights(grid) * v

    # Free part: K0(t, x_j - y_k) depends on j - k only.
    kvals = k0(t, np.arange(-(n - 1), n) * h)
    out = _conv(kvals, wv)[n - 1 : 2 * n - 1]

    if gamma != 0.0:
        # Gamma(t,x,y) depends on |x| + |y| only: fold the source about the
        # origin, take one Hankel product on the half line (a convolution
        # with the reversed source), mirror the result.
        gvals = _gamma_closed_form(t, np.arange(2 * m + 1) * h, gamma)
        folded = np.empty(m + 1, dtype=complex)
        folded[0] = wv[m]
        folded[1:] = wv[m + 1 :] + wv[m - 1 :: -1]
        pos = _conv(gvals, folded[::-1])[m : 2 * m + 1]
        out[m:] += pos
        out[:m] += pos[:0:-1]
    return Field(grid, out)
