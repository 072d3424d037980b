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
a validation route (gamma_kernel_by_quadrature): the integrand's quadratic
phase is split at its pi-crossings and each segment gets a Gauss-Legendre
rule whose order is doubled until the total stabilizes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft, ifft, next_fast_len
from scipy.integrate import quad
from scipy.special import wofz

from .grid import Field, trapezoid_weights

__all__ = [
    "KernelQuery",
    "KernelValue",
    "k0",
    "w_erfc",
    "gamma_kernel",
    "gamma_kernel_by_quadrature",
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


@dataclass(frozen=True)
class KernelValue:
    total: complex
    part1: complex | None = None
    part2: complex | None = None


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
    """Unified closed form of Gamma(t,x,y) for t > 0, any gamma != 0; a = |x|+|y|."""
    aa = np.asarray(a, dtype=float)
    rt = math.sqrt(t)
    arg = _EIPI4 * (aa + 1j * gamma * t) / (2.0 * rt)
    out = -(gamma / 4.0) * np.exp(1j * aa * aa / (4.0 * t)) * w_erfc(arg)
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


def _gamma1_by_gk(t: float, a: float, gamma: float) -> complex:
    """Finite-interval piece -(|g|/2) int_0^{a/2} e^{-|g|s/2} K0(t, s-a) ds.

    Adaptive Gauss-Kronrod; the subdivision limit is sized from the Fresnel
    oscillation count 3a^2/(16 pi t) so the worst corner (a = 20, small t)
    still converges.
    """
    if a == 0.0:
        return 0.0j
    ag = abs(gamma)
    pref = cmath.exp(-1j * math.pi / 4.0) / (2.0 * math.sqrt(math.pi * t))
    quarter_t = 4.0 * t

    def f(s):
        return math.exp(-0.5 * ag * s) * pref * cmath.exp(1j * (s - a) ** 2 / quarter_t)

    limit = int(3.0 * a * a / (16.0 * math.pi * t)) * 2 + 200
    # full_output swallows the roundoff warning QUADPACK emits when pushed
    # to its noise floor (~1e-14 here); the returned value is still the best
    # available and the split-identity tests hold it to account.
    res = quad(f, 0.0, 0.5 * a, epsabs=1e-13, epsrel=1e-13,
               limit=min(limit, 400_000), complex_func=True, full_output=True)
    return -(0.5 * ag) * res[0]


def gamma_kernel(q: KernelQuery) -> KernelValue:
    """Correction kernel Gamma(t,x,y); for gamma < 0 also its split parts.

    part1 is the finite-interval quadrature piece, part2 the closed-form
    remainder through g_func; total is always the unified closed form, so
    total = part1 + part2 is a genuine two-route identity, not algebra.
    """
    if q.t < 0.0:
        pos = gamma_kernel(KernelQuery(-q.t, q.x, q.y, q.gamma))
        return KernelValue(
            pos.total.conjugate(),
            None if pos.part1 is None else pos.part1.conjugate(),
            None if pos.part2 is None else pos.part2.conjugate(),
        )
    if q.gamma == 0.0:
        return KernelValue(0.0j)
    a = abs(q.x) + abs(q.y)
    total = _gamma_closed_form(q.t, a, q.gamma)
    if q.gamma > 0.0:
        return KernelValue(total)
    ag = abs(q.gamma)
    part1 = _gamma1_by_gk(q.t, a, q.gamma)
    part2 = (
        -(0.5 * ag)
        * cmath.exp(0.25j * q.gamma * q.gamma * q.t)
        * math.exp(-0.25 * ag * a)
        * g_func(q.t, 0.25 * a / math.sqrt(q.t), q.gamma)
    )
    return KernelValue(total, part1, part2)


# ---------------------------------------------------------------------------
# Validation route: segmented Gauss-Legendre on the defining integrals.

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(order: int):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = leggauss(order)
    return _GL_CACHE[order]


def _phase_edges(lo: float, hi: float, t: float, shift: float, block: int):
    """Breakpoints of (s + shift)^2/(4t) at multiples of pi inside [lo, hi].

    The phase is quadratic with vertex at s = -shift; splitting there and at
    every pi-crossing bounds the phase change per segment by pi, which a
    modest Gauss-Legendre rule resolves to machine precision. The edges come
    one side of the vertex at a time, outward from it, in runs of at most
    block + 1 points; consecutive runs share their end point. Memory is
    O(block) however many crossings the range holds.
    """
    vertex = -shift
    kmax = int(max((lo + shift) ** 2, (hi + shift) ** 2) / (4.0 * t * math.pi)) + 1
    if kmax > 3_000_000:
        raise RuntimeError(
            f"validation quadrature needs {kmax} phase crossings, above its cap of 3000000"
        )
    for side, start, end in ((-1.0, min(vertex, hi), lo), (1.0, max(vertex, lo), hi)):
        if side * (end - start) <= 0.0:
            continue  # the vertex lies beyond this end of [lo, hi]
        prev = start
        for k0 in range(1, kmax + 1, block):
            r = 2.0 * np.sqrt(t * math.pi * np.arange(k0, min(k0 + block, kmax + 1)))
            cand = vertex + side * r
            inside = cand[(cand > lo) & (cand < hi)]
            if inside.size:
                yield np.concatenate(([prev], inside))
                prev = inside[-1]
            if side * (cand[-1] - end) >= 0.0:
                break
        yield np.array([prev, end])


# Quadrature nodes evaluated at once: bounds the temporaries to about 1 MB
# each, whatever the query.
_CHUNK_NODES = 1 << 16


def _integrate_segments(f, edge_runs, reltol: float = 1e-13) -> complex:
    """Sum of Gauss-Legendre rules over the segments of edge_runs(block).

    edge_runs(block) yields runs of at most block + 1 monotone edges; each
    run's segments are integrated together.
    """

    def level(order: int) -> tuple[complex, float]:
        nodes, wts = _gl_rule(order)
        total = 0.0j
        mass = 0.0
        for edges in edge_runs(max(1, _CHUNK_NODES // order)):
            mid = 0.5 * (edges[1:, None] + edges[:-1, None])
            half = 0.5 * np.abs(np.diff(edges))[:, None]
            contrib = half * wts[None, :] * f(mid + half * nodes[None, :])
            total += complex(np.sum(contrib))
            mass += float(np.sum(np.abs(contrib)))
        return total, mass

    prev, _ = level(12)
    order = 24
    for _ in range(4):
        total, mass = level(order)
        # Heavy cancellation: the achievable accuracy is limited by roundoff
        # on the absolute mass, not by the quadrature order. Observed level
        # differences plateau near 40 eps * mass at the worst corners; the
        # factor below leaves a decade of slack without hiding real error.
        noise = 1024.0 * np.finfo(float).eps * mass
        if abs(total - prev) <= max(reltol * abs(total), noise):
            return total
        prev = total
        order *= 2
    raise RuntimeError("validation quadrature failed to stabilize")


def gamma_kernel_by_quadrature(q: KernelQuery) -> complex:
    """Gamma(t,x,y) straight from the defining s-integral.

    Truncates the damped factor at e^{-|gamma| s/2} < 1e-16 and integrates the
    oscillatory remainder segment by segment. Slow and deliberate; exists to
    check the closed form, not to be used in anger.
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
    s_max = 2.0 * 16.0 * math.log(10.0) / ag
    pref = cmath.exp(-1j * math.pi / 4.0) / (2.0 * math.sqrt(math.pi * t))
    shift = a if gamma > 0.0 else -a

    def f(s):
        return np.exp(-0.5 * ag * s) * pref * np.exp(1j * (s + shift) ** 2 / (4.0 * t))

    total = -(0.5 * ag) * _integrate_segments(
        f, lambda block: _phase_edges(0.0, s_max, t, shift, block))
    if gamma < 0.0:
        total += (0.5 * ag) * cmath.exp(0.25j * gamma * gamma * t) * math.exp(-0.5 * ag * a)
    return total


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
    Targets localized wavepackets: the quadrature needs the source to have
    died out before the boundary, so fields with boundary modulus above
    boundary_tol are rejected (background-carrying states belong to the
    time-stepping evolution, not to this kernel route).
    """
    if t == 0.0:
        return u0.copy()
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
        gvals = _gamma_closed_form(abs(t), np.arange(2 * m + 1) * h, gamma)
        if t < 0.0:
            gvals = np.conj(gvals)
        folded = np.empty(m + 1, dtype=complex)
        folded[0] = wv[m]
        folded[1:] = wv[m + 1 :] + wv[m - 1 :: -1]
        pos = _conv(gvals, folded[::-1])[m : 2 * m + 1]
        out[m:] += pos
        out[:m] += pos[:0:-1]
    return Field(grid, out)
