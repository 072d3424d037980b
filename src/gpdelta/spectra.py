"""Discrete spectra of the linearizations at the black soliton.

Two Schroedinger operators drive the stability theory: the phase block
H_gamma - sech^2(x/sqrt2) with essential spectrum [0, inf), and the amplitude
block H_gamma + 2 - 3 sech^2(x/sqrt2) with essential spectrum [2, inf). Both
are truncated to the interior nodes with homogeneous Dirichlet walls; discrete
eigenvalues below the essential edge belong to exponentially localized states,
so box error is exponentially small in L and h controls the accuracy.

Two separate questions are asked of them. `spectral_report` counts the
eigenvalues below both edges (a SpectralReport), which the variational
stability argument needs. `instability_eigenvalue` decides whether the kink
has a real growing mode for gamma > 0 (a GrowingMode), which the bifurcation
argument needs. It solves the first-order system P u = lambda v,
-M v = lambda u (P the amplitude block, M the phase block), i.e. the sparse
2n x 2n matrix [[0, P], [-M, 0]] acting on (v, u). Its eigenvalues come in
pairs +-lambda with -lambda^2 = mu an eigenvalue of P M, so a real
lambda > 0 is a growing mode with rate lambda. ARPACK shift-invert at
sigma = 1 returns the eigenvalue nearest 1: the real lambda when a growing
mode exists, otherwise the imaginary i omega with the smallest |omega|; in
both cases mu_min = Re(-lambda^2) is the lowest eigenvalue of P M.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import bmat, diags
from scipy.sparse.linalg import eigs

from .grid import GridSpec, build_hgamma

__all__ = [
    "Which",
    "SpectralReport",
    "GrowingMode",
    "build_lpm",
    "eigs_below",
    "lambda_curve",
    "instability_eigenvalue",
    "spectral_report",
]

_SQRT2 = float(np.sqrt(2.0))
EDGE_LMINUS = 0.0
EDGE_LPLUS = 2.0
# A lowest amplitude-block eigenvalue above this sits at the essential edge.
ABSORBED_ABOVE = EDGE_LPLUS - 1e-3
Bands = tuple[np.ndarray, np.ndarray]  # (diagonal, off-diagonal), symmetric


class Which(enum.Enum):
    LMINUS = "lminus"
    LPLUS = "lplus"


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues below the essential edges of both blocks and their negative counts."""

    lminus_eigs: np.ndarray
    lplus_eigs: np.ndarray
    n_neg_minus: int
    n_neg_plus: int


@dataclass(frozen=True)
class GrowingMode:
    """The lowest eigenvalue mu_min of P M and the mode that grows when it is negative.

    direction is the unit complex perturbation u - i v built from the
    eigenvector pair (P u = lambda v, -M v = lambda u) on the full grid, zero
    at both ends and normalised in sum |.|^2 h. growth_rate and direction
    are None when nothing grows.
    """

    mu_min: float
    growth_rate: float | None
    direction: np.ndarray | None


def build_lpm(grid: GridSpec, gamma: float, which: Which) -> Bands:
    """Interior bands (diagonal, off) of H_gamma plus the block's potential."""
    if not isinstance(which, Which):
        raise ValueError(f"unknown operator tag: {which!r}")
    op = build_hgamma(grid, gamma)
    sech2 = 1.0 / np.cosh(grid.x[1:-1] / _SQRT2) ** 2
    potential = -sech2 if which is Which.LMINUS else 2.0 - 3.0 * sech2
    return op.diagonal[1:-1] + potential, np.full(sech2.size - 1, op.off_diagonal)


def eigs_below(bands: Bands, edge: float) -> np.ndarray:
    """All eigenvalues strictly below `edge`, ascending, by Sturm bisection (stebz) to 1e-10."""
    d, off = bands
    lo = float(np.min(d)) - 2.0 * float(np.max(np.abs(off), initial=0.0)) - 1.0
    vals = eigh_tridiagonal(
        d, off, eigvals_only=True, select="v",
        select_range=(lo, edge), lapack_driver="stebz", tol=1e-10,
    )
    return vals[vals < edge]


def _lowest_eigenvalue(bands: Bands) -> float:
    val = eigh_tridiagonal(
        *bands, eigvals_only=True, select="i",
        select_range=(0, 0), lapack_driver="stebz", tol=1e-10,
    )
    return float(val[0])


def lambda_curve(gammas, grid: GridSpec) -> np.ndarray:
    """Track the lowest eigenvalue of the amplitude block along gamma.

    Near gamma = 0 this is the perturbed kernel eigenvalue; once it climbs
    into the essential spectrum the lowest value saturates at the Dirichlet
    edge artifact, which is reported with a warning rather than hidden.
    """
    gs = np.atleast_1d(np.asarray(gammas, dtype=float))
    out = np.empty((gs.size, 2))
    for i, g in enumerate(gs):
        val = _lowest_eigenvalue(build_lpm(grid, g, Which.LPLUS))
        if val > ABSORBED_ABOVE:
            warnings.warn(
                f"lowest amplitude-block eigenvalue {val:.6f} at gamma={g:g} "
                "sits at the essential edge; the discrete eigenvalue is absorbed",
                stacklevel=2,
            )
        out[i] = (g, val)
    return out


def _sparse(bands: Bands):
    d, off = bands
    return diags([off, d, off], [-1, 0, 1], format="csc")


def spectral_report(gamma: float, grid: GridSpec) -> SpectralReport:
    """Counts and eigenvalues below both essential edges."""
    lminus = eigs_below(build_lpm(grid, gamma, Which.LMINUS), EDGE_LMINUS)
    lplus = eigs_below(build_lpm(grid, gamma, Which.LPLUS), EDGE_LPLUS)
    return SpectralReport(
        lminus_eigs=lminus,
        lplus_eigs=lplus,
        n_neg_minus=int(np.sum(lminus < 0.0)),
        n_neg_plus=int(np.sum(lplus < 0.0)),
    )


def instability_eigenvalue(gamma: float, grid: GridSpec) -> GrowingMode:
    """Decide linear instability at the kink for gamma > 0.

    Sparse route: after checking that the amplitude block P is positive,
    ARPACK shift-invert at sigma = 1 (fixed start vector, so repeated calls
    agree bit for bit) finds the eigenvalue lambda of [[0, P], [-M, 0]]
    nearest 1, and mu_min = Re(-lambda^2). When mu_min < 0 the growth rate is
    lambda and its eigenvector (v, u) satisfies P u = lambda v,
    -M v = lambda u, which is verified to 1e-6 before anything is returned;
    the pair is signed so that u is positive at the origin and returned as
    the unit direction u - i v.
    """
    if gamma <= 0.0:
        raise ValueError("instability analysis requires gamma > 0")
    lp = build_lpm(grid, gamma, Which.LPLUS)
    lm = build_lpm(grid, gamma, Which.LMINUS)

    lowest = _lowest_eigenvalue(lp)
    if lowest <= 0.0:
        raise ValueError(
            f"amplitude block is not positive on this grid: lowest eigenvalue {lowest:.3e}"
        )
    p, m = _sparse(lp), _sparse(lm)
    n = lp[0].size
    vals, vecs = eigs(bmat([[None, p], [-m, None]], format="csc"), k=1, sigma=1.0,
                      v0=np.ones(2 * n))
    lam = complex(vals[0])
    mu_min = float((-lam * lam).real)
    if mu_min >= 0.0:
        return GrowingMode(mu_min, None, None)
    rate = lam.real
    z = vecs[:, 0].real
    if z[n + grid.M - 1] < 0.0:
        z = -z
    v, u = z[:n], z[n:]
    res = np.linalg.norm(p @ u - rate * v) + np.linalg.norm(m @ v + rate * u)
    bound = 1e-6 * (np.linalg.norm(u) + np.linalg.norm(v))
    if res > bound:
        raise RuntimeError(f"eigenpair residual {res:.3e} exceeds {bound:.3e}")
    direction = np.zeros(grid.n_nodes, dtype=complex)
    direction[1:-1] = u - 1j * v
    direction /= np.sqrt(np.sum(np.abs(direction) ** 2) * grid.h)
    return GrowingMode(mu_min, rate, direction)
