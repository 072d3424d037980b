"""Uniform symmetric grids, the delta-modified Laplacian, and the discrete L2 norm."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "GridSpec",
    "Field",
    "DeltaOperator",
    "TridiagonalLU",
    "make_grid",
    "build_hgamma",
    "apply_hgamma",
    "l2_norm",
    "trapezoid_weights",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-L, L] with nodes x_j = (j - M) h, j = 0..2M, h = L/M."""

    L: float
    M: int

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"half length must be positive, got L={self.L}")
        if self.M < 2:
            raise ValueError(f"need at least two intervals per half line, got M={self.M}")
        # Within these limits 2/h^2 and every x^2 are finite, nonzero doubles.
        if not (1e-150 <= self.h and self.L <= 1e150):
            raise ValueError(f"need 1e-150 <= h < L <= 1e150, got h={self.h:g}, L={self.L:g}")

    @property
    def h(self) -> float:
        return self.L / self.M

    @property
    def n_nodes(self) -> int:
        return 2 * self.M + 1

    @cached_property
    def x(self) -> np.ndarray:
        # (j - M) * h instead of -L + j*h so that x[M] == 0.0 exactly.
        return (np.arange(self.n_nodes) - self.M) * self.h


@dataclass
class Field:
    """Complex samples of a wavefunction on a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(f"expected {self.grid.n_nodes} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite samples")
        self.values = v


@dataclass(frozen=True)
class DeltaOperator:
    """Symmetric tridiagonal H_gamma = -d^2/dx^2 with the delta lumped at the origin.

    diagonal[j] = 2/h^2, plus gamma/h at the origin index M; every off-diagonal
    entry equals -1/h^2, so the matrix is symmetric by construction.
    """

    grid: GridSpec
    gamma: float
    diagonal: np.ndarray
    off_diagonal: float

    def interior(self, v: np.ndarray) -> np.ndarray:
        """Rows 1..n-2 of H_gamma v on raw samples; callers supply the end rows."""
        return self.diagonal[1:-1] * v[1:-1] + self.off_diagonal * (v[:-2] + v[2:])


# Bound once at import. A solve on the calling thread and every factorization look
# lapack.zgttrs / zgttrf up at call time, where a profiler may wrap them; a solve on
# a worker thread never calls those wrappers, which need not be thread-safe.
_zgttrs = lapack.zgttrs


class TridiagonalLU:
    """LU factors of a complex tridiagonal matrix, kept for repeated solves.

    Callers build the three bands. The matrix is factored once (LAPACK zgttrf)
    and each solve is one zgttrs sweep of the right-hand side, in place.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        self._n = diag.size
        dl, d, du, du2, ipiv, info = lapack.zgttrf(lower, diag, upper)
        if info != 0:
            raise RuntimeError(f"tridiagonal factorization failed (info={info})")
        self._factors = (dl, d, du, du2, ipiv)

    def solve(self, b: np.ndarray, worker: bool = False) -> np.ndarray:
        """The solution of A x = b, swept into b itself and returned.

        A worker thread passes worker=True and sweeps through _zgttrs.
        """
        # zgttrs sweeps a private copy of any other b and would leave b unsolved.
        if not (isinstance(b, np.ndarray) and b.dtype == np.complex128 and b.shape == (self._n,)
                and b.flags.c_contiguous and b.flags.writeable):
            raise ValueError(f"a tridiagonal solve needs a writeable, C-contiguous "
                             f"complex128 array of {self._n} rows")
        _, info = (_zgttrs if worker else lapack.zgttrs)(*self._factors, b, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed (info={info})")
        return b


def make_grid(L: float, M: int) -> GridSpec:
    m = int(M)
    if m != M:
        raise ValueError(f"half point count must be an integer, got M={M}")
    return GridSpec(float(L), m)


def build_hgamma(grid: GridSpec, gamma: float) -> DeltaOperator:
    h = grid.h
    if not np.isfinite(2.0 / h**2 + float(gamma) / h):
        raise ValueError(f"2/h^2 + gamma/h is not a finite double at gamma={gamma:g}, h={h:g}")
    diagonal = np.full(grid.n_nodes, 2.0 / h**2)
    diagonal[grid.M] += gamma / h
    return DeltaOperator(grid, float(gamma), diagonal, -1.0 / h**2)


def apply_hgamma(op: DeltaOperator, u: Field) -> Field:
    """Tridiagonal action of H_gamma.

    Interior rows are the standard 3-point stencil. The first and last rows use
    the one-sided second difference; with clamped boundaries these rows are
    never load bearing (evolution holds them, eigenproblems exclude them).
    """
    if u.grid != op.grid:
        raise ValueError("field and operator live on different grids")
    v = u.values
    h2 = op.grid.h ** 2
    out = np.empty_like(v)
    out[1:-1] = op.interior(v)
    out[0] = -(v[0] - 2.0 * v[1] + v[2]) / h2
    out[-1] = -(v[-1] - 2.0 * v[-2] + v[-3]) / h2
    return Field(u.grid, out)


def trapezoid_weights(grid: GridSpec) -> np.ndarray:
    w = np.full(grid.n_nodes, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w


def l2_norm(u: Field) -> float:
    w = trapezoid_weights(u.grid)
    return float(np.sqrt(np.sum(w * np.abs(u.values) ** 2)))
