"""Uniform symmetric grids, the delta-modified Laplacian, and the discrete L2 norm."""

from __future__ import annotations

import os
import queue
import threading
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


# The smallest matrix tried as two blocks (a handoff costs about 17 us, a sweep about
# 14 ns per row; Crank-Nicolson's n - 2 rows on a 3001-node grid), and the spike cut-off.
_SPLIT_MIN_ROWS = 2999
_SPIKE_CUT = 2.0 ** -60

# Bound once at import. The caller's own sweep and every factorization look
# lapack.zgttrs / zgttrf up at call time, where a profiler may wrap them; the
# helper thread and the spike solves never call those wrappers, which need
# not be thread-safe.
_zgttrs = lapack.zgttrs


class TridiagonalLU:
    """LU factors of a complex tridiagonal matrix, kept for repeated solves.

    Callers build the three bands. The matrix is factored once (LAPACK zgttrf)
    and each solve is a zgttrs sweep of the right-hand side, or two half-size ones.

    A matrix of at least _SPLIT_MIN_ROWS rows is tried as two diagonal blocks
    (the partition or "SPIKE" method: Polizzi & Sameh, Parallel Computing 32,
    2006). Each block is factored on its own, and its spike, the block's inverse
    applied to its coupling column, is computed once and cut where it falls
    below _SPIKE_CUT of its peak. A solve puts block 2 of the right-hand side on
    a queue for one helper thread, started on first use, and sweeps block 1
    while the helper sweeps block 2. It then takes the helper's result from a
    second queue, solves the 2 x 2 interface system and corrects the rows the
    spikes reach. A second caller that finds the helper busy sweeps both blocks
    inline, and a forked child starts a helper of its own. The split is kept
    only when both spikes reach at most a quarter of their block:
    Crank-Nicolson's I + i dt/2 H has spikes of about a hundred rows, while the
    flow's preconditioner (s I + tau H_N) has spikes that span nearly its whole
    block, so it keeps the single sweep. Below the row floor the thread handoff
    costs more than half a sweep saves.

    The split's arithmetic is the same on one core, where both blocks are swept
    inline, so a result does not depend on the core count. It differs from the
    single sweep at the rounding level only.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        self._n = diag.size
        self._split = None
        if diag.size >= _SPLIT_MIN_ROWS:
            self._split = _Split.try_factor(lower, diag, upper)
        if self._split is None:
            dl, d, du, du2, ipiv, info = lapack.zgttrf(lower, diag, upper)
            if info != 0:
                raise RuntimeError(f"tridiagonal factorization failed (info={info})")
            self._factors = (dl, d, du, du2, ipiv)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution of A x = b, swept into b itself and returned."""
        # zgttrs sweeps a private copy of any other b and would leave b unsolved.
        if not (isinstance(b, np.ndarray) and b.dtype == np.complex128 and b.shape == (self._n,)
                and b.flags.c_contiguous and b.flags.writeable):
            raise ValueError(f"a tridiagonal solve needs a writeable, C-contiguous "
                             f"complex128 array of {self._n} rows")
        if self._split is not None:
            return self._split.solve(b)
        _sweep(lapack.zgttrs, self._factors, b)
        return b


def _sweep(zgttrs, factors: tuple, x: np.ndarray) -> None:
    """One zgttrs sweep on the contiguous complex array x, in place."""
    _, info = zgttrs(*factors, x, overwrite_b=1)
    if info != 0:
        raise RuntimeError(f"tridiagonal solve failed (info={info})")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class _Split:
    """Blocks A1 = rows [0, m) and A2 = rows [m, n), with their cut spikes.

    For A x = f, with g = blocks^-1 f, V = A1^-1 (A[m-1, m] e_last) and
    W = A2^-1 (A[m, m-1] e_first), the interface values a = x[m-1] and b = x[m]
    solve a + V[-1] b = g[m-1] and W[0] a + b = g[m]; then x1 = g1 - V b and
    x2 = g2 - W a.
    """

    m: int
    top: tuple  # zgttrf factors of A1
    bottom: tuple  # and of A2
    v: np.ndarray  # V's last rows, down to row m-1
    w: np.ndarray  # W's first rows, from row m
    det: complex  # 1 - V[-1] W[0]
    threaded: bool  # sweep A2 on the helper thread

    @classmethod
    def try_factor(cls, lower, diag, upper) -> _Split | None:
        """The split of the matrix, or None where a spike is long or a block singular."""
        n = diag.size
        m = n // 2
        blocks = []
        for rows, bands, coupling, end in (
            (m, (lower[:m - 1], diag[:m], upper[:m - 1]), upper[m - 1], -1),
            (n - m, (lower[m:], diag[m:], upper[m:]), lower[m - 1], 0),
        ):
            dl, d, du, du2, ipiv, info = lapack.zgttrf(*bands)
            if info != 0:
                return None
            factors = (dl, d, du, du2, ipiv)
            spike = np.zeros(rows, dtype=complex)
            spike[end] = coupling
            _sweep(_zgttrs, factors, spike)
            mag = np.abs(spike)
            peak = mag.max()
            if not 0.0 < peak < np.inf:
                return None
            kept = np.flatnonzero(mag >= _SPIKE_CUT * peak)
            # V reaches up from row m-1, W down from row m.
            cut = spike[kept[0]:] if end else spike[:kept[-1] + 1]
            if cut.size > rows // 4:
                return None
            blocks.append((factors, cut.copy()))
        (top, v), (bottom, w) = blocks
        det = complex(1.0 - v[-1] * w[0])
        if det == 0.0 or not np.isfinite(det):
            return None
        return cls(m, top, bottom, v, w, det, _usable_cores() > 1)

    def solve(self, x: np.ndarray) -> np.ndarray:
        m = self.m
        top, bottom = x[:m], x[m:]
        if self.threaded and _busy.acquire(blocking=False):
            try:
                _hand_off(self.bottom, bottom)
                try:
                    _sweep(lapack.zgttrs, self.top, top)
                finally:
                    error = _results.get()
            finally:
                _busy.release()
            if error is not None:
                raise error
        else:
            _sweep(lapack.zgttrs, self.top, top)
            _sweep(_zgttrs, self.bottom, bottom)
        g1, g2 = top[-1], bottom[0]
        a = (g1 - self.v[-1] * g2) / self.det
        b = (g2 - self.w[0] * g1) / self.det
        top[m - self.v.size:] -= b * self.v
        bottom[:self.w.size] -= a * self.w
        return x


def _reset_helper() -> None:
    """The helper's channel, free and empty, with no thread started yet.

    _busy reserves it for one caller at a time, which starts the thread if need
    be, puts (factors, block-2 view) on _jobs and takes None or the sweep's error
    from _results. A forked child, without the parent's thread, starts over.
    """
    global _busy, _jobs, _results, _started
    _busy = threading.Lock()
    _jobs, _results = queue.SimpleQueue(), queue.SimpleQueue()
    _started = False


def _hand_off(factors: tuple, x: np.ndarray) -> None:
    """Queue block 2 for the helper thread, starting it on first use."""
    global _started
    if not _started:
        threading.Thread(target=_serve, name="gpdelta-tridiagonal", daemon=True).start()
        _started = True
    _jobs.put((factors, x))


def _serve() -> None:
    while True:
        factors, x = _jobs.get()
        error = None
        try:
            _sweep(_zgttrs, factors, x)
        except Exception as err:  # raised again in the caller
            error = err
        del factors, x  # keep no solution array alive while waiting for the next
        _results.put(error)


_reset_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_helper)


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
