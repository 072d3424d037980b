import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, lapack

from gpdelta.grid import (
    Field,
    TridiagonalLU,
    apply_hgamma,
    build_hgamma,
    l2_norm,
    make_grid,
    trapezoid_weights,
)


def test_grid_nodes_tiny():
    g = make_grid(1.0, 2)
    assert g.h == 0.5
    assert g.n_nodes == 5
    np.testing.assert_array_equal(g.x, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_grid_production_resolution():
    g = make_grid(40.0, 8000)
    assert g.n_nodes == 16001
    assert g.h == 40.0 / 8000
    assert g.x[g.M] == 0.0
    assert g.x[0] == -40.0
    assert g.x[-1] == 40.0


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(-1.0, 10)
    with pytest.raises(ValueError):
        make_grid(1.0, 1)
    with pytest.raises(ValueError):
        make_grid(1.0, 10.5)
    # Outside these limits 2/h^2 or x^2 is not a finite, nonzero double.
    with pytest.raises(ValueError, match="need 1e-150 <= h < L <= 1e150, got h=1e-301"):
        make_grid(1e-300, 10)
    with pytest.raises(ValueError, match="got h=1e[+]149, L=1e[+]151"):
        make_grid(1e151, 100)


def test_field_validation():
    g = make_grid(1.0, 2)
    with pytest.raises(ValueError):
        Field(g, np.zeros(4))
    with pytest.raises(ValueError):
        Field(g, np.array([0.0, 0.0, np.nan, 0.0, 0.0]))
    f = Field(g, np.ones(5))
    assert f.values.dtype == complex


def test_origin_diagonal_lumping():
    g = make_grid(1.0, 2)
    op = build_hgamma(g, 1.0)
    # 2/h^2 = 8 plus gamma/h = 2 at the origin node.
    assert op.diagonal[g.M] == 10.0
    assert op.diagonal[0] == 8.0
    assert op.off_diagonal == -4.0


def test_apply_matches_dense_matrix():
    g = make_grid(2.0, 8)
    op = build_hgamma(g, -0.7)
    n = g.n_nodes
    dense = np.zeros((n, n))
    np.fill_diagonal(dense, op.diagonal)
    for j in range(n - 1):
        dense[j, j + 1] = dense[j + 1, j] = op.off_diagonal
    # One-sided boundary rows.
    h2 = g.h**2
    dense[0, :3] = np.array([-1.0, 2.0, -1.0]) / h2
    dense[-1, -3:] = np.array([-1.0, 2.0, -1.0]) / h2
    rng = np.random.default_rng(3)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    out = apply_hgamma(op, Field(g, v))
    np.testing.assert_allclose(out.values, dense @ v, rtol=1e-13)


def test_apply_is_linear():
    g = make_grid(5.0, 50)
    op = build_hgamma(g, 2.0)
    rng = np.random.default_rng(1)
    u = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
    v = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    lhs = apply_hgamma(op, Field(g, a * u + b * v)).values
    rhs = a * apply_hgamma(op, Field(g, u)).values + b * apply_hgamma(op, Field(g, v)).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_symmetry_on_interior_fields():
    # <Hu, v> = <u, Hv> once boundary values vanish (one-sided rows drop out).
    g = make_grid(5.0, 80)
    op = build_hgamma(g, -1.5)
    rng = np.random.default_rng(7)
    u = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
    v = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
    u[0] = u[-1] = v[0] = v[-1] = 0.0
    w = trapezoid_weights(g)
    lhs = np.sum(w * apply_hgamma(op, Field(g, u)).values * np.conj(v))
    rhs = np.sum(w * u * np.conj(apply_hgamma(op, Field(g, v)).values))
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_grid_mismatch_rejected():
    g1 = make_grid(1.0, 4)
    g2 = make_grid(1.0, 5)
    op = build_hgamma(g1, 0.0)
    with pytest.raises(ValueError):
        apply_hgamma(op, Field(g2, np.zeros(g2.n_nodes)))


def test_gaussian_norm():
    # (2/pi)^(1/4) exp(-x^2) has unit L2 norm; trapezoid should nail it.
    g = make_grid(40.0, 4000)
    u = Field(g, (2.0 / np.pi) ** 0.25 * np.exp(-g.x**2))
    assert abs(l2_norm(u) - 1.0) < 1e-10


def test_trapezoid_weights_sum():
    g = make_grid(3.0, 6)
    assert abs(trapezoid_weights(g).sum() - 6.0) < 1e-14


def test_free_laplacian_eigenfunction_rate():
    # H_0 applied to sin(k(x+L)) should converge to k^2 sin at order 2 inside.
    k = np.pi / 10.0
    errs = []
    for M in (200, 400, 800):
        g = make_grid(10.0, M)
        u = np.sin(k * (g.x + g.L))
        out = apply_hgamma(build_hgamma(g, 0.0), Field(g, u)).values
        errs.append(np.max(np.abs(out[1:-1] - k**2 * u[1:-1])))
    r1 = np.log2(errs[0] / errs[1])
    r2 = np.log2(errs[1] / errs[2])
    assert r1 > 1.9 and r2 > 1.9


def test_origin_row_first_order_on_kinked_function():
    # exp(-|x|/2) satisfies the gamma = -1 jump condition; the lumped origin
    # row reproduces -psi/4 there only to O(h).
    errs = []
    for M in (200, 400, 800):
        g = make_grid(10.0, M)
        psi = np.exp(-np.abs(g.x) / 2.0)
        out = apply_hgamma(build_hgamma(g, -1.0), Field(g, psi)).values
        errs.append(abs(out[g.M] + 0.25 * psi[g.M]))
    r1 = np.log2(errs[0] / errs[1])
    r2 = np.log2(errs[1] / errs[2])
    assert r1 > 0.9 and r2 > 0.9


def test_attractive_delta_bound_state_eigenvalue():
    # Lowest eigenvalue of H_{-1} is -gamma^2/4 = -0.25 up to O(h^2) and an
    # exponentially small box correction.
    g = make_grid(40.0, 4000)
    op = build_hgamma(g, -1.0)
    d = op.diagonal[1:-1]
    e = np.full(g.n_nodes - 3, op.off_diagonal)
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 0), eigvals_only=True)
    assert abs(vals[0] + 0.25) < 2e-3


def _dense_tridiagonal(lower, diag, upper):
    return np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)


def _direct_sweep(bands, rhs):
    """One zgttrf/zgttrs pair on the whole matrix: the reference for TridiagonalLU."""
    dl, d, du, du2, ipiv, info = lapack.zgttrf(*bands)
    assert info == 0
    x, info = lapack.zgttrs(dl, d, du, du2, ipiv, rhs)
    assert info == 0
    return x


def _cn_bands(op, dt):
    """I + i dt/2 H with identity end rows.

    Crank-Nicolson factors the interior rows alone; these two decoupled rows
    border that matrix and leave its factors as they are.
    """
    n = op.grid.n_nodes
    z = 0.5j * dt
    diag = np.ones(n, dtype=complex)
    diag[1:-1] += z * op.diagonal[1:-1]
    upper = np.full(n - 1, z * op.off_diagonal, dtype=complex)
    lower = upper.copy()
    upper[0] = lower[-1] = 0.0
    return lower, diag, upper


# (L, M, dt): n = 41; n = 4001, criterion 8's Crank-Nicolson and the descent
# flow's grid; n = 6001, instability's default grid; n = 16001, the linear
# workload's grid.
_LU_CASES = ((2.0, 20, 0.01), (40.0, 2000, 2e-3), (30.0, 3000, 1e-3), (40.0, 8000, 1e-4))


def test_tridiagonal_lu_solves_both_end_row_layouts():
    for L, M, dt in _LU_CASES:
        g = make_grid(L, M)
        op = build_hgamma(g, -0.7)
        n = g.n_nodes
        rng = np.random.default_rng(5)
        rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
        cn = _cn_bands(op, dt)

        # Gradient flow: I + tau H with reflected-Neumann end rows.
        tau = 0.9
        gf_diag = (1.0 + tau * op.diagonal).astype(complex)
        gf_diag[0] = gf_diag[-1] = 1.0 + 2.0 * tau / g.h**2
        gf_upper = np.full(n - 1, tau * op.off_diagonal, dtype=complex)
        gf_lower = gf_upper.copy()
        gf_upper[0] *= 2.0
        gf_lower[-1] *= 2.0
        gf = (gf_lower, gf_diag, gf_upper)

        for bands in (cn, gf):
            x = TridiagonalLU(*bands).solve(rhs.copy())
            assert x.tobytes() == _direct_sweep(bands, rhs).tobytes()
            if n < 100:
                want = np.linalg.solve(_dense_tridiagonal(*bands), rhs)
                np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-12)


def test_a_solve_overwrites_its_right_hand_side_and_refuses_one_zgttrs_would_copy():
    rng = np.random.default_rng(5)
    for L, M, dt in ((2.0, 20, 0.01), (40.0, 2000, 2e-3)):  # n = 41 and 4001
        bands = _cn_bands(build_hgamma(make_grid(L, M), -0.7), dt)
        n = bands[1].size
        rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
        lu = TridiagonalLU(*bands)
        want = _direct_sweep(bands, rhs)
        for worker in (False, True):
            b = rhs.copy()
            x = lu.solve(b, worker=worker)
            assert x is b
            assert x.tobytes() == want.tobytes()

        strided = np.empty(2 * n, dtype=complex)[::2]
        strided[:] = rhs
        read_only = rhs.copy()
        read_only.flags.writeable = False
        for bad in (rhs.real.copy(), strided, read_only, rhs[:-1].copy(), list(rhs)):
            with pytest.raises(ValueError, match="writeable, C-contiguous complex128"):
                lu.solve(bad)


def test_a_worker_solve_never_calls_lapack_zgttrs(monkeypatch):
    # A profiler may wrap lapack.zgttrs, and its wrapper need not be
    # thread-safe; a worker's solve sweeps through grid._zgttrs, bound at import.
    bands = _cn_bands(build_hgamma(make_grid(2.0, 20), 1.0), 0.01)
    rhs = np.ones(bands[1].size, dtype=complex)
    lu = TridiagonalLU(*bands)
    want = _direct_sweep(bands, rhs)

    def failing_zgttrs(*args, **kwargs):
        return args[-1], 3

    monkeypatch.setattr(lapack, "zgttrs", failing_zgttrs)
    assert lu.solve(rhs.copy(), worker=True).tobytes() == want.tobytes()
    with pytest.raises(RuntimeError, match=r"tridiagonal solve failed \(info=3\)"):
        lu.solve(rhs.copy())


def test_tridiagonal_lu_rejects_a_singular_matrix():
    # Row 1 of the matrix is zero, so its pivot is exactly zero.
    off = np.zeros(3, dtype=complex)
    with pytest.raises(RuntimeError, match="tridiagonal factorization failed"):
        TridiagonalLU(off, np.array([1.0, 0.0, 1.0, 1.0], dtype=complex), off)
