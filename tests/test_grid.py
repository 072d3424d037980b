import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

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


def test_tridiagonal_lu_solves_both_end_row_layouts():
    g = make_grid(2.0, 20)
    op = build_hgamma(g, -0.7)
    n = g.n_nodes
    rng = np.random.default_rng(5)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)

    # Crank-Nicolson: I + i dt/2 H inside, identity end rows.
    z = 0.5j * 0.01
    cn_diag = np.ones(n, dtype=complex)
    cn_diag[1:-1] += z * op.diagonal[1:-1]
    cn_upper = np.full(n - 1, z * op.off_diagonal, dtype=complex)
    cn_lower = cn_upper.copy()
    cn_upper[0] = cn_lower[-1] = 0.0

    # Gradient flow: I + tau H with reflected-Neumann end rows.
    tau = 0.9
    gf_diag = (1.0 + tau * op.diagonal).astype(complex)
    gf_diag[0] = gf_diag[-1] = 1.0 + 2.0 * tau / g.h**2
    gf_upper = np.full(n - 1, tau * op.off_diagonal, dtype=complex)
    gf_lower = gf_upper.copy()
    gf_upper[0] *= 2.0
    gf_lower[-1] *= 2.0

    for bands in ((cn_lower, cn_diag, cn_upper), (gf_lower, gf_diag, gf_upper)):
        x = TridiagonalLU(*bands).solve(rhs)
        want = np.linalg.solve(_dense_tridiagonal(*bands), rhs)
        np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-12)


def test_tridiagonal_lu_rejects_a_singular_matrix():
    # Row 1 of the matrix is zero, so its pivot is exactly zero.
    off = np.zeros(3, dtype=complex)
    with pytest.raises(RuntimeError, match="tridiagonal factorization failed"):
        TridiagonalLU(off, np.array([1.0, 0.0, 1.0, 1.0], dtype=complex), off)
