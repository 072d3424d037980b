"""Linearization spectra: construction, eigenvalue solvers, instability route."""

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal

from gpdelta import spectra
from gpdelta.grid import make_grid
from gpdelta.spectra import (
    EDGE_LMINUS,
    EDGE_LPLUS,
    SpectralReport,
    Which,
    build_lpm,
    eigs_below,
    instability_eigenvalue,
    lambda_curve,
    spectral_report,
)

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def canon():
    # h = 0.01, box [-30, 30]: the workhorse eigenproblem grid.
    return make_grid(30.0, 3000)


def dense(bands):
    d, off = bands
    return np.diag(d) + np.diag(off, 1) + np.diag(off, -1)


def dense_instability(gamma, grid):
    """Small-n oracle: (mu_min, rate, u) from Lambda = S M S, S = P^{1/2}.

    mu_min is the lowest eigenvalue of Lambda; for mu_min < 0 the growing
    mode is u = S^{-1} w for Lambda's ground vector w, on the interior nodes.
    O(n^3) in time and O(n^2) in memory.
    """
    lp = build_lpm(grid, gamma, Which.LPLUS)
    lm = build_lpm(grid, gamma, Which.LMINUS)
    e, V = eigh_tridiagonal(*lp)
    assert e[0] > 0.0
    S = (V * np.sqrt(e)) @ V.T
    mu, W = eigh(S @ dense(lm) @ S)
    u = (V / np.sqrt(e)) @ (V.T @ W[:, 0])
    return mu[0], np.sqrt(-mu[0]) if mu[0] < 0.0 else None, u


def rayleigh(bands, f):
    d, off = bands
    quad = np.sum(d * f * f) + 2.0 * np.sum(off * f[:-1] * f[1:])
    return quad / np.sum(f * f)


# ------------------------------------------------------------ construction


def test_unknown_operator_tag_is_rejected(canon):
    with pytest.raises(ValueError):
        build_lpm(canon, 0.0, "lminus")


def test_origin_diagonal_carries_exactly_the_delta_weight(canon):
    for which in Which:
        flat = build_lpm(canon, 0.0, which)
        bent = build_lpm(canon, 1.5, which)
        diff = bent[0] - flat[0]
        assert diff[canon.M - 1] == 1.5 / canon.h
        diff[canon.M - 1] = 0.0
        assert np.all(diff == 0.0)


def test_phase_block_ground_state_is_the_sech_profile(canon):
    # Analytic ground pair of the gamma = 0 phase block: sech(x/sqrt2) at -1/2.
    m = build_lpm(canon, 0.0, Which.LMINUS)
    phi = 1.0 / np.cosh(canon.x[1:-1] / SQRT2)
    assert rayleigh(m, phi) == pytest.approx(-0.5, abs=5e-4)  # measured -0.50000097
    vals = eigs_below(m, EDGE_LMINUS)
    assert vals.size == 1
    assert vals[0] == pytest.approx(-0.5, abs=5e-4)


def test_phase_block_ground_eigenvalue_converges_quadratically():
    errs = {}
    for M in (1500, 3000):
        g = make_grid(30.0, M)
        vals = eigs_below(build_lpm(g, 0.0, Which.LMINUS), EDGE_LMINUS)
        errs[M] = abs(vals[0] + 0.5)
    assert 3.5 < errs[1500] / errs[3000] < 4.5  # measured 4.000


def test_amplitude_block_kernel_direction_at_zero_coupling(canon):
    # kappa' spans the kernel when the delta is off; its Rayleigh quotient
    # vanishes up to O(h^2) and box truncation.
    m = build_lpm(canon, 0.0, Which.LPLUS)
    kp = (1.0 / np.cosh(canon.x[1:-1] / SQRT2)) ** 2 / SQRT2
    assert abs(rayleigh(m, kp)) < 1e-4  # measured 4.8e-6


# ------------------------------------------------------------- eigs_below


def test_eigs_below_reports_count_when_k_max_is_exceeded(canon, monkeypatch):
    m = build_lpm(canon, -1.0, Which.LPLUS)
    monkeypatch.setattr(spectra, "_K_MAX", 1)
    with pytest.raises(ValueError, match="found 3 eigenvalues"):
        eigs_below(m, EDGE_LPLUS)


def test_amplitude_block_negative_count_flips_with_the_coupling_sign(canon):
    assert eigs_below(build_lpm(canon, 1.0, Which.LPLUS), 0.0).size == 0
    vals = eigs_below(build_lpm(canon, -1.0, Which.LPLUS), 0.0)
    assert vals.shape == (1,)
    assert vals[0] == pytest.approx(-0.662685, abs=1e-5)  # regression fixture


# -------------------------------------------------------- negative counts


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, -0.5, -1.0, -2.0])
def test_negative_count_table(canon, gamma):
    rep = spectral_report(gamma, canon)
    assert rep.n_neg_minus >= 1
    assert rep.n_neg_plus == (1 if gamma < 0 else 0)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, -0.5, -1.0, -2.0])
def test_no_discrete_eigenvalue_sits_near_zero(canon, gamma):
    # Kernel triviality at 10x the demonstrated 5e-4 eigenvalue accuracy.
    rep = spectral_report(gamma, canon)
    nearest = np.min(np.abs(np.concatenate([rep.lminus_eigs, rep.lplus_eigs])))
    assert nearest > 5e-3  # measured minimum 0.134 (gamma = 2)


def test_box_artifacts_above_the_edges_recede_as_the_box_grows():
    for which, edge in ((Which.LMINUS, EDGE_LMINUS), (Which.LPLUS, EDGE_LPLUS)):
        first = {}
        for L in (30.0, 60.0):
            m = build_lpm(make_grid(L, int(100 * L)), 1.0, which)
            vals = eigh_tridiagonal(
                *m, eigvals_only=True, select="v",
                select_range=(edge, edge + 0.05), lapack_driver="stebz", tol=1e-10,
            )
            first[L] = vals[0] - edge
        # measured 3.0e-3 -> 7.2e-4 (phase block), 8.2e-3 -> 2.3e-3 (amplitude)
        assert first[60.0] < first[30.0] / 2.0


# ------------------------------------------------------------ lambda curve


def test_lowest_amplitude_eigenvalue_tracks_the_coupling(canon):
    pts = lambda_curve([-0.05, -0.01, 0.0, 0.01, 0.05], canon)
    lam = dict(zip(pts[:, 0], pts[:, 1]))
    assert abs(lam[0.0]) < 1e-4  # measured -4.8e-6
    slope = (lam[0.01] - lam[-0.01]) / 0.02
    assert slope == pytest.approx(3.0 * SQRT2 / 8.0, abs=1e-2)  # measured 0.530337
    for g in (0.01, 0.05):
        assert lam[g] > 0.0 and lam[-g] < 0.0


def test_lambda_curve_warns_when_the_eigenvalue_reaches_the_edge():
    # A box too small to hold any state below the edge saturates the lowest
    # value at a Dirichlet artifact; that must be flagged, not reported bare.
    tiny = make_grid(0.8, 80)
    with pytest.warns(UserWarning, match="absorbed"):
        lambda_curve([0.0], tiny)


# ------------------------------------------------- instability eigenvalue


def test_instability_rejects_nonpositive_coupling(canon):
    with pytest.raises(ValueError):
        instability_eigenvalue(0.0, canon)
    with pytest.raises(ValueError):
        instability_eigenvalue(-1.0, canon)


def test_instability_reports_when_the_amplitude_block_is_not_positive(canon):
    # At gamma about h^2 the kernel eigenvalue's O(h^2) discretization bias
    # outweighs the true positive shift, a genuine failure of the square root.
    with pytest.raises(ValueError, match="not positive"):
        instability_eigenvalue(1e-6, canon)


def test_repulsive_kink_has_a_growing_mode():
    grid = make_grid(30.0, 601)
    rep = instability_eigenvalue(1.0, grid)
    assert rep.mu_min < 0.0
    assert rep.growth_rate == pytest.approx(np.sqrt(-rep.mu_min))
    assert rep.growth_rate == pytest.approx(0.363337, abs=1e-4)  # regression fixture
    counts = spectral_report(1.0, grid)
    assert counts.n_neg_minus == 1 and counts.n_neg_plus == 0
    # The direction comes back on the full grid with clamped walls, at unit
    # norm, and the ground state of the symmetrized product is even.
    mode = rep.direction
    assert mode.shape == (grid.n_nodes,)
    assert mode[0] == 0.0 and mode[-1] == 0.0
    assert np.sum(np.abs(mode) ** 2) * grid.h == pytest.approx(1.0, rel=1e-12)
    sym = np.max(np.abs(mode - mode[::-1])) / np.max(np.abs(mode))
    assert sym < 1e-6  # measured 2.5e-14


def test_growth_rate_is_grid_converged():
    coarse = instability_eigenvalue(1.0, make_grid(30.0, 601))
    fine = instability_eigenvalue(1.0, make_grid(30.0, 1201))
    rel = abs(coarse.growth_rate - fine.growth_rate) / fine.growth_rate
    assert rel < 0.01  # measured 4.7e-6


@pytest.mark.parametrize("M", [300, 600])
def test_sparse_instability_matches_the_dense_oracle(M):
    grid = make_grid(30.0, M)
    rep = instability_eigenvalue(1.0, grid)
    mu, rate, u = dense_instability(1.0, grid)
    # measured 4.7e-11 (M = 300) and 3.8e-9 (M = 600): the dense square root
    # loses accuracy with the condition number of P, which grows like h^-2
    assert abs(rep.growth_rate - rate) / rate < 1e-7
    assert abs(rep.mu_min - mu) / abs(mu) < 2e-7
    got = rep.direction.real[1:-1] / np.linalg.norm(rep.direction.real)
    want = u / np.linalg.norm(u) * np.sign(u[grid.M - 1])
    assert np.linalg.norm(got - want) < 1e-6  # measured 2.9e-11, 5.2e-10


def test_instability_is_deterministic_and_sign_pinned():
    grid = make_grid(30.0, 600)
    one = instability_eigenvalue(1.0, grid)
    instability_eigenvalue(2.0, make_grid(20.0, 400))  # no solver state carries over
    two = instability_eigenvalue(1.0, grid)
    assert one.mu_min == two.mu_min and one.growth_rate == two.growth_rate
    assert np.array_equal(one.direction, two.direction)
    assert one.direction.real[grid.M] > 0.0


# ----------------------------------------------------------------- report


def test_report_invariants_are_enforced():
    ok = dict(
        gamma=1.0,
        lminus_eigs=np.array([-0.25]),
        lplus_eigs=np.array([0.4, 1.5]),
        n_neg_minus=1,
        n_neg_plus=0,
    )
    SpectralReport(**ok)
    with pytest.raises(ValueError):
        SpectralReport(**{**ok, "lplus_eigs": np.array([1.5, 0.4])})
