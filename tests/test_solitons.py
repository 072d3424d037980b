import math

import numpy as np
import pytest

from gpdelta.grid import apply_hgamma, build_hgamma, l2_norm, make_grid
from gpdelta.solitons import (
    StateKind,
    StationaryState,
    bound_state,
    c_gamma,
    closed_form_energy,
    eval_state,
    eval_state_derivative,
    families,
    origin_value,
    theta_gamma,
    theta_tilde,
)

SQRT2 = math.sqrt(2.0)

# Frozen against 40-digit quadrature of the energy integrand (see test below
# for the in-suite reduced-precision rerun of the same oracle).
ENERGY_TANH = {
    0.5: 0.210670670041673023,
    1.0: 0.359475708248730033,
    2.0: 0.544091567346519406,
    -0.5: 1.674947413122453708,
    -1.0: 1.526142374915396699,
    -2.0: 1.341526515817607326,
}
ENERGY_COTH = {
    -0.5: -0.299745996624993643,
    -1.0: -0.723857625084603301,
    -2.0: -2.122575099320147261,
}


def test_shift_values():
    assert c_gamma(1.0) == pytest.approx(-1.2464504802804509, abs=1e-12)
    assert c_gamma(-1.0) == pytest.approx(1.2464504802804509, abs=1e-12)
    assert c_gamma(-2.0) > 0 > c_gamma(2.0)
    with pytest.raises(ValueError):
        c_gamma(0.0)


def test_origin_values():
    assert theta_gamma(1.0) == pytest.approx(1.0 / SQRT2, abs=1e-15)
    assert theta_gamma(-1.0) == pytest.approx(-1.0 / SQRT2, abs=1e-15)
    assert theta_tilde(-1.0) == pytest.approx(SQRT2, abs=1e-15)
    # theta is tanh(-c/sqrt2), the tanh profile evaluated at the origin.
    for g in (0.3, 1.0, 5.0, -0.7, -2.0, -40.0):
        assert theta_gamma(g) == pytest.approx(math.tanh(-c_gamma(g) / SQRT2), abs=1e-14)
    with pytest.raises(ValueError):
        theta_tilde(0.5)


def test_origin_value_is_the_profile_at_the_origin():
    grid = make_grid(10.0, 100)
    for g in (1.0, -1.0):
        for kind in families(g):
            state = StationaryState(kind, g)
            at_origin = eval_state(state, grid).values[grid.M].real
            assert origin_value(state) == pytest.approx(at_origin, abs=1e-14)
    # The kink's origin value is an exact zero, so its energy is exactly 2 sqrt2 / 3.
    kink = StationaryState(StateKind.KINK, -1.0)
    assert origin_value(kink) == 0.0
    assert closed_form_energy(kink) == 2.0 * SQRT2 / 3.0


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0, -0.5, -1.0, -2.0, 17.0, -0.01])
def test_jump_relation(g):
    # sqrt2 (1 - th^2) = gamma th encodes u'(0+) - u'(0-) = gamma u(0).
    th = theta_gamma(g)
    assert SQRT2 * (1.0 - th * th) == pytest.approx(g * th, rel=1e-14)
    if g < 0:
        tt = theta_tilde(g)
        assert SQRT2 * (1.0 - tt * tt) == pytest.approx(g * tt, rel=1e-14)


def test_state_validation():
    with pytest.raises(ValueError):
        StationaryState(StateKind.EVEN_TANH, 0.0)
    with pytest.raises(ValueError):
        StationaryState(StateKind.EVEN_COTH, 0.5)
    StationaryState(StateKind.KINK, 0.0)


def test_profiles_at_origin_and_infinity():
    grid = make_grid(40.0, 2000)
    mid = grid.M
    kink = eval_state(StationaryState(StateKind.KINK, 0.0), grid).values
    assert kink[mid] == 0.0
    assert kink[0].real == pytest.approx(-1.0, abs=1e-12)
    assert kink[-1].real == pytest.approx(1.0, abs=1e-12)

    b = eval_state(StationaryState(StateKind.EVEN_TANH, 1.0), grid).values
    assert b[mid].real == pytest.approx(theta_gamma(1.0), abs=1e-15)
    assert b[0].real == pytest.approx(1.0, abs=1e-12)
    assert b[-1].real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(b, b[::-1], atol=0)  # even

    bt = eval_state(StationaryState(StateKind.EVEN_COTH, -1.0), grid).values
    assert bt[mid].real == pytest.approx(theta_tilde(-1.0), abs=1e-14)
    # coth > 1 strictly, but it saturates to 1.0 in double precision far out.
    assert np.all(bt.real >= 1.0)
    assert bt[mid].real > 1.0
    assert bt[-1].real == pytest.approx(1.0, abs=1e-12)


def test_phase_factor():
    grid = make_grid(10.0, 100)
    base = eval_state(StationaryState(StateKind.EVEN_TANH, 1.0), grid).values
    rot = eval_state(StationaryState(StateKind.EVEN_TANH, 1.0, theta=0.7), grid).values
    np.testing.assert_allclose(rot, np.exp(0.7j) * base, rtol=1e-15)


@pytest.mark.parametrize(
    "state",
    [
        StationaryState(StateKind.KINK, 1.0),
        StationaryState(StateKind.EVEN_TANH, 1.0),
        StationaryState(StateKind.EVEN_TANH, -1.0),
        StationaryState(StateKind.EVEN_COTH, -1.0),
    ],
)
def test_first_integral_identity(state):
    # (1/2) u'^2 - (1/4)(1 - u^2)^2 vanishes identically for every family.
    grid = make_grid(20.0, 500)
    u = eval_state(state, grid).values.real
    du = eval_state_derivative(state, grid).values.real
    resid = 0.5 * du**2 - 0.25 * (1.0 - u**2) ** 2
    # The origin sample of du for even states is the symmetric average 0, so
    # skip it; everywhere else the identity is exact.
    keep = np.abs(grid.x) > 0
    assert np.max(np.abs(resid[keep])) < 1e-12


def test_derivative_matches_finite_differences():
    grid = make_grid(15.0, 3000)
    for state in (
        StationaryState(StateKind.KINK, 0.0),
        StationaryState(StateKind.EVEN_TANH, -1.0),
        StationaryState(StateKind.EVEN_COTH, -0.5),
    ):
        u = eval_state(state, grid).values
        du = eval_state_derivative(state, grid).values
        fd = (u[2:] - u[:-2]) / (2.0 * grid.h)
        inner = slice(1, -1)
        away = np.abs(grid.x[inner]) > 2 * grid.h  # central diff invalid across the kink
        assert np.max(np.abs((du[inner] - fd)[away])) < 5e-5


def test_ode_residual_off_origin():
    # u'' + (1 - u^2) u = 0 away from x = 0; check via apply_hgamma with the
    # origin and boundary rows excluded.
    grid = make_grid(20.0, 2000)
    for state in (
        StationaryState(StateKind.EVEN_TANH, 1.0),
        StationaryState(StateKind.EVEN_COTH, -1.0),
    ):
        f = eval_state(state, grid)
        hu = apply_hgamma(build_hgamma(grid, state.gamma), f).values
        resid = hu - (1.0 - np.abs(f.values) ** 2) * f.values
        keep = (np.abs(grid.x) > 0.5) & (np.abs(grid.x) < grid.L - 0.5)
        assert np.max(np.abs(resid[keep])) < 5e-4  # O(h^2) second difference


def test_closed_form_energy_frozen_values():
    for g, e in ENERGY_TANH.items():
        assert closed_form_energy(StationaryState(StateKind.EVEN_TANH, g)) == pytest.approx(
            e, abs=1e-14
        )
    for g, e in ENERGY_COTH.items():
        assert closed_form_energy(StationaryState(StateKind.EVEN_COTH, g)) == pytest.approx(
            e, abs=1e-14
        )
    assert closed_form_energy(StationaryState(StateKind.KINK, 3.0)) == pytest.approx(
        2.0 * SQRT2 / 3.0, abs=1e-15
    )


def test_closed_form_energy_against_quadrature():
    # Independent route: numerically integrate the energy density of the
    # analytic profiles.  mpmath keeps this route fully separate from the
    # closed form (no shared identities).
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    s2 = mp.sqrt(2)
    cases = [(StateKind.EVEN_TANH, g) for g in (1.0, -1.0)] + [
        (StateKind.EVEN_COTH, g) for g in (-0.5, -1.0, -2.0)
    ]
    for kind, g in cases:
        c = mp.asinh(-2 * s2 / g) / s2
        if kind is StateKind.EVEN_TANH:
            u = lambda x: mp.tanh((abs(x) - c) / s2)
        else:
            u = lambda x: mp.coth((abs(x) + c) / s2)
        dens = lambda x: mp.mpf("0.5") * mp.diff(u, x) ** 2 + mp.mpf("0.25") * (
            1 - u(x) ** 2
        ) ** 2
        e = mp.quad(dens, [-mp.inf, 0, mp.inf]) + g / 2 * u(0) ** 2
        assert closed_form_energy(StationaryState(kind, g)) == pytest.approx(
            float(e), abs=1e-12
        )


def test_dropping_the_gamma_squared_term_is_wrong():
    # The coth energy is sometimes "simplified" by linearizing th^3 through
    # the jump relation; done carelessly that drops sqrt2 g^2 th / 12.  Pin
    # the exact gap so the two expressions are never confused.
    for g in (-0.5, -1.0, -2.0):
        tt = theta_tilde(g)
        truth = closed_form_energy(StationaryState(StateKind.EVEN_COTH, g))
        dropped = g / 6.0 - (2.0 * SQRT2 / 3.0) * (tt - 1.0)
        assert dropped - truth == pytest.approx(SQRT2 * g * g * tt / 12.0, rel=1e-12)


def test_energy_orderings():
    for g in (0.25, 0.5, 1.0, 2.0, 8.0):
        eb = closed_form_energy(StationaryState(StateKind.EVEN_TANH, g))
        ek = closed_form_energy(StationaryState(StateKind.KINK, g))
        assert eb < ek
    for g in (-0.25, -0.5, -1.0, -2.0, -8.0):
        eb = closed_form_energy(StationaryState(StateKind.EVEN_TANH, g))
        ek = closed_form_energy(StationaryState(StateKind.KINK, g))
        ebt = closed_form_energy(StationaryState(StateKind.EVEN_COTH, g))
        assert ebt < ek < eb
        assert ebt < 0.0


def test_bound_state():
    grid = make_grid(40.0, 4000)
    with pytest.raises(ValueError):
        bound_state(0.5, grid)
    psi = bound_state(-1.0, grid)
    # |psi|^2 has a derivative jump at 0, so the trapezoid norm is O(h^2)
    # accurate, not spectrally accurate like a smooth integrand.
    assert abs(l2_norm(psi) - 1.0) < 1e-5
    err_h = abs(l2_norm(psi) - 1.0)
    fine = make_grid(40.0, 8000)
    err_h2 = abs(l2_norm(bound_state(-1.0, fine)) - 1.0)
    assert 3.5 < err_h / err_h2 < 4.5
    assert psi.values[grid.M].real == pytest.approx(math.sqrt(0.5), abs=1e-15)
    # Eigenfunction residual away from the origin row: H psi = -(1/4) psi.
    hpsi = apply_hgamma(build_hgamma(grid, -1.0), psi).values
    resid = hpsi + 0.25 * psi.values
    keep = (np.abs(grid.x) > 0.5) & (np.abs(grid.x) < 35.0)
    assert np.max(np.abs(resid[keep])) < 1e-5
