import math

import numpy as np
import pytest

from gpdelta.energy import (
    energy_gamma,
    energy_gradient,
    extrapolated_energy,
    nonlinear_F,
    orbit_distance,
)
from gpdelta.grid import Field, l2_norm, make_grid, trapezoid_weights
from gpdelta.solitons import StateKind, StationaryState, closed_form_energy, eval_state
from oracles import d0, dinfty

SQRT2 = math.sqrt(2.0)


def production_grid():
    return make_grid(40.0, 8000)  # h = 0.005


def test_kink_energy_breakdown():
    grid = production_grid()
    u = eval_state(StationaryState(StateKind.KINK, 0.0), grid)
    e = energy_gamma(u, 0.0)
    # First integral: kinetic and potential halves are equal, sqrt2/3 each.
    assert e.kinetic == pytest.approx(SQRT2 / 3.0, abs=1e-6)
    assert e.potential == pytest.approx(SQRT2 / 3.0, abs=1e-6)
    assert e.point == 0.0
    assert e.total == e.kinetic + e.point + e.potential


def test_point_term():
    grid = make_grid(10.0, 100)
    u = Field(grid, np.full(grid.n_nodes, 0.5 + 0.5j))
    e = energy_gamma(u, 2.0)
    assert e.kinetic == 0.0
    assert e.point == pytest.approx(0.5, abs=1e-15)


def test_even_tanh_energy_example():
    grid = production_grid()
    u = eval_state(StationaryState(StateKind.EVEN_TANH, 1.0), grid)
    assert energy_gamma(u, 1.0).total == pytest.approx(0.3594757, abs=1e-6)


@pytest.mark.parametrize(
    "kind,g",
    [(StateKind.KINK, 1.0)]
    + [(StateKind.EVEN_TANH, g) for g in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0)]
    + [(StateKind.EVEN_COTH, g) for g in (-0.5, -1.0, -2.0)],
)
def test_extrapolated_energy_hits_closed_form(kind, g):
    # Raw trapezoid energy carries an h^2 bias up to 3e-5 (coth, g=-2) at
    # h = 0.005; the two-level Richardson value lands within 1e-8.
    grid = production_grid()
    st = StationaryState(kind, g)
    u = eval_state(st, grid)
    assert extrapolated_energy(u, g) == pytest.approx(closed_form_energy(st), abs=1e-8)


def test_extrapolated_energy_requires_even_m():
    grid = make_grid(10.0, 101)
    u = Field(grid, np.ones(grid.n_nodes))
    with pytest.raises(ValueError):
        extrapolated_energy(u, 1.0)


def test_d0_of_opposite_kinks():
    grid = production_grid()
    k = eval_state(StationaryState(StateKind.KINK, 0.0), grid)
    mk = Field(grid, -k.values)
    # Same modulus, both vanish at 0, so d0 is twice the derivative norm.
    assert d0(k, mk) == pytest.approx(2.0 * math.sqrt(2.0 * SQRT2 / 3.0), abs=1e-4)
    assert d0(k, mk) == pytest.approx(1.9419662776771354, abs=1e-10)


def test_metric_basics():
    grid = make_grid(20.0, 400)
    rng = np.random.default_rng(5)
    base = np.tanh(grid.x / SQRT2)
    u = Field(grid, base + 0.1 * rng.normal(size=grid.n_nodes))
    v = Field(grid, base + 0.1 * (rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)))
    assert d0(u, u) == 0.0
    assert d0(u, v) == pytest.approx(d0(v, u), rel=1e-14)
    assert d0(u, v) > 0
    # The origin gap never exceeds the sup gap.
    assert d0(u, v) <= dinfty(u, v)


def test_modulus_term_is_phase_blind():
    # For v = e^{i a} u the modulus term of d0 vanishes exactly, leaving the
    # derivative and origin terms, both scaled by |1 - e^{i a}|.
    grid = make_grid(20.0, 400)
    u = Field(grid, np.tanh(grid.x / SQRT2) + 0.3j)
    v = Field(grid, np.exp(0.9j) * u.values)
    scale = abs(1.0 - np.exp(0.9j))
    deriv = math.sqrt(np.sum(np.abs(np.diff(u.values)) ** 2) / grid.h)
    expected = scale * (deriv + abs(u.values[grid.M]))
    assert d0(u, v) == pytest.approx(expected, rel=1e-12)


def test_nonlinear_f_values():
    grid = make_grid(5.0, 50)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)
    f = nonlinear_F(Field(grid, vals))
    np.testing.assert_allclose(f.values, (1.0 - np.abs(vals) ** 2) * vals, rtol=1e-15)


def test_gradient_matches_finite_differences():
    grid = make_grid(20.0, 400)
    rng = np.random.default_rng(11)
    u0 = np.tanh(grid.x / SQRT2) + 0.2 * (
        rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)
    )
    grad = energy_gradient(Field(grid, u0), 1.3)
    for seed in (0, 1, 2):
        w = np.random.default_rng(seed).normal(size=(2, grid.n_nodes))
        wc = w[0] + 1j * w[1]
        wc[0] = wc[-1] = 0.0  # boundary rows of the gradient are clamped
        eps = 1e-5
        ep = energy_gamma(Field(grid, u0 + eps * wc), 1.3).total
        em = energy_gamma(Field(grid, u0 - eps * wc), 1.3).total
        fd = (ep - em) / (2.0 * eps)
        exact = np.sum(trapezoid_weights(grid) * grad.values * np.conj(wc)).real
        assert fd == pytest.approx(exact, rel=1e-5)


def test_gradient_small_at_sampled_states():
    # Sampled profiles are not exact discrete critical points; the kink of
    # u''' at the origin leaves an O(h) residual concentrated on one node.
    grid = production_grid()
    cases = [
        (StateKind.KINK, 1.0, 5e-6),
        (StateKind.EVEN_TANH, 1.0, 5e-5),
        (StateKind.EVEN_COTH, -1.0, 1e-3),
    ]
    for kind, g, bound in cases:
        u = eval_state(StationaryState(kind, g), grid)
        assert l2_norm(energy_gradient(u, g)) < bound


def test_gradient_zero_on_constant_background():
    grid = make_grid(10.0, 200)
    u = Field(grid, np.exp(0.3j) * np.ones(grid.n_nodes))
    g = energy_gradient(u, 0.0)
    # Constant modulus-one field is a critical point when gamma = 0.
    assert l2_norm(g) < 1e-12


def test_orbit_distance_recovers_phase():
    grid = production_grid()
    u = eval_state(StationaryState(StateKind.EVEN_TANH, 1.0, theta=0.7), grid)
    r = orbit_distance(u, StateKind.EVEN_TANH, 1.0)
    # cancellation in the precomputed quadratic form floors this at ~sqrt(eps)
    assert r.distance < 1e-7
    assert r.best_phase == pytest.approx(0.7, abs=1e-7)
    assert r.target.theta == r.best_phase


def test_orbit_distance_consistent_with_d0():
    grid = make_grid(40.0, 2000)
    rng = np.random.default_rng(9)
    st = StationaryState(StateKind.EVEN_COTH, -1.0)
    u = Field(
        grid,
        eval_state(st, grid).values * np.exp(0.4j)
        + 0.05 * rng.normal(size=grid.n_nodes) * np.exp(-grid.x**2),
    )
    r = orbit_distance(u, StateKind.EVEN_COTH, -1.0)
    best = eval_state(r.target, grid)
    assert r.distance == pytest.approx(d0(u, best), abs=1e-12)
    for theta in (-2.0, 0.0, 0.4, 1.1):
        other = eval_state(StationaryState(st.kind, st.gamma, theta), grid)
        assert r.distance <= d0(u, other) + 1e-12


def test_orbit_distance_phase_equivariance():
    grid = make_grid(40.0, 2000)
    rng = np.random.default_rng(4)
    u0 = eval_state(StationaryState(StateKind.EVEN_TANH, -1.0), grid).values
    u0 = u0 + 0.03 * (rng.normal(size=grid.n_nodes)) * np.exp(-((grid.x - 1.0) ** 2))
    r0 = orbit_distance(Field(grid, u0), StateKind.EVEN_TANH, -1.0)
    alpha = 1.9
    r1 = orbit_distance(Field(grid, np.exp(1j * alpha) * u0), StateKind.EVEN_TANH, -1.0)
    assert r1.distance == pytest.approx(r0.distance, abs=1e-10)
    gap = (r1.best_phase - r0.best_phase - alpha + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(gap) < 1e-6


def test_orbit_distance_kink_target():
    grid = make_grid(40.0, 2000)
    u = eval_state(StationaryState(StateKind.KINK, 0.5, theta=-2.2), grid)
    r = orbit_distance(u, StateKind.KINK, 0.5)
    assert r.distance < 1e-7
    assert r.best_phase == pytest.approx(-2.2, abs=1e-6)
