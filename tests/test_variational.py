"""Gradient-flow minimization: descent invariants, basins, failure flags."""

import numpy as np
import pytest

from gpdelta.energy import energy_gamma, energy_gradient, orbit_distance
from gpdelta.grid import Field, l2_norm, make_grid
from gpdelta.solitons import StateKind, StationaryState, closed_form_energy, eval_state
from gpdelta.variational import (
    FlowConfig,
    gradient_flow,
    minimize_report,
    seeded_start,
)

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def box():
    # h = 0.02 is plenty for basin geometry and keeps each flow at seconds.
    return make_grid(40.0, 2000)


def first_integral_residual(field):
    # (1/2)|u'|^2 - (1/4)(1-|u|^2)^2 with centered differences, skipping the
    # origin region where the derivative genuinely jumps.
    g = field.grid
    u = field.values
    du = (u[2:] - u[:-2]) / (2.0 * g.h)
    mod2 = np.abs(u[1:-1]) ** 2
    resid = 0.5 * np.abs(du) ** 2 - 0.25 * (1.0 - mod2) ** 2
    keep = np.abs(g.x[1:-1]) >= 2.0 * g.h
    return float(np.max(np.abs(resid[keep])))


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        FlowConfig(max_iters=0)
    with pytest.raises(ValueError):
        FlowConfig(grad_tol=0.0)


def test_stationary_start_is_a_fixed_point(box):
    # With the tolerance set at the discretization residual scale the sampled
    # soliton is already converged; nothing should move.
    b1 = eval_state(StationaryState(StateKind.EVEN_TANH, 1.0), box)
    res = gradient_flow(b1, 1.0, FlowConfig(grad_tol=1e-3))
    assert res.converged
    assert res.iterations <= 5  # measured 0
    assert np.array_equal(res.field.values, b1.values)


@pytest.mark.parametrize(
    "gamma,kind",
    [(1.0, StateKind.EVEN_TANH), (-1.0, StateKind.EVEN_COTH)],
    ids=["tanh", "coth"],
)
def test_seeded_flow_descends_into_the_global_orbit(box, gamma, kind):
    res = gradient_flow(seeded_start(box, 0, 0), gamma, FlowConfig())
    assert res.converged
    assert res.grad_norm <= 1e-8
    d = orbit_distance(res.field, kind, gamma).distance
    assert d < 1e-3  # measured 2.8e-5 (tanh), 4.7e-4 (coth)
    exact = closed_form_energy(StationaryState(kind, gamma))
    # Acceptance band: accepted energies never increase beyond the roundoff
    # band and never dip below the continuum minimum.
    steps = np.diff(res.energies)
    assert np.all(steps <= 1e-15 * (1.0 + np.abs(res.energies[:-1])))
    assert np.min(res.energies) > exact - 1e-9
    assert first_integral_residual(res.field) < 1e-4  # measured 1.4e-5


def test_odd_projected_flow_reaches_the_kink(box):
    res = gradient_flow(seeded_start(box, 0, 1), 1.0, FlowConfig(), odd_projection=True)
    assert res.converged
    # Odd-sector iterates: antisymmetry is preserved exactly.
    v = res.field.values
    assert np.max(np.abs(v + v[::-1])) < 1e-12
    assert orbit_distance(res.field, StateKind.KINK, 1.0).distance < 1e-3  # 4.2e-5


def test_flow_reports_non_convergence_instead_of_raising(box):
    res = gradient_flow(seeded_start(box, 0, 0), 1.0, FlowConfig(max_iters=5))
    assert not res.converged
    assert res.iterations == 5
    assert res.energies.shape == (6,)


@pytest.mark.parametrize(
    "gamma,odd", [(1.0, False), (-1.0, False), (1.0, True)], ids=["plus", "minus", "odd"]
)
def test_flow_agrees_with_the_field_api(gamma, odd):
    # The flow runs on raw arrays; its reported numbers must be exactly what
    # the public Field functions give on the returned field.
    g = make_grid(10.0, 100)
    res = gradient_flow(seeded_start(g, 3, 1), gamma, FlowConfig(max_iters=300),
                        odd_projection=odd)
    assert res.iterations > 0
    assert res.energy == energy_gamma(res.field, gamma).total
    assert res.energies[-1] == res.energy
    assert res.grad_norm == l2_norm(energy_gradient(res.field, gamma))


def test_boundary_modulus_collapse_is_detected(box):
    bad = seeded_start(box, 0, 0).values.copy()
    bad[0] = 0.0
    with pytest.raises(RuntimeError, match="boundary modulus"):
        gradient_flow(Field(box, bad), 1.0, FlowConfig(max_iters=2))


def test_seeded_starts_are_reproducible_and_bounded(box):
    a = seeded_start(box, 5, 2)
    b = seeded_start(box, 5, 2)
    c = seeded_start(box, 5, 3)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    kink = np.tanh(box.x / SQRT2)
    assert np.max(np.abs(a.values - kink)) <= 0.9 + 1e-12
    assert abs(a.values[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(a.values[-1]) == pytest.approx(1.0, abs=1e-12)


def test_minimize_report_rejects_zero_coupling(box):
    with pytest.raises(ValueError):
        minimize_report(0.0, box)


def test_minimize_report_flags_unconverged_starts(box):
    rep = minimize_report(1.0, box, n_starts=1, cfg=FlowConfig(max_iters=3))
    (start,) = rep.starts
    assert not start.converged
    assert start.basin is None
    assert np.isinf(start.distance)


def test_minimize_report_classifies_basins(box):
    # One fast start per coupling: full 10-start sweeps live in acceptance.
    rep = minimize_report(1.0, box, n_starts=1)
    assert rep.starts[0].basin is StateKind.EVEN_TANH
    exact = closed_form_energy(StationaryState(StateKind.EVEN_TANH, 1.0))
    assert rep.starts[0].energy_extrapolated == pytest.approx(exact, abs=1e-6)
    rep = minimize_report(-1.0, box, n_starts=1)
    assert rep.starts[0].basin is StateKind.EVEN_COTH
    exact = closed_form_energy(StationaryState(StateKind.EVEN_COTH, -1.0))
    assert rep.starts[0].energy_extrapolated == pytest.approx(exact, abs=1e-6)
