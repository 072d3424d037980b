"""Gradient-flow minimization: descent invariants, basins, failure flags."""

import numpy as np
import pytest

from gpdelta import variational
from gpdelta.energy import energy_gamma, energy_gradient, energy_values, orbit_distance
from gpdelta.grid import Field, build_hgamma, l2_norm, make_grid, trapezoid_weights
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


def test_stationary_start_is_a_fixed_point(box, monkeypatch):
    # With the tolerance set at the discretization residual scale the sampled
    # soliton is already converged; nothing should move.
    monkeypatch.setattr(variational, "_GRAD_TOL", 1e-3)
    b1 = eval_state(StationaryState(StateKind.EVEN_TANH, 1.0), box)
    res = gradient_flow(b1, 1.0, FlowConfig())
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
    assert res.energy > exact - 1e-9  # never below the continuum minimum
    assert first_integral_residual(res.field) < 1e-4  # measured 1.4e-5


@pytest.mark.parametrize(
    "gamma,index,odd,bound",
    # Measured 358, 391 and 64; the fixed-step flow took 10,747, 20,475 and
    # 1,898. The odd bound is about 3x its count: the flow that re-projected
    # the end modulus after every step took 278 there.
    [(1.0, 0, False, 1200), (-1.0, 0, False, 1500), (1.0, 1, True, 200)],
    ids=["plus", "minus", "odd"],
)
def test_seeded_flow_converges_in_cg_iterations(box, gamma, index, odd, bound):
    res = gradient_flow(seeded_start(box, 0, index), gamma, FlowConfig(), odd_projection=odd)
    assert res.converged
    assert res.iterations <= bound


@pytest.mark.parametrize(
    "gamma,index,odd,bound",
    # Measured after phase alignment: 2.5e-12 (plus) and 2.5e-12 (minus, whose
    # endpoints are also rotated by 3.9e-12 rad along the orbit). The odd
    # flow of a reflected start is exactly the negated flow (negation
    # commutes with every floating-point operation in it), so its gap is 0.
    [(1.0, 0, False, 2e-9), (-1.0, 0, False, 1e-7), (1.0, 1, True, 0.0)],
    ids=["plus", "minus", "odd"],
)
def test_flow_commutes_with_reflection(box, gamma, index, odd, bound):
    u0 = seeded_start(box, 0, index)
    res = gradient_flow(u0, gamma, FlowConfig(), odd_projection=odd)
    mirrored = gradient_flow(Field(box, u0.values[::-1]), gamma, FlowConfig(),
                             odd_projection=odd)
    assert res.converged and mirrored.converged
    a, b = res.field.values, mirrored.field.values[::-1]
    overlap = np.sum(trapezoid_weights(box) * np.conj(b) * a)
    gap = np.max(np.abs(a - overlap / abs(overlap) * b))
    assert gap <= bound


@pytest.mark.parametrize(
    "gamma,odd,kind",
    # Measured 103-108, 109-113 and 20-23 iterations, with orbit distances
    # 7.1e-4, 1.2e-2 and 1.1e-3. The end modulus of the box's minimizer is
    # 1 -+ 5.0e-7 (gamma = +-1) and 1 - 2.9e-6 (odd) here: a flow that pins
    # it to 1 never converges.
    [(1.0, False, StateKind.EVEN_TANH), (-1.0, False, StateKind.EVEN_COTH),
     (1.0, True, StateKind.KINK)],
    ids=["plus", "minus", "odd"],
)
@pytest.mark.parametrize("index", [0, 1, 2])
def test_flow_converges_on_a_small_box(gamma, odd, kind, index):
    g = make_grid(10.0, 100)
    res = gradient_flow(seeded_start(g, 0, index), gamma, FlowConfig(max_iters=2000),
                        odd_projection=odd)
    assert res.converged
    assert orbit_distance(res.field, kind, gamma).distance < variational.BASIN_TOL


def test_preconditioner_stays_positive_past_the_bound_state():
    # At gamma = -3 the bound state -gamma^2/4 = -2.25 makes I + 0.9 H_N
    # indefinite; unshifted, neither start converges in 2000 iterations.
    # Measured 381 and 460 iterations, both at orbit distance 7.7e-3.
    starts = minimize_report(-3.0, make_grid(20.0, 1000), n_starts=2,
                             cfg=FlowConfig(max_iters=2000))
    assert all(s.converged for s in starts)
    assert all(s.basin is StateKind.EVEN_COTH for s in starts)


@pytest.mark.parametrize("direction", ["random", "origin", "left end", "right end"])
def test_line_search_quartic_is_the_energy_along_the_direction(direction):
    # The flow's step length rests on E(u + a d) being this quartic; the unit
    # directions isolate the point term at index M and the half-weight ends.
    g = make_grid(5.0, 20)
    gamma = 1.3
    weights = trapezoid_weights(g)
    u = seeded_start(g, 2, 0).values
    rng = np.random.default_rng(7)
    d = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
    if direction != "random":
        node = {"origin": g.M, "left end": 0, "right end": -1}[direction]
        d = np.zeros(g.n_nodes, dtype=complex)
        d[node] = 0.6 - 0.8j
    coef = variational._energy_quartic(u, d, g, gamma, weights)
    e0 = energy_values(u, g, gamma, weights).total
    for alpha in (-0.7, -0.1, 0.05, 0.4, 1.3):
        exact = energy_values(u + alpha * d, g, gamma, weights).total
        assert e0 + np.polyval(coef, alpha) == pytest.approx(exact, rel=1e-12, abs=0.0)
    # Its slope at a = 0 is <g, d> in the trapezoid inner product: the flow's
    # full-row gradient is the exact gradient of the energy it descends.
    grad, _ = variational._gradient(build_hgamma(g, gamma), u, weights)
    slope = np.sum(weights * (np.conj(grad) * d).real)
    assert coef[-2] == pytest.approx(slope, rel=1e-12)


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
    assert res.grad_norm == l2_norm(energy_gradient(res.field, gamma))


@pytest.mark.parametrize(
    "gamma,index,odd", [(1.0, 0, False), (-1.0, 0, False), (1.0, 1, True)],
    ids=["plus", "minus", "odd"],
)
def test_flow_energy_never_rises_step_by_step(gamma, index, odd):
    # The flow stops after exactly max_iters steps, so running it to each k in
    # turn reads the energy after every step of the full run (measured 108,
    # 113 and 23 steps; largest relative rise 1.9e-16).
    g = make_grid(10.0, 100)
    u0 = seeded_start(g, 0, index)
    full = gradient_flow(u0, gamma, FlowConfig(), odd_projection=odd)
    assert full.converged
    start = variational._odd_part(u0.values) if odd else u0.values
    energies = np.array([energy_gamma(Field(g, start), gamma).total] + [
        gradient_flow(u0, gamma, FlowConfig(max_iters=k), odd_projection=odd).energy
        for k in range(1, full.iterations + 1)
    ])
    assert np.all(np.diff(energies) <= 1e-15 * (1.0 + np.abs(energies[:-1])))
    assert energies[-1] == full.energy


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
    (start,) = minimize_report(1.0, box, n_starts=1, cfg=FlowConfig(max_iters=3))
    assert not start.converged
    assert start.basin is None
    assert np.isinf(start.distance)


def test_minimize_report_classifies_basins(box):
    # One fast start per coupling: full 10-start sweeps live in acceptance.
    (start,) = minimize_report(1.0, box, n_starts=1)
    assert start.basin is StateKind.EVEN_TANH
    exact = closed_form_energy(StationaryState(StateKind.EVEN_TANH, 1.0))
    assert start.energy_extrapolated == pytest.approx(exact, abs=1e-6)
    (start,) = minimize_report(-1.0, box, n_starts=1)
    assert start.basin is StateKind.EVEN_COTH
    exact = closed_form_energy(StationaryState(StateKind.EVEN_COTH, -1.0))
    assert start.energy_extrapolated == pytest.approx(exact, abs=1e-6)
