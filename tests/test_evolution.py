"""Crank-Nicolson evolution: invariants, convergence orders, failure paths.

Bars sit an order of magnitude above values measured on this implementation
(noted inline) except where an exact identity or an externally fixed bound
is being checked.
"""

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from gpdelta import evolution, grid
from gpdelta.energy import nonlinear_values, orbit_distance
from gpdelta.evolution import (
    EvolveConfig,
    FixedPointError,
    evolve,
    instability_run,
    seeded_perturbation,
)
from gpdelta.grid import Field, TridiagonalLU, build_hgamma, l2_norm, make_grid
from gpdelta.propagator import apply_propagator
from gpdelta.solitons import StateKind, StationaryState, eval_state
from oracles import dinfty

B1 = StationaryState(StateKind.EVEN_TANH, 1.0)
BT1 = StationaryState(StateKind.EVEN_COTH, -1.0)


def perturbed_b1(grid):
    u = eval_state(B1, grid).values + 0.05 * np.exp(-grid.x**2) * (1.0 + 0.5j)
    return Field(grid, u)


# ---------------------------------------------------------------- config


def test_config_rejects_bad_values():
    good = dict(dt=1e-3, t_end=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        EvolveConfig(**{**good, "dt": 0.0})
    with pytest.raises(ValueError):
        EvolveConfig(**{**good, "t_end": -1.0})
    with pytest.raises(ValueError):
        EvolveConfig(**{**good, "record_every": 0})
    # 10.5 steps would silently run 10 and report t_end = 0.01.
    with pytest.raises(ValueError, match=r"t_end 0.0105 .* dt 0.001 steps \(t_end/dt = 10.5\)"):
        EvolveConfig(**{**good, "t_end": 0.0105})


def test_evolve_does_not_alias_its_input():
    g = make_grid(10.0, 100)
    u0 = Field(g, np.ones(g.n_nodes, dtype=complex))
    for t_end in (0.0, 0.1):  # no step taken, and ten
        cfg = EvolveConfig(dt=1e-2, t_end=t_end, gamma=0.0, record_every=5)
        evolve(u0, cfg).final[0] = 99.0
        assert np.all(u0.values == 1.0)


# ------------------------------------------------------------ the step


@pytest.mark.parametrize("linear", [False, True], ids=["nonlinear", "linear"])
def test_step_solves_the_cn_equation(linear):
    # dt / (2 h^2) = 2.5 > 1: a factorization that coupled the end columns
    # would pivot on row 0 and move u[0] by roundoff every step.
    g = make_grid(40.0, 2000)
    dt, gamma = 2e-3, 1.0
    u = perturbed_b1(g).values
    cfg = EvolveConfig(dt=dt, t_end=dt, gamma=gamma, linear=linear)
    nxt = evolve(Field(g, u), cfg).final
    op = build_hgamma(g, gamma)
    z = 0.5j * dt
    res = (nxt - u)[1:-1] + z * (op.interior(nxt) + op.interior(u))
    if not linear:
        res -= 1j * dt * nonlinear_values(0.5 * (u + nxt))[1:-1]
    assert np.max(np.abs(res)) <= 1e-12 * (1.0 + np.max(np.abs(u)))  # measured 2.2e-15
    assert nxt[0] == u[0] and nxt[-1] == u[-1]


@pytest.mark.parametrize("linear, solves", [(False, 2000), (True, 500)],
                         ids=["nonlinear", "linear"])
def test_solve_count_of_a_seeded_coth_run(linear, solves, monkeypatch):
    # 500 steps at four solves each, or at one when linear: a changed
    # iteration, stop rule or linear step shows here.
    calls = []
    solve = TridiagonalLU.solve

    def counting(self, b):
        calls.append(1)
        return solve(self, b)

    monkeypatch.setattr(TridiagonalLU, "solve", counting)
    g = make_grid(20.0, 1000)
    u0 = seeded_perturbation(BT1, g, seed=0)
    tr = evolve(u0, EvolveConfig(dt=2e-3, t_end=1.0, gamma=-1.0, linear=linear),
                orbit_target=BT1)
    assert len(calls) == solves
    assert tr.final[0] == u0.values[0] and tr.final[-1] == u0.values[-1]


def test_linear_solves_see_no_subnormals(monkeypatch):
    # exp(-x^2) underflows in its tails: an unshifted first right-hand side
    # holds 68 subnormal samples, and the sweep spreads them along the tails.
    rhs_seen = []
    solve = TridiagonalLU.solve

    def recording(self, b):
        rhs_seen.append(b.copy())
        return solve(self, b)

    monkeypatch.setattr(TridiagonalLU, "solve", recording)
    g = make_grid(40.0, 2000)
    dt, gamma = 1e-3, 1.0
    u0 = Field(g, np.exp(-g.x**2))
    tr = evolve(u0, EvolveConfig(dt=dt, t_end=20 * dt, gamma=gamma, linear=True))
    assert len(rhs_seen) == 20
    tiny = np.finfo(float).tiny
    for rhs in rhs_seen:
        for part in (rhs.real, rhs.imag):
            assert not np.any((part != 0.0) & (np.abs(part) < tiny))
    assert tr.final[[0, -1]].tobytes() == u0.values[[0, -1]].tobytes()

    # One step against the unshifted solve of the same matrix.
    one = evolve(u0, EvolveConfig(dt=dt, t_end=dt, gamma=gamma, linear=True)).final
    op, z = build_hgamma(g, gamma), 0.5j * dt
    off = np.full(g.n_nodes - 1, z * op.off_diagonal)
    off[0] = off[-1] = 0.0
    diag = np.ones(g.n_nodes, dtype=complex)
    diag[1:-1] += z * op.diagonal[1:-1]
    base = u0.values.copy()
    base[1] -= z * op.off_diagonal * base[0]
    base[-2] -= z * op.off_diagonal * base[-1]
    plain = 2.0 * solve(TridiagonalLU(off, diag, off), base.copy()) - u0.values
    assert np.max(np.abs(one - plain)) <= 1e-15  # measured 4.8e-271


def _whole_rhs_step(g, cfg, u, prev):
    """The step on all n samples: identity end rows, each right-hand side built whole.

    The ends' coupling is moved into rows 1 and n-2, and F is zeroed on the end
    rows, so rows 0 and n-1 of the solution are u's end samples.
    """
    op, z = build_hgamma(g, cfg.gamma), 0.5j * cfg.dt
    off = np.full(g.n_nodes - 1, z * op.off_diagonal)
    off[0] = off[-1] = 0.0
    diag = np.ones(g.n_nodes, dtype=complex)
    diag[1:-1] += z * op.diagonal[1:-1]
    lu = TridiagonalLU(off, diag, off)
    base = u.copy()
    if cfg.linear:
        c = np.full(g.n_nodes, evolution._SHIFT * (1.0 + 1.0j))
        c[0] = c[-1] = 0.0
        ac = diag * c
        ac[:-1] += off * c[1:]
        ac[1:] += off * c[:-1]
        base += ac
    base[1] -= z * op.off_diagonal * u[0]
    base[-2] -= z * op.off_diagonal * u[-1]
    if cfg.linear:
        w = lu.solve(base.copy())
        w[1:-1] -= evolution._SHIFT * (1.0 + 1.0j)
        return 2.0 * w - u
    w = 1.5 * u - 0.5 * prev
    tol = evolution._FP_TOL * (1.0 + float(np.max(np.abs(u))))
    for _ in range(evolution._FP_MAX_ITER):
        f = nonlinear_values(w)
        f[0] = f[-1] = 0.0
        new = lu.solve(base + z * f)
        residual = 2.0 * float(np.max(np.abs(new - w)))
        w = new
        if residual <= tol:
            return 2.0 * w - u
    raise AssertionError("the reference step did not converge")


@pytest.mark.parametrize("M", [20, 2000], ids=["unsplit-41", "split-4001"])
@pytest.mark.parametrize("linear", [False, True], ids=["nonlinear", "linear"])
def test_interior_step_matches_the_whole_rhs_step_bit_for_bit(linear, M, monkeypatch):
    # The interior step, its ends given once, against the step on all n samples.
    monkeypatch.setattr(grid, "_usable_cores", lambda: 2)
    g = make_grid(M / 50.0, M)
    dt = 2e-3
    cfg = EvolveConfig(dt=dt, t_end=dt, gamma=1.0, linear=linear)
    prev = perturbed_b1(g).values
    cn = evolution._CrankNicolson(g, cfg, prev[[0, -1]])
    assert cn._lu._split is not None if M == 2000 else cn._lu._split is None
    u = evolve(Field(g, prev), cfg).final
    want = _whole_rhs_step(g, cfg, u, prev)
    assert want[[0, -1]].tobytes() == u[[0, -1]].tobytes()
    assert cn.step(u[1:-1], prev[1:-1], 2 * dt).tobytes() == want[1:-1].tobytes()


# ------------------------------------------------------------ invariants


def test_constant_background_is_stationary_without_delta():
    # u = 1, gamma = 0: both H u and F(u) vanish identically.
    g = make_grid(20.0, 400)
    cfg = EvolveConfig(dt=1e-2, t_end=1.0, gamma=0.0, record_every=10)
    tr = evolve(Field(g, np.ones(g.n_nodes, dtype=complex)), cfg)
    assert np.max(np.abs(tr.final - 1.0)) < 1e-12  # measured 1.9e-14


def test_phase_rotation_commutes_with_the_flow():
    g = make_grid(40.0, 1000)
    u0 = perturbed_b1(g)
    cfg = EvolveConfig(dt=1e-3, t_end=0.1, gamma=1.0)
    ref = evolve(u0, cfg).final
    rot = evolve(Field(g, np.exp(0.7j) * u0.values), cfg).final
    assert np.max(np.abs(rot - np.exp(0.7j) * ref)) < 1e-12  # measured 1.5e-14


def _coth_run(u, n_steps):
    # Criterion 8's grid and step; records only at the ends.
    cfg = EvolveConfig(dt=2e-3, t_end=n_steps * 2e-3, gamma=-1.0, record_every=n_steps)
    return evolve(Field(make_grid(40.0, 2000), u), cfg).final


@pytest.fixture(scope="module")
def coth_start():
    return seeded_perturbation(BT1, make_grid(40.0, 2000), seed=3, target_d0=0.04).values


@pytest.mark.parametrize(
    "n_steps,bound",
    # Reversing time is complex conjugation and the midpoint rule is
    # symmetric, so the round trip returns u up to the fixed-point tolerance.
    # Measured 2.8e-15 and 5.6e-13; bounds about 10x.
    [(1, 3e-14), (500, 6e-12)],
    ids=["one step", "500 steps"],
)
def test_conjugated_run_retraces_the_flow(coth_start, n_steps, bound):
    back = np.conj(_coth_run(np.conj(_coth_run(coth_start, n_steps)), n_steps))
    assert np.max(np.abs(back - coth_start)) <= bound


def test_reflection_commutes_with_the_flow(coth_start):
    # The grid and the delta are symmetric about x = 0. Measured 3.6e-13
    # after 500 steps, in which u moves by 1.6e-2; bound about 10x.
    ref = _coth_run(coth_start, 500)
    mirrored = _coth_run(coth_start[::-1].copy(), 500)[::-1]
    assert np.max(np.abs(mirrored - ref)) <= 4e-12


def test_record_grid_is_consistent():
    g = make_grid(20.0, 400)
    cfg = EvolveConfig(dt=1e-3, t_end=0.55, gamma=1.0, record_every=100)
    tr = evolve(Field(g, np.ones(g.n_nodes, dtype=complex)), cfg)
    assert tr.times[0] == 0.0
    assert tr.times[-1] == pytest.approx(0.55)
    assert np.all(np.diff(tr.times) > 0)
    assert tr.energy_trace.shape == tr.times.shape
    assert tr.final.shape == (g.n_nodes,)


def test_linear_flow_preserves_the_l2_norm():
    # Cayley transform of a symmetric tridiagonal matrix is exactly unitary.
    # A linear step ignores the predictor guess, so ten hops of 10 steps are
    # the 100-step run, with its field at every hop's end.
    g = make_grid(40.0, 1000)
    u0 = Field(g, np.exp(-g.x**2) * (1.0 + 0.3j))
    hop = EvolveConfig(dt=1e-3, t_end=0.01, gamma=1.0, linear=True, record_every=10)
    u = u0
    norms = [l2_norm(u0)]
    for _ in range(10):
        u = Field(g, evolve(u, hop).final)
        norms.append(l2_norm(u))
    whole = EvolveConfig(dt=1e-3, t_end=0.1, gamma=1.0, linear=True, record_every=10)
    assert np.array_equal(u.values, evolve(u0, whole).final)
    norms = np.array(norms)
    assert np.max(np.abs(norms - norms[0])) / norms[0] < 1e-9  # measured 2.1e-14


def test_energy_is_conserved_at_fine_dt():
    g = make_grid(40.0, 4000)
    u0 = perturbed_b1(g)
    cfg = EvolveConfig(dt=1e-3, t_end=10.0, gamma=1.0, record_every=500)
    tr = evolve(u0, cfg)
    drift = np.max(np.abs(tr.energy_trace - tr.energy_trace[0]))
    assert drift / abs(tr.energy_trace[0]) < 1e-10  # measured 3.8e-13


def test_energy_drift_shrinks_quadratically_in_dt():
    # At dt fine enough to hide the law in roundoff the ratio is meaningless,
    # so probe at coarse dt where the midpoint error is visible.
    g = make_grid(40.0, 4000)
    u0 = perturbed_b1(g)
    drifts = {}
    for dt in (0.05, 0.025):
        cfg = EvolveConfig(dt=dt, t_end=10.0, gamma=1.0, record_every=20)
        tr = evolve(u0, cfg)
        drifts[dt] = np.max(np.abs(tr.energy_trace - tr.energy_trace[0]))
    ratio = drifts[0.05] / drifts[0.025]
    assert drifts[0.05] / 0.36 < 2e-6  # measured 2.1e-7 relative
    assert 2.5 < ratio < 6.5  # measured 3.97


def test_evolve_memory_does_not_grow_with_the_records():
    # Each record keeps two floats; a kept field per record would be 32 KiB
    # each here, 12.5 MiB over these 400 records.
    g = make_grid(20.0, 1000)
    cfg = EvolveConfig(dt=1e-3, t_end=0.4, gamma=1.0, record_every=1)
    u0 = perturbed_b1(g)
    tracemalloc.start()
    try:
        tr = evolve(u0, cfg, orbit_target=B1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.times.size == 401 and tr.orbit_trace.size == 401
    assert peak < 2 * 2**20


# ------------------------------------------------------- soliton dynamics


def test_even_soliton_is_numerically_stationary():
    # Discretization error of the profile is O(h^2); the sup-distance after
    # 1000 steps must drop fourfold per halving and pass 1e-6 at h = 0.0025.
    cfg = EvolveConfig(dt=1e-3, t_end=1.0, gamma=1.0, record_every=1000)
    final = {}
    for M in (4000, 8000, 16000):
        g = make_grid(40.0, M)
        b = eval_state(B1, g)
        tr = evolve(b, cfg)
        final[M] = dinfty(Field(g, tr.final), b)
    assert 3.2 < final[4000] / final[8000] < 4.8  # measured 4.00
    assert final[16000] < 1e-6  # measured 6.1e-7


def test_small_perturbations_drift_continuously_with_their_size():
    # Final distance from the unperturbed run must scale linearly in eps.
    g = make_grid(40.0, 4000)
    b = eval_state(B1, g)
    bump = np.exp(-(g.x - 1.0) ** 2) * (1.0 + 1.0j)
    cfg = EvolveConfig(dt=1e-3, t_end=1.0, gamma=1.0, record_every=1000)
    ref = evolve(b, cfg).final
    finals = {}
    for eps in (0.02, 0.01):
        u0 = Field(g, b.values + eps * bump)
        out = evolve(u0, cfg).final
        finals[eps] = dinfty(Field(g, out), Field(g, ref))
    ratio = finals[0.02] / finals[0.01]
    assert 1.5 < ratio < 3.0  # measured 2.001


# ------------------------------------- cross-check against the kernel code


def test_linear_evolution_matches_kernel_without_delta():
    # gamma = 0 removes the scattering transient; CN and the explicit free
    # kernel then agree to the smooth O(dt^2, h^2) level.
    g = make_grid(40.0, 4000)
    u0 = Field(g, 1.0 + 0.4 * np.exp(-g.x**2) * (1.0 + 0.2j))
    v0 = Field(g, u0.values - 1.0)
    cfg = EvolveConfig(dt=2e-4, t_end=0.5, gamma=0.0, linear=True, record_every=2500)
    cn = evolve(v0, cfg).final
    ker = apply_propagator(v0, 0.5, 0.0).values
    rel = np.sqrt(np.sum(np.abs(cn - ker) ** 2) / np.sum(np.abs(ker) ** 2))
    assert rel < 2e-4  # measured 4.3e-5


def test_cn_kernel_gap_with_delta_stays_at_its_pinned_scale():
    # With gamma != 0 an initial state outside the domain of H_gamma breaks
    # the jump condition, so at t = 0+ the defect radiates a k^-2 spectral
    # tail. The gap to the whole-line kernel has two parts:
    # - the box: the fast part of the tail leaves [-40, 40] on the whole line
    #   but the clamped ends reflect it, so even the exact clamped-box flow
    #   (Robin-Dirichlet eigenfunction expansion) is 1.151e-3 from the kernel
    #   for exp(-x^2) at L = 40, t = 0.5 (4.07e-4 at L = 80, 3.26e-3 at L = 20);
    # - the stepper: CN converges to that box flow at fractional order.
    #   For exp(-x^2) at h = 0.005 it is 3.05e-3 from the box flow at
    #   dt = 1e-4 and 2.80e-3 at dt = 2.5e-5, at any of L = 20, 40, 80;
    #   at dt = 1e-4 it is 2.36e-3 and 2.15e-3 at h = 0.0025 and 0.00125.
    # Order study, exp(-x^2), gamma = 1, t = 0.5, CN against the kernel:
    # - dt = 1e-4, L = 40: 2.87e-3, 1.94e-3, 1.67e-3 at h = 0.005, 0.0025,
    #   0.00125;
    # - dt = 1e-4, h = 0.005: 3.29e-3, 2.87e-3, 3.02e-3 at L = 20, 40, 80.
    # This packet at h = 0.01, dt = 2e-4 is 4.94e-3 from its exact box flow.
    # Pin the scale so a regression (or a fix) shows up as a hard failure here.
    g = make_grid(40.0, 4000)
    v0 = Field(g, 0.4 * np.exp(-g.x**2) * (1.0 + 0.2j))
    cfg = EvolveConfig(dt=2e-4, t_end=0.5, gamma=1.0, linear=True, record_every=2500)
    cn = evolve(v0, cfg).final
    ker = apply_propagator(v0, 0.5, 1.0).values
    rel = np.sqrt(np.sum(np.abs(cn - ker) ** 2) / np.sum(np.abs(ker) ** 2))
    assert 3e-3 < rel < 7e-3  # measured 4.79e-3


# ----------------------------------------------------------- failure paths


def test_fixed_point_error_carries_diagnostics(monkeypatch):
    g = make_grid(40.0, 1000)
    u0 = perturbed_b1(g)
    monkeypatch.setattr(evolution, "_FP_TOL", 1e-14)
    monkeypatch.setattr(evolution, "_FP_MAX_ITER", 1)
    cfg = EvolveConfig(dt=1e-2, t_end=1e-2, gamma=1.0)
    with pytest.raises(FixedPointError) as exc:
        evolve(u0, cfg)
    assert exc.value.iterations == 1
    assert exc.value.residual > 1e-14
    assert exc.value.time == pytest.approx(1e-2)
    assert str(exc.value).startswith("step to t=0.01 failed: midpoint iteration stalled")


def test_divergent_step_stops_at_its_first_non_finite_residual():
    # dt = 5 overflows the midpoint iterate within the first step; iterating
    # on NaN to the cap would report residual nan and hide where it broke.
    g = make_grid(10.0, 100)
    u0 = seeded_perturbation(B1, g, seed=1, target_d0=0.3)
    with pytest.raises(FixedPointError) as exc:
        evolve(u0, EvolveConfig(dt=5.0, t_end=20.0, gamma=1.0))
    err = exc.value
    assert 0 < err.iterations < evolution._FP_MAX_ITER  # measured 11
    assert math.isfinite(err.residual) and err.residual > 1.0  # measured 3.3e140
    assert err.time == 5.0
    assert "midpoint iteration diverged" in str(err)
    assert (f"non-finite at iteration {err.iterations + 1}; last finite residual "
            f"{err.residual:.2e} at iteration {err.iterations})") in str(err)


def test_fixed_point_error_survives_pickling():
    err = pickle.loads(pickle.dumps(FixedPointError("m", 1.0, 3, 0.5)))
    assert type(err) is FixedPointError
    assert str(err) == "m"
    assert (err.residual, err.iterations, err.time) == (1.0, 3, 0.5)


def test_instability_run_validates_inputs():
    g = make_grid(40.0, 1000)
    direction = Field(g, np.exp(-g.x**2) + 0j)  # not unit norm
    unit = Field(g, direction.values / l2_norm(direction))
    cfg = EvolveConfig(dt=1e-3, t_end=0.1, gamma=1.0)
    # The run evolves at cfg.gamma, so that is the coupling it checks.
    with pytest.raises(ValueError, match="repulsive case"):
        instability_run(1e-4, unit, EvolveConfig(dt=1e-3, t_end=0.1, gamma=-1.0))
    with pytest.raises(ValueError, match="normalized"):
        instability_run(1e-4, direction, cfg)
    with pytest.raises(ValueError, match="eps must be positive, got 0"):
        instability_run(0.0, unit, cfg)


def test_odd_perturbations_do_not_grow():
    # The unstable mode of the gamma > 0 even soliton is even; odd data keeps
    # the run inside the symmetry sector where no growth window exists.
    g = make_grid(40.0, 2000)
    odd = g.x * np.exp(-0.5 * g.x**2) * (1.0 + 0.3j)
    odd /= np.sqrt(np.sum(np.abs(odd) ** 2) * g.h)
    cfg = EvolveConfig(dt=1e-3, t_end=2.0, gamma=1.0, record_every=100)
    res = instability_run(1e-4, Field(g, odd), cfg)
    assert res.rate is None
    assert res.window_points == 0
    assert np.max(res.trajectory.orbit_trace) < 1e-3  # measured 2.5e-4


def test_the_kink_oscillates_below_the_fit_window_only_on_a_fine_grid():
    # The sampled kink is no discrete steady state: its own d0 oscillates up to
    # 0.147 h^2 over t <= 3 (1.47e-3 at h = 0.1, 1.47e-5 at h = 0.01). At h = 0.1
    # that reaches the floor of the default eps's fit window, and the fitted rate
    # comes out half the spectral one; at h = 0.01 it stays a decade below.
    kink = StationaryState(StateKind.KINK, 1.0)
    floor = evolution.FIT_FLOOR * 1e-4  # instability's default eps
    peak = {}
    for h, dt in ((0.1, 0.01), (0.01, 1e-3)):
        g = make_grid(10.0, round(10.0 / h))
        cfg = EvolveConfig(dt=dt, t_end=3.0, gamma=1.0, record_every=10)
        peak[h] = np.max(evolve(eval_state(kink, g), cfg, orbit_target=kink).orbit_trace)
        assert 0.1 * h**2 < peak[h] < 0.2 * h**2
    assert peak[0.1] > floor and peak[0.01] < 0.1 * floor


# ------------------------------------------------------------ seeded starts


@pytest.mark.parametrize("state", [B1, BT1], ids=["tanh", "coth"])
def test_seeded_perturbations_land_on_the_requested_distance(state):
    g = make_grid(40.0, 2000)
    for seed in range(3):
        u = seeded_perturbation(state, g, seed=seed, target_d0=0.04)
        d = orbit_distance(u, state.kind, state.gamma).distance
        assert d == pytest.approx(0.04, rel=1e-4)


def test_seeded_perturbation_keeps_soliton_boundary_values():
    g = make_grid(40.0, 2000)
    u = seeded_perturbation(B1, g, seed=0)
    b = eval_state(B1, g)
    assert u.values[0] == b.values[0]
    assert u.values[-1] == b.values[-1]


def test_seeded_perturbation_is_deterministic_per_seed():
    g = make_grid(40.0, 2000)
    a = seeded_perturbation(B1, g, seed=7)
    b = seeded_perturbation(B1, g, seed=7)
    c = seeded_perturbation(B1, g, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
