"""Kernel values, the Faddeeva route, the defining integrals, and e^{-itH} by FFT.

The defining s-integrals are checked two ways: gamma_kernel_by_quadrature
integrates them along steepest-descent paths, and the real-line segmented
Gauss-Legendre route kept here uses no analyticity at all.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from gpdelta.grid import Field, l2_norm, make_grid, trapezoid_weights
from gpdelta.propagator import (
    KernelQuery,
    apply_propagator,
    attractive_split,
    g_func,
    gamma_kernel,
    gamma_kernel_by_quadrature,
    k0,
    w_erfc,
    _gamma_closed_form,
    _gl_rule,
)

# Empirical bounds frozen from sweep measurements on the grids used below.
G_SWEEP_BOUND = 1.05          # observed sup |g| = 1.012771 at (t, rho, gamma) = (1, 0, -2)
DECAY_SUP_BOUND = 1.0         # observed sup (1+x^2)|Gamma phi| = 0.447 (+1), 0.472 (-1)
SMALL_TIME_FINAL = 0.01       # observed ||Gamma(0.001) phi|| = 4.7e-3 for both signs


def relerr(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# Free kernel.


def test_k0_at_quarter_inverse_pi_is_unit_phase():
    t = 1.0 / (4.0 * math.pi)
    got = k0(t, 0.0)
    want = cmath.exp(-1j * math.pi / 4.0)
    assert isinstance(got, complex)
    assert abs(got - want) < 1e-15


def test_k0_modulus_is_flat():
    t = 0.3
    zeta = np.linspace(-7.0, 7.0, 201)
    got = np.abs(k0(t, zeta))
    want = 1.0 / math.sqrt(4.0 * math.pi * t)
    assert np.max(np.abs(got - want)) < 1e-14 * want


def test_k0_negative_time_conjugates():
    zeta = np.linspace(-3.0, 3.0, 41)
    assert np.array_equal(k0(-0.7, zeta), np.conj(k0(0.7, zeta)))


def test_k0_rejects_zero_time():
    with pytest.raises(ValueError):
        k0(0.0, 1.0)


def test_k0_spreads_gaussian():
    # Direct trapezoid sum against the analytic dispersed Gaussian.
    t, alpha = 0.5, 1.0
    y = np.linspace(-15.0, 15.0, 6001)
    h = y[1] - y[0]
    w = np.full(y.size, h)
    w[0] = w[-1] = 0.5 * h
    u0 = np.exp(-alpha * y**2)
    sigma = 1.0 + 4.0j * alpha * t
    for x in (0.0, 0.7, -2.3):
        got = np.sum(w * k0(t, x - y) * u0)
        want = np.exp(-alpha * x**2 / sigma) / np.sqrt(sigma)
        assert relerr(got, want) < 1e-10


# ---------------------------------------------------------------------------
# Faddeeva function.


def test_w_erfc_at_zero_is_one():
    assert w_erfc(0.0) == 1.0 + 0.0j


def test_w_erfc_on_imaginary_axis():
    # w(i) = e * erfc(1)
    want = math.e * math.erfc(1.0)
    assert abs(w_erfc(1j) - want) < 1e-15
    assert abs(want - 0.42758357615580700) < 1e-15


def test_w_erfc_reflection_symmetry():
    rng = np.random.default_rng(3)
    z = rng.uniform(-20, 20, 100) + 1j * rng.uniform(0, 20, 100)
    assert np.allclose(w_erfc(-np.conj(z)), np.conj(w_erfc(z)), rtol=1e-13, atol=0.0)


def test_w_erfc_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(11)
    r = 30.0 * np.sqrt(rng.uniform(0.0, 1.0, 60))
    phi = rng.uniform(0.0, 2.0 * math.pi, 60)
    zs = r * np.exp(1j * phi)
    # Keep clear of the rejected overflow wedge in the lower half plane.
    zs = zs[(zs.imag >= 0) | (zs.imag**2 - zs.real**2 <= 600.0)]
    assert zs.size >= 40
    for z in zs:
        mz = mp.mpc(z.real, z.imag)
        want = mp.exp(-mz * mz) * mp.erfc(-1j * mz)
        got = w_erfc(complex(z))
        assert abs(got - complex(want)) / abs(complex(want)) < 1e-10


def test_w_erfc_rejects_overflowing_arguments():
    with pytest.raises(ValueError):
        w_erfc(-27.0j)
    with pytest.raises(ValueError):
        w_erfc(np.array([1.0 + 1.0j, 3.0 - 30.0j]))
    # Large modulus is fine as long as the growth exponent stays moderate.
    assert np.isfinite(w_erfc(30.0 - 20.0j))


# ---------------------------------------------------------------------------
# Real-line oracle: segmented Gauss-Legendre on the defining integrals.


def _phase_edges(lo: float, hi: float, t: float, shift: float, block: int):
    """Breakpoints of (s + shift)^2/(4t) at multiples of pi inside [lo, hi].

    The phase is quadratic with vertex at s = -shift; splitting there and at
    every pi-crossing bounds the phase change per segment by pi, which a
    modest Gauss-Legendre rule resolves to machine precision. The edges come
    one side of the vertex at a time, outward from it, in runs of at most
    block + 1 points; consecutive runs share their end point. Memory is
    O(block) however many crossings the range holds.
    """
    vertex = -shift
    kmax = int(max((lo + shift) ** 2, (hi + shift) ** 2) / (4.0 * t * math.pi)) + 1
    if kmax > 3_000_000:
        raise RuntimeError(
            f"validation quadrature needs {kmax} phase crossings, above its cap of 3000000"
        )
    for side, start, end in ((-1.0, min(vertex, hi), lo), (1.0, max(vertex, lo), hi)):
        if side * (end - start) <= 0.0:
            continue  # the vertex lies beyond this end of [lo, hi]
        prev = start
        for k0 in range(1, kmax + 1, block):
            r = 2.0 * np.sqrt(t * math.pi * np.arange(k0, min(k0 + block, kmax + 1)))
            cand = vertex + side * r
            inside = cand[(cand > lo) & (cand < hi)]
            if inside.size:
                yield np.concatenate(([prev], inside))
                prev = inside[-1]
            if side * (cand[-1] - end) >= 0.0:
                break
        yield np.array([prev, end])


# Quadrature nodes evaluated at once: bounds the temporaries to about 1 MB
# each, whatever the query.
_CHUNK_NODES = 1 << 16


def _integrate_segments(f, edge_runs, reltol: float = 1e-13) -> complex:
    """Sum of Gauss-Legendre rules over the segments of edge_runs(block).

    edge_runs(block) yields runs of at most block + 1 monotone edges; each
    run's segments are integrated together.
    """

    def level(order: int) -> tuple[complex, float]:
        nodes, wts = _gl_rule(order)
        total = 0.0j
        mass = 0.0
        for edges in edge_runs(max(1, _CHUNK_NODES // order)):
            mid = 0.5 * (edges[1:, None] + edges[:-1, None])
            half = 0.5 * np.abs(np.diff(edges))[:, None]
            contrib = half * wts[None, :] * f(mid + half * nodes[None, :])
            total += complex(np.sum(contrib))
            mass += float(np.sum(np.abs(contrib)))
        return total, mass

    prev, _ = level(12)
    order = 24
    for _ in range(4):
        total, mass = level(order)
        # Heavy cancellation: the achievable accuracy is limited by roundoff
        # on the absolute mass, not by the quadrature order. Observed level
        # differences plateau near 40 eps * mass at the worst corners; the
        # factor below leaves a decade of slack without hiding real error.
        noise = 1024.0 * np.finfo(float).eps * mass
        if abs(total - prev) <= max(reltol * abs(total), noise):
            return total
        prev = total
        order *= 2
    raise RuntimeError("validation quadrature failed to stabilize")


def real_line_oracle(q: KernelQuery) -> complex:
    """Gamma(t,x,y) from the defining s-integral on the real line.

    Truncates the damped factor at e^{-|gamma| s/2} < 1e-16 and integrates the
    oscillatory remainder segment by segment. Its cost grows like 1/t, so it
    serves at moderate t only.
    """
    if q.t < 0.0:
        return real_line_oracle(KernelQuery(-q.t, q.x, q.y, q.gamma)).conjugate()
    if q.gamma == 0.0:
        return 0.0j
    t, gamma = q.t, q.gamma
    a = abs(q.x) + abs(q.y)
    ag = abs(gamma)
    s_max = 2.0 * 16.0 * math.log(10.0) / ag
    pref = cmath.exp(-1j * math.pi / 4.0) / (2.0 * math.sqrt(math.pi * t))
    shift = a if gamma > 0.0 else -a

    def f(s):
        return np.exp(-0.5 * ag * s) * pref * np.exp(1j * (s + shift) ** 2 / (4.0 * t))

    total = -(0.5 * ag) * _integrate_segments(
        f, lambda block: _phase_edges(0.0, s_max, t, shift, block))
    if gamma < 0.0:
        total += (0.5 * ag) * cmath.exp(0.25j * gamma * gamma * t) * math.exp(-0.5 * ag * a)
    return total


# ---------------------------------------------------------------------------
# Correction kernel.


def test_kernel_query_rejects_zero_time():
    with pytest.raises(ValueError):
        KernelQuery(0.0, 1.0, 1.0, 1.0)


def test_gamma_kernel_vanishes_without_interaction():
    assert gamma_kernel(KernelQuery(0.4, 1.0, -2.0, 0.0)) == 0.0j


def test_gamma_kernel_split_only_for_attractive():
    for q in (KernelQuery(0.5, 1.0, 2.0, 1.5), KernelQuery(0.5, 1.0, 2.0, 0.0),
              KernelQuery(-0.5, 1.0, 2.0, -1.5)):
        with pytest.raises(ValueError, match="split exists"):
            attractive_split(q)
    part1, part2 = attractive_split(KernelQuery(0.5, 1.0, 2.0, -1.5))
    assert part1 != 0.0 and part2 != 0.0


def test_gamma_kernel_depends_only_on_folded_distance():
    a = gamma_kernel(KernelQuery(0.3, 1.2, -0.7, -1.0))
    b = gamma_kernel(KernelQuery(0.3, -0.7, 1.2, -1.0))
    c = gamma_kernel(KernelQuery(0.3, -1.2, 0.7, -1.0))
    assert a == b == c


def test_gamma_kernel_negative_time_conjugates():
    fwd = gamma_kernel(KernelQuery(0.6, 0.4, 1.1, -2.0))
    bwd = gamma_kernel(KernelQuery(-0.6, 0.4, 1.1, -2.0))
    assert bwd == fwd.conjugate()


def test_gamma_kernel_origin_value_against_quadrature():
    q = KernelQuery(0.5, 0.0, 0.0, 1.0)
    got = gamma_kernel(q)
    want = gamma_kernel_by_quadrature(q)
    assert relerr(got, want) < 1e-8


@pytest.mark.parametrize(
    "t,x,y,gamma",
    [
        (0.5, 1.3, -0.4, 1.0),
        (0.25, 2.0, 0.7, -1.0),
        (0.8, 0.3, 0.1, -2.0),
        (0.1, 3.0, 1.0, 2.0),
        (0.33, 0.0, 0.0, -0.5),
        (0.05, 5.0, 5.0, 0.5),
        (1.0, 0.0, 0.0, -1.0),
    ],
)
def test_gamma_kernel_matches_defining_integral(t, x, y, gamma):
    q = KernelQuery(t, x, y, gamma)
    got = gamma_kernel(q)
    want = gamma_kernel_by_quadrature(q)
    assert relerr(got, want) < 1e-9
    assert relerr(want, real_line_oracle(q)) < 1e-9


def test_quadrature_reaches_small_times():
    # About 3.9e6 phase crossings on the real line; the paths need none.
    q = KernelQuery(5e-4, 5.0, 5.0, 0.5)
    assert relerr(gamma_kernel_by_quadrature(q), gamma_kernel(q)) < 1e-9


@pytest.mark.parametrize("a", [1e-6, 1e-3, 1e-2, 0.3])
@pytest.mark.parametrize("t", [1.0, 0.1])
def test_quadrature_at_small_folded_distance(t, a):
    # The path's branch points sit at |q| = a, far inside the Gaussian's
    # width sqrt(t) here; a rule uniform in q misses them by 1e-3 at a = 1e-3.
    for gamma in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
        got = gamma_kernel_by_quadrature(KernelQuery(t, a, 0.0, gamma))
        assert relerr(got, _gamma_closed_form(t, a, gamma)) < 1e-9


def test_gamma_kernel_split_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(25):
        t = 10.0 ** rng.uniform(math.log10(0.02), 0.0)
        x = rng.uniform(-10.0, 10.0)
        y = rng.uniform(-10.0, 10.0)
        gamma = rng.choice([-0.5, -1.0, -2.0])
        q = KernelQuery(t, x, y, gamma)
        total = gamma_kernel(q)
        worst = max(worst, abs(total - sum(attractive_split(q))) / abs(total))
    assert worst < 1e-10


@pytest.mark.parametrize("t,x,y,gamma", [(1e-4, 10.0, 10.0, -2.0), (1e-3, 10.0, 10.0, -1.0)])
def test_gamma_kernel_split_identity_at_small_times(t, x, y, gamma):
    q = KernelQuery(t, x, y, gamma)
    total = gamma_kernel(q)
    assert abs(total - sum(attractive_split(q))) / abs(total) < 1e-10


@pytest.mark.parametrize("t,a", [(0.5, 1e-12), (1.0, 1e-12), (1.0, 1e-9)])
def test_gamma_kernel_at_tiny_folded_distance(t, a):
    # The closed form needs no quadrature; the path rule of _descent does not
    # converge at these queries (measured errors 2.6e-16, 1.6e-15, 1.2e-15).
    q = KernelQuery(t, a, 0.0, -5.0)
    assert relerr(gamma_kernel(q), real_line_oracle(q)) < 1e-12


@pytest.mark.parametrize(
    "lo,hi,t,shift",
    [
        (0.0, 73.7, 0.3, 4.2),     # repulsive: vertex below the range
        (0.0, 73.7, 0.3, 0.0),     # vertex on the lower end
        (0.0, 36.8, 0.05, -7.5),   # attractive: vertex inside, both sides
        (0.0, 5.0, 0.1, -9.0),     # vertex beyond the upper end
    ],
)
def test_phase_edges_are_the_pi_crossings_in_bounded_runs(lo, hi, t, shift):
    vertex = -shift
    kmax = int(max((lo + shift) ** 2, (hi + shift) ** 2) / (4.0 * t * math.pi)) + 1
    r = 2.0 * np.sqrt(t * math.pi * np.arange(1, kmax + 1))
    cand = np.concatenate(([lo, hi, vertex], vertex + r, vertex - r))
    want = np.unique(cand[(cand >= lo) & (cand <= hi)])
    block = 37
    runs = list(_phase_edges(lo, hi, t, shift, block))
    assert all(2 <= run.size <= block + 1 for run in runs)
    assert all(np.all(np.diff(run) > 0) or np.all(np.diff(run) < 0) for run in runs)
    assert sum(run.size - 1 for run in runs) == want.size - 1
    assert np.array_equal(np.unique(np.concatenate(runs)), want)


def test_quadrature_memory_does_not_grow_with_crossings():
    # kernel-check --seed 113's 11th query: 3.4e6 phase crossings on the
    # real line, beyond the old oracle's cap.
    q = KernelQuery(0.0004035996452704804, 6.39334138723952, 9.706445854426786, -0.5)
    tracemalloc.start()
    try:
        got = gamma_kernel_by_quadrature(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert relerr(gamma_kernel(q), got) < 1e-9


# ---------------------------------------------------------------------------
# g profile.


def test_g_func_domain_validation():
    with pytest.raises(ValueError):
        g_func(0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        g_func(0.5, -1.0, -1.0)
    with pytest.raises(ValueError):
        g_func(0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        g_func(0.5, 1.0, 1.0)


def test_g_func_stays_bounded_on_sweep():
    sup = 0.0
    ts = np.geomspace(1e-4, 1.0, 25)
    rhos = np.concatenate([np.linspace(0.0, 2.0, 21), np.geomspace(2.0, 100.0, 20)])
    for gamma in (-0.5, -1.0, -2.0):
        for t in ts:
            for rho in rhos:
                sup = max(sup, abs(g_func(t, rho, gamma)))
    assert sup < G_SWEEP_BOUND


@pytest.mark.parametrize("gamma", [-0.5, -1.0, -2.0])
def test_g_func_decays_for_large_rho(gamma):
    assert abs(g_func(1e-4, 1e3, gamma)) < 1e-3


# ---------------------------------------------------------------------------
# Kernel application.


@pytest.fixture(scope="module")
def box():
    grid = make_grid(40.0, 4000)
    u0 = Field(grid, np.exp(-grid.x**2))
    return grid, u0


def test_apply_zero_time_returns_copy(box):
    grid, u0 = box
    out = apply_propagator(u0, 0.0, 1.0)
    assert out is not u0
    assert out.values is not u0.values
    assert np.array_equal(out.values, u0.values)


def test_apply_rejects_background_fields():
    grid = make_grid(10.0, 100)
    flat = Field(grid, np.full(grid.n_nodes, 1e-3, dtype=complex))
    with pytest.raises(ValueError):
        apply_propagator(flat, 0.1, 1.0)


@pytest.mark.parametrize(
    "t,gamma,L,M",
    [
        pytest.param(0.37, 1.0, 5.0, 250, id="0.37-1.0"),
        pytest.param(0.37, -1.0, 5.0, 250, id="0.37--1.0"),
        pytest.param(-0.2, -0.5, 5.0, 250, id="-0.2--0.5"),
        pytest.param(0.11, 0.0, 5.0, 250, id="0.11-0.0"),
        pytest.param(0.37, -1.0, 20.0, 1000, id="0.37--1.0-n2001"),
    ],
)
def test_apply_matches_dense_kernel_matrix(t, gamma, L, M):
    """The FFT convolutions (free Toeplitz part, folded Hankel part) equal the
    assembled kernel matrix applied to the trapezoid-weighted source."""
    grid = make_grid(L, M)
    x = grid.x
    w = trapezoid_weights(grid)
    vals = np.exp(-x**2) * (1.0 + 0.3j * np.sin(2 * x))
    u0 = Field(grid, vals)
    K = k0(t, x[:, None] - x[None, :])
    if gamma != 0.0:
        G = _gamma_closed_form(abs(t), np.abs(x)[:, None] + np.abs(x)[None, :], gamma)
        K = K + (np.conj(G) if t < 0 else G)
    dense = K @ (w * vals)
    fast = apply_propagator(u0, t, gamma, boundary_tol=1.0).values
    assert np.linalg.norm(fast - dense) < 1e-13 * np.linalg.norm(dense)


def test_apply_is_linear():
    grid = make_grid(5.0, 200)
    rng = np.random.default_rng(5)
    bump = np.exp(-grid.x**2)
    u = Field(grid, bump * rng.normal(size=grid.n_nodes))
    v = Field(grid, bump * (rng.normal(size=grid.n_nodes) * 1j))
    combo = Field(grid, 2.0 * u.values + (0.3 - 1.1j) * v.values)
    got = apply_propagator(combo, 0.2, -1.0, boundary_tol=1.0).values
    want = (
        2.0 * apply_propagator(u, 0.2, -1.0, boundary_tol=1.0).values
        + (0.3 - 1.1j) * apply_propagator(v, 0.2, -1.0, boundary_tol=1.0).values
    )
    assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)


def test_apply_is_deterministic(box):
    grid, u0 = box
    a = apply_propagator(u0, 0.5, -1.0)
    b = apply_propagator(u0, 0.5, -1.0)
    assert np.array_equal(a.values, b.values)


def test_apply_free_gaussian_spreading(box):
    grid, u0 = box
    t = 0.5
    out = apply_propagator(u0, t, 0.0)
    sigma = 1.0 + 4.0j * t
    want = np.exp(-grid.x**2 / sigma) / np.sqrt(sigma)
    err = l2_norm(Field(grid, out.values - want)) / l2_norm(Field(grid, want))
    assert err < 1e-10


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_apply_preserves_norm(box, gamma):
    grid, u0 = box
    out = apply_propagator(u0, 0.5, gamma)
    assert abs(l2_norm(out) - l2_norm(u0)) < 1e-4 * l2_norm(u0)


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_apply_group_law(box, gamma):
    grid, u0 = box
    mid = apply_propagator(u0, 0.2, gamma)
    # The correction kernel leaves algebraic tails ~(2t/x)^2, so the second
    # hop needs an explicit gate; truncation shows up in the rel error below.
    composed = apply_propagator(mid, 0.3, gamma, boundary_tol=1e-3)
    direct = apply_propagator(u0, 0.5, gamma)
    err = l2_norm(Field(grid, composed.values - direct.values)) / l2_norm(direct)
    assert err < 1e-4


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_apply_time_reversal_roundtrip(box, gamma):
    grid, u0 = box
    fwd = apply_propagator(u0, 0.3, gamma)
    back = apply_propagator(fwd, -0.3, gamma, boundary_tol=1e-3)
    err = l2_norm(Field(grid, back.values - u0.values)) / l2_norm(u0)
    assert err < 2e-3


def test_apply_rotates_bound_state(box):
    grid, _ = box
    from gpdelta.solitons import bound_state

    pb = bound_state(-1.0, grid)
    out = apply_propagator(pb, 1.0, -1.0)
    want = cmath.exp(0.25j) * pb.values
    err = l2_norm(Field(grid, out.values - want)) / l2_norm(pb)
    assert err < 1e-3


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_correction_output_decays_quadratically(box, gamma):
    grid, u0 = box
    full = apply_propagator(u0, 0.5, gamma)
    free = apply_propagator(u0, 0.5, 0.0)
    gpart = np.abs(full.values - free.values)
    assert float(np.max((1.0 + grid.x**2) * gpart)) < DECAY_SUP_BOUND


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_correction_vanishes_at_small_times(box, gamma):
    grid, u0 = box
    norms = []
    for t in (0.1, 0.01, 0.001):
        full = apply_propagator(u0, t, gamma)
        free = apply_propagator(u0, t, 0.0)
        norms.append(l2_norm(Field(grid, full.values - free.values)))
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < SMALL_TIME_FINAL
