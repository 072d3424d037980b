"""End-to-end acceptance suite: one test, and one verdict line, per shipped
guarantee.

Each test measures its quantities, prints a single CRITERION line with the
numbers, then asserts the contractual bounds (and the runtime budget where one
is part of the contract). Criteria 1-3 and 6-9 run the shipped subcommand
through `gpdelta.cli.main`, at its defaults wherever they match the
criterion, and read its report.json; a CSV is read only for a column the
report lacks. Criteria 4, 5 and 10 call the library, because no subcommand
computes what they check.

The criterion-4 scheme-vs-kernel identity runs on packets that satisfy the
jump condition u'(0+) - u'(0-) = gamma u(0), one per coupling. The two routes
solve different problems: `evolve` is the flow of H_gamma on [-L, L] with
clamped ends, `apply_propagator` the flow on the whole line. They agree only
while nothing reaches the box edge. A packet outside the domain of H_gamma,
such as exp(-x^2), sheds a spectral tail decaying like k^-2 at t = 0+; its
|k| >~ 40 part moves at speed 2|k| >= 80, leaves [-40, 40] before t = 0.5
and is reflected back in. For exp(-x^2) at L = 40 the exact clamped-box
flow (a Robin-Dirichlet eigenfunction expansion) is 1.151e-3 from the
kernel, above the 1e-3 bound, so no clamped-box scheme can meet the bound on
that packet; Crank-Nicolson at h = 0.005, dt = 1e-4 is a further 3.05e-3 from
that exact box flow. The norm and group-law checks keep exp(-x^2), and the
evolution suite pins the out-of-domain gap as a regression fixture.
"""

import csv
import math
import time

import mpmath
import numpy as np
import pytest

from conftest import run
from gpdelta.energy import energy_gamma, energy_gradient
from gpdelta.evolution import EvolveConfig, build_hgamma, evolve, instability_run
from gpdelta.grid import Field, l2_norm, make_grid, trapezoid_weights
from gpdelta.propagator import apply_propagator, w_erfc
from gpdelta.solitons import (
    StateKind,
    StationaryState,
    bound_state,
    closed_form_energy,
    eval_state,
    eval_state_derivative,
    families,
)
from gpdelta.spectra import EDGE_LMINUS, Which, build_lpm, eigs_below

GAMMAS = (0.5, 1.0, 2.0, -0.5, -1.0, -2.0)
SQRT2 = math.sqrt(2.0)


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def results(out, *argv) -> dict:
    """The results block of one subcommand's report.json."""
    return run(out, *argv)[0]["results"]


def csv_column(path, column: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


@pytest.fixture(scope="module")
def energy_table(tmp_path_factory):
    """energy-table on its pinned L=40, h=0.005 grid, run once for criteria 1 and 2."""
    t0 = time.perf_counter()
    res = results(tmp_path_factory.mktemp("energy"), "energy-table")
    rows = {(r["gamma"], r["family"]): {k: r[k]["value"] for k in
                                        ("closed_form", "discrete", "extrapolated")}
            for r in res["rows"]}
    return res["max_abs_error"]["value"], rows, time.perf_counter() - t0


def test_criterion_01_closed_form_energy_table(energy_table):
    dev_extrap, table, elapsed = energy_table
    dev_raw = max(abs(r["discrete"] - r["closed_form"]) for r in table.values())
    # Ten-digit spots frozen from an independent high-precision evaluation of
    # the energy integrals.
    spot_tanh = table[(1.0, "even_tanh")]["closed_form"]
    spot_coth = table[(-1.0, "even_coth")]["closed_form"]
    ok = dev_extrap < 1e-6 and elapsed < 5.0
    verdict(1, ok, f"max |E_h - E| = {dev_extrap:.2e} extrapolated, "
                   f"{dev_raw:.2e} raw, over {len(table)} rows; {elapsed:.2f} s")
    assert abs(spot_tanh - 0.3594757082) < 1e-9
    assert abs(spot_coth - (-0.7238576251)) < 1e-9
    assert dev_extrap < 1e-6
    assert elapsed < 5.0


def test_criterion_02_energy_orderings(energy_table):
    _, table, _ = energy_table
    gammas = sorted({gamma for gamma, _ in table})
    ok = len(gammas) == 6
    for col in ("closed_form", "extrapolated"):
        for gamma in gammas:
            kink = table[(gamma, "kink")][col]
            tanh = table[(gamma, "even_tanh")][col]
            if gamma > 0.0:
                ok = ok and tanh < kink
            else:
                coth = table[(gamma, "even_coth")][col]
                ok = ok and coth < kink < tanh
    verdict(2, ok, "strict orderings hold in closed-form and discrete tables, "
                   f"{len(gammas)} couplings")
    assert ok


def test_criterion_03_kernel_against_defining_integrals(tmp_path):
    t0 = time.perf_counter()
    res = results(tmp_path, "kernel-check", "--seed", "3")
    max_rel = res["max_rel_error"]["value"]
    max_split = res["max_split_error"]["value"]
    elapsed = time.perf_counter() - t0
    ok = max_rel < 1e-7 and max_split < 1e-10 and elapsed < 30.0
    verdict(3, ok, f"{res['n_queries']} queries: rel {max_rel:.2e}, split {max_split:.2e}; "
                   f"{elapsed:.1f} s")
    assert max_rel < 1e-7
    assert max_split < 1e-10
    assert elapsed < 30.0


def test_criterion_04_propagator_identity_norm_group_law():
    grid = make_grid(40.0, 8000)
    u0 = Field(grid, np.exp(-grid.x**2) + 0.0j)
    norm0 = l2_norm(u0)
    worst_identity = 0.0
    worst_norm = 0.0
    worst_group = 0.0
    for gamma in (1.0, -1.0):
        # u'(0+/-) = +/-gamma/2 and u(0) = 1: the packet lies in the domain of
        # H_gamma, so no defect transient radiates out to the clamped ends
        # (see the module docstring for the exp(-x^2) box floor).
        packet = Field(grid, np.exp(-grid.x**2)
                       * (1.0 + 0.5 * gamma * np.abs(grid.x)) + 0.0j)
        cfg = EvolveConfig(dt=1e-4, t_end=0.5, gamma=gamma, linear=True,
                           record_every=5000)
        cn = evolve(packet, cfg).final
        exact = apply_propagator(packet, 0.5, gamma).values
        gap = np.sqrt(np.sum(np.abs(cn - exact) ** 2) / np.sum(np.abs(exact) ** 2))
        worst_identity = max(worst_identity, gap)
        ker = apply_propagator(u0, 0.5, gamma)
        worst_norm = max(worst_norm, abs(l2_norm(ker) - norm0) / norm0)
        # The first hop's correction kernel leaves algebraic tails near 6e-5
        # at the box edge; admit them on the second hop, they are part of the
        # field and far below the group-law bound.
        two_hop = apply_propagator(
            apply_propagator(u0, 0.2, gamma), 0.3, gamma, boundary_tol=1e-3
        )
        rel = l2_norm(Field(grid, two_hop.values - ker.values)) / l2_norm(ker)
        worst_group = max(worst_group, rel)
    ok = worst_identity < 1e-3 and worst_norm < 1e-4 and worst_group < 1e-4
    verdict(4, ok, f"scheme-vs-kernel {worst_identity:.2e} on jump-compatible "
                   "packets (bound 1e-3), "
                   f"norm {worst_norm:.2e}, group law {worst_group:.2e}")
    assert worst_norm < 1e-4
    assert worst_group < 1e-4
    assert worst_identity < 1e-3  # measured 2.09e-5 (gamma=+1), 3.36e-5 (gamma=-1)


def test_criterion_05_bound_state_rotation_and_eigenvalue():
    grid = make_grid(40.0, 4000)
    psi = bound_state(-1.0, grid)
    rotated = apply_propagator(psi, 1.0, -1.0)
    target = np.exp(0.25j) * psi.values
    rel = np.sqrt(np.sum(np.abs(rotated.values - target) ** 2)) / l2_norm(psi)

    op = build_hgamma(grid, -1.0)
    diag = op.diagonal[1:-1]
    off = np.full(diag.size - 1, op.off_diagonal)
    from scipy.linalg import eigh_tridiagonal
    lowest = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                              eigvals_only=True)[0]
    ok = rel < 1e-3 and abs(lowest + 0.25) < 2e-3
    verdict(5, ok, f"phase rotation rel {rel:.2e}; lowest eigenvalue "
                   f"{lowest:.6f} vs -0.25")
    assert rel < 1e-3
    assert abs(lowest + 0.25) < 2e-3


def test_criterion_06_spectral_table(tmp_path):
    t0 = time.perf_counter()
    ground = results(tmp_path, "spectrum", "--gamma", "0")["lminus_eigs"][0]["value"]

    counts_ok = True
    for gamma in GAMMAS:
        rep = results(tmp_path, "spectrum", f"--gamma={gamma:g}")
        counts_ok = counts_ok and rep["n_neg_plus"] == (0 if gamma > 0.0 else 1)

    pts = [p["lambda1"]["value"] for p in
           results(tmp_path, "lambda-curve", "--gammas=-0.01,0.01")["points"]]
    slope = (pts[1] - pts[0]) / 0.02
    elapsed = time.perf_counter() - t0
    ok = (abs(ground + 0.5) < 5e-4 and counts_ok
          and abs(slope - 0.5303) < 1e-2 and elapsed < 60.0)
    verdict(6, ok, f"ground {ground:.6f} vs -0.5; counts "
                   f"{'ok' if counts_ok else 'WRONG'}; slope {slope:.4f}; "
                   f"{elapsed:.1f} s")
    assert abs(ground + 0.5) < 5e-4
    assert counts_ok
    assert abs(slope - 0.5303) < 1e-2
    assert elapsed < 60.0


def test_criterion_07_linear_instability_rate(tmp_path):
    t0 = time.perf_counter()
    res = results(tmp_path, "instability", "--gamma", "1")
    mu_min = res["mu_min"]["value"]
    assert mu_min < 0.0
    lam = res["growth_rate"]["value"]
    rate = res["fitted_rate"]["value"]
    rel_dev = res["rel_deviation"]["value"] if rate is not None else math.inf

    grid = make_grid(30.0, 3000)
    odd = grid.x * np.exp(-0.5 * grid.x**2) * (1.0 + 0.3j)
    odd /= np.sqrt(np.sum(np.abs(odd) ** 2) * grid.h)
    odd_cfg = EvolveConfig(dt=1e-3, t_end=2.0, gamma=1.0, record_every=100)
    odd_run = instability_run(1e-4, Field(grid, odd), odd_cfg)
    elapsed = time.perf_counter() - t0
    ok = (rel_dev < 0.10 and odd_run.rate is None and odd_run.window_points == 0
          and elapsed < 300.0)
    verdict(7, ok, f"mu_min {mu_min:.5f}, spectral rate {lam:.6f}, "
                   f"fitted {rate if rate else math.nan:.6f} "
                   f"(dev {rel_dev:.1%}); odd growth window "
                   f"{odd_run.window_points} points; {elapsed:.0f} s")
    assert rel_dev < 0.10
    assert odd_run.rate is None and odd_run.window_points == 0
    assert elapsed < 300.0


def test_criterion_08_orbital_stability_sweeps(tmp_path):
    t0 = time.perf_counter()
    worst_sup = 0.0
    worst_drift = 0.0
    d0_initial = []
    for gamma, family in ((1.0, "even_tanh"), (-1.0, "even_coth")):
        res = results(tmp_path, "stability-sweep", f"--gamma={gamma:g}", "--record-every", "50")
        assert res["family"] == family
        d0_initial += csv_column(tmp_path / "stability-sweep" / "sweep.csv", "d0_initial")
        worst_sup = max(worst_sup, res["max_sup_d0"]["value"])
        worst_drift = max(worst_drift, res["max_energy_drift"]["value"])
    elapsed = time.perf_counter() - t0
    ok = worst_sup < 0.5 and worst_drift < 1e-6 and elapsed < 600.0
    verdict(8, ok, f"{len(d0_initial)} seeded runs to t = 50: sup d0 {worst_sup:.3f} "
                   f"(bound 0.5), energy drift {worst_drift:.1e}; {elapsed:.0f} s")
    assert len(d0_initial) == 20
    assert all(d <= 0.05 for d in d0_initial)
    assert worst_sup < 0.5
    assert worst_drift < 1e-6
    assert elapsed < 600.0


def test_criterion_09_gradient_flow_basins(tmp_path):
    t0 = time.perf_counter()
    summary = []
    ok = True
    for gamma, kind, odd in ((1.0, StateKind.EVEN_TANH, False),
                             (-1.0, StateKind.EVEN_COTH, False),
                             (1.0, StateKind.KINK, True), (-1.0, StateKind.KINK, True)):
        flags = ["--odd", "--n-starts", "3"] if odd else []
        n_starts = 3 if odd else 10
        res = results(tmp_path, "minimize", f"--gamma={gamma:g}", *flags)
        exact = closed_form_energy(StationaryState(kind, gamma))
        hits = res["basins"].get(kind.value, 0)
        # A NaN distance (an unconverged start) fails the bound, as an infinite one does.
        dist = csv_column(tmp_path / "minimize" / "starts.csv", "distance")
        emax = max(abs(s["energy_extrapolated"]["value"] - exact) for s in res["starts"])
        ok = ok and hits == n_starts and all(d < 1e-3 for d in dist) and emax < 1e-6
        summary.append(f"{'odd' if odd else 'gamma'} {gamma:+g}: {hits}/{n_starts} "
                       f"{kind.value}, d {max(dist):.1e}, dE {emax:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    verdict(9, ok, "; ".join(summary) + f"; {elapsed:.0f} s")
    assert ok


def test_criterion_10_numerical_hygiene():
    # Gradient vs centered finite differences along random directions.
    grid = make_grid(20.0, 400)
    rng = np.random.default_rng(11)
    u0 = np.tanh(grid.x / SQRT2) + 0.2 * (
        rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)
    )
    grad = energy_gradient(Field(grid, u0), 1.3)
    fd_rel = 0.0
    for seed in range(3):
        w = np.random.default_rng(seed).normal(size=(2, grid.n_nodes))
        wc = w[0] + 1j * w[1]
        wc[0] = wc[-1] = 0.0
        eps = 1e-5
        ep = energy_gamma(Field(grid, u0 + eps * wc), 1.3).total
        em = energy_gamma(Field(grid, u0 - eps * wc), 1.3).total
        fd = (ep - em) / (2.0 * eps)
        exact = np.sum(trapezoid_weights(grid) * grad.values * np.conj(wc)).real
        fd_rel = max(fd_rel, abs(fd - exact) / abs(exact))

    # First integral of the closed-form profiles, evaluated with the exact
    # derivative formula: (u')^2/2 - (1-u^2)^2/4 vanishes identically on each
    # half line. The even profiles have a derivative corner at x = 0 where
    # only one-sided values satisfy it, so that single node is excluded.
    fi_res = 0.0
    fine = make_grid(40.0, 4000)
    off_origin = fine.x != 0.0
    for gamma in (1.0, -1.0):
        for kind in families(gamma):
            state = StationaryState(kind, gamma)
            u = eval_state(state, fine).values.real[off_origin]
            du = eval_state_derivative(state, fine).values.real[off_origin]
            fi_res = max(fi_res, float(np.max(np.abs(
                0.5 * du**2 - 0.25 * (1.0 - u**2) ** 2
            ))))

    # Faddeeva evaluation against a 30-digit oracle on 200 points.
    mpmath.mp.dps = 30
    rng = np.random.default_rng(12)
    pts = []
    while len(pts) < 200:
        z = complex(rng.uniform(-25.0, 25.0), rng.uniform(-15.0, 25.0))
        if z.imag >= 0.0 or z.imag**2 - z.real**2 <= 600.0:
            pts.append(z)
    w_rel = 0.0
    for z in pts:
        mz = mpmath.mpc(z.real, z.imag)
        want = complex(mpmath.exp(-mz * mz) * mpmath.erfc(-1j * mz))
        w_rel = max(w_rel, abs(w_erfc(z) - want) / abs(want))

    # Two grid-convergence studies: discrete-energy bias of the gamma = 1
    # even state, and the lowest eigenvalue of the kink second variation.
    state = StationaryState(StateKind.EVEN_TANH, 1.0)
    exact = closed_form_energy(state)
    bias = [
        abs(energy_gamma(eval_state(state, make_grid(40.0, m)), 1.0).total - exact)
        for m in (4000, 8000)
    ]
    order_energy = math.log2(bias[0] / bias[1])
    eig_err = [
        abs(eigs_below(build_lpm(make_grid(30.0, m), 0.0, Which.LMINUS),
                       EDGE_LMINUS)[0] + 0.5)
        for m in (1500, 3000)
    ]
    order_eig = math.log2(eig_err[0] / eig_err[1])

    ok = (fd_rel < 1e-5 and fi_res < 1e-12 and w_rel < 1e-9
          and order_energy >= 1.9 and order_eig >= 1.9)
    verdict(10, ok, f"gradient FD rel {fd_rel:.1e}; first integral {fi_res:.1e}; "
                    f"Faddeeva {w_rel:.1e} on 200 pts; orders "
                    f"{order_energy:.2f}, {order_eig:.2f}")
    assert fd_rel < 1e-5
    assert fi_res < 1e-12
    assert w_rel < 1e-9
    assert order_energy >= 1.9
    assert order_eig >= 1.9
