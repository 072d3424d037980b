"""The three benchmark workloads: experiment sequences, their timings and checks.

A workload is one research session run as a closed loop with one client:
each experiment starts when the previous one has finished. Experiments call
`gpdelta.cli.main([...])` with a temporary `--out`, or the public library API
where the command line cannot reach a layer. The workload seed reaches the
program only as generated inputs: `--seed`, `--perturb-seed` and the
parameters of the wavepacket.

Every experiment is checked. The acceptance bounds of the test suite's
criteria 1, 3, 4, 6, 7, 8 and 9 apply as written, and values recorded from
the seeding commit are compared at the tolerances in REFERENCE. The
criterion-4 scheme-vs-kernel gap is reported as measured and never gated.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

_SQRT2 = math.sqrt(2.0)

# Values recorded from the seeding commit, with the tolerance each is held to.
# Relative 1e-4 on spectral growth rates admits a change of eigen-solver or a
# solve on the run grid (both agree to about 1e-5) but not a wrong mode.
REFERENCE = {
    "instability.growth_rate": (0.36333676594467607, "rel", 1e-4),
    "instability.fitted_rate": (0.3633189034144096, "rel", 1e-4),
    "eig.mu_min": (-0.13201483553159085, "rel", 1e-4),
    "eig.growth_rate": (0.36333845864646763, "rel", 1e-4),
    "energy.kink": (2.0 * _SQRT2 / 3.0, "abs", 1e-9),
    "energy.even_tanh+1": (0.3594757082, "abs", 1e-9),
    "energy.even_tanh-1": (1.526142374915397, "abs", 1e-9),
    "energy.even_coth-1": (-0.7238576251, "abs", 1e-9),
    "spectrum.lminus-1": ((-1.000000815910047,), "abs", 1e-8),
    "spectrum.lplus-1": ((-0.6626849775075716, 1.4999907735639169, 1.9851323209456866),
                         "abs", 1e-8),
    "lambda_curve.slope": (0.5303665057164357, "rel", 1e-6),
}


class Checks:
    """Collects failed conditions of one experiment."""

    def __init__(self):
        self.failures: list[str] = []

    def that(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def below(self, name: str, value, bound: float) -> None:
        self.that(value is not None and value < bound, f"{name}={value} not below {bound}")

    def reference(self, key: str, value) -> None:
        want, kind, tol = REFERENCE[key]
        got = np.atleast_1d(np.asarray(value, dtype=float))
        ref = np.atleast_1d(np.asarray(want, dtype=float))
        if got.shape != ref.shape:
            self.failures.append(f"{key}: {got.size} values, reference has {ref.size}")
            return
        err = np.abs(got - ref)
        if kind == "rel":
            err = err / np.abs(ref)
        self.that(bool(np.all(err <= tol)), f"{key}={value} off reference {want} by {err.max():.2e} > {tol}")


@dataclass
class Pass:
    """One pass over a workload's experiments: timings, observations, failures."""

    out: Path
    timings: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    values: dict[str, float] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)
    attempted: int = 0
    cli_runs: int = 0
    wall_s: float = 0.0

    def timed(self, metric: str | None, fn: Callable, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.wall_s += dt
            if metric is not None:
                self.timings[metric] += dt

    def cli(self, metric: str | None, argv: list[str]) -> dict:
        """Run one subcommand, timed; return the results block of its report."""
        from gpdelta import cli

        self.cli_runs += 1
        out = self.out / f"run{self.cli_runs}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = self.timed(metric, cli.main, argv + ["--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"gpdelta {' '.join(argv)} exited {rc}: {stderr.getvalue().strip()}")
        report = json.loads((out / argv[0] / "report.json").read_text())
        return report["results"]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; `tiny` shrinks them for the benchmark's smoke test."""

    tiny: bool = False

    def args(self, small: list[str]) -> list[str]:
        """Extra command-line flags: `small` at tiny sizes, none otherwise."""
        return small if self.tiny else []


def _v(entry):
    return None if entry is None else entry["value"]


# ----------------------------------------------------------------- dynamics


def _instability(p: Pass, seed: int, size: Sizes, c: Checks) -> None:
    r = p.cli("instability_s", ["instability", "--gamma", "1"]
              + size.args(["--L", "10", "--h", "0.1", "--h-run", "0.1", "--t-end", "2"]))
    p.values["rate_rel_dev"] = _v(r["rel_deviation"])
    c.below("mu_min", _v(r["mu_min"]), 0.0)
    c.reference("instability.growth_rate", _v(r["growth_rate"]))
    c.reference("instability.fitted_rate", _v(r["fitted_rate"]))
    c.below("rel_deviation", _v(r["rel_deviation"]), 0.10)  # criterion 7
    c.that(r["window_points"] >= 4, f"window_points={r['window_points']} < 4")


def _evolve(p: Pass, seed: int, size: Sizes, c: Checks) -> None:
    t_end = "0.2" if size.tiny else "10"
    r = p.cli("evolve_s", ["evolve", "--gamma=-1", "--state", "even-coth",
                           "--perturb-seed", str(seed), "--h", "0.02", "--dt", "2e-3",
                           "--t-end", t_end, "--record-every", "50"]
              + size.args(["--L", "10", "--h", "0.1"]))
    e0 = _v(r["energy_initial"])
    drift = _v(r["energy_drift"]) / abs(e0)
    p.values["energy_drift_rel"] = drift
    c.that(_v(r["t_end"]) == float(t_end), f"t_end={_v(r['t_end'])}")
    c.below("energy_drift_rel", drift, 1e-6)  # criterion 8
    c.below("sup_orbit_distance", _v(r["sup_orbit_distance"]), 0.5)  # criterion 8
    # The perturbed coth state sits O(d0^2) above the coth energy.
    c.below("|E0 - E_coth|", abs(e0 - REFERENCE["energy.even_coth-1"][0]), 1e-2)


# ------------------------------------------------------------------ descent


def _minimize(gamma: float, n_starts: int, odd: bool, basin: str, energy_key: str,
              metric: str | None):
    def run(p: Pass, seed: int, size: Sizes, c: Checks) -> None:
        argv = ["minimize", f"--gamma={gamma:g}", "--n-starts", str(n_starts),
                "--seed", str(seed)] + (["--odd"] if odd else [])
        r = p.cli(metric, argv + size.args(["--L", "10", "--h", "0.2", "--max-iters", "300"]))
        dist = _v(r["max_orbit_distance"])
        if dist is not None:
            p.values["flow_orbit_dist"] = max(p.values.get("flow_orbit_dist", 0.0), dist)
        # Criterion 9: every start converges into the expected basin, within
        # distance 1e-3 of the orbit and 1e-6 of its closed-form energy.
        c.that(r["n_converged"] == n_starts, f"{r['n_converged']}/{n_starts} converged")
        c.that(r["basins"] == {basin: n_starts}, f"basins {r['basins']}, want {basin}")
        c.below("max_orbit_distance", dist, 1e-3)
        exact = REFERENCE[energy_key][0]
        for s in r["starts"]:
            c.below(f"start {s['index']} |E - E_exact|",
                    abs(_v(s["energy_extrapolated"]) - exact), 1e-6)

    return run


# ------------------------------------------------------------------- linear


def _stationary(p: Pass, seed: int, size: Sizes, c: Checks) -> None:
    r = p.cli(None, ["stationary", "--gamma=-1"] + size.args(["--L", "10", "--h", "0.1"]))
    for family in ("kink", "even_tanh", "even_coth"):
        exact = _v(r[family]["energy_closed_form"])
        key = "energy.kink" if family == "kink" else f"energy.{family}-1"
        c.reference(key, exact)
        c.below(f"{family} |E_extrap - E|",
                abs(_v(r[family]["energy_extrapolated"]) - exact), 1e-6)  # criterion 1


def _energy_table(p: Pass, seed: int, size: Sizes, c: Checks) -> None:
    r = p.cli(None, ["energy-table"] + size.args(["--L", "10", "--h", "0.1"]))
    c.that(r["n_rows"] == 15, f"n_rows={r['n_rows']}")
    c.below("max_abs_error", _v(r["max_abs_error"]), 1e-6)  # criterion 1


def _kernel_check(p: Pass, seed: int, size: Sizes, c: Checks) -> None:
    r = p.cli(None, ["kernel-check", "--seed", str(seed)]
              + size.args(["--n-queries", "3"]))
    c.below("max_rel_error", _v(r["max_rel_error"]), 1e-7)  # criterion 3
    c.below("max_split_error", _v(r["max_split_error"]) or 0.0, 1e-10)


def _spectrum(p: Pass, seed: int, size: Sizes, c: Checks) -> None:
    r = p.cli(None, ["spectrum", "--gamma=-1"] + size.args(["--L", "10", "--h", "0.1"]))
    c.that(r["n_neg_plus"] == 1, f"n_neg_plus={r['n_neg_plus']}")  # criterion 6
    c.reference("spectrum.lminus-1", [_v(e) for e in r["lminus_eigs"]])
    c.reference("spectrum.lplus-1", [_v(e) for e in r["lplus_eigs"]])


def _lambda_curve(p: Pass, seed: int, size: Sizes, c: Checks) -> None:
    r = p.cli(None, ["lambda-curve"] + size.args(["--L", "10", "--h", "0.1"]))
    slope = _v(r["fitted_slope"])
    c.below("|slope - 0.5303|", abs(slope - 0.5303), 1e-2)  # criterion 6
    c.reference("lambda_curve.slope", slope)


def wavepacket(grid, seed: int) -> np.ndarray:
    """Seeded Gaussian packet near criterion 4's e^{-x^2}.

    Complex amplitude, centre within 0.1 of the origin and width within 5%
    of 1: the packet still crosses the defect, so the t = 0+ corner the
    criterion-4 gap comes from is always present.
    """
    rng = np.random.default_rng([seed, 4])
    amp = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    x0 = rng.uniform(-0.1, 0.1)
    width = rng.uniform(0.95, 1.05)
    return amp * np.exp(-(((grid.x - x0) / width) ** 2))


def _scheme_vs_kernel(p: Pass, seed: int, size: Sizes, c: Checks) -> None:
    """Criterion 4 at n = 16001: linear CN against the kernel, norm, group law."""
    from gpdelta.evolution import EvolveConfig, evolve
    from gpdelta.grid import Field, l2_norm, make_grid
    from gpdelta.propagator import apply_propagator

    grid = make_grid(40.0, 400 if size.tiny else 8000)
    u0 = Field(grid, wavepacket(grid, seed))
    norm0 = l2_norm(u0)
    dt, t_end = (1e-2, 0.5) if size.tiny else (1e-4, 0.5)
    cfg = EvolveConfig(dt=dt, t_end=t_end, gamma=1.0, linear=True,
                       record_every=int(round(t_end / dt)))
    cn = p.timed("linear_cn_s", evolve, u0, cfg).snapshots[-1]
    kernels = {}
    for gamma in (1.0, -1.0):
        ker = p.timed("propagate_s", apply_propagator, u0, 0.5, gamma)
        kernels[gamma] = ker
        c.below(f"gamma {gamma:+g} norm drift",
                abs(l2_norm(ker) - norm0) / norm0, 1e-4)  # criterion 4
    first = p.timed("propagate_s", apply_propagator, u0, 0.2, -1.0)
    two_hop = p.timed("propagate_s", apply_propagator, first, 0.3, -1.0, boundary_tol=1e-3)
    ker = kernels[-1.0]
    group = l2_norm(Field(grid, two_hop.values - ker.values)) / l2_norm(ker)
    c.below("group law", group, 1e-4)  # criterion 4
    # Known defect: the gap sits near 2.87e-3, above criterion 4's 1e-3.
    # Reported as measured, never gated.
    ref = kernels[1.0].values
    p.values["kernel_gap"] = float(np.sqrt(np.sum(np.abs(cn - ref) ** 2) / np.sum(np.abs(ref) ** 2)))


def _eig(p: Pass, seed: int, size: Sizes, c: Checks) -> None:
    from gpdelta.grid import make_grid
    from gpdelta.spectra import instability_eigenvalue

    grid = make_grid(30.0, 100 if size.tiny else 1200)
    rep = p.timed("eig_s", instability_eigenvalue, 1.0, grid)
    c.below("mu_min", rep.mu_min, 0.0)
    if not size.tiny:
        c.reference("eig.mu_min", rep.mu_min)
        c.reference("eig.growth_rate", rep.growth_rate)


# The experiments of each workload, in session order.
EXPERIMENTS = {
    "dynamics": (("instability", _instability), ("evolve", _evolve)),
    "descent": (
        ("minimize+1", _minimize(1.0, 2, False, "even_tanh", "energy.even_tanh+1", "minimize_s")),
        ("minimize-1", _minimize(-1.0, 1, False, "even_coth", "energy.even_coth-1",
                                 "minimize_attractive_s")),
        ("minimize-odd", _minimize(1.0, 1, True, "kink", "energy.kink", None)),
    ),
    "linear": (
        ("stationary", _stationary),
        ("energy-table", _energy_table),
        ("kernel-check", _kernel_check),
        ("spectrum", _spectrum),
        ("lambda-curve", _lambda_curve),
        ("scheme-vs-kernel", _scheme_vs_kernel),
        ("eig", _eig),
    ),
}

WORKLOADS = tuple(EXPERIMENTS)

# The workload's own metrics and their units, reported beside the bounded ones.
WORKLOAD_METRICS = {
    "dynamics": {"instability_s": "s", "evolve_s": "s",
                 "energy_drift_rel": "ratio", "rate_rel_dev": "ratio"},
    "descent": {"minimize_s": "s", "minimize_attractive_s": "s", "flow_orbit_dist": "1"},
    "linear": {"propagate_s": "s", "linear_cn_s": "s", "eig_s": "s", "kernel_gap": "ratio"},
}


def run_pass(workload: str, seed: int, out: Path, size: Sizes = Sizes(), tracer=None) -> Pass:
    """Run every experiment of `workload` once; failures are recorded, not raised.

    With a tracer, the pass starts with the self-check and each experiment
    gets its own trace id and root span.
    """
    p = Pass(out)
    experiments = EXPERIMENTS[workload]
    if tracer is not None:
        experiments = (("selfcheck", selfcheck),) + experiments
    for name, experiment in experiments:
        p.attempted += 1
        c = Checks()
        if tracer is not None:
            tracer.begin_trace(name)
        span = tracer.span(f"experiment.{name}") if tracer is not None else contextlib.nullcontext()
        try:
            with span:
                experiment(p, seed, size, c)
        except Exception as err:  # noqa: BLE001 - any error fails this experiment only
            c.failures.append(f"{type(err).__name__}: {err}")
        if c.failures:
            p.failures.append((name, "; ".join(c.failures)))
    return p


def selfcheck(p: Pass, seed: int, size: Sizes, c: Checks) -> None:
    """Call every layer a traced run reports once, on a 41-node grid.

    A traced pass does this before its workload, under its own trace id, so
    each per-layer metric is measured on every workload: a layer the
    workload never reaches reads the cost of these calls instead of 0.
    Nothing here is timed into the pass. Lookups go through the module
    attributes, where the tracer's wrappers sit.
    """
    from gpdelta import cli, energy, evolution, grid, propagator, solitons, spectra, variational

    g = grid.make_grid(10.0, 20)
    kink = solitons.StationaryState(solitons.StateKind.KINK, 1.0)
    u = solitons.eval_state(kink, g)
    grid.apply_hgamma(grid.build_hgamma(g, 1.0), u)
    energy.extrapolated_energy(u, 1.0)
    energy.energy_gradient(u, 1.0)
    energy.orbit_distance(u, kink.kind, 1.0)
    propagator.apply_propagator(grid.Field(g, np.exp(-g.x**2) + 0j), 0.5, 1.0)
    q = propagator.KernelQuery(t=1.0, x=0.5, y=0.25, gamma=1.0)
    propagator.gamma_kernel(q)
    propagator.gamma_kernel_by_quadrature(q)
    evolution.evolve(u, evolution.EvolveConfig(dt=0.05, t_end=0.1, gamma=1.0), orbit_target=kink)
    spectra.instability_eigenvalue(1.0, g)
    variational.gradient_flow(u, 1.0, variational.FlowConfig(max_iters=2))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["spectrum", "--gamma=-1", "--L", "5", "--h", "0.5", "--out", str(p.out)])
    c.that(rc == 0, f"self-check subcommand exited {rc}")
