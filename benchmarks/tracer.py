"""In-memory span tracer that wraps gpdelta's layer boundaries from outside.

Nothing under src/ knows about it. `Tracer.install` replaces each traced
function with a wrapper in every gpdelta module that imported it by name
(the modules use `from .energy import energy_gamma` and the like), patches
two methods on their classes, and wraps the LAPACK tridiagonal routines
`zgttrf`/`zgttrs` on `scipy.linalg.lapack`, where the program looks them up
at call time. `uninstall` puts every original back.

A span is (name, start, end, parent, trace id); one trace id per experiment.
Spans live in typed arrays so a traced gradient-flow session (several
hundred thousand spans) stays small, and are written out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("grid", "solitons", "energy", "propagator", "evolution", "spectra",
          "variational", "cli", "tridiag")

# Public functions wrapped wherever they are bound, by module (= layer).
FUNCTIONS = (
    ("grid", "build_hgamma"),
    ("grid", "apply_hgamma"),
    ("solitons", "eval_state"),
    ("energy", "energy_gamma"),
    ("energy", "extrapolated_energy"),
    ("energy", "energy_gradient"),
    ("energy", "nonlinear_F"),
    ("energy", "orbit_distance"),
    ("propagator", "k0"),
    ("propagator", "w_erfc"),
    ("propagator", "gamma_kernel"),
    ("propagator", "gamma_kernel_by_quadrature"),
    ("propagator", "apply_propagator"),
    ("evolution", "evolve"),
    ("evolution", "instability_run"),
    ("evolution", "seeded_perturbation"),
    ("spectra", "eigs_below"),
    ("spectra", "spectral_report"),
    ("spectra", "lambda_curve"),
    ("spectra", "instability_eigenvalue"),
    ("variational", "gradient_flow"),
    ("variational", "minimize_report"),
    ("cli", "main"),
)

MODULES = ("grid", "solitons", "energy", "propagator", "evolution", "spectra",
           "variational", "cli")


# Observers run after a span closes and add computed counts.

def _observe_apply(counts, args, kwargs, result):
    u0 = args[0]
    t = args[1] if len(args) > 1 else kwargs["t"]
    gamma = args[2] if len(args) > 2 else kwargs["gamma"]
    if t != 0.0:
        n, m = u0.grid.n_nodes, u0.grid.M
        # One Toeplitz product (n x n) plus, with a defect, one folded
        # Hankel product ((M+1) x (M+1)).
        counts["propagator.apply_madds"] += n * n + ((m + 1) ** 2 if gamma != 0.0 else 0)


def _observe_w_erfc(counts, args, kwargs, result):
    counts["propagator.w_erfc_points"] += int(np.size(args[0] if args else kwargs["z"]))


def _observe_instability(counts, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    m = grid.n_nodes - 2
    # Four resident dense m x m float64 matrices: V, S, Lambda and W.
    counts["spectra.dense_bytes"] += 4 * 8 * m * m


def _observe_evolve(counts, args, kwargs, result):
    counts["evolution.snapshot_bytes"] += int(result.snapshots.nbytes)


def _observe_flow(counts, args, kwargs, result):
    counts["variational.iterations"] += int(result.iterations)


def _observe_cli(counts, args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv and argv:
        out = Path(argv[argv.index("--out") + 1]) / argv[0]
        if out.is_dir():
            counts["cli.bytes_written"] += sum(
                p.stat().st_size for p in out.iterdir() if p.is_file()
            )


OBSERVERS = {
    "propagator.apply_propagator": _observe_apply,
    "propagator.w_erfc": _observe_w_erfc,
    "spectra.instability_eigenvalue": _observe_instability,
    "evolution.evolve": _observe_evolve,
    "variational.gradient_flow": _observe_flow,
    "cli.main": _observe_cli,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.traces: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_trace = array("H")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._trace = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_trace(self, label: str) -> None:
        self.traces.append(label)
        self._trace = len(self.traces) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_trace.append(self._trace)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one experiment."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, observe=None):
        nid = self._intern(name)
        open_, close = self._open, self._close
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from scipy.linalg import lapack

        mods = [importlib.import_module(f"gpdelta.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in mods}
        for module, attr in FUNCTIONS:
            orig = getattr(by_name[module], attr)
            name = f"{module}.{attr}"
            wrapper = self.wrap(name, orig, OBSERVERS.get(name))
            for mod in mods:
                bound = [k for k, v in vars(mod).items() if v is orig]
                for key in bound:
                    self._patch(mod, key, wrapper)

        grid, evolution, cli = by_name["grid"], by_name["evolution"], by_name["cli"]
        # Every Field construction runs __post_init__, the isfinite scan.
        self._patch(grid.Field, "__post_init__",
                    self.wrap("grid.Field", grid.Field.__post_init__))
        self._patch(evolution._CrankNicolson, "step",
                    self.wrap("evolution.step", evolution._CrankNicolson.step))
        self._patch(cli, "_write_outputs", self.wrap("cli.write_outputs", cli._write_outputs))
        for routine in ("zgttrf", "zgttrs"):
            self._patch(lapack, routine, self.wrap(f"tridiag.{routine}", getattr(lapack, routine)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------ reporting

    def arrays(self):
        """(name ids, start, end, parent, trace id, self time) as numpy arrays."""
        name = np.asarray(self.span_name, dtype=np.int64)
        start = np.asarray(self.span_start, dtype=float)
        end = np.asarray(self.span_end, dtype=float)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        trace = np.asarray(self.span_trace, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name, start, end, parent, trace, dur - child

    def write(self, path: Path) -> None:
        """Spans as gzip CSV: name, start and end in s from the first span, parent, trace."""
        name, start, end, parent, trace, _ = self.arrays()
        t0 = start[0] if start.size else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,trace\n")
            for i in range(start.size):
                fh.write(f"{i},{self.names[name[i]]},{start[i] - t0:.9f},"
                         f"{end[i] - t0:.9f},{parent[i]},{self.traces[trace[i]]}\n")


# Per-layer metrics: name -> unit. Sizes labelled "computed" come from array
# shapes, not from a measurement.
PER_LAYER = {
    "propagator.apply_calls": "count",
    "propagator.apply_s": "s",
    "propagator.apply_madds": "madd-computed",
    "propagator.kernel_s": "s",
    "propagator.oracle_s": "s",
    "propagator.w_erfc_points": "count",
    "propagator.w_erfc_s": "s",
    "spectra.instability_calls": "count",
    "spectra.instability_s": "s",
    "spectra.dense_mb": "MB-computed",
    "spectra.eigs_below_calls": "count",
    "spectra.eigs_below_s": "s",
    "evolution.steps": "count",
    "evolution.solves": "count",
    "evolution.solves_per_step": "solve/step",
    "evolution.step_us": "us",
    "evolution.solve_us": "us",
    "evolution.diag_s": "s",
    "evolution.snapshot_mb": "MB-computed",
    "variational.flows": "count",
    "variational.iterations": "count",
    "variational.iters_per_start": "iter/start",
    "variational.halvings": "count",
    "variational.iter_us": "us",
    "variational.solve_us": "us",
    "energy.energy_calls": "count",
    "energy.energy_s": "s",
    "energy.gradient_calls": "count",
    "energy.gradient_s": "s",
    "energy.nonlinear_s": "s",
    "energy.orbit_calls": "count",
    "energy.orbit_s": "s",
    "grid.field_count": "count",
    "grid.field_s": "s",
    "grid.hgamma_builds": "count",
    "grid.apply_hgamma_s": "s",
    "solitons.eval_calls": "count",
    "solitons.eval_s": "s",
    "tridiag.factors": "count",
    "tridiag.solves": "count",
    "tridiag.solve_s": "s",
    "cli.runs": "count",
    "cli.run_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, derived from the spans."""
    name, start, end, parent, _, self_t = tr.arrays()
    dur = end - start
    ids = {n: i for i, n in enumerate(tr.names)}
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def is_(n):
        return name == ids.get(n, -1)

    def under(n, p):
        return is_(n) & (parent_name == ids.get(p, -2))

    def calls(n):
        return int(np.count_nonzero(is_(n)))

    def total(*names):
        return float(sum(dur[is_(n)].sum() for n in names))

    def per(num, den):
        return float(num) / den if den else 0.0

    steps = calls("evolution.step")
    ev_solves = under("tridiag.zgttrs", "evolution.step")
    flows = calls("variational.gradient_flow")
    iterations = tr.counts["variational.iterations"]
    flow_solves = under("tridiag.zgttrs", "variational.gradient_flow")
    diag = under("energy.energy_gamma", "evolution.evolve") | under("energy.orbit_distance",
                                                                    "evolution.evolve")
    out = {
        "propagator.apply_calls": calls("propagator.apply_propagator"),
        "propagator.apply_s": total("propagator.apply_propagator"),
        "propagator.apply_madds": tr.counts["propagator.apply_madds"],
        "propagator.kernel_s": total("propagator.k0", "propagator.gamma_kernel"),
        "propagator.oracle_s": total("propagator.gamma_kernel_by_quadrature"),
        "propagator.w_erfc_points": tr.counts["propagator.w_erfc_points"],
        "propagator.w_erfc_s": total("propagator.w_erfc"),
        "spectra.instability_calls": calls("spectra.instability_eigenvalue"),
        "spectra.instability_s": total("spectra.instability_eigenvalue"),
        "spectra.dense_mb": tr.counts["spectra.dense_bytes"] / 1e6,
        "spectra.eigs_below_calls": calls("spectra.eigs_below"),
        "spectra.eigs_below_s": total("spectra.eigs_below"),
        "evolution.steps": steps,
        "evolution.solves": int(np.count_nonzero(ev_solves)),
        "evolution.solves_per_step": per(np.count_nonzero(ev_solves), steps),
        "evolution.step_us": per(self_t[is_("evolution.step")].sum() * 1e6, steps),
        "evolution.solve_us": per(dur[ev_solves].sum() * 1e6, np.count_nonzero(ev_solves)),
        "evolution.diag_s": float(dur[diag].sum()),
        "evolution.snapshot_mb": tr.counts["evolution.snapshot_bytes"] / 1e6,
        "variational.flows": flows,
        "variational.iterations": iterations,
        "variational.iters_per_start": per(iterations, flows),
        "variational.halvings": int(np.count_nonzero(
            under("tridiag.zgttrf", "variational.gradient_flow"))) - flows,
        "variational.iter_us": per(total("variational.gradient_flow") * 1e6, iterations),
        "variational.solve_us": per(dur[flow_solves].sum() * 1e6, np.count_nonzero(flow_solves)),
        "energy.energy_calls": calls("energy.energy_gamma"),
        "energy.energy_s": total("energy.energy_gamma"),
        "energy.gradient_calls": calls("energy.energy_gradient"),
        "energy.gradient_s": total("energy.energy_gradient"),
        "energy.nonlinear_s": total("energy.nonlinear_F"),
        "energy.orbit_calls": calls("energy.orbit_distance"),
        "energy.orbit_s": total("energy.orbit_distance"),
        "grid.field_count": calls("grid.Field"),
        "grid.field_s": total("grid.Field"),
        "grid.hgamma_builds": calls("grid.build_hgamma"),
        "grid.apply_hgamma_s": total("grid.apply_hgamma"),
        "solitons.eval_calls": calls("solitons.eval_state"),
        "solitons.eval_s": total("solitons.eval_state"),
        "tridiag.factors": calls("tridiag.zgttrf"),
        "tridiag.solves": calls("tridiag.zgttrs"),
        "tridiag.solve_s": total("tridiag.zgttrs"),
        "cli.runs": calls("cli.main"),
        "cli.run_s": total("cli.main"),
        "cli.write_s": total("cli.write_outputs"),
        "cli.bytes_written": tr.counts["cli.bytes_written"],
        "trace.spans": int(name.size),
    }
    layer_of = np.array([n.split(".", 1)[0] for n in tr.names] or [""])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_t[layer_of[name] == layer].sum()) if name.size else 0.0
    return out
