"""Command-line front end: one subcommand per experiment, file reports out.

Every run writes into <out>/<subcommand>/: the data CSVs and report.json are
deterministic for fixed flags, seeds included, so they work as diffable
regression fixtures; manifest.json additionally records wall time and the
produced file list, which is why it is the one file allowed to differ between
otherwise identical runs.

Exit codes: 0 success, 1 invalid parameters, 2 numerical failure, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .energy import energy_gamma, extrapolated_energy
from .evolution import (
    TARGET_D0,
    EvolveConfig,
    check_eps,
    check_fit_points,
    evolve,
    instability_run,
    seeded_perturbation,
)
from .grid import Field, GridSpec, make_grid
from .propagator import KernelQuery, attractive_split, gamma_kernel, gamma_kernel_by_quadrature
from .solitons import (
    StateKind,
    StationaryState,
    closed_form_energy,
    eval_state,
    families,
    origin_value,
)
from .spectra import ABSORBED_ABOVE, instability_eigenvalue, lambda_curve, spectral_report
from .variational import FlowConfig, minimize_report

GAMMA_PANEL = (0.5, 1.0, 2.0, -0.5, -1.0, -2.0)

_STATE_NAMES = {kind.value.replace("_", "-"): kind for kind in StateKind}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # No prefix matching: kernel-check --h would otherwise mean --help.
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _finite(text: str) -> float:
    """argparse type of every float flag: nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of every seed flag: numpy seeds must be non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _num(value, provenance: str) -> dict:
    """Report numeric: value plus how it was obtained."""
    if value is None:
        return {"value": None, "provenance": provenance}
    return {"value": float(value), "provenance": provenance}


def _nonfinite_key(node, key=""):
    """Path of the first non-finite number in a results tree, in report order, or None."""
    if isinstance(node, dict):
        items = [(f"{key}.{k}" if key else k, v) for k, v in sorted(node.items())]
    elif isinstance(node, list):
        items = [(f"{key}[{i}]", v) for i, v in enumerate(node)]
    else:
        return key if isinstance(node, float) and not math.isfinite(node) else None
    return next(filter(None, (_nonfinite_key(v, k) for k, v in items)), None)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _grid_from(args) -> GridSpec:
    if args.L <= 0 or args.h <= 0 or args.h >= args.L:
        raise ValueError("need 0 < h < L")
    cells = args.L / args.h
    if abs(cells - round(cells)) > 1e-9 * cells:
        raise ValueError(
            f"--L {args.L:g} is not a whole number of --h {args.h:g} steps (L/h = {cells:.6g})"
        )
    return make_grid(args.L, round(cells))


def _evolve_config(args) -> EvolveConfig:
    return EvolveConfig(
        dt=args.dt, t_end=args.t_end, gamma=args.gamma, record_every=args.record_every
    )


def _grid_summary(grid: GridSpec | None):
    if grid is None:
        return None
    return {"L": grid.L, "h": grid.h, "M": grid.M, "n_nodes": grid.n_nodes}


def _parse_gammas(text: str) -> list[float]:
    try:
        vals = [_finite(tok) for tok in text.split(",") if tok.strip() != ""]
    except argparse.ArgumentTypeError as err:
        raise ValueError(f"bad --gammas list {text!r}: {err}") from err
    if not vals:
        raise ValueError("empty --gammas list")
    return vals


def _energies(state: StationaryState, grid: GridSpec):
    """The state's samples and its closed-form, discrete and extrapolated energies."""
    u = eval_state(state, grid)
    # Past the closed forms' range these overflow; main names the non-finite result.
    with np.errstate(over="ignore", invalid="ignore"):
        return (u, closed_form_energy(state), energy_gamma(u, state.gamma).total,
                extrapolated_energy(u, state.gamma))


# ------------------------------------------------------------- subcommands


def _run_stationary(args):
    if args.gamma == 0.0:
        raise ValueError("stationary families need gamma != 0")
    grid = _grid_from(args)

    header = ["x"]
    cols = [grid.x]
    results = {}
    for kind in families(args.gamma):
        state = StationaryState(kind, args.gamma)
        u, exact, discrete, rich = _energies(state, grid)
        header += [f"{kind.value}_re", f"{kind.value}_im"]
        cols += [u.values.real, u.values.imag]
        results[kind.value] = {
            "energy_closed_form": _num(exact, "closed_form"),
            "energy_discrete": _num(discrete, "discrete"),
            "energy_extrapolated": _num(rich, "discrete"),
            "origin_value": _num(origin_value(state), "closed_form"),
        }
    rows = list(zip(*cols))
    return grid, results, {"profiles.csv": (header, rows)}


def _run_energy_table(args):
    grid = _grid_from(args)
    gammas = _parse_gammas(args.gammas)
    if any(g == 0.0 for g in gammas):
        raise ValueError("energy table needs gamma != 0 entries")

    rows = []
    for gamma in gammas:
        for kind in families(gamma):
            _, exact, discrete, rich = _energies(StationaryState(kind, gamma), grid)
            rows.append((gamma, kind.value, exact, discrete, rich, abs(rich - exact)))
    worst = max(r[5] for r in rows)
    results = {
        "n_rows": len(rows),
        "max_abs_error": _num(worst, "discrete"),
        "rows": [
            {
                "gamma": r[0],
                "family": r[1],
                "closed_form": _num(r[2], "closed_form"),
                "discrete": _num(r[3], "discrete"),
                "extrapolated": _num(r[4], "discrete"),
            }
            for r in rows
        ],
    }
    header = ["gamma", "family", "closed_form", "discrete", "extrapolated", "abs_error"]
    return grid, results, {"table.csv": (header, rows)}


def _run_kernel_check(args):
    if args.n_queries < 1:
        raise ValueError("need at least one query")
    rng = np.random.default_rng([args.seed, 0])
    rows = []
    for _ in range(args.n_queries):
        q = KernelQuery(
            t=float(1.0 - rng.uniform(0.0, 1.0)),
            x=float(rng.uniform(-10.0, 10.0)),
            y=float(rng.uniform(-10.0, 10.0)),
            gamma=float(GAMMA_PANEL[int(rng.integers(0, len(GAMMA_PANEL)))]),
        )
        closed = gamma_kernel(q)
        oracle = gamma_kernel_by_quadrature(q)
        rel = abs(closed - oracle) / abs(oracle)
        split = float("nan")
        if q.gamma < 0.0:
            part1, part2 = attractive_split(q)
            split = abs(part1 + part2 - closed) / abs(closed)
        rows.append((q.t, q.x, q.y, q.gamma, rel, split))
    rels = [r[4] for r in rows]
    splits = [r[5] for r in rows if not np.isnan(r[5])]
    iworst = int(np.argmax(rels))
    results = {
        "n_queries": len(rows),
        "max_rel_error": _num(max(rels), "discrete"),
        "max_split_error": _num(max(splits) if splits else None, "discrete"),
        "worst_query": {
            "t": rows[iworst][0], "x": rows[iworst][1],
            "y": rows[iworst][2], "gamma": rows[iworst][3],
        },
    }
    header = ["t", "x", "y", "gamma", "rel_error", "split_error"]
    return None, results, {"queries.csv": (header, rows)}


def _build_initial_state(args, grid):
    # --target-d0 sizes the perturbation: refused without one, TARGET_D0 when omitted.
    if args.perturb_seed is None:
        if args.target_d0 is not None:
            raise ValueError("--target-d0 needs --perturb-seed: nothing is perturbed without it")
    elif args.target_d0 is None:
        args.target_d0 = TARGET_D0
    if args.state == "constant":
        if args.gamma != 0.0:
            raise ValueError("the constant background is stationary only at gamma = 0")
        if args.perturb_seed is not None:
            raise ValueError("the constant background takes no --perturb-seed")
        return Field(grid, np.ones(grid.n_nodes, dtype=complex)), None
    state = StationaryState(_STATE_NAMES[args.state], args.gamma)
    if args.perturb_seed is None:
        return eval_state(state, grid), state
    u0 = seeded_perturbation(state, grid, seed=args.perturb_seed, target_d0=args.target_d0)
    return u0, state


def _run_evolve(args):
    grid = _grid_from(args)
    cfg = _evolve_config(args)
    u0, state = _build_initial_state(args, grid)
    tr = evolve(u0, cfg, orbit_target=state)
    drift = float(np.max(np.abs(tr.energy_trace - tr.energy_trace[0])))
    results = {
        "t_end": _num(tr.times[-1], "discrete"),
        "energy_initial": _num(tr.energy_trace[0], "discrete"),
        "energy_drift": _num(drift, "discrete"),
        "sup_orbit_distance": _num(
            float(np.max(tr.orbit_trace)) if tr.orbit_trace is not None else None,
            "discrete",
        ),
    }
    trace_header = ["t", "energy"]
    trace_cols = [tr.times, tr.energy_trace]
    if tr.orbit_trace is not None:
        trace_header.append("orbit_d0")
        trace_cols.append(tr.orbit_trace)
    csvs = {
        "trace.csv": (trace_header, list(zip(*trace_cols))),
        "final.csv": (["x", "re", "im"], list(zip(grid.x, tr.final.real, tr.final.imag))),
    }
    return grid, results, csvs


def _run_stability_sweep(args):
    if args.gamma == 0.0:
        raise ValueError("stability sweep needs gamma != 0")
    if args.n_seeds < 1:
        raise ValueError(f"need at least one seed, got --n-seeds {args.n_seeds}")
    grid = _grid_from(args)
    kind = StateKind.EVEN_TANH if args.gamma > 0.0 else StateKind.EVEN_COTH
    state = StationaryState(kind, args.gamma)
    cfg = _evolve_config(args)

    rows = []
    for seed in range(args.n_seeds):
        u0 = seeded_perturbation(state, grid, seed=seed, target_d0=args.target_d0)
        tr = evolve(u0, cfg, orbit_target=state)
        drift = np.max(np.abs(tr.energy_trace - tr.energy_trace[0]))
        drift /= abs(tr.energy_trace[0])
        rows.append((seed, tr.orbit_trace[0], float(np.max(tr.orbit_trace)), float(drift)))
    results = {
        "family": kind.value,
        "n_seeds": args.n_seeds,
        "target_d0": _num(args.target_d0, "discrete"),
        "max_sup_d0": _num(max(r[2] for r in rows), "discrete"),
        "max_energy_drift": _num(max(r[3] for r in rows), "discrete"),
    }
    header = ["seed", "d0_initial", "sup_d0", "energy_drift_rel"]
    return grid, results, {"sweep.csv": (header, rows)}


def _run_spectrum(args):
    grid = _grid_from(args)
    rep = spectral_report(args.gamma, grid)
    results = {
        "gamma": _num(args.gamma, "discrete"),
        "n_neg_minus": rep.n_neg_minus,
        "n_neg_plus": rep.n_neg_plus,
        "lminus_eigs": [_num(v, "discrete") for v in rep.lminus_eigs],
        "lplus_eigs": [_num(v, "discrete") for v in rep.lplus_eigs],
    }
    rows = [("lminus", i, v) for i, v in enumerate(rep.lminus_eigs)]
    rows += [("lplus", i, v) for i, v in enumerate(rep.lplus_eigs)]
    return grid, results, {"eigs.csv": (["operator", "index", "eigenvalue"], rows)}


def _run_lambda_curve(args):
    grid = _grid_from(args)
    gammas = _parse_gammas(args.gammas)
    pts = lambda_curve(gammas, grid)
    slope = float(np.polyfit(pts[:, 0], pts[:, 1], 1)[0]) if len(set(gammas)) > 1 else None
    rows = [(g, lam, 1 if lam > ABSORBED_ABOVE else 0) for g, lam in pts]
    results = {
        "n_points": len(rows),
        "fitted_slope": _num(slope, "fitted"),
        "points": [
            {"gamma": g, "lambda1": _num(lam, "discrete"), "absorbed": bool(flag)}
            for g, lam, flag in rows
        ],
    }
    return grid, results, {"curve.csv": (["gamma", "lambda1", "absorbed"], rows)}


def _run_instability(args):
    grid = _grid_from(args)
    cfg = _evolve_config(args)
    check_eps(args.eps)
    rep = instability_eigenvalue(args.gamma, grid)

    results = {
        "mu_min": _num(rep.mu_min, "discrete"),
        "growth_rate": _num(rep.growth_rate, "discrete"),
        "fitted_rate": _num(None, "fitted"),
        "rel_deviation": _num(None, "fitted"),
        "window_points": 0,
    }
    csvs = {}
    if rep.growth_rate is not None:
        check_fit_points(args.eps, rep.growth_rate, cfg)
        run = instability_run(args.eps, Field(grid, rep.direction), cfg)
        rel = None if run.rate is None else abs(run.rate - rep.growth_rate) / rep.growth_rate
        results.update({
            "fitted_rate": _num(run.rate, "fitted"),
            "rel_deviation": _num(rel, "fitted"),
            "window_points": run.window_points,
        })
        tr = run.trajectory
        csvs["growth.csv"] = (["t", "orbit_d0"], list(zip(tr.times, tr.orbit_trace)))
    return grid, results, csvs


def _run_minimize(args):
    if args.n_starts < 1:
        raise ValueError(f"need at least one start, got --n-starts {args.n_starts}")
    grid = _grid_from(args)
    starts = minimize_report(args.gamma, grid, n_starts=args.n_starts,
                             cfg=FlowConfig(max_iters=args.max_iters), odd=args.odd,
                             seed=args.seed)
    labels = [s.basin.value if s.basin is not None else None for s in starts]
    basins = {label or "none": labels.count(label) for label in labels}
    rows = [
        (
            s.index, s.converged, s.iterations, s.energy, s.energy_extrapolated,
            label or "none", s.distance if np.isfinite(s.distance) else float("nan"),
        )
        for s, label in zip(starts, labels)
    ]
    results = {
        "odd": args.odd,
        "basins": basins,
        "n_converged": sum(1 for s in starts if s.converged),
        "max_orbit_distance": _num(
            max((s.distance for s in starts if np.isfinite(s.distance)), default=None),
            "discrete",
        ),
        "starts": [
            {
                "index": s.index,
                "converged": s.converged,
                "iterations": s.iterations,
                "energy": _num(s.energy, "discrete"),
                "energy_extrapolated": _num(s.energy_extrapolated, "discrete"),
                "basin": label,
            }
            for s, label in zip(starts, labels)
        ],
    }
    header = ["index", "converged", "iterations", "energy",
              "energy_extrapolated", "basin", "distance"]
    return grid, results, {"starts.csv": (header, rows)}


_RUNNERS = {
    "stationary": _run_stationary,
    "energy-table": _run_energy_table,
    "kernel-check": _run_kernel_check,
    "evolve": _run_evolve,
    "stability-sweep": _run_stability_sweep,
    "spectrum": _run_spectrum,
    "lambda-curve": _run_lambda_curve,
    "instability": _run_instability,
    "minimize": _run_minimize,
}


# ------------------------------------------------------------------ driver


def _add_shared(sp, *, L=None, h=None, dt=None, t_end=None, seed=False):
    """--out everywhere; grid, time and seed flags only where the runner reads them."""
    if L is not None:
        sp.add_argument("--L", type=_finite, default=L)
        sp.add_argument("--h", type=_finite, default=h)
    if dt is not None:
        sp.add_argument("--dt", type=_finite, default=dt)
    if t_end is not None:
        sp.add_argument("--t-end", dest="t_end", type=_finite, default=t_end)
    if seed:
        sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gpdelta", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("stationary", help="soliton profiles and their energies")
    sp.add_argument("--gamma", type=_finite, required=True)
    _add_shared(sp, L=40.0, h=0.005)

    sp = subs.add_parser("energy-table", help="closed-form vs discrete energy table")
    sp.add_argument("--gammas", default="0.5,1,2,-0.5,-1,-2")
    _add_shared(sp, L=40.0, h=0.005)

    sp = subs.add_parser("kernel-check", help="propagator kernel vs quadrature oracle")
    sp.add_argument("--n-queries", dest="n_queries", type=int, default=50)
    _add_shared(sp, seed=True)

    sp = subs.add_parser("evolve", help="Crank-Nicolson run from a chosen state")
    sp.add_argument("--gamma", type=_finite, required=True)
    sp.add_argument("--state", choices=sorted(_STATE_NAMES) + ["constant"],
                    default="even-tanh")
    sp.add_argument("--perturb-seed", dest="perturb_seed", type=_seed, default=None)
    sp.add_argument("--target-d0", dest="target_d0", type=_finite, default=None)
    sp.add_argument("--record-every", dest="record_every", type=int, default=100)
    _add_shared(sp, L=40.0, h=0.005, dt=1e-3, t_end=1.0)

    sp = subs.add_parser("stability-sweep", help="orbital stability over seeded starts")
    sp.add_argument("--gamma", type=_finite, required=True)
    sp.add_argument("--n-seeds", dest="n_seeds", type=int, default=10)
    sp.add_argument("--target-d0", dest="target_d0", type=_finite, default=TARGET_D0)
    sp.add_argument("--record-every", dest="record_every", type=int, default=100)
    _add_shared(sp, L=40.0, h=0.02, dt=2e-3, t_end=50.0)

    sp = subs.add_parser("spectrum", help="eigenvalues below the essential edges")
    sp.add_argument("--gamma", type=_finite, required=True)
    _add_shared(sp, L=30.0, h=0.01)

    sp = subs.add_parser("lambda-curve", help="lowest amplitude-block eigenvalue vs gamma")
    sp.add_argument("--gammas", default="-0.05,-0.025,-0.01,0,0.01,0.025,0.05")
    _add_shared(sp, L=30.0, h=0.01)

    sp = subs.add_parser("instability", help="growing mode: spectral value vs fitted rate")
    sp.add_argument("--gamma", type=_finite, required=True)
    sp.add_argument("--eps", type=_finite, default=1e-4)
    sp.add_argument("--record-every", dest="record_every", type=int, default=50)
    _add_shared(sp, L=30.0, h=0.01, dt=1e-3, t_end=20.0)
    # A second spelling of --h: the benchmark's tiny instability flags pass both.
    sp.add_argument("--h-run", dest="h", type=_finite, default=argparse.SUPPRESS)

    sp = subs.add_parser("minimize", help="gradient-flow basin survey")
    sp.add_argument("--gamma", type=_finite, required=True)
    sp.add_argument("--n-starts", dest="n_starts", type=int, default=10)
    sp.add_argument("--odd", action="store_true")
    sp.add_argument("--max-iters", dest="max_iters", type=int, default=50000)
    _add_shared(sp, L=40.0, h=0.02, seed=True)

    return parser


def _write_outputs(args, grid, results, csvs, elapsed):
    out_root = args.out if args.out is not None else os.environ.get(
        "GPDELTA_OUT", "gpdelta-out"
    )
    out_dir = Path(out_root) / args.command
    out_dir.mkdir(parents=True, exist_ok=True)

    parameters = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("command", "out")
    }
    manifest = {
        "subcommand": args.command,
        "parameters": parameters,
        "tool_version": __version__,
        "grid": _grid_summary(grid),
        # Listed by basename so report.json is byte-identical across runs
        # regardless of where --out points; the directory is implied.
        "outputs": sorted([*csvs, "report.json"]),
        "wall_time_s": None,
    }

    for name, (header, rows) in csvs.items():
        lines = [",".join(header)]
        lines += [",".join(_fmt(c) for c in row) for row in rows]
        (out_dir / name).write_text("\n".join(lines) + "\n")
    report = {"manifest": manifest, "results": results}
    (out_dir / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")

    manifest["wall_time_s"] = elapsed
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return out_dir


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 64

    start = time.perf_counter()
    try:
        grid, results, csvs = _RUNNERS[args.command](args)
        if (key := _nonfinite_key(results)) is not None:
            raise FloatingPointError(f"non-finite result {key}; no file written")
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # after LinAlgError (no convergence), which subclasses it
        print(f"invalid parameters: {err}", file=sys.stderr)
        return 1

    out_dir = _write_outputs(args, grid, results, csvs, time.perf_counter() - start)
    print(f"{args.command}: wrote {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
