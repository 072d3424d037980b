"""Contract tests for the command-line front end.

Runs subcommands in-process on deliberately small grids; the physics bounds
here are smoke-level, the real accuracy checks live in the module suites and
in test_acceptance.py.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gpdelta
from conftest import run
from gpdelta import cli, propagator, variational
from gpdelta.cli import main

PROVENANCES = {"closed_form", "discrete", "fitted"}


def walk_value_dicts(node):
    if isinstance(node, dict):
        if "value" in node and "provenance" in node:
            yield node
        else:
            for v in node.values():
                yield from walk_value_dicts(v)
    elif isinstance(node, list):
        for v in node:
            yield from walk_value_dicts(v)


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 64
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["spectrum", "--does-not-exist", "1"]) == 64
    assert main(["not-a-subcommand"]) == 64
    assert main(["energy-table", "--jobs", "2"]) == 64
    assert main(["stationary", "--gamma", "1", "--format", "csv"]) == 64
    # Non-finite numbers are refused at the parse edge, like --gamma abc.
    assert main(["minimize", "--gamma", "nan"]) == 64
    assert main(["stationary", "--gamma", "inf"]) == 64
    assert main(["stationary", "--gamma", "1", "--L", "inf"]) == 64
    assert main(["evolve", "--gamma", "1", "--t-end", "inf"]) == 64
    assert main(["instability", "--gamma", "1", "--h-run", "-inf"]) == 64
    assert "expected a finite number, got 'nan'" in capsys.readouterr().err
    # numpy refuses a negative seed without naming the flag; the parser names it.
    for argv in (["kernel-check", "--seed", "-1"], ["minimize", "--gamma", "1", "--seed", "-1"],
                 ["evolve", "--gamma", "1", "--perturb-seed", "-1"]):
        assert main(argv) == 64
        assert f"{argv[-2]}: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    # Flags a subcommand never reads are not declared.
    for sub, flag in (
        ("stationary", "--dt"), ("stationary", "--seed"),
        ("energy-table", "--dt"), ("energy-table", "--seed"),
        ("kernel-check", "--L"), ("kernel-check", "--h"), ("kernel-check", "--dt"),
        ("evolve", "--seed"), ("stability-sweep", "--seed"),
        ("spectrum", "--dt"), ("spectrum", "--seed"),
        ("lambda-curve", "--dt"), ("lambda-curve", "--seed"),
        ("instability", "--seed"), ("minimize", "--dt"), ("minimize", "--grad-tol"),
    ):
        gamma = [] if sub in ("energy-table", "kernel-check", "lambda-curve") else ["--gamma", "1"]
        assert main([sub, *gamma, flag, "1"]) == 64, (sub, flag)
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_invalid_parameters_exit_1(tmp_path, capsys, monkeypatch):
    # Every minimize case here is refused before its first flow.
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the inputs were checked")

    def no_spectrum(*args, **kwargs):
        raise AssertionError("a spectral solve ran before eps was checked")

    monkeypatch.setattr(variational, "gradient_flow", no_flow)
    # Every instability case here is refused before its spectral solve.
    monkeypatch.setattr(cli, "instability_eigenvalue", no_spectrum)
    assert main(["minimize", "--gamma", "0", "--out", str(tmp_path)]) == 1
    assert "gamma != 0" in capsys.readouterr().err
    assert main(["stationary", "--gamma", "1", "--L", "2", "--h", "3",
                 "--out", str(tmp_path)]) == 1
    assert main(["energy-table", "--gammas=1,oops", "--out", str(tmp_path)]) == 1
    assert main(["lambda-curve", "--gammas=0,inf", "--out", str(tmp_path)]) == 1
    assert "expected a finite number, got 'inf'" in capsys.readouterr().err
    assert main(["stability-sweep", "--gamma", "1", "--n-seeds", "0",
                 "--out", str(tmp_path)]) == 1
    assert "--n-seeds 0" in capsys.readouterr().err
    assert main(["evolve", "--gamma", "1", "--L", "10", "--h", "0.1",
                 "--perturb-seed", "1", "--target-d0", "0", "--out", str(tmp_path)]) == 1
    assert "target_d0 must be positive" in capsys.readouterr().err
    # Without --perturb-seed nothing is perturbed, so a target would only be recorded.
    assert main(["evolve", "--gamma", "1", "--L", "10", "--h", "0.1", "--dt", "0.01",
                 "--t-end", "0.1", "--target-d0", "0.3", "--out", str(tmp_path)]) == 1
    assert "--target-d0 needs --perturb-seed" in capsys.readouterr().err
    # The constant background is never perturbed, so a seed would only be recorded.
    assert main(["evolve", "--gamma", "0", "--state", "constant", "--perturb-seed", "3",
                 "--L", "10", "--h", "0.1", "--out", str(tmp_path)]) == 1
    assert "the constant background takes no --perturb-seed" in capsys.readouterr().err
    assert main(["instability", "--gamma", "1", "--L", "10", "--h", "0.1", "--eps", "0",
                 "--t-end", "1", "--out", str(tmp_path)]) == 1
    assert "eps must be positive, got 0" in capsys.readouterr().err
    # The growth-rate fit window [10 eps, 1e-2] is empty from eps = 1e-3 on.
    assert main(["instability", "--gamma", "1", "--L", "10", "--h", "0.1", "--eps", "2e-3",
                 "--t-end", "1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "eps must be below 1e-3, got 0.002" in err and "[10 eps, 1e-2]" in err
    # eps went unchecked where no growing mode was found, as at gamma = 30 on this box.
    for eps, message in (("5", "eps must be below 1e-3, got 5"),
                         ("0", "eps must be positive, got 0"),
                         ("-1", "eps must be positive, got -1")):
        assert main(["instability", "--gamma", "30", "--L", "10", "--h", "0.1", "--eps", eps,
                     "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
    # 10.5 steps used to run 10 and report t_end 0.01 beside a recorded 0.0105.
    assert main(["evolve", "--gamma", "1", "--L", "10", "--h", "0.1", "--t-end", "0.0105",
                 "--dt", "0.001", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "t_end 0.0105" in err and "dt 0.001" in err and "t_end/dt = 10.5" in err
    assert main(["minimize", "--gamma", "1", "--L", "10", "--h", "0.2", "--n-starts", "0",
                 "--out", str(tmp_path)]) == 1
    assert "need at least one start, got --n-starts 0" in capsys.readouterr().err
    # The extrapolated energy coarsens by 2; an odd M used to fail after every flow.
    assert main(["minimize", "--gamma", "1", "--L", "10.5", "--h", "0.02", "--n-starts", "2",
                 "--out", str(tmp_path)]) == 1
    assert "even M, got M = 525" in capsys.readouterr().err
    # 10 / 0.3 would silently become 33 cells of 0.30303.
    assert main(["spectrum", "--gamma", "1", "--L", "10", "--h", "0.3",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "--L 10" in err and "--h 0.3" in err and "L/h = 33.3333" in err
    assert not any(tmp_path.iterdir())


def test_divergent_timestep_exits_2(tmp_path, capsys):
    code = main(["evolve", "--gamma", "1", "--L", "10", "--h", "0.1",
                 "--dt", "5", "--t-end", "20", "--perturb-seed", "1",
                 "--target-d0", "0.3", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure: step to t=5 failed: midpoint iteration diverged" in err
    # Measured: non-finite at iteration 12, after a residual of 3.31e+140.
    assert re.search(r"non-finite at iteration 12; last finite residual "
                     r"\d\.\d\de\+\d+ at iteration 11\)", err)
    assert "nan" not in err
    assert not (tmp_path / "evolve").exists()


def test_reports_are_byte_identical_across_runs_and_out_dirs(tmp_path):
    for d in ("a", "b"):
        assert main(["stationary", "--gamma", "-1", "--L", "12", "--h", "0.05",
                     "--out", str(tmp_path / d)]) == 0
    for name in ("report.json", "profiles.csv"):
        one = (tmp_path / "a" / "stationary" / name).read_bytes()
        two = (tmp_path / "b" / "stationary" / name).read_bytes()
        assert one == two


def test_instability_report_is_byte_identical_across_runs(tmp_path):
    # The sparse eigen-solve starts from a fixed vector and pins the mode's
    # sign, so the initial perturbation, and with it every reported number,
    # repeats exactly. --h-run is a second spelling of --h.
    flags = ["--gamma", "1", "--L", "10", "--t-end", "2"]
    for d, h in (("a", "--h"), ("b", "--h-run")):
        assert main(["instability", *flags, h, "0.1", "--out", str(tmp_path / d)]) == 0
    for name in ("report.json", "growth.csv"):
        one = (tmp_path / "a" / "instability" / name).read_bytes()
        two = (tmp_path / "b" / "instability" / name).read_bytes()
        assert one == two


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.integrate"])
def test_cli_import_does_not_load(module):
    # scipy.signal nearly doubles the start-up time of every subcommand, and
    # the kernel quadrature needs nothing from scipy.integrate.
    src = str(Path(gpdelta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = f"import sys, gpdelta.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_manifest_contract(tmp_path):
    report, manifest = run(tmp_path, "stationary", "--gamma", "1",
                           "--L", "12", "--h", "0.05")
    embedded = report["manifest"]
    assert embedded["subcommand"] == "stationary"
    assert embedded["tool_version"] == gpdelta.__version__
    assert embedded["wall_time_s"] is None  # kept out of the deterministic copy
    assert "out" not in embedded["parameters"]
    assert "jobs" not in embedded["parameters"]
    assert "format" not in embedded["parameters"]
    assert "dt" not in embedded["parameters"]  # stationary has no time step
    assert "seed" not in embedded["parameters"]  # nor anything random
    assert embedded["parameters"]["gamma"] == 1.0
    assert embedded["grid"] == {"L": 12.0, "h": 0.05, "M": 240, "n_nodes": 481}
    assert embedded["outputs"] == ["profiles.csv", "report.json"]
    assert manifest["wall_time_s"] > 0.0
    assert manifest["outputs"] == ["profiles.csv", "report.json"]


class _ReadLog(argparse.Namespace):
    """Namespace that records which attributes the runner reads."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_reads", set()).add(name)
        return object.__getattribute__(self, name)


# Small flags that also reach the conditional reads: --target-d0 needs a
# perturbation, and instability's run flags need a growing mode (gamma > 0).
_READ_CASES = {
    "stationary": ["--gamma", "-1", "--L", "10", "--h", "0.1"],
    "energy-table": ["--gammas=1,-1", "--L", "10", "--h", "0.1"],
    "kernel-check": ["--n-queries", "1"],
    "evolve": ["--gamma", "1", "--perturb-seed", "0", "--L", "10", "--h", "0.1",
               "--dt", "0.01", "--t-end", "0.05"],
    "stability-sweep": ["--gamma", "1", "--n-seeds", "1", "--L", "10", "--h", "0.1",
                        "--dt", "0.01", "--t-end", "0.05"],
    "spectrum": ["--gamma", "1", "--L", "10", "--h", "0.1"],
    "lambda-curve": ["--gammas=0.01", "--L", "10", "--h", "0.1"],
    "instability": ["--gamma", "1", "--L", "10", "--h", "0.1", "--t-end", "0.5"],
    "minimize": ["--gamma", "1", "--L", "10", "--h", "0.2", "--n-starts", "1",
                 "--max-iters", "50"],
}


def _reject_constant(name):
    raise ValueError(f"report.json holds the non-JSON constant {name}")


@pytest.mark.parametrize("sub", sorted(cli._RUNNERS))
def test_every_declared_flag_is_read(sub, tmp_path):
    # A flag the runner never reads is still written to manifest.parameters,
    # where it looks like it shaped the run.
    argv = [sub, *_READ_CASES[sub], "--out", str(tmp_path)]
    ns = cli.build_parser().parse_args(argv, namespace=_ReadLog())
    ns._reads = set()
    grid, results, csvs = cli._RUNNERS[sub](ns)
    declared = {k for k in vars(ns) if not k.startswith("_")} - {"command", "out"}
    assert declared - ns._reads == set()
    # The report is strict JSON: a non-finite result must not leak in as NaN.
    args = argparse.Namespace(**{k: v for k, v in vars(ns).items() if not k.startswith("_")})
    out_dir = cli._write_outputs(args, grid, results, csvs, 0.0)
    json.loads((out_dir / "report.json").read_text(), parse_constant=_reject_constant)


def test_every_reported_numeric_carries_provenance(tmp_path):
    report, _ = run(tmp_path, "stationary", "--gamma", "-1",
                    "--L", "12", "--h", "0.05")
    wrapped = list(walk_value_dicts(report["results"]))
    assert len(wrapped) >= 12  # 3 families x 4 quantities
    assert all(w["provenance"] in PROVENANCES for w in wrapped)
    fams = report["results"]
    assert fams["even_tanh"]["energy_closed_form"]["provenance"] == "closed_form"
    assert fams["even_coth"]["energy_extrapolated"]["provenance"] == "discrete"


def test_csv_single_header_and_17g_round_trip(tmp_path):
    run(tmp_path, "stationary", "--gamma", "1", "--L", "12", "--h", "0.05")
    lines = (tmp_path / "stationary" / "profiles.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "x"
    assert len(lines) == 1 + 481
    for cell in lines[240].split(","):
        v = float(cell)  # every data cell parses
        assert f"{v:.17g}" == cell  # and the text is the shortest-exact form


def test_env_var_sets_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GPDELTA_OUT", str(tmp_path / "envout"))
    assert main(["spectrum", "--gamma", "1", "--L", "10", "--h", "0.05"]) == 0
    assert (tmp_path / "envout" / "spectrum" / "report.json").exists()


def test_energy_table_rows_and_accuracy(tmp_path):
    report, _ = run(tmp_path, "energy-table", "--gammas=1,-1",
                    "--L", "15", "--h", "0.01")
    res = report["results"]
    assert res["n_rows"] == 5  # kink+tanh at +1, kink+tanh+coth at -1
    assert res["max_abs_error"]["value"] < 5e-9  # coth extrapolation residual
    families = {(r["gamma"], r["family"]) for r in res["rows"]}
    assert (-1.0, "even_coth") in families and (1.0, "even_tanh") in families


def test_kernel_check_accuracy(tmp_path):
    # Seed 113's 11th query (t = 4.0e-4, a = 16.1) needs 3.4e6 phase
    # crossings on the real line.
    for seed, n in (("0", 4), ("113", 11)):
        out = tmp_path / seed
        report, _ = run(out, "kernel-check", "--n-queries", str(n), "--seed", seed)
        res = report["results"]
        assert res["max_rel_error"]["value"] < 1e-9
        assert res["max_split_error"]["value"] < 1e-10
        lines = (out / "kernel-check" / "queries.csv").read_text().splitlines()
        assert len(lines) == 1 + n


def test_kernel_quadrature_failure_exits_2(tmp_path, capsys, monkeypatch):
    # Orders this low cannot agree: the path rule must raise, not return.
    monkeypatch.setattr(propagator, "_ORDERS", (2, 4))
    code = main(["kernel-check", "--n-queries", "1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure: kernel quadrature did not converge at t = " in err
    assert ", a = " in err and ", gamma = " in err
    assert "orders 2 and 4 differ by " in err
    assert not (tmp_path / "kernel-check").exists()


def test_instability_eps_is_refused_when_the_fit_window_holds_too_few_points(tmp_path, capsys):
    # At rate 0.363, dt = 1e-3 and 50 steps a record, the window [10 eps, 1e-2]
    # is predicted to hold 0.55 points at eps = 9.9e-4 (measured: 0) and 5.8 at
    # 9e-4 (measured: 6). The refusal comes before the evolution starts.
    flags = ["instability", "--gamma", "1", "--L", "15", "--h", "0.05", "--t-end", "12"]
    assert main([*flags, "--eps", "9.9e-4", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "eps 0.00099 at growth rate 0.36" in err and "about 0.55 recorded points" in err
    assert "[10 eps, 1e-2] = [0.0099, 1e-2]; the fit needs 4" in err
    assert not any(tmp_path.iterdir())
    report, _ = run(tmp_path, *flags, "--eps", "9e-4")
    assert report["results"]["window_points"] >= 4
    assert report["results"]["fitted_rate"]["value"] is not None


@pytest.mark.parametrize("argv, key", [
    (["stationary", "--gamma=-1e200"], "even_coth.energy_closed_form.value"),
    (["energy-table", "--gammas=-1e200"], "rows[2].closed_form.value"),
])
def test_non_finite_result_exits_2_and_writes_nothing(argv, key, tmp_path, capsys):
    # The even-coth origin value ~ |gamma| / (2 sqrt 2) overflows when raised
    # to the fourth power; the report would hold Infinity and NaN.
    assert main([*argv, "--L", "10", "--h", "0.1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"numerical failure: non-finite result {key}; no file written" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, stage", [
    # tau gamma^2 / 4 overflows before the flow starts.
    pytest.param(["minimize", "--gamma=-1e300", "--n-starts", "1"],
                 "gradient-flow preconditioner: the shift 1 + tau gamma^2/4 overflows at "
                 "gamma=-1e+300, tau=0.9", id="minimize"),
    # The quartic along the first direction overflows in np.roots, which raised
    # numpy's LinAlgError, a ValueError, after an overflow warning: exit 1.
    pytest.param(["minimize", "--gamma=-1e77", "--n-starts", "1"],
                 "gradient-flow line search: no finite minimum at iteration 1, gamma=-1e+77",
                 id="minimize-quartic-overflow"),
    # The quartic's leading terms underflow to 0, so it has no critical point:
    # "attempt to get argmin of an empty sequence", exit 1.
    pytest.param(["minimize", "--gamma=-1e120", "--n-starts", "1"],
                 "gradient-flow line search: no finite minimum at iteration 3, gamma=-1e+120",
                 id="minimize-no-critical-point"),
    # The state's energy is NaN before any step is taken; no numpy warning
    # reaches the user ahead of the message.
    pytest.param(["evolve", "--gamma=-1e200", "--state", "even-coth", "--dt", "0.01",
                  "--t-end", "0.02"], "initial state: energy at t=0 is nan; no step taken",
                 id="evolve"),
])
def test_edge_coupling_failure_names_its_stage(argv, stage, tmp_path, capsys):
    assert main([*argv, "--L", "10", "--h", "0.1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"numerical failure: {stage}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("target, stage", [
    # Sizing the first bracket as target / ((d0(1) - target) + target) cancelled
    # d0(1) to 0 at both targets: "float division by zero".
    ("1e17", "step to t=0.01 failed: midpoint iteration diverged"),
    ("1e300", "perturbation scale search: d0 is inf at scale 1.61e+299, "
              "so target_d0=1e+300 is out of reach"),
])
def test_a_huge_target_d0_fails_at_a_named_stage(target, stage, tmp_path, capsys):
    assert main(["evolve", "--gamma", "1", "--perturb-seed", "1", "--L", "10", "--h", "0.1",
                 "--dt", "0.01", "--t-end", "0.01", "--target-d0", target,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {stage}") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("target, reached", [
    # The bumps vanish below the soliton's ulp, so the run would be unperturbed.
    ("1e-300", "0"),
    # d0 is rounding noise here; the root find stopped on a jump in it.
    ("1e-12", "3.52e-13"),
])
def test_a_target_d0_lost_in_rounding_exits_1(target, reached, tmp_path, capsys):
    assert main(["evolve", "--gamma", "1", "--perturb-seed", "1", "--L", "10", "--h", "0.1",
                 "--dt", "0.01", "--t-end", "0.01", "--target-d0", target,
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ("invalid parameters: perturbation scale search: "
                                       f"d0 {reached} misses target_d0={target}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["stationary", "--gamma", "1"],
    ["energy-table", "--gammas=1"],
    ["minimize", "--gamma", "1"],
])
def test_a_grid_too_coarse_to_extrapolate_names_its_own_m(argv, tmp_path, capsys, monkeypatch):
    # M = 2 coarsens to M = 1, which the coarse grid used to blame; minimize
    # used to find out only after its first flow.
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran on a grid the extrapolation refuses")

    monkeypatch.setattr(variational, "gradient_flow", no_flow)
    assert main([*argv, "--L", "1", "--h", "0.5", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "invalid parameters: the extrapolated energy coarsens by 2: it needs at least 4 "
        "intervals per half line and an even M, got M = 2\n")
    assert not any(tmp_path.iterdir())


_TINY = ["--L", "10", "--h", "0.1"]
_STEPS = ["--dt", "0.01", "--t-end", "0.01"]
# The finest grid crossed with large couplings: gamma/h = +-1e450 is not a double.
_CROSS = ["--L", "1e-149", "--h", "1e-150"]


def _coupling_runs(g):
    """argv of each subcommand that takes a coupling, at coupling g."""
    gamma, gammas = f"--gamma={g}", f"--gammas={g}"
    return (["stationary", gamma], ["energy-table", gammas],
            ["evolve", gamma, *_STEPS], ["spectrum", gamma], ["lambda-curve", gammas],
            ["stability-sweep", gamma, "--n-seeds", "1", *_STEPS],
            ["instability", gamma, *_STEPS],
            ["minimize", gamma, "--n-starts", "1", "--max-iters", "50"])


def _edge_table():
    """(argv, whether the grid must be refused) for every edge input below."""
    for g in ("1e-300", "-1e-300", "1e80", "-1e80", "1e300", "-1e300"):
        for argv in _coupling_runs(g):
            yield [*argv, *_TINY], False
    for g in ("1", "1e300", "-1e300"):
        for argv in _coupling_runs(g):
            yield [*argv, *_CROSS], False
    yield ["kernel-check", "--n-queries", "2"], False
    for state in ("kink", "even-tanh", "even-coth", "constant"):
        for seed in ([], ["--perturb-seed", "0"]):
            yield ["evolve", "--gamma=-1", "--state", state, *seed, *_TINY, *_STEPS], False
    for odd in ([], ["--odd"]):
        yield ["minimize", "--gamma", "1", "--n-starts", "1", "--max-iters", "50", *odd,
               *_TINY], False
    for dt in ("1e-300", "1e300"):
        yield ["evolve", "--gamma", "1", *_TINY, "--dt", dt, "--t-end", dt], False
    # Past these spacings 2/h^2 is not a finite, nonzero double: the grid is refused.
    for grid in (["--L", "1e-300", "--h", "1e-301"], ["--L", "1e300", "--h", "1e299"]):
        yield ["evolve", "--gamma", "1", *grid, *_STEPS], True
        yield ["spectrum", "--gamma", "1", *grid], True
    yield ["minimize", "--gamma", "1", "--L", "1e300", "--h", "0.25e300", "--n-starts", "1"], True


def test_edge_inputs_give_a_clean_report_or_one_message(tmp_path, capsys):
    # Each run either exits 0 with a strict-JSON report and a silent stderr, or
    # exits 1 or 2 with one stderr line and no file; no traceback, no warning.
    def strict(text):
        return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in report"))

    failures = []
    for i, (argv, refused) in enumerate(_edge_table()):
        out = tmp_path / str(i)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([*argv, "--out", str(out)])
            except Exception as err:
                code = f"{type(err).__name__}: {err}"
        err = capsys.readouterr().err
        if code == 0:
            strict((out / argv[0] / "report.json").read_text())
            ok = err == ""
        else:
            ok = code in (1, 2) and err.count("\n") == 1 and not out.exists()
        if refused:
            ok = ok and code == 1 and "got h=" in err
        if not ok or caught:
            failures.append(f"{' '.join(argv)}: exit {code}, stderr {err!r}, "
                            f"warnings {[str(w.message) for w in caught]}")
    assert not failures, "\n".join(failures)


def test_cross_edges_exit_with_the_code_of_their_failure(tmp_path, capsys):
    # At gamma = 1 on the finest grid the tridiagonal eigen-solver does not
    # converge: a numerical failure, though scipy's LinAlgError is a ValueError,
    # reported with its stage, gamma and the grid.
    # At |gamma| = 1e300 every run that builds H_gamma is refused there, naming
    # gamma and h. At -1e300 the sweep's seeded even-coth state and instability's
    # sign check fail first; stationary and energy-table build no H_gamma.
    builds = {"1e300": ("evolve", "stability-sweep", "spectrum", "lambda-curve", "instability",
                        "minimize"),
              "-1e300": ("evolve", "spectrum", "lambda-curve", "minimize")}
    where = "at gamma=1, L=1e-149, h=1e-150: stebz"
    expected = [(["spectrum", "--gamma=1"], 2, f"spectral report {where}"),
                (["lambda-curve", "--gammas=1"], 2, f"lambda curve {where}"),
                (["instability", "--gamma=1", *_STEPS], 2, f"instability eigenvalue {where}")]
    for g, subcommands in builds.items():
        named = f"gamma/h is not a finite double at gamma={float(g):g}, h=1e-150"
        expected += [(argv, 1, named) for argv in _coupling_runs(g) if argv[0] in subcommands]
    failures = []
    for i, (argv, code, message) in enumerate(expected):
        got = main([*argv, *_CROSS, "--out", str(tmp_path / str(i))])
        err = capsys.readouterr().err
        if got != code or message not in err:
            failures.append(f"{' '.join(argv)}: exit {got}, stderr {err!r}")
    assert not failures, "\n".join(failures)


def test_lambda_curve_flags_an_absorbed_point_without_a_warning(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report, _ = run(tmp_path, "lambda-curve", "--gammas=1", "--L", "1", "--h", "0.5")
    assert caught == [] and capsys.readouterr().err == ""
    assert report["results"]["points"][0]["absorbed"] is True
    assert (tmp_path / "lambda-curve" / "curve.csv").read_text().endswith(",1\n")


def test_evolve_perturbed_soliton(tmp_path):
    report, manifest = run(tmp_path, "evolve", "--gamma", "1", "--L", "20",
                           "--h", "0.05", "--dt", "0.01", "--t-end", "0.5",
                           "--perturb-seed", "0")
    res = report["results"]
    assert res["energy_drift"]["value"] < 1e-9
    assert 0.02 < res["sup_orbit_distance"]["value"] < 0.06
    assert (tmp_path / "evolve" / "final.csv").exists()
    assert (tmp_path / "evolve" / "trace.csv").exists()
    assert manifest["parameters"]["target_d0"] == 0.04  # the default distance


def test_evolve_constant_background_has_no_orbit_column(tmp_path):
    report, _ = run(tmp_path, "evolve", "--gamma", "0", "--state", "constant",
                    "--L", "10", "--h", "0.1", "--dt", "0.01", "--t-end", "0.2")
    assert report["results"]["sup_orbit_distance"]["value"] is None
    assert report["manifest"]["parameters"]["target_d0"] is None  # nothing perturbed
    header = (tmp_path / "evolve" / "trace.csv").read_text().splitlines()[0]
    assert header == "t,energy"


def test_stability_sweep_smoke(tmp_path):
    # The sweep picks its family by the sign of gamma.
    for gamma, family in (("1", "even_tanh"), ("-1", "even_coth")):
        report, _ = run(tmp_path, "stability-sweep", f"--gamma={gamma}", "--L", "15",
                        "--h", "0.05", "--dt", "0.01", "--t-end", "2",
                        "--n-seeds", "2")
        res = report["results"]
        assert res["family"] == family
        assert res["max_sup_d0"]["value"] < 0.1
        assert res["max_energy_drift"]["value"] < 1e-8
        lines = (tmp_path / "stability-sweep" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2
        # Each start is scaled to sit at the default --target-d0 0.04.
        col = lines[0].split(",").index("d0_initial")
        for line in lines[1:]:
            assert float(line.split(",")[col]) == pytest.approx(0.04, rel=1e-4)


def test_spectrum_negative_gamma_counts(tmp_path):
    report, _ = run(tmp_path, "spectrum", "--gamma", "-1",
                    "--L", "20", "--h", "0.02")
    res = report["results"]
    assert res["n_neg_minus"] == 1
    assert res["n_neg_plus"] == 1
    assert res["lplus_eigs"][0]["value"] < 0.0
    assert res["lplus_eigs"][0]["provenance"] == "discrete"


def test_lambda_curve_slope_near_origin(tmp_path):
    report, _ = run(tmp_path, "lambda-curve", "--gammas=-0.01,0,0.01",
                    "--L", "20", "--h", "0.02")
    res = report["results"]
    assert abs(res["points"][1]["lambda1"]["value"]) < 1e-4
    assert abs(res["fitted_slope"]["value"] - 3.0 * math.sqrt(2.0) / 8.0) < 5e-3
    assert res["fitted_slope"]["provenance"] == "fitted"
    assert not any(p["absorbed"] for p in res["points"])
    # One distinct gamma fixes no line, however often it is repeated.
    report, _ = run(tmp_path / "repeated", "lambda-curve", "--gammas=0.01,0.01",
                    "--L", "10", "--h", "0.1")
    assert report["results"]["fitted_slope"] == {"value": None, "provenance": "fitted"}


def test_instability_spectral_vs_fitted_rate(tmp_path):
    report, _ = run(tmp_path, "instability", "--gamma", "1", "--L", "20",
                    "--h", "0.05", "--dt", "0.005",
                    "--t-end", "14")
    res = report["results"]
    assert res["mu_min"]["value"] < 0.0
    rate = res["growth_rate"]["value"]
    assert rate == pytest.approx(math.sqrt(-res["mu_min"]["value"]))
    assert res["window_points"] > 10
    assert res["rel_deviation"]["value"] < 0.1
    assert res["fitted_rate"]["provenance"] == "fitted"
    assert (tmp_path / "instability" / "growth.csv").exists()


def test_minimize_converges_on_a_small_box(tmp_path):
    # The end modulus of this box's minimizer is not 1; measured 95 and 103
    # iterations.
    report, _ = run(tmp_path, "minimize", "--gamma=1", "--n-starts", "2", "--seed", "3",
                    "--L", "10", "--h", "0.2", "--max-iters", "300")
    res = report["results"]
    assert res["n_converged"] == 2
    assert res["basins"] == {"even_tanh": 2}


def test_minimize_finds_even_orbit(tmp_path, monkeypatch):
    monkeypatch.setattr(variational, "_GRAD_TOL", 1e-5)
    report, _ = run(tmp_path, "minimize", "--gamma", "1", "--L", "14",
                    "--h", "0.1", "--n-starts", "2")
    res = report["results"]
    assert res["basins"] == {"even_tanh": 2}
    assert res["n_converged"] == 2
    assert res["max_orbit_distance"]["value"] < 2e-3
    for s in res["starts"]:
        assert abs(s["energy_extrapolated"]["value"] - 0.359475708248730) < 1e-7
