"""Run one gpdelta benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload dynamics --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout; it imports gpdelta from `src/`
and exits 2 without a result when that is missing. The workload repeats its
experiment sequence while another full pass fits in `--seconds` (at least
one pass) and reports medians over the passes. With `--trace 1` it runs one
untraced pass, then one traced pass, and reports the per-layer metrics and
the tracing overhead instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it holds the
workload's own experiment metrics. The full record, with the machine it ran
on, is written to `.bench_out/<workload>-trace<0|1>.json`, and a traced run
writes its spans to `.bench_out/<workload>.spans.csv.gz`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5

# Starts a fresh interpreter and prints once gpdelta.cli is imported and ready.
_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import gpdelta.cli as cli; "
          "cli.build_parser(); print(cli.__file__, flush=True)")


def setup_seconds() -> float:
    """Median of SETUP_PROBES process starts, each up to a ready gpdelta.cli."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _PROBE, str(SRC)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            proc.communicate(timeout=60)
        if proc.returncode != 0 or not Path(line).is_relative_to(SRC):
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}, {line!r})")
    return statistics.median(times)


def _blas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS, asked through its own API."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gpdelta").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def blas_version(mod):
        return mod.__config__.CONFIG["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(workload: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Run the workload and return the full record (see the module docstring)."""
    from tracer import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOAD_METRICS, Sizes, run_pass

    size = size or Sizes()
    OUT.mkdir(exist_ok=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    setup_s = None if trace else setup_seconds()
    import gpdelta.cli

    if not Path(gpdelta.cli.__file__).is_relative_to(SRC):
        raise RuntimeError(f"gpdelta imported from {gpdelta.cli.__file__}, not {SRC}")

    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            passes.append(run_pass(workload, seed, Path(tmp), size))
        if trace or time.perf_counter() - t_start + (time.perf_counter() - t0) > seconds:
            break

    untraced = list(passes)
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                traced = run_pass(workload, seed, Path(tmp), size, tracer=tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        values = layer_metrics(tracer)
        values["trace.overhead_s"] = traced.wall_s - untraced[0].wall_s
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
        tracer.write(OUT / f"{workload}.spans.csv.gz")
    else:
        failed = sum(len(p.failures) for p in passes)
        tried = sum(p.attempted for p in passes)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": _median(p.wall_s for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "pass_frac": {"value": (tried - failed) / tried, "unit": "ratio"},
        }
    failures = [f for p in passes for f in p.failures]

    workload_metrics = {}
    for name, unit in WORKLOAD_METRICS[workload].items():
        value = _median(p.timings[name] if name in p.timings else p.values.get(name)
                        for p in untraced)
        workload_metrics[name] = {"value": value, "unit": unit}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(),
        "passes": [
            {"wall_s": p.wall_s, "timings": dict(p.timings), "values": p.values,
             "attempted": p.attempted, "failures": p.failures, "traced": i >= len(untraced)}
            for i, p in enumerate(passes)
        ],
        "workload_metrics": workload_metrics,
        "result": {"correct": not failures, "attempted": sum(p.attempted for p in passes),
                   "failed": len(failures), "metrics": metrics},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gpdelta" / "cli.py").is_file():
        print(f"no gpdelta sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Seeds reach numpy generators and the CLI, which take non-negative ints.
    record = measure(args.workload, args.seed % 2**32, args.seconds, bool(args.trace))
    record["seed"] = args.seed
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for p in record["passes"]:
        for name, why in p["failures"]:
            print(f"FAILED {name}: {why}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": len(record["passes"]),
                      "workload_metrics": record["workload_metrics"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
