"""Guard for the gpdelta names that `benchmarks/` calls.

The benchmark's own smoke test sits outside this suite's testpaths, so a
change that deletes a name the benchmark pins (a traced function, a
`Trajectory` attribute, a command-line flag of its tiny sizes) would
otherwise pass here. This test only reads `benchmarks/`.
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_benchmark_reaches_every_name_it_pins(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracer
    import workloads

    # install() looks up every wrapped function and method.
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()

    # The tiny sizes fail numeric checks by design; only an exception counts.
    raised = []

    def recording(name, experiment):
        def run(*args):
            try:
                experiment(*args)
            except Exception as err:
                raised.append(f"{name}: {type(err).__name__}: {err}")
                raise
        return run

    for workload, experiments in workloads.EXPERIMENTS.items():
        monkeypatch.setitem(workloads.EXPERIMENTS, workload,
                            tuple((name, recording(name, fn)) for name, fn in experiments))
    for workload in workloads.WORKLOADS:
        workloads.run_pass(workload, 0, tmp_path / workload, workloads.Sizes(tiny=True))
    assert not raised, "\n".join(raised)
