"""Golden run set: the bytes of every CSV and report.json of a fixed run list are pinned.

The pins in golden/pins.json hold the SHA-256 of each output file, each
report's results block (so a failure names the first key that moved) and the
numpy and scipy versions they were written under. A change that is meant to
move an output rewrites them with

    PYTHONPATH=src python tests/test_golden.py

which first prints each run whose bytes move, with its first moved key as
old -> new, and states those moves where it records the change.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from conftest import run
from gpdelta import grid

PINS = Path(__file__).parent / "golden" / "pins.json"

_SMALL = ("--L", "10", "--h", "0.1")
_SHORT = ("--dt", "0.01", "--t-end", "0.2", "--record-every", "5")
# 100 steps at n = 4001: the only run whose Crank-Nicolson matrix is split.
SPLIT_RUN = ("evolve", "--gamma=-1", "--state", "even-coth", "--perturb-seed", "0",
             "--L", "40", "--h", "0.02", "--dt", "2e-3", "--t-end", "0.2")
RUNS = (
    ("stationary", "--gamma", "1", *_SMALL),
    ("energy-table", *_SMALL),
    ("kernel-check", "--n-queries", "5"),
    ("evolve", "--gamma", "1", "--perturb-seed", "0", *_SMALL, *_SHORT),
    ("stability-sweep", "--gamma=-1", "--n-seeds", "2", *_SMALL, *_SHORT),
    ("spectrum", "--gamma=-1", *_SMALL),
    ("lambda-curve", *_SMALL),
    ("instability", "--gamma", "1", *_SMALL, "--dt", "0.01", "--t-end", "10",
     "--record-every", "10"),
    ("minimize", "--gamma=-1", "--n-starts", "2", "--max-iters", "300", "--L", "10",
     "--h", "0.2"),
    SPLIT_RUN,
)


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _outputs(out: Path, argv) -> tuple[dict, dict]:
    """SHA-256 of each CSV and of report.json of one run into out, and its results block."""
    report, _ = run(out, *argv)
    sub = out / argv[0]
    files = sorted(p for p in sub.iterdir() if p.name != "manifest.json")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}, report["results"]


def _first_move(old, new, key=""):
    """(key, old, new) at the first place, in report order, where two results trees differ."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        pairs = [(f"{key}.{k}" if key else k, old[k], new[k]) for k in sorted(old)]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = [(f"{key}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new))]
    else:
        return None if old == new else (key, old, new)
    return next(filter(None, (_first_move(a, b, k) for k, a, b in pairs)), None)


def _what_moved(pinned: dict, files: dict, results: dict) -> str | None:
    """Where a run's files and results moved from its pin, or None where no byte did."""
    if files == pinned["sha256"]:
        return None
    names = sorted(set(files) | set(pinned["sha256"]))
    where = [f"files {', '.join(n for n in names if files.get(n) != pinned['sha256'].get(n))}"]
    moved = _first_move(pinned["results"], results)
    if moved is not None:
        where.insert(0, f"first moved key {moved[0]}: {moved[1]!r} -> {moved[2]!r}")
    return "; ".join(where)


def test_pins_were_written_under_this_numpy_and_scipy():
    pinned = json.loads(PINS.read_text())["versions"]
    assert pinned == _versions(), f"pinned under {pinned}, run under {_versions()}"


# Each run with the helper thread sweeping block 2, and the split run again with
# both blocks swept inline on one core, against the same pin.
@pytest.mark.parametrize("argv, cores", [(r, 2) for r in RUNS] + [(SPLIT_RUN, 1)],
                         ids=[" ".join(r) for r in RUNS] + ["one core: " + " ".join(SPLIT_RUN)])
def test_outputs_match_their_pins(argv, cores, tmp_path, monkeypatch):
    monkeypatch.setattr(grid, "_usable_cores", lambda: cores)
    pins = json.loads(PINS.read_text())
    where = _what_moved(pins["runs"][" ".join(argv)], *_outputs(tmp_path, argv))
    if where is not None:
        pytest.fail(f"{' '.join(argv)}: outputs moved from their pins ({where}); pinned "
                    f"under {pins['versions']}, run under {_versions()}", pytrace=False)


def _repin() -> None:
    pinned = json.loads(PINS.read_text())["runs"] if PINS.exists() else {}
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(RUNS):
            name = " ".join(argv)
            files, results = _outputs(Path(tmp) / str(i), argv)
            runs[name] = {"sha256": files, "results": results}
            where = "new run" if name not in pinned else _what_moved(pinned[name], files, results)
            if where is not None:
                print(f"{name}: {where}", file=sys.stderr)
    pins = {"versions": _versions(), "runs": runs}
    PINS.write_text(json.dumps(pins, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {PINS}", file=sys.stderr)


if __name__ == "__main__":
    _repin()
