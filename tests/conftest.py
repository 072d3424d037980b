"""Shared helpers of the test suites."""

import contextlib
import io
import json

from gpdelta.cli import main


def run(out, *argv):
    """Run one subcommand into `out`; return its parsed report.json and manifest.json.

    The "wrote <dir>" line is swallowed, so `-s` shows only the CRITERION lines.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    assert code == 0
    sub = out / argv[0]
    report = json.loads((sub / "report.json").read_text())
    manifest = json.loads((sub / "manifest.json").read_text())
    return report, manifest
