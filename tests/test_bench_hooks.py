"""The benchmark's traced run wraps program functions by name.

perfbench/layers.py looks up public functions in several knotcert
modules; a rename there would only surface when a traced benchmark run
starts.  This installs the wrappers in a fresh interpreter (they patch
modules in place) and runs one command through them.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import layers
from knotcert import cli
stats = layers.install()
assert cli.run(["alex", "torus(2,5)"]) == 0
assert {"knots.evaluate", "polynomials.det_poly"} <= set(stats.counts), stats.counts
"""


def test_layer_wrappers_install_and_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
