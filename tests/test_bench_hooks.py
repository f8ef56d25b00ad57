"""The benchmark's traced run wraps program functions by name.

perfbench/layers.py looks up public functions in several knotcert
modules; a rename there, or a caller that stops looking a function up
where the wrappers replace it, would only surface as a missing or zero
layer metric in a traced benchmark run.  These install the wrappers in
a fresh interpreter (they patch modules in place) and run one command
through them.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_ALEX = """
import layers
from knotcert import cli
stats = layers.install()
assert cli.run(["alex", "torus(2,5)"]) == 0
assert {"knots.evaluate", "polynomials.det_poly"} <= set(stats.counts), stats.counts
"""

# the sweep must enumerate through obstruction.enumerate_subgroups, or
# the traced subgroups.enumerated metric reads 0
_CERTIFY = """
import layers
from knotcert import cli
stats = layers.install()
assert cli.run([
    "certify", "--pattern", "whitehead:1,1",
    "--family", "mirror(torus(2,3));2*mirror(torus(2,3))",
    "--mode", "exhaustive", "--budget", "2",
]) == 0
for name in ("subgroups.enumerate", "obstruction.sweep"):
    assert stats.counts.get(name, 0) > 0, (name, stats.counts)
"""


def _run_traced(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_layer_wrappers_install_and_run():
    _run_traced(_ALEX)


def test_layer_wrappers_count_the_certify_sweep():
    _run_traced(_CERTIFY)
