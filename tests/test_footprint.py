"""Memory footprint guards: bounded caches, lazy imports, lean tensors.

A long-lived process that meets many distinct knots (the signature
engine on dense Seifert matrices, say) must not keep every one of them,
a process that never hashes a witness digest must not load OpenSSL, one
whose double-precision signature pass certifies every sign must not load
mpmath, and building the sweep's code tensor must not cost many times
its size.
"""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import knotcert as kc
from knotcert import covers, knots, obstruction, signatures
from strategies import dense_conjugate

ROOT = Path(__file__).resolve().parent.parent

CACHE_BOUNDS = {
    knots.evaluate: 64,
    knots._alexander_of_block: 64,
    covers.cover_presentation: 64,
    signatures._block_signature: 256,
    obstruction._cg_interval: 4096,
}


def test_per_knot_caches_stay_bounded():
    rng = random.Random(100)
    zero, wh11 = kc.CGProfile.zero(), kc.whitehead_cover(1, 1)
    third = kc.Character((Fraction(1, 3),))
    base = kc.evaluate(kc.torus(2, 7)).rows
    seen = set()
    while len(seen) < 100:
        rows = dense_conjugate(base, rng)
        key = tuple(map(tuple, rows))
        if key in seen:
            continue
        seen.add(key)
        e = kc.raw(rows)
        kc.alexander_polynomial(e)
        # a root of Delta, a regular point and the conjugate of the root
        for x in (Fraction(1, 14), Fraction(1, 3), Fraction(13, 14)):
            kc.levine_tristram(e, x)
        kc.homology_from_seifert(kc.evaluate(e))
        kc.satellite_cg_value(zero, wh11, third, e)
    # more (knot, character) pairs than the memo holds, cheaply: the
    # unknot against the characters of a cyclic cover of order 5199
    cover = kc.whitehead_cover(1, 1300)
    for c in range(1, 4200):
        kc.satellite_cg_value(zero, cover, kc.Character((Fraction(c, 5199),)),
                              kc.unknot())
    for fn, bound in CACHE_BOUNDS.items():
        info = fn.cache_info()
        assert info.misses >= 100, (fn.__name__, info)
        assert info.currsize <= bound, (fn.__name__, info)


_NO_HASHLIB = """
import sys
import knotcert, knotcert.cli
from knotcert import cli
assert cli.run(["alex", "torus(2,5)"]) == 0
assert "hashlib" not in sys.modules, "hashlib was imported"
"""


def test_hashlib_is_not_loaded_without_a_digest():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_HASHLIB], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


_NO_MPMATH = """
import sys
import knotcert.cli
assert "mpmath" not in sys.modules, "import knotcert.cli loaded mpmath"
from knotcert import cli
assert cli.run(["sig", "torus(2,5)", "--at", "1/3"]) == 0
assert "mpmath" not in sys.modules, "the double-precision pass loaded mpmath"
"""


def test_mpmath_is_not_loaded_without_a_precision_fallback():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MPMATH], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_code_tensor_build_peaks_near_its_size():
    # (Z_3)^6 order 27: 33,880 subgroups, a 7.3 MB int64 code tensor;
    # the member products behind it are built a bounded chunk at a time
    obstruction._subgroups_with_elements.cache_clear()
    tracemalloc.start()
    try:
        subs, codes = obstruction._subgroups_with_elements(3, 6, 27)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.shape == (33880, 27)
    assert peak <= 3 * codes.nbytes, (peak, codes.nbytes)
