"""Memory footprint guards: bounded caches, lazy imports, lean tensors.

A long-lived process that meets many distinct knots (the signature
engine on dense Seifert matrices, say) must not keep every one of them,
a process that never hashes a witness digest must not load OpenSSL, no
process may load mpmath, importing the CLI must not load dataclasses,
a certify job must not load numpy.ma, the sweep must code only the
candidate members it reads, and the digest must keep no text per
candidate.
"""

import importlib
import os
import pkgutil
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
    obstruction._value_row: 256,
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
    # more value rows than their cache holds: the unknot under many bounds
    for bound in range(300):
        obstruction._value_row(kc.CGProfile.bounded(bound), wh11, 3, kc.unknot())
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


_NO_DATACLASSES = """
import sys
before = set(sys.modules)
import knotcert.cli
added = set(sys.modules) - before
assert "dataclasses" not in added, "import knotcert.cli loaded dataclasses"
"""


def test_dataclasses_is_not_loaded_by_the_import():
    # the value classes are built by knotcert._frozen, which compiles no
    # code; modules the interpreter loaded before the import do not count
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_DATACLASSES], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


_NO_MPMATH = """
import sys
import knotcert.cli
assert "mpmath" not in sys.modules, "import knotcert.cli loaded mpmath"
from knotcert import cli, signatures
assert cli.run(["sig", "torus(2,5)", "--at", "1/3"]) == 0
assert "mpmath" not in sys.modules, "the double-precision pass loaded mpmath"
# every point through the exact fallback: a near-root point and a root
signatures._certify_double = lambda *args: None
assert cli.run(["sig", "torus(2,3)", "--at", "1000000000000006/6000000000000000"]) == 0
assert cli.run(["sig", "torus(2,3)", "--at", "1/6"]) == 0
assert "mpmath" not in sys.modules, "the exact fallback loaded mpmath"
"""


def test_mpmath_is_never_loaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MPMATH], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_column_walk_peaks_well_under_the_member_tensor(monkeypatch):
    # (Z_3)^6 order 27: 33,880 candidates of 27 members each, whose codes
    # as one int64 tensor took 7.3 MB.  The two 3 + 3 combos of a
    # certify-z3 job find every witness within the first grid columns,
    # so the sweep codes only those; the peak is taken when the digest
    # starts, after the family is enumerated and the walk is done.
    tensor_bytes = 33880 * 27 * 8
    k1 = kc.mirror(kc.torus(2, 7))
    k3 = kc.multiple(3, k1)
    cover = kc.whitehead_cover(-1, -1)
    insts = [kc.ObstructionInstance(cover, kc.CGProfile.zero(), (a,) * 3,
                                    (b,) * 3, 3, 1)
             for a, b in ((k1, k3), (k3, k1))]
    for inst in insts:
        obstruction._value_tables(inst)  # signatures, outside the trace
    peaks = []
    texts = obstruction._witness_texts

    def traced_texts(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return texts(*args)

    monkeypatch.setattr(obstruction, "_witness_texts", traced_texts)
    obstruction._candidates.cache_clear()
    obstruction._grid_column.cache_clear()
    tracemalloc.start()
    try:
        results = [kc.check_slice_obstruction(inst, witness_cap=200)
                   for inst in insts]
        final_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.obstructed and r.subgroup_count == 33880 for r in results)
    built = obstruction._grid_column.cache_info()
    assert 1 <= built.currsize <= 5, built
    obstruction._grid_column(3, 6, 27, None, 0)
    assert obstruction._grid_column.cache_info().hits == built.hits + 1
    # measured 2.67 MB: the enumeration and its first columns, read from
    # the batch arrays with no regrouped copy of the forms
    assert len(peaks) == 2 and peaks[0] <= 0.6 * tensor_bytes, peaks
    # the digests keep no text per candidate: measured 2.88 MB after
    # both, against 2.67 MB when the first starts
    assert final_peak <= peaks[0] + 1_000_000, (peaks, final_peak)


def test_family_caches_are_bounded():
    # one policy: every lru_cache of every knotcert module is bounded by
    # entries, the per-family caches of the sweep and the digest included
    caches = {}
    for info in pkgutil.iter_modules(kc.__path__):
        module = importlib.import_module(f"knotcert.{info.name}")
        for fn in vars(module).values():
            if hasattr(fn, "cache_parameters"):
                caches[fn.__module__, fn.__qualname__] = fn
    names = {name for _, name in caches}
    assert {"_candidates", "_grid_column", "_row_texts", "_gen_codes",
            "cyclotomic"} <= names, names
    for (module, name), fn in caches.items():
        assert fn.cache_parameters()["maxsize"] is not None, (module, name)


_NO_NUMPY_MA = """
import sys
from knotcert import cli
assert cli.run(sys.argv[1:]) == 0
assert "hashlib" in sys.modules, "the job hashed no digest"
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_certify_job_does_not_load_numpy_ma(tmp_path):
    # the first certify-z3 job of the benchmark's seed 1: its digests
    # find the distinct witness codes without np.unique(codes), which
    # loads numpy.ma (about 1.3 MB) under numpy 2.4
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    family = ("4*(mirror(torus(2,3))#mirror(torus(2,7)));"
              "5*(mirror(torus(2,3))#mirror(torus(2,7)))")
    args = ["certify", "--pattern", "whitehead:-1,-1", "--family", family,
            "--mode", "exhaustive", "--budget", "6", "--max-group-order", "729",
            "--per-side-cap", "3", "--output", str(tmp_path / "cert.json")]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_MA, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
