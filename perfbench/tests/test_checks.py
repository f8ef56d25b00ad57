"""The benchmark's checks accept knotcert's real outputs and catch wrong ones.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import checks
import dense_worker
import run
import workloads

import knotcert
from knotcert import knots


def _brute_force_subgroup_count(q, n, order):
    """Subgroups of (Z_q)^n of the given order, by closure from {0}."""
    elements = list(product(range(q), repeat=n))
    seen = {frozenset([(0,) * n])}
    frontier = list(seen)
    while frontier:
        grown_now = []
        for sub in frontier:
            for g in elements:
                if g in sub:
                    continue
                grown = frozenset(tuple((x + c * y) % q for x, y in zip(s, g))
                                  for s in sub for c in range(q))
                if grown not in seen and len(grown) <= order:
                    seen.add(grown)
                    grown_now.append(grown)
        frontier = grown_now
    return sum(1 for s in seen if len(s) == order)


def test_subgroup_counts_match_brute_force():
    for q, p, k, n, m in [(4, 2, 2, 2, 1), (4, 2, 2, 2, 2), (4, 2, 2, 2, 3),
                          (9, 3, 2, 2, 2), (8, 2, 3, 2, 3), (4, 2, 2, 3, 3),
                          (9, 3, 2, 1, 1), (3, 3, 1, 4, 2)]:
        assert checks.subgroup_count(p, k, n, m) == \
            _brute_force_subgroup_count(q, n, p ** m)


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_subgroup_counts_closed_forms():
    assert [checks.subgroup_count(p, 1, n, n // 2)
            for p, n in [(3, 4), (5, 4), (7, 4), (3, 6)]] == [130, 806, 2850, 33880]
    assert checks.subgroup_count(3, 2, 3, 3) == 157


def test_torus_signature_closed_form():
    mirror_t25 = (1, ((-1, 5),))
    steps = [(Fraction(1, 20), 0), (Fraction(1, 10), 1), (Fraction(1, 5), 2),
             (Fraction(3, 10), 3), (Fraction(2, 5), 4), (Fraction(1, 2), 4)]
    assert [checks.member_signature(mirror_t25, x) for x, _ in steps] == \
        [v for _, v in steps]
    assert checks.torus_signature(3, Fraction(1, 2)) == -2
    assert checks.torus_signature(7, Fraction(13, 14)) == -1


def _certificate(tmp_path, witness_cap):
    """A real exhaustive certificate and its certify-z3 job description."""
    members = [(1, ((-1, 3),)), (3, ((-1, 3),))]
    job = {"pattern": (1, 1), "p": 3, "k": 1, "members": members,
           "budget": 4, "cap": 2}
    cert = knotcert.certify_independence(
        knotcert.whitehead_cover(1, 1), knotcert.CGProfile.zero(),
        [knotcert.parse_knot(workloads.member_text(m)) for m in members],
        budget=4, mode="exhaustive", per_side_cap=2, witness_cap=witness_cap,
    ).to_json_dict()
    return job, cert


def _record(tmp_path, name, job, cert):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cert))
    return {"job": job, "cert": path, "returncode": 0,
            "verified": {"ok": True, "problems": []}}


def _failed(records, problems_of):
    return run.tally(records, problems_of, lambda r: "op")


@pytest.mark.parametrize("witness_cap", [200, 50])
def test_real_certificate_passes(tmp_path, witness_cap):
    job, cert = _certificate(tmp_path, witness_cap)
    assert any(("witness_digest" in c) == (witness_cap == 50)
               for c in cert["combos"] if c["reason"] == "witnessed")
    rec = _record(tmp_path, "good", job, cert)
    assert _failed([rec], run.certify_problems) == (0, 0)


def _combo(cert, key):
    return next(c for c in cert["combos"] if c.get(key))


def test_tampered_witness_value_fails(tmp_path):
    job, cert = _certificate(tmp_path, 200)
    bad = copy.deepcopy(cert)
    w = _combo(bad, "witnesses")["witnesses"][0]
    w["value"] = str(Fraction(w["value"]) + 2)
    records = [_record(tmp_path, "good", job, cert),
               _record(tmp_path, "bad", job, bad)]
    assert _failed(records, run.certify_problems) == (1, 1)


def test_wrong_subgroup_count_fails(tmp_path):
    job, cert = _certificate(tmp_path, 200)
    bad = copy.deepcopy(cert)
    _combo(bad, "witnesses")["subgroup_count"] += 1
    assert _failed([_record(tmp_path, "bad", job, bad)],
                   run.certify_problems) == (1, 1)


def test_tampered_digest_fails(tmp_path):
    job, cert = _certificate(tmp_path, 50)
    bad = copy.deepcopy(cert)
    combo = _combo(bad, "witness_digest")
    combo["witness_digest"] = combo["witness_digest"][::-1]
    assert _failed([_record(tmp_path, "bad", job, bad)],
                   run.certify_problems) == (1, 1)


def test_failed_verification_or_exit_fails(tmp_path):
    job, cert = _certificate(tmp_path, 200)
    rejected = _record(tmp_path, "rejected", job, cert)
    rejected["verified"] = {"ok": False, "problems": ["field 'combos' differs"]}
    crashed = dict(_record(tmp_path, "crashed", job, cert), returncode=2,
                   stderr="error", verified=None)
    assert _failed([rejected, crashed], run.certify_problems) == (2, 1)


def _dense_record():
    job = next(workloads.dense_rounds(7))[0]
    return job, dense_worker.run_op(job)


def test_dense_outputs_pass_and_wrong_signature_fails():
    job, out = _dense_record()
    assert _failed([(job, out)], run.dense_problems) == (0, 0)
    bad_point = copy.deepcopy(out)
    bad_point["levine_tristram"][0] += 2
    bad_jump = copy.deepcopy(out)
    bad_jump["jump_values"][-1] -= 1
    bad_h1 = dict(out, homology=[job["n"], 3])
    records = [(job, bad_point), (job, bad_jump), (job, bad_h1)]
    assert _failed(records, run.dense_problems) == (3, 3)


def test_dense_inputs_are_conjugates():
    """Seeded congruences keep V - V^T unimodular and the matrix one block."""
    for job in next(workloads.dense_rounds(3)):
        v = knots.evaluate(knotcert.raw(job["rows"]))
        assert len(v.diagonal_blocks()) == 1


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-z3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
