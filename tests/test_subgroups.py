"""Subgroup enumeration in homocyclic p-groups, checked by brute force."""

import importlib.util
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import knotcert as kc
from knotcert import cli, obstruction
from oracles import brute_force_subgroups

ROOT = Path(__file__).resolve().parent.parent

# the benchmark's closed-form counts, loaded from its file (it never
# imports knotcert, so it is an independent check)
_spec = importlib.util.spec_from_file_location(
    "perfbench_checks", ROOT / "perfbench" / "checks.py",
)
perfbench_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_checks)


def element_set(sub):
    return frozenset(sub.elements())


# ---------------------------------------------------------------------------
# Howell canonical form

@given(
    st.sampled_from([(2, 9), (2, 4), (3, 3), (3, 8), (2, 27)]),
    st.data(),
)
def test_howell_form_is_canonical_for_the_span(shape, data):
    n, modulus = shape
    rows = data.draw(
        st.lists(
            st.tuples(*[st.integers(0, modulus - 1)] * n),
            min_size=1,
            max_size=3,
        )
    )
    h = kc.howell_form(tuple(rows), n, modulus)

    def span(gen_rows):
        out = {(0,) * n}
        frontier = list(out)
        while frontier:
            v = frontier.pop()
            for g in gen_rows:
                w = tuple((a + b) % modulus for a, b in zip(v, g))
                if w not in out:
                    out.add(w)
                    frontier.append(w)
        return frozenset(out)

    # same row span
    assert span(h) == span(rows)
    # canonical: recomputing from the form, or from any reordering of the
    # original rows, gives the same generators
    assert kc.howell_form(h, n, modulus) == h
    assert kc.howell_form(tuple(reversed(rows)), n, modulus) == h


# ---------------------------------------------------------------------------
# Subgroup objects

def test_subgroup_elements_consistency():
    for factors, order in (((3, 3), 3), ((9, 9), 9), ((2, 2, 2, 2), 4)):
        for sub in kc.enumerate_subgroups(factors, order):
            els = list(sub.elements())
            assert len(els) == order == sub.order
            assert len(set(els)) == order
            q = factors[0]
            for a in els:
                assert sub.contains(a)
                for b in els:
                    s = tuple((x + y) % q for x, y in zip(a, b))
                    assert s in set(els)
            # nothing outside the listed elements is claimed
            outside = [
                g
                for g in product(*[range(f) for f in factors])
                if g not in set(els)
            ]
            for g in outside[:5]:
                assert not sub.contains(g)


# ---------------------------------------------------------------------------
# enumeration against the brute-force lattice

@pytest.mark.parametrize(
    "factors,order",
    [
        ((3, 3), 1),
        ((3, 3), 3),
        ((3, 3), 9),
        ((2, 2, 2, 2), 4),
        ((9, 9), 3),
        ((9, 9), 9),
        ((9, 9), 27),
        ((3, 3, 3), 9),
        ((4, 4), 4),
        ((4, 4, 4), 8),
        ((8, 8), 8),
    ],
)
def test_enumeration_matches_brute_force(factors, order):
    ours = {element_set(s) for s in kc.enumerate_subgroups(factors, order)}
    brute = brute_force_subgroups(factors, order)
    assert ours == brute
    # and no subgroup is listed twice
    assert len(kc.enumerate_subgroups(factors, order)) == len(ours)


@pytest.mark.parametrize(
    "p,k,n,t,count",
    [(3, 2, 3, 3, 157), (3, 2, 4, 4, 12091), (2, 4, 3, 6, 939)],
)
def test_enumeration_beyond_brute_force(p, k, n, t, count):
    # (Z_9)^3, (Z_9)^4 and (Z_16)^3: Birkhoff's count, every generator
    # set already in Howell form, strictly sorted (so no repeats)
    q = p ** k
    subs = kc.enumerate_subgroups((q,) * n, p ** t)
    assert len(subs) == count == perfbench_checks.subgroup_count(p, k, n, t)
    gens = [s.gens for s in subs]
    assert all(kc.howell_form(g, n, q) == g for g in gens)
    assert all(a < b for a, b in zip(gens, gens[1:]))
    assert all(s.order == p ** t for s in subs)


@pytest.mark.parametrize(
    "q,n,order", [(9, 3, 27), (9, 3, 81), (3, 4, 9), (5, 4, 25), (7, 4, 49)])
def test_element_tensor_matches_subgroup_elements(q, n, order):
    # the sweep reads the member codes one grid column at a time; side by
    # side the columns are the element tensor [subgroup, member].
    # (Z_9)^3 mixes row-order patterns: (9, 3), (3, 9) and (3, 3, 3) at
    # order 27; at order 81 (9, 3, 3), (3, 9, 3) and (3, 3, 9) share a
    # row count.  (Z_7)^4 order 49 has 16-bit codes and 49 columns, more
    # than the column cache holds
    subs = obstruction._candidates(q, n, order, None)
    assert [s.gens for s in subs] == [
        s.gens for s in kc.enumerate_subgroups((q,) * n, order)
    ]
    if q == 9:
        assert len({s.row_orders() for s in subs}) > 1
    place = [q ** (n - 1 - i) for i in range(n)]
    columns = [obstruction._grid_column(q, n, order, None, j)
               for j in range(order)]
    assert all(c.dtype.kind == "u" and c.shape == (len(subs),) for c in columns)
    # the smallest unsigned dtype that holds every code
    assert q ** n - 1 <= np.iinfo(columns[0].dtype).max < (q ** n - 1) * 256
    for i, s in enumerate(subs):
        codes = [sum(x * w for x, w in zip(e, place)) for e in s.elements()]
        assert [int(c[i]) for c in columns] == codes
    # a column is built once per family while its cache holds it: the last
    # column built stays under the 16-entry bound, at order 81 too
    assert obstruction._grid_column(q, n, order, None, order - 1) is columns[-1]
    # the padded arrays the columns are built from: each codes row is the
    # base-q codes of its Subgroup's gens with code 0 appended, each
    # orders row its row orders with 1s appended, and the padded code
    # rows strictly increase
    codes, orders = subs.codes, subs.orders
    assert codes.shape == orders.shape and codes.shape[0] == len(subs)
    assert codes.dtype == columns[0].dtype
    for i, s in enumerate(subs):
        rows = len(s.gens)
        assert codes[i, :rows].tolist() == [
            sum(x * w for x, w in zip(g, place)) for g in s.gens]
        assert not codes[i, rows:].any()
        assert orders[i].tolist() == list(s.row_orders()) + [1] * (
            codes.shape[1] - rows)
    flat = [tuple(c) for c in codes.tolist()]
    assert all(a < b for a, b in zip(flat, flat[1:]))


def test_subgroup_list_indexes_like_a_sorted_list():
    subs = kc.enumerate_subgroups((3, 3, 3), 9)
    every = list(subs)
    assert len(subs) == len(every) == 13
    assert subs[-1] == every[-1] and subs[3:5] == every[3:5]
    assert all(isinstance(s, kc.Subgroup) for s in every)
    with pytest.raises(IndexError):
        subs[13]
    trivial = kc.enumerate_subgroups((), 1)
    assert list(trivial) == [kc.Subgroup(1, 0, ())]
    assert kc.enumerate_subgroups((5, 5), 1)[0].gens == ()


def test_large_enumeration_counts_through_the_cli(capsys):
    # (Z_9)^5 order 243: 1,288,651 subgroups, Birkhoff's count
    assert cli.run(["subgroups", "9", "5", "243", "--limit", "1",
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 1288651 == perfbench_checks.subgroup_count(3, 2, 5, 5)
    assert data["truncated"] and len(data["generators"]) == 1
    (gens,) = data["generators"]
    assert kc.howell_form(gens, 5, 9) == tuple(map(tuple, gens))


def test_enumeration_is_deterministic():
    a = kc.enumerate_subgroups((3, 3, 3), 9)
    b = kc.enumerate_subgroups((3, 3, 3), 9)
    assert [s.gens for s in a] == [s.gens for s in b]


def test_enumeration_validates_inputs():
    with pytest.raises(kc.HypothesisViolation):
        kc.enumerate_subgroups((3, 3), 5)
    with pytest.raises(kc.HypothesisViolation):
        kc.enumerate_subgroups((3, 6), 3)
    with pytest.raises(kc.HypothesisViolation):
        kc.enumerate_subgroups((3, 3), 27)  # exceeds the group order


_LARGE_PRIME_ORDER = """
import time
from knotcert import cli
start = time.perf_counter()
code = cli.run(["subgroups", "4294967291", "2", "18446744030759878681"])
print(code, time.perf_counter() - start)
"""


def test_large_prime_order_is_checked_without_factoring(capsys):
    # the target order is the whole group (4294967291^2, one subgroup);
    # factoring it by trial division would not end.  A subprocess keeps
    # a regression from hanging the suite.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _LARGE_PRIME_ORDER], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    first, *_, last = proc.stdout.splitlines()
    assert first.startswith("1 subgroups of (Z_4294967291)^2")
    code, seconds = last.split()
    assert code == "0" and float(seconds) < 1.0, proc.stdout
    # an order that is not a power of p is still a mapped usage error
    assert cli.run(["subgroups", "9", "3", "6"]) == 2
    assert "not a power of 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# projection bookkeeping used by the satellite obstruction

def split_projections(sub, half):
    els = list(sub.elements())
    proj_a = {e[:half] for e in els}
    meets_b = any(
        all(x == 0 for x in e[:half]) and any(x != 0 for x in e[half:])
        for e in els
    )
    meets_a = any(
        all(x == 0 for x in e[half:]) and any(x != 0 for x in e[:half])
        for e in els
    )
    return proj_a, meets_a, meets_b


@pytest.mark.parametrize(
    "q,n_total,order",
    [(3, 2, 3), (3, 4, 9), (9, 2, 9), (2, 4, 4)],
)
def test_trivial_intersection_makes_projection_injective(q, n_total, order):
    # M meet (0 + B) = 0 implies |proj_A M| = |M|; when both side
    # intersections vanish the projections to either side are injective
    half = n_total // 2
    for sub in kc.enumerate_subgroups((q,) * n_total, order):
        els = list(sub.elements())
        proj_a, meets_a, meets_b = split_projections(sub, half)
        if not meets_b:
            assert len(proj_a) == len(els), sub
        if not meets_a and not meets_b:
            proj_b = {e[half:] for e in els}
            assert len(proj_a) == len(els) == len(proj_b), sub
