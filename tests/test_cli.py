"""End-to-end tests of the command-line interface.

Everything runs in-process through ``cli.run(argv)``, which returns the
exit code that ``main()`` would hand to ``sys.exit``.  The documented
mapping is: 0 success, 1 parse/input errors, 2 hypothesis violations
(including inconclusive certifications), 3 budget, precision or
memory exhaustion.
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import knotcert as kc
from knotcert import cli
from knotcert.knots import parse_knot


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- sig


def test_sig_at_point(capsys):
    code, out, err = run_cli(capsys, ["sig", "torus(2,3)", "--at", "1/2"])
    assert code == 0
    assert out == "-2\n"
    assert err == ""


def test_sig_full_step_function_text(capsys):
    code, out, _ = run_cli(capsys, ["sig", "torus(2,3)"])
    assert code == 0
    assert out.splitlines() == [
        "(0, 1/6): 0",
        "at 1/6: -1",
        "(1/6, 1/2]: -2",
    ]


def test_sig_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["sig", "mirror(torus(2,5))", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["jumps"] == ["1/10", "3/10"]
    assert data["interval_values"] == [0, 2, 4]
    assert data["jump_values"] == [1, 3]
    assert data["denominator_bound"] == 200
    # the echoed expression is parseable and evaluates to the same knot
    assert kc.evaluate(parse_knot(data["expression"])).rows == \
        kc.evaluate(parse_knot("mirror(torus(2,5))")).rows


def test_sig_rejects_tiny_denominator_bound(capsys):
    code, _, err = run_cli(capsys, ["sig", "torus(2,3)", "--bound", "1"])
    assert code == 1
    assert "error:" in err


def test_sig_at_large_prime_denominator(capsys):
    # phi(d) >= sqrt(d/2) rules Phi_d out without factoring d, which
    # trial division could not finish for a 21-digit prime
    code, out, err = run_cli(
        capsys, ["sig", "torus(2,3)", "--at", "1/100000000000000000039"]
    )
    assert code == 0
    assert out == "0\n"
    assert err == ""


# ---------------------------------------------------------------- alex


def test_alex_text_and_json(capsys):
    code, out, _ = run_cli(capsys, ["alex", "torus(2,5)"])
    assert code == 0
    assert out.strip() == str(kc.alexander_polynomial(parse_knot("torus(2,5)")))

    code, out, _ = run_cli(capsys, ["alex", "torus(2,5)", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [1, -1, 1, -1, 1]


# ---------------------------------------------------------------- cover


def test_cover_text_and_json(capsys):
    code, out, _ = run_cli(capsys, ["cover", "torus(2,3)"])
    assert code == 0
    assert out.splitlines()[0] == "H1 of the double branched cover: Z_3"
    assert "2/3" in out

    code, out, _ = run_cli(capsys, ["cover", "torus(2,3)", "--format", "json"])
    data = json.loads(out)
    assert data["invariant_factors"] == [3]
    assert data["order"] == 3
    assert data["linking_matrix"] == [["2/3"]]


def test_cover_trivial_group_omits_linking(capsys):
    code, out, _ = run_cli(capsys, ["cover", "unknot", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 1
    assert "linking_matrix" not in data


# ---------------------------------------------------------------- whitehead


def test_whitehead_json(capsys):
    code, out, _ = run_cli(capsys, ["whitehead", "1", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "a": 1,
        "b": 1,
        "factors": [3],
        "order": 3,
        "v1_class": [2],
        "v2_class": [2],
        "winding_number": 0,
        "linking_matrix": [["1/3"]],
    }


def test_whitehead_excluded_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, ["whitehead", "0", "5"])
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------- subgroups


def test_subgroups_text_respects_limit(capsys):
    code, out, _ = run_cli(capsys, ["subgroups", "3", "2", "3", "--limit", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4 subgroups of (Z_3)^2 of order 3"
    assert lines[-1] == "  ... 2 more"
    assert len(lines) == 4  # header + 2 shown + truncation notice


def test_subgroups_json(capsys):
    code, out, _ = run_cli(capsys, ["subgroups", "3", "2", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4
    assert not data["truncated"]
    assert len(data["generators"]) == 4
    for gens in data["generators"]:
        assert all(len(row) == 2 for row in gens)


def test_subgroups_bad_order_exit_2(capsys):
    # 5 is coprime to 3, so no subgroup of that order can exist
    code, _, err = run_cli(capsys, ["subgroups", "3", "2", "5"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("order", ["0", "-3"])
def test_subgroups_nonpositive_order_exit_2(capsys, order):
    code, out, err = run_cli(capsys, ["subgroups", "3", "2", order])
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_subgroups_negative_rank_exit_2(capsys):
    code, out, err = run_cli(capsys, ["subgroups", "3", "-1", "1"])
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_subgroups_negative_limit_exit_1(capsys):
    code, out, err = run_cli(capsys, ["subgroups", "3", "2", "3", "--limit", "-1"])
    assert code == 1
    assert "error:" in err
    assert out == ""
    # a zero limit is still fine: nothing shown, everything counted as more
    code, out, _ = run_cli(capsys, ["subgroups", "3", "2", "3", "--limit", "0"])
    assert code == 0
    assert out.splitlines() == ["4 subgroups of (Z_3)^2 of order 3", "  ... 4 more"]


def test_subgroups_out_of_memory_exit_3(capsys, monkeypatch):
    # an enumeration past the process's memory (numpy raises its
    # MemoryError subclass) ends in a mapped error, not a traceback;
    # raised here without allocating anything
    def exhausted(group, order):
        raise MemoryError("Unable to allocate 1.28 GiB for an array")

    monkeypatch.setattr(cli, "enumerate_subgroups", exhausted)
    code, out, err = run_cli(capsys, ["subgroups", "3", "8", "81", "--limit", "1"])
    assert code == 3
    assert err.startswith("error: out of memory") and "1.28 GiB" in err
    assert out == ""


# ------------------------------------------------------- input errors


def test_bad_expression_exit_1(capsys):
    code, _, err = run_cli(capsys, ["sig", "torus(2,4)"])
    assert code == 1
    assert "odd" in err


def test_deep_nesting_exit_1(capsys):
    deep = "mirror(" * 3000 + "torus(2,3)" + ")" * 3000
    code, out, err = run_cli(capsys, ["alex", deep])
    assert code == 1
    assert out == ""
    assert err == "error: expression nests too deeply\n"


def test_missing_argument_exit_1(capsys):
    code, _, err = run_cli(capsys, ["sig"])
    assert code == 1
    assert "required" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit):
        cli.run(["--version"])
    out = capsys.readouterr().out
    assert "knotcert" in out


# ---------------------------------------------------------------- output file


def test_output_flag_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, ["sig", "torus(2,3)", "--at", "1/2", "--output", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "-2\n"


# ---------------------------------------------------------------- json writer

_json_atoms = (
    st.none() | st.booleans()
    | st.integers() | st.integers(-2 ** 200, 2 ** 200)
    # non-ASCII, quotes, backslashes and control characters
    | st.text() | st.sampled_from(["", "\"", "\\", "\n\t\x00", "é€😀"])
)
_json_values = st.recursive(
    _json_atoms,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(st.integers(), max_size=6)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=24,
)
# what the writer hands on to json.dumps: floats, tuples, int keys
_json_others = st.recursive(
    _json_atoms | st.floats(allow_nan=False),
    lambda kids: st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(st.integers(), kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_json_values, _json_others))
@example([])
@example({})
@example([[], {}, [[1, 2], [], [3]]])
@example({"b": [1, -2], "a": [True, None], "c": {}})
@example([2 ** 70, -(2 ** 64), True])
def test_json_writer_matches_json_dumps(obj):
    assert cli._json_indent2(obj) == json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------- certify


FAMILY_15 = "mirror(torus(2,3));5*mirror(torus(2,3))"


def test_certify_json_is_default_deterministic_and_verifies(capsys):
    argv = ["certify", "--pattern", "whitehead:1,1", "--family", FAMILY_15,
            "--mode", "exhaustive", "--budget", "2"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, argv)
    assert code == 0
    assert out1 == out2  # byte-identical across runs

    data = json.loads(out1)
    assert data["certificate"]
    assert data["mode"] == "exhaustive"
    assert len(data["combos"]) == 12
    ok, problems = kc.verify_certificate(data)
    assert ok and problems == []


def test_certify_ordering_violation_exit_2(capsys):
    # a repeated family member can never satisfy the strict ordering chain
    code, _, err = run_cli(capsys, [
        "certify", "--pattern", "whitehead:1,1",
        "--family", "mirror(torus(2,3));mirror(torus(2,3))",
    ])
    assert code == 2
    assert "ordering" in err


def test_certify_empty_selection_exit_2(capsys):
    code, _, err = run_cli(capsys, [
        "certify", "--pattern", "whitehead:1,1", "--family", "unknot",
    ])
    assert code == 2
    assert "selected" in err or "strictly above" in err


def test_certify_budget_exceeded_exit_3(capsys):
    # even-total combos need the character sweep, which the tiny cap forbids
    code, _, err = run_cli(capsys, [
        "certify", "--pattern", "whitehead:1,1",
        "--family", "mirror(torus(2,3))",
        "--mode", "exhaustive", "--budget", "2", "--max-group-order", "1",
    ])
    assert code == 3
    assert "budget" in err


def test_certify_profile_from_file(capsys, tmp_path):
    desc = kc.CGProfile.bounded(1).describe()
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run_cli(capsys, [
        "certify", "--pattern", "whitehead:1,1",
        "--profile", f"file:{path}",
        "--family", ("mirror(torus(2,3));3*mirror(torus(2,3));"
                     "9*mirror(torus(2,3))"),
    ])
    assert code == 0
    data = json.loads(out)
    assert data["profile"] == desc
    assert data["selection"]["indices"] == [0, 1, 2]


@pytest.mark.parametrize("spec", [
    "gibberish",
    "bound:xyz",
    "file:/no/such/profile.json",
])
def test_certify_bad_profile_exit_1(capsys, spec):
    code, _, err = run_cli(capsys, [
        "certify", "--pattern", "whitehead:1,1",
        "--family", "mirror(torus(2,3))", "--profile", spec,
    ])
    assert code == 1
    assert "error:" in err


def test_certify_bad_pattern_exit_1(capsys):
    code, _, err = run_cli(capsys, [
        "certify", "--pattern", "granny:1,1",
        "--family", "mirror(torus(2,3))",
    ])
    assert code == 1
    assert "whitehead:a,b" in err


@pytest.mark.parametrize("command", [
    ["certify", "--pattern", "whitehead:1,1",
     "--family", "mirror(torus(2,3));3*mirror(torus(2,3))",
     "--mode", "exhaustive"],
    ["demo", "--count", "2", "--budget", "2"],
])
@pytest.mark.parametrize("cap", ["0", "-2"])
def test_per_side_cap_below_one_exit_2(capsys, command, cap):
    # a cap below 1 admits no combination, so it would certify nothing
    code, out, err = run_cli(capsys, command + ["--per-side-cap", cap])
    assert code == 2
    assert out == ""
    assert "per-side cap" in err


def test_certify_per_side_cap_one_still_certifies(capsys):
    code, out, _ = run_cli(capsys, [
        "certify", "--pattern", "whitehead:1,1",
        "--family", "mirror(torus(2,3));3*mirror(torus(2,3))",
        "--mode", "exhaustive", "--per-side-cap", "1",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["per_side_cap"] == 1
    assert {tuple(c["coefficients"]) for c in data["combos"]} == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1),
    }


# ---------------------------------------------------------------- demo


def test_demo_small_certificate_verifies(capsys):
    code, out, _ = run_cli(capsys, ["demo", "--count", "2", "--budget", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["family"] == ["1*mirror(torus(2,3))", "3*mirror(torus(2,3))"]
    ok, problems = kc.verify_certificate(data)
    assert ok and problems == []


def test_demo_empty_family_exit_1(capsys):
    code, _, err = run_cli(capsys, ["demo", "--count", "0"])
    assert code == 1
    assert "error:" in err
