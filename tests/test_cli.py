"""End-to-end tests of the command-line interface.

Everything but the closed-stdout test runs in-process through
``cli.run(argv)``, which returns the exit code that ``main()`` would hand
to ``sys.exit``.  The documented mapping is: 0 success, 1 parse/input
errors or a closed stdout, 2 hypothesis violations
(including inconclusive certifications), 3 budget, precision or
memory exhaustion.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

import knotcert as kc
from knotcert import cli
from knotcert.knots import parse_knot

ROOT = Path(__file__).resolve().parent.parent


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
    code, out, err = run_cli(capsys, ["--version"])
    assert code == 0
    assert out == f"knotcert {kc.__version__}\n"
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["sig", "-h"], ["certify", "--help"], ["subgroups", "-h"],
])
def test_help_returns_0(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert out.startswith("usage: knotcert") and err == ""



# knot expressions, or fragments valid and broken with at most four
# joined, so a multiple stays below 3^4 copies and every command ends
# quickly
_EXPR = st.sampled_from([
    "torus(2,3)", "mirror(torus(2,5))", "2*torus(2,3)#torus(2,5)",
    "[[1,0],[1,1]]", "unknot",
]) | st.lists(st.sampled_from([
    "torus(2,3)", "torus(2,5)", "mirror(torus(2,3))", "mirror(", ")", "#",
    "-3*", "2*", "[[1,0],[1,1]]", "[[0]]", ",", "unknot", "",
]), max_size=4).map("".join)
_INT = st.sampled_from(["-3", "-1", "0", "1", "2", "3", "x", "1.5", ""])
# sweeps stay within budget 2, so at most (Z_q)^2 is enumerated; the
# budget is always given, since its default is 6
_BUDGET = st.sampled_from(["-1", "0", "1", "2", "x"])
_MODE = st.sampled_from(["ordering", "exhaustive", "x"])

# subcommand: (positional strategies, required flags, optional flags);
# a flag whose strategy is None takes no value
_COMMANDS = {
    "sig": ([_EXPR], {}, {"--at": st.sampled_from(
        ["1/3", "1/6", "0", "1/2", "-1/3", "7/2", "1/0", "x", ""]),
        "--bound": _INT}),
    "alex": ([_EXPR], {}, {}),
    "cover": ([_EXPR], {}, {}),
    "whitehead": ([_INT, _INT], {}, {}),
    "subgroups": ([st.sampled_from(["1", "2", "3", "4", "6", "9", "0", "-3", "x"]),
                   st.sampled_from(["0", "1", "2", "3", "-1"]),
                   st.sampled_from(["1", "3", "9", "27", "0", "-3", "x"])],
                  {}, {"--limit": _INT}),
    "certify": ([], {
        "--budget": _BUDGET,
        "--pattern": st.sampled_from(
            ["whitehead:1,1", "whitehead:1,-2", "whitehead:1,-1",
             "whitehead:0,0", "whitehead:1,", "whitehead:x", "torus"]),
        "--family": st.lists(_EXPR, max_size=3).map(";".join),
    }, {
        "--profile": st.sampled_from(
            ["zero", "bound:1/2", "bound:-1", "bound:x", "file:", "nope"]),
        "--mode": _MODE,
        "--per-side-cap": _INT,
        "--max-group-order": st.sampled_from(["1", "729", "1000000000", "-1", "x"]),
        "--witness-cap": _INT,
        "--self-annihilating": None}),
    "demo": ([], {
        "--budget": _BUDGET,
        # a third member, the default, is the multiple (n - 1) * n + 1 of
        # torus(2, n), whose Seifert matrix is built dense: 40,494 rows
        # for P(3,3)
        "--count": st.sampled_from(["-1", "0", "1", "2", "x"]),
    }, {"--a": _INT, "--b": _INT, "--per-side-cap": _INT, "--mode": _MODE}),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positional, required, optional = _COMMANDS[command]
    argv = [command] + [draw(s) for s in positional]
    if positional and not draw(st.integers(0, 9)):
        argv.pop()  # a missing positional is a usage error to map too
    optional = dict(optional, **{"--format": st.sampled_from(["text", "json", "xml"])})
    names = draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    for name in sorted(required) + names:
        strategy = required.get(name, optional.get(name))
        argv += [name] if strategy is None else [name, draw(strategy)]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
@example(["--version"])
@example(["certify", "-h"])
@example(["demo", "--budget", "2", "--a", "0"])
@example(["sig", "mirror(", "--at", "1/0"])
def test_fuzzed_argv_returns_a_mapped_code(capsys, argv):
    # every argument list ends in a result or a mapped error: 0 success,
    # 1 input, 2 hypothesis, 3 budget; never an exception or an exit
    code, out, err = run_cli(capsys, argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code:
        assert out == "" and err.startswith("error: "), (argv, out, err)


# ---------------------------------------------------------------- output file


def test_output_flag_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, ["sig", "torus(2,3)", "--at", "1/2", "--output", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "-2\n"


def test_closed_stdout_exits_1_without_a_traceback():
    # about 300 KB of output, more than a pipe buffers: the CLI is still
    # writing when the reader goes away
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "knotcert.cli",
         "subgroups", "3", "6", "27", "--limit", "5000"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert first == b"33880 subgroups of (Z_3)^6 of order 27\n"
    assert err == b""


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


@pytest.mark.parametrize("argv,digest", [
    (["--pattern", "whitehead:1,1",
      "--family", "mirror(torus(2,3));3*mirror(torus(2,3));9*mirror(torus(2,3))",
      "--budget", "6"],
     "6a74ba832a0c7ef354c0fefbc704beb5e24b370d7da88e88d374fcdfef61cbb4"),
    (["--pattern", "whitehead:1,-2",
      "--family", "mirror(torus(2,9));9*mirror(torus(2,9));73*mirror(torus(2,9))",
      "--budget", "3", "--max-group-order", "1000000000"],
     "c2323261c7f713a5591d1f6f070c9700e0d6c44756776baa212092773973d7b0"),
], ids=["z3-readme", "z9-budget3"])
def test_self_annihilating_certificate_bytes_are_pinned(capsys, argv, digest):
    # the metabolizer sweep of README's example (cover Z_3) and of a
    # k = 2 family (cover Z_9): the exact bytes the CLI writes
    code, out, _ = run_cli(capsys, ["certify", *argv, "--mode", "exhaustive",
                                    "--per-side-cap", "3", "--self-annihilating"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
