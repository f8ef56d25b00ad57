"""The example scripts run end to end and report failures as the CLI does."""

import pathlib
import runpy

import pytest

import knotcert as kc

DEMO = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "demo_whitehead.py"
SMALL = ["demo_whitehead.py", "--grid", "1", "--count", "2", "--budget", "2"]


def _run_demo(monkeypatch, argv):
    monkeypatch.setattr("sys.argv", argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(DEMO), run_name="__main__")
    return exc.value.code


def test_demo_script_exits_0_when_the_certificate_verifies(monkeypatch, capsys):
    assert _run_demo(monkeypatch, SMALL) == 0
    assert "re-verified" in capsys.readouterr().out


def test_demo_script_exits_1_when_reverification_fails(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(kc, "verify_certificate", lambda data: (False, ["tampered"]))
    out = tmp_path / "cert.json"
    assert _run_demo(monkeypatch, SMALL + ["--output", str(out)]) == 1
    assert "tampered" in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize("extra,code", [
    (["--per-side-cap", "0"], 2),
    (["--b", "-1", "--budget", "6"], 3),
], ids=["hypothesis", "budget"])
def test_demo_script_maps_library_errors_like_the_cli(
        monkeypatch, capsys, tmp_path, extra, code):
    # an error: line and the CLI's exit code, not a traceback
    out = tmp_path / "cert.json"
    assert _run_demo(monkeypatch, SMALL + extra + ["--output", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()
