import json

import pytest

from packed25519 import faults
from packed25519.cli import main
from packed25519.difftest import RFC7748_VECTORS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_scalarmult_command(capsys):
    s, u, want = RFC7748_VECTORS[0]
    code, out, _ = run(capsys, "scalarmult", s, u)
    assert code == 0
    assert out == want


def test_base_command_derives_public_key(capsys):
    code, out, _ = run(
        capsys, "base",
        "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
    assert code == 0
    assert out == "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"


def test_iterate_one(capsys):
    code, out, _ = run(capsys, "iterate", "1")
    assert code == 0
    assert out == "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"


def test_iterate_zero_is_base_point(capsys):
    code, out, _ = run(capsys, "iterate", "0")
    assert code == 0
    assert out == "09" + "00" * 31


def test_iterate_rejects_negative(capsys):
    code, _, err = run(capsys, "iterate", "-3")
    assert code == 2
    assert "non-negative" in err


def test_malformed_hex_exits_2(capsys):
    code, _, err = run(capsys, "scalarmult", "zz", "00" * 32)
    assert code == 2 and "64 hex characters" in err
    code, _, err = run(capsys, "scalarmult", "zz" * 32, "00" * 32)
    assert code == 2 and "not valid hex" in err
    code, _, err = run(capsys, "scalarmult", "00" * 32, "00" * 30 + "  09")  # 64 chars, 31 bytes
    assert code == 2 and "u-coordinate is not valid hex" in err
    code, _, err = run(capsys, "base", "00" * 31)
    assert code == 2


def test_uppercase_hex_is_accepted(capsys):
    s, u, want = RFC7748_VECTORS[0]
    code, out, _ = run(capsys, "scalarmult", s.upper(), u)
    assert code == 0 and out == want


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["iterate", "notanumber"])
    assert exc.value.code == 2


def test_selftest_pass_and_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "selftest", "--trials", "1",
                       "--suites", "findings,mp", "--json", str(path))
    assert code == 0
    assert "PASS" in out
    assert sum("checks/s" in line for line in out.splitlines()) == 2  # one line per suite
    report = json.loads(path.read_text())
    assert report["ok"] is True
    assert report["seed"] == 1
    assert set(report["suites"]) == {"findings", "mp"}


def test_selftest_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "selftest", "--suites", "nosuch")
    assert code == 2
    assert "unknown suite" in err


def test_selftest_unwritable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, _, err = run(capsys, "selftest", "--trials", "1", "--suites", "findings",
                       "--json", str(path))
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not path.exists()


def test_selftest_bad_trials_exits_2(capsys):
    code, _, err = run(capsys, "selftest", "--trials", "0")
    assert code == 2


def test_selftest_detects_injected_fault(capsys):
    with faults.inject("red512"):
        code, out, _ = run(capsys, "selftest", "--trials", "1",
                           "--suites", "findings")
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out


def test_selftest_reports_where_a_suite_stopped(tmp_path, capsys):
    # under the cmov fault, fe's first failure is freeze's; pack then raises
    # on the non-canonical value that freeze returned, and fe stops there
    path = tmp_path / "report.json"
    with faults.inject("cmov"):
        code, out, _ = run(capsys, "selftest", "--trials", "1", "--suites", "fe,mp", "--json", str(path))
    stop = "fe raised ValueError: bytes must be in range(0, 256) (in pack) at edge"
    assert code == 1
    assert f"  stopped: {stop}" in out.splitlines()
    suites = json.loads(path.read_text())["suites"]
    assert suites["fe"]["stopped"] == stop
    assert suites["fe"]["counterexample"].startswith("edge freeze r=")
    assert suites["mp"]["failures"] == 0 and "stopped" not in suites["mp"]
