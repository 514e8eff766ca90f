import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from packed25519 import _kernels, _linear, _reduce, _square, difftest, faults, fe25519, mp_arith, oracle
from packed25519.difftest import EDGES_256, EDGES_512, TrialConfig, run_suite

P = oracle.P


def test_all_suites_pass_on_small_run():
    report = run_suite(TrialConfig(seed=7, trials=2))
    assert report.ok
    assert report.failures == 0
    assert set(report.suites) == set(difftest.SUITE_NAMES)
    for res in report.suites.values():
        assert res.cases > 0
        assert res.failures == 0
        assert res.counterexample is None


def test_report_is_deterministic():
    cfg = TrialConfig(seed=42, trials=2, suites=("mp", "fe", "findings"))
    a = run_suite(cfg).to_dict()
    b = run_suite(cfg).to_dict()
    for report in (a, b):
        report.pop("elapsed_s")
        for suite in report["suites"].values():
            suite.pop("elapsed_s")
            suite.pop("checks_per_s")
    assert a == b


def test_every_selected_suite_reports_its_time():
    report = run_suite(TrialConfig(seed=3, trials=1, suites=("mp", "fe", "findings")))
    suites = report.to_dict()["suites"]
    assert list(suites) == ["mp", "fe", "findings"]
    for name, res in report.suites.items():
        assert res.elapsed_s > 0
        assert suites[name]["elapsed_s"] == res.elapsed_s
        assert suites[name]["checks_per_s"] == res.cases / res.elapsed_s
    assert sum(res.elapsed_s for res in report.suites.values()) <= report.elapsed_s


def test_different_seeds_draw_different_inputs():
    s1 = difftest._Stream(1, "mp", 0)
    s2 = difftest._Stream(2, "mp", 0)
    assert s1.u256() != s2.u256()


def test_stream_depends_only_on_seed_suite_trial():
    # trials are independent streams: a trial's draws don't shift when
    # other trials run (what makes per-trial parallelism sound)
    first = difftest._Stream(9, "fe", 5)
    again = difftest._Stream(9, "fe", 5)
    assert [first.u256() for _ in range(4)] == [again.u256() for _ in range(4)]
    assert difftest._Stream(9, "fe", 6).u256() != difftest._Stream(9, "fe", 5).u256()


def test_config_validation_happens_before_running(monkeypatch):
    ran = []
    for name in difftest.SUITE_NAMES:
        record = lambda *args, name=name: ran.append(name)
        monkeypatch.setitem(difftest.SUITES, name, (record, record))
    for cfg in (TrialConfig(trials=0), TrialConfig(trials=-5), TrialConfig(suites=("mp", "bogus")),
                TrialConfig(suites=()), TrialConfig(seed=-1), TrialConfig(seed=2**64),
                TrialConfig(seed=1.5), TrialConfig(seed=True), TrialConfig(trials=True)):
        with pytest.raises(ValueError):
            run_suite(cfg)
        assert ran == [], f"{cfg} ran {ran} before it was refused"


def test_json_report_round_trips():
    report = run_suite(TrialConfig(trials=1, suites=("findings",)))
    assert json.loads(report.to_json()) == report.to_dict()


def test_edge_corpus_contents():
    assert 2 * P + 37 == 2**256 - 1
    # the mp suite is the only random-input test of the 256-bit kernels, and
    # the findings suite of red512, so these edges must stay in the corpus
    for v in (0, 1, P, 2 * P - 1, 2 * P, 2 * P + 37, 2**255):
        assert v in EDGES_256
    for v in (2 * P, P * P, (P - 1) ** 2, (2**256 - 1) ** 2, 2**511, 2**512 - 1):
        assert v in EDGES_512
    assert all(v < 2**256 for v in EDGES_256)
    assert all(v < 2**512 for v in EDGES_512)


def test_broken_red512_is_caught_with_counterexample():
    with faults.inject("red512"):
        report = run_suite(TrialConfig(trials=2, suites=("findings",)))
    assert not report.ok
    res = report.suites["findings"]
    assert res.failures > 0
    assert res.counterexample is not None
    assert "red512" in res.counterexample


@pytest.mark.parametrize("fault, suites", [
    ("add_mod", ("mp", "fe", "ladderstep")),
    ("sub_mod", ("mp", "fe", "ladderstep")),
    ("mul121666", ("fe", "ladderstep")),
    ("sqr256", ("mp", "fe", "ladderstep")),
    ("mul256", ("mp", "fe", "ladderstep")),
    ("subp", ("mp", "fe", "findings")),
    ("cmov", ("fe", "mladder", "findings")),
    ("invert", ("fe", "scalarmult")),
])
def test_broken_kernel_is_caught(fault, suites):
    with faults.inject(fault):
        report = run_suite(TrialConfig(trials=2, suites=suites))
    assert not report.ok
    for name in suites:
        res = report.suites[name]
        assert res.failures > 0, f"{fault} fault went unnoticed in {name}"
        assert res.counterexample is not None


def test_a_unary_counterexample_names_only_its_operand():
    with faults.inject("mul121666"):
        res = run_suite(TrialConfig(trials=1, suites=("fe",))).suites["fe"]
    assert res.counterexample.startswith("edge mul121666 a=")
    assert " b=" not in res.counterexample


@pytest.mark.parametrize("module, name, suite", [
    (mp_arith, "sqr256", "mp"),
    (fe25519, "mul121666", "fe"),
], ids=["sqr256", "mul121666"])
def test_edges_check_each_value_once(monkeypatch, module, name, suite):
    # a unary kernel runs once per edge value and once in the one trial,
    # not once for every pair of edge values
    calls = []
    kernel = getattr(module, name)
    monkeypatch.setattr(module, name, lambda a: calls.append(a) or kernel(a))
    report = run_suite(TrialConfig(trials=1, suites=(suite,)))
    assert report.ok
    assert len(calls) == len(EDGES_256) + 1


def test_mp_leaves_red512_to_findings_and_squares_without_mul256(monkeypatch):
    # mul256 once per pair, sqr256 without a second mul256(a, a), and no
    # red512: the findings suite checks it on a superset of the edges
    calls = {"mul256": 0, "red512": 0}

    def counting(name, kernel):
        def counted(*args):
            calls[name] += 1
            return kernel(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(mp_arith, name, counting(name, getattr(mp_arith, name)))
    report = run_suite(TrialConfig(trials=1, suites=("mp",)))
    assert report.ok
    assert calls == {"mul256": len(EDGES_256) ** 2 + 1, "red512": 0}


def test_an_exception_in_a_suite_is_a_failed_check(monkeypatch):
    # a red512 that hands the generated one a column no byte input gives, so
    # that the kernel's own overflow check, bytes()'s range check, fires
    overflow = (0,) * 31 + (2**300,) + (0,) * 32
    monkeypatch.setattr(mp_arith, "red512", lambda m: _reduce.red512(overflow))
    report = run_suite(TrialConfig(trials=1, suites=("ladderstep", "findings")))
    assert not report.ok
    res = report.suites["findings"]
    assert (res.cases, res.failures) == (1, 1)
    assert res.counterexample == ("findings raised ValueError: bytes must be in range(0, 256) "
                                  "(in red512) at edge")
    assert res.stopped == res.counterexample
    # the other suites still run
    assert report.suites["ladderstep"].cases > 0 and report.suites["ladderstep"].failures == 0


def test_an_exception_in_a_trial_names_the_trial(monkeypatch):
    # the genuine red512 for every edge check of the findings suite, then a raise
    calls = []

    def red512(m):
        calls.append(m)
        if len(calls) > len(EDGES_512):
            raise ValueError("stand-in")
        return _reduce.red512(m)

    monkeypatch.setattr(mp_arith, "red512", red512)
    res = run_suite(TrialConfig(trials=3, suites=("findings",))).suites["findings"]
    assert (res.cases, res.failures) == (57, 1)
    assert res.counterexample.endswith("(in red512) at trial=0")


def test_a_result_limb_outside_a_byte_fails_its_check(monkeypatch):
    # mul256's product, of the right value, with limb 0 above a byte and limb 1
    # below: its check fails and prints it, and the suite runs to its end
    kernel = mp_arith.mul256

    def mul256(a, b):
        r = kernel(a, b)
        return (r[0] + 256, r[1] - 1) + r[2:]

    monkeypatch.setattr(mp_arith, "mul256", mul256)
    res = run_suite(TrialConfig(seed=1, trials=20, suites=("mp",))).suites["mp"]
    pairs, values = len(EDGES_256) ** 2 + 20, len(EDGES_256) + 20
    # three checks per pair (mul256, add_mod, sub_mod) and two per value (sqr256, subp)
    assert (res.cases, res.failures) == (3 * pairs + 2 * values, pairs)
    assert res.counterexample == f"edge mul256 a={'00' * 32} b={'00' * 32} got=(256,-1{',0' * 62})"
    assert res.stopped is None


def test_faults_reject_unknown_names():
    with pytest.raises(ValueError):
        with faults.inject("nonsense"):
            pass


def test_kernels_are_re_exported_without_a_wrapper():
    assert fe25519.mul256 is mp_arith.mul256 is _kernels.mul256
    assert fe25519.sqr256 is mp_arith.sqr256 is _square.sqr256
    assert fe25519.red512 is mp_arith.red512 is _reduce.red512
    assert fe25519.add is mp_arith.add_mod is _reduce.add_mod
    assert fe25519.sub is mp_arith.sub_mod is _reduce.sub_mod
    assert fe25519.mul121666 is mp_arith.mul121666 is _linear.mul121666
    assert fe25519.subp is mp_arith.subp is _linear.subp
    assert fe25519.cmov is mp_arith.cmov is _linear.cmov
    # one name per kernel: the function behind each fault name has that name
    for name in faults.KNOWN:
        assert getattr(mp_arith if hasattr(mp_arith, name) else fe25519, name).__name__ == name


def _bindings():
    return {(name, key): value for name, mod in list(sys.modules.items())
            if name.startswith("packed25519") for key, value in vars(mod).items()}


def _assert_same_objects(before):
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert changed == []


def test_inject_restores_every_binding():
    before = _bindings()
    with faults.inject(*faults.KNOWN):
        for name in faults.KNOWN:
            home = mp_arith if hasattr(mp_arith, name) else fe25519
            assert getattr(home, name) is not before[(home.__name__, name)]
        assert fe25519.add is mp_arith.add_mod
    _assert_same_objects(before)
    with pytest.raises(RuntimeError):
        with faults.inject(*faults.KNOWN):
            raise RuntimeError("inside the block")
    _assert_same_objects(before)


def test_nested_inject_keeps_the_fault():
    # a second flip of the same bit would cancel the first
    red512 = mp_arith.red512
    with faults.inject("red512"):
        with faults.inject("red512"):
            report = run_suite(TrialConfig(trials=2, suites=("findings",)))
        assert mp_arith.red512 is not red512
    assert not report.ok
    assert report.suites["findings"].failures > 0


def test_importing_the_package_loads_only_the_arithmetic():
    # a fresh interpreter, since pytest has loaded all of these here; the
    # fault variable is set to show that no environment switches a fault on
    src = Path(__file__).resolve().parent.parent / "src"
    lazy = {"dataclasses", "inspect", "hashlib", "_hashlib", "json", "packed25519.difftest",
            "packed25519._field_suites", "packed25519.oracle", "packed25519.faults",
            "packed25519.cli"}
    s, u, want = difftest.RFC7748_VECTORS[0]
    code = (f"import sys; from packed25519 import *; print(sorted({lazy!r} & set(sys.modules)))\n"
            "import packed25519\n"
            f"print(packed25519.scalarmult(bytes.fromhex({s!r}), bytes.fromhex({u!r})).hex())\n"
            "from packed25519 import faults; print(faults.ACTIVE == frozenset())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src), PACKED25519_FAULTS="mul256"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", want, "True"]
