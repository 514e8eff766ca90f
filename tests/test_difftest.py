import json

import pytest

from packed25519 import difftest, faults
from packed25519.difftest import EdgeCorpus, TrialConfig, edge_corpus, run_suite

P = 2**255 - 19


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
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


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


def test_config_validation_happens_before_running():
    with pytest.raises(ValueError):
        run_suite(TrialConfig(trials=0))
    with pytest.raises(ValueError):
        run_suite(TrialConfig(trials=-5))
    with pytest.raises(ValueError):
        run_suite(TrialConfig(suites=("mp", "bogus")))
    with pytest.raises(ValueError):
        run_suite(TrialConfig(suites=()))
    with pytest.raises(ValueError):
        run_suite(TrialConfig(seed=-1))
    with pytest.raises(ValueError):
        run_suite(TrialConfig(seed=2**64))


def test_suite_subset_runs_only_requested():
    report = run_suite(TrialConfig(trials=1, suites=("findings",)))
    assert list(report.suites) == ["findings"]


def test_json_report_round_trips():
    report = run_suite(TrialConfig(trials=1, suites=("findings",)))
    assert json.loads(report.to_json()) == report.to_dict()


def test_edge_corpus_contents():
    corpus = edge_corpus()
    assert isinstance(corpus, EdgeCorpus)
    assert 2 * P + 37 == 2**256 - 1
    # the mp suite is the only random-input test of the 256-bit kernels, and
    # the findings suite of red512, so these edges must stay in the corpus
    for v in (0, 1, P, 2 * P - 1, 2 * P, 2 * P + 37, 2**255):
        assert v in corpus.u256
    for v in (2 * P, P * P, (P - 1) ** 2, (2**256 - 1) ** 2, 2**511, 2**512 - 1):
        assert v in corpus.u512
    assert all(v < 2**256 for v in corpus.u256)
    assert all(v < 2**512 for v in corpus.u512)


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
])
def test_broken_kernel_is_caught(fault, suites):
    with faults.inject(fault):
        report = run_suite(TrialConfig(trials=2, suites=suites))
    assert not report.ok
    for name in suites:
        res = report.suites[name]
        assert res.failures > 0, f"{fault} fault went unnoticed in {name}"
        assert res.counterexample is not None


def test_faults_reject_unknown_names():
    with pytest.raises(ValueError):
        with faults.inject("nonsense"):
            pass


def test_faults_are_off_by_default():
    assert not faults.ACTIVE
