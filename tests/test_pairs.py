"""tools/pairs.py: its decision rule on fixed lists of pair results, and its
guards on fixed result objects and directories; no benchmark runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [21.5, 21.6, 21.55, 21.6, 21.7, 21.5, 21.6, 21.65, 21.55, 21.6]


def test_a_clear_drop_in_a_lower_is_better_metric_is_a_gain(pairs):
    change = [x - 0.8 for x in PARENT]
    v = pairs.verdict(PARENT, change, lower_is_better=True)
    assert v.wins == 10
    assert v.gap == pytest.approx(0.8)
    assert v.iqr_a == pytest.approx(0.075)  # exclusive quartiles 21.5375 and 21.6125
    assert v.gain


def test_the_same_drop_is_a_loss_when_higher_is_better(pairs):
    v = pairs.verdict(PARENT, [x - 0.8 for x in PARENT], lower_is_better=False)
    assert (v.wins, v.gain) == (0, False)
    assert v.gap == pytest.approx(-0.8)


def test_eight_wins_of_ten_is_no_gain(pairs):
    change = [x - 0.8 for x in PARENT[:8]] + PARENT[8:]
    v = pairs.verdict(PARENT, change, lower_is_better=True)
    assert v.wins == 8  # the two equal pairs are ties, counted for neither side
    assert not v.gain
    change[8] -= 0.01
    assert pairs.verdict(PARENT, change, lower_is_better=True).gain


def test_every_pair_won_by_less_than_the_parents_spread_is_no_gain(pairs):
    change = [x - 0.05 for x in PARENT]
    v = pairs.verdict(PARENT, change, lower_is_better=True)
    assert v.wins == 10
    assert v.gap < v.iqr_a
    assert not v.gain


def test_more_failed_operations_cancel_a_gain(pairs):
    change = [x - 0.8 for x in PARENT]
    assert pairs.verdict(PARENT, change, True, 0.0, 0.0).gain
    assert not pairs.verdict(PARENT, change, True, 0.0, 0.001).gain


def _result(correct, failed=0):
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {"peak_rss_mb": {"value": 20.9, "unit": "MB"}}}


@pytest.fixture
def bench(pairs, monkeypatch):
    """Stand in for perfbench/run.py: record each call, print `bench.result`."""
    class Bench:
        calls = []
        result = _result(True)

    def fake_run(cmd, **kwargs):
        Bench.calls.append(kwargs)
        out = '# details: {"prechecks_failed": ["the RFC vector"]}\n' + json.dumps(Bench.result)
        return subprocess.CompletedProcess(cmd, 0, out + "\n", "")
    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    return Bench


def test_every_run_writes_no_bytecode_cache(pairs, bench, tmp_path):
    assert pairs.run(tmp_path, "dh", 301) == _result(True)
    assert bench.calls[0]["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert bench.calls[0]["cwd"] == tmp_path


def test_a_result_that_is_not_correct_stops_the_tool(pairs, bench, tmp_path):
    # a failed precheck: no operation failed, but the run is not correct
    bench.result = _result(False, failed=0)
    with pytest.raises(SystemExit, match="not correct .failed 0 of 40.\n# details: .*RFC vector"):
        pairs.run(tmp_path, "dh", 301)


def test_a_bytecode_cache_on_either_side_is_refused_before_any_run(pairs, bench, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for top in ("src/packed25519", "perfbench", "tests"):
        (a / top).mkdir(parents=True)
        (b / top).mkdir(parents=True)
    (b / "tests" / "__pycache__").mkdir()  # not under src/ or perfbench/: not the benchmark's
    assert pairs.bytecode_caches(a) == pairs.bytecode_caches(b) == []
    (b / "src" / "packed25519" / "__pycache__").mkdir()
    (a / "perfbench" / "__pycache__").mkdir()
    argv = [str(a), str(b), "--workload", "dh", "--seeds", *map(str, range(301, 311))]
    with pytest.raises(SystemExit) as stop:
        pairs.main(argv)
    assert str(a / "perfbench" / "__pycache__") in str(stop.value)
    assert str(b / "src" / "packed25519" / "__pycache__") in str(stop.value)
    assert bench.calls == []
