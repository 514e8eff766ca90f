"""The decision rule of tools/pairs.py on fixed lists of pair results."""

import importlib.util
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
