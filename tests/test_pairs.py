"""Tests for the pair counting of tools/pairs.py."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", PATH)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def test_wins_counts_strictly_better_pairs():
    parent, change = [3.0, 2.0, 5.0, 4.0], [1.0, 2.0, 6.0, 3.5]
    assert pairs.wins(parent, change, "lower") == 2
    assert pairs.wins(parent, change, "higher") == 1  # the tie counts for neither
    with pytest.raises(ValueError, match="3 parent values against 4"):
        pairs.wins(parent[:3], change, "lower")
    with pytest.raises(ValueError, match="better"):
        pairs.wins(parent, change, "smaller")


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_quartile_distance():
    parent = [474.4, 474.5, 474.6, 474.5, 474.5, 474.6, 474.4, 474.5, 474.6, 474.5]
    change = [p - 20.0 for p in parent]
    c = pairs.compare(parent, change, "lower", 0.25)
    assert (c["wins"], c["pairs"], c["gain"]) == (10, 10, True)
    assert c["parent"] == 474.5 and c["change"] == pytest.approx(454.5)
    assert (c["q1"], c["q3"]) == pytest.approx((474.475, 474.6))
    # Eight wins of ten is too few, however large the drop.
    assert not pairs.compare(parent, change[:8] + parent[8:], "lower", 0.25)["gain"]
    # Ten wins of ten, but by less than the parent's quartile distance.
    c = pairs.compare(parent, [p - 0.1 for p in parent], "lower", 0.25)
    assert (c["wins"], c["gain"]) == (10, False)
    # A metric where higher is better reads the other way round.
    assert pairs.compare(change, parent, "higher", 0.25)["gain"]
    assert pairs.compare(parent, change, "higher", 0.25)["wins"] == 0


def test_worse_is_a_median_beyond_the_bound_relative_to_the_parent():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.1, 9.9, 10.0, 10.0]
    assert not pairs.compare(parent, [p * 1.2 for p in parent], "lower", 0.25)["worse"]
    assert pairs.compare(parent, [p * 1.3 for p in parent], "lower", 0.25)["worse"]
    # The bound scales with the metric: 5 % of a 10 s parent median is 0.5 s.
    assert pairs.compare(parent, [p + 0.6 for p in parent], "lower", 0.05)["worse"]
    assert not pairs.compare(parent, [p + 0.4 for p in parent], "lower", 0.05)["worse"]
    # A change that is better is never worse, however far it moves.
    assert not pairs.compare(parent, [p / 2 for p in parent], "lower", 0.05)["worse"]
    # Where higher is better, a drop is what counts.
    assert pairs.compare(parent, [p * 0.7 for p in parent], "higher", 0.25)["worse"]
    assert not pairs.compare(parent, [p * 1.7 for p in parent], "higher", 0.25)["worse"]


def test_unresolved_is_a_parent_spread_beyond_the_bound_unless_the_change_beats_every_run():
    steady = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.1, 9.9, 10.0, 10.0]
    wide = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    c = pairs.compare(wide, wide, "lower", 0.25)
    assert c["q3"] - c["q1"] > 0.25 * c["parent"] and c["unresolved"]
    assert not pairs.compare(steady, steady, "lower", 0.25)["unresolved"]
    assert not pairs.compare(wide, wide, "lower", 0.5)["unresolved"]
    # Every change run below every parent run resolves a wide spread ...
    assert not pairs.compare(wide, [5.9] * 10, "lower", 0.25)["unresolved"]
    # ... but one change run that ties the best parent run does not.
    assert pairs.compare(wide, [5.9] * 9 + [6.0], "lower", 0.25)["unresolved"]
    assert not pairs.compare(wide, [14.1] * 10, "higher", 0.25)["unresolved"]
    assert pairs.compare(wide, [5.9] * 10, "higher", 0.25)["unresolved"]
