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
    c = pairs.compare(parent, change, "lower")
    assert (c["wins"], c["pairs"], c["gain"]) == (10, 10, True)
    assert c["parent"] == 474.5 and c["change"] == pytest.approx(454.5)
    assert (c["q1"], c["q3"]) == pytest.approx((474.475, 474.6))
    # Eight wins of ten is too few, however large the drop.
    assert not pairs.compare(parent, change[:8] + parent[8:], "lower")["gain"]
    # Ten wins of ten, but by less than the parent's quartile distance.
    c = pairs.compare(parent, [p - 0.1 for p in parent], "lower")
    assert (c["wins"], c["gain"]) == (10, False)
    # A metric where higher is better reads the other way round.
    assert pairs.compare(change, parent, "higher")["gain"]
    assert pairs.compare(parent, change, "higher")["wins"] == 0
