"""Tests for the pair counting of tools/pairs.py."""

import importlib.util
import json
import sys
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


def test_a_failed_run_keeps_the_whole_pairs_and_exits_1(tmp_path, monkeypatch, capsys):
    # Seeds 1-3 on one workload: the third call, seed 2's change run (the side
    # that goes first swaps), fails, so seeds 1 and 3 are the whole pairs.
    names = [m["name"] for m in json.loads((pairs.ROOT / "BENCHMARK.json").read_text())
             ["end_to_end"]]
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        if len(calls) == 3:
            raise RuntimeError(f"{checkout}: perfbench/run.py --workload {workload} "
                               f"--seed {seed} exited 1\nlast line of its output")
        value = 2.0 if checkout.name == "change" else 1.0
        return {"seed": seed, "env": {}, "failed": int(checkout.name == "change"),
                "metrics": {name: {"unit": "s", "value": value + seed} for name in names}}

    monkeypatch.setattr(pairs, "run", run)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["pairs.py", "--parent", "parent", "--change", "change",
                                      "--workloads", "study", "--seeds", "1-3", "--tag", "t"])
    assert pairs.main() == 1
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3)]
    for side, value in (("parent", 1.0), ("change", 2.0)):
        bench = json.loads((tmp_path / f"BENCH_t_{side}.json").read_text())
        assert [r["seed"] for r in bench["study"]["runs"]] == [1, 3]
        assert bench["study"]["metrics"]["iter_s_p50"]["values"] == [value + 1, value + 3]
    out = capsys.readouterr().out
    assert "study: failed iterations parent 0, change 2  more failures" in out
    assert out.endswith("failed run: change: perfbench/run.py --workload study --seed 2 "
                        "exited 1\nlast line of its output\n")
