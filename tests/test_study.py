"""The delay-gap study as a library call: ``csiaug.sweep`` writes the summary
``csiaug sweep`` writes, and ``read_summary`` judges it as every record is judged."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from csiaug import (
    AugmentMethod, AugmentParams, FileFormatError, ShiftDirection, SweepSummary, channel, cli,
    generate_angular_dataset, load_scenario, read_summary, sweep, write_dataset,
)
from csiaug.dataset_io import write_record

PRESETS = Path(__file__).resolve().parent.parent / "scenarios"
TRAIN, TEST = PRESETS / "motion-range-train.json", PRESETS / "motion-range-test.json"
SEED = 20260823
SIZES = {"trials": 1, "train_count": 40, "test_count": 20, "delay_bins": 4}
TOY = ["--trials", 1, "--train-count", 40, "--test-count", 20, "--na", 4, "--seed", SEED]


def bs_down(*shifts):
    return [AugmentParams(AugmentMethod.BUBBLE_SHIFT_DOWN, shift=s) for s in shifts]


def shifted(spec, bins):
    lo, hi = spec.delay_range
    return replace(spec, delay_range=(lo + bins, hi + bins))


@pytest.fixture(scope="module")
def gap_summary(tmp_path_factory):
    """The domain-gap study's summary at toy size, as ``csiaug sweep`` wrote it."""
    out = tmp_path_factory.mktemp("gap") / "gap.json"
    assert cli.run([str(a) for a in [
        "sweep", "--train-scenario", TRAIN, "--test-scenario", TEST, *TOY,
        "--method", "bs-down", "--values", 1, "--ratio", "1/4", "--out", out]]) == 0
    return out


def test_library_gap_study_writes_the_cli_bytes(gap_summary, tmp_path):
    summary = sweep(load_scenario(TRAIN), load_scenario(TEST), bs_down(1), "1/4", seed=SEED,
                    **SIZES)
    write_record(tmp_path / "lib.json", summary.to_dict())
    assert (tmp_path / "lib.json").read_bytes() == gap_summary.read_bytes()


def test_library_shift_sweep_writes_the_cli_bytes(tmp_path, capsys):
    out = tmp_path / "cli.json"
    assert cli.run([str(a) for a in [
        "sweep", "--train-scenario", TRAIN, "--gap-bins", 1, *TOY, "--method", "bs-down",
        "--values", "0,1,2,3", "--ratio", "1/8", "--out", out]]) == 0
    printed = capsys.readouterr().out.splitlines()
    train = load_scenario(TRAIN)
    seen = []
    summary = sweep(train, shifted(train, 1), bs_down(0, 1, 2, 3), "1/8", seed=SEED,
                    on_trial=seen.append, **SIZES)
    write_record(tmp_path / "lib.json", summary.to_dict())
    assert (tmp_path / "lib.json").read_bytes() == out.read_bytes()
    assert seen == list(summary.trials) and len(printed) == 2


def test_library_file_sweep_writes_the_cli_bytes(tmp_path):
    files = tmp_path / "train.csia", tmp_path / "test.csia"
    for path, scenario, count in zip(files, (TRAIN, TEST), (40, 20)):
        write_dataset(generate_angular_dataset(load_scenario(scenario), count, 4), path)
    out = tmp_path / "cli.json"
    assert cli.run([str(a) for a in [
        "sweep", "--train", files[0], "--test", files[1], "--method", "rg", "--values", "2,3",
        "--mode", "replace", "--ratio", "1/4", "--seed", 7, "--out", out]]) == 0
    passes = [AugmentParams(AugmentMethod.RANDOM_GENERATION, block_size=b) for b in (2, 3)]
    summary = sweep(*files, passes, "1/4", "replace", 7)
    write_record(tmp_path / "lib.json", summary.to_dict())
    assert (tmp_path / "lib.json").read_bytes() == out.read_bytes()
    assert summary.train_scenario is None and len(summary.trials) == 1


def test_read_summary_round_trips_byte_for_byte(gap_summary, tmp_path):
    summary = read_summary(gap_summary)
    assert isinstance(summary, SweepSummary) and summary.trials[0].trial == 0
    write_record(tmp_path / "again.json", summary.to_dict())
    assert (tmp_path / "again.json").read_bytes() == gap_summary.read_bytes()


@pytest.mark.parametrize("edit,message", [
    (lambda s: s["trials"][0].update(nmse_db=["x"]), "nmse_db must be a number, got 'x'"),
    (lambda s: s.pop("values"), "missing fields: values"),
    (lambda s: s.update(extra=1), "unknown fields: extra"),
    (lambda s: s["trials"][0].pop("best_value"), "missing fields: best_value"),
    (lambda s: s.update(trials=5), "trials must be a JSON array, got 5"),
    (lambda s: s.update(ratio="2/8"), "ratio must be in lowest terms"),
    (lambda s: s.update(mean_margin_db=[]), "mean_margin_db has 0 entries for 1 values"),
], ids=["nmse-not-a-number", "no-values", "unknown-key", "no-best-value", "trials-not-a-list",
        "ratio-not-lowest-terms", "margins-short"])
def test_read_summary_rejects_a_malformed_summary(gap_summary, tmp_path, edit, message):
    data = json.loads(gap_summary.read_text())
    edit(data)
    path = tmp_path / "bad.json"
    write_record(path, data)
    with pytest.raises(FileFormatError, match="malformed sweep summary") as info:
        read_summary(path)
    assert message in str(info.value)


@pytest.mark.parametrize("passes,sizes,message", [
    (bs_down(1) + [AugmentParams(AugmentMethod.BUBBLE_SHIFT_UP, shift=2)], {},
     "passes of one method and one direction"),
    ([AugmentParams(AugmentMethod.MODEL_DRIVEN, shift=1, direction=d) for d in ShiftDirection],
     {}, "passes of one method and one direction"),
    ([], {}, "one or more passes"),
    (bs_down(1), {"trials": 0}, "trials must be at least 1, got 0"),
    (bs_down(1), {"trials": 51}, "trials must be at most 50, got 51"),
], ids=["two-methods", "two-directions", "no-pass", "no-trial", "trials-past-the-seed-layout"])
def test_sweep_rejects_its_arguments_before_drawing(monkeypatch, passes, sizes, message):
    draws = []
    monkeypatch.setattr(channel, "_batch_draws", lambda *a: draws.append(a))
    with pytest.raises(ValueError, match=message):
        sweep(load_scenario(TRAIN), load_scenario(TEST), passes, "1/4", **sizes)
    assert draws == []


def test_sweep_takes_two_sources_of_one_kind_and_sizes_only_for_scenarios(tmp_path):
    with pytest.raises(ValueError, match="two scenarios or two dataset paths"):
        sweep(load_scenario(TRAIN), tmp_path / "test.csia", bs_down(1), "1/4")
    with pytest.raises(ValueError, match="sizes are for scenarios"):
        sweep(tmp_path / "train.csia", tmp_path / "test.csia", bs_down(1), "1/4", trials=1)
