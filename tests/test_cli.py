"""End-to-end tests for the command-line pipeline (in-process via cli.run)."""

import csv
import io
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import csiaug.study
from csiaug import (
    AugmentMethod, AugmentMode, AugmentParams, augment, augment_dataset, channel, cli, codec,
    derive_seed, evaluate, fit_codec, generate_angular_dataset, load_scenario,
)
from csiaug.channel import ScenarioSpec, save_scenario
from csiaug.codec import EvalReport, features
from csiaug.core import Dataset, Domain, Provenance
from csiaug.dataset_io import read_codec, read_dataset, read_report, write_dataset, write_report


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scenario file plus the artifacts of one full pipeline run."""
    root = tmp_path_factory.mktemp("pipeline")
    spec = ScenarioSpec(
        subcarriers=16,
        antennas=4,
        paths=2,
        delay_range=(0.0, 5.0),
        angle_range=(-0.5, 0.5),
        gain_decay=0.4,
        seed=77,
    )
    save_scenario(spec, root / "scenario.json")

    def run(*argv):
        code = cli.run([str(a) for a in argv])
        assert code == 0, f"command failed: {argv}"

    run("gen", "--scenario", root / "scenario.json", "--count", 40, "--out", root / "train.csia")
    run("gen", "--scenario", root / "scenario.json", "--count", 10, "--seed", 78,
        "--out", root / "test.csia")
    run("transform", "--in", root / "train.csia", "--na", 8, "--out", root / "train_ang.csia")
    run("transform", "--in", root / "test.csia", "--na", 8, "--out", root / "test_ang.csia")
    run("augment", "--in", root / "train_ang.csia", "--method", "bs-down", "--shift", 1,
        "--seed", 5, "--out", root / "aug.csia")
    run("fit", "--train", root / "train_ang.csia", "--ratio", "1/4", "--out", root / "base.csic")
    run("fit", "--train", root / "aug.csia", "--ratio", "1/4", "--out", root / "aug.csic")
    run("eval", "--codec", root / "base.csic", "--test", root / "test_ang.csia",
        "--label", "baseline", "--out", root / "base.json")
    run("eval", "--codec", root / "aug.csic", "--test", root / "test_ang.csia",
        "--label", "bs-down", "--out", root / "aug.json")
    run("report", "--in", root / "base.json", root / "aug.json", "--format", "md",
        "--out", root / "grid.md")
    run("sweep", "--train", root / "train_ang.csia", "--test", root / "test_ang.csia",
        "--method", "bs-down", "--values", "0,1,2", "--ratio", "1/4",
        "--seed", 5, "--out", root / "sweep.json")
    return root


def test_pipeline_artifacts(workspace):
    train = read_dataset(workspace / "train.csia")
    assert train.domain is Domain.SPATIAL_FREQUENCY
    assert len(train) == 40 and train.sample_shape == (16, 4)
    ang = read_dataset(workspace / "train_ang.csia")
    assert ang.domain is Domain.ANGULAR_DELAY
    assert ang.sample_shape == (8, 4)
    aug = read_dataset(workspace / "aug.csia")
    assert len(aug) == 80  # append mode doubles the samples
    assert aug.meta.augmentations[0].method == "bs-down"
    report = read_report(workspace / "base.json")
    assert report.label == "baseline" and report.ratio == "1/4"
    grid = (workspace / "grid.md").read_text()
    assert grid.startswith("| method | 1/4 |")
    assert "| baseline |" in grid and "| bs-down |" in grid


def test_gen_seed_override_changes_data(workspace):
    a = read_dataset(workspace / "train.csia")
    b = read_dataset(workspace / "test.csia")
    assert not np.array_equal(a.samples[:10], b.samples)
    assert b.meta.seed == 78


def test_sweep_summary_schema(workspace):
    summary = json.loads((workspace / "sweep.json").read_text())
    assert summary["method"] == "bs-down"
    assert summary["param"] == "shift" and summary["values"] == [0, 1, 2]
    assert summary["train_samples"] == 40 and summary["test_samples"] == 10
    # A file source is one trial under --seed; it names no scenario.
    assert summary["seed"] == 5 and len(summary["trials"]) == 1
    assert summary["train_scenario"] is None and summary["test_scenario"] is None
    trial = summary["trials"][0]
    assert len(trial["nmse_db"]) == 3
    assert trial["best_value"] == summary["values"][trial["nmse_db"].index(min(trial["nmse_db"]))]
    assert summary["mean_margin_db"] == [trial["baseline_db"] - db for db in trial["nmse_db"]]


def test_reruns_are_byte_identical(workspace, tmp_path):
    code = cli.run(
        ["gen", "--scenario", str(workspace / "scenario.json"), "--count", "40",
         "--out", str(tmp_path / "again.csia")]
    )
    assert code == 0
    assert (tmp_path / "again.csia").read_bytes() == (workspace / "train.csia").read_bytes()
    assert (
        (tmp_path / "again.csia.meta.json").read_bytes()
        == (workspace / "train.csia.meta.json").read_bytes()
    )
    code = cli.run(
        ["sweep", "--train", str(workspace / "train_ang.csia"),
         "--test", str(workspace / "test_ang.csia"), "--method", "bs-down",
         "--values", "0,1,2", "--ratio", "1/4", "--seed", "5",
         "--out", str(tmp_path / "sweep.json")]
    )
    assert code == 0
    assert (tmp_path / "sweep.json").read_bytes() == (workspace / "sweep.json").read_bytes()
    # The library evaluation writes the report csiaug eval wrote, byte for byte.
    aug, test = read_codec(workspace / "aug.csic"), read_dataset(workspace / "test_ang.csia")
    write_report(evaluate(aug, test, label="bs-down"), tmp_path / "lib.json")
    assert (tmp_path / "lib.json").read_bytes() == (workspace / "aug.json").read_bytes()


def report_file(tmp_path, name, label, ratio, db):
    report = EvalReport(
        label=label,
        ratio=ratio,
        nmse_linear=10 ** (db / 10),
        nmse_db=db,
        sample_count=10,
        codec_info={"ratio": ratio},
    )
    path = tmp_path / name
    write_report(report, path)
    return path


def test_report_grid_golden_md(tmp_path, capsys):
    a = report_file(tmp_path, "a.json", "baseline", "1/4", -10.5)
    b = report_file(tmp_path, "b.json", "bs-down", "1/4", -12.25)
    c = report_file(tmp_path, "c.json", "bs-down", "1/16", -5.0)
    assert cli.run(["report", "--in", str(a), str(b), str(c)]) == 0
    out = capsys.readouterr().out
    assert out == (
        "| method | 1/4 | 1/16 |\n"
        "| --- | --- | --- |\n"
        "| baseline | -10.500 | - |\n"
        "| bs-down | -12.250 | -5.000 |\n"
    )
    # listing order must not matter
    assert cli.run(["report", "--in", str(c), str(a), str(b)]) == 0
    assert capsys.readouterr().out == out


def test_report_grid_golden_csv(tmp_path, capsys):
    a = report_file(tmp_path, "a.json", "baseline", "1/4", -10.5)
    c = report_file(tmp_path, "c.json", "bs-down", "1/16", -5.0)
    assert cli.run(["report", "--in", str(a), str(c), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "method,1/4,1/16\n"
        "baseline,-10.500,\n"
        "bs-down,,-5.000\n"
    )


def test_report_grid_md_escapes_pipes(tmp_path, capsys):
    a = report_file(tmp_path, "a.json", "bs-down|S=1", "1/4", -10.5)
    assert cli.run(["report", "--in", str(a)]) == 0
    assert capsys.readouterr().out == (
        "| method | 1/4 |\n"
        "| --- | --- |\n"
        "| bs-down\\|S=1 | -10.500 |\n"
    )


@pytest.mark.parametrize("label", ["bs\ndown", "bs\r\ndown", "bs\rdown"])
def test_report_grid_md_keeps_a_multiline_label_in_one_row(label):
    report = EvalReport(label, "1/4", 0.1, -10.0, 1, {"ratio": "1/4"})
    assert cli.render_report_grid([report], "md") == (
        "| method | 1/4 |\n"
        "| --- | --- |\n"
        "| bs<br>down | -10.000 |\n"
    )
    # CSV quotes the label, line break and all.
    assert cli.render_report_grid([report], "csv") == f'method,1/4\n"{label}",-10.000\n'


@pytest.mark.parametrize("label", ["bs\rdown", "bs\r\ndown", "bs\ndown", "bs,down", 'bs"down'])
def test_report_grid_csv_reads_back_one_row_per_label(label):
    report = EvalReport(label, "1/4", 0.1, -10.0, 1, {"ratio": "1/4"})
    text = cli.render_report_grid([report], "csv")
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        ["method", "1/4"], [label, "-10.000"]]


def test_report_conflicting_cells_fail(tmp_path, capsys):
    a = report_file(tmp_path, "a.json", "baseline", "1/4", -10.5)
    b = report_file(tmp_path, "b.json", "baseline", "1/4", -11.5)
    assert cli.run(["report", "--in", str(a), str(b)]) == 1
    assert "conflicting" in capsys.readouterr().err
    # identical duplicates are tolerated
    dup = report_file(tmp_path, "dup.json", "baseline", "1/4", -10.5)
    assert cli.run(["report", "--in", str(a), str(dup)]) == 0


USAGE_CASES = [
    ["transform", "--in", "x.csia", "--out", "y.csia"],  # angular-delay input without --nc
    ["augment", "--in", "x.csia", "--method", "bs-up", "--out", "y.csia"],  # no --shift
    ["augment", "--in", "x.csia", "--method", "rg", "--out", "y.csia"],  # no --block
    # a file sweep takes its sets as they are: a scenario-only flag, judged
    # before the missing training file is read
    *(["sweep", "--train", "missing.csia", "--test", "x.csia", "--method", "bs-down",
       "--values", "1", "--ratio", "1/4", flag, value, "--out", "y.csia"]
      for flag, value in (("--trials", "7"), ("--train-count", "99"),
                          ("--test-count", "9"), ("--na", "9"))),
]


@pytest.mark.parametrize("argv", USAGE_CASES)
def test_usage_errors_exit_2(workspace, argv, capsys):
    fixed = [a.replace("x.csia", str(workspace / "train_ang.csia")) for a in argv]
    fixed = [a.replace("y.csia", str(workspace / "ignored.csia")) for a in fixed]
    assert cli.run(fixed) == 2
    assert "usage error" in capsys.readouterr().err


def case(argv, code, id, message):
    return pytest.param(argv, code, message, id=id)


def study(test, *extra):
    """A toy-size scenario sweep whose training scenario does not exist, so
    only flags judged before any scenario loads exit 2; ``extra`` overrides."""
    return ["sweep", "--train-scenario", "missing.json", *test, "--train-count", "40",
            "--test-count", "20", "--trials", "1", "--na", "4", "--method", "bs-down",
            "--values", "1", "--ratio", "1/4", "--out", "y.json", *extra]


# The test sides of the domain-gap study and of the shift sweep.
GAP = ["--test-scenario", "missing.json"]
SHIFT = ["--gap-bins", "1"]


RANGE_CASES = [
    # out of range whatever the input holds: usage errors
    case(["gen", "--scenario", "s.json", "--count", "-5", "--out", "y.csia"], 2,
         id="gen-count-negative", message="--count must be at least 0"),
    case(["gen", "--scenario", "s.json", "--count", "4", "--seed", "-1", "--out", "y.csia"], 2,
         id="gen-seed-negative", message="--seed must be at least 0"),
    case(["gen", "--scenario", "s.json", "--count", "4", "--seed", str(2**64),
          "--out", "y.csia"], 2,
         id="gen-seed-above-64-bits", message="--seed must be at most 18446744073709551615"),
    case(["augment", "--in", "x.csia", "--method", "bs-up", "--shift", "-1", "--out", "y.csia"],
         2, id="augment-shift-negative", message="shift must be at least 0"),
    case(["augment", "--in", "x.csia", "--method", "rg", "--block", "0", "--out", "y.csia"], 2,
         id="augment-block-zero", message="block size must be at least 1"),
    case(["transform", "--in", "f.csia", "--na", "0", "--out", "y.csia"], 2,
         id="transform-na-zero", message="--na must be at least 1"),
    # the input's domain picks the flag it needs: spatial-frequency reads --na
    case(["transform", "--in", "f.csia", "--nc", "16", "--out", "y.csia"], 2,
         id="transform-spatial-frequency-without-na",
         message="a spatial-frequency input requires --na"),
    case(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "bs-up",
          "--values", "1,-1", "--ratio", "1/4", "--out", "y.json"],
         2, id="sweep-shift-negative", message="shift must be at least 0"),
    case(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "bs-up",
          "--values", "1,1", "--ratio", "1/4", "--out", "y.json"],
         2, id="sweep-values-duplicate", message="--values must name distinct shift values"),
    case(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "rg",
          "--values", "2,0", "--ratio", "1/4", "--out", "y.json"],
         2, id="sweep-block-zero", message="block size must be at least 1"),
    case(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "bs-up",
          "--values", "a,b", "--ratio", "1/4", "--out", "y.json"],
         2, id="sweep-values-not-integers", message="--values must be comma-separated integers"),
    case(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "bs-up",
          "--values", ",", "--ratio", "1/4", "--out", "y.json"],
         2, id="sweep-values-empty", message="--values must name distinct shift values"),
    # a field the method does not use is still judged
    case(["augment", "--in", "x.csia", "--method", "rg", "--block", "4", "--shift", "-1",
          "--out", "y.csia"], 2, id="augment-rg-shift-negative",
         message="shift must be at least 0"),
    # flags are judged before any file is read: the training file does not exist
    case(["sweep", "--train", "missing.csia", "--test", "x.csia", "--method", "bs-up",
          "--values", "1,-1", "--ratio", "1/4", "--out", "y.json"],
         2, id="sweep-values-before-missing-file", message="shift must be at least 0"),
    # --out is judged before any work: "." is a directory, "missing/" does not exist
    case(["gen", "--scenario", "s.json", "--count", "4", "--out", "."], 2,
         id="gen-out-directory", message="--out . is a directory"),
    case(["gen", "--scenario", "s.json", "--count", "4", "--out", "missing/y.csia"], 2,
         id="gen-out-in-missing-directory", message="--out directory missing does not exist"),
    case(["transform", "--in", "f.csia", "--na", "4", "--out", "."], 2,
         id="transform-out-directory", message="--out . is a directory"),
    case(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "bs-up",
          "--values", "1", "--ratio", "1/4", "--out", "."],
         2, id="sweep-out-directory", message="--out . is a directory"),
    case(["report", "--in", "y.json", "--out", "."], 2, id="report-out-directory",
         message="--out . is a directory"),
    # a file source mixed with a scenario source
    case(["sweep", "--train", "x.csia", "--gap-bins", "1", "--method", "bs-up",
          "--values", "1", "--ratio", "1/4", "--out", "y.json"],
         2, id="sweep-file-with-gap-bins", message="--train and --test are files"),
    case(["sweep", "--train-scenario", "s.json", "--test", "x.csia", "--method", "bs-up",
          "--values", "1", "--ratio", "1/4", "--out", "y.json"],
         2, id="sweep-scenario-with-test-file", message="--train and --test are files"),
    # scenario sources: flags are judged before the scenario loads
    case(study(GAP, "--trials", "0"), 2, id="gap-trials-zero",
         message="--trials must be at least 1"),
    case(study(SHIFT, "--values", "0,-1"), 2, id="shift-values-negative",
         message="shift must be at least 0"),
    case(study(GAP, "--method", "md", "--values", "-1"), 2, id="gap-md-shift-negative",
         message="shift must be at least 0"),
    case(study(GAP, "--ratio", "0"), 2, id="gap-ratio-zero", message="ratio must be positive"),
    case(study(SHIFT, "--ratio", "0"), 2, id="shift-ratio-zero",
         message="ratio must be positive"),
    case(study(GAP, "--na", "0"), 2, id="gap-na-zero", message="--na must be at least 1"),
    case(study(SHIFT, "--na", "0"), 2, id="shift-na-zero", message="--na must be at least 1"),
    case(study(GAP, "--train-count", "1"), 2, id="gap-train-count-one",
         message="--train-count must be at least 2"),
    case(study(SHIFT, "--train-count", "-3"), 2, id="shift-train-count-negative",
         message="--train-count must be at least 2"),
    case(study(GAP, "--test-count", "0"), 2, id="gap-test-count-zero",
         message="--test-count must be at least 1"),
    case(study(SHIFT, "--test-count", "0"), 2, id="shift-test-count-zero",
         message="--test-count must be at least 1"),
    case(study(GAP, "--seed", "-1"), 2, id="gap-seed-negative",
         message="--seed must be at least 0"),
    case(study(SHIFT, "--seed", str(2**64)), 2, id="shift-seed-above-64-bits",
         message="--seed must be at most 18446744073709551615"),
    case(study(SHIFT, "--values", ","), 2, id="shift-values-empty",
         message="--values must name distinct shift values"),
    case(study(SHIFT, "--values", "1,1"), 2, id="shift-values-duplicate",
         message="--values must name distinct shift values"),
    case(study(GAP, "--out", "missing/y.json"), 2, id="gap-out-in-missing-directory",
         message="--out directory"),
    case(study(SHIFT, "--out", "missing/y.json"), 2, id="shift-out-in-missing-directory",
         message="--out directory"),
    case(study(GAP, "--out", "."), 2, id="gap-out-directory", message="is a directory"),
    case(study(SHIFT, "--out", "."), 2, id="shift-out-directory", message="is a directory"),
    case(study(GAP, "--trials", "51"), 2, id="gap-trials-above-50",
         message="--trials must be at most 50"),
    case(study(SHIFT, "--trials", "51"), 2, id="shift-trials-above-50",
         message="--trials must be at most 50"),
    case(study(SHIFT, "--values", "a,b"), 2, id="shift-values-not-integers",
         message="--values must be comma-separated integers"),
    # a shift that is not finite puts every delay out of range, whatever the
    # scenario; argparse reads a bare -inf as a flag
    case(study(["--gap-bins", "nan"]), 2, id="shift-gap-bins-nan",
         message="--gap-bins must be finite, got nan"),
    case(study(["--gap-bins", "inf"]), 2, id="shift-gap-bins-inf",
         message="--gap-bins must be finite, got inf"),
    case(study(["--gap-bins=-inf"]), 2, id="shift-gap-bins-minus-inf",
         message="--gap-bins must be finite, got -inf"),
    # valid flag values that conflict with the input: runtime errors
    case(["transform", "--in", "f.csia", "--na", "2000", "--out", "y.csia"], 1,
         id="transform-na-above-subcarriers",
         message="delay_bins (2000) cannot exceed subcarriers (16)"),
    case(["transform", "--in", "x.csia", "--nc", "4", "--out", "y.csia"], 1,
         id="transform-nc-below-delay-rows",
         message="delay_bins (8) cannot exceed subcarriers (4)"),
]


@pytest.mark.parametrize("argv,code,message", RANGE_CASES)
def test_out_of_range_flag_values(workspace, argv, code, message, capsys):
    paths = {
        "s.json": workspace / "scenario.json",
        "missing.json": workspace / "missing.json",
        "f.csia": workspace / "train.csia",  # 16 subcarriers
        "x.csia": workspace / "train_ang.csia",  # 8 delay rows
        "y.csia": workspace / "ignored.csia",
        "y.json": workspace / "ignored.json",
    }
    assert cli.run([str(paths.get(a, a)) for a in argv]) == code
    err = capsys.readouterr().err
    assert ("usage error" in err) == (code == 2)
    assert message in err
    assert not (workspace / "ignored.csia").exists()
    assert not (workspace / "ignored.json").exists()


@pytest.mark.parametrize(
    "argv,flag",
    [(["gen", "--scenario", "s.json", "--count"], "--count"),
     (["transform", "--in", "x.csia", "--nc"], "--nc"),
     (["transform", "--in", "f.csia", "--na"], "--na")],
    ids=["gen-count", "transform-nc", "transform-na"],
)
def test_counts_beyond_32_bits_are_usage_errors(workspace, tmp_path, argv, flag, capsys):
    # Each lands in an unsigned 32-bit container field, whatever the input holds.
    paths = {"s.json": workspace / "scenario.json", "f.csia": workspace / "train.csia",
             "x.csia": workspace / "train_ang.csia"}
    argv = [str(paths.get(a, a)) for a in argv] + [str(2**32), "--out", str(tmp_path / "y.csia")]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {flag} must be at most 4294967295")
    assert list(tmp_path.iterdir()) == []


def test_transform_inverse_requires_nc(workspace, capsys):
    # An angular-delay input goes back to spatial-frequency, so it needs
    # --nc; --na, the forward flag, does not stand in for it.
    for extra in ([], ["--na", "4"]):
        argv = ["transform", "--in", str(workspace / "train_ang.csia"), *extra,
                "--out", str(workspace / "ignored.csia")]
        assert cli.run(argv) == 2
        assert "--nc" in capsys.readouterr().err
    assert not (workspace / "ignored.csia").exists()


@pytest.mark.parametrize(
    "method,values,param",
    [("rg", "2,3", "block"), ("bs-up", "0,1", "shift"), ("md", "0,1", "shift")])
def test_sweep_param_follows_method(workspace, tmp_path, capsys, method, values, param):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--train", str(workspace / "train_ang.csia"),
            "--test", str(workspace / "test_ang.csia"), "--method", method,
            "--values", values, "--ratio", "1/4", "--out", str(out)]
    assert cli.run(argv) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(rf"trial 0: baseline \S+  {param}={values[0]}: \S+  "
                        rf"{param}={values[-1]}: \S+ dB  -> best {param}=\d", line)
    summary = json.loads(out.read_text())
    assert summary["param"] == param and summary["method"] == method
    assert summary["values"] == [int(v) for v in values.split(",")]


@pytest.mark.parametrize(
    "test,ratio,message",
    [("narrow", "1/4", "does not match codec"),
     ("test.csia", "1/4", "angular-delay"),
     ("empty", "1/4", "cannot evaluate on an empty dataset"),
     ("test_ang.csia", "2", "exceeds feature dim"),
     ("narrow", "2", "does not match codec")],
    ids=["fewer-delay-rows", "spatial-frequency", "empty", "ratio-above-one",
         "fewer-delay-rows-before-ratio"],
)
def test_sweep_judges_the_test_file_before_any_fit(
        workspace, tmp_path, monkeypatch, capsys, test, ratio, message):
    if test == "narrow":  # angular-delay with 4 delay rows, the training file has 8
        test = tmp_path / "narrow.csia"
        assert cli.run(["transform", "--in", str(workspace / "test.csia"), "--na", "4",
                        "--out", str(test)]) == 0
    elif test == "empty":  # the training file's shape and domain, no samples
        test = tmp_path / "empty.csia"
        write_dataset(Dataset(np.zeros((0, 8, 4)), Domain.ANGULAR_DELAY), test)
    else:
        test = workspace / test
    calls = []
    eigh, augmented = codec._eigh, csiaug.study._augmented
    monkeypatch.setattr(codec, "_eigh", lambda m, k: calls.append("eigh") or eigh(m, k))
    monkeypatch.setattr(csiaug.study, "_augmented",
                        lambda *a: calls.append("augment") or augmented(*a))
    out = tmp_path / "sweep.json"
    assert cli.run(["sweep", "--train", str(workspace / "train_ang.csia"), "--test", str(test),
                    "--method", "bs-down", "--values", "0,1",
                    "--ratio", ratio, "--out", str(out)]) == 1
    assert calls == []
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error:" in err and message in err


PRESETS = Path(__file__).resolve().parent.parent / "scenarios"
TOY = ["--train-count", "40", "--test-count", "20", "--na", "4", "--trials", "1",
       "--seed", "20260823"]
# The domain-gap study on the motion-range pair and the one-bin shift sweep.
STUDIES = {
    "gap": ["--train-scenario", PRESETS / "motion-range-train.json",
            "--test-scenario", PRESETS / "motion-range-test.json",
            "--method", "bs-down", "--values", "1", "--ratio", "1/4"],
    "shift": ["--train-scenario", PRESETS / "motion-range-train.json", "--gap-bins", "1",
              "--method", "bs-down", "--values", "0,1,2,3", "--ratio", "1/8"],
}


def run_study(name, out, *extra):
    return cli.run([str(a) for a in ["sweep", *STUDIES[name], *TOY, *extra, "--out", out]])


@pytest.mark.parametrize("name", STUDIES)
def test_study_writes_the_sweep_summary(tmp_path, capsys, name):
    out = tmp_path / "summary.json"
    assert run_study(name, out) == 0
    capsys.readouterr()
    summary = json.loads(out.read_text())
    assert set(summary) == {
        "method", "param", "values", "ratio", "mode", "seed", "direction", "train_scenario",
        "test_scenario", "train_samples", "test_samples", "trials", "mean_margin_db"}
    assert len(summary["trials"]) == 1
    assert (summary["train_samples"], summary["test_samples"]) == (40, 20)
    train = load_scenario(PRESETS / "motion-range-train.json")
    assert summary["train_scenario"] == json.loads(json.dumps(train.to_dict()))
    lo, hi = summary["test_scenario"]["delay_range"]
    assert (lo, hi) == ((0.0, 16.0) if name == "gap" else (1.0, 9.0))


# Bubble shifts ignore the augmentation seed; random generation consumes it.
@pytest.mark.parametrize("name,extra", [
    ("gap", ["--method", "rg", "--values", "3"]),
    ("shift", []),
    ("file", ["--method", "rg", "--values", "2,3", "--mode", "replace"]),
])
def test_summary_pins_the_trial_protocol(tmp_path, monkeypatch, capsys, name, extra):
    # Trial 1 recomputed in-process: train under derive_seed(base, 2), test
    # under derive_seed(base, 3), augmentation under derive_seed(base, 101).
    # The file case sweeps trial 1's sets of the gap study as files, one
    # trial augmenting under --seed.
    base = 20260823  # TOY's --seed
    train_spec = load_scenario(PRESETS / "motion-range-train.json")
    if name == "shift":
        lo, hi = train_spec.delay_range
        test_spec = replace(train_spec, delay_range=(lo + 1.0, hi + 1.0))
        passes = [AugmentParams(AugmentMethod.BUBBLE_SHIFT_DOWN, shift=s) for s in range(4)]
    else:
        test_spec = load_scenario(PRESETS / "motion-range-test.json")
        passes = [AugmentParams(AugmentMethod.RANDOM_GENERATION, block_size=b)
                  for b in ((3,) if name == "gap" else (2, 3))]
    train = generate_angular_dataset(train_spec.with_seed(derive_seed(base, 2)), 40, 4)
    test = generate_angular_dataset(test_spec.with_seed(derive_seed(base, 3)), 20, 4)
    seed, out = derive_seed(base, 101), tmp_path / "summary.json"
    calls, eigh = [], codec._eigh
    monkeypatch.setattr(codec, "_eigh", lambda m, k: calls.append(m.shape) or eigh(m, k))
    augmented, augment_samples = [], augment._augment_samples
    monkeypatch.setattr(augment, "_augment_samples",
                        lambda s, *a: augmented.append(len(s)) or augment_samples(s, *a))
    if name == "file":
        files = tmp_path / "train.csia", tmp_path / "test.csia"
        write_dataset(train, files[0])
        write_dataset(test, files[1])
        assert cli.run([str(a) for a in ["sweep", "--train", files[0], "--test", files[1],
                                         "--ratio", "1/4", "--seed", seed, *extra,
                                         "--out", out]]) == 0
        train, test = map(read_dataset, files)
    else:
        assert run_study(name, out, "--trials", "2", *extra) == 0
    capsys.readouterr()
    summary = json.loads(out.read_text())
    assert len(calls) == len(summary["trials"]) * (1 + len(passes))  # one eigensolve per pass
    # One serving per augmented pass: each training sample is augmented once,
    # in either mode (append serves the originals as they are).
    assert sum(augmented) == len(summary["trials"]) * len(passes) * len(train)
    got = summary["trials"][-1]
    assert [got["baseline_db"], *got["nmse_db"]] == [
        evaluate(fit_codec(train if p is None else augment_dataset(
            train, replace(p, seed=seed), AugmentMode(summary["mode"])),
            summary["ratio"]), test).nmse_db
        for p in [None, *passes]]


def test_scenario_sweep_defaults_reach_the_trial_loop(tmp_path, monkeypatch):
    # Without --trials, --train-count, --test-count and --na a scenario sweep
    # runs 5 trials of 2000 training and 500 test samples at 32 delay bins.
    # The stub stops it at the trial loop, before any set is drawn.
    class Stop(Exception):
        pass

    seen, draws = [], []

    def trial_sets(train, test, seed, trials, train_count, test_count, delay_bins):
        seen.append((trials, train_count, test_count, delay_bins))
        raise Stop

    monkeypatch.setattr(csiaug.study, "_trial_sets", trial_sets)
    monkeypatch.setattr(channel, "_batch_draws", lambda *a: draws.append(a))
    out = tmp_path / "summary.json"
    with pytest.raises(Stop):
        cli.run([str(a) for a in ["sweep", *STUDIES["gap"], "--out", out]])
    assert seen == [(5, 2000, 500, 32)]
    assert draws == [] and not out.exists()


@pytest.mark.parametrize(
    "name,extra,message",
    [
        ("shift", ["--gap-bins", "2000"], "delay_range must satisfy"),
        ("gap", ["--na", "2000"], "cannot exceed subcarriers"),
        ("shift", ["--ratio", "1/10000"], "retains no components"),
        ("gap", ["--ratio", "2"], "exceeds feature dim"),
        ("gap", ["--test-scenario", "{tmp}/missing.json"], "No such file or directory"),
        ("shift", ["--train-scenario", "{tmp}/missing.json"], "No such file or directory"),
        ("gap", ["--train-scenario", "{tmp}/list.json"], "must contain a JSON object, got list"),
        ("shift", ["--train-scenario", "{tmp}/list.json"],
         "must contain a JSON object, got list"),
        ("gap", ["--test-scenario", "{tmp}/wide.json"],
         "test scenario has 16 antennas, training scenario 32"),
    ],
)
def test_study_rejects_scenario_conflicts_before_drawing(
        tmp_path, monkeypatch, capsys, name, extra, message):
    # Flag values valid on their own that the scenarios reject, and scenario
    # files that do not load, are runtime errors found before any draw.
    (tmp_path / "list.json").write_text("[1, 2]")
    wide = json.loads((PRESETS / "motion-range-test.json").read_text())
    (tmp_path / "wide.json").write_text(json.dumps({**wide, "antennas": 16}))
    draws = []
    monkeypatch.setattr(channel, "_batch_draws", lambda *a: draws.append(a))
    out = tmp_path / "summary.json"
    assert run_study(name, out, *[arg.format(tmp=tmp_path) for arg in extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert draws == [] and not out.exists()


def test_study_summary_does_not_depend_on_the_preset_path(tmp_path, capsys):
    summaries = []
    for copy in ("a", "b/c"):
        root = tmp_path / copy
        root.mkdir(parents=True)
        for preset in ("motion-range-train.json", "motion-range-test.json"):
            shutil.copy(PRESETS / preset, root / preset)
        out = root / "summary.json"
        assert run_study("gap", out, "--train-scenario", root / "motion-range-train.json",
                         "--test-scenario", root / "motion-range-test.json") == 0
        summaries.append(out.read_bytes())
    capsys.readouterr()
    assert summaries[0] == summaries[1]


def test_bad_ratio_is_usage_error(workspace, capsys):
    argv = ["fit", "--train", str(workspace / "train_ang.csia"), "--ratio", "zero",
            "--out", str(workspace / "ignored.csic")]
    assert cli.run(argv) == 2
    assert "usage error" in capsys.readouterr().err


def test_runtime_errors_exit_1(workspace, tmp_path, capsys):
    missing = ["eval", "--codec", str(tmp_path / "nope.csic"),
               "--test", str(workspace / "test_ang.csia"), "--out", str(tmp_path / "r.json")]
    assert cli.run(missing) == 1
    # fitting on a frequency-domain dataset is a data error, not a usage error
    wrong_domain = ["fit", "--train", str(workspace / "train.csia"), "--ratio", "1/4",
                    "--out", str(tmp_path / "c.csic")]
    assert cli.run(wrong_domain) == 1
    corrupt = tmp_path / "corrupt.csia"
    corrupt.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    assert cli.run(["fit", "--train", str(corrupt), "--ratio", "1/4",
                    "--out", str(tmp_path / "c.csic")]) == 1
    capsys.readouterr()
    # a sidecar that is valid JSON but not an object is malformed input
    odd = tmp_path / "odd.csia"
    odd.write_bytes((workspace / "train.csia").read_bytes())
    (tmp_path / "odd.csia.meta.json").write_text("[]")
    assert cli.run(["transform", "--in", str(odd), "--na", "4",
                    "--out", str(tmp_path / "t.csia")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [
        ("delay_range", 5),
        ("subcarriers", None),
        ("seed", None),
        ("subcarriers", 1024.9),
        ("paths", True),
        ("seed", 3001.7),
        ("gain_decay", True),
        ("gain_decay", "0.5"),
        ("delay_range", "08"),
        ("angle_range", [-0.1, "0.1"]),
    ],
)
def test_gen_malformed_scenario_exits_1(workspace, tmp_path, capsys, field, value):
    scenario = json.loads((workspace / "scenario.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**scenario, field: value}))
    argv = ["gen", "--scenario", str(bad), "--count", "2", "--out", str(tmp_path / "g.csia")]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and field in err


@pytest.mark.parametrize(
    "raw", [b'{"subcarriers": 16, ', b"\xff\xfe{}"], ids=["truncated", "not-utf8"]
)
def test_gen_undecodable_scenario_exits_1(tmp_path, capsys, raw):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    argv = ["gen", "--scenario", str(bad), "--count", "2", "--out", str(tmp_path / "g.csia")]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err


def test_augment_rejects_frequency_domain(workspace, tmp_path, capsys):
    argv = ["augment", "--in", str(workspace / "train.csia"), "--method", "bs-down",
            "--shift", "1", "--out", str(tmp_path / "a.csia")]
    assert cli.run(argv) == 1
    assert "angular-delay" in capsys.readouterr().err


def test_transform_inverse_round_trip(workspace, tmp_path, capsys):
    # lossless when nothing was truncated: forward with na == nc, then back
    full = ["transform", "--in", str(workspace / "train.csia"), "--na", "16",
            "--out", str(tmp_path / "full_ang.csia")]
    assert cli.run(full) == 0
    back = ["transform", "--in", str(tmp_path / "full_ang.csia"), "--nc", "16",
            "--out", str(tmp_path / "back.csia")]
    assert cli.run(back) == 0
    capsys.readouterr()
    original = read_dataset(workspace / "train.csia")
    restored = read_dataset(tmp_path / "back.csia")
    assert restored.domain is Domain.SPATIAL_FREQUENCY
    # float32 storage bounds the round-trip error, not the transform
    assert np.abs(restored.samples - original.samples).max() < 1e-6


def test_help_and_parse_failures(capsys):
    assert cli.run(["--help"]) == 0
    assert cli.run(["gen", "--help"]) == 0
    assert cli.run([]) == 2  # a command is required
    assert cli.run(["frobnicate"]) == 2
    assert cli.run(["gen", "--scenario", "s.json"]) == 2  # missing required flags
    # one training source and one test source
    sweep = ["sweep", "--method", "bs-up", "--values", "1", "--ratio", "1/4", "--out", "y.json"]
    assert cli.run([*sweep, "--train", "x.csia", "--train-scenario", "s.json",
                    "--test", "x.csia"]) == 2
    assert cli.run([*sweep, "--train-scenario", "s.json", "--test-scenario", "s.json",
                    "--gap-bins", "1"]) == 2
    assert cli.run([*sweep, "--train", "x.csia"]) == 2
    capsys.readouterr()


def test_sweep_help_describes_direction_and_mode(capsys):
    assert cli.run(["sweep", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--direction {up,down} cyclic shift direction for md (default: down)" in text
    assert ("--mode {replace,append} append augmented copies (default) or replace the "
            "originals") in text


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "csiaug", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "csiaug" in proc.stdout


def test_eval_summary_line_format(workspace, tmp_path, capsys):
    argv = ["eval", "--codec", str(workspace / "base.csic"),
            "--test", str(workspace / "test_ang.csia"), "--label", "check",
            "--out", str(tmp_path / "check.json")]
    assert cli.run(argv) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("check ratio 1/4: NMSE ")
    assert line.endswith(str(tmp_path / "check.json"))


def test_fit_prints_kept_training_energy(workspace, tmp_path, capsys):
    out = tmp_path / "base.csic"
    argv = ["fit", "--train", str(workspace / "train_ang.csia"), "--ratio", "1/4",
            "--out", str(out)]
    assert cli.run(argv) == 0
    line = capsys.readouterr().out.strip()
    match = re.fullmatch(
        r"fit codec with 16/64 components \((\d+\.\d{4})% of training energy\) to (.+)", line)
    assert match and match.group(2) == str(out)
    x = features(read_dataset(workspace / "train_ang.csia").samples)
    values = np.sort(np.linalg.eigvalsh(np.cov(x, rowvar=False)))[::-1]
    assert float(match.group(1)) == pytest.approx(100 * values[:16].sum() / values.sum(),
                                                  abs=1e-4)
    # The diagnostic goes to stdout only; the codec file is unchanged.
    assert out.read_bytes() == (workspace / "base.csic").read_bytes()
