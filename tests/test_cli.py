"""End-to-end tests for the command-line pipeline (in-process via cli.run)."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from csiaug import cli
from csiaug.channel import ScenarioSpec, save_scenario
from csiaug.codec import EvalReport, features
from csiaug.core import Dataset, Domain, Provenance
from csiaug.dataset_io import read_dataset, read_report, write_dataset, write_report


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
    assert summary["param"] == "shift"
    assert summary["train_samples"] == 40 and summary["test_samples"] == 10
    assert [r["value"] for r in summary["results"]] == [0, 1, 2]
    best = min(summary["results"], key=lambda r: r["nmse_db"])
    assert summary["best_value"] == best["value"]


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
]


@pytest.mark.parametrize("argv", USAGE_CASES)
def test_usage_errors_exit_2(workspace, argv, capsys):
    fixed = [a.replace("x.csia", str(workspace / "train_ang.csia")) for a in argv]
    fixed = [a.replace("y.csia", str(workspace / "ignored.csia")) for a in fixed]
    assert cli.run(fixed) == 2
    assert "usage error" in capsys.readouterr().err


RANGE_CASES = [
    # out of range whatever the input holds: usage errors
    pytest.param(["gen", "--scenario", "s.json", "--count", "-5", "--out", "y.csia"], 2,
                 id="gen-count-negative"),
    pytest.param(["gen", "--scenario", "s.json", "--count", "4", "--seed", "-1",
                  "--out", "y.csia"], 2, id="gen-seed-negative"),
    pytest.param(["gen", "--scenario", "s.json", "--count", "4", "--seed", str(2**64),
                  "--out", "y.csia"], 2, id="gen-seed-above-64-bits"),
    pytest.param(["augment", "--in", "x.csia", "--method", "bs-up", "--shift", "-1",
                  "--out", "y.csia"], 2, id="augment-shift-negative"),
    pytest.param(["augment", "--in", "x.csia", "--method", "rg", "--block", "0",
                  "--out", "y.csia"], 2, id="augment-block-zero"),
    pytest.param(["transform", "--in", "f.csia", "--na", "0", "--out", "y.csia"], 2,
                 id="transform-na-zero"),
    # the input's domain picks the flag it needs: spatial-frequency reads --na
    pytest.param(["transform", "--in", "f.csia", "--nc", "16", "--out", "y.csia"], 2,
                 id="transform-spatial-frequency-without-na"),
    pytest.param(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "bs-up",
                  "--values", "1,-1", "--ratio", "1/4", "--out", "y.json"],
                 2, id="sweep-shift-negative"),
    pytest.param(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "bs-up",
                  "--values", "1,1", "--ratio", "1/4", "--out", "y.json"],
                 2, id="sweep-values-duplicate"),
    pytest.param(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "rg",
                  "--values", "2,0", "--ratio", "1/4", "--out", "y.json"],
                 2, id="sweep-block-zero"),
    pytest.param(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "bs-up",
                  "--values", "a,b", "--ratio", "1/4", "--out", "y.json"],
                 2, id="sweep-values-not-integers"),
    pytest.param(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "bs-up",
                  "--values", ",", "--ratio", "1/4", "--out", "y.json"],
                 2, id="sweep-values-empty"),
    # a field the method does not use is still judged
    pytest.param(["augment", "--in", "x.csia", "--method", "rg", "--block", "4", "--shift", "-1",
                  "--out", "y.csia"], 2, id="augment-rg-shift-negative"),
    # flags are judged before any file is read: the training file does not exist
    pytest.param(["sweep", "--train", "missing.csia", "--test", "x.csia", "--method", "bs-up",
                  "--values", "1,-1", "--ratio", "1/4", "--out", "y.json"],
                 2, id="sweep-values-before-missing-file"),
    # --out is judged before any work: "." is a directory, "missing/" does not exist
    pytest.param(["gen", "--scenario", "s.json", "--count", "4", "--out", "."], 2,
                 id="gen-out-directory"),
    pytest.param(["gen", "--scenario", "s.json", "--count", "4", "--out", "missing/y.csia"], 2,
                 id="gen-out-in-missing-directory"),
    pytest.param(["transform", "--in", "f.csia", "--na", "4", "--out", "."], 2,
                 id="transform-out-directory"),
    pytest.param(["sweep", "--train", "x.csia", "--test", "x.csia", "--method", "bs-up",
                  "--values", "1", "--ratio", "1/4", "--out", "."],
                 2, id="sweep-out-directory"),
    pytest.param(["report", "--in", "y.json", "--out", "."], 2, id="report-out-directory"),
    # valid flag values that conflict with the input: runtime errors
    pytest.param(["transform", "--in", "f.csia", "--na", "2000", "--out", "y.csia"], 1,
                 id="transform-na-above-subcarriers"),
    pytest.param(["transform", "--in", "x.csia", "--nc", "4", "--out", "y.csia"], 1,
                 id="transform-nc-below-delay-rows"),
]


@pytest.mark.parametrize("argv,code", RANGE_CASES)
def test_out_of_range_flag_values(workspace, argv, code, capsys):
    paths = {
        "s.json": workspace / "scenario.json",
        "f.csia": workspace / "train.csia",  # 16 subcarriers
        "x.csia": workspace / "train_ang.csia",  # 8 delay rows
        "y.csia": workspace / "ignored.csia",
        "y.json": workspace / "ignored.json",
    }
    assert cli.run([str(paths.get(a, a)) for a in argv]) == code
    err = capsys.readouterr().err
    assert ("usage error" in err) == (code == 2)
    assert not (workspace / "ignored.csia").exists()


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
    "method,values,param", [("rg", "2,3", "block"), ("bs-up", "0,1", "shift")])
def test_sweep_param_follows_method(workspace, tmp_path, capsys, method, values, param):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--train", str(workspace / "train_ang.csia"),
            "--test", str(workspace / "test_ang.csia"), "--method", method,
            "--values", values, "--ratio", "1/4", "--out", str(out)]
    assert cli.run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [
        f"{param}={v}" for v in values.split(",")]
    summary = json.loads(out.read_text())
    assert summary["param"] == param and summary["method"] == method
    assert [r["value"] for r in summary["results"]] == [int(v) for v in values.split(",")]


@pytest.mark.parametrize("na", [4, None], ids=["fewer-delay-rows", "spatial-frequency"])
def test_sweep_judges_the_test_file_before_any_fit(workspace, tmp_path, monkeypatch, capsys, na):
    test = workspace / "test.csia"  # spatial-frequency, 16 subcarriers
    if na is not None:  # angular-delay with 4 delay rows, the training file has 8
        test = tmp_path / "narrow.csia"
        assert cli.run(["transform", "--in", str(workspace / "test.csia"), "--na", str(na),
                        "--out", str(test)]) == 0
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    out = tmp_path / "sweep.json"
    assert cli.run(["sweep", "--train", str(workspace / "train_ang.csia"), "--test", str(test),
                    "--method", "bs-down", "--values", "0,1",
                    "--ratio", "1/4", "--out", str(out)]) == 1
    assert calls == []
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error:" in err and ("does not match codec" if na else "angular-delay") in err


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
    capsys.readouterr()


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
