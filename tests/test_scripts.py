"""Smoke runs of the experiment scripts at toy sizes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from csiaug import (
    AugmentMethod,
    AugmentMode,
    AugmentParams,
    augment_dataset,
    derive_seed,
    evaluate,
    fit_codec,
    generate_angular_dataset,
    load_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
SMALL = ["--train-count", "40", "--test-count", "20", "--seeds", "1", "--na", "4"]

SCRIPTS = [
    (
        "run_domain_gap.py",
        [],
        {"train_scenario", "test_scenario", "ratio", "method", "mode", "shift", "block",
         "seed_base", "trials", "mean_margin_db"},
    ),
    (
        "run_shift_sweep.py",
        ["--values", "0,1"],
        {"train_scenario", "gap_bins", "test_delay_range", "method", "mode", "ratio",
         "values", "seed_base", "trials", "winning_shifts"},
    ),
]


def run_script(script, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("script,extra,keys", SCRIPTS)
def test_script_runs_and_writes_summary(tmp_path, script, extra, keys):
    out = tmp_path / "summary.json"
    proc = run_script(script, *SMALL, *extra, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    assert set(summary) == keys
    assert len(summary["trials"]) == 1


# Bubble shifts ignore the augmentation seed; random generation consumes it.
@pytest.mark.parametrize("script,extra", [
    ("run_domain_gap.py", ["--method", "rg", "--block", "3"]),
    ("run_shift_sweep.py", []),
])
def test_summary_pins_the_trial_protocol(tmp_path, script, extra):
    out = tmp_path / "summary.json"
    proc = run_script(script, *SMALL, "--seeds", "2", *extra, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    base = summary["seed_base"]

    # Trial 1 recomputed in-process: train under derive_seed(base, 2), test
    # under derive_seed(base, 3), augmentation under derive_seed(base, 101).
    train_spec = load_scenario(ROOT / "scenarios" / "motion-range-train.json")
    if script == "run_domain_gap.py":
        test_spec = load_scenario(ROOT / "scenarios" / "motion-range-test.json")
        passes = {"baseline_db": None,
                  "augmented_db": AugmentParams(AugmentMethod.RANDOM_GENERATION, block_size=3)}
        got = summary["trials"][1]
    else:
        lo, hi = train_spec.delay_range
        test_spec = replace(train_spec, delay_range=(lo + 1.0, hi + 1.0))
        passes = {str(s): AugmentParams(AugmentMethod.BUBBLE_SHIFT_DOWN, shift=s)
                  for s in range(4)}
        got = summary["trials"][1]["nmse_db"]
    train = generate_angular_dataset(train_spec.with_seed(derive_seed(base, 2)), 40, 4)
    test = generate_angular_dataset(test_spec.with_seed(derive_seed(base, 3)), 20, 4)
    for key, params in passes.items():
        fitted = train if params is None else augment_dataset(
            train, replace(params, seed=derive_seed(base, 101)), AugmentMode.APPEND)
        want = evaluate(fit_codec(fitted, summary["ratio"]), test).nmse_db
        assert got[key] == want, key


@pytest.mark.parametrize(
    "script,extra,message",
    [
        ("run_domain_gap.py", ["--seeds", "0"], "--seeds must be at least 1"),
        ("run_shift_sweep.py", ["--values", "0,-1"], "shift must be at least 0"),
        ("run_domain_gap.py", ["--method", "rg", "--shift", "-1"], "shift must be at least 0"),
        ("run_domain_gap.py", ["--ratio", "0"], "ratio must be positive"),
        ("run_shift_sweep.py", ["--ratio", "0"], "ratio must be positive"),
        ("run_domain_gap.py", ["--na", "0"], "--na must be at least 1"),
        ("run_shift_sweep.py", ["--na", "0"], "--na must be at least 1"),
        ("run_domain_gap.py", ["--train-count", "1"], "--train-count must be at least 2"),
        ("run_shift_sweep.py", ["--train-count", "-3"], "--train-count must be at least 2"),
        ("run_domain_gap.py", ["--test-count", "0"], "--test-count must be at least 1"),
        ("run_shift_sweep.py", ["--test-count", "0"], "--test-count must be at least 1"),
        ("run_domain_gap.py", ["--seed-base", "-1"], "--seed-base must fit in 64 unsigned bits"),
        ("run_shift_sweep.py", ["--seed-base", str(2**64)],
         "--seed-base must fit in 64 unsigned bits"),
        ("run_shift_sweep.py", ["--values", ","], "--values must name distinct shift steps"),
        ("run_shift_sweep.py", ["--values", "1,1"], "--values must name distinct shift steps"),
        ("run_domain_gap.py", ["--out", "{tmp}/missing/summary.json"], "--out directory"),
        ("run_shift_sweep.py", ["--out", "{tmp}/missing/summary.json"], "--out directory"),
        ("run_domain_gap.py", ["--out", "{tmp}"], "is a directory"),
        ("run_shift_sweep.py", ["--out", "{tmp}"], "is a directory"),
        ("run_domain_gap.py", ["--seeds", "51"], "--seeds must be at most 50"),
        ("run_shift_sweep.py", ["--seeds", "51"], "--seeds must be at most 50"),
        ("run_shift_sweep.py", ["--values", "a,b"], "--values must be comma-separated integers"),
    ],
)
def test_script_rejects_bad_flags_before_drawing(tmp_path, script, extra, message):
    out = tmp_path / "summary.json"
    # The scenario file does not exist, so only a script that judges its
    # flags before it loads a scenario and draws channels exits 2 here.
    proc = run_script(script, *SMALL, "--train-scenario", str(tmp_path / "missing.json"),
                      "--out", str(out), *[arg.format(tmp=tmp_path) for arg in extra])
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "script,extra,message",
    [
        ("run_shift_sweep.py", ["--gap-bins", "2000"], "delay_range must satisfy"),
        ("run_domain_gap.py", ["--na", "2000"], "cannot exceed subcarriers"),
        ("run_shift_sweep.py", ["--ratio", "1/10000"], "retains no components"),
        ("run_domain_gap.py", ["--ratio", "2"], "exceeds feature dim"),
        ("run_domain_gap.py", ["--test-scenario", "{tmp}/missing.json"],
         "No such file or directory"),
        ("run_shift_sweep.py", ["--train-scenario", "{tmp}/missing.json"],
         "No such file or directory"),
        ("run_domain_gap.py", ["--train-scenario", "{tmp}/list.json"],
         "must contain a JSON object, got list"),
        ("run_shift_sweep.py", ["--train-scenario", "{tmp}/list.json"],
         "must contain a JSON object, got list"),
        ("run_domain_gap.py", ["--test-scenario", "{tmp}/wide.json"],
         "test scenario has 16 antennas, training scenario 32"),
    ],
)
def test_script_rejects_flags_that_conflict_with_the_scenario(tmp_path, script, extra, message):
    out = tmp_path / "summary.json"
    # The shipped presets load unless a case names one of these files; the
    # flags only fail against their shape.
    (tmp_path / "list.json").write_text("[1, 2]")
    wide = json.loads((ROOT / "scenarios" / "motion-range-test.json").read_text())
    (tmp_path / "wide.json").write_text(json.dumps({**wide, "antennas": 16}))
    proc = run_script(script, *SMALL, *[arg.format(tmp=tmp_path) for arg in extra],
                      "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()
