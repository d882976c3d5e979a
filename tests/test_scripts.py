"""Smoke runs of the experiment scripts at toy sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("script,extra,keys", SCRIPTS)
def test_script_runs_and_writes_summary(tmp_path, script, extra, keys):
    out = tmp_path / "summary.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SMALL, *extra, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    assert set(summary) == keys
    assert len(summary["trials"]) == 1


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
    ],
)
def test_script_rejects_bad_flags_before_drawing(tmp_path, script, extra, message):
    out = tmp_path / "summary.json"
    # The scenario file does not exist, so only a script that judges its
    # flags before it loads a scenario and draws channels exits 2 here.
    argv = [*SMALL, "--train-scenario", str(tmp_path / "missing.json"), *extra,
            "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
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
    ],
)
def test_script_rejects_flags_that_conflict_with_the_scenario(tmp_path, script, extra, message):
    out = tmp_path / "summary.json"
    # The shipped presets load; the flags only fail against their shape.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SMALL, *extra, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()
