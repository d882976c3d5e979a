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
