"""Print the SHA-256 of every artifact of a small preset CLI chain.

In a temporary directory, on the motion-range presets at fixed small
counts, run gen, transform (both directions), augment (bs-down, rg and
md), fit, eval, report, both README studies as toy sweeps and one sweep
of the chain's own files, then print one ``sha256  artifact`` line per
file, sidecars included, sorted by name.

Artifact bytes are same-machine facts (see the README's Reproducibility
section), so compare only runs on one machine, NumPy build and BLAS
thread count: ``diff`` the output of two checkouts to see which artifacts
changed bytes.  Every fit keeps fewer components than its training set
has samples, so no codec column is a null-space direction roundoff picks.

Run from a checkout: ``PYTHONPATH=src python tools/manifest.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from csiaug import cli

PRESETS = Path(__file__).resolve().parents[1] / "scenarios"
TRAIN, TEST = PRESETS / "motion-range-train.json", PRESETS / "motion-range-test.json"
TOY = ["--train-count", 200, "--test-count", 50, "--na", 4, "--trials", 1, "--seed", 20260823]


def chain(d: Path) -> list[list]:
    """The CLI calls, in order, writing into ``d``."""
    calls = [
        ["gen", "--scenario", TRAIN, "--count", 320, "--seed", 9, "--out", d / "f_train.csia"],
        ["gen", "--scenario", TEST, "--count", 80, "--seed", 10, "--out", d / "f_test.csia"],
        ["transform", "--in", d / "f_train.csia", "--na", 16, "--out", d / "train.csia"],
        ["transform", "--in", d / "f_test.csia", "--na", 16, "--out", d / "test.csia"],
        ["transform", "--in", d / "test.csia", "--nc", 1024, "--out", d / "f_back.csia"],
        ["augment", "--in", d / "train.csia", "--method", "bs-down", "--shift", 1,
         "--out", d / "bs-down.csia"],
        ["augment", "--in", d / "train.csia", "--method", "rg", "--block", 3, "--seed", 5,
         "--out", d / "rg.csia"],
        ["augment", "--in", d / "train.csia", "--method", "md", "--shift", 1, "--seed", 6,
         "--mode", "replace", "--out", d / "md.csia"],
        ["fit", "--train", d / "train.csia", "--ratio", "1/8", "--out", d / "plain-1_8.csic"],
    ]
    for name, train in (("plain", "train"), ("bs-down", "bs-down"), ("rg", "rg"), ("md", "md")):
        calls += [
            ["fit", "--train", d / f"{train}.csia", "--ratio", "1/4", "--out", d / f"{name}.csic"],
            ["eval", "--codec", d / f"{name}.csic", "--test", d / "test.csia", "--label", name,
             "--out", d / f"{name}.json"],
        ]
    reports = [d / f"{name}.json" for name in ("plain", "bs-down", "rg", "md")]
    return calls + [
        ["report", "--in", *reports, "--format", "csv", "--out", d / "grid.csv"],
        ["report", "--in", *reports, "--format", "md", "--out", d / "grid.md"],
        ["sweep", "--train-scenario", TRAIN, "--test-scenario", TEST, *TOY,
         "--method", "bs-down", "--values", 1, "--ratio", "1/4", "--out", d / "gap.json"],
        ["sweep", "--train-scenario", TRAIN, "--gap-bins", 1, *TOY,
         "--method", "bs-down", "--values", "0,1,2,3", "--ratio", "1/8", "--out", d / "shift.json"],
        ["sweep", "--train", d / "train.csia", "--test", d / "test.csia", "--method", "rg",
         "--values", "2,4", "--ratio", "1/4", "--seed", 7, "--out", d / "sweep-rg.json"],
    ]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for argv in chain(d):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run([str(a) for a in argv])
            if code != 0:
                print(f"manifest: csiaug {argv[0]} exited {code}", file=sys.stderr)
                return code
        for path in sorted(d.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
