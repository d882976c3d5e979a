"""The three benchmark workloads and the calls into csiaug they time.

Each workload is a closed loop with one caller.  ``iteration(api, k)``
is the timed unit; ``check`` and ``digest`` run outside the timed region.
Every call into the program goes through ``api``, a namespace holding
either csiaug's public functions or traced wrappers of them, so the
plain and the traced pass run the same code.  Inputs come only from the
workload seed: iteration ``k`` draws its scenario and augmentation seeds
from ``derive(seed, k, role)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import csiaug
import csiaug.cli
from csiaug import AugmentMethod, AugmentMode, AugmentParams
from measure import Tracer, run_child

TRAIN_SCENARIO = "scenarios/motion-range-train.json"
TEST_SCENARIO = "scenarios/motion-range-test.json"
TRAIN_COUNT = 2000
TEST_COUNT = 500
DELAY_BINS = 32
STUDY_RATIO = "1/4"
GRID_RATIOS = ("1/4", "1/8", "1/16")
GRID_AUGMENTS = (
    ("bs-down", {"shift": 1}),
    ("bs-up", {"shift": 4}),
    ("rg", {"block_size": 4}),
    ("md", {"shift": 1}),
)
BUBBLE = ("bs-down", "bs-up")

# Header sizes stated in the csiaug.dataset_io format description.
DATASET_HEADER_BYTES = 20
CODEC_HEADER_BYTES = 26

ROLE_TRAIN, ROLE_TEST, ROLE_AUGMENT = 0, 1, 2


def derive(seed: int, index: int, role: int) -> int:
    """64-bit input seed for (workload seed, iteration index, role)."""
    state = np.random.SeedSequence([seed, index, role]).generate_state(1, np.uint64)
    return int(state[0])


# ---------------------------------------------------------------- the API


def _dataset_bytes(ds) -> int:
    rows, cols = ds.sample_shape
    return DATASET_HEADER_BYTES + len(ds) * rows * cols * 8


def _codec_bytes(codec) -> int:
    dim = codec.feature_dim
    return CODEC_HEADER_BYTES + 8 * (dim + dim * codec.components)


def _fit_counts(args, kwargs, codec) -> dict[str, float]:
    n = len(args[0])
    dim = codec.feature_dim
    # Scatter matrix 2*n*d^2 plus a dense symmetric eigensolve ~d^3.
    return {"samples": n, "flop_computed": 2.0 * n * dim * dim + float(dim) ** 3}


# name -> (span name or namer, counts(args, kwargs, result), alloc peak?)
LAYERS: dict[str, tuple] = {
    "generate_angular_dataset": (
        "channel.generate_angular_dataset", lambda a, k, r: {"samples": len(r)}, False),
    "generate_dataset": ("channel.generate_dataset", lambda a, k, r: {"samples": len(r)}, True),
    "transform_dataset": ("transform.transform_dataset", lambda a, k, r: {"samples": len(r)}, True),
    "augment_dataset": (
        lambda a, k: f"augment.augment_dataset.{a[1].method.value}",
        lambda a, k, r: {"samples": len(a[0])}, False),
    "fit_codec": ("codec.fit_codec", _fit_counts, False),
    "evaluate": ("codec.evaluate", lambda a, k, r: {"samples": len(a[1])}, False),
    "write_dataset": (
        "dataset_io.write_dataset", lambda a, k, r: {"bytes": _dataset_bytes(a[0])}, True),
    "read_dataset": ("dataset_io.read_dataset", lambda a, k, r: {"bytes": _dataset_bytes(r)}, True),
    "write_codec": ("dataset_io.write_codec", lambda a, k, r: {"bytes": _codec_bytes(a[0])}, True),
    "read_codec": ("dataset_io.read_codec", lambda a, k, r: {"bytes": _codec_bytes(r)}, True),
}


def plain_api(cli_run: Callable[[list[str]], int]) -> SimpleNamespace:
    return SimpleNamespace(cli_run=cli_run, **{name: getattr(csiaug, name) for name in LAYERS})


def traced_api(tracer: Tracer) -> SimpleNamespace:
    wrapped = {
        name: tracer.wrap(getattr(csiaug, name), label, counts, alloc)
        for name, (label, counts, alloc) in LAYERS.items()
    }

    def cli_run(argv: list[str]) -> int:
        with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
            return csiaug.cli.run(argv)

    return SimpleNamespace(cli_run=cli_run, **wrapped)


@contextlib.contextmanager
def patched_cli(api: SimpleNamespace):
    """Point the names ``csiaug.cli`` looked up at import time at ``api``'s."""
    saved = {name: getattr(csiaug.cli, name) for name in LAYERS if hasattr(csiaug.cli, name)}
    try:
        for name in saved:
            setattr(csiaug.cli, name, getattr(api, name))
        yield
    finally:
        for name, fn in saved.items():
            setattr(csiaug.cli, name, fn)


# ------------------------------------------------------------ the checks


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(str(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _nmse_failures(reports) -> list[str]:
    return [f"{r.label} {r.ratio}: NMSE {r.nmse_db!r} is not finite"
            for r in reports if not (math.isfinite(r.nmse_db) and math.isfinite(r.nmse_linear))]


def multiset_failures(original, augmented, method: str, shift: int) -> list[str]:
    """Every bubble-shifted sample is the original's phase with each column's
    amplitudes permuted: sorted columns equal bitwise, recomposition exact."""
    count = len(original)
    shifter = csiaug.bubble_shift_down if method == "bs-down" else csiaug.bubble_shift_up
    tail = augmented.samples[count:]
    if len(tail) != count:
        return [f"{method}: {len(tail)} augmented samples for {count} originals"]
    bad = 0
    for before, after in zip(original.samples, tail):
        amplitude, phase = csiaug.decompose(csiaug.AngularDelayMatrix(before))
        moved = shifter(amplitude, shift)
        same_multiset = np.array_equal(np.sort(moved, axis=0), np.sort(amplitude, axis=0))
        exact = csiaug.recompose(moved, phase).values.tobytes() == after.tobytes()
        bad += not (same_multiset and exact)
    return [f"{method}: {bad}/{count} samples lost a column amplitude multiset"] if bad else []


def bubble_steps(dataset, method: str, shift: int) -> tuple[int, int]:
    """(realised, requested) bubble steps: each column moves min(S, room)."""
    amplitude = np.abs(dataset.samples)
    peak = np.argmax(amplitude, axis=1)  # first maximum, as the column pass picks
    rows = amplitude.shape[1]
    room = rows - 1 - peak if method == "bs-down" else peak
    return int(np.minimum(shift, room).sum()), shift * peak.size


# -------------------------------------------------------------- workloads


class Workload:
    name = ""
    setups = 15  # set-ups per plain run; setup_s is their median
    min_iters = 2  # per plain run: iteration 1 repeats iteration 0's seed

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        self.root = root
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        """One set-up: a fresh interpreter importing csiaug (the start-up every
        user pays), scenario loading and an in-process warm-up."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.import_run = run_child([sys.executable, "-c", "import csiaug"], self.child_env(),
                                    self.root, self.work / "import.log")
        if self.import_run.code != 0:
            raise RuntimeError(f"python -c 'import csiaug' exited {self.import_run.code}")
        self.train_spec = csiaug.load_scenario(self.root / TRAIN_SCENARIO)
        self.test_spec = csiaug.load_scenario(self.root / TEST_SCENARIO)
        warm_up(self.train_spec)

    def child_env(self) -> dict[str, str]:
        """Environment for ``python -m csiaug`` children: this checkout's source
        first on the path and no CSIAUG_* setting, so the program runs on its
        defaults."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("CSIAUG_")}
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def release(self, out) -> None:
        """Drop what an iteration left behind, outside the timed region."""


def warm_up(spec) -> None:
    """Touch every in-process layer once at a tiny size (not timed as work)."""
    small = csiaug.generate_angular_dataset(spec.with_seed(1), 16, 4)
    aug = csiaug.augment_dataset(small, AugmentParams(AugmentMethod.BUBBLE_SHIFT_DOWN, shift=1))
    csiaug.evaluate(csiaug.fit_codec(aug, "1/4"), small)


class Study(Workload):
    """One run_domain_gap.py trial: baseline and bs-down S=1 append at 1/4."""

    name = "study"

    def iteration(self, api, k: int) -> dict:
        train = api.generate_angular_dataset(
            self.train_spec.with_seed(derive(self.seed, k, ROLE_TRAIN)), TRAIN_COUNT, DELAY_BINS)
        test = api.generate_angular_dataset(
            self.test_spec.with_seed(derive(self.seed, k, ROLE_TEST)), TEST_COUNT, DELAY_BINS)
        base_codec = api.fit_codec(train, STUDY_RATIO)
        base = api.evaluate(base_codec, test, label="baseline")
        params = AugmentParams(AugmentMethod.BUBBLE_SHIFT_DOWN, shift=1,
                               seed=derive(self.seed, k, ROLE_AUGMENT))
        augmented = api.augment_dataset(train, params, AugmentMode.APPEND)
        aug_codec = api.fit_codec(augmented, STUDY_RATIO)
        aug = api.evaluate(aug_codec, test, label="bs-down")
        return {"train": train, "test": test, "augmented": augmented,
                "codecs": [base_codec, aug_codec], "reports": [base, aug]}

    def check(self, out) -> list[str]:
        return _nmse_failures(out["reports"])

    def digest(self, out) -> str:
        arrays = [out["train"].samples, out["test"].samples, out["augmented"].samples]
        arrays += [a for c in out["codecs"] for a in (c.mean, c.basis)]
        arrays += [np.array([r.nmse_linear for r in out["reports"]])]
        return _sha(*arrays)

    def steps(self, out) -> tuple[int, int]:
        return bubble_steps(out["train"], "bs-down", 1)


class Grid(Workload):
    """Fixed pair; 4 augments x 3 ratios of fit + evaluate per iteration."""

    name = "grid"
    setups = 3  # each also builds the 2500-sample pair, ~2.5 s

    def setup(self) -> None:
        super().setup()
        self.train = csiaug.generate_angular_dataset(
            self.train_spec.with_seed(derive(self.seed, 0, ROLE_TRAIN)), TRAIN_COUNT, DELAY_BINS)
        self.test = csiaug.generate_angular_dataset(
            self.test_spec.with_seed(derive(self.seed, 0, ROLE_TEST)), TEST_COUNT, DELAY_BINS)
        self.bubble_reference: dict[str, str] = {}

    def iteration(self, api, k: int) -> dict:
        augmented, codecs, reports = {}, [], []
        for method, kwargs in GRID_AUGMENTS:
            params = AugmentParams(AugmentMethod(method), seed=derive(self.seed, k, ROLE_AUGMENT),
                                   **kwargs)
            augmented[method] = api.augment_dataset(self.train, params, AugmentMode.APPEND)
            for ratio in GRID_RATIOS:
                codec = api.fit_codec(augmented[method], ratio)
                codecs.append(codec)
                reports.append(api.evaluate(codec, self.test, label=method))
        return {"augmented": augmented, "codecs": codecs, "reports": reports}

    def check(self, out) -> list[str]:
        failures = _nmse_failures(out["reports"])
        # Bubble shifts draw no randomness and the pair is fixed, so after
        # the first full check later iterations must match it bitwise.
        for method, kwargs in GRID_AUGMENTS:
            if method not in BUBBLE:
                continue
            sha = _sha(out["augmented"][method].samples)
            reference = self.bubble_reference.get(method)
            if reference is None:
                found = multiset_failures(self.train, out["augmented"][method], method,
                                          kwargs["shift"])
                failures += found
                if not found:
                    self.bubble_reference[method] = sha
            elif sha != reference:
                failures.append(f"{method}: output differs from the checked first iteration")
        return failures

    def digest(self, out) -> str:
        arrays = [ds.samples for ds in out["augmented"].values()]
        arrays += [a for c in out["codecs"] for a in (c.mean, c.basis)]
        arrays += [np.array([r.nmse_linear for r in out["reports"]])]
        return _sha(*arrays)

    def steps(self, out) -> tuple[int, int]:
        totals = [bubble_steps(self.train, m, kw["shift"]) for m, kw in GRID_AUGMENTS
                  if m in BUBBLE]
        return sum(t[0] for t in totals), sum(t[1] for t in totals)


class CliChain(Workload):
    """gen -> transform -> augment -> fit -> eval through ``python -m csiaug``.

    The plain pass starts one child per subcommand (seven per iteration);
    the traced pass calls ``csiaug.cli.run`` in-process.
    """

    name = "cli_chain"
    min_iters = 3  # I/O-heavy iterations vary most; a median of 3 drops one outlier

    def commands(self, k: int, where: Path) -> list[list[str]]:
        p = {name: str(where / name) for name in (
            "train_f.csia", "test_f.csia", "train.csia", "test.csia", "aug.csia", "codec.csic",
            "report.json")}
        return [
            ["gen", "--scenario", str(self.root / TRAIN_SCENARIO), "--count", str(TRAIN_COUNT),
             "--seed", str(derive(self.seed, k, ROLE_TRAIN)), "--out", p["train_f.csia"]],
            ["gen", "--scenario", str(self.root / TEST_SCENARIO), "--count", str(TEST_COUNT),
             "--seed", str(derive(self.seed, k, ROLE_TEST)), "--out", p["test_f.csia"]],
            ["transform", "--in", p["train_f.csia"], "--na", str(DELAY_BINS),
             "--out", p["train.csia"]],
            ["transform", "--in", p["test_f.csia"], "--na", str(DELAY_BINS),
             "--out", p["test.csia"]],
            ["augment", "--in", p["train.csia"], "--method", "bs-down", "--shift", "1",
             "--seed", str(derive(self.seed, k, ROLE_AUGMENT)), "--out", p["aug.csia"]],
            ["fit", "--train", p["aug.csia"], "--ratio", STUDY_RATIO, "--out", p["codec.csic"]],
            ["eval", "--codec", p["codec.csic"], "--test", p["test.csia"], "--label", "bs-down",
             "--out", p["report.json"]],
        ]

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        super().__init__(root, seed, work)
        self.runs = 0

    def iteration(self, api, k: int) -> dict:
        self.runs += 1
        where = self.work / f"run-{self.runs}"
        where.mkdir(parents=True)
        codes = []
        for argv in self.commands(k, where):
            codes.append((argv[0], api.cli_run(argv)))
            if codes[-1][1] != 0:
                break
        return {"dir": where, "codes": codes}

    def check(self, out) -> list[str]:
        failures = [f"{name} exited {code}" for name, code in out["codes"] if code != 0]
        if failures:
            return failures
        try:
            report = csiaug.read_report(out["dir"] / "report.json")
        except (OSError, ValueError) as exc:
            return [f"eval report does not parse: {exc}"]
        return _nmse_failures([report])

    def digest(self, out) -> str:
        digest = hashlib.sha256()
        for path in sorted(p for p in out["dir"].iterdir() if p.suffix != ".log"):
            digest.update(path.name.encode() + b"\0")
            with open(path, "rb") as fh:
                while chunk := fh.read(1 << 24):
                    digest.update(chunk)
        return digest.hexdigest()

    def steps(self, out) -> tuple[int, int]:
        return bubble_steps(csiaug.read_dataset(out["dir"] / "train.csia"), "bs-down", 1)

    def release(self, out) -> None:
        shutil.rmtree(out["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Study, Grid, CliChain)}
