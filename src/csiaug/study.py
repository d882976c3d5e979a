"""The delay-gap study: per trial, a codec fitted on the plain training set
and one per augmentation pass, each evaluated on the trial's test set.

:func:`sweep` runs it on two scenarios, drawing each trial's sets, or on two
angular-delay files, read as one trial, and returns a :class:`SweepSummary`
of :class:`TrialResult` records; ``write_record(path, summary.to_dict())``
writes it and :func:`read_summary` reads it back.  A sweep judges its passes,
its sizes and its scenarios before the first draw, and each test set against
its training set, then the ratio against the feature dimension, before the
first fit reads a sample.  It reads its files again for each pass and never
holds an augmented set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from csiaug.augment import _augmented
from csiaug.channel import ScenarioSpec, generate_angular_dataset
from csiaug.codec import _check_test, _evaluate, _fit, check_components, check_ratio, parse_ratio
from csiaug.core import (
    AugmentMode, AugmentParams, Record, _param_field, _stream, _Stream, check_items, check_object,
)
from csiaug.dataset_io import _open_dataset, read_record
from csiaug.rng import check_finite, check_int, check_seed, check_str, derive_seed
from csiaug.transform import check_delay_bins

# The sizes of a scenario sweep whose caller gives none: trials, then the
# training and test samples of each and the delay rows they keep.
SIZES = {"trials": 5, "train_count": 2000, "test_count": 500, "delay_bins": 32}
# The seed indices of :func:`_trial_sets` (2i, 2i + 1 and 100 + i for trial i)
# stay apart for up to 50 trials.
MAX_TRIALS = 50


@dataclass(frozen=True)
class TrialResult(Record):
    """One trial: the plain pass's NMSE in dB, each augmented pass's in the
    order of the summary's ``values``, and the value of the lowest (the first of equals)."""

    trial: int
    baseline_db: float
    nmse_db: tuple[float, ...]
    best_value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "trial", check_int(self.trial, "trial", 0))
        object.__setattr__(self, "baseline_db", check_finite(self.baseline_db, "baseline_db"))
        object.__setattr__(self, "nmse_db", check_items(self.nmse_db, "nmse_db", check_finite))
        object.__setattr__(self, "best_value", check_int(self.best_value, "best_value"))


@dataclass(frozen=True)
class SweepSummary(Record):
    """A sweep: its passes (``method``, ``direction``, and ``values`` of the
    one ``param`` the method reads), ``ratio``, ``mode``, ``seed``, the
    scenarios' fields (``None`` for files), the sizes of the last trial's
    sets, each trial, and ``mean_margin_db``, the baseline minus each
    value's NMSE averaged over the trials."""

    method: str
    param: str
    values: tuple[int, ...]
    ratio: str
    mode: str
    seed: int
    direction: str
    train_scenario: Mapping[str, Any] | None
    test_scenario: Mapping[str, Any] | None
    train_samples: int
    test_samples: int
    trials: tuple[TrialResult, ...]
    mean_margin_db: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("method", "param", "mode", "direction"):
            check_str(getattr(self, name), name)
        check_ratio(self.ratio)
        object.__setattr__(self, "seed", check_seed(self.seed))
        for name in ("train_scenario", "test_scenario"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_object(getattr(self, name), name))
        for name in ("train_samples", "test_samples"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 1))
        object.__setattr__(self, "values", check_items(self.values, "values", check_int))
        object.__setattr__(self, "trials", check_items(self.trials, "trials", lambda t, _: (
            t if isinstance(t, TrialResult) else TrialResult.from_dict(t))))
        margins = check_items(self.mean_margin_db, "mean_margin_db", check_finite)
        object.__setattr__(self, "mean_margin_db", margins)
        rows = [("mean_margin_db", margins), *(("nmse_db", t.nmse_db) for t in self.trials)]
        for name, row in rows:
            if len(row) != len(self.values):
                raise ValueError(f"{name} has {len(row)} entries for {len(self.values)} values")


def read_summary(path: str | Path) -> SweepSummary:
    return read_record(path, "sweep summary", SweepSummary.from_dict)


def _trial_sets(
    train: ScenarioSpec | str | Path, test: ScenarioSpec | str | Path, seed: int,
    trials: int | None, train_count: int | None, test_count: int | None, delay_bins: int | None,
) -> Iterator[tuple[_Stream, _Stream, int]]:
    """``(train, test, augmentation seed)`` per trial: two files once, under
    ``seed``, or ``trials`` draws of two scenarios, trial i training under
    ``derive_seed(seed, 2i)``, testing under ``2i + 1`` and augmenting under
    ``100 + i``.  Files are served from disk for each pass and stay open while
    their trial runs; drawn sets are collected once, since drawing them again
    for each pass would cost more than holding them."""
    if not isinstance(train, ScenarioSpec):
        with _open_dataset(train) as train_set, _open_dataset(test) as test_set:
            yield train_set, test_set, seed
        return
    for i in range(trials):
        yield (
            _stream(generate_angular_dataset(
                train.with_seed(derive_seed(seed, 2 * i)), train_count, delay_bins)),
            _stream(generate_angular_dataset(
                test.with_seed(derive_seed(seed, 2 * i + 1)), test_count, delay_bins)),
            derive_seed(seed, 100 + i),
        )


def sweep(
    train: ScenarioSpec | str | Path,
    test: ScenarioSpec | str | Path,
    passes: Sequence[AugmentParams],
    ratio: Fraction | str,
    mode: AugmentMode | str = AugmentMode.APPEND,
    seed: int = 0,
    *,
    trials: int | None = None,
    train_count: int | None = None,
    test_count: int | None = None,
    delay_bins: int | None = None,
    on_trial: Callable[[TrialResult], Any] | None = None,
) -> SweepSummary:
    """The study of ``passes``, one method and direction with one value each,
    at compression ``ratio``, on two scenarios or two angular-delay files.

    Scenarios run ``trials`` trials of ``train_count`` training and
    ``test_count`` test samples keeping ``delay_bins`` delay rows (each size
    not given is :data:`SIZES`'s), with ``seed`` as the seed base; files run
    one trial that augments under ``seed`` and take no sizes.  Each pass
    augments in ``mode`` under the trial's augmentation seed, not its own.
    ``on_trial`` is called with each trial's result as it ends.
    """
    if len({(p.method, p.direction) for p in passes}) != 1:
        raise ValueError("a sweep takes one or more passes of one method and one direction")
    field = _param_field(passes[0].method)
    values = [getattr(p, field) for p in passes]
    ratio, mode, seed = parse_ratio(ratio), AugmentMode(mode), check_seed(seed)
    sizes = {"trials": trials, "train_count": train_count, "test_count": test_count,
             "delay_bins": delay_bins}
    drawn = isinstance(train, ScenarioSpec)
    if drawn != isinstance(test, ScenarioSpec):
        raise ValueError("a sweep takes two scenarios or two dataset paths")
    if drawn:
        sizes = {key: SIZES[key] if size is None else size for key, size in sizes.items()}
        check_int(sizes["trials"], "trials", 1, MAX_TRIALS)
        if test.antennas != train.antennas:
            raise ValueError(f"test scenario has {test.antennas} antennas, "
                             f"training scenario {train.antennas}")
        for spec in (train, test):
            check_delay_bins(sizes["delay_bins"], spec.subcarriers)
        check_components(ratio, 2 * sizes["delay_bins"] * train.antennas)
    elif any(size is not None for size in sizes.values()):
        raise ValueError("sizes are for scenarios; a file sweep takes its sets as they are")
    results = []
    for i, (train_set, test_set, pass_seed) in enumerate(_trial_sets(train, test, seed, **sizes)):
        _check_test(test_set, (train_set.rows, train_set.cols))
        # Pass 0 is the plain training set: the baseline every value is judged by.
        seeded = [None] + [replace(p, seed=pass_seed) for p in passes]
        base, *nmse_db = [
            _evaluate(_fit(train_set if p is None else _augmented(train_set, p, mode),
                           ratio).codec(ratio), test_set).nmse_db for p in seeded]
        results.append(TrialResult(i, base, nmse_db, values[nmse_db.index(min(nmse_db))]))
        if on_trial is not None:
            on_trial(results[-1])
    margins = [sum(t.baseline_db - t.nmse_db[j] for t in results) / len(results)
               for j in range(len(values))]
    return SweepSummary(
        method=passes[0].method.value, param=field.removesuffix("_size"), values=values,
        ratio=str(ratio), mode=mode.value, seed=seed, direction=passes[0].direction.value,
        train_scenario=train.to_dict() if drawn else None,
        test_scenario=test.to_dict() if drawn else None,
        train_samples=train_set.count, test_samples=test_set.count,
        trials=results, mean_margin_db=margins)
