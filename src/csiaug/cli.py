"""Command-line pipeline.

Subcommands chain into the full experiment: ``gen`` draws channels from
a scenario JSON, ``transform`` moves them to the truncated angular-delay
domain (and an angular-delay input back), ``augment`` applies one
amplitude-domain augmentation, ``fit`` trains the linear codec, ``eval``
measures NMSE on a test set, ``report`` lays multiple evaluations out as
a methods-by-ratios grid, and ``sweep`` runs the delay-gap studies:
per trial, a codec fitted on the plain training set and one per value of
the method's one parameter, evaluated on one test set, the sets read
from ``--train``/``--test`` files (one trial) or drawn from scenarios.
``sweep`` reads its files again for each pass and never holds an augmented
set.

Exit codes: 0 on success, 2 for usage errors (bad flags, flag
combinations, flag values out of range whatever the input holds, or an
``--out`` that is a directory or lies in a missing one),
1 for runtime failures (missing or malformed files, invalid data, or
flag values that conflict with the input).  ``AugmentParams`` judges the
augmentation flags (one pass per distinct sweep value) before any file is
read, so a shift or block size it rejects is a usage error even where the
method ignores it; a file source mixed with a scenario source is a usage
error too.  ``sweep`` judges its scenarios against the flags before the
first draw, and its test set against its training set, then the ratio
against the feature dimension, before the first fit reads a sample.  Reruns
with the same inputs and seeds write byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Any, Callable, Iterator, Sequence

from csiaug.augment import _augmented
from csiaug.channel import ScenarioSpec, _source, generate_angular_dataset, load_scenario
from csiaug.codec import EvalReport, _check_test, _evaluate, _fit, check_components, parse_ratio
from csiaug.core import (
    AugmentMethod, AugmentMode, AugmentParams, Domain, ShiftDirection, _param_field, _stream,
    _Stream,
)
from csiaug.dataset_io import (
    _open_dataset,
    _write,
    atomic_write_bytes,
    check_out,
    read_codec,
    read_report,
    write_codec,
    write_record,
    write_report,
)
from csiaug.rng import MASK64, check_int, check_ints, derive_seed
from csiaug.transform import _transform, check_delay_bins

# (flag, lowest, highest) for values invalid whatever the input holds, which
# no object can judge before a file is read. Counts are u32 header fields;
# a codec fits on two samples and evaluates one. Trial i draws under seed
# indices 2i and 2i + 1 and augments under 100 + i, so 50 trials keep them apart.
_U32 = 2**32 - 1
_FLAG_RANGES = (
    ("count", 0, _U32),
    ("seed", 0, MASK64),
    ("na", 1, _U32),
    ("nc", 1, _U32),
    ("train_count", 2, _U32),
    ("test_count", 1, _U32),
    ("trials", 1, 50),
)
# The flags only a scenario sweep reads, with their defaults; a file sweep
# given any of them is a usage error.
_SCENARIO_FLAGS = {"train_count": 2000, "test_count": 500, "na": 32, "trials": 5}


class UsageError(Exception):
    """Flag combination or value the parser grammar cannot express."""


def _augment_flags(parser: argparse.ArgumentParser) -> None:
    """The ``--method``, ``--direction`` and ``--mode`` of ``augment`` and ``sweep``."""
    parser.add_argument("--method", required=True, choices=[m.value for m in AugmentMethod])
    parser.add_argument("--direction", choices=[d.value for d in ShiftDirection], default="down",
                        help="cyclic shift direction for md (default: down)")
    parser.add_argument("--mode", choices=[m.value for m in AugmentMode], default="append",
                        help="append augmented copies (default) or replace the originals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csiaug",
        description="CSI dataset generation, augmentation, and compression evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = sub.add_parser("gen", help="generate a frequency-domain dataset from a scenario")
    gen.add_argument("--scenario", required=True, help="scenario JSON file")
    gen.add_argument("--count", type=int, required=True, help="number of samples")
    gen.add_argument("--seed", type=int, help="override the scenario seed")
    gen.add_argument("--out", required=True, help="output dataset (.csia)")

    tr = sub.add_parser("transform", help="move a dataset to the other domain")
    tr.add_argument("--in", dest="input", required=True, help="input dataset (.csia)")
    tr.add_argument("--na", type=int, help="delay rows to keep (spatial-frequency input)")
    tr.add_argument("--nc", type=int, help="subcarrier count to restore (angular-delay input)")
    tr.add_argument("--out", required=True, help="output dataset (.csia)")

    aug = sub.add_parser("augment", help="apply one amplitude-domain augmentation")
    aug.add_argument("--in", dest="input", required=True, help="angular-delay dataset (.csia)")
    _augment_flags(aug)
    aug.add_argument("--shift", type=int, help="shift steps (bs-up, bs-down, md)")
    aug.add_argument("--block", type=int, help="block edge length (rg)")
    aug.add_argument("--seed", type=int, default=0, help="augmentation pass seed")
    aug.add_argument("--out", required=True, help="output dataset (.csia)")

    fit = sub.add_parser("fit", help="fit the linear codec on a training dataset")
    fit.add_argument("--train", required=True, help="angular-delay dataset (.csia)")
    fit.add_argument("--ratio", required=True, help="compression ratio as a rational, e.g. 1/4")
    fit.add_argument("--out", required=True, help="output codec (.csic)")

    ev = sub.add_parser("eval", help="evaluate a codec on a test dataset")
    ev.add_argument("--codec", required=True, help="codec file (.csic)")
    ev.add_argument("--test", required=True, help="angular-delay dataset (.csia)")
    ev.add_argument(
        "--label", default="unlabeled",
        help="training-condition label recorded in the report (e.g. bs-down or none)",
    )
    ev.add_argument("--out", required=True, help="output report (.json)")

    rep = sub.add_parser("report", help="lay evaluation reports out as a grid")
    rep.add_argument(
        "--in", dest="inputs", required=True, nargs="+", help="evaluation report JSON files"
    )
    rep.add_argument("--format", choices=["md", "csv"], default="md")
    rep.add_argument("--out", help="write the table here instead of stdout")

    sw = sub.add_parser("sweep", help="fit plain and per-value augmented codecs, per trial")
    train = sw.add_mutually_exclusive_group(required=True)
    train.add_argument("--train", help="angular-delay training dataset (.csia)")
    train.add_argument("--train-scenario", help="training scenario JSON, drawn per trial")
    test = sw.add_mutually_exclusive_group(required=True)
    test.add_argument("--test", help="angular-delay test dataset (.csia)")
    test.add_argument("--test-scenario", help="test scenario JSON, drawn per trial")
    test.add_argument("--gap-bins", type=float,
                      help="test scenario: the training one, delay range shifted by this")
    for flag, what in (("train_count", "training samples"), ("test_count", "test samples"),
                       ("na", "delay rows kept"), ("trials", "independent trials")):
        sw.add_argument("--" + flag.replace("_", "-"), type=int,
                        help=f"{what} (scenario only, default {_SCENARIO_FLAGS[flag]})")
    _augment_flags(sw)
    sw.add_argument("--values", required=True, help="block sizes (rg) or shifts, e.g. 0,1,2,3")
    sw.add_argument("--ratio", required=True, help="compression ratio, e.g. 1/4")
    sw.add_argument("--seed", type=int, default=0,
                    help="augmentation seed (files) or seed base (scenario)")
    sw.add_argument("--out", required=True, help="output summary (.json)")

    return parser


def _check_flags(args: argparse.Namespace) -> None:
    for flag, low, high in _FLAG_RANGES:
        if getattr(args, flag, None) is not None:
            _usage(check_int, getattr(args, flag), "--" + flag.replace("_", "-"), low, high)
    if args.out is not None:
        _usage(check_out, args.out)
    if getattr(args, "gap_bins", None) is not None and not math.isfinite(args.gap_bins):
        raise UsageError(f"--gap-bins must be finite, got {args.gap_bins}")


def _usage(build: Callable[..., Any], *args: Any) -> Any:
    """``build(*args)``, whose ValueError (a flag value it rejects) is a usage error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = load_scenario(args.scenario)
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    source = _source(spec, args.count, spec.subcarriers, Domain.SPATIAL_FREQUENCY)
    _write(args.out, source)
    print(f"wrote {source.count} samples ({source.domain.value}) to {args.out}")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    with _open_dataset(args.input) as source:
        # The input's domain picks the direction.
        if source.domain is Domain.ANGULAR_DELAY and args.nc is None:
            raise UsageError("an angular-delay input requires --nc (subcarriers to restore)")
        if source.domain is Domain.SPATIAL_FREQUENCY and args.na is None:
            raise UsageError("a spatial-frequency input requires --na (delay rows to keep)")
        out = _transform(source, args.nc if source.domain is Domain.ANGULAR_DELAY else args.na)
        _write(args.out, out)
    print(f"wrote {out.count} samples ({out.domain.value}) to {args.out}")
    return 0


def _augment_params(args: argparse.Namespace, shift=None, block=None) -> AugmentParams:
    method, direction = AugmentMethod(args.method), ShiftDirection(args.direction)
    return _usage(AugmentParams, method, shift, block, args.seed, direction)


def _cmd_augment(args: argparse.Namespace) -> int:
    params = _augment_params(args, args.shift, args.block)
    with _open_dataset(args.input) as source:
        out = _augmented(source, params, AugmentMode(args.mode))
        _write(args.out, out)
    print(f"wrote {out.count} samples ({args.method}, mode {args.mode}) to {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    ratio = _usage(parse_ratio, args.ratio)
    with _open_dataset(args.train) as train:
        # Ratio, domain and count are judged before the payload is read; the
        # fit reads the file's chunks once, a block of features at a time,
        # never the complex set or its feature matrix.
        spectrum = _fit(train, ratio)
    codec = spectrum.codec(ratio)
    write_codec(codec, args.out)
    share = spectrum.energy_share(codec.components)
    print(f"fit codec with {codec.components}/{codec.feature_dim} components "
          f"({share:.4%} of training energy) to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    codec = read_codec(args.codec)
    with _open_dataset(args.test) as test:
        report = _evaluate(codec, test, args.label)
    write_report(report, args.out)
    print(f"{report.label} ratio {report.ratio}: NMSE {report.nmse_db:.3f} dB -> {args.out}")
    return 0


def render_report_grid(reports: Sequence[EvalReport], fmt: str) -> str:
    """Methods-by-ratios grid of NMSE in dB; md or csv.

    Rows sort by label, columns by descending ratio, so the output does
    not depend on the order the report files were listed in.
    """
    cells: dict[tuple[str, str], float] = {}
    for report in reports:
        key = (report.label, report.ratio)
        if key in cells and cells[key] != report.nmse_db:
            raise ValueError(
                f"conflicting reports for label {key[0]!r} at ratio {key[1]}: "
                f"{cells[key]:.6f} vs {report.nmse_db:.6f} dB"
            )
        cells[key] = report.nmse_db
    labels = sorted({label for label, _ in cells})
    ratios = sorted({ratio for _, ratio in cells}, key=Fraction, reverse=True)
    header = ["method"] + ratios
    rows = []
    for label in labels:
        row = [label]
        for ratio in ratios:
            value = cells.get((label, ratio))
            row.append("" if value is None else f"{value:.3f}")
        rows.append(row)
    if fmt == "csv":
        return "".join(",".join(map(_csv_cell, row)) + "\n" for row in [header] + rows)
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        shown = (_md_cell(cell) if cell else "-" for cell in row)
        lines.append("| " + " | ".join(shown) + " |")
    return "\n".join(lines) + "\n"


def _csv_cell(text: str) -> str:
    """``text`` as one CSV field, quoted if it holds a comma, a quote or a line break.

    The ``csv`` module's writer leaves a bare ``\r`` unquoted when rows end
    in ``\n``, and a reader then splits the row there.
    """
    if re.search(r'[,"\r\n]', text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _md_cell(text: str) -> str:
    """``text`` as one Markdown table cell: pipes escaped, line breaks as ``<br>``."""
    return re.sub(r"\r\n?|\n", "<br>", text.replace("|", r"\|"))


def _cmd_report(args: argparse.Namespace) -> int:
    reports = [read_report(path) for path in args.inputs]
    text = render_report_grid(reports, args.format)
    if args.out:
        atomic_write_bytes(args.out, [text.encode("utf-8")])
        print(f"wrote {args.format} grid to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _sweep_scenarios(
    args: argparse.Namespace, ratio: Fraction,
) -> tuple[ScenarioSpec, ScenarioSpec]:
    """The training and test scenarios, judged against each other and the flags."""
    train = load_scenario(args.train_scenario)
    if args.gap_bins is None:
        test = load_scenario(args.test_scenario)
    else:
        lo, hi = train.delay_range
        test = replace(train, delay_range=(lo + args.gap_bins, hi + args.gap_bins))
    if test.antennas != train.antennas:
        raise ValueError(f"test scenario has {test.antennas} antennas, "
                         f"training scenario {train.antennas}")
    for spec in (train, test):
        check_delay_bins(args.na, spec.subcarriers)
    check_components(ratio, 2 * args.na * train.antennas)
    return train, test


def _sweep_trials(
    args: argparse.Namespace, specs: tuple[ScenarioSpec, ScenarioSpec] | None,
) -> Iterator[tuple[_Stream, _Stream, int]]:
    """``(train, test, augmentation seed)`` per trial: the files once, under
    ``--seed``, or ``--trials`` draws of ``specs``, trial i training under
    ``derive_seed(seed, 2i)``, testing under ``2i + 1`` and augmenting under
    ``100 + i``.  Files are served from disk for each pass and stay open while
    their trial runs; drawn sets are collected once, since drawing them again
    for each pass would cost more than holding them."""
    if specs is None:
        with _open_dataset(args.train) as train, _open_dataset(args.test) as test:
            yield train, test, args.seed
        return
    train_spec, test_spec = specs
    for i in range(args.trials):
        yield (
            _stream(generate_angular_dataset(
                train_spec.with_seed(derive_seed(args.seed, 2 * i)), args.train_count, args.na)),
            _stream(generate_angular_dataset(
                test_spec.with_seed(derive_seed(args.seed, 2 * i + 1)), args.test_count, args.na)),
            derive_seed(args.seed, 100 + i),
        )


def _cmd_sweep(args: argparse.Namespace) -> int:
    # The augment flag of the field the method reads: shift or block.
    param = _param_field(AugmentMethod(args.method)).removesuffix("_size")
    values = _usage(check_ints, args.values, "--values", f"{param} values")
    passes = [_augment_params(args, **{param: value}) for value in values]
    ratio = _usage(parse_ratio, args.ratio)
    if (args.train is None) != (args.test is None):
        raise UsageError("--train and --test are files; a --train-scenario takes "
                         "--test-scenario or --gap-bins")
    for flag, default in _SCENARIO_FLAGS.items():
        if args.train is None and getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.train is not None and getattr(args, flag) is not None:
            raise UsageError(f"--{flag.replace('_', '-')} sizes a scenario sweep; "
                             "a sweep of --train and --test files takes them as they are")
    specs = None if args.train is not None else _sweep_scenarios(args, ratio)
    mode = AugmentMode(args.mode)
    trials: list[dict[str, Any]] = []
    for i, (train, test, seed) in enumerate(_sweep_trials(args, specs)):
        _check_test(test, (train.rows, train.cols))
        # Pass 0 is the plain training set: the baseline every value is judged by.
        seeded = [None] + [replace(p, seed=seed) for p in passes]
        base, *nmse_db = [_evaluate(_fit(train if p is None else _augmented(train, p, mode),
                                         ratio).codec(ratio), test).nmse_db for p in seeded]
        best = values[nmse_db.index(min(nmse_db))]
        trials.append({"trial": i, "baseline_db": base, "nmse_db": nmse_db, "best_value": best})
        cells = "  ".join(f"{param}={v}: {db:.3f}" for v, db in zip(values, nmse_db))
        print(f"trial {i}: baseline {base:.3f}  {cells} dB  -> best {param}={best}")
    margins = [sum(t["baseline_db"] - t["nmse_db"][j] for t in trials) / len(trials)
               for j in range(len(values))]
    summary = {
        "method": args.method,
        "param": param,
        "values": values,
        "ratio": str(ratio),
        "mode": mode.value,
        "seed": args.seed,
        "direction": args.direction,
        "train_scenario": specs[0].to_dict() if specs else None,
        "test_scenario": specs[1].to_dict() if specs else None,
        "train_samples": train.count,
        "test_samples": test.count,
        "trials": trials,
        "mean_margin_db": margins,
    }
    write_record(args.out, summary)
    cells = "  ".join(f"{param}={v}: {m:+.3f}" for v, m in zip(values, margins))
    print(f"mean margin over {len(trials)} trials: {cells} dB -> {args.out}")
    return 0


_DISPATCH: dict[str, Callable[[argparse.Namespace], int]] = {
    "gen": _cmd_gen,
    "transform": _cmd_transform,
    "augment": _cmd_augment,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute; returns the process exit code instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        _check_flags(args)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(run(sys.argv[1:]))
