"""Command-line pipeline.

Subcommands chain into the full experiment: ``gen`` draws channels from
a scenario JSON, ``transform`` moves them to the truncated angular-delay
domain (and an angular-delay input back), ``augment`` applies one
amplitude-domain augmentation, ``fit`` trains the linear codec, ``eval``
measures NMSE on a test set, ``report`` lays multiple evaluations out as
a methods-by-ratios grid, and ``sweep`` automates a sweep of the
method's one parameter through augment + fit + eval.

Exit codes: 0 on success, 2 for usage errors (bad flags, flag
combinations, flag values out of range whatever the input holds, or an
``--out`` that is a directory or lies in a missing one),
1 for runtime failures (missing or malformed files, invalid data, or
flag values that conflict with the input).  ``AugmentParams`` judges the
augmentation flags (one pass per distinct sweep value) before any file is
read, so a shift or block size it rejects is a usage error even where the
method ignores it; ``sweep`` judges its test file against its training
file before the first pass.  Artifacts are written atomically without
timestamps, so reruns with the same inputs and seeds are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

from csiaug.augment import augment_dataset
from csiaug.channel import generate_dataset, load_scenario
from csiaug.codec import EvalReport, evaluate, evaluate_passes, fit_codec, fit_spectrum, parse_ratio
from csiaug.core import (
    AugmentMethod, AugmentMode, AugmentParams, DftPlan, Domain, ShiftDirection, _param_field,
)
from csiaug.dataset_io import (
    atomic_write_bytes,
    check_out,
    read_codec,
    read_dataset,
    read_report,
    write_codec,
    write_dataset,
    write_record,
    write_report,
)
from csiaug.rng import MASK64, check_int, check_ints
from csiaug.transform import inverse_transform_dataset, transform_dataset

# (flag, lowest, highest) for values invalid whatever the input holds, which
# no object can judge before a file is read.
_FLAG_RANGES = (
    ("count", 0, None),
    ("seed", 0, MASK64),
    ("na", 1, None),
    ("nc", 1, None),
)


class UsageError(Exception):
    """Flag combination or value the parser grammar cannot express."""


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
    aug.add_argument("--method", required=True, choices=[m.value for m in AugmentMethod])
    aug.add_argument("--shift", type=int, help="shift steps (bs-up, bs-down, md)")
    aug.add_argument("--block", type=int, help="block edge length (rg)")
    aug.add_argument("--seed", type=int, default=0, help="augmentation pass seed")
    aug.add_argument(
        "--direction", choices=[d.value for d in ShiftDirection], default="down",
        help="cyclic shift direction for md (default: down)",
    )
    aug.add_argument(
        "--mode", choices=[m.value for m in AugmentMode], default="append",
        help="append augmented copies (default) or replace the originals",
    )
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

    sw = sub.add_parser("sweep", help="sweep the method's shift or block size end to end")
    sw.add_argument("--train", required=True, help="angular-delay training dataset (.csia)")
    sw.add_argument("--test", required=True, help="angular-delay test dataset (.csia)")
    sw.add_argument("--method", required=True, choices=[m.value for m in AugmentMethod])
    sw.add_argument("--values", required=True, help="block sizes (rg) or shifts, e.g. 0,1,2,3")
    sw.add_argument("--ratio", required=True, help="compression ratio, e.g. 1/4")
    sw.add_argument("--seed", type=int, default=0, help="augmentation pass seed")
    sw.add_argument("--direction", choices=[d.value for d in ShiftDirection], default="down")
    sw.add_argument("--mode", choices=[m.value for m in AugmentMode], default="append")
    sw.add_argument("--out", required=True, help="output summary (.json)")

    return parser


def _check_flags(args: argparse.Namespace) -> None:
    for flag, low, high in _FLAG_RANGES:
        if getattr(args, flag, None) is not None:
            _usage(check_int, getattr(args, flag), f"--{flag}", low, high)
    if args.out is not None:
        _usage(check_out, args.out)


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
    dataset = generate_dataset(spec, args.count)
    write_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} samples ({dataset.domain.value}) to {args.out}")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input)
    rows, cols = dataset.sample_shape
    # The input's domain picks the direction.
    if dataset.domain is Domain.ANGULAR_DELAY:
        if args.nc is None:
            raise UsageError("an angular-delay input requires --nc (subcarriers to restore)")
        out = inverse_transform_dataset(dataset, DftPlan(args.nc, cols, rows))
    else:
        if args.na is None:
            raise UsageError("a spatial-frequency input requires --na (delay rows to keep)")
        out = transform_dataset(dataset, DftPlan(rows, cols, args.na))
    write_dataset(out, args.out)
    print(f"wrote {len(out)} samples ({out.domain.value}) to {args.out}")
    return 0


def _augment_params(args: argparse.Namespace, shift=None, block=None) -> AugmentParams:
    method, direction = AugmentMethod(args.method), ShiftDirection(args.direction)
    return _usage(AugmentParams, method, shift, block, args.seed, direction)


def _cmd_augment(args: argparse.Namespace) -> int:
    params = _augment_params(args, args.shift, args.block)
    dataset = read_dataset(args.input)
    out = augment_dataset(dataset, params, AugmentMode(args.mode))
    write_dataset(out, args.out)
    print(f"wrote {len(out)} samples ({args.method}, mode {args.mode}) to {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    ratio = _usage(parse_ratio, args.ratio)
    train = read_dataset(args.train)
    codec = fit_codec(train, ratio)
    write_codec(codec, args.out)
    # The spectrum fit_codec just computed for this dataset is reused.
    share = fit_spectrum(train).energy_share(codec.components)
    print(f"fit codec with {codec.components}/{codec.feature_dim} components "
          f"({share:.4%} of training energy) to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    codec = read_codec(args.codec)
    test = read_dataset(args.test)
    report = evaluate(codec, test, label=args.label)
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(cell if cell else "-" for cell in row) + " |")
    return "\n".join(lines) + "\n"


def _cmd_report(args: argparse.Namespace) -> int:
    reports = [read_report(path) for path in args.inputs]
    text = render_report_grid(reports, args.format)
    if args.out:
        atomic_write_bytes(args.out, text.encode("utf-8"))
        print(f"wrote {args.format} grid to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # The augment flag of the field the method reads: shift or block.
    param = _param_field(AugmentMethod(args.method)).removesuffix("_size")
    values = _usage(check_ints, args.values, "--values", f"{param} values")
    passes = [_augment_params(args, **{param: value}) for value in values]
    ratio = _usage(parse_ratio, args.ratio)
    train = read_dataset(args.train)
    test = read_dataset(args.test)
    mode = AugmentMode(args.mode)
    results: list[dict[str, Any]] = []
    for value, report in zip(values, evaluate_passes(train, test, passes, ratio, mode)):
        results.append(
            {"value": value, "nmse_linear": report.nmse_linear, "nmse_db": report.nmse_db}
        )
        print(f"{param}={value}: NMSE {report.nmse_db:.3f} dB")
    best = min(results, key=lambda r: r["nmse_db"])
    summary = {
        "method": args.method,
        "param": param,
        "ratio": str(ratio),
        "mode": mode.value,
        "seed": args.seed,
        "direction": args.direction,
        "train_samples": len(train),
        "test_samples": len(test),
        "results": results,
        "best_value": best["value"],
    }
    write_record(args.out, summary)
    print(f"best {param}={best['value']} ({best['nmse_db']:.3f} dB) -> {args.out}")
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
