"""Shift sweep under an injected delay offset between train and test.

Shifts the training scenario's delay range by a known number of bins to
make the test distribution, then sweeps the bubble-shift step count and
reports which S wins per trial.  With the default +1-bin offset the
sweep should bottom out at S=1; larger offsets move the minimum
accordingly (use bs-up for negative offsets, where test delays are
shorter than training ones).

    python3 scripts/run_shift_sweep.py --out sweep.json
    python3 scripts/run_shift_sweep.py --gap-bins -4 --method bs-up --values 0,2,4,6
"""

import argparse
import json
from dataclasses import replace
from pathlib import Path

from csiaug import (
    AugmentMethod,
    AugmentMode,
    AugmentParams,
    DftPlan,
    augment_dataset,
    derive_seed,
    evaluate,
    fit_codec,
    generate_angular_dataset,
    load_scenario,
    parse_ratio,
)
from csiaug.codec import check_components
from csiaug.dataset_io import atomic_write_text
from csiaug.rng import check_int

PRESETS = Path(__file__).resolve().parent.parent / "scenarios"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--train-scenario", default=str(PRESETS / "motion-range-train.json"))
    ap.add_argument("--gap-bins", type=float, default=1.0,
                    help="test delay range = train range shifted by this many bins")
    ap.add_argument("--values", default="0,1,2,3", help="comma-separated shift steps")
    ap.add_argument("--method", default="bs-down",
                    choices=["bs-up", "bs-down"])
    ap.add_argument("--train-count", type=int, default=2000)
    ap.add_argument("--test-count", type=int, default=500)
    ap.add_argument("--na", type=int, default=32)
    ap.add_argument("--ratio", default="1/8")
    ap.add_argument("--mode", default="append", choices=[m.value for m in AugmentMode])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--seed-base", type=int, default=20260823)
    ap.add_argument("--out", help="write the JSON summary here")
    args = ap.parse_args()
    method = AugmentMethod(args.method)
    try:
        check_int(args.seeds, "--seeds", 1)
        ratio = parse_ratio(args.ratio)
        check_int(args.na, "--na", 1)
        values = [int(v) for v in args.values.split(",") if v.strip() != ""]
        passes = {s: AugmentParams(method=method, shift=s) for s in values}
    except ValueError as exc:
        ap.error(str(exc))

    train_spec = load_scenario(args.train_scenario)
    lo, hi = train_spec.delay_range
    test_delay = (lo + args.gap_bins, hi + args.gap_bins)
    try:
        test_base = replace(train_spec, delay_range=test_delay)
        DftPlan(train_spec.subcarriers, train_spec.antennas, args.na)
        check_components(ratio, 2 * args.na * train_spec.antennas)
    except ValueError as exc:
        ap.error(str(exc))
    mode = AugmentMode(args.mode)

    trials = []
    for i in range(args.seeds):
        train = generate_angular_dataset(
            train_spec.with_seed(derive_seed(args.seed_base, 2 * i)),
            args.train_count, args.na,
        )
        test = generate_angular_dataset(
            test_base.with_seed(derive_seed(args.seed_base, 2 * i + 1)),
            args.test_count, args.na,
        )
        row = {}
        for s in values:
            params = replace(passes[s], seed=derive_seed(args.seed_base, 100 + i))
            augmented = augment_dataset(train, params, mode)
            row[s] = evaluate(fit_codec(augmented, ratio), test).nmse_db
        winner = min(row, key=row.get)
        trials.append({"trial": i, "nmse_db": row, "best_shift": winner})
        cells = "  ".join(f"S={s}: {row[s]:7.2f}" for s in values)
        print(f"trial {i}: {cells}  -> best S={winner}")

    winners = [t["best_shift"] for t in trials]
    print(f"winning shifts: {winners}")
    summary = {
        "train_scenario": args.train_scenario,
        "gap_bins": args.gap_bins,
        "test_delay_range": list(test_delay),
        "method": method.value,
        "mode": mode.value,
        "ratio": args.ratio,
        "values": values,
        "seed_base": args.seed_base,
        "trials": trials,
        "winning_shifts": winners,
    }
    if args.out:
        atomic_write_text(args.out, json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
