"""Delay-gap study: does an amplitude augmentation help a codec generalize?

For each trial seed, draws a training set from one scenario and a test
set from another (the shipped motion-range pair trains on delays in
[0, 8] bins and tests on [0, 16]), fits the linear codec on the plain
and on the augmented training set, and reports the NMSE margin between
the two on the shared test set.

    python3 scripts/run_domain_gap.py --out gap.json
    python3 scripts/run_domain_gap.py --method bs-up --shift 4 \
        --train-scenario scenarios/motion-mode-train.json \
        --test-scenario scenarios/motion-mode-test.json
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
    ShiftDirection,
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
    ap.add_argument("--test-scenario", default=str(PRESETS / "motion-range-test.json"))
    ap.add_argument("--train-count", type=int, default=2000)
    ap.add_argument("--test-count", type=int, default=500)
    ap.add_argument("--na", type=int, default=32, help="delay rows kept by the transform")
    ap.add_argument("--ratio", default="1/4")
    ap.add_argument("--method", default="bs-down",
                    choices=[m.value for m in AugmentMethod])
    ap.add_argument("--shift", type=int, default=1)
    ap.add_argument("--block", type=int, default=4)
    ap.add_argument("--direction", default="down",
                    choices=[d.value for d in ShiftDirection])
    ap.add_argument("--mode", default="append", choices=[m.value for m in AugmentMode])
    ap.add_argument("--seeds", type=int, default=5, help="number of independent trials")
    ap.add_argument("--seed-base", type=int, default=20260823)
    ap.add_argument("--out", help="write the JSON summary here")
    args = ap.parse_args()
    try:
        check_int(args.seeds, "--seeds", 1)
        ratio = parse_ratio(args.ratio)
        check_int(args.na, "--na", 1)
        params = AugmentParams(AugmentMethod(args.method), args.shift, args.block,
                               direction=ShiftDirection(args.direction))
    except ValueError as exc:
        ap.error(str(exc))

    train_spec = load_scenario(args.train_scenario)
    test_spec = load_scenario(args.test_scenario)
    try:
        for spec in (train_spec, test_spec):
            DftPlan(spec.subcarriers, spec.antennas, args.na)
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
            test_spec.with_seed(derive_seed(args.seed_base, 2 * i + 1)),
            args.test_count, args.na,
        )
        base = evaluate(fit_codec(train, ratio), test, label="baseline")
        trial_params = replace(params, seed=derive_seed(args.seed_base, 100 + i))
        augmented = augment_dataset(train, trial_params, mode)
        aug = evaluate(fit_codec(augmented, ratio), test, label=args.method)
        margin = base.nmse_db - aug.nmse_db
        trials.append(
            {"trial": i, "baseline_db": base.nmse_db, "augmented_db": aug.nmse_db,
             "margin_db": margin}
        )
        print(f"trial {i}: baseline {base.nmse_db:8.3f} dB  "
              f"{args.method} {aug.nmse_db:8.3f} dB  margin {margin:+.3f} dB")

    margins = [t["margin_db"] for t in trials]
    print(f"mean margin {sum(margins) / len(margins):+.3f} dB over {len(margins)} trials")
    summary = {
        "train_scenario": args.train_scenario,
        "test_scenario": args.test_scenario,
        "ratio": args.ratio,
        "method": args.method,
        "mode": mode.value,
        "shift": args.shift if args.method != "rg" else None,
        "block": args.block if args.method == "rg" else None,
        "seed_base": args.seed_base,
        "trials": trials,
        "mean_margin_db": sum(margins) / len(margins),
    }
    if args.out:
        atomic_write_text(args.out, json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
