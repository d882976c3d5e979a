"""Delay-gap study: does an amplitude augmentation help a codec generalize?

For each trial seed, draws a training set from one scenario and a test
set from another (the shipped motion-range pair trains on delays in
[0, 8] bins and tests on [0, 16]), fits the linear codec on the plain
and on the augmented training set, and reports the NMSE margin between
the two on the shared test set.  The seeds and flag checks are those of
``_trials``.

    python3 scripts/run_domain_gap.py --out gap.json
    python3 scripts/run_domain_gap.py --method bs-up --shift 4 \
        --train-scenario scenarios/motion-mode-train.json \
        --test-scenario scenarios/motion-mode-test.json
"""

import argparse

import _trials
from csiaug import AugmentMethod, AugmentParams, ShiftDirection, load_scenario
from csiaug.core import _param_field


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    _trials.add_flags(ap, ratio="1/4")
    ap.add_argument("--test-scenario",
                    default=str(_trials.PRESETS / "motion-range-test.json"))
    ap.add_argument("--method", default="bs-down",
                    choices=[m.value for m in AugmentMethod])
    ap.add_argument("--shift", type=int, default=1)
    ap.add_argument("--block", type=int, default=4)
    ap.add_argument("--direction", default="down",
                    choices=[d.value for d in ShiftDirection])
    args, ratio = _trials.parse(ap)
    with _trials.judged(ap):
        params = AugmentParams(AugmentMethod(args.method), args.shift, args.block,
                               direction=ShiftDirection(args.direction))
        train_spec = load_scenario(args.train_scenario)
        test_spec = load_scenario(args.test_scenario)
    trials = []
    for i, (base, aug) in _trials.run(ap, args, ratio, train_spec, test_spec, [None, params]):
        margin = base - aug
        trials.append(
            {"trial": i, "baseline_db": base, "augmented_db": aug, "margin_db": margin}
        )
        print(f"trial {i}: baseline {base:8.3f} dB  "
              f"{args.method} {aug:8.3f} dB  margin {margin:+.3f} dB")

    margins = [t["margin_db"] for t in trials]
    print(f"mean margin {sum(margins) / len(margins):+.3f} dB over {len(margins)} trials")
    used = _param_field(params.method)
    _trials.write(args, {
        "train_scenario": args.train_scenario,
        "test_scenario": args.test_scenario,
        "ratio": args.ratio,
        "method": args.method,
        "mode": args.mode,
        "shift": args.shift if used == "shift" else None,
        "block": args.block if used == "block_size" else None,
        "seed_base": args.seed_base,
        "trials": trials,
        "mean_margin_db": sum(margins) / len(margins),
    })


if __name__ == "__main__":
    main()
