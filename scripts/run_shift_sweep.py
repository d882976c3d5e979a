"""Shift sweep under an injected delay offset between train and test.

Shifts the training scenario's delay range by a known number of bins to
make the test distribution, then sweeps the bubble-shift step count and
reports which S wins per trial.  With the default +1-bin offset the
sweep should bottom out at S=1; larger offsets move the minimum
accordingly (use bs-up for negative offsets, where test delays are
shorter than training ones).  The seeds and flag checks are those of
``_trials``; ``--values`` must name at least one step, none twice.

    python3 scripts/run_shift_sweep.py --out sweep.json
    python3 scripts/run_shift_sweep.py --gap-bins -4 --method bs-up --values 0,2,4,6
"""

import argparse
from dataclasses import replace

import _trials
from csiaug import AugmentMethod, AugmentParams, load_scenario
from csiaug.rng import check_ints


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    _trials.add_flags(ap, ratio="1/8")
    ap.add_argument("--gap-bins", type=float, default=1.0,
                    help="test delay range = train range shifted by this many bins")
    ap.add_argument("--values", default="0,1,2,3", help="comma-separated shift steps")
    ap.add_argument("--method", default="bs-down",
                    choices=["bs-up", "bs-down"])
    args, ratio = _trials.parse(ap)
    with _trials.judged(ap):
        values = check_ints(args.values, "--values", "shift steps")
        passes = [AugmentParams(AugmentMethod(args.method), shift=s) for s in values]
        train_spec = load_scenario(args.train_scenario)
        lo, hi = train_spec.delay_range
        test_delay = (lo + args.gap_bins, hi + args.gap_bins)
        test_spec = replace(train_spec, delay_range=test_delay)
    trials = []
    for i, nmse_db in _trials.run(ap, args, ratio, train_spec, test_spec, passes):
        row = dict(zip(values, nmse_db))
        winner = min(row, key=row.get)
        trials.append({"trial": i, "nmse_db": row, "best_shift": winner})
        cells = "  ".join(f"S={s}: {row[s]:7.2f}" for s in values)
        print(f"trial {i}: {cells}  -> best S={winner}")

    winners = [t["best_shift"] for t in trials]
    print(f"winning shifts: {winners}")
    _trials.write(args, {
        "train_scenario": args.train_scenario,
        "gap_bins": args.gap_bins,
        "test_delay_range": list(test_delay),
        "method": args.method,
        "mode": args.mode,
        "ratio": args.ratio,
        "values": values,
        "seed_base": args.seed_base,
        "trials": trials,
        "winning_shifts": winners,
    })


if __name__ == "__main__":
    main()
