"""The trial protocol that run_domain_gap.py and run_shift_sweep.py share.

Trial ``i`` draws its training set under seed ``derive_seed(seed_base, 2i)``
and its test set under ``derive_seed(seed_base, 2i + 1)``, augments with
seed ``derive_seed(seed_base, 100 + i)``, and fits and evaluates one codec
per pass on that shared test set through ``csiaug.codec.evaluate_passes``,
the loop ``csiaug sweep`` runs too; at most 50 trials keep those seeds
apart.  Flags are judged before any scenario loads, then the scenario
files and the flags against their shape: a bad one exits 2 with a usage
message, before any channel is drawn.
"""

from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from csiaug import AugmentMode, derive_seed, generate_angular_dataset, parse_ratio
from csiaug.codec import check_components, evaluate_passes
from csiaug.dataset_io import check_out, write_record
from csiaug.rng import check_int, check_seed
from csiaug.transform import check_delay_bins

PRESETS = Path(__file__).resolve().parent.parent / "scenarios"


def add_flags(ap, ratio):
    """Add the shared flags to ``ap``; ``ratio`` is the default compression ratio."""
    ap.add_argument("--train-scenario", default=str(PRESETS / "motion-range-train.json"))
    ap.add_argument("--train-count", type=int, default=2000)
    ap.add_argument("--test-count", type=int, default=500)
    ap.add_argument("--na", type=int, default=32, help="delay rows kept by the transform")
    ap.add_argument("--ratio", default=ratio)
    ap.add_argument("--mode", default="append", choices=[m.value for m in AugmentMode])
    ap.add_argument("--seeds", type=int, default=5, help="number of independent trials")
    ap.add_argument("--seed-base", type=int, default=20260823)
    ap.add_argument("--out", help="write the JSON summary here")


@contextmanager
def judged(ap):
    """Turn a ``ValueError`` or ``OSError`` raised in the block into a usage error (exit 2)."""
    try:
        yield
    except (ValueError, OSError) as exc:
        ap.error(str(exc))


def parse(ap):
    """Parse ``ap``'s flags and judge the shared ones; returns them with the exact ratio."""
    args = ap.parse_args()
    with judged(ap):
        check_int(args.seeds, "--seeds", 1, 50)
        ratio = parse_ratio(args.ratio)
        check_int(args.na, "--na", 1)
        # fit_codec needs two training samples, evaluate one test sample.
        check_int(args.train_count, "--train-count", 2)
        check_int(args.test_count, "--test-count", 1)
        check_seed(args.seed_base, "--seed-base")
        if args.out:
            check_out(args.out)
    return args, ratio


def run(ap, args, ratio, train_spec, test_spec, passes):
    """Yield ``(i, nmse_db)`` per trial, ``nmse_db`` holding one entry per pass.

    A pass is the ``AugmentParams`` its training set is augmented with
    (their seed is replaced by the trial's), or ``None`` for the plain
    training set.  The scenarios' antenna counts, ``--na`` and the ratio
    are judged before the first draw.
    """
    with judged(ap):
        if test_spec.antennas != train_spec.antennas:
            raise ValueError(f"test scenario has {test_spec.antennas} antennas, "
                             f"training scenario {train_spec.antennas}")
        for spec in (train_spec, test_spec):
            check_delay_bins(args.na, spec.subcarriers)
        check_components(ratio, 2 * args.na * train_spec.antennas)
    mode = AugmentMode(args.mode)
    for i in range(args.seeds):
        train = generate_angular_dataset(
            train_spec.with_seed(derive_seed(args.seed_base, 2 * i)), args.train_count, args.na)
        test = generate_angular_dataset(
            test_spec.with_seed(derive_seed(args.seed_base, 2 * i + 1)), args.test_count, args.na)
        seed = derive_seed(args.seed_base, 100 + i)
        seeded = [None if p is None else replace(p, seed=seed) for p in passes]
        yield i, [r.nmse_db for r in evaluate_passes(train, test, seeded, ratio, mode)]


def write(args, summary):
    """Write ``summary`` to ``--out``, when given, as sorted, indented JSON."""
    if args.out:
        write_record(args.out, summary)
        print(f"wrote {args.out}")
