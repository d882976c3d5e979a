"""Acceptance suite: one test per headline guarantee of the toolkit.

Each test prints a single [PASS] line with the measured numbers once its
assertions hold (visible with ``pytest -s``); the test name states the
behaviour being locked in.  Tolerances are written next to the
assertions they govern.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from csiaug.augment import (
    augment_dataset,
    bubble_shift_down,
    bubble_shift_up,
    random_generation,
)
from csiaug.channel import (
    ScenarioSpec,
    generate_angular_dataset,
    generate_dataset,
    load_scenario,
    save_scenario,
)
from csiaug.cli import run as cli_run
from csiaug.codec import evaluate, fit_codec, nmse, reconstruct_batch
from csiaug.core import (
    AugmentMethod,
    AugmentMode,
    AugmentParams,
    Dataset,
    Domain,
    Provenance,
)
from csiaug.dataset_io import (
    CorruptedFileError,
    FileFormatError,
    read_codec,
    read_dataset,
    sidecar_path,
    write_codec,
    write_dataset,
)
from csiaug.rng import derive_seed
from csiaug.transform import inverse_transform_dataset, transform_dataset

PRESET_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SEED_BASE = 20260823  # arbitrary fixed base for every seeded trial below


def test_bubble_shifts_preserve_column_multisets_bitwise():
    # 1000 random 32x32 amplitude matrices, every shift in {0,1,2,3},
    # both directions: each column must keep exactly the same values
    # (bitwise equality after sorting, no tolerance), in under 10 s.
    rng = np.random.default_rng(SEED_BASE)
    t0 = time.perf_counter()
    matrices = 1000
    for _ in range(matrices):
        amp = rng.uniform(0.0, 1.0, (32, 32))
        key = np.sort(amp, axis=0)
        for shift in (0, 1, 2, 3):
            up = bubble_shift_up(amp, shift)
            down = bubble_shift_down(amp, shift)
            assert np.array_equal(np.sort(up, axis=0), key)
            assert np.array_equal(np.sort(down, axis=0), key)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"permutation suite took {elapsed:.1f}s (budget 10s)"
    print(
        f"[PASS] bubble shifts kept all column multisets bitwise over {matrices} "
        f"32x32 matrices x 4 shifts x 2 directions in {elapsed:.1f}s (< 10s)"
    )


def test_bubble_shift_displaces_peak_by_capped_step_count():
    # 10,000 random 32-row columns with all-distinct values: after an
    # S-step shift the 0-indexed peak row must land exactly at
    # M - min(S, M) going up and M + min(S, 31 - M) going down, for
    # every single column, in under 5 s.
    rng = np.random.default_rng(SEED_BASE + 1)
    t0 = time.perf_counter()
    checked = 0
    for chunk in range(20):
        shift = chunk % 7
        amp = rng.uniform(0.0, 1.0, (32, 500))
        assert np.all(np.diff(np.sort(amp, axis=0), axis=0) > 0)  # unique maxima
        peak = np.argmax(amp, axis=0)
        up = np.argmax(bubble_shift_up(amp, shift), axis=0)
        down = np.argmax(bubble_shift_down(amp, shift), axis=0)
        assert np.array_equal(up, peak - np.minimum(shift, peak))
        assert np.array_equal(down, peak + np.minimum(shift, 31 - peak))
        checked += amp.shape[1]
    elapsed = time.perf_counter() - t0
    assert checked == 10000
    assert elapsed < 5.0, f"displacement suite took {elapsed:.1f}s (budget 5s)"
    print(
        f"[PASS] peak rows moved by exactly min(S, room) in {checked}/{checked} "
        f"columns, both directions, in {elapsed:.1f}s (< 5s)"
    )


def test_single_step_shift_hand_traces_match_exactly():
    # The two worked single-column examples must reproduce exactly.
    col = np.array([0.2, 0.9, 0.5, 0.1]).reshape(-1, 1)
    up = bubble_shift_up(col, 1)[:, 0].tolist()
    assert up == [0.9, 0.5, 0.2, 0.1]
    col = np.array([0.9, 0.5, 0.2, 0.1]).reshape(-1, 1)
    down = bubble_shift_down(col, 1)[:, 0].tolist()
    assert down == [0.5, 0.9, 0.2, 0.1]
    print(
        "[PASS] hand traces: [0.2,0.9,0.5,0.1] -> [0.9,0.5,0.2,0.1] up, "
        "[0.9,0.5,0.2,0.1] -> [0.5,0.9,0.2,0.1] down (exact)"
    )


def test_transform_round_trip_parseval_and_integer_delay_rows():
    # Untruncated transform: round trip and energy preserved to 1e-10
    # relative; 100 single-path channels with integer delay must put
    # all but 1e-10 of their energy in the predicted delay row.
    g = np.random.default_rng(SEED_BASE + 2)
    h = g.standard_normal((64, 8)) + 1j * g.standard_normal((64, 8))
    ang = transform_dataset(Dataset(h[None], Domain.SPATIAL_FREQUENCY), 64).samples[0]
    back = inverse_transform_dataset(Dataset(ang[None], Domain.ANGULAR_DELAY), 64).samples[0]
    rel_err = np.linalg.norm(back - h) / np.linalg.norm(h)
    assert rel_err < 1e-10
    parseval = abs(np.linalg.norm(ang) - np.linalg.norm(h)) / np.linalg.norm(h)
    assert parseval < 1e-10

    worst = 1.0
    for case in range(100):
        tau = int(g.integers(0, 64))
        theta = float(g.uniform(-np.pi / 2, np.pi / 2))
        spec = ScenarioSpec(
            subcarriers=64,
            antennas=8,
            paths=1,
            delay_range=(tau, tau),
            angle_range=(theta, theta),
            gain_decay=0.0,
            seed=case,
        )
        sample = generate_dataset(spec, 1)
        power = np.abs(transform_dataset(sample, 64).samples[0]) ** 2
        fraction = power[tau].sum() / power.sum()
        worst = min(worst, fraction)
        assert fraction > 1.0 - 1e-10
    print(
        f"[PASS] transform: round trip {rel_err:.2e}, Parseval {parseval:.2e} "
        f"(both < 1e-10); 100/100 integer-delay channels kept >= {worst:.12f} "
        f"of their energy in the predicted row (> 1 - 1e-10)"
    )


def test_nmse_analytic_reference_points():
    g = np.random.default_rng(SEED_BASE + 3)
    ref = Dataset(
        g.standard_normal((8, 6, 4)) + 1j * g.standard_normal((8, 6, 4)),
        Domain.ANGULAR_DELAY,
    )
    perfect = nmse(ref, ref)[1]
    assert perfect == -300.0  # exact floor
    zero = nmse(ref, Dataset(np.zeros_like(ref.samples), Domain.ANGULAR_DELAY))[1]
    assert abs(zero) < 1e-12
    halved = nmse(ref, Dataset(0.5 * ref.samples, Domain.ANGULAR_DELAY))[1]
    assert abs(halved + 6.0206) < 1e-4
    print(
        f"[PASS] NMSE: identical -> {perfect} dB floor, zero -> {zero:.1e} dB, "
        f"half-amplitude -> {halved:.4f} dB (within 1e-4 of -6.0206)"
    )


def test_codec_losslessness_monotonicity_orthonormality():
    g = np.random.default_rng(SEED_BASE + 4)
    ds = Dataset(
        g.standard_normal((80, 16, 8)) + 1j * g.standard_normal((80, 16, 8)),
        Domain.ANGULAR_DELAY,
        Provenance(seed=0),
    )
    full = fit_codec(ds, 1)
    lossless = nmse(
        ds, Dataset(reconstruct_batch(full, ds.samples), Domain.ANGULAR_DELAY)
    )[0]
    assert lossless < 1e-10

    errors = []
    residuals = []
    for ratio in ("1/64", "1/32", "1/16", "1/8", "1/4"):
        codec = fit_codec(ds, ratio)
        residual = np.abs(codec.basis.T @ codec.basis - np.eye(codec.components)).max()
        residuals.append(residual)
        assert residual < 1e-8
        recon = Dataset(reconstruct_batch(codec, ds.samples), Domain.ANGULAR_DELAY)
        errors.append(nmse(ds, recon)[0])
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse + 1e-12  # more components never hurt the training set
    print(
        f"[PASS] codec: full-ratio NMSE {lossless:.2e} (< 1e-10); training NMSE "
        f"non-increasing over ratios 1/64..1/4 {['%.3f' % e for e in errors]}; "
        f"worst orthonormality residual {max(residuals):.2e} (< 1e-8)"
    )


def test_downshift_augmentation_closes_delay_gap():
    # Train on short delays ([0, 8] bins), test on a doubled spread
    # ([0, 16]): appending one-step down-shifted copies must cut test
    # NMSE by at least 0.5 dB at ratio 1/4 in >= 4 of 5 seeded trials,
    # all within 3 minutes.
    t0 = time.perf_counter()
    train_spec = load_scenario(PRESET_DIR / "motion-range-train.json")
    test_spec = load_scenario(PRESET_DIR / "motion-range-test.json")
    margins = []
    for i in range(5):
        train = generate_angular_dataset(
            train_spec.with_seed(derive_seed(SEED_BASE, 2 * i)), 2000, 32
        )
        test = generate_angular_dataset(
            test_spec.with_seed(derive_seed(SEED_BASE, 2 * i + 1)), 500, 32
        )
        base_db = evaluate(fit_codec(train, "1/4"), test).nmse_db
        params = AugmentParams(
            method=AugmentMethod.BUBBLE_SHIFT_DOWN,
            shift=1,
            seed=derive_seed(SEED_BASE, 100 + i),
        )
        augmented = augment_dataset(train, params, AugmentMode.APPEND)
        aug_db = evaluate(fit_codec(augmented, "1/4"), test).nmse_db
        margins.append(base_db - aug_db)
    elapsed = time.perf_counter() - t0
    wins = sum(m >= 0.5 for m in margins)
    assert wins >= 4, f"only {wins}/5 trials improved by >= 0.5 dB: {margins}"
    assert elapsed < 180.0, f"delay-gap study took {elapsed:.0f}s (budget 180s)"
    print(
        f"[PASS] down-shift append closed the delay gap by "
        f"{['%.2f' % m for m in margins]} dB ({wins}/5 trials >= 0.5 dB) "
        f"in {elapsed:.0f}s (< 180s)"
    )


def test_shift_sweep_minimum_at_injected_one_bin_gap():
    # Inject a known +1-bin delay offset between train and test; the
    # shift sweep S in {0,1,2,3} (append mode, ratio 1/8) must bottom
    # out at S=1 in >= 4 of 5 seeded trials.
    train_spec = load_scenario(PRESET_DIR / "motion-range-train.json")
    winners = []
    tables = []
    for i in range(5):
        train = generate_angular_dataset(
            train_spec.with_seed(derive_seed(SEED_BASE, 2 * i)), 2000, 32
        )
        shifted_spec = replace(
            train_spec,
            delay_range=(1.0, 9.0),
            seed=derive_seed(SEED_BASE, 2 * i + 1),
        )
        test = generate_angular_dataset(shifted_spec, 500, 32)
        dbs = []
        for shift in (0, 1, 2, 3):
            params = AugmentParams(
                method=AugmentMethod.BUBBLE_SHIFT_DOWN,
                shift=shift,
                seed=derive_seed(SEED_BASE, 100 + i),
            )
            augmented = augment_dataset(train, params, AugmentMode.APPEND)
            dbs.append(evaluate(fit_codec(augmented, "1/8"), test).nmse_db)
        winners.append(int(np.argmin(dbs)))
        tables.append([round(db, 2) for db in dbs])
    wins = sum(w == 1 for w in winners)
    assert wins >= 4, f"S=1 won only {wins}/5 trials; winners {winners}, NMSE {tables}"
    print(
        f"[PASS] one-bin-gap sweep: S=1 gave the lowest NMSE in {wins}/5 trials "
        f"(winners {winners}; dB tables {tables})"
    )


def test_block_redraw_is_deterministic_and_local():
    # 1000 random cases, block sizes 3..6: identical seeds bit-identical;
    # changes confined to the clipped block around the peak row (at most
    # k rows starting (k-1)//2 above it, at most k contiguous columns)
    # and drawn inside the matrix's original value range.
    rng = np.random.default_rng(SEED_BASE + 5)
    touched = 0
    for case in range(1000):
        k = (3, 4, 5, 6)[case % 4]
        rows = int(rng.integers(6, 21))
        cols = int(rng.integers(6, 21))
        amp = rng.uniform(0.0, 1.0, (rows, cols))
        seed = int(rng.integers(0, 2**63))
        out = random_generation(amp, k, seed)
        assert np.array_equal(out, random_generation(amp, k, seed))  # bitwise
        changed = np.argwhere(out != amp)
        peak_row = int(np.argmax(amp)) // cols
        before = (k - 1) // 2
        r0 = max(peak_row - before, 0)
        r1 = min(peak_row - before + k, rows)
        if changed.size:
            touched += 1
            assert changed[:, 0].min() >= r0
            assert changed[:, 0].max() < r1
            assert changed[:, 1].max() - changed[:, 1].min() < k
            vals = out[changed[:, 0], changed[:, 1]]
            assert vals.min() >= amp.min() and vals.max() <= amp.max()
    assert touched > 900  # the redraw is a no-op only with measure zero
    print(
        f"[PASS] block redraw: 1000/1000 cases bit-identical under the same seed, "
        f"changes confined to the clipped peak block ({touched} cases redrew values)"
    )


def test_containers_round_trip_and_cli_reruns_are_byte_identical(tmp_path):
    # Bit-exact file round trips, the documented failure modes for
    # malformed files, and a full seeded CLI pipeline that reruns to
    # byte-identical artifacts.
    g = np.random.default_rng(SEED_BASE + 6)
    raw = (g.standard_normal((4, 8, 4)) + 1j * g.standard_normal((4, 8, 4))).astype(
        np.complex64
    ).astype(np.complex128)
    ds = Dataset(raw, Domain.ANGULAR_DELAY, Provenance(seed=1))
    a, b = tmp_path / "a.csia", tmp_path / "b.csia"
    write_dataset(ds, a)
    write_dataset(read_dataset(a), b)
    assert a.read_bytes() == b.read_bytes()
    assert sidecar_path(a).read_bytes() == sidecar_path(b).read_bytes()

    codec = fit_codec(ds, "1/2")
    ca, cb = tmp_path / "a.csic", tmp_path / "b.csic"
    write_codec(codec, ca)
    write_codec(read_codec(ca), cb)
    assert ca.read_bytes() == cb.read_bytes()

    bad_magic = bytearray(a.read_bytes())
    bad_magic[:4] = b"NOPE"
    (tmp_path / "bad.csia").write_bytes(bytes(bad_magic))
    try:
        read_dataset(tmp_path / "bad.csia")
        raise AssertionError("bad magic was accepted")
    except FileFormatError:
        pass
    (tmp_path / "cut.csia").write_bytes(a.read_bytes()[:-4])
    sidecar_path(tmp_path / "cut.csia").write_bytes(sidecar_path(a).read_bytes())
    try:
        read_dataset(tmp_path / "cut.csia")
        raise AssertionError("truncated payload was accepted")
    except CorruptedFileError:
        pass

    spec = ScenarioSpec(
        subcarriers=16,
        antennas=4,
        paths=2,
        delay_range=(0.0, 5.0),
        angle_range=(-0.5, 0.5),
        gain_decay=0.4,
        seed=101,
    )
    save_scenario(spec, tmp_path / "scenario.json")

    def pipeline(root: Path) -> list[Path]:
        root.mkdir()
        steps = [
            ["gen", "--scenario", str(tmp_path / "scenario.json"), "--count", "30",
             "--out", str(root / "train.csia")],
            ["transform", "--in", str(root / "train.csia"), "--na", "8",
             "--out", str(root / "ang.csia")],
            ["augment", "--in", str(root / "ang.csia"), "--method", "bs-down",
             "--shift", "1", "--seed", "9", "--out", str(root / "aug.csia")],
            ["fit", "--train", str(root / "aug.csia"), "--ratio", "1/4",
             "--out", str(root / "codec.csic")],
            ["eval", "--codec", str(root / "codec.csic"), "--test", str(root / "ang.csia"),
             "--label", "demo", "--out", str(root / "report.json")],
        ]
        for argv in steps:
            assert cli_run(argv) == 0, f"pipeline step failed: {argv[0]}"
        return sorted(p for p in root.iterdir() if p.is_file())

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert [p.name for p in first] == [p.name for p in second]
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes(), f"{p1.name} differs between reruns"
    print(
        f"[PASS] containers round-tripped byte-exactly, malformed files raised the "
        f"documented errors, and all {len(first)} CLI pipeline artifacts were "
        f"byte-identical across reruns"
    )
