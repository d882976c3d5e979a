"""Tests for the linear subspace codec and the NMSE harness."""

import gc
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csiaug import codec as codec_module
from csiaug.augment import augment_dataset
from csiaug.channel import ScenarioSpec, generate_angular_dataset
from csiaug.codec import (
    DB_FLOOR,
    _fix_signs,
    EvalReport,
    LinearCodec,
    check_components,
    decode_batch,
    encode_batch,
    evaluate,
    evaluate_passes,
    features,
    fit_codec,
    fit_spectrum,
    nmse,
    parse_ratio,
    reconstruct_batch,
    to_db,
    unfeatures,
)
from csiaug.core import AugmentMethod, AugmentMode, AugmentParams, Dataset, Domain, Provenance


def angular_dataset(samples, seed=0):
    return Dataset(np.asarray(samples, dtype=np.complex128), Domain.ANGULAR_DELAY, Provenance(seed=seed))


def random_dataset(count, rows, cols, seed):
    g = np.random.default_rng(seed)
    s = g.standard_normal((count, rows, cols)) + 1j * g.standard_normal((count, rows, cols))
    return angular_dataset(s, seed=seed)


def test_parse_ratio():
    assert parse_ratio("1/4") == Fraction(1, 4)
    assert parse_ratio(" 1/64 ") == Fraction(1, 64)
    assert parse_ratio(1) == Fraction(1)
    assert parse_ratio(Fraction(3, 32)) == Fraction(3, 32)
    with pytest.raises(TypeError, match="float"):
        parse_ratio(0.25)
    with pytest.raises(TypeError):
        parse_ratio(True)
    with pytest.raises(ValueError, match="positive"):
        parse_ratio("-1/4")
    with pytest.raises(ValueError, match="positive"):
        parse_ratio("0")
    with pytest.raises(ValueError, match="parse"):
        parse_ratio("1/0")
    with pytest.raises(ValueError, match="parse"):
        parse_ratio("quarter")


def test_component_count_table():
    dim = 2 * 32 * 32
    expected = {"1/4": 512, "1/8": 256, "1/16": 128, "1/32": 64, "1/64": 32}
    for text, m in expected.items():
        assert check_components(parse_ratio(text), dim) == m


def test_to_db():
    assert to_db(1.0) == 0.0
    assert to_db(0.0) == DB_FLOOR
    assert abs(to_db(0.25) - (-6.0206)) < 1e-4
    assert to_db(1e-40) == DB_FLOOR
    with pytest.raises(ValueError, match="negative"):
        to_db(-1e-9)


def test_features_layout_and_inverse():
    sample = np.array([[1 + 2j, 3 - 1j]])
    vec = features(sample[None, :, :])[0]
    assert vec.tolist() == [1.0, 3.0, 2.0, -1.0]  # all real parts, then imaginary
    assert np.array_equal(unfeatures(vec[None, :], 1, 2)[0], sample)
    batch = np.random.default_rng(0).standard_normal((5, 3, 4)) + 1j
    assert np.array_equal(unfeatures(features(batch), 3, 4), batch)


def test_full_ratio_codec_is_lossless():
    ds = random_dataset(10, 4, 3, seed=1)
    codec = fit_codec(ds, 1)
    assert codec.components == codec.feature_dim == 24
    recon = reconstruct_batch(codec, ds.samples)
    linear, db = nmse(ds, angular_dataset(recon))
    assert linear < 1e-10
    # also lossless when samples are fewer than feature dimensions
    small = random_dataset(5, 8, 8, seed=2)
    codec = fit_codec(small, 1)
    err = np.abs(reconstruct_batch(codec, small.samples) - small.samples).max()
    assert err < 1e-10


def test_identical_samples_reconstruct_exactly():
    one = np.random.default_rng(3).standard_normal((2, 3)) + 1j
    ds = angular_dataset(np.stack([one] * 4))
    codec = fit_codec(ds, "1/4")
    recon = reconstruct_batch(codec, ds.samples)
    assert np.abs(recon - ds.samples).max() < 1e-12


def test_line_distribution_yields_known_direction():
    # samples live on the line (t, 2t) in a 1x1-matrix feature space,
    # so the single principal direction must be (1, 2)/sqrt(5) with the
    # leading coordinate pinned positive.
    t = np.linspace(-1.0, 1.0, 9)
    samples = (t + 2j * t).reshape(-1, 1, 1)
    codec = fit_codec(angular_dataset(samples), "1/2")
    assert codec.components == 1
    expect = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert np.allclose(codec.basis[:, 0], expect, atol=1e-12)
    recon = reconstruct_batch(codec, samples)
    assert np.abs(recon - samples).max() < 1e-12


def test_nmse_non_increasing_in_components():
    ds = random_dataset(40, 8, 4, seed=4)
    errors = []
    for ratio in ("1/64", "1/32", "1/16", "1/8", "1/4", "1/2", "1"):
        codec = fit_codec(ds, ratio)
        recon = reconstruct_batch(codec, ds.samples)
        errors.append(nmse(ds, angular_dataset(recon))[0])
    for worse, better in zip(errors, errors[1:]):
        assert better <= worse + 1e-12


def test_projection_is_idempotent():
    ds = random_dataset(30, 6, 4, seed=5)
    codec = fit_codec(ds, "1/4")
    once = reconstruct_batch(codec, ds.samples)
    twice = reconstruct_batch(codec, once)
    assert np.abs(twice - once).max() < 1e-10


def test_mean_sample_encodes_to_zero():
    ds = random_dataset(20, 4, 4, seed=6)
    codec = fit_codec(ds, "1/4")
    mean_matrix = unfeatures(codec.mean[None, :], 4, 4)
    assert np.abs(encode_batch(codec, mean_matrix)).max() < 1e-12


def test_codes_are_scale_equivariant():
    ds = random_dataset(20, 4, 4, seed=7)
    codec = fit_codec(ds, "1/8")
    centred = ds.samples - unfeatures(codec.mean[None, :], 4, 4)
    one = encode_batch(codec, unfeatures(codec.mean[None, :], 4, 4) + centred)
    three = encode_batch(codec, unfeatures(codec.mean[None, :], 4, 4) + 3.0 * centred)
    assert np.allclose(three, 3.0 * one, atol=1e-10)


def test_single_sample_round_trip_matches_batch():
    ds = random_dataset(12, 5, 3, seed=8)
    codec = fit_codec(ds, "1/4")
    code = encode_batch(codec, ds.samples[4:5])
    assert code.shape == (1, codec.components)
    assert np.allclose(code[0], encode_batch(codec, ds.samples)[4], atol=1e-12)
    back = decode_batch(codec, code)
    assert back.shape == (1, 5, 3)
    assert np.allclose(back[0], reconstruct_batch(codec, ds.samples)[4], atol=1e-12)


def fix_signs_reference(basis):
    """Column loop: flip a column whose first nonzero entry is negative."""
    out = basis.copy()
    for j in range(out.shape[1]):
        nz = np.flatnonzero(out[:, j])
        if nz.size and out[nz[0], j] < 0:
            out[:, j] = -out[:, j]
    return out


# Mostly zeros of both signs, so zero columns and leading zeros are common.
sign_entries = st.sampled_from([0.0, -0.0, 0.0, -0.0, 0.5, -0.5]) | st.floats(-2, 2)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(0, 8)), elements=sign_entries))
# A zero column of mixed-sign zeros, and a leading +0.0 on a column that flips.
@example(np.array([[0.0, -0.0, 0.0, 1.0], [-0.0, -0.0, -2.0, -1.0], [0.0, 0.0, 3.0, 0.0]]))
def test_fix_signs_matches_column_loop(basis):
    got = basis.copy()
    _fix_signs(got)
    want = fix_signs_reference(basis)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_codec_shape_checks():
    ds = random_dataset(10, 4, 3, seed=9)
    codec = fit_codec(ds, "1/4")
    with pytest.raises(ValueError, match="shape"):
        encode_batch(codec, np.zeros((1, 3, 4), dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        encode_batch(codec, np.zeros((2, 5, 3), dtype=complex))
    with pytest.raises(ValueError, match="code"):
        decode_batch(codec, np.zeros((2, codec.components + 1)))
    with pytest.raises(ValueError, match="code"):
        decode_batch(codec, np.zeros(codec.components))


def test_fit_codec_validation():
    ds = random_dataset(10, 4, 3, seed=10)
    with pytest.raises(ValueError, match="at least 2"):
        fit_codec(random_dataset(1, 4, 3, seed=0), "1/4")
    wrong = Dataset(ds.samples, Domain.SPATIAL_FREQUENCY)
    with pytest.raises(ValueError, match="angular-delay"):
        fit_codec(wrong, "1/4")
    with pytest.raises(ValueError, match="no components"):
        fit_codec(ds, "1/1000")
    with pytest.raises(ValueError, match="exceeds"):
        fit_codec(ds, 2)


@pytest.fixture
def empty_memo(monkeypatch):
    """Start and end with no remembered spectrum."""
    monkeypatch.setattr(codec_module, "_last_fit", None)


def codec_bytes(codec):
    return codec.mean.tobytes(), codec.basis.tobytes()


def test_ratio_bases_are_prefixes_of_the_full_basis(empty_memo):
    ds = random_dataset(40, 4, 4, seed=21)
    full = fit_codec(ds, 1)
    for ratio in ("1/16", "1/8", "1/4"):
        codec = fit_codec(ds, ratio)
        m = codec.components
        assert m == check_components(parse_ratio(ratio), full.feature_dim)
        assert codec.basis.tobytes() == full.basis[:, :m].tobytes()
        assert codec.mean.tobytes() == full.mean.tobytes()


def test_spectrum_is_descending_and_read_only(empty_memo):
    ds = random_dataset(12, 3, 2, seed=22)
    spectrum = fit_spectrum(ds)
    assert (spectrum.rows, spectrum.cols) == (3, 2)
    assert spectrum.values.shape == (12,) and spectrum.vectors.shape == (12, 12)
    assert np.all(np.diff(spectrum.values) <= 0)
    for array in (spectrum.mean, spectrum.values, spectrum.vectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert spectrum.energy_share(12) == pytest.approx(1.0)
    shares = [spectrum.energy_share(m) for m in range(1, 13)]
    assert shares == sorted(shares)
    flat = angular_dataset(np.ones((3, 2, 2)))
    assert fit_spectrum(flat).energy_share(1) == 1.0


def test_memo_hit_gives_the_bytes_of_a_miss(empty_memo):
    ds = random_dataset(30, 4, 3, seed=23)
    first = fit_codec(ds, "1/4")
    assert fit_spectrum(ds) is fit_spectrum(ds)
    hit = fit_codec(ds, "1/4")
    codec_module._last_fit = None
    miss = fit_codec(ds, "1/4")
    assert codec_bytes(hit) == codec_bytes(first) == codec_bytes(miss)


def test_second_dataset_evicts_the_first(empty_memo):
    one = random_dataset(20, 3, 3, seed=24)
    two = random_dataset(20, 3, 3, seed=25)
    spectrum_one = fit_spectrum(one)
    fit_spectrum(two)
    assert codec_module._last_fit[0]() is two
    again = fit_spectrum(one)
    assert again is not spectrum_one
    assert again.vectors.tobytes() == spectrum_one.vectors.tobytes()
    assert codec_module._last_fit[0]() is one


def test_memo_does_not_keep_a_dataset_alive(empty_memo):
    ds = random_dataset(20, 3, 3, seed=26)
    fit_codec(ds, "1/2")
    ref = weakref.ref(ds)
    del ds
    gc.collect()
    assert ref() is None
    assert codec_module._last_fit is None


def test_slot_is_empty_when_a_miss_reaches_the_eigensolve(empty_memo, monkeypatch):
    one = random_dataset(20, 3, 3, seed=27)
    two = random_dataset(20, 3, 3, seed=28)
    held = weakref.ref(fit_spectrum(one))
    eigh = np.linalg.eigh
    calls = []

    def checked_eigh(matrix):
        # Neither the slot nor anything else still holds the old spectrum.
        assert codec_module._last_fit is None
        assert held() is None
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", checked_eigh)
    for ratio in ("1/4", "1/8", "1/16"):
        fit_codec(two, ratio)
    assert calls == [(18, 18)]


def test_a_hit_still_judges_its_inputs(empty_memo):
    ds = random_dataset(10, 4, 3, seed=29)
    fit_codec(ds, "1/4")
    with pytest.raises(ValueError, match="positive"):
        fit_codec(ds, "0")
    with pytest.raises(ValueError, match="exceeds"):
        fit_codec(ds, 2)
    with pytest.raises(ValueError, match="exceeds"):
        fit_spectrum(ds).codec("3/2")
    # A frozen Dataset can still be forced through object.__setattr__;
    # the domain and size rules hold for the remembered object too.
    samples = ds.samples
    object.__setattr__(ds, "domain", Domain.SPATIAL_FREQUENCY)
    with pytest.raises(ValueError, match="angular-delay"):
        fit_codec(ds, "1/4")
    object.__setattr__(ds, "domain", Domain.ANGULAR_DELAY)
    object.__setattr__(ds, "samples", samples[:1])
    with pytest.raises(ValueError, match="at least 2"):
        fit_codec(ds, "1/4")


# tracemalloc peaks of the fit when every ratio ran its own
# eigendecomposition (NumPy 2.4, 600 x 16 x 16 set): the one full-basis
# fit must stay at or below them.
PER_RATIO_FIT_PEAK = {"1/4": 8_111_542, "1": 15_061_180}


def traced_fit_peak(ratio):
    ds = random_dataset(600, 16, 16, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        fit_codec(ds, ratio)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ratio", sorted(PER_RATIO_FIT_PEAK))
def test_fit_peak_memory_does_not_grow(empty_memo, ratio):
    assert traced_fit_peak(ratio) <= PER_RATIO_FIT_PEAK[ratio]


def test_fit_holds_at_most_features_and_scatter_at_once(empty_memo):
    # Features and scatter matrix coexist only for the scatter product:
    # the features go before the eigensolve and the scatter matrix before
    # the sign flip, which works in place.
    dim = 2 * 16 * 16
    assert traced_fit_peak("1/4") <= 1.01 * 8 * (600 * dim + dim * dim)


def test_codec_requires_orthonormal_basis():
    ds = random_dataset(10, 2, 2, seed=11)
    codec = fit_codec(ds, "1/2")
    assert np.abs(codec.basis.T @ codec.basis - np.eye(codec.components)).max() <= 1e-8
    with pytest.raises(ValueError, match="orthonormal"):
        LinearCodec(2, 2, Fraction(1, 2), codec.mean, codec.basis * 1.001)
    with pytest.raises(ValueError, match="mean"):
        LinearCodec(2, 2, Fraction(1, 2), codec.mean[:-1], codec.basis)
    bad_mean = codec.mean.copy()
    bad_mean[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        LinearCodec(2, 2, Fraction(1, 2), bad_mean, codec.basis)
    # Dimensions are checked as integers, not truncated.
    with pytest.raises(ValueError, match="delay_bins must be an integer"):
        LinearCodec(2.7, 2, Fraction(1, 2), codec.mean, codec.basis)
    with pytest.raises(ValueError, match="antennas must be an integer"):
        LinearCodec(2, True, Fraction(1, 2), codec.mean, codec.basis)


def test_codec_components_must_match_ratio():
    # Ratio 1/4 of feature dim 8 keeps 2 components, so a 1-column basis is
    # a codec write_codec could write and read_codec would reject.
    message = r"component count 1 inconsistent with ratio 1/4 \(expected 2\)"
    with pytest.raises(ValueError, match=message):
        LinearCodec(2, 2, Fraction(1, 4), np.zeros(8), np.eye(8)[:, :1])
    with pytest.raises(ValueError, match="retains no components"):
        LinearCodec(2, 2, Fraction(1, 100), np.zeros(8), np.eye(8)[:, :1])


def test_mean_only_codec_from_orthogonal_basis():
    # a basis orthogonal to every centred sample reconstructs the mean
    ds = angular_dataset(np.array([[[1.0 + 0j, 0.0]], [[3.0 + 0j, 0.0]]]))
    basis = np.zeros((4, 1))
    basis[1, 0] = 1.0  # real part of the always-zero second entry
    codec = LinearCodec(1, 2, Fraction(1, 4), features(ds.samples).mean(axis=0), basis)
    recon = reconstruct_batch(codec, ds.samples)
    assert np.allclose(recon, np.array([[[2.0 + 0j, 0.0]]] * 2))


def test_nmse_analytic_values():
    ds = random_dataset(6, 4, 4, seed=12)
    same = nmse(ds, ds)
    assert same[0] < 1e-25 and same[1] == DB_FLOOR
    zeros = angular_dataset(np.zeros_like(ds.samples))
    linear, db = nmse(ds, zeros)
    assert abs(linear - 1.0) < 1e-12 and abs(db) < 1e-10
    halved = angular_dataset(0.5 * ds.samples)
    linear, db = nmse(ds, halved)
    assert abs(linear - 0.25) < 1e-12
    assert abs(db + 6.0206) < 1e-4


def test_nmse_validation():
    ds = random_dataset(4, 3, 3, seed=13)
    with pytest.raises(ValueError, match="counts"):
        nmse(ds, random_dataset(5, 3, 3, seed=13))
    with pytest.raises(ValueError, match="shapes"):
        nmse(ds, random_dataset(4, 3, 2, seed=13))
    zero_ref = angular_dataset(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="all-zero"):
        nmse(zero_ref, zero_ref)
    empty = angular_dataset(np.zeros((0, 2, 2)))
    with pytest.raises(ValueError, match="empty"):
        nmse(empty, empty)


def test_evaluate_produces_full_report():
    train = random_dataset(30, 4, 4, seed=14)
    test = random_dataset(10, 4, 4, seed=15)
    codec = fit_codec(train, "1/8")
    report = evaluate(codec, test, label="baseline")
    assert report.label == "baseline"
    assert report.ratio == "1/8"
    assert report.sample_count == 10
    assert report.codec_info["components"] == codec.components
    assert report.test_provenance["seed"] == 15
    assert abs(report.nmse_db - to_db(report.nmse_linear)) < 1e-12
    assert report.db_floor == DB_FLOOR
    assert evaluate(codec, test).label == "unlabeled"
    with pytest.raises(ValueError, match="angular-delay"):
        evaluate(codec, Dataset(test.samples, Domain.SPATIAL_FREQUENCY))
    with pytest.raises(ValueError, match="empty"):
        evaluate(codec, angular_dataset(np.zeros((0, 4, 4))))


def count_eigh(monkeypatch):
    """Patch ``np.linalg.eigh`` to record each call; returns the call list."""
    eigh = np.linalg.eigh
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("mode", list(AugmentMode))
def test_evaluate_passes_matches_the_hand_loop(empty_memo, monkeypatch, mode):
    spec = ScenarioSpec(subcarriers=16, antennas=4, paths=2, delay_range=(0.0, 5.0),
                        angle_range=(-0.5, 0.5), gain_decay=0.4, seed=77)
    train = generate_angular_dataset(spec, 30, 8)
    test = generate_angular_dataset(spec.with_seed(78), 10, 8)
    passes = [None, AugmentParams(AugmentMethod.BUBBLE_SHIFT_DOWN, shift=1),
              AugmentParams(AugmentMethod.RANDOM_GENERATION, block_size=3, seed=7)]
    calls = count_eigh(monkeypatch)
    reports, counts = [], []
    for report in evaluate_passes(train, test, passes, "1/4", mode):
        reports.append(report)
        counts.append(len(calls))
    assert counts == [1, 2, 3]  # one eigendecomposition per pass
    for params, report in zip(passes, reports):
        fitted = train if params is None else augment_dataset(train, params, mode)
        want = evaluate(fit_codec(fitted, "1/4"), test)
        assert report == want
        assert report.nmse_linear.hex() == want.nmse_linear.hex()


def test_evaluate_passes_judges_the_test_set_before_the_first_pass(empty_memo, monkeypatch):
    train = random_dataset(20, 4, 3, seed=30)
    passes = [AugmentParams(AugmentMethod.BUBBLE_SHIFT_DOWN, shift=1)]
    calls = count_eigh(monkeypatch)
    for test, message in [
        (random_dataset(5, 2, 3, seed=31), r"sample shape \(2, 3\) does not match codec \(4, 3\)"),
        (Dataset(train.samples[:5], Domain.SPATIAL_FREQUENCY), "expects angular-delay"),
        (angular_dataset(np.zeros((0, 4, 3))), "empty"),
    ]:
        with pytest.raises(ValueError, match=message):
            next(evaluate_passes(train, test, passes, "1/4"))
    assert calls == []


def test_eval_report_dict_round_trip():
    report = EvalReport(
        label="bs-down S=1",
        ratio="1/4",
        nmse_linear=0.01,
        nmse_db=-20.0,
        sample_count=500,
        codec_info={"components": 512},
        test_provenance={"seed": 7},
    )
    again = EvalReport.from_dict(report.to_dict())
    assert again == report
    no_prov = EvalReport.from_dict(
        {**report.to_dict(), "test_provenance": None}
    )
    assert no_prov.test_provenance is None
