"""Tests for the linear subspace codec and the NMSE harness."""

import ctypes
import gc
import mmap
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csiaug import _openblas
from csiaug import codec as codec_module
from csiaug import core
from csiaug.augment import _augmented, augment_dataset
from csiaug.codec import (
    DB_FLOOR,
    _fix_signs,
    EvalReport,
    LinearCodec,
    check_components,
    decode_batch,
    encode_batch,
    evaluate,
    features,
    fit_codec,
    fit_spectrum,
    nmse,
    parse_ratio,
    reconstruct_batch,
    to_db,
    unfeatures,
)
from csiaug.core import (
    AugmentMethod, AugmentMode, AugmentParams, Dataset, Domain, Provenance, _stream,
)

SRC = Path(__file__).resolve().parents[1] / "src"


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
    with pytest.raises(TypeError, match="got list"):
        parse_ratio([1, 4])
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
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be finite"):
            to_db(value)


def test_features_layout_and_inverse():
    sample = np.array([[1 + 2j, 3 - 1j]])
    vec = features(sample[None, :, :])[0]
    assert vec.tolist() == [1.0, 3.0, 2.0, -1.0]  # all real parts, then imaginary
    assert np.array_equal(unfeatures(vec[None, :], 1, 2)[0], sample)
    batch = np.random.default_rng(0).standard_normal((5, 3, 4)) + 1j
    assert np.array_equal(unfeatures(features(batch), 3, 4), batch)
    # Rows of a larger matrix filled in place, as the fit fills its blocks.
    out = np.full((7, 24), np.nan)
    assert features(batch, out[1:6]).base is out
    assert np.array_equal(out[1:6], features(batch))
    assert np.isnan(out[[0, 6]]).all()
    # A batch of no samples keeps its shape through every batch function.
    empty = np.zeros((0, 3, 4), dtype=complex)
    assert features(empty).shape == (0, 24)
    codec = fit_codec(random_dataset(8, 3, 4, seed=1), "1/4")
    assert encode_batch(codec, empty).shape == (0, 6)
    assert reconstruct_batch(codec, empty).shape == (0, 3, 4)


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


def test_fix_signs_equals_the_gather_scatter_flip():
    # The broadcast multiply must give the bits of the fancy-index flip
    # ``basis[:, first < 0] *= -1`` it replaced.
    basis = np.random.default_rng(3).standard_normal((64, 48))
    basis[:5, ::3] = 0.0  # leading zeros of both signs in a third of the columns
    basis[:2, 1::6] = -0.0
    basis[::2, 7], basis[1::2, 7] = 0.0, -0.0  # one all-zero column
    old = basis.copy()
    first = old[np.argmax(old != 0, axis=0), np.arange(old.shape[1])]
    assert 0 < np.count_nonzero(first < 0) < basis.shape[1]
    old[:, first < 0] *= -1
    _fix_signs(basis)
    assert basis.tobytes() == old.tobytes()


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


def codec_bytes(codec):
    return codec.mean.tobytes(), codec.basis.tobytes()


def test_ratio_bases_are_prefixes_of_the_full_basis():
    ds = random_dataset(40, 4, 4, seed=21)
    full = fit_codec(ds, 1)
    for ratio in ("1/16", "1/8", "1/4"):
        codec = fit_codec(ds, ratio)
        m = codec.components
        assert m == check_components(parse_ratio(ratio), full.feature_dim)
        assert codec.basis.tobytes() == full.basis[:, :m].tobytes()
        assert codec.mean.tobytes() == full.mean.tobytes()


def test_spectrum_is_descending_and_read_only():
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


def counted_eighs(monkeypatch):
    """The shapes of the matrices ``_eigh`` solves from here on."""
    eigh, calls = codec_module._eigh, []
    monkeypatch.setattr(codec_module, "_eigh", lambda m, k: calls.append(m.shape) or eigh(m, k))
    return calls


def test_memo_hit_gives_the_bytes_of_a_miss(monkeypatch):
    # 1/4, 1/8 and 1/16 in that order share one eigensolve, and the dataset
    # keeps the widest codec, not a narrower one served after it.  Each hit
    # is a read-only view of that codec's columns, which it keeps alive.  An
    # equal but distinct dataset is fitted afresh.
    ds = random_dataset(30, 4, 3, seed=23)
    spectrum = fit_spectrum(ds)
    calls = counted_eighs(monkeypatch)
    first = fit_codec(ds, "1/4")
    hits = {ratio: fit_codec(ds, ratio) for ratio in ("1/4", "1/8", "1/16")}
    assert calls == [(24, 24)]
    for hit in [fit_codec(ds, "1/4"), *hits.values()]:
        assert np.shares_memory(hit.basis, first.basis)
        with pytest.raises(ValueError, match="read-only"):
            hit.basis[0, 0] = 0.0
    assert len(calls) == 1
    equal = Dataset(ds.samples, ds.domain, ds.meta)
    assert equal == ds
    miss = fit_codec(equal, "1/4")
    assert len(calls) == 2
    assert not np.shares_memory(miss.basis, first.basis)
    assert codec_bytes(hits["1/4"]) == codec_bytes(first) == codec_bytes(miss)
    del first, miss, ds, equal
    gc.collect()
    for ratio, hit in hits.items():
        assert codec_bytes(hit) == codec_bytes(spectrum.codec(ratio))


def test_a_wider_ratio_fits_again(monkeypatch):
    ds = random_dataset(30, 4, 3, seed=23)
    spectrum = fit_spectrum(ds)
    calls = counted_eighs(monkeypatch)
    fit_codec(ds, "1/8")
    wide = fit_codec(ds, "1/2")
    assert calls == [(24, 24), (24, 24)]
    assert codec_bytes(wide) == codec_bytes(spectrum.codec("1/2"))
    narrow = fit_codec(ds, "1/8")
    assert np.shares_memory(narrow.basis, wide.basis)
    assert codec_bytes(narrow) == codec_bytes(spectrum.codec("1/8"))
    assert len(calls) == 2


def test_a_second_dataset_does_not_evict_the_first(monkeypatch):
    # One, two, one: each dataset keeps its own codec, so the third fit is a
    # view of the first's.
    one = random_dataset(20, 3, 3, seed=24)
    two = random_dataset(20, 3, 3, seed=25)
    calls = counted_eighs(monkeypatch)
    codec_one = fit_codec(one, "1/3")
    codec_two = fit_codec(two, "1/3")
    again = fit_codec(one, "1/3")
    assert len(calls) == 2
    assert again is not codec_one
    assert np.shares_memory(again.basis, codec_one.basis)
    assert not np.shares_memory(again.basis, codec_two.basis)
    assert codec_bytes(again) == codec_bytes(codec_one)


def test_fit_codec_keeps_no_more_than_its_codec():
    # Across the calls, only the 1/4 codec (mean and 512 x 128 basis) and a
    # few small objects stay allocated, never the 2 MiB spectrum the basis
    # was cut from, nor copies for the narrower codecs held beside it, which
    # would add 0.75 of it.  Measured: 1.5 KB over the codec for one ratio
    # and 2.6 KB for three (12.3 KB when the first fit also loads the
    # bundled BLAS routines), against 404 KB for three with copied hits.
    for ratios in (["1/4"], ["1/4", "1/8", "1/16"]):
        ds = random_dataset(100, 16, 16, seed=34)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            codecs = [fit_codec(ds, ratio) for ratio in ratios]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        codec = codecs[0]
        assert all(np.shares_memory(c.basis, codec.basis) for c in codecs)
        assert retained <= codec.mean.nbytes + codec.basis.nbytes + (64 << 10), (ratios, retained)


def test_memo_does_not_keep_a_dataset_alive():
    # The dataset holds its codec and nothing holds the dataset, so the two
    # are collected together, with no cycle left for the collector.
    ds = random_dataset(20, 3, 3, seed=26)
    held = weakref.ref(fit_codec(ds, "1/2"))
    ref = weakref.ref(ds)
    gc.collect()
    assert held() is not None
    del ds
    assert ref() is None and held() is None


def test_a_wider_refit_holds_no_narrower_codec_through_the_eigensolve(monkeypatch):
    one = random_dataset(20, 3, 3, seed=27)
    two = random_dataset(20, 3, 3, seed=28)
    held = weakref.ref(fit_spectrum(one))
    narrow = weakref.ref(fit_codec(one, "1/8"))
    kept = fit_codec(two, "1/2")
    eigh = codec_module._eigh
    calls = []

    def checked_eigh(matrix, columns):
        # Neither the dataset nor anything else still holds its narrower
        # codec or the old spectrum.
        assert narrow() is None
        assert held() is None
        calls.append(matrix.shape)
        return eigh(matrix, columns)

    assert narrow() is not None
    monkeypatch.setattr(codec_module, "_eigh", checked_eigh)
    for ratio in ("1/2", "1/4", "1/8"):
        fit_codec(one, ratio)
    assert calls == [(18, 18)]
    # The other dataset still serves its codec.
    assert np.shares_memory(fit_codec(two, "1/4").basis, kept.basis)
    assert calls == [(18, 18)]


def test_a_hit_still_judges_its_inputs():
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


def traced_fit_peak(ratio, count=600):
    ds = random_dataset(count, 16, 16, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        fit_codec(ds, ratio)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ratio", sorted(PER_RATIO_FIT_PEAK))
def test_fit_peak_memory_does_not_grow(ratio):
    assert traced_fit_peak(ratio) <= PER_RATIO_FIT_PEAK[ratio]


def test_fit_memory_does_not_grow_with_count():
    # The fit holds the scatter matrix and one block of features, then the
    # scatter's buffer and dstemr's eigenvectors: two d x d arrays allocated
    # whatever the count (tracemalloc counts the scatter's whole buffer,
    # though only its lower triangle is written). Holding the 4800 x 512
    # float64 features, 19.7 MB, it peaked at 21.8 MB here, 4.8 times its
    # peak at 600 samples.
    dim = 2 * 16 * 16
    small, large = traced_fit_peak("1/4"), traced_fit_peak("1/4", 4800)
    assert large <= 1.1 * small, (small, large)
    block = 8 * dim * codec_module._block_samples(dim)
    chunk = 16 * 16 * 16 * core._chunk_samples(16, 16)
    assert large <= 2 * 8 * dim * dim + block + chunk, large


def fit_matrices(monkeypatch, stream):
    """The spectrum ``_fit`` gives ``stream`` and the lower triangle of the
    scatter matrix it handed to the eigensolver."""
    eigh, seen = codec_module._eigh, []
    monkeypatch.setattr(codec_module, "_eigh",
                        lambda m, k: seen.append(np.tril(m)) or eigh(m, k))
    spectrum = codec_module._fit(stream, Fraction(1))
    monkeypatch.setattr(codec_module, "_eigh", eigh)
    return spectrum, seen.pop()


def adversarial(ds, case):
    """``ds`` with its first block moved far from the rest, or sorted by
    sample energy: a fixed shift taken from the first block is furthest
    from the mean of what follows."""
    samples = ds.samples.copy()
    if case.startswith("offset"):
        samples[:codec_module._block_samples(2 * 16 * 16)] += 1e6 * (1 + 1j)
    else:
        order = np.argsort(np.sum(np.abs(samples) ** 2, axis=(1, 2)), kind="stable")
        samples = samples[order if case == "energy-up" else order[::-1]]
    return angular_dataset(samples, seed=33)


@pytest.mark.parametrize("case", ["plain", "append-seam", "offset", "energy-up", "energy-down",
                                  "offset-18-blocks", "offset-without-blas"])
def test_blocked_scatter_matches_the_whole_set(monkeypatch, case):
    # 1100 samples of 16 x 16 fill two 512-sample blocks and a short one;
    # appended, the seam between originals and copies falls inside a block.
    # With the first block offset, the rank-1 term the shift leaves can reach
    # (n / B) times the scatter, so one case cuts blocks to 64 samples (18
    # blocks) and one takes the fallback branch without BLAS.
    if case == "offset-18-blocks":
        monkeypatch.setattr(codec_module, "_BLOCK_BYTES", 64 * 8 * 2 * 16 * 16)
    if case == "offset-without-blas":
        monkeypatch.setattr(codec_module, "_blas", lambda: None)
    ds = random_dataset(1100, 16, 16, seed=33)
    params = AugmentParams(AugmentMethod.BUBBLE_SHIFT_DOWN, shift=1)
    if case not in ("plain", "append-seam"):
        ds = adversarial(ds, case)
    append = case == "append-seam"
    x = features((augment_dataset(ds, params) if append else ds).samples)
    mean = x.mean(axis=0)
    x -= mean
    scatter = np.tril(x.T @ x) / (len(x) - 1)
    stream = _augmented(_stream(ds), params, AugmentMode.APPEND) if append else _stream(ds)
    got = []
    for step in (1, 7, 512):
        monkeypatch.setattr(core, "_CHUNK_BYTES", step * 16 * 16 * 16)
        spectrum, cov = fit_matrices(monkeypatch, stream)
        assert spectrum.mean.tobytes() == mean.tobytes()
        assert np.abs(cov - scatter).max() <= 1e-13 * np.abs(scatter).max()
        got.append(codec_bytes(spectrum.codec(1)))
    assert got[0] == got[1] == got[2]


@pytest.mark.skipif(codec_module._blas() is None, reason="needs the bundled BLAS and LAPACK")
def test_fit_writes_no_scatter_entry_above_the_diagonal(monkeypatch):
    # dsyrk adds to the lower triangle and dsytrd reads only it; the rank-1
    # downdate and the scaling stay inside it too, so no page wholly above
    # it is ever written. Blocks of 8 of the 40 samples give a shift other
    # than the mean, so the downdate is not zero.
    dim = 2 * 4 * 3
    monkeypatch.setattr(codec_module, "_BLOCK_BYTES", 8 * 8 * dim)
    eigh, seen = codec_module._eigh, []
    monkeypatch.setattr(codec_module, "_eigh", lambda m, k: seen.append(m.copy()) or eigh(m, k))
    codec_module._fit(_stream(random_dataset(40, 4, 3, seed=34)), Fraction(1))
    (cov,) = seen
    assert not np.triu(cov, 1).any()
    assert cov[np.tril_indices(dim)].all()


# Compares _eigh with np.linalg.eigh on scatter matrices of full rank and
# below it, at the BLAS thread count it inherits: eigenvalues within 1e-12 of
# the largest, orthonormal eigenvectors, and the sign-fixed eigenvectors of
# eigenvalues at least 1e-3 of the largest from their neighbours within 1e-11.
# Measured at one and two threads: 1.3e-15, 1.0e-12 (100 * dim * eps allows
# 1.1e-11 at 512) and 6.8e-14.  Each matrix is also solved in 40-column
# blocks, whose last is narrower, and scaled by 1e-160 and by 1e80, beyond
# the bounds within which dsyevr solves a matrix unscaled.  A call for fewer
# columns returns the top whole blocks of the full call's eigenvectors, bit
# for bit.
EIGH_CHILD = """
import numpy as np
from csiaug import codec

def fixed(vectors):
    vectors = vectors.copy()
    codec._fix_signs(vectors)
    return vectors

g = np.random.default_rng(5)
for count, dim in [(3, 1), (5, 2), (400, 96), (20, 96), (1200, 512), (100, 512)]:
    x = g.standard_normal((count, dim))
    x -= x.mean(axis=0)
    for block, scale in [(512, 1.0), (40, 1.0), (512, 1e-160), (512, 1e80)]:
        codec._VECTOR_BLOCK = block
        cov = scale * (x.T @ x) / (count - 1)
        want_values, want_vectors = np.linalg.eigh(cov)
        values, vectors = codec._eigh(np.tril(cov), dim)
        assert values.shape == (dim,) and vectors.shape == (dim, dim)
        assert vectors.flags.f_contiguous
        top = np.abs(want_values).max()
        assert np.abs(values - want_values).max() <= 1e-12 * top, (count, dim, block, scale)
        residual = np.abs(vectors.T @ vectors - np.eye(dim)).max()
        assert residual <= 100 * dim * np.finfo(float).eps, (count, dim, block, scale, residual)
        gaps = np.diff(want_values)
        gap = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
        apart = gap >= 1e-3 * top
        assert apart.sum() >= min(dim, count - 1) // 3, (count, dim, block, scale)
        assert np.abs(fixed(vectors)[:, apart] - fixed(want_vectors)[:, apart]).max() <= 1e-11
        for k in (1, dim // 2 or 1, dim):
            part_values, part = codec._eigh(np.tril(cov), k)
            kept = min(dim, -(-k // block) * block)
            assert part.shape == (dim, kept) and part.flags.f_contiguous, (dim, k, part.shape)
            assert part_values.tobytes() == values.tobytes(), (count, dim, block, scale, k)
            assert part.tobytes() == vectors[:, dim - kept:].tobytes(), (count, dim, block, k)
print(codec._blas() is not None)
"""


def child_output(code, threads):
    """The words ``code`` prints, run on this tree's package in a child at
    ``threads`` OpenBLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_eigh_agrees_with_numpy_eigh(threads):
    # The child compared the bundled routines wherever this process resolves them.
    assert child_output(EIGH_CHILD, threads) == [str(codec_module._blas() is not None)]


# Fits one set of 192 features at 1/8, 1/4, 1/2 and 1 with 16-column blocks,
# so that the fits keep 2, 3, 6 and 12 blocks, above and below the scatter's
# rank.  A fresh fit at each ratio, each widening refit after a narrower fit
# and the full spectrum give each ratio the same codec bytes.  Back-transformed
# in one call of all kept columns, 16 to all 176 of a narrower call's columns
# took other bits than the full call's, at one and at two BLAS threads.
BLOCKS_CHILD = """
import numpy as np
from csiaug import codec
from csiaug.core import Dataset, Domain

codec._VECTOR_BLOCK = 16
ratios = ["1/8", "1/4", "1/2", "1"]
solved, eigh = [], codec._eigh
codec._eigh = lambda m, k: solved.append(k) or eigh(m, k)

def bytes_of(c):
    return c.mean.tobytes(), c.basis.tobytes()

g = np.random.default_rng(41)
for count in (400, 60):
    samples = g.standard_normal((count, 8, 12)) + 1j * g.standard_normal((count, 8, 12))
    ds = Dataset(samples, Domain.ANGULAR_DELAY)
    spectrum = codec.fit_spectrum(ds)
    assert spectrum.vectors.shape == (192, 192)
    want = {r: bytes_of(spectrum.codec(r)) for r in ratios}
    # A fresh Dataset of the same samples is always a miss.
    for r in ratios:
        fresh = Dataset(samples, Domain.ANGULAR_DELAY)
        assert bytes_of(codec.fit_codec(fresh, r)) == want[r], (count, r)
    del solved[:]
    for r in ratios:
        assert bytes_of(codec.fit_codec(ds, r)) == want[r], (count, r)
    assert solved == [24, 48, 96, 192], solved
print(codec._blas() is not None)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_column_has_the_bits_of_its_block_however_many_are_kept(threads):
    assert child_output(BLOCKS_CHILD, threads) == [str(codec_module._blas() is not None)]


def test_a_narrow_spectrum_refuses_a_wider_codec(monkeypatch):
    monkeypatch.setattr(codec_module, "_VECTOR_BLOCK", 8)
    spectrum = codec_module._fit(_stream(random_dataset(40, 4, 4, seed=35)), Fraction(5, 32))
    assert spectrum.values.shape == (32,) and spectrum.vectors.shape == (32, 8)
    assert spectrum.codec("1/4").components == 8
    with pytest.raises(ValueError, match="holds only the top 8 eigenvectors"):
        spectrum.codec("1/2")


def test_eigh_leaves_a_matrix_it_cannot_solve_in_place_to_numpy():
    x = np.random.default_rng(6).standard_normal((30, 8))
    cov = x.T @ x
    readonly = cov.copy()
    readonly.flags.writeable = False
    for matrix in (np.asfortranarray(cov), readonly, cov.astype(np.float32), cov[::2, ::2]):
        before = matrix.copy()
        values, vectors = codec_module._eigh(matrix, len(matrix))
        for a, b in zip((values, vectors), np.linalg.eigh(matrix)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # Column-major, as every other return of _eigh is.
        assert vectors.flags.f_contiguous
        assert matrix.tobytes() == before.tobytes()


def test_eigh_fails_on_a_non_finite_scatter_as_numpy_does():
    for value in (np.nan, np.inf):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            np.linalg.eigh(np.full((3, 3), value))
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            codec_module._eigh(np.full((3, 3), value), 3)
        # One entry in the triangle the solver reads is enough.
        matrix = np.eye(3)
        matrix[2, 0] = value
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            codec_module._eigh(matrix, 3)


def test_fit_without_the_in_place_routine_is_the_same(monkeypatch):
    # Without the bundled routines the scatter is a NumPy sum of full block
    # products and the eigensolve np.linalg.eigh: the same mean, the same
    # spectrum to roundoff, the same memo.
    ds = random_dataset(40, 4, 3, seed=32)
    want = fit_spectrum(ds)
    monkeypatch.setattr(codec_module, "_blas", lambda: None)
    got = fit_spectrum(ds)
    assert got is not want
    assert got.mean.tobytes() == want.mean.tobytes()
    # 40 samples of 24 features: full rank. Measured 1.0e-15 and 1.6e-14.
    assert np.abs(got.values - want.values).max() <= 1e-12 * want.values[0]
    assert np.abs(got.vectors - want.vectors).max() <= 1e-11
    assert got.vectors.strides == want.vectors.strides
    # fit_spectrum fits afresh each call and leaves the memo alone.
    calls = counted_eighs(monkeypatch)
    assert fit_spectrum(ds).vectors.tobytes() == got.vectors.tobytes()
    served = fit_codec(ds, "1/4")
    assert codec_bytes(served) == codec_bytes(got.codec("1/4"))
    assert len(calls) == 2
    hit = fit_codec(ds, "1/8")
    assert len(calls) == 2 and np.shares_memory(hit.basis, served.basis)
    assert codec_bytes(hit) == codec_bytes(got.codec("1/8"))


def test_blas_is_none_where_the_library_lacks_the_routines(monkeypatch):
    # A NumPy build on another BLAS links no scipy_..._64_ symbols.
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    assert _openblas._blas.__wrapped__() is None


def test_madvise_is_none_without_the_advice_or_libc(monkeypatch):
    def refuse(name):
        raise OSError("cannot load libc")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    assert codec_module._madvise.__wrapped__() is None
    monkeypatch.undo()
    monkeypatch.delattr(mmap, "MADV_NOHUGEPAGE", raising=False)
    assert codec_module._madvise.__wrapped__() is None


def test_fit_without_madvise_is_the_same(monkeypatch):
    # The advice changes which pages are resident, never a bit. The 128 KiB
    # scatter of 8 x 8 samples spans whole pages, so a normal fit advises it.
    ds = random_dataset(40, 8, 8, seed=36)
    want = codec_bytes(fit_spectrum(ds).codec("1/4"))
    monkeypatch.setattr(codec_module, "_madvise", lambda: None)
    assert codec_bytes(fit_spectrum(ds).codec("1/4")) == want


def test_codec_requires_orthonormal_basis():
    ds = random_dataset(10, 2, 2, seed=11)
    codec = fit_codec(ds, "1/2")
    assert np.abs(codec.basis.T @ codec.basis - np.eye(codec.components)).max() <= 1e-8
    with pytest.raises(ValueError, match="orthonormal"):
        LinearCodec(2, 2, Fraction(1, 2), codec.mean, codec.basis * 1.001)
    with pytest.raises(ValueError, match="mean"):
        LinearCodec(2, 2, Fraction(1, 2), codec.mean[:-1], codec.basis)
    with pytest.raises(ValueError, match=r"basis must have shape \(8, m\), got \(8,\)"):
        LinearCodec(2, 2, Fraction(1, 2), codec.mean, codec.basis[:, 0])
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
    # Exact at any scale, even where the entries' squares are subnormal
    # (1e-160) or zero (1e-170).
    x = random_dataset(4, 3, 3, seed=13).samples
    for scale in (1e-160, 1e-170):
        linear, _ = nmse(angular_dataset(x * scale), angular_dataset(1.5 * x * scale))
        assert linear == pytest.approx(0.25, rel=1e-12), scale


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nmse_rejects_an_error_or_energy_that_overflows():
    # Squares of entries near 1e160 overflow float64, but each sample is
    # scaled by a power of two before squaring: the NMSE is the one at scale 1.
    ds = random_dataset(20, 4, 4, seed=16)
    codec = fit_codec(ds, "1/4")
    huge = evaluate(codec, angular_dataset(ds.samples[:5] * 1e160)).nmse_linear
    # At 1e160 the mean lies below one ulp of every entry: only the basis acts.
    centred = LinearCodec(4, 4, "1/4", np.zeros_like(codec.mean), codec.basis)
    plain = evaluate(centred, angular_dataset(ds.samples[:5])).nmse_linear
    assert huge == pytest.approx(plain, rel=1e-12)
    big = angular_dataset(ds.samples * 1e155)
    assert nmse(big, angular_dataset(1.5 * big.samples))[0] == pytest.approx(0.25, rel=1e-12)
    # The energy is subnormal and the error near 1: their ratio overflows.
    with pytest.raises(ValueError, match="overflows float64"):
        nmse(angular_dataset(ds.samples * 1e-160), ds)
    # Two finite error/energy ratios of about 1e308 whose mean overflows.
    ref = angular_dataset(np.ones((2, 1, 1)))
    with pytest.raises(ValueError, match="the mean of the samples' error/energy ratios"):
        nmse(ref, angular_dataset(np.full((2, 1, 1), 1e154)))


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


@pytest.mark.parametrize("ratio", ["1/4", "1/8", "1/16"])
def test_streamed_evaluation_errors_equal_one_whole_batch(ratio):
    # 32 x 32 samples are served 512 to a chunk, so counts 513-515 and
    # 1025-1027 end in a chunk of 1, 2 or 3 samples. Reconstructed at their
    # own height, 1-sample tails (a matrix-vector product) and, at 1/16, 2- and
    # 3-sample tails took other bits than in one batch; the evaluation pads
    # them to a full chunk. The samples lie within 1e-6 of the codec's span,
    # as a fitted codec's test set does, so a last-bit change of the
    # reconstruction moves the error. A QR basis needs no eigensolve.
    rows = cols = 32
    dim, g = 2 * rows * cols, np.random.default_rng(30)
    m = check_components(parse_ratio(ratio), dim)
    codec = LinearCodec(rows, cols, ratio, g.standard_normal(dim),
                        np.linalg.qr(g.standard_normal((dim, m)))[0])
    near = g.standard_normal((1027, m)) @ codec.basis.T + codec.mean
    samples = unfeatures(near + 1e-6 * g.standard_normal((1027, dim)), rows, cols)
    for count in (513, 514, 515, 1025, 1026, 1027):
        test = angular_dataset(samples[:count])
        ref = test.samples
        error, energy = codec_module._sample_errors(codec, _stream(test))
        whole = codec_module._errors(ref, reconstruct_batch(codec, ref))
        assert error.tobytes() == whole[0].tobytes(), count
        assert energy.tobytes() == whole[1].tobytes(), count
