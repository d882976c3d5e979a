import numpy as np
import pytest

from csiaug.core import Dataset, Domain, Provenance
from csiaug.transform import (
    check_delay_bins,
    inverse_transform_dataset,
    inverse_transform_values,
    transform_dataset,
    transform_values,
)


def reference_transform(values, delay_bins):
    """Dense-matrix oracle: build both unitary DFT factors explicitly.

    The delay-side factor has entries exp(+2j pi d n / Nc) / sqrt(Nc)
    and the angle-side factor exp(-2j pi a m / Nt) / sqrt(Nt); the
    product F_delay @ H @ F_angle^H is evaluated literally, then rows
    are truncated.  Completely independent of the FFT implementation.
    """
    nc, nt = values.shape
    d = np.arange(nc)
    f_delay = np.exp(2j * np.pi * np.outer(d, d) / nc) / np.sqrt(nc)
    a = np.arange(nt)
    f_angle = np.exp(-2j * np.pi * np.outer(a, a) / nt) / np.sqrt(nt)
    return (f_delay @ values @ f_angle.conj().T)[:delay_bins]


def random_channel(rng, nc, nt):
    return rng.standard_normal((nc, nt)) + 1j * rng.standard_normal((nc, nt))


@pytest.mark.parametrize("nc,nt,na", [(8, 4, 8), (16, 4, 6), (12, 5, 3), (9, 1, 9)])
def test_matches_dense_dft_oracle(nc, nt, na):
    rng = np.random.default_rng(nc * 100 + nt * 10 + na)
    h = random_channel(rng, nc, nt)
    got = transform_values(h, na)
    want = reference_transform(h, na)
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


def test_single_delay_tone_concentrates_in_one_row():
    # A pure phase ramp of one cycle across 4 subcarriers is a path at
    # delay bin 1; the transform puts all energy there, scaled to 2.
    h = np.exp(-2j * np.pi * np.arange(4) / 4).reshape(4, 1)
    ha = transform_values(h, 4)
    assert np.abs(ha - np.array([[0], [2], [0], [0]])).max() < 1e-12


def test_size_one_transform_is_identity():
    h = np.array([[3.5 - 1.25j]])
    ha = transform_values(h, 1)
    assert np.abs(ha - h).max() < 1e-15


def test_zeros_map_to_zeros():
    assert not np.any(transform_values(np.zeros((16, 4)), 8))
    assert not np.any(inverse_transform_values(transform_values(np.zeros((16, 4)), 8), 16))


def test_untruncated_round_trip_and_parseval():
    rng = np.random.default_rng(7)
    h = random_channel(rng, 64, 8)
    ha = transform_values(h, 64)
    h_norm = np.linalg.norm(h)
    assert abs(np.linalg.norm(ha) - h_norm) / h_norm < 1e-10
    back = inverse_transform_values(ha, 64)
    assert np.linalg.norm(back - h) / h_norm < 1e-10


def test_linearity():
    rng = np.random.default_rng(21)
    h1, h2 = random_channel(rng, 32, 4), random_channel(rng, 32, 4)
    a, b = 1.7 - 0.3j, -0.4 + 2.2j
    combined = transform_values(a * h1 + b * h2, 12)
    separate = a * transform_values(h1, 12) + b * transform_values(h2, 12)
    assert np.abs(combined - separate).max() < 1e-10 * np.abs(separate).max()


def test_truncated_round_trip_for_band_limited_input():
    # A channel synthesized from delay content confined to the kept rows
    # loses nothing to truncation, so the round trip is tight both ways.
    rng = np.random.default_rng(3)
    nc, nt, na = 64, 4, 8
    rows = rng.standard_normal((na, nt)) + 1j * rng.standard_normal((na, nt))
    h = inverse_transform_values(rows, nc)
    ha = transform_values(h, na)
    assert np.linalg.norm(ha - rows) / np.linalg.norm(rows) < 1e-10
    again = transform_values(inverse_transform_values(ha, nc), na)
    assert np.linalg.norm(again - ha) / np.linalg.norm(ha) < 1e-10


def test_dataset_transform_matches_per_sample_loop():
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((5, 16, 4)) + 1j * rng.standard_normal((5, 16, 4))
    meta = Provenance(seed=4)
    ds = Dataset(samples, Domain.SPATIAL_FREQUENCY, meta)
    batch = transform_dataset(ds, 6)
    assert batch.domain is Domain.ANGULAR_DELAY
    assert batch.meta == meta
    for i in range(5):
        single = transform_values(samples[i], 6)
        assert np.array_equal(batch.samples[i], single)
    back = inverse_transform_dataset(batch, 16)
    assert back.domain is Domain.SPATIAL_FREQUENCY
    for i in range(5):
        single = inverse_transform_values(batch.samples[i], 16)
        assert np.array_equal(back.samples[i], single)
    # the inverse is a right inverse on the truncated domain, not on raw samples
    again = transform_dataset(back, 6)
    assert np.abs(again.samples - batch.samples).max() < 1e-10


def test_dataset_transform_checks_domain():
    ds = Dataset(np.zeros((1, 8, 2), dtype=complex), Domain.ANGULAR_DELAY)
    with pytest.raises(ValueError, match="domain"):
        transform_dataset(ds, 4)
    fwd = Dataset(np.zeros((1, 8, 2), dtype=complex), Domain.SPATIAL_FREQUENCY)
    with pytest.raises(ValueError, match="domain"):
        inverse_transform_dataset(fwd, 8)


def test_delay_bins_validation():
    # The one rule: delay rows are an integer from 1 to the subcarrier count.
    check_delay_bins(16, 16)
    for bad in (2.0, 16.7, True, 0):
        with pytest.raises(ValueError, match="delay_bins must be"):
            check_delay_bins(bad, 16)
        with pytest.raises(ValueError, match="subcarriers must be"):
            check_delay_bins(1, bad)
    freq = Dataset(np.zeros((1, 16, 4), dtype=complex), Domain.SPATIAL_FREQUENCY)
    assert transform_dataset(freq, 16).sample_shape == (16, 4)
    for bad in (8.0, True, 0):
        with pytest.raises(ValueError, match="delay_bins must be"):
            transform_dataset(freq, bad)
    with pytest.raises(ValueError, match=r"delay_bins \(17\) cannot exceed subcarriers \(16\)"):
        transform_dataset(freq, 17)
    ang = transform_dataset(freq, 8)
    assert inverse_transform_dataset(ang, 8).sample_shape == (8, 4)
    for bad in (16.0, True, 0):
        with pytest.raises(ValueError, match="subcarriers must be"):
            inverse_transform_dataset(ang, bad)
    with pytest.raises(ValueError, match=r"delay_bins \(8\) cannot exceed subcarriers \(7\)"):
        inverse_transform_dataset(ang, 7)
