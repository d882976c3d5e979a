import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csiaug.core import (
    AngularDelayMatrix,
    AugmentMethod,
    AugmentMode,
    AugmentParams,
    AugmentationRecord,
    Dataset,
    Domain,
    Provenance,
    ShiftDirection,
    decompose,
    recompose,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def complex_matrices(max_side=6):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return shapes.flatmap(
        lambda s: st.tuples(
            arrays(np.float64, s, elements=finite), arrays(np.float64, s, elements=finite)
        ).map(lambda parts: parts[0] + 1j * parts[1])
    )


def test_matrix_validation_rejects_bad_shapes():
    with pytest.raises(ValueError, match="2-D"):
        AngularDelayMatrix(np.zeros(4, dtype=complex))
    with pytest.raises(ValueError, match="2-D"):
        AngularDelayMatrix(np.zeros((1, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        AngularDelayMatrix(np.zeros((0, 3), dtype=complex))
    with pytest.raises(ValueError):
        AngularDelayMatrix(np.zeros((2, 0), dtype=complex))


def test_matrix_validation_rejects_non_finite():
    bad = np.array([[1.0, np.nan]], dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        AngularDelayMatrix(bad)
    with pytest.raises(ValueError, match="finite"):
        AngularDelayMatrix(np.array([[np.inf + 0j]]))


def test_constructors_reject_an_entry_whose_modulus_overflows():
    # Each part is finite, but |1.5e308 + 1.5e308j| lies above the float64 range.
    big = np.full((2, 2), 1.5e308 + 1.5e308j)
    with pytest.raises(ValueError, match="angular-delay matrix entries must have a modulus"):
        AngularDelayMatrix(big)
    with pytest.raises(ValueError, match="dataset samples must have a modulus"):
        Dataset(big[None], Domain.ANGULAR_DELAY)
    # Above the bound on the parts but with a modulus float64 holds: accepted,
    # and the polar split is finite.
    amplitude, _ = decompose(AngularDelayMatrix(np.full((2, 2), 1.3e308 + 1e308j)))
    assert np.all(np.isfinite(amplitude))
    Dataset(np.full((1, 2, 2), -1.7e308 + 0j), Domain.ANGULAR_DELAY)


def test_matrices_are_immutable_copies():
    src = np.ones((2, 2), dtype=complex)
    m = AngularDelayMatrix(src)
    src[0, 0] = 5.0
    assert m.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        m.values[0, 0] = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.values = src
    batch = np.ones((3, 2, 2), dtype=complex)
    ds = Dataset(batch, Domain.SPATIAL_FREQUENCY)
    batch[0, 0, 0] = 5.0
    assert ds.samples[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        ds.samples[0, 0, 0] = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.samples = batch


def test_matrix_dims_and_equality():
    a = AngularDelayMatrix(np.arange(6, dtype=float).reshape(2, 3) + 0j)
    assert (a.delay_bins, a.angle_bins) == (2, 3)
    assert a.shape == (2, 3)
    assert a == AngularDelayMatrix(a.values)
    assert a != AngularDelayMatrix(a.values + 1)
    assert a != AngularDelayMatrix(a.values.T)
    # different types never compare equal
    assert a != Dataset(a.values[None], Domain.ANGULAR_DELAY)


def test_decompose_zero_matrix():
    amp, phase = decompose(AngularDelayMatrix(np.zeros((2, 3), dtype=complex)))
    assert np.array_equal(amp, np.zeros((2, 3)))
    assert np.array_equal(phase, np.zeros((2, 3)))


def test_decompose_unit_and_pure_imaginary():
    amp, phase = decompose(AngularDelayMatrix(np.array([[1.0 + 0j]])))
    assert amp[0, 0] == 1.0 and phase[0, 0] == 0.0
    amp, phase = decompose(AngularDelayMatrix(np.array([[0.0 - 2.0j]])))
    assert amp[0, 0] == 2.0
    assert phase[0, 0] == pytest.approx(-np.pi / 2, abs=1e-15)


def test_decompose_folds_pi_into_range():
    # arg(-1) is pi on the boundary; the contract keeps phase in [-pi, pi)
    amp, phase = decompose(AngularDelayMatrix(np.array([[-1.0 + 0.0j], [-3.0 - 0.0j]])))
    assert np.all(phase == -np.pi)
    assert np.all(amp == [[1.0], [3.0]])


def test_recompose_examples():
    zero = recompose(np.zeros((2, 2)), np.full((2, 2), 1.3))
    assert np.array_equal(zero.values, np.zeros((2, 2), dtype=complex))
    neg = recompose(np.array([[2.0]]), np.array([[np.pi]]))
    assert abs(neg.values[0, 0] - (-2.0 + 0j)) < 1e-12


def test_recompose_validation():
    with pytest.raises(ValueError, match="shape"):
        recompose(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        recompose(np.array([[-0.5]]), np.array([[0.0]]))
    # The primitives take batches; a recomposed matrix stays 2-D.
    with pytest.raises(ValueError, match="2-D"):
        recompose(np.ones((2, 2, 2)), np.zeros((2, 2, 2)))
    # Complex input is rejected with the primitives' messages, not cast to real.
    with pytest.raises(ValueError, match="amplitude must be real"):
        recompose([[1 + 5j]], [[0.0]])
    with pytest.raises(ValueError, match="phase must be real"):
        recompose([[1.0]], np.array([[0.5j]]))


@settings(max_examples=200, deadline=None)
@given(complex_matrices())
def test_polar_round_trip(values):
    matrix = AngularDelayMatrix(values)
    amp, phase = decompose(matrix)
    assert np.all(amp >= 0.0)
    assert np.all((phase >= -np.pi) & (phase < np.pi))
    assert np.all(phase[amp == 0.0] == 0.0)
    back = recompose(amp, phase)
    tol = 1e-12 * (1.0 + np.abs(values).max())
    assert np.abs(back.values - values).max() < tol


def test_dataset_basics():
    samples = np.arange(12, dtype=float).reshape(3, 2, 2) + 0j
    ds = Dataset(samples, Domain.ANGULAR_DELAY)
    assert len(ds) == 3
    assert ds.sample_shape == (2, 2)
    assert np.array_equal(ds.samples[1], samples[1])
    stacked = np.stack(list(ds))
    assert np.array_equal(stacked, samples)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2), dtype=complex), Domain.ANGULAR_DELAY)
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 0, 2), dtype=complex), Domain.ANGULAR_DELAY)
    with pytest.raises(TypeError):
        Dataset(np.zeros((1, 2, 2), dtype=complex), "angular-delay")
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.full((1, 1, 1), np.nan, dtype=complex), Domain.ANGULAR_DELAY)


def test_dataset_equality_covers_domain_and_meta():
    samples = np.ones((2, 2, 2), dtype=complex)
    a = Dataset(samples, Domain.ANGULAR_DELAY)
    assert a == Dataset(samples, Domain.ANGULAR_DELAY)
    assert a != Dataset(samples, Domain.SPATIAL_FREQUENCY)
    tagged = Dataset(samples, Domain.ANGULAR_DELAY, Provenance(seed=9))
    assert a != tagged
    # Bitwise: a -0.0 in either part differs from 0.0; another shape differs too.
    zeros = np.zeros((2, 3, 2), dtype=complex)
    for part in ("real", "imag"):
        signed = zeros.copy()
        getattr(signed, part)[1, 2, 0] = -0.0
        assert Dataset(zeros, Domain.ANGULAR_DELAY) != Dataset(signed, Domain.ANGULAR_DELAY)
        assert AngularDelayMatrix(zeros[1]) != AngularDelayMatrix(signed[1])
        assert AngularDelayMatrix(signed[1]) == AngularDelayMatrix(signed[1].copy())
    assert Dataset(zeros, Domain.ANGULAR_DELAY) != Dataset(
        zeros.reshape(2, 2, 3), Domain.ANGULAR_DELAY
    )
    fortran = np.asfortranarray(np.arange(12.0).reshape(2, 3, 2) + 1j)
    assert Dataset(fortran, Domain.ANGULAR_DELAY) == Dataset(
        np.ascontiguousarray(fortran), Domain.ANGULAR_DELAY
    )


def test_empty_dataset_keeps_shape():
    ds = Dataset(np.zeros((0, 4, 2)), Domain.SPATIAL_FREQUENCY)
    assert len(ds) == 0
    assert ds.sample_shape == (4, 2)


def test_provenance_round_trip_and_chain():
    rec = AugmentationRecord("bs-up", {"shift": 2, "mode": "append"}, seed=7)
    meta = Provenance(scenario={"paths": 3}, seed=11).with_augmentation(rec)
    assert len(meta.augmentations) == 1
    again = Provenance.from_dict(meta.to_dict())
    assert again == meta
    # chain is append-only: with_augmentation returns a new record list
    longer = meta.with_augmentation(rec)
    assert len(meta.augmentations) == 1 and len(longer.augmentations) == 2


def test_augment_params_validation():
    AugmentParams(AugmentMethod.BUBBLE_SHIFT_UP, shift=0)
    AugmentParams(AugmentMethod.RANDOM_GENERATION, block_size=4, seed=3)
    with pytest.raises(ValueError, match="shift"):
        AugmentParams(AugmentMethod.BUBBLE_SHIFT_DOWN)
    with pytest.raises(ValueError, match="block"):
        AugmentParams(AugmentMethod.RANDOM_GENERATION)
    with pytest.raises(ValueError):
        AugmentParams(AugmentMethod.BUBBLE_SHIFT_UP, shift=-1)
    with pytest.raises(ValueError):
        AugmentParams(AugmentMethod.RANDOM_GENERATION, block_size=0)
    with pytest.raises(ValueError):
        AugmentParams(AugmentMethod.MODEL_DRIVEN, shift=1, seed=-5)
    with pytest.raises(TypeError):
        AugmentParams("bs-up", shift=1)
    with pytest.raises(TypeError, match="direction must be a ShiftDirection"):
        AugmentParams(AugmentMethod.MODEL_DRIVEN, shift=1, direction="up")
    with pytest.raises(ValueError, match="shift must be an integer"):
        AugmentParams(AugmentMethod.BUBBLE_SHIFT_UP, shift=1.5)
    with pytest.raises(ValueError, match="block size must be an integer"):
        AugmentParams(AugmentMethod.RANDOM_GENERATION, block_size=True)
    # A field the method does not use is still judged when it is given.
    with pytest.raises(ValueError, match="shift must be at least 0, got -1"):
        AugmentParams(AugmentMethod.RANDOM_GENERATION, block_size=4, shift=-1)
    with pytest.raises(ValueError, match="block size must be at least 1, got 0"):
        AugmentParams(AugmentMethod.BUBBLE_SHIFT_UP, shift=1, block_size=0)
    both = AugmentParams(AugmentMethod.MODEL_DRIVEN, shift=2, block_size=3)
    assert (both.shift, both.block_size) == (2, 3)


def test_enum_tokens_match_cli_surface():
    assert {m.value for m in AugmentMethod} == {"bs-up", "bs-down", "rg", "md"}
    assert {m.value for m in AugmentMode} == {"append", "replace"}
    assert {d.value for d in ShiftDirection} == {"up", "down"}
    assert {d.value for d in Domain} == {"spatial-frequency", "angular-delay"}
