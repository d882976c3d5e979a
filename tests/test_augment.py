"""Tests for the amplitude-domain augmentations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csiaug import augment as augment_module
from csiaug import core
from csiaug.augment import (
    augment_dataset,
    bubble_shift_down,
    bubble_shift_up,
    md_baseline,
    random_generation,
)
from csiaug.core import (
    AngularDelayMatrix,
    AugmentMethod,
    AugmentMode,
    AugmentParams,
    Dataset,
    Domain,
    Provenance,
    ShiftDirection,
    combine_polar,
    decompose,
    polar_parts,
    recompose,
)
from csiaug.rng import make_generator


def column(values):
    return np.array(values, dtype=np.float64).reshape(-1, 1)


# Frozen single-column traces, worked out by hand.  The first pair pins
# the one-step behaviour around a peak; the rest exercise multi-step
# shifts, multi-swap repair passes, and steps where no repair fires.
UP_TRACES = [
    ([0.2, 0.9, 0.5, 0.1], 1, [0.9, 0.5, 0.2, 0.1]),
    ([0.3, 0.2, 0.9, 0.1, 0.5], 2, [0.9, 0.1, 0.5, 0.3, 0.2]),
    ([0.5, 0.9, 0.2, 0.3, 0.4], 1, [0.9, 0.5, 0.2, 0.3, 0.4]),
]
DOWN_TRACES = [
    ([0.9, 0.5, 0.2, 0.1], 1, [0.5, 0.9, 0.2, 0.1]),
    ([0.1, 0.8, 0.6, 0.3, 0.2], 2, [0.3, 0.2, 0.1, 0.8, 0.6]),
    ([0.9, 0.5, 0.4, 0.3, 0.1], 1, [0.5, 0.9, 0.4, 0.3, 0.1]),
]


@pytest.mark.parametrize("before,shift,after", UP_TRACES)
def test_shift_up_hand_traces(before, shift, after):
    assert bubble_shift_up(column(before), shift)[:, 0].tolist() == after


@pytest.mark.parametrize("before,shift,after", DOWN_TRACES)
def test_shift_down_hand_traces(before, shift, after):
    assert bubble_shift_down(column(before), shift)[:, 0].tolist() == after


def insertion_oracle_up(values, shift):
    """Reference for the up shift built on insertion position, not swaps.

    Per step the wrapped top value climbs from the bottom until blocked
    by an entry at least as large, i.e. it lands right below the lowest
    such blocker.
    """
    vals = list(values)
    peak = vals.index(max(vals))
    for _ in range(min(shift, peak)):
        wrapped, rest = vals[0], vals[1:]
        blockers = [p for p in range(len(rest)) if rest[p] >= wrapped]
        pos = blockers[-1] + 1 if blockers else 0
        vals = rest[:pos] + [wrapped] + rest[pos:]
    return vals


@given(
    st.lists(st.floats(0.0, 1.0, width=64), min_size=1, max_size=12),
    st.integers(0, 13),
)
def test_shift_up_matches_insertion_oracle(values, shift):
    got = bubble_shift_up(column(values), shift)[:, 0].tolist()
    assert got == insertion_oracle_up(values, shift)


# The list kernels the array kernel replaced, kept verbatim as the
# reference: one column as a Python list, shifted in place.
def _bubble_up_column(col: list[float], shift: int) -> None:
    n = len(col)
    peak = max(range(n), key=col.__getitem__)
    for _ in range(min(shift, peak)):
        # One step up; the old top value wraps to the bottom.
        col.append(col.pop(0))
        # Let the wrapped value climb while it beats the one above it.
        k = n - 1
        while k >= 1 and col[k] > col[k - 1]:
            col[k], col[k - 1] = col[k - 1], col[k]
            k -= 1


def _bubble_down_column(col: list[float], shift: int) -> None:
    n = len(col)
    peak = max(range(n), key=col.__getitem__)
    for _ in range(min(shift, n - 1 - peak)):
        # One step down; the old bottom value wraps to the top.
        col.insert(0, col.pop())
        # Walk up from the bottom, trading values into the top slot while
        # they would sit between the current top two entries.  The top
        # slot is re-read each swap, so the fence rises as repairs land.
        k = n - 1
        while k >= 1 and col[0] < col[k] < col[1]:
            col[k], col[0] = col[0], col[k]
            k -= 1


def list_kernel_reference(amp, shift, column_pass):
    """``column_pass`` applied to every column of every matrix of a batch."""
    out = np.array(amp, dtype=np.float64)
    rows, cols = out.shape[-2:]
    for matrix in out.reshape(-1, rows, cols):
        columns = matrix.T.tolist()
        for col in columns:
            column_pass(col, shift)
        matrix.T[...] = columns
    return out


# 2-D matrices and (k, rows, cols) batches, k = 0 included; half of the
# entries come from a four-value set, so ties and zeros are common.
oracle_inputs = st.tuples(
    st.lists(st.integers(0, 3), max_size=1), st.integers(1, 10), st.integers(1, 5)
).flatmap(
    lambda t: arrays(
        np.float64,
        (*t[0], t[1], t[2]),
        elements=st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
    )
)


@settings(max_examples=300, deadline=None)
@given(oracle_inputs, st.integers(0, 12))
@example(np.zeros((0, 4, 3)), 2)
@example(np.array([[0.5, 0.0, 1.0]]), 3)
@example(np.array([[0.25, 0.5, 1.0, 0.5]]).T, 3)
@example(np.array([[[0.0], [1.0], [0.5], [0.25], [0.5]]] * 2), 4)
def test_bubble_shifts_match_list_kernel_reference(amp, shift):
    for fn, column_pass in (
        (bubble_shift_up, _bubble_up_column),
        (bubble_shift_down, _bubble_down_column),
    ):
        got = fn(amp, shift)
        want = list_kernel_reference(amp, shift, column_pass)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


amplitude_matrices = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.tuples(
        st.just(seed), st.integers(1, 10), st.integers(1, 6)
    )
).map(
    lambda t: np.random.default_rng(t[0]).uniform(0.0, 1.0, size=(t[1], t[2]))
)


@given(amplitude_matrices, st.integers(0, 12))
def test_shifts_permute_each_column_bitwise(amp, shift):
    for shifted in (bubble_shift_up(amp, shift), bubble_shift_down(amp, shift)):
        assert np.array_equal(np.sort(shifted, axis=0), np.sort(amp, axis=0))


@given(amplitude_matrices, st.integers(0, 12))
def test_shift_moves_peak_by_capped_amount(amp, shift):
    rows = amp.shape[0]
    peak = np.argmax(amp, axis=0)
    up = np.argmax(bubble_shift_up(amp, shift), axis=0)
    down = np.argmax(bubble_shift_down(amp, shift), axis=0)
    assert np.array_equal(up, peak - np.minimum(shift, peak))
    assert np.array_equal(down, peak + np.minimum(shift, rows - 1 - peak))


@given(amplitude_matrices, st.integers(0, 5))
def test_shift_saturates_at_row_count(amp, extra):
    rows = amp.shape[0]
    assert np.array_equal(
        bubble_shift_up(amp, rows - 1 + extra), bubble_shift_up(amp, rows - 1)
    )
    assert np.array_equal(
        bubble_shift_down(amp, rows - 1 + extra), bubble_shift_down(amp, rows - 1)
    )


def test_shift_zero_is_identity():
    amp = np.random.default_rng(0).uniform(0, 1, (6, 3))
    assert np.array_equal(bubble_shift_up(amp, 0), amp)
    assert np.array_equal(bubble_shift_down(amp, 0), amp)


def test_shift_input_not_mutated():
    amp = np.random.default_rng(1).uniform(0, 1, (6, 3))
    copy = amp.copy()
    bubble_shift_up(amp, 2)
    bubble_shift_down(amp, 2)
    assert np.array_equal(amp, copy)


def test_amplitude_validation():
    with pytest.raises(ValueError, match="2-D"):
        bubble_shift_up(np.ones(4), 1)
    with pytest.raises(ValueError, match="finite"):
        bubble_shift_up(np.array([[np.nan], [1.0]]), 1)
    with pytest.raises(ValueError, match="non-negative"):
        bubble_shift_down(np.array([[-0.1], [1.0]]), 1)
    with pytest.raises(ValueError, match="shift"):
        bubble_shift_down(np.ones((2, 2)), -1)
    # Complex input is rejected, not cast to its real part.
    complex_amp = np.array([[1 + 5j, 0.1], [3 - 1j, 0.2]])
    for call in (
        lambda: bubble_shift_up(complex_amp, 1),
        lambda: bubble_shift_down(complex_amp.tolist(), 1),
        lambda: random_generation(complex_amp, 2, seed=0),
        lambda: md_baseline(complex_amp, 1, ShiftDirection.UP, seed=0),
    ):
        with pytest.raises(ValueError, match="amplitude must be real"):
            call()
    # Shift and block size must be integers, not truncated floats or bools.
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError, match="shift must be an integer"):
            bubble_shift_up(np.ones((2, 2)), bad)
        with pytest.raises(ValueError, match="block size must be an integer"):
            random_generation(np.ones((2, 2)), bad, seed=0)


def test_random_generation_deterministic_and_local():
    rng = np.random.default_rng(5)
    amp = rng.uniform(0, 1, (16, 16))
    out1 = random_generation(amp, 4, seed=99)
    out2 = random_generation(amp, 4, seed=99)
    assert np.array_equal(out1, out2)
    assert not np.array_equal(out1, random_generation(amp, 4, seed=100))

    changed = np.argwhere(out1 != amp)
    assert changed.size > 0
    rows_hit = np.unique(changed[:, 0])
    cols_hit = np.unique(changed[:, 1])
    peak_row = int(np.argmax(amp)) // amp.shape[1]
    lo_row = max(peak_row - 1, 0)
    assert rows_hit.min() >= lo_row and rows_hit.max() < lo_row + 4
    assert cols_hit.max() - cols_hit.min() < 4
    assert out1[changed[:, 0], changed[:, 1]].min() >= amp.min()
    assert out1[changed[:, 0], changed[:, 1]].max() <= amp.max()


def test_random_generation_clips_at_edges():
    # peak in the last row: the block must clip at the bottom, not wrap.
    amp = np.random.default_rng(3).uniform(0, 0.5, (8, 8))
    amp[7, 2] = 1.0
    for seed in range(10):
        out = random_generation(amp, 3, seed=seed)
        changed = np.argwhere(out != amp)
        if changed.size:
            assert changed[:, 0].min() >= 6  # rows 6..7 only


def test_random_generation_constant_matrix_is_noop():
    amp = np.full((5, 5), 0.7)
    assert np.array_equal(random_generation(amp, 3, seed=1), amp)


def test_random_generation_block_bigger_than_matrix():
    amp = np.random.default_rng(4).uniform(0, 1, (3, 3))
    out = random_generation(amp, 6, seed=0)
    assert out.shape == amp.shape
    assert out.min() >= amp.min() and out.max() <= amp.max()


def test_random_generation_validation():
    with pytest.raises(ValueError, match="block size"):
        random_generation(np.ones((4, 4)), 0, seed=0)


def test_md_baseline_shifts_and_randomizes_phase():
    rng = np.random.default_rng(6)
    amp = rng.uniform(0, 1, (8, 4))
    phase = rng.uniform(-np.pi, np.pi, (8, 4))
    up_amp, up_phase = md_baseline(amp, 2, ShiftDirection.UP, seed=11)
    down_amp, down_phase = md_baseline(amp, 2, ShiftDirection.DOWN, seed=11)
    assert np.array_equal(up_amp, np.roll(amp, -2, axis=0))
    assert np.array_equal(down_amp, np.roll(amp, 2, axis=0))
    # same seed, same redrawn phase; unrelated to the input phase
    assert np.array_equal(up_phase, down_phase)
    assert not np.array_equal(up_phase, phase)
    assert up_phase.min() >= -np.pi and up_phase.max() < np.pi
    again = md_baseline(amp, 2, ShiftDirection.UP, seed=11)
    assert np.array_equal(again[1], up_phase)


def test_md_baseline_validation():
    with pytest.raises(TypeError, match="direction"):
        md_baseline(np.ones((4, 2)), 1, "up", seed=0)


complex_samples = st.integers(0, 2**32 - 1).map(
    lambda seed: (
        lambda g: g.standard_normal((6, 4)) + 1j * g.standard_normal((6, 4))
    )(np.random.default_rng(seed))
)


def rg_reference(amp, block_size, seed, index):
    """Random generation of matrix ``index``, following the documented draw order."""
    amp = amp.copy()
    rows, cols = amp.shape
    peak_row = int(np.argmax(amp)) // cols
    rng = make_generator(seed, index)
    centre_col = int(rng.integers(0, cols))
    r0 = max(peak_row - (block_size - 1) // 2, 0)
    r1 = min(peak_row - (block_size - 1) // 2 + block_size, rows)
    c0 = max(centre_col - (block_size - 1) // 2, 0)
    c1 = min(centre_col - (block_size - 1) // 2 + block_size, cols)
    amp[r0:r1, c0:c1] = rng.uniform(amp.min(), amp.max(), size=(r1 - r0, c1 - c0))
    return amp


def md_reference(amp, shift, direction, seed, index):
    """Cyclic-shift baseline of matrix ``index``: rolled amplitude, redrawn phase."""
    offset = -shift if direction is ShiftDirection.UP else shift
    phase = make_generator(seed, index).uniform(-np.pi, np.pi, size=amp.shape)
    return np.roll(amp, offset, axis=0), phase


def per_sample_reference(values, params, index):
    """Sample ``index`` of an augmentation pass: the 2-D bubble shifts, or
    the seeded methods evaluated on stream ``(params.seed, index)``."""
    amp, phase = decompose(AngularDelayMatrix(values))
    if params.method is AugmentMethod.BUBBLE_SHIFT_UP:
        amp = bubble_shift_up(amp, params.shift)
    elif params.method is AugmentMethod.BUBBLE_SHIFT_DOWN:
        amp = bubble_shift_down(amp, params.shift)
    elif params.method is AugmentMethod.RANDOM_GENERATION:
        amp = rg_reference(amp, params.block_size, params.seed, index)
    else:
        amp, phase = md_reference(amp, params.shift, params.direction, params.seed, index)
    return recompose(amp, phase).values


def batch_primitive(samples, params):
    """One pass of the batch primitive over ``polar_parts(samples)``."""
    amp, phase = polar_parts(samples)
    if params.method is AugmentMethod.BUBBLE_SHIFT_UP:
        amp = bubble_shift_up(amp, params.shift)
    elif params.method is AugmentMethod.BUBBLE_SHIFT_DOWN:
        amp = bubble_shift_down(amp, params.shift)
    elif params.method is AugmentMethod.RANDOM_GENERATION:
        amp = random_generation(amp, params.block_size, params.seed)
    else:
        amp, phase = md_baseline(amp, params.shift, params.direction, params.seed)
    return combine_polar(amp, phase)


def layouts(amp):
    """``amp`` in C order, in Fortran order, and as a view with swapped leading axes."""
    swapped = np.ascontiguousarray(np.swapaxes(amp, 0, 1)).swapaxes(0, 1)
    return [amp, np.asfortranarray(amp), swapped]


def test_random_generation_takes_batches_matrix_k_on_stream_k():
    # Matrix k of a flattened (2, 3, rows, cols) batch draws from stream
    # (seed, k), whatever the memory layout of the batch.
    amp = np.random.default_rng(9).uniform(0, 1, (2, 3, 7, 5))
    want = np.array([rg_reference(a, 3, 41, k) for k, a in enumerate(amp.reshape(-1, 7, 5))])
    want = want.reshape(amp.shape)
    for batch in layouts(amp):
        got = random_generation(batch, 3, seed=41)
        assert got.shape == amp.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(batch, amp)
    assert random_generation(amp[0, 0], 3, seed=41).tobytes() == want[0, 0].tobytes()


def test_md_baseline_takes_batches_matrix_k_on_stream_k():
    # Matrix k of a flattened (2, 3, rows, cols) batch is rolled on its own
    # and draws its new phase from stream (seed, k); no input phase is read.
    amp = np.random.default_rng(11).uniform(0, 1, (2, 3, 8, 4))
    shifted, phase = md_baseline(amp, 3, ShiftDirection.DOWN, seed=13)
    assert shifted.shape == phase.shape == amp.shape
    for k, a in enumerate(amp.reshape(-1, 8, 4)):
        want = md_reference(a, 3, ShiftDirection.DOWN, 13, k)
        assert shifted.reshape(-1, 8, 4)[k].tobytes() == want[0].tobytes()
        assert phase.reshape(-1, 8, 4)[k].tobytes() == want[1].tobytes()
    single = md_baseline(amp[0, 0], 3, ShiftDirection.DOWN, seed=13)
    assert single[0].tobytes() == shifted[0, 0].tobytes()
    assert single[1].tobytes() == phase[0, 0].tobytes()


def test_md_baseline_batch_layout_does_not_matter():
    amp = np.random.default_rng(10).uniform(0, 1, (2, 3, 8, 4))
    want = md_baseline(amp, 1, ShiftDirection.UP, seed=12)
    for batch in layouts(amp)[1:]:
        assert not batch.flags.c_contiguous
        got = md_baseline(batch, 1, ShiftDirection.UP, seed=12)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert got[1].min() >= -np.pi and got[1].max() < np.pi


def one_sample(values):
    return Dataset(values[None], Domain.ANGULAR_DELAY)


@given(complex_samples, st.integers(0, 4))
def test_augment_dataset_preserves_phase_for_bubble_shifts(values, shift):
    amp, phase = polar_parts(values)
    for method, fn in (
        (AugmentMethod.BUBBLE_SHIFT_UP, bubble_shift_up),
        (AugmentMethod.BUBBLE_SHIFT_DOWN, bubble_shift_down),
    ):
        params = AugmentParams(method=method, shift=shift, seed=0)
        got = augment_dataset(one_sample(values), params, AugmentMode.REPLACE).samples[0]
        assert np.array_equal(got, combine_polar(fn(amp, shift), phase))


@given(complex_samples, st.integers(0, 4))
def test_augment_dataset_preserves_amplitude_multiset(values, shift):
    params = AugmentParams(method=AugmentMethod.BUBBLE_SHIFT_DOWN, shift=shift, seed=0)
    got = augment_dataset(one_sample(values), params, AugmentMode.REPLACE).samples[0]
    tol = 1e-12 * (1.0 + np.abs(values).max())
    assert np.allclose(
        np.sort(np.abs(got), axis=0), np.sort(np.abs(values), axis=0), atol=tol, rtol=0
    )


def make_dataset(count=5, rows=6, cols=4, seed=13):
    g = np.random.default_rng(seed)
    samples = g.standard_normal((count, rows, cols)) + 1j * g.standard_normal(
        (count, rows, cols)
    )
    return Dataset(samples, Domain.ANGULAR_DELAY, Provenance(seed=1))


def pass_params(shift, block_size, seed):
    """One pass of every method, md in both directions."""
    return [
        AugmentParams(method=AugmentMethod.BUBBLE_SHIFT_UP, shift=shift, seed=seed),
        AugmentParams(method=AugmentMethod.BUBBLE_SHIFT_DOWN, shift=shift, seed=seed),
        AugmentParams(method=AugmentMethod.RANDOM_GENERATION, block_size=block_size, seed=seed),
        AugmentParams(
            method=AugmentMethod.MODEL_DRIVEN, shift=shift, seed=seed, direction=ShiftDirection.UP
        ),
        AugmentParams(
            method=AugmentMethod.MODEL_DRIVEN,
            shift=shift,
            seed=seed,
            direction=ShiftDirection.DOWN,
        ),
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 5),
    st.integers(1, 8),
    st.integers(1, 5),
    st.integers(0, 9),
    st.integers(1, 4),
    st.booleans(),
)
def test_augment_dataset_matches_per_sample_primitives(
    data_seed, count, rows, cols, shift, block_size, coarse
):
    # The batch pass must equal, bitwise, the batch primitives applied to
    # the polar parts, and sample i must equal the per-sample reference on
    # stream (seed, i).  Coarse values add ties and exact zeros.
    ds = make_dataset(count, rows, cols, data_seed)
    if coarse:
        ds = Dataset(np.round(ds.samples, 0), Domain.ANGULAR_DELAY, ds.meta)
    for params in pass_params(shift, block_size, seed=data_seed):
        expect = np.array(
            [per_sample_reference(v, params, i) for i, v in enumerate(ds.samples)],
            dtype=np.complex128,
        ).reshape(ds.samples.shape)
        assert batch_primitive(ds.samples, params).tobytes() == expect.tobytes()
        appended = augment_dataset(ds, params, AugmentMode.APPEND)
        assert appended.samples[:count].tobytes() == ds.samples.tobytes()
        assert appended.samples[count:].tobytes() == expect.tobytes()
        replaced = augment_dataset(ds, params, AugmentMode.REPLACE)
        assert replaced.samples.tobytes() == expect.tobytes()

    amp = np.abs(ds.samples).reshape(1, count, rows, cols)
    for fn in (bubble_shift_up, bubble_shift_down):
        stacked = np.array([fn(a, shift) for a in amp[0]]).reshape(amp.shape)
        assert fn(amp, shift).tobytes() == stacked.tobytes()
        assert fn(amp[0], shift).tobytes() == stacked[0].tobytes()
    # A leading batch axis flattens in C order: matrix k uses stream (seed, k).
    shifted, phase = md_baseline(amp, shift, ShiftDirection.DOWN, data_seed)
    for k, a in enumerate(amp[0]):
        want = md_reference(a, shift, ShiftDirection.DOWN, data_seed, k)
        assert shifted[0, k].tobytes() == want[0].tobytes()
        assert phase[0, k].tobytes() == want[1].tobytes()


def test_seeded_sample_ignores_the_rest_of_the_batch():
    # Sample k's draws come from stream (seed, k) alone, so changing every
    # other sample of the batch leaves sample k's output unchanged.
    ds = make_dataset(count=6, seed=3)
    other = make_dataset(count=6, seed=4).samples.copy()
    other[2] = ds.samples[2]
    mixed = Dataset(other, Domain.ANGULAR_DELAY, ds.meta)
    for params in pass_params(shift=2, block_size=3, seed=17)[2:]:
        a = augment_dataset(ds, params, AugmentMode.REPLACE).samples
        b = augment_dataset(mixed, params, AugmentMode.REPLACE).samples
        assert a[2].tobytes() == b[2].tobytes()
        assert a[2].tobytes() == augment_dataset(
            Dataset(ds.samples[:3], Domain.ANGULAR_DELAY), params, AugmentMode.REPLACE
        ).samples[2].tobytes()


def counting_check(monkeypatch):
    """The amplitudes ``augment``'s ``_check_amplitude`` judges from here on."""
    judged, check = [], augment_module._check_amplitude
    monkeypatch.setattr(augment_module, "_check_amplitude",
                        lambda amp: judged.append(amp) or check(amp))
    return judged


@pytest.mark.parametrize("params", pass_params(shift=2, block_size=3, seed=17)[:4],
                         ids=["bs-up", "bs-down", "rg", "md"])
def test_a_pass_hands_each_chunk_to_the_kernel_unjudged(monkeypatch, params):
    # Params judged the flags and the stream serves finite samples, so no
    # chunk's fresh amplitude is copied and judged by _check_amplitude again;
    # sample i still draws from stream (seed, i) whatever chunk it lands in.
    ds = make_dataset(count=7, seed=5)
    whole = augment_dataset(ds, params, AugmentMode.REPLACE).samples
    judged, chunks, augment = counting_check(monkeypatch), [], augment_module._augment_samples
    monkeypatch.setattr(augment_module, "_augment_samples",
                        lambda batch, *rest: chunks.append(len(batch)) or augment(batch, *rest))
    monkeypatch.setattr(core, "_CHUNK_BYTES", 3 * 16 * 6 * 4)  # 3 samples of 6 x 4
    chunked = augment_dataset(ds, params, AugmentMode.REPLACE).samples
    assert chunks == [3, 3, 1] and judged == []
    assert chunked.tobytes() == whole.tobytes()
    expect = [per_sample_reference(v, params, i) for i, v in enumerate(ds.samples)]
    assert chunked.tobytes() == np.array(expect).tobytes()


def test_a_pass_rejects_a_finite_sample_whose_modulus_overflows():
    # Both parts are finite, but the modulus lies above the float64 range.  The
    # constructor rejects such a dataset, so no pass can be handed one.
    with pytest.raises(ValueError, match="dataset samples must have a modulus"):
        Dataset(np.full((2, 4, 3), 1.5e308 + 1.5e308j), Domain.ANGULAR_DELAY)


def test_a_direct_call_judges_its_amplitude_once(monkeypatch):
    judged = counting_check(monkeypatch)
    amp = np.abs(make_dataset(count=2).samples)
    random_generation(amp, 3, 17)
    assert len(judged) == 1
    md_baseline(amp, 1, ShiftDirection.DOWN, 17)
    assert len(judged) == 2
    for fn in (bubble_shift_up, bubble_shift_down):
        fn(amp, 1)
    assert len(judged) == 4


def test_augment_dataset_append_keeps_originals_first():
    ds = make_dataset()
    params = AugmentParams(method=AugmentMethod.BUBBLE_SHIFT_DOWN, shift=1, seed=21)
    out = augment_dataset(ds, params, mode=AugmentMode.APPEND)
    assert len(out) == 2 * len(ds)
    assert np.array_equal(out.samples[: len(ds)], ds.samples)
    for i in range(len(ds)):
        expect = per_sample_reference(ds.samples[i], params, i)
        assert np.array_equal(out.samples[len(ds) + i], expect)


def test_augment_dataset_replace_keeps_count():
    ds = make_dataset()
    params = AugmentParams(method=AugmentMethod.RANDOM_GENERATION, block_size=3, seed=8)
    out = augment_dataset(ds, params, mode=AugmentMode.REPLACE)
    assert len(out) == len(ds)
    for i in range(len(ds)):
        expect = per_sample_reference(ds.samples[i], params, i)
        assert np.array_equal(out.samples[i], expect)


def test_augment_dataset_records_provenance():
    ds = make_dataset()
    params = AugmentParams(
        method=AugmentMethod.MODEL_DRIVEN,
        shift=2,
        seed=5,
        direction=ShiftDirection.UP,
    )
    out = augment_dataset(ds, params, mode=AugmentMode.REPLACE)
    assert out.meta.seed == ds.meta.seed
    assert len(out.meta.augmentations) == 1
    rec = out.meta.augmentations[0]
    assert rec.method == "md"
    assert rec.seed == 5
    assert rec.parameters == {"mode": "replace", "shift": 2, "direction": "up"}


def test_augment_dataset_empty_and_domain_checks():
    empty = Dataset(
        np.zeros((0, 4, 2), dtype=np.complex128), Domain.ANGULAR_DELAY, Provenance(seed=0)
    )
    for params in pass_params(shift=1, block_size=2, seed=0):
        out = augment_dataset(empty, params, mode=AugmentMode.APPEND)
        assert len(out) == 0 and out.sample_shape == (4, 2)
        assert len(out.meta.augmentations) == 1

    wrong = Dataset(np.zeros((1, 4, 2), dtype=np.complex128), Domain.SPATIAL_FREQUENCY)
    with pytest.raises(ValueError, match="domain"):
        augment_dataset(wrong, params)
    with pytest.raises(TypeError, match="mode"):
        augment_dataset(empty, params, mode="append")


def test_zero_shift_replace_roundtrips_samples():
    ds = make_dataset()
    params = AugmentParams(method=AugmentMethod.BUBBLE_SHIFT_UP, shift=0, seed=0)
    out = augment_dataset(ds, params, mode=AugmentMode.REPLACE)
    tol = 1e-12 * (1.0 + np.abs(ds.samples).max())
    assert np.allclose(out.samples, ds.samples, atol=tol, rtol=0)
