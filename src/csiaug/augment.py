"""Amplitude-domain augmentations for angular-delay CSI matrices.

Three families:

* Bubble shift (up/down): per column, circularly shift the amplitude
  profile toward shorter or longer delay, one step at a time, repairing
  the wrapped element after each step with a bubble pass so the profile
  keeps its decaying shape around the peak.  Deterministic, and a pure
  permutation of each column's values.  One array kernel steps every
  column of a batch at once (a masked roll, then a masked compare-and-
  swap walk); ``tests/test_augment.py`` keeps the list form as reference.
* Random block regeneration: redraw a small square block, centred on a
  random column of the strongest row, uniformly between the matrix's
  min and max.
* Cyclic-shift baseline: plain circular shift of the amplitude plus a
  fully randomized phase matrix.  This reimplements (approximately) the
  model-driven scheme the bubble shifts are compared against; unlike
  them it destroys the phase structure.

All of these leave the complex samples' phase untouched except the
baseline.  A public function judges and copies its input for its method's
kernel, which a dataset pass runs once per chunk.  Matrix k of a batch, or
sample k of a pass, draws from random stream ``(seed, k)`` (see
:mod:`csiaug.rng`), so any sample's result can be reproduced in isolation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from csiaug.core import (
    AugmentationRecord,
    AugmentMethod,
    AugmentMode,
    AugmentParams,
    Dataset,
    Domain,
    ShiftDirection,
    _check_amplitude,
    _param_field,
    _stream,
    _Stream,
    combine_polar,
    polar_parts,
)
from csiaug.rng import RNG_SCHEME, check_int, make_generator


def _bubble_shift(amp: np.ndarray, shift: int, up: bool) -> np.ndarray:
    """Either bubble shift on every column of a judged (..., rows, cols) batch at once.

    A column takes ``min(shift, room)`` steps, room counted from its first
    maximum.  Each step rolls the stepping columns one row, then walks a
    masked compare-and-swap up from the bottom row that a column leaves
    at its first failed compare.  Must match, bitwise, the list kernels
    kept in ``tests/test_augment.py``.
    """
    rows = amp.shape[-2]
    peak = np.argmax(amp, axis=-2)
    steps = np.minimum(shift, peak if up else rows - 1 - peak)
    for step in range(int(steps.max(initial=0))):
        moving = steps > step
        # Up wraps the top value to the bottom; down wraps the bottom to the top.
        amp = np.where(moving[..., None, :], np.roll(amp, -1 if up else 1, axis=-2), amp)
        for k in range(rows - 1, 0, -1):
            # Up trades row k with the row above while the wrapped value beats
            # it.  Down trades row k into the top slot while top < row k < row
            # 1; the top is re-read each time, so the fence rises as it fills.
            cur = amp[..., k, :]
            j = k - 1 if up else 0
            moving &= amp[..., j, :] < cur
            if not up:
                moving &= cur < amp[..., 1, :]
            if not moving.any():
                break
            climbed = np.where(moving, cur, amp[..., j, :])
            amp[..., k, :] = np.where(moving, amp[..., j, :], cur)
            amp[..., j, :] = climbed
    return amp


def bubble_shift_up(amplitude: np.ndarray, shift: int) -> np.ndarray:
    """Shift each column's profile toward delay 0, at most ``shift`` steps.

    Per column: the number of steps is capped at the peak's row index,
    so the peak never wraps past the top.  Each step is a one-row
    circular shift up followed by a bubble pass that floats the wrapped
    value to its ordered place.  The result is a permutation of each
    column's values (bitwise), and the phase is not involved at all.
    ``amplitude`` is one (rows, cols) matrix or a (..., rows, cols)
    batch; every matrix is shifted on its own, all columns in one pass.
    """
    return _bubble_shift(_check_amplitude(amplitude), check_int(shift, "shift", 0), up=True)


def bubble_shift_down(amplitude: np.ndarray, shift: int) -> np.ndarray:
    """Shift each column's profile toward longer delay, at most ``shift`` steps.

    Mirror image of :func:`bubble_shift_up`: steps are capped at the
    distance from the peak to the bottom row, and after each one-row
    circular shift down the repair pass re-seats values that landed
    between the top entry and the runner-up slot.  Accepts the same
    matrix or batch shapes.
    """
    return _bubble_shift(_check_amplitude(amplitude), check_int(shift, "shift", 0), up=False)


def random_generation(amplitude: np.ndarray, block_size: int, seed: int) -> np.ndarray:
    """Redraw a square block of the amplitude matrix uniformly at random.

    The block nominally spans ``block_size`` rows and columns, centred
    on the row of the global maximum (first occurrence) and a column
    drawn uniformly at random; for even sizes the centre sits
    ``(block_size-1)//2`` cells from the block's leading edge.  The
    block is clipped at the matrix edges, never wrapped.  Redrawn
    entries are i.i.d. uniform between the matrix's global min and max
    (computed before any redraw); everything outside the clipped block
    is left bit-identical.  ``amplitude`` is one (rows, cols) matrix or
    a (..., rows, cols) batch; matrix k of the flattened batch draws its
    centre column and then its block from stream ``(seed, k)``.
    """
    amp = _check_amplitude(amplitude)
    return _random_generation(amp, check_int(block_size, "block size", 1), seed, 0)


def _random_generation(amp: np.ndarray, block_size: int, seed: int, first: int) -> np.ndarray:
    """:func:`random_generation` of a judged batch whose matrix k is sample ``first + k``."""
    amp = np.ascontiguousarray(amp)  # so each matrix below is a view to redraw in
    before = (block_size - 1) // 2
    rows, cols = amp.shape[-2:]
    for k, matrix in enumerate(amp.reshape(-1, rows, cols)):
        peak_row = int(np.argmax(matrix)) // cols
        low, high = float(np.min(matrix)), float(np.max(matrix))
        rng = make_generator(seed, first + k)
        centre_col = int(rng.integers(0, cols))
        r0 = max(peak_row - before, 0)
        r1 = min(peak_row - before + block_size, rows)
        c0 = max(centre_col - before, 0)
        c1 = min(centre_col - before + block_size, cols)
        matrix[r0:r1, c0:c1] = rng.uniform(low, high, size=(r1 - r0, c1 - c0))
    return amp


def md_baseline(
    amplitude: np.ndarray, shift: int, direction: ShiftDirection, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic-shift baseline: rigid column shift, phase fully redrawn.

    The amplitude columns are circularly shifted ``shift`` rows in the
    given direction with no repair pass; the new phase is i.i.d. uniform
    on [-pi, pi), so the input phase plays no part.  ``amplitude`` is one
    (rows, cols) matrix or a (..., rows, cols) batch; matrix k of the
    flattened batch draws its phase from stream ``(seed, k)``.
    """
    amp, shift = _check_amplitude(amplitude), check_int(shift, "shift", 0)
    if not isinstance(direction, ShiftDirection):
        raise TypeError("direction must be a ShiftDirection")
    return _md_baseline(amp, shift, direction, seed, 0)


def _md_baseline(
    amp: np.ndarray, shift: int, direction: ShiftDirection, seed: int, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`md_baseline` of a judged batch whose matrix k is sample ``first + k``."""
    new_phase = np.empty(amp.shape)  # C-ordered, so each matrix below is a view
    for k, matrix in enumerate(new_phase.reshape(-1, *amp.shape[-2:])):
        matrix[...] = make_generator(seed, first + k).uniform(-np.pi, np.pi, size=matrix.shape)
    return np.roll(amp, -shift if direction is ShiftDirection.UP else shift, axis=-2), new_phase


def _augment_samples(samples: np.ndarray, params: AugmentParams, first: int) -> np.ndarray:
    """Augmented copy of a dataset's (count, rows, cols) samples from ``first`` on.

    The batch is split into polar form, passed through the method's kernel
    and recomposed once, sample ``i`` drawing from stream ``(params.seed, i)``.
    Flags and samples come judged, each entry's modulus finite.
    """
    amplitude, phase = polar_parts(samples)
    if params.method is AugmentMethod.BUBBLE_SHIFT_UP:
        amplitude = _bubble_shift(amplitude, params.shift, up=True)
    elif params.method is AugmentMethod.BUBBLE_SHIFT_DOWN:
        amplitude = _bubble_shift(amplitude, params.shift, up=False)
    elif params.method is AugmentMethod.RANDOM_GENERATION:
        amplitude = _random_generation(amplitude, params.block_size, params.seed, first)
    else:  # AugmentMethod.MODEL_DRIVEN, the last of the closed enum
        amplitude, phase = _md_baseline(
            amplitude, params.shift, params.direction, params.seed, first)
    return combine_polar(amplitude, phase)


def _record(params: AugmentParams, mode: AugmentMode) -> AugmentationRecord:
    used = _param_field(params.method)
    parameters: dict[str, object] = {"mode": mode.value, used: getattr(params, used)}
    if params.method is AugmentMethod.MODEL_DRIVEN:
        parameters["direction"] = params.direction.value
    return AugmentationRecord(
        method=params.method.value, parameters=parameters, seed=params.seed, rng=RNG_SCHEME
    )


def _augmented(source: _Stream, params: AugmentParams, mode: AugmentMode) -> _Stream:
    """``source`` augmented in ``mode``, judged from its fields first.

    The stream serves APPEND's originals as ``source`` serves them, then
    ``source``'s chunks once more, each augmented as it is served, so it
    holds a few chunks whatever the count.  A source read from a file
    serves its payload from the start on each call.
    """
    if source.domain is not Domain.ANGULAR_DELAY:
        raise ValueError(
            f"augmentation expects angular-delay samples, got domain {source.domain.value}"
        )
    if not isinstance(mode, AugmentMode):
        raise TypeError("mode must be an AugmentMode")

    def chunks(step: int) -> Iterator[np.ndarray]:
        if mode is AugmentMode.APPEND:
            yield from source.chunks(step)
        for span, chunk in source.spans(step):
            yield _augment_samples(chunk, params, span.start)

    count = 2 * source.count if mode is AugmentMode.APPEND else source.count
    meta = source.meta.with_augmentation(_record(params, mode))
    return source._replace(count=count, meta=meta, chunks=chunks)


def augment_dataset(
    dataset: Dataset, params: AugmentParams, mode: AugmentMode = AugmentMode.APPEND
) -> Dataset:
    """Augment every sample of an angular-delay dataset.

    Sample ``i`` of a seeded method draws from stream
    ``(params.seed, i)``, so output is reproducible sample by sample.  APPEND keeps
    the originals and adds the augmented copies after them, doubling the
    sample count; REPLACE keeps only the augmented copies.
    The provenance chain gains one record either way.
    """
    return _augmented(_stream(dataset), params, mode).collect()
