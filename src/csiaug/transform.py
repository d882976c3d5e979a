"""Spatial-frequency <-> angular-delay transforms.

The angular-delay representation of a subcarriers x antennas channel
matrix ``H`` is ``F_delay @ H @ F_angle^H`` where both factors are
unitary DFT matrices; with the sign conventions used here that product
is exactly ``numpy.fft.ifft2(H, norm="ortho")``.  Channel energy beyond
the first few delay rows is negligible for band-limited multipath
channels, so the representation is truncated to the leading
``delay_bins`` rows; the inverse zero-pads the missing rows before
transforming back.

The row convention makes the delay axis physical: a path with delay of
``t`` subcarrier-sampling periods contributes a phase ramp
``exp(-2j pi n t / Nc)`` across subcarriers, which lands in delay row
``t`` (spread over neighbours when ``t`` is fractional).
"""

from __future__ import annotations

import numpy as np

from csiaug.core import Dataset, DftPlan, Domain


def transform_values(values: np.ndarray, plan: DftPlan) -> np.ndarray:
    """Raw-array forward transform; trailing two axes are (rows, cols).

    Transforms the long (subcarrier) axis first and truncates before
    touching the antenna axis; identical to ifft2 + row slice.
    """
    delay = np.fft.ifft(values, axis=-2, norm="ortho")[..., : plan.delay_bins, :]
    return np.fft.ifft(delay, axis=-1, norm="ortho")


def inverse_transform_values(values: np.ndarray, plan: DftPlan) -> np.ndarray:
    """Raw-array inverse transform; zero-pads the delay axis back to full size."""
    angle = np.fft.fft(values, axis=-1, norm="ortho")
    pad = [(0, 0)] * (values.ndim - 2) + [(0, plan.subcarriers - plan.delay_bins), (0, 0)]
    return np.fft.fft(np.pad(angle, pad), axis=-2, norm="ortho")


def transform_dataset(dataset: Dataset, plan: DftPlan) -> Dataset:
    """Transform every sample of a dataset, keeping the leading delay rows."""
    if dataset.domain is not Domain.SPATIAL_FREQUENCY:
        raise ValueError(f"dataset is already in domain {dataset.domain.value}")
    if dataset.sample_shape != (plan.subcarriers, plan.antennas):
        raise ValueError(
            f"sample shape {dataset.sample_shape} does not match plan "
            f"({plan.subcarriers}, {plan.antennas})"
        )
    return Dataset(transform_values(dataset.samples, plan), Domain.ANGULAR_DELAY, dataset.meta)


def inverse_transform_dataset(dataset: Dataset, plan: DftPlan) -> Dataset:
    """Invert :func:`transform_dataset`, treating dropped delay rows as zero.

    Exact (to rounding) when the plan keeps all rows; otherwise each
    sample becomes the channel whose truncated transform equals it.
    """
    if dataset.domain is not Domain.ANGULAR_DELAY:
        raise ValueError(f"dataset is already in domain {dataset.domain.value}")
    if dataset.sample_shape != (plan.delay_bins, plan.antennas):
        raise ValueError(
            f"sample shape {dataset.sample_shape} does not match plan "
            f"({plan.delay_bins}, {plan.antennas})"
        )
    return Dataset(
        inverse_transform_values(dataset.samples, plan), Domain.SPATIAL_FREQUENCY, dataset.meta
    )
