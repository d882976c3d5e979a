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

from csiaug.core import Dataset, Domain, _stream, _Stream
from csiaug.rng import check_int


def check_delay_bins(delay_bins: int, subcarriers: int) -> None:
    """``ValueError`` unless both counts are integers of at least 1 and
    ``delay_bins`` does not exceed ``subcarriers``."""
    check_int(delay_bins, "delay_bins", 1)
    check_int(subcarriers, "subcarriers", 1)
    if delay_bins > subcarriers:
        raise ValueError(f"delay_bins ({delay_bins}) cannot exceed subcarriers ({subcarriers})")


def transform_values(values: np.ndarray, delay_bins: int) -> np.ndarray:
    """Raw-array forward transform; trailing two axes are (rows, cols).

    Transforms the long (subcarrier) axis first and keeps its leading
    ``delay_bins`` rows before touching the antenna axis; identical to
    ifft2 + row slice.
    """
    delay = np.fft.ifft(values, axis=-2, norm="ortho")[..., :delay_bins, :]
    return np.fft.ifft(delay, axis=-1, norm="ortho")


def inverse_transform_values(values: np.ndarray, subcarriers: int) -> np.ndarray:
    """Raw-array inverse transform; zero-pads the delay axis to ``subcarriers`` rows."""
    angle = np.fft.fft(values, axis=-1, norm="ortho")
    return np.fft.fft(angle, n=subcarriers, axis=-2, norm="ortho")


def _transform(source: _Stream, new_rows: int) -> _Stream:
    """``source`` moved to the other domain with ``new_rows`` rows once the row counts
    are checked, each chunk no larger than either side's chunk and mapped as served."""
    if source.domain is Domain.SPATIAL_FREQUENCY:
        check_delay_bins(new_rows, source.rows)
        domain, values = Domain.ANGULAR_DELAY, transform_values
    else:
        check_delay_bins(source.rows, new_rows)
        domain, values = Domain.SPATIAL_FREQUENCY, inverse_transform_values
    return source._replace(domain=domain, rows=new_rows, chunks=lambda step: (
        values(chunk, new_rows) for chunk in source.chunks(min(step, source.step))))


def transform_dataset(dataset: Dataset, delay_bins: int) -> Dataset:
    """Transform every sample of a dataset, keeping the leading ``delay_bins`` rows."""
    if dataset.domain is not Domain.SPATIAL_FREQUENCY:
        raise ValueError(f"dataset is already in domain {dataset.domain.value}")
    return _transform(_stream(dataset), delay_bins).collect()


def inverse_transform_dataset(dataset: Dataset, subcarriers: int) -> Dataset:
    """Invert :func:`transform_dataset`, treating dropped delay rows as zero.

    Exact (to rounding) when ``subcarriers`` equals the row count;
    otherwise each sample becomes the channel of ``subcarriers`` rows
    whose truncated transform equals it.
    """
    if dataset.domain is not Domain.ANGULAR_DELAY:
        raise ValueError(f"dataset is already in domain {dataset.domain.value}")
    return _transform(_stream(dataset), subcarriers).collect()
