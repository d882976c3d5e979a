"""Synthetic multipath channel generator.

Produces frequency-domain channel matrices for a half-wavelength
uniform linear array: each of ``paths`` rays has a delay (in units of
the subcarrier sampling period), an azimuth angle, a uniform random
phase, and an exponentially decaying gain.  Entry (subcarrier n,
antenna a) of a sample is

    sum_l  g_l * exp(j phi_l) * exp(-2j pi n tau_l / Nc) * exp(-j pi a sin(theta_l))

Sample i of a dataset draws its delays, then angles, then phases from
random stream ``(seed, i)`` (see :mod:`csiaug.rng`), so datasets with
different seeds share no stream.

Train/test pairs that differ only in ``delay_range`` emulate a
deployment whose delay profile drifted away from the training
distribution; the shipped scenario presets are built this way.  This is
deliberately minimal physics: no clusters, no Doppler, no geometry.
Externally generated matrices can be imported through the dataset file
format instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from csiaug._openblas import _one_thread
from csiaug.core import Dataset, Domain, Provenance, Record, _Stream
from csiaug.dataset_io import read_record, write_record
from csiaug.rng import RNG_SCHEME, check_int, check_real, check_seed, make_generator
from csiaug.transform import check_delay_bins


@dataclass(frozen=True)
class ScenarioSpec(Record):
    """Parameters of one propagation scenario.

    ``delay_range`` is in delay bins (fractional values allowed, giving
    realistic leakage across neighbouring bins); ``angle_range`` is in
    radians within [-pi/2, pi/2]; ``gain_decay`` is the per-path
    exponential decay rate, so path l has gain exp(-gain_decay * l).
    """

    subcarriers: int
    antennas: int
    paths: int
    delay_range: tuple[float, float]
    angle_range: tuple[float, float]
    gain_decay: float
    seed: int

    def __post_init__(self) -> None:
        for name in ("subcarriers", "antennas", "paths"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 1))
        d0, d1 = _pair(self.delay_range, "delay_range")
        if not (0.0 <= d0 <= d1 < self.subcarriers):
            raise ValueError(
                f"delay_range must satisfy 0 <= lo <= hi < subcarriers, got ({d0}, {d1})"
            )
        a0, a1 = _pair(self.angle_range, "angle_range")
        half_pi = math.pi / 2
        if not (-half_pi <= a0 <= a1 <= half_pi):
            raise ValueError(f"angle_range must lie within [-pi/2, pi/2], got ({a0}, {a1})")
        gd = check_real(self.gain_decay, "gain_decay")
        if not (math.isfinite(gd) and gd >= 0.0):
            raise ValueError(f"gain_decay must be finite and non-negative, got {self.gain_decay}")
        object.__setattr__(self, "delay_range", (d0, d1))
        object.__setattr__(self, "angle_range", (a0, a1))
        object.__setattr__(self, "gain_decay", gd)
        object.__setattr__(self, "seed", check_seed(self.seed))

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

    def path_gains(self) -> np.ndarray:
        return np.exp(-self.gain_decay * np.arange(self.paths, dtype=np.float64))


def _pair(value: Any, name: str) -> tuple[float, float]:
    """Scenario field ``name`` as two floats; it must be a 2-item sequence of numbers."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence) or len(value) != 2:
        raise ValueError(f"{name} must be a pair of numbers, got {value!r}")
    return check_real(value[0], name), check_real(value[1], name)


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read a ScenarioSpec from a JSON file (unknown fields rejected).

    Any malformed content raises ``FileFormatError`` naming the file.
    """
    return read_record(path, "scenario file", ScenarioSpec.from_dict)


def save_scenario(spec: ScenarioSpec, path: str | Path) -> None:
    write_record(path, spec.to_dict())


def _draw_paths(spec: ScenarioSpec, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    # Draw order (delays, angles, phases) is part of the reproducibility
    # contract; changing it changes every generated dataset.
    tau = rng.uniform(spec.delay_range[0], spec.delay_range[1], spec.paths)
    theta = rng.uniform(spec.angle_range[0], spec.angle_range[1], spec.paths)
    phi = rng.uniform(-np.pi, np.pi, spec.paths)
    return tau, theta, phi


def _synthesize(
    spec: ScenarioSpec, tau: np.ndarray, theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Channels for a batch of path draws; leading axes are batch axes.

    ``tau``/``theta``/``phi`` have shape (..., paths); the result has
    shape (..., subcarriers, antennas).
    """
    n = np.arange(spec.subcarriers, dtype=np.float64)
    a = np.arange(spec.antennas, dtype=np.float64)
    coef = spec.path_gains() * np.exp(1j * phi)
    delay_resp = np.exp(
        (-2j * np.pi / spec.subcarriers) * n[..., :, None] * tau[..., None, :]
    )
    steer = np.exp(-1j * np.pi * np.sin(theta)[..., :, None] * a[..., None, :])
    # Each sample's small product would wake a second BLAS thread that then
    # spins between products.
    with _one_thread():
        return (delay_resp * coef[..., None, :]) @ steer


def _batch_draws(spec: ScenarioSpec, start: int, stop: int) -> tuple[np.ndarray, ...]:
    # Sample i draws from stream (spec.seed, i); callers pass start < stop.
    draws = [_draw_paths(spec, make_generator(spec.seed, i)) for i in range(start, stop)]
    return tuple(np.stack(column) for column in zip(*draws))


def _synthesize_angular(
    spec: ScenarioSpec, rows: int, tau: np.ndarray, theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """:func:`_synthesize` transformed and cut to ``rows`` delay rows, in closed form.

    The Dirichlet kernel's d is reduced mod 1 (r) and mod Nc (e): that keeps
    sin(pi e/Nc) accurate as tau nears Nc and cancels the kernel's signs.
    """
    nc = spec.subcarriers
    d = np.arange(rows, dtype=np.float64)[:, None] - tau[..., None, :]
    r, e = d - np.round(d), d - nc * np.round(d / nc)
    kernel = np.full(d.shape, math.sqrt(nc))
    np.divide(np.sin(np.pi * r), math.sqrt(nc) * np.sin(np.pi / nc * e), out=kernel, where=d != 0)
    coef = spec.path_gains() * np.exp(1j * phi)
    delay = kernel * np.exp(1j * np.pi * (r - e / nc)) * coef[..., None, :]
    steer = np.exp(-1j * np.pi * np.sin(theta)[..., :, None] * np.arange(spec.antennas))
    return delay @ np.fft.ifft(steer, axis=-1, norm="ortho")


def _source(spec: ScenarioSpec, count: int, rows: int, domain: Domain) -> _Stream:
    """The stream of ``count`` samples synthesised as they are served: all
    subcarriers, or the leading ``rows`` delay rows of the angular-delay domain."""
    count = check_int(count, "count", 0)

    def chunks(step: int) -> Iterator[np.ndarray]:
        for start in range(0, count, step):
            draws = _batch_draws(spec, start, min(start + step, count))
            if domain is Domain.ANGULAR_DELAY:
                yield _synthesize_angular(spec, rows, *draws)
            else:
                yield _synthesize(spec, *draws)

    meta = Provenance(scenario=spec.to_dict(), seed=spec.seed, rng=RNG_SCHEME)
    return _Stream(domain, count, rows, spec.antennas, meta, chunks)


def generate_dataset(spec: ScenarioSpec, count: int) -> Dataset:
    """Generate ``count`` i.i.d. channel samples in the frequency domain.

    Sample ``i`` draws its paths from stream ``(spec.seed, i)`` (see
    :mod:`csiaug.rng`), so any sample can be regenerated in isolation
    and the dataset is independent of batching.

    The per-sample products run on one OpenBLAS thread, and the caller's
    thread count is restored after each chunk's product.  The count is
    process-global (the build's ``openblas_set_num_threads_local`` sets it for
    every thread too), so BLAS work in another Python thread also runs
    single-threaded meanwhile, and calls in several threads take turns.
    """
    return _source(spec, count, spec.subcarriers, Domain.SPATIAL_FREQUENCY).collect()


def generate_angular_dataset(spec: ScenarioSpec, count: int, delay_bins: int) -> Dataset:
    """Generate in the angular-delay domain, keeping only ``delay_bins`` rows.

    Equal to roundoff to ``transform_dataset(generate_dataset(spec, count), delay_bins)``,
    without the frequency batch or its FFT: a path of delay tau puts the Dirichlet kernel
    exp(j pi d (Nc-1)/Nc) sin(pi d) / (sqrt(Nc) sin(pi d/Nc)), d = k - tau, on delay row k.
    """
    check_delay_bins(delay_bins, spec.subcarriers)
    return _source(spec, count, delay_bins, Domain.ANGULAR_DELAY).collect()
