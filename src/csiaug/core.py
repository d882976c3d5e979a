"""Core domain types shared across the toolkit.

Complex matrices are held in float64/complex128 internally; 32-bit
precision appears only at the serialization boundary (see
``csiaug.dataset_io``).  All containers are frozen dataclasses wrapping
read-only NumPy arrays, so instances can be shared freely.
"""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Any, Callable, Iterator, Mapping, NamedTuple

import numpy as np

from csiaug.rng import check_int, check_seed, check_str


class Domain(enum.Enum):
    """Which representation a dataset's samples live in."""

    SPATIAL_FREQUENCY = "spatial-frequency"
    ANGULAR_DELAY = "angular-delay"


class AugmentMethod(enum.Enum):
    """Amplitude-domain augmentation methods (tokens match the CLI)."""

    BUBBLE_SHIFT_UP = "bs-up"
    BUBBLE_SHIFT_DOWN = "bs-down"
    RANDOM_GENERATION = "rg"
    MODEL_DRIVEN = "md"


class ShiftDirection(enum.Enum):
    UP = "up"
    DOWN = "down"


class AugmentMode(enum.Enum):
    """Replace the samples, or append augmented copies after the originals."""

    REPLACE = "replace"
    APPEND = "append"


@dataclass(frozen=True)
class AngularDelayMatrix:
    """Complex matrix in the delay (rows) x angle (columns) representation.

    Rows index multipath delay bins, columns index spatial angle bins;
    typically one sample of a dataset transformed by
    :mod:`csiaug.transform`, keeping only the leading delay rows.  The
    array is copied, validated (finite, non-empty) and frozen at
    construction.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.ndim != 2:
            raise ValueError(f"angular-delay matrix must be 2-D, got shape {vals.shape}")
        if vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError(
                f"angular-delay matrix must have at least one row and column, got {vals.shape}"
            )
        _check_entries(vals, "angular-delay matrix entries")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def delay_bins(self) -> int:
        return self.values.shape[0]

    @property
    def angle_bins(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AngularDelayMatrix):
            return NotImplemented
        return _same_bits(self.values, other.values)


# A complex entry's modulus is at most √2 times its larger part, so below this
# bound on every part no modulus overflows float64.
_MODULUS_BOUND = np.finfo(np.float64).max / math.sqrt(2)


def _check_entries(vals: np.ndarray, name: str) -> None:
    """``ValueError`` naming ``name`` unless every entry of the complex128
    array ``vals``, contiguous in some axis order, is finite and so is its
    modulus, which the polar split of an augmentation takes.  The bound test
    reads the parts without a temporary and a NaN fails it; only an entry
    above it pays for the exact one."""
    parts = np.ravel(vals, order="K").view(np.float64)
    if parts.max(initial=0.0) <= _MODULUS_BOUND and -parts.min(initial=0.0) <= _MODULUS_BOUND:
        return
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} must be finite")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(np.abs(vals))):
            raise ValueError(f"{name} must have a modulus that float64 holds")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two complex128 arrays, through integer views of
    their real and imaginary parts rather than copies (0.0 differs from -0.0)."""
    return a.shape == b.shape and all(
        np.array_equal(x.view(np.uint64), y.view(np.uint64))
        for x, y in ((a.real, b.real), (a.imag, b.imag))
    )


def polar_parts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise (amplitude, phase) of a complex array.

    Phase lies in [-pi, pi); entries with zero amplitude get phase exactly
    0, which keeps the polar round trip exact at zeros (the argument of 0
    is a convention, and 0 is the one that recomposes to 0 bitwise).
    """
    amplitude = np.abs(values)
    phase = np.angle(values)
    # np.angle returns (-pi, pi]; fold the +pi endpoint and pin zeros.
    phase[phase == np.pi] = -np.pi
    phase[amplitude == 0.0] = 0.0
    return amplitude, phase


def _real(values: np.ndarray, name: str) -> np.ndarray:
    """``values`` unless complex, which a float cast would cut to its real part."""
    if np.iscomplexobj(values):
        raise ValueError(f"{name} must be real, got complex input")
    return values


def _check_amplitude(amplitude: np.ndarray) -> np.ndarray:
    # A C-ordered copy, so reshape(-1, rows, cols) is a view to write through.
    amp = np.array(_real(amplitude, "amplitude"), dtype=np.float64, order="C", copy=True)
    if amp.ndim < 2 or amp.shape[-2] < 1 or amp.shape[-1] < 1:
        raise ValueError(f"amplitude must be a 2-D matrix or a batch of them, got {amp.shape}")
    if not np.all(np.isfinite(amp)):
        raise ValueError("amplitude entries must be finite")
    # A batch may hold zero matrices, and np.min rejects empty arrays.
    if amp.size and np.min(amp) < 0.0:
        raise ValueError("amplitude entries must be non-negative")
    return amp


def _check_phase(phase: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """``phase`` as a real float64 array shaped like the checked amplitude ``amp``."""
    phase = np.asarray(_real(phase, "phase"), dtype=np.float64)
    if phase.shape != amp.shape:
        raise ValueError(f"phase shape {phase.shape} must match amplitude shape {amp.shape}")
    return phase


def decompose(matrix: AngularDelayMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Split an angular-delay matrix into amplitude and phase arrays.

    Amplitude entries are non-negative; phase entries lie in [-pi, pi),
    with zero-amplitude entries reported as phase 0.
    """
    return polar_parts(matrix.values)


def recompose(amplitude: np.ndarray, phase: np.ndarray) -> AngularDelayMatrix:
    """Rebuild a complex matrix as ``amplitude * (cos(phase) + j sin(phase))``.

    Inverse of :func:`decompose` up to floating-point rounding.  Rejects
    complex input, as the augmentation primitives do.
    """
    amp = _check_amplitude(amplitude)
    return AngularDelayMatrix(combine_polar(amp, _check_phase(phase, amp)))


def combine_polar(amplitude: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Raw-array form of :func:`recompose`, without validation."""
    return amplitude * (np.cos(phase) + 1j * np.sin(phase))


# Keys a record gained after files without them were written: left out when
# None, so those files read and write back byte for byte.
ADDED_LATER = {"rng"}


class Record:
    """Base of the dataclass records kept as JSON objects: fields are keys."""

    def to_dict(self) -> dict[str, Any]:
        """The JSON object of this record: its fields as keys, tuples as lists."""
        return asdict(self, dict_factory=lambda pairs: {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in pairs if not (k in ADDED_LATER and v is None)})

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """``cls(**data)`` once every key names a field and every field without a default is given."""
        unknown = sorted(set(check_object(data, cls.__name__)) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown fields: {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.name not in data and f.default is MISSING]
        if missing:
            raise ValueError(f"missing fields: {', '.join(missing)}")
        return cls(**data)


def check_object(value: Mapping[str, Any], name: str) -> dict[str, Any]:
    """A copy of ``value``; ``ValueError`` naming ``name`` unless it is a JSON object."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return dict(value)


@dataclass(frozen=True)
class AugmentationRecord(Record):
    """One applied augmentation step: method token, parameters, base seed,
    and the name of the random-stream scheme the seed was used with
    (``None`` for records written before schemes were recorded)."""

    method: str
    parameters: Mapping[str, Any]
    seed: int
    rng: str | None = None

    def __post_init__(self) -> None:
        check_str(self.method, "method")
        object.__setattr__(self, "parameters", check_object(self.parameters, "parameters"))
        object.__setattr__(self, "seed", check_int(self.seed, "seed"))
        if self.rng is not None:
            check_str(self.rng, "rng scheme")


@dataclass(frozen=True)
class Provenance(Record):
    """How a dataset came to be: generation scenario, base seed and its
    random-stream scheme, and the append-only chain of augmentations
    applied since generation."""

    scenario: Mapping[str, Any] | None = None
    seed: int | None = None
    augmentations: tuple[AugmentationRecord, ...] = ()
    rng: str | None = None

    def __post_init__(self) -> None:
        if self.scenario is not None:
            object.__setattr__(self, "scenario", check_object(self.scenario, "scenario"))
        object.__setattr__(self, "augmentations", tuple(self.augmentations))
        if self.seed is not None:
            object.__setattr__(self, "seed", check_int(self.seed, "seed"))
        if self.rng is not None:
            check_str(self.rng, "rng scheme")

    def with_augmentation(self, record: AugmentationRecord) -> "Provenance":
        return replace(self, augmentations=self.augmentations + (record,))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Provenance":
        data = check_object(data, cls.__name__)
        records = data.get("augmentations", ())
        if not isinstance(records, (list, tuple)):
            raise ValueError(f"augmentations must be a JSON array, got {records!r}")
        decoded = [AugmentationRecord.from_dict(rec) for rec in records]
        return super().from_dict({**data, "augmentations": decoded})


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered collection of equally shaped complex samples.

    ``samples`` is a read-only complex128 array of shape
    ``(count, rows, cols)``; the stacked layout enforces the equal-shape
    invariant.  ``domain`` says what the rows/cols mean, ``meta`` records
    provenance.  Once :func:`csiaug.codec.fit_codec` has fitted it, it also
    holds the widest codec fitted on it, which serves narrower repeat fits.
    """

    samples: np.ndarray
    domain: Domain
    meta: Provenance = field(default_factory=Provenance)

    def __post_init__(self) -> None:
        self._freeze(np.array(self.samples, dtype=np.complex128, copy=True))

    @classmethod
    def _adopt(cls, samples: np.ndarray, domain: Domain, meta: Provenance) -> "Dataset":
        """A dataset that takes over ``samples``, a complex128 array the package
        has just allocated and nothing else holds: the same checks, no copy."""
        dataset = cls.__new__(cls)
        object.__setattr__(dataset, "domain", domain)
        object.__setattr__(dataset, "meta", meta)
        dataset._freeze(samples)
        return dataset

    def _freeze(self, vals: np.ndarray) -> None:
        if vals.ndim != 3:
            raise ValueError(f"samples must be a (count, rows, cols) array, got shape {vals.shape}")
        if vals.shape[1] < 1 or vals.shape[2] < 1:
            raise ValueError(f"sample shape must be at least 1x1, got {vals.shape[1:]}")
        _check_entries(vals, "dataset samples")
        vals.flags.writeable = False
        object.__setattr__(self, "samples", vals)
        if not isinstance(self.domain, Domain):
            raise TypeError(f"domain must be a Domain, got {type(self.domain).__name__}")

    def __len__(self) -> int:
        return self.samples.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.samples)

    @property
    def sample_shape(self) -> tuple[int, int]:
        return self.samples.shape[1:]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.domain is other.domain
            and _same_bits(self.samples, other.samples)
            and self.meta == other.meta
        )


# Bytes of complex128 samples per chunk. Every source and sink of samples
# works through a dataset one chunk at a time, so a stream from source to
# file holds about one chunk whatever the count.
_CHUNK_BYTES = 8 << 20


def _chunk_samples(rows: int, cols: int) -> int:
    """Samples of ``rows`` x ``cols`` per chunk: 512 at 32 x 32, 16 at 1024 x 32."""
    return max(1, _CHUNK_BYTES // (16 * rows * cols))


class _Stream(NamedTuple):
    """A dataset's samples on their way from a source (synthesis, a file, a
    dataset, a transform, an augmentation) to a sink (a dataset, a file, a
    fit): ``chunks(step)``
    serves them in order as complex batches of at most ``step`` samples, each
    valid until the next is served."""

    domain: Domain
    count: int
    rows: int
    cols: int
    meta: Provenance
    chunks: Callable[[int], Iterator[np.ndarray]]

    @property
    def step(self) -> int:
        """Samples per chunk of this stream's sample shape."""
        return _chunk_samples(self.rows, self.cols)

    def spans(self, step: int) -> Iterator[tuple[slice, np.ndarray]]:
        """Each of ``chunks(step)`` with the slice of samples it holds; a
        ``ValueError`` once they are served unless they add up to ``count``."""
        start = 0
        for chunk in self.chunks(step):
            yield slice(start, start + len(chunk)), chunk
            start += len(chunk)
            del chunk  # else it stays alive while the next chunk is made
        if start != self.count:
            raise ValueError(f"chunks hold {start} samples, expected {self.count}")

    def collect(self) -> Dataset:
        """The dataset of the served samples."""
        out = np.empty((self.count, self.rows, self.cols), dtype=np.complex128)
        for span, chunk in self.spans(self.step):
            out[span] = chunk
            del chunk  # else it stays alive while the next chunk is made
        return Dataset._adopt(out, self.domain, self.meta)


def _stream(dataset: Dataset) -> _Stream:
    """The stream serving slices of ``dataset``'s samples."""
    samples = dataset.samples
    return _Stream(dataset.domain, len(samples), *dataset.sample_shape, dataset.meta,
                   lambda step: (samples[i:i + step] for i in range(0, len(samples), step)))


def _param_field(method: AugmentMethod) -> str:
    """The one ``AugmentParams`` field ``method`` reads: rg its block size, the rest a shift."""
    return "block_size" if method is AugmentMethod.RANDOM_GENERATION else "shift"


@dataclass(frozen=True)
class AugmentParams:
    """Parameters for one augmentation pass over a dataset.

    ``shift`` (delay bins) applies to the shift-based methods and is
    ignored by random generation; ``block_size`` (bins, edge length of
    the redrawn square) applies to random generation only.  Each field
    that is given is checked (shift at least 0, block size at least 1)
    whether or not the method uses it, and the one it uses
    (:func:`_param_field`) is required.
    ``direction`` is consumed only by the model-driven baseline, whose
    cyclic shift has no inherent direction; it defaults to DOWN.
    """

    method: AugmentMethod
    shift: int | None = None
    block_size: int | None = None
    seed: int = 0
    direction: ShiftDirection = ShiftDirection.DOWN

    def __post_init__(self) -> None:
        if not isinstance(self.method, AugmentMethod):
            raise TypeError(f"method must be an AugmentMethod, got {type(self.method).__name__}")
        check_seed(self.seed)
        for name, low in (("shift", 0), ("block_size", 1)):
            if getattr(self, name) is not None:
                value = check_int(getattr(self, name), name.replace("_", " "), low)
                object.__setattr__(self, name, value)
        used = _param_field(self.method)
        if getattr(self, used) is None:
            raise ValueError(f"method {self.method.value} requires a {used.replace('_', ' ')}")
        if not isinstance(self.direction, ShiftDirection):
            raise TypeError("direction must be a ShiftDirection")
