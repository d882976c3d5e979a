"""Linear principal-subspace codec and NMSE evaluation.

The compressor is deliberately simple: vectorize each angular-delay
matrix into real features (all real parts, then all imaginary parts),
centre on the training mean, and project onto the top principal
directions of the training covariance.  It stands in for the neural
autoencoders used in CSI-feedback studies; absolute errors are not
comparable to theirs, but the question the toolkit asks (does a
training-set augmentation close a train/test distribution gap?) only
needs a compressor whose quality depends on its training distribution.

The fit is one eigendecomposition of the training scatter matrix, kept
as a :class:`Spectrum`; the basis at any ratio is a prefix of its
columns, so one eigendecomposition serves every ratio of a training set.
:func:`fit_spectrum` remembers the spectrum of the last ``Dataset``
object it fitted, so repeat fits of the *same* object (``fit_codec`` at
several ratios, say) reuse it.  At most one spectrum is held, and it is
released when that dataset is collected.

Reconstruction quality is the usual normalized mean square error,
``mean ||X - X_hat||^2_F / ||X||^2_F`` over samples, reported both
linear and in dB (floored at -300 dB so perfect reconstructions stay
finite).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from csiaug.augment import augment_dataset
from csiaug.core import (
    AugmentMode, AugmentParams, Dataset, Domain, Record, check_object,
)
from csiaug.rng import check_int, check_real, check_str

DB_FLOOR = -300.0
ORTHONORMALITY_TOL = 1e-8


def parse_ratio(value: Fraction | str | int) -> Fraction:
    """Exact compression ratio from "1/4"-style strings or rationals.

    Floats are rejected on purpose: the retained-component count is
    ``round(ratio * feature_dim)`` and must not drift with binary
    rounding of, say, 1/64.
    """
    if isinstance(value, bool):
        raise TypeError("ratio must be a Fraction, string, or integer")
    if isinstance(value, float):
        raise TypeError(f"ratio must be exact (got float {value!r}); pass a string like '1/4'")
    if isinstance(value, (Fraction, int)):
        ratio = Fraction(value)
    elif isinstance(value, str):
        try:
            ratio = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse ratio {value!r}: {exc}") from None
    else:
        raise TypeError(f"ratio must be a Fraction, string, or integer, got {type(value).__name__}")
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    return ratio


def to_db(linear: float) -> float:
    """10*log10 with the report floor applied; 0 maps to the floor."""
    if linear < 0:
        raise ValueError(f"linear NMSE cannot be negative, got {linear}")
    if linear == 0:
        return DB_FLOOR
    return max(10.0 * math.log10(linear), DB_FLOOR)


def features(samples: np.ndarray) -> np.ndarray:
    """(n, rows, cols) complex batch -> (n, 2*rows*cols) real features."""
    n = samples.shape[0]
    return np.concatenate(
        [samples.real.reshape(n, -1), samples.imag.reshape(n, -1)], axis=1
    )


def unfeatures(vectors: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`features` for a (n, 2*rows*cols) batch."""
    n = vectors.shape[0]
    half = rows * cols
    real = vectors[:, :half].reshape(n, rows, cols)
    imag = vectors[:, half:].reshape(n, rows, cols)
    return real + 1j * imag


@dataclass(frozen=True)
class LinearCodec:
    """Mean vector plus column-orthonormal basis at a fixed ratio.

    ``basis`` has shape (feature_dim, components) where feature_dim =
    2 * delay_bins * antennas and components = round(ratio *
    feature_dim).  Encoding projects the centred feature vector onto
    the basis; decoding is the transposed map plus the mean.
    """

    delay_bins: int
    antennas: int
    ratio: Fraction
    mean: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        for name in ("delay_bins", "antennas"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 1))
        ratio = parse_ratio(self.ratio)
        object.__setattr__(self, "ratio", ratio)
        dim = 2 * self.delay_bins * self.antennas
        mean = np.array(self.mean, dtype=np.float64, copy=True)
        basis = np.array(self.basis, dtype=np.float64, copy=True)
        if mean.shape != (dim,):
            raise ValueError(f"mean must have shape ({dim},), got {mean.shape}")
        if basis.ndim != 2 or basis.shape[0] != dim:
            raise ValueError(f"basis must have shape ({dim}, m), got {basis.shape}")
        m = check_components(ratio, dim)
        if basis.shape[1] != m:
            raise ValueError(
                f"component count {basis.shape[1]} inconsistent with ratio {ratio} (expected {m})"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(basis))):
            raise ValueError("codec entries must be finite")
        with np.errstate(over="ignore"):  # huge entries give an inf residual, rejected below
            residual = np.abs(basis.T @ basis - np.eye(m)).max()
        if residual > ORTHONORMALITY_TOL:
            raise ValueError(
                f"basis columns are not orthonormal (residual {residual:.3e} > "
                f"{ORTHONORMALITY_TOL})"
            )
        mean.flags.writeable = False
        basis.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)

    @property
    def feature_dim(self) -> int:
        return 2 * self.delay_bins * self.antennas

    @property
    def components(self) -> int:
        return self.basis.shape[1]

    def info(self) -> dict[str, Any]:
        return {
            "delay_bins": self.delay_bins,
            "antennas": self.antennas,
            "feature_dim": self.feature_dim,
            "components": self.components,
            "ratio": str(self.ratio),
        }


def check_components(ratio: Fraction, feature_dim: int) -> int:
    """round(ratio * feature_dim), computed exactly on rationals, rejecting
    a ratio that keeps none or more than all."""
    m = round(ratio * feature_dim)
    if m < 1:
        raise ValueError(f"ratio {ratio} retains no components at feature dim {feature_dim}")
    if m > feature_dim:
        raise ValueError(f"ratio {ratio} exceeds feature dim {feature_dim} ({m} components)")
    return m


def _fix_signs(basis: np.ndarray) -> None:
    # Eigenvectors are defined up to sign; pin each column so its first
    # nonzero coordinate is positive, making fits reproducible artifacts.
    # A zero column's argmax lands on a zero, which is never below 0.
    # Flipping in place allocates no second copy of the basis.
    first = basis[np.argmax(basis != 0, axis=0), np.arange(basis.shape[1])]
    basis[:, first < 0] *= -1


@dataclass(frozen=True)
class Spectrum:
    """Training mean plus the full eigendecomposition of the covariance.

    ``values`` holds all ``feature_dim`` eigenvalues in descending order
    and column j of ``vectors`` is the sign-fixed eigenvector of
    ``values[j]``, so the codec at any ratio keeps a leading prefix of
    the columns.  The arrays are read-only.
    """

    rows: int
    cols: int
    mean: np.ndarray
    values: np.ndarray
    vectors: np.ndarray

    def codec(self, ratio: Fraction | str | int) -> LinearCodec:
        """The codec keeping the top ``round(ratio * feature_dim)`` directions."""
        ratio = parse_ratio(ratio)
        m = check_components(ratio, 2 * self.rows * self.cols)
        return LinearCodec(self.rows, self.cols, ratio, self.mean, self.vectors[:, :m])

    def energy_share(self, components: int) -> float:
        """Share of the training energy (eigenvalue sum) the top components hold.

        A training set without spread has no energy to lose, so its share is 1.
        """
        total = float(self.values.sum())
        return float(self.values[:components].sum()) / total if total > 0 else 1.0


# The last fitted (weak reference to the dataset, its spectrum), or None.
# Sound because a Dataset is frozen and its samples are read-only; the
# weak reference's callback empties the slot when the dataset is
# collected, so a recycled id() never hits and no dataset is kept alive.
# The slot is written as one tuple, so a reader never pairs a dataset
# with another dataset's spectrum.
_last_fit: tuple[weakref.ref, Spectrum] | None = None


def _forget(ref: weakref.ref) -> None:
    global _last_fit
    if _last_fit is not None and _last_fit[0] is ref:
        _last_fit = None


def fit_spectrum(train: Dataset) -> Spectrum:
    """Mean and full sign-fixed eigendecomposition of a training set.

    The full eigendecomposition always yields a complete orthonormal set,
    so ratio 1 gives a lossless codec even when the training set has
    fewer samples than features.  A repeat call on the same ``Dataset``
    object returns the spectrum of the previous call.
    """
    global _last_fit
    if train.domain is not Domain.ANGULAR_DELAY:
        raise ValueError(f"codec training expects angular-delay samples, got {train.domain.value}")
    n = len(train)
    if n < 2:
        raise ValueError(f"codec training needs at least 2 samples, got {n}")
    last = _last_fit
    if last is not None and last[0]() is train:
        return last[1]
    # Drop the held spectrum before computing, so two are never alive.
    _last_fit = last = None
    rows, cols = train.sample_shape
    x = features(train.samples)
    mean = x.mean(axis=0)
    x -= mean
    cov = (x.T @ x) / (n - 1)
    del x
    values, vectors = np.linalg.eigh(cov)
    del cov
    values, vectors = values[::-1], vectors[:, ::-1]
    _fix_signs(vectors)
    for array in (mean, values, vectors):
        array.flags.writeable = False
    spectrum = Spectrum(rows, cols, mean, values, vectors)
    _last_fit = (weakref.ref(train, _forget), spectrum)
    return spectrum


def fit_codec(train: Dataset, ratio: Fraction | str | int) -> LinearCodec:
    """Fit mean and principal directions on an angular-delay dataset.

    The basis holds the top ``round(ratio * feature_dim)`` eigenvectors
    of the sample covariance, in descending eigenvalue order: the
    leading columns of :func:`fit_spectrum`'s vectors.
    """
    ratio = parse_ratio(ratio)
    rows, cols = train.sample_shape
    # Judge the ratio before a miss pays for the eigensolve.
    check_components(ratio, 2 * rows * cols)
    return fit_spectrum(train).codec(ratio)


def encode_batch(codec: LinearCodec, samples: np.ndarray) -> np.ndarray:
    """(n, rows, cols) complex batch -> (n, components) code matrix."""
    if samples.shape[1:] != (codec.delay_bins, codec.antennas):
        raise ValueError(
            f"sample shape {samples.shape[1:]} does not match codec "
            f"({codec.delay_bins}, {codec.antennas})"
        )
    return (features(samples) - codec.mean) @ codec.basis


def decode_batch(codec: LinearCodec, codes: np.ndarray) -> np.ndarray:
    """(n, components) code matrix -> (n, rows, cols) complex batch."""
    if codes.ndim != 2 or codes.shape[1] != codec.components:
        raise ValueError(
            f"code batch must have shape (n, {codec.components}), got {codes.shape}"
        )
    return unfeatures(codes @ codec.basis.T + codec.mean, codec.delay_bins, codec.antennas)


def reconstruct_batch(codec: LinearCodec, samples: np.ndarray) -> np.ndarray:
    return decode_batch(codec, encode_batch(codec, samples))


def _nmse_arrays(ref: np.ndarray, rec: np.ndarray) -> tuple[float, float]:
    num = np.sum(np.abs(rec - ref) ** 2, axis=(1, 2))
    den = np.sum(np.abs(ref) ** 2, axis=(1, 2))
    if np.any(den == 0.0):
        raise ValueError("reference contains an all-zero sample; NMSE is undefined")
    linear = float(np.mean(num / den))
    return linear, to_db(linear)


def nmse(ref: Dataset, rec: Dataset) -> tuple[float, float]:
    """Mean per-sample squared-error ratio, as (linear, dB).

    The dB value is floored at -300 so identical datasets report a
    finite number.
    """
    if len(ref) != len(rec):
        raise ValueError(f"sample counts differ: {len(ref)} vs {len(rec)}")
    if ref.sample_shape != rec.sample_shape:
        raise ValueError(f"sample shapes differ: {ref.sample_shape} vs {rec.sample_shape}")
    if len(ref) == 0:
        raise ValueError("NMSE of an empty dataset is undefined")
    return _nmse_arrays(ref.samples, rec.samples)


@dataclass(frozen=True)
class EvalReport(Record):
    """One evaluation run: a codec applied to one test set.

    ``label`` names the training condition being measured (e.g. which
    augmentation produced the training set); the codec file does not
    carry that, so the caller supplies it.
    """

    label: str
    ratio: str
    nmse_linear: float
    nmse_db: float
    sample_count: int
    codec_info: Mapping[str, Any]
    test_provenance: Mapping[str, Any] | None = None
    db_floor: float = DB_FLOOR

    def __post_init__(self) -> None:
        for name in ("label", "ratio"):
            check_str(getattr(self, name), name)
        if str(parse_ratio(self.ratio)) != self.ratio:
            raise ValueError(f"ratio must be in lowest terms, like '1/4', got {self.ratio!r}")
        object.__setattr__(self, "sample_count", check_int(self.sample_count, "sample_count"))
        for name in ("nmse_linear", "nmse_db", "db_floor"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        object.__setattr__(self, "codec_info", check_object(self.codec_info, "codec_info"))
        if self.test_provenance is not None:
            provenance = check_object(self.test_provenance, "test_provenance")
            object.__setattr__(self, "test_provenance", provenance)


def _check_test(test: Dataset, shape: tuple[int, int]) -> None:
    if test.domain is not Domain.ANGULAR_DELAY:
        raise ValueError(f"evaluation expects angular-delay samples, got {test.domain.value}")
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if test.sample_shape != shape:
        raise ValueError(f"sample shape {test.sample_shape} does not match codec {shape}")


def evaluate(codec: LinearCodec, test: Dataset, label: str = "unlabeled") -> EvalReport:
    """Encode and decode every test sample, returning the NMSE report."""
    _check_test(test, (codec.delay_bins, codec.antennas))
    recon = reconstruct_batch(codec, test.samples)
    linear, db = _nmse_arrays(test.samples, recon)
    return EvalReport(
        label=label,
        ratio=str(codec.ratio),
        nmse_linear=linear,
        nmse_db=db,
        sample_count=len(test),
        codec_info=codec.info(),
        test_provenance=test.meta.to_dict(),
    )


def evaluate_passes(
    train: Dataset, test: Dataset, passes: Iterable[AugmentParams | None],
    ratio: Fraction | str | int, mode: AugmentMode = AugmentMode.APPEND,
) -> Iterator[EvalReport]:
    """Yield one report per pass: a codec fitted at ``ratio`` on ``train``
    augmented by the pass in ``mode`` (``None``: ``train`` itself), evaluated
    on ``test``.  ``test`` is judged against ``train`` before the first pass."""
    _check_test(test, train.sample_shape)
    for params in passes:
        fitted = train if params is None else augment_dataset(train, params, mode)
        yield evaluate(fit_codec(fitted, ratio), test)
