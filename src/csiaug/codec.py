"""Linear principal-subspace codec and NMSE evaluation.

The compressor is deliberately simple: vectorize each angular-delay
matrix into real features (all real parts, then all imaginary parts),
centre on the training mean, and project onto the top principal
directions of the training covariance.  It stands in for the neural
autoencoders used in CSI-feedback studies; absolute errors are not
comparable to theirs, but the question the toolkit asks (does a
training-set augmentation close a train/test distribution gap?) only
needs a compressor whose quality depends on its training distribution.

A fit computes the training mean and the sign-fixed eigenvectors of the
training covariance in descending eigenvalue order (a :class:`Spectrum`);
the basis at any ratio is a prefix of their columns.  The eigenvectors are
back-transformed in blocks of a fixed width, so a codec has the same bytes
at every ratio and in any call order.  Whatever the sample count, a fit
holds the scatter matrix's lower triangle on 4 KiB pages, one block of
features and one chunk, then the feature_dim x feature_dim eigenvectors,
never the complex training set.  A ``Dataset`` that :func:`fit_codec`
fitted holds the widest codec fitted on it, never the spectrum, until it is
collected; a repeat fit of that object at no wider a ratio is a read-only
view of that codec, with the bytes of a fresh fit.

Reconstruction quality is the usual normalized mean square error,
``mean ||X - X_hat||^2_F / ||X||^2_F`` over samples, reported both
linear and in dB (floored at -300 dB so perfect reconstructions stay
finite) and exact at any scale of the data; one that overflows float64
is an error, never a NaN or an infinity.  Evaluation streams, keeping 16
bytes a sample.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from csiaug._openblas import _blas
from csiaug.core import Dataset, Domain, Record, _stream, _Stream, check_object
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
    if not math.isfinite(linear):
        raise ValueError(f"linear NMSE must be finite, got {linear}")
    if linear < 0:
        raise ValueError(f"linear NMSE cannot be negative, got {linear}")
    if linear == 0:
        return DB_FLOOR
    return max(10.0 * math.log10(linear), DB_FLOOR)


def features(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(n, rows, cols) complex batch -> (n, 2*rows*cols) real features, in ``out`` if given."""
    half = math.prod(samples.shape[1:])
    flat = samples.reshape(len(samples), half)
    if out is None:
        out = np.empty((len(flat), 2 * half), flat.real.dtype)
    out[:, :half] = flat.real
    out[:, half:] = flat.imag
    return out


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
    the basis; decoding is the transposed map plus the mean.  The
    constructor keeps read-only copies of the arrays it is given, the
    basis column-major, so any prefix of its columns is contiguous.
    """

    delay_bins: int
    antennas: int
    ratio: Fraction
    mean: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        self._freeze(np.array(self.mean, dtype=np.float64),
                     np.array(self.basis, dtype=np.float64, order="F"))

    @classmethod
    def _adopt(cls, delay_bins: int, antennas: int, ratio: Fraction, mean: np.ndarray,
               basis: np.ndarray) -> "LinearCodec":
        """A codec that takes over ``mean`` and ``basis``, float64 arrays the
        package has just made or holds read-only: the same checks, no copy."""
        codec = cls.__new__(cls)
        for name, value in zip(("delay_bins", "antennas", "ratio"), (delay_bins, antennas, ratio)):
            object.__setattr__(codec, name, value)
        codec._freeze(mean, basis)
        return codec

    def _freeze(self, mean: np.ndarray, basis: np.ndarray) -> None:
        for name in ("delay_bins", "antennas"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 1))
        ratio = parse_ratio(self.ratio)
        object.__setattr__(self, "ratio", ratio)
        dim = 2 * self.delay_bins * self.antennas
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
    # Multiplying by a row of +-1 flips in place without copying the
    # flipped columns out and back.
    first = basis[np.argmax(basis != 0, axis=0), np.arange(basis.shape[1])]
    basis *= np.where(first < 0, -1.0, 1.0)


@dataclass(frozen=True)
class Spectrum:
    """Training mean plus the eigendecomposition of the covariance.

    ``values`` holds all ``feature_dim`` eigenvalues in descending order
    and column j of ``vectors`` is the sign-fixed eigenvector of
    ``values[j]``, so the codec at any ratio keeps a leading prefix of
    the columns.  Each column is contiguous.  The arrays are read-only.
    :func:`fit_spectrum` keeps every column; a fit inside the package may
    keep only the top blocks of them, whose bits are the same.
    """

    rows: int
    cols: int
    mean: np.ndarray
    values: np.ndarray
    vectors: np.ndarray

    def codec(self, ratio: Fraction | str | int) -> LinearCodec:
        """The codec keeping the top ``round(ratio * feature_dim)`` directions,
        copied, so that it never keeps the spectrum alive."""
        ratio = parse_ratio(ratio)
        m = check_components(ratio, 2 * self.rows * self.cols)
        if m > self.vectors.shape[1]:
            raise ValueError(f"ratio {ratio} keeps {m} components but this spectrum holds "
                             f"only the top {self.vectors.shape[1]} eigenvectors")
        return LinearCodec(self.rows, self.cols, ratio, self.mean, self.vectors[:, :m])

    def energy_share(self, components: int) -> float:
        """Share of the training energy (eigenvalue sum) the top components hold.

        A training set without spread has no energy to lose, so its share is 1.
        """
        total = float(self.values.sum())
        return float(self.values[:components].sum()) / total if total > 0 else 1.0


def _check_train(domain: Domain, n: int) -> None:
    if domain is not Domain.ANGULAR_DELAY:
        raise ValueError(f"codec training expects angular-delay samples, got {domain.value}")
    if n < 2:
        raise ValueError(f"codec training needs at least 2 samples, got {n}")


# The eigenvectors are back-transformed in blocks of this many columns,
# counted from the top.  A column's bits depend on the width of the ``dormtr``
# call it is in, so each block is its own call of one width, and a column has
# the same bits however many columns a caller keeps.
_VECTOR_BLOCK = 512

# dsyevr's RMIN and RMAX (about 1e-146 and 8e76): it scales a matrix whose
# largest entry lies outside them before it reduces it.
_RMIN = math.sqrt(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)
_RMAX = min(1 / _RMIN, 1 / math.sqrt(math.sqrt(np.finfo(np.float64).tiny)))


def _eigh(cov: np.ndarray, columns: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(cov)`` of the lower triangle: all eigenvalues in
    ascending order and the eigenvectors of the top ``columns``, rounded up
    to whole blocks of ``_VECTOR_BLOCK`` counted from the top, column-major.
    A C-ordered float64 ``cov`` is the workspace.

    These are dsyevr's own steps, run in the buffer of ``cov``, whose lower
    triangle is the upper one read column-major: ``dsytrd`` reduces it to
    tridiagonal form, ``dstemr`` (MRRR) finds every eigenpair of that, and
    one ``dormtr`` per kept block back-transforms its columns.  The
    eigenvectors are a view of the n x n array ``dstemr`` writes, so one
    more n x n array and O(n) of workspace are all it holds.  Any other
    array, a build without the routines, and a matrix whose largest entry
    lies outside the bounds within which dsyevr solves a matrix unscaled (a
    NaN or an infinity, which LAPACK may not reject, among them) go to
    ``eigh`` as they are, its eigenvectors made column-major too.  A step that
    fails, and ``eigh`` on a non-finite entry, raise ``LinAlgError``.
    """
    blas, n = _blas(), len(cov)
    kept = min(n, -(-columns // _VECTOR_BLOCK) * _VECTOR_BLOCK)
    # LAPACK writes n * n doubles from this pointer: only a writeable, aligned,
    # C-contiguous float64 square matrix may be solved in place.  The largest
    # entry of the buffer bounds that of the triangle, since _fit leaves the
    # other half zero (reading its unwritten pages maps no memory); a NaN or an
    # infinity lies outside.
    largest = np.maximum(cov.max(), -cov.min())
    if (blas is None or cov.dtype != np.float64 or cov.shape != (n, n) or not cov.flags.carray
            or not (largest == 0 or _RMIN <= largest <= _RMAX)):
        values, vectors = np.linalg.eigh(cov)
        return values, np.asfortranarray(vectors[:, n - kept:])
    # dsytrd writes n - 1 off-diagonal entries; dstemr reads n, and LAPACKE
    # rejects a NaN in any of them.
    diagonal, off, tau = np.empty(n), np.zeros(n), np.empty(max(n - 1, 1))
    values, vectors = np.empty(n), np.empty((n, n))
    # 102 is LAPACK_COL_MAJOR.  Range "A" keeps every eigenpair, so the
    # bounds are not read; tryrac asks dstemr for high relative accuracy
    # where the matrix allows it, as dsyevr does.  Each step runs only if
    # every one before it returned 0.
    found, tryrac, support = ctypes.c_int64(), ctypes.c_int64(1), np.empty(2 * n, np.int64)
    info = blas.dsytrd(102, b"U", n, cov.ctypes.data, n, diagonal.ctypes.data,
                       off.ctypes.data, tau.ctypes.data)
    info = info or blas.dstemr(102, b"V", b"A", n, diagonal.ctypes.data, off.ctypes.data,
                               0.0, 0.0, 0, 0, ctypes.byref(found), values.ctypes.data,
                               vectors.ctypes.data, n, n, support.ctypes.data,
                               ctypes.byref(tryrac))
    # Row j of the C-ordered buffer is LAPACK's column j, the eigenvector of
    # values[j], so a block of columns is a run of rows.
    for top in range(n, n - kept, -_VECTOR_BLOCK):
        bottom = max(top - _VECTOR_BLOCK, 0)
        info = info or blas.dormtr(102, b"L", b"U", b"N", n, top - bottom, cov.ctypes.data, n,
                                   tau.ctypes.data, vectors[bottom].ctypes.data, n)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return values, vectors[n - kept:].T


# Bytes of float64 features per block of the fit's pass.  The block size
# depends only on the sample shape, so a stream's chunking never changes
# which samples one rank-B update adds, nor the codec's bits.
_BLOCK_BYTES = 2 << 20


def _block_samples(dim: int) -> int:
    """Samples of ``dim`` features per block: 128 at 2048, 512 at 512."""
    return max(1, _BLOCK_BYTES // (8 * dim))


def _blocks(train: _Stream, block: np.ndarray) -> Iterator[np.ndarray]:
    """The features of the samples ``train`` serves, filled into ``block``
    ``len(block)`` rows at a time; the last may be short.  Each is valid
    until the next is served."""
    filled = 0
    for _, chunk in train.spans(train.step):
        while len(chunk):
            take = min(len(block) - filled, len(chunk))
            features(chunk[:take], block[filled:filled + take])
            chunk, filled = chunk[take:], filled + take
            if filled == len(block):
                yield block
                filled = 0
        del chunk  # else it stays alive while the next chunk is made
    if filled:
        yield block[:filled]


@functools.cache
def _madvise() -> Callable[[int, int, int], int] | None:
    """libc's ``madvise``, or None on a platform without it or without
    ``MADV_NOHUGEPAGE`` (macOS, Windows)."""
    if not hasattr(mmap, "MADV_NOHUGEPAGE"):
        return None
    try:
        madvise = ctypes.CDLL(None).madvise
    except (AttributeError, OSError, TypeError):
        return None
    madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    madvise.restype = ctypes.c_int
    return madvise


def _small_pages(array: np.ndarray) -> None:
    """Advise the whole pages of ``array``'s buffer to stay small, before
    anything writes them, so that writing one triangle of a matrix leaves the
    pages wholly above it unmapped.  NumPy asks for 2 MiB pages for every
    large array, and one write makes a whole such page resident.  This is
    only advice: without the call, or if it fails, nothing changes but the
    resident size."""
    madvise = _madvise()
    start = -(-array.ctypes.data // mmap.PAGESIZE) * mmap.PAGESIZE
    end = (array.ctypes.data + array.nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
    if madvise is not None and end > start:
        madvise(start, end - start, mmap.MADV_NOHUGEPAGE)


def _fit(train: _Stream, ratio: Fraction) -> Spectrum:
    """Spectrum of the samples ``train`` serves, judged from its fields first,
    the ratio before the domain and the count, keeping the eigenvectors of the
    top ``round(ratio * feature_dim)`` in whole blocks.

    One pass over the stream fills a block of a fixed number of feature rows
    at a time, so the fit holds the scatter matrix, one block and one chunk
    whatever the count, then the scatter's buffer and the n x n column-major
    eigenvectors ``dstemr`` writes, whose kept columns the spectrum keeps as
    they are.  Only the scatter's lower triangle is ever written, and its
    buffer is advised onto 4 KiB pages first, so the pages wholly above the
    diagonal, about 3/8 of them, stay unmapped.  Each block is summed in the
    order ``x.sum(axis=0)`` does, the running sum in the row before the
    block, so the mean has the bits of ``x.mean(axis=0)``.
    It is then centred on a fixed shift, the first block's mean, and added
    into the lower triangle of the scatter matrix, with ``dsyrk`` where NumPy
    bundles it.  One rank-1 term, taken away row by row within the triangle,
    moves the shifted scatter to the mean (Chan, Golub and LeVeque,
    "Algorithms for computing the sample variance", Am. Stat. 37, 1983).
    Without ``dsyrk``, block products add to both triangles, and
    ``np.linalg.eigh`` reads the lower one.
    """
    n, dim = train.count, 2 * train.rows * train.cols
    columns = check_components(ratio, dim)
    _check_train(train.domain, n)
    rows = np.zeros((min(n, _block_samples(dim)) + 1, dim))
    blas, cov, shift = _blas(), np.zeros((dim, dim)), None
    _small_pages(cov)
    for block in _blocks(train, rows[1:]):
        rows[0] = np.add.reduce(rows[:len(block) + 1], axis=0)
        if shift is None:
            shift = rows[0] / len(block)
        block -= shift
        if blas is None:
            cov += block.T @ block
        else:
            # 101, 122 and 112 are CblasRowMajor, CblasLower and CblasTrans;
            # beta = 1 adds blockᵀ block to the lower triangle.
            blas.dsyrk(101, 122, 112, dim, len(block), 1.0, block.ctypes.data, dim,
                       1.0, cov.ctypes.data, dim)
    mean = rows[0] / n
    del rows, block
    offset = math.sqrt(n) * (mean - shift)
    # Row by row within the triangle, so no write reaches the pages above it.
    for i in range(dim):
        row = cov[i, :i + 1]
        row -= offset[i] * offset[:i + 1]
        row /= n - 1
    values, vectors = _eigh(cov, columns)
    del cov, row  # row is a view that keeps the buffer alive
    values, vectors = values[::-1], vectors[:, ::-1]
    _fix_signs(vectors)
    for array in (mean, values, vectors):
        array.flags.writeable = False
    return Spectrum(train.rows, train.cols, mean, values, vectors)


def fit_spectrum(train: Dataset) -> Spectrum:
    """Mean and full sign-fixed eigendecomposition of a training set.

    The full eigendecomposition always yields a complete orthonormal set,
    so ratio 1 gives a lossless codec even when the training set has
    fewer samples than features.  Each call fits afresh, at ratio 1: hold the
    result and call :meth:`Spectrum.codec` to take several ratios of one fit.
    It back-transforms every block of eigenvectors, each in its own call,
    so each column has the bits a fit of fewer columns gives it.
    """
    return _fit(_stream(train), Fraction(1))


def fit_codec(train: Dataset, ratio: Fraction | str | int) -> LinearCodec:
    """Fit mean and principal directions on an angular-delay dataset.

    The basis holds the top ``round(ratio * feature_dim)`` eigenvectors
    of the sample covariance, in descending eigenvalue order: the
    leading columns of :func:`fit_spectrum`'s vectors, bit for bit.  A fit
    back-transforms only the blocks of eigenvectors that hold them.  ``train``
    then holds the widest codec fitted on it until it is collected, and a
    repeat call on that object at no wider a ratio runs no eigensolve: its
    mean and basis are read-only views of that codec's, with the bytes of a
    fresh fit, so a narrow codec held keeps the wider basis alive; copy it
    (``LinearCodec(c.delay_bins, c.antennas, c.ratio, c.mean, c.basis)``)
    to hold it alone.  A wider ratio, or any other object, even an equal
    one, is fitted afresh.
    """
    ratio = parse_ratio(ratio)
    rows, cols = train.sample_shape
    # Judge the ratio before a miss pays for the eigensolve.
    m = check_components(ratio, 2 * rows * cols)
    _check_train(train.domain, len(train))
    widest = getattr(train, "_widest", None)
    if widest is not None and m <= widest.components:
        return LinearCodec._adopt(rows, cols, ratio, widest.mean, widest.basis[:, :m])
    # A wider refit holds no narrower codec of this set through the eigensolve.
    del widest
    object.__setattr__(train, "_widest", None)
    codec = _fit(_stream(train), ratio).codec(ratio)
    object.__setattr__(train, "_widest", codec)
    return codec


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


def _errors(ref: np.ndarray, rec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's squared error ``||rec - ref||^2`` and energy ``||ref||^2``,
    both scaled by ``4^-k``, where ``2^k`` bounds the sample's largest
    ``|ref|``.  A power of two scales exactly, so each error/energy ratio is
    the unscaled one, and neither squares of tiny nor of huge samples leave
    float64; an error that still overflows is inf, which :func:`_nmse` rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        magnitude = np.abs(ref)
        k = np.frexp(magnitude.max(axis=(1, 2)))[1][:, None, None]
        np.square(np.ldexp(magnitude, -k, out=magnitude), out=magnitude)
        energy = np.sum(magnitude, axis=(1, 2))
        del magnitude  # freed first, so this holds at most two chunk-sized arrays at once
        deviation = np.abs(rec - ref)
        np.square(np.ldexp(deviation, -k, out=deviation), out=deviation)
        return np.sum(deviation, axis=(1, 2)), energy


def _nmse(error: np.ndarray, energy: np.ndarray) -> tuple[float, float]:
    """The (linear, dB) NMSE of per-sample errors and energies, the last step
    of every evaluation; a ``ValueError`` rather than a NaN or an infinity."""
    if not (np.all(np.isfinite(error)) and np.all(np.isfinite(energy))):
        raise ValueError("a sample's squared error or energy overflows float64; NMSE is undefined")
    if np.any(energy == 0.0):
        raise ValueError("reference contains an all-zero sample; NMSE is undefined")
    with np.errstate(over="ignore"):
        linear = float(np.mean(error / energy))
    if not math.isfinite(linear):
        raise ValueError("NMSE overflows float64: the mean of the samples' error/energy ratios "
                         "is too large")
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
    return _nmse(*_errors(ref.samples, rec.samples))


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
            value = check_real(getattr(self, name), name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "codec_info", check_object(self.codec_info, "codec_info"))
        if self.test_provenance is not None:
            provenance = check_object(self.test_provenance, "test_provenance")
            object.__setattr__(self, "test_provenance", provenance)


def _check_test(test: _Stream, shape: tuple[int, int]) -> None:
    if test.domain is not Domain.ANGULAR_DELAY:
        raise ValueError(f"evaluation expects angular-delay samples, got {test.domain.value}")
    if test.count == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if (test.rows, test.cols) != shape:
        raise ValueError(f"sample shape {(test.rows, test.cols)} does not match codec {shape}")


def _sample_errors(codec: LinearCodec, test: _Stream) -> tuple[np.ndarray, np.ndarray]:
    """Each served sample's squared reconstruction error and energy.  A short
    chunk is padded with zeros to a full one's height: a product's rows can
    take other bits at another height (one row is a matrix-vector product)."""
    error, energy = np.empty(test.count), np.empty(test.count)
    height = min(test.count, test.step)
    for span, chunk in test.spans(test.step):
        n = len(chunk)
        padded = np.pad(chunk, ((0, height - n), (0, 0), (0, 0))) if n < height else chunk
        error[span], energy[span] = _errors(chunk, reconstruct_batch(codec, padded)[:n])
    return error, energy


def _evaluate(codec: LinearCodec, test: _Stream, label: str = "unlabeled") -> EvalReport:
    """The NMSE report of ``codec`` on the samples ``test`` serves, judged from its fields first."""
    _check_test(test, (codec.delay_bins, codec.antennas))
    linear, db = _nmse(*_sample_errors(codec, test))
    return EvalReport(label=label, ratio=str(codec.ratio), nmse_linear=linear, nmse_db=db,
                      sample_count=test.count, codec_info=codec.info(),
                      test_provenance=test.meta.to_dict())


def evaluate(codec: LinearCodec, test: Dataset, label: str = "unlabeled") -> EvalReport:
    """Encode and decode every test sample, returning the NMSE report."""
    return _evaluate(codec, _stream(test), label)
