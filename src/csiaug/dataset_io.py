"""Binary file formats for datasets and codecs, plus the JSON record grammar.

Dataset container (.csia): a 20-byte header

    offset 0   magic "CSIA" (4 bytes)
    offset 4   format version, u16 little-endian (currently 1)
    offset 6   domain, u8: 0 = spatial-frequency, 1 = angular-delay
    offset 7   reserved, u8, must be zero
    offset 8   sample count, u32 little-endian
    offset 12  rows per sample, u32 little-endian
    offset 16  cols per sample, u32 little-endian

followed by the samples in order, each row-major, each entry stored as
real part then imaginary part as little-endian IEEE-754 32-bit floats.
The binary carries no metadata; provenance lives in a JSON sidecar at
``<path>.meta.json`` so external tools can emit the binary trivially.

Codec container (.csic): a 26-byte header (magic "CSIC", version u16,
then delay_bins, antennas, component count, and the compression ratio
as a numerator/denominator pair, all u32 little-endian), followed by
the mean vector and then the basis in column-major order, all
little-endian 64-bit floats.  A codec holds its basis in memory in the
same column-major layout, so the writer sends it without a transposed
copy, and the reader's codec adopts the payload buffer it read into.

Storage quantizes complex values once to 32-bit floats; reading never
re-quantizes, so write -> read -> write reproduces files byte for byte.
The reader is a source and the writer a sink of the one sample stream
(``core._Stream``), and each chunk passes through one reused float32
buffer: a dataset read holds the dataset's own complex128 array plus one
chunk, and a write one float32 chunk.  A reader serves its payload from the
first sample on each call.  All writes go through a temp file plus rename,
so a crashed run never leaves a half-written artifact at the target path.

Every JSON artifact (provenance sidecars, eval reports, scenario files,
sweep and study summaries) is one object written by :func:`write_record`
with sorted keys, 2-space indent and a final newline, and read back by
:func:`read_record`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import struct
import tempfile
import warnings
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator

import numpy as np

from csiaug.codec import EvalReport, LinearCodec
from csiaug.core import Dataset, Domain, Provenance, _stream, _Stream

DATASET_MAGIC = b"CSIA"
DATASET_VERSION = 1
CODEC_MAGIC = b"CSIC"
CODEC_VERSION = 1

_DATASET_HEADER = struct.Struct("<4sHBBIII")
_CODEC_HEADER = struct.Struct("<4sHIIIII")
_GRAMMAR = {
    DATASET_MAGIC: (_DATASET_HEADER, DATASET_VERSION),
    CODEC_MAGIC: (_CODEC_HEADER, CODEC_VERSION),
}

_DOMAIN_TO_CODE = {Domain.SPATIAL_FREQUENCY: 0, Domain.ANGULAR_DELAY: 1}
_CODE_TO_DOMAIN = {code: dom for dom, code in _DOMAIN_TO_CODE.items()}


class FileFormatError(ValueError):
    """The file does not follow its grammar (container magic, version, fields; JSON record)."""


class CorruptedFileError(ValueError):
    """The file follows the grammar but its content is inconsistent."""


def atomic_write_bytes(path: str | Path, chunks: Iterable[Any]) -> None:
    """Write ``chunks`` (bytes or C-contiguous arrays) in order via a temp file and rename.

    ``chunks`` may be a generator: an exception it raises removes the temp
    file and leaves the target as it was.

    The file gets the mode ``open(path, "wb")`` would give a new file,
    ``0o666`` less the umask, not the temp file's ``0o600``.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_record(path: str | Path, obj: dict[str, Any]) -> None:
    """Write JSON object ``obj`` atomically: sorted keys, 2-space indent, final newline."""
    atomic_write_bytes(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def read_record(path: str | Path, what: str, parse: Callable[[dict[str, Any]], Any]) -> Any:
    """``parse`` of the JSON object in UTF-8 file ``path``, a ``what``.

    Undecodable content, a non-object and any ``KeyError``, ``TypeError``
    or ``ValueError`` from ``parse`` raise ``FileFormatError`` naming
    ``what`` and the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise FileFormatError(f"malformed {what} {path}: not UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError(
            f"malformed {what} {path}: must contain a JSON object, got {type(data).__name__}"
        )
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed {what} {path}: {exc}") from exc


def check_out(path: str | Path) -> None:
    """``ValueError`` unless output ``path`` is no directory and lies in one that exists."""
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"--out {path} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"--out directory {path.parent} does not exist")


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value < 2**32:
        raise ValueError(f"{what} {value} does not fit in an unsigned 32-bit field")
    return value


def _read_header(fh: BinaryIO, path: str | Path, magic: bytes) -> tuple[int, ...]:
    """The fields after magic and version of the header of container ``magic``."""
    header, version = _GRAMMAR[magic]
    raw = fh.read(header.size)
    if len(raw) < header.size:
        raise CorruptedFileError(
            f"{path}: truncated header, expected at least {header.size} bytes, got {len(raw)}"
        )
    found, found_version, *fields = header.unpack(raw)
    if found != magic:
        raise FileFormatError(f"{path}: bad magic {found!r} at offset 0, expected {magic!r}")
    if found_version != version:
        raise FileFormatError(
            f"{path}: unsupported version {found_version} at offset 4, expected {version}"
        )
    return tuple(fields)


def _check_extent(fh: BinaryIO, path: str | Path, nbytes: int) -> None:
    """``CorruptedFileError`` unless ``nbytes`` of payload fill the rest of the file."""
    expected = fh.tell() + nbytes
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise CorruptedFileError(
            f"{path}: payload length mismatch, header implies {expected} bytes, file has {size}"
        )


def _read_into(fh: BinaryIO, path: str | Path, out: np.ndarray) -> np.ndarray:
    if fh.readinto(out) != out.nbytes:
        raise CorruptedFileError(f"{path}: short read, file ended inside the payload")
    return out


def _write(path: str | Path, stream: _Stream) -> None:
    """Write the container of ``stream`` and its sidecar.

    Each chunk is judged as it arrives: a non-finite entry or one too large
    for a 32-bit float is a ``ValueError`` that leaves neither file behind.
    """
    header = _DATASET_HEADER.pack(
        DATASET_MAGIC, DATASET_VERSION, _DOMAIN_TO_CODE[stream.domain], 0,
        _check_u32(stream.count, "sample count"),
        _check_u32(stream.rows, "row count"),
        _check_u32(stream.cols, "col count"),
    )
    atomic_write_bytes(path, itertools.chain([header], _encode(path, stream)))
    write_record(sidecar_path(path), stream.meta.to_dict())


def _encode(path: str | Path, stream: _Stream) -> Iterator[np.ndarray]:
    """Each chunk as little-endian complex64, cast into one reused buffer."""
    buf = np.empty(0, dtype="<c8")
    for _, chunk in stream.spans(stream.step):
        if buf.size < chunk.size:
            buf = np.empty(chunk.size, dtype="<c8")
        out = buf[:chunk.size].reshape(chunk.shape)
        try:
            with np.errstate(over="raise"):
                np.copyto(out, chunk)
        except FloatingPointError:
            raise ValueError(f"{path}: dataset samples overflow 32-bit floats") from None
        if not np.all(np.isfinite(out)):
            raise ValueError(f"{path}: dataset samples must be finite")
        del chunk  # else it stays alive while the next chunk is made
        yield out


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the binary container and its provenance sidecar.

    Identical datasets produce byte-identical files: the writer embeds
    no timestamps or environment details.  An entry too large for a
    32-bit float is a ``ValueError`` that leaves neither file behind.
    """
    _write(path, _stream(dataset))


@contextmanager
def _open_dataset(path: str | Path) -> Iterator[_Stream]:
    """The stream of a dataset container's samples, served from its payload.

    Header fields, payload extent and sidecar are judged on entry; each
    batch is checked finite as it is read.  The file closes when the
    block exits, however it exits.
    """
    with open(path, "rb") as fh:
        domain_code, reserved, count, rows, cols = _read_header(fh, path, DATASET_MAGIC)
        if domain_code not in _CODE_TO_DOMAIN:
            raise FileFormatError(f"{path}: unknown domain code {domain_code} at offset 6")
        if reserved != 0:
            raise FileFormatError(f"{path}: reserved byte at offset 7 must be zero, got {reserved}")
        if rows < 1 or cols < 1:
            raise FileFormatError(f"{path}: sample shape ({rows}, {cols}) must be at least 1x1")
        _check_extent(fh, path, count * rows * cols * 8)
        head = _Stream(_CODE_TO_DOMAIN[domain_code], count, rows, cols, _read_sidecar(path), None)
        yield head._replace(chunks=functools.partial(_read_chunks, fh, path, head))


def _read_chunks(fh: BinaryIO, path: str | Path, head: _Stream, step: int) -> Iterator[np.ndarray]:
    """The payload after the header, ``step`` samples at a time, from its
    first sample on each call.

    Every chunk is read into one float32 buffer and widened into one
    complex128 buffer, so a chunk stays valid only until the next is served.
    """
    fh.seek(_DATASET_HEADER.size)
    for start in range(0, head.count, step):
        if start == 0:  # not before: an empty payload's shape may fit no array
            shape = (min(step, head.count), head.rows, head.cols)
            buf, wide = np.empty(shape, dtype="<c8"), np.empty(shape, dtype=np.complex128)
        n = min(step, head.count - start)
        part = _read_into(fh, path, buf[:n])
        # Judged before the complex128 upcast, where a signalling NaN would
        # raise the invalid flag.
        if not np.all(np.isfinite(part)):
            raise CorruptedFileError(
                f"{path}: dataset payload invalid: dataset samples must be finite")
        np.copyto(wide[:n], part)
        yield wide[:n]


def read_dataset(path: str | Path) -> Dataset:
    """Parse a dataset container, validating header and payload extent.

    A missing sidecar is tolerated with a warning (external tools may
    emit bare binaries); a malformed sidecar is an error.
    """
    with _open_dataset(path) as stream:
        try:
            return stream.collect()
        except CorruptedFileError:
            raise
        except ValueError as exc:  # a shape no array can have
            raise CorruptedFileError(f"{path}: dataset payload invalid: {exc}") from exc


def _read_sidecar(path: str | Path) -> Provenance:
    side = sidecar_path(path)
    if not side.exists():
        warnings.warn(f"metadata sidecar {side} not found; provenance will be empty")
        return Provenance()
    return read_record(side, "metadata sidecar", Provenance.from_dict)


def write_codec(codec: LinearCodec, path: str | Path) -> None:
    """Write a codec container (header, mean, column-major basis)."""
    ratio = codec.ratio
    header = _CODEC_HEADER.pack(
        CODEC_MAGIC,
        CODEC_VERSION,
        _check_u32(codec.delay_bins, "delay bin count"),
        _check_u32(codec.antennas, "antenna count"),
        _check_u32(codec.components, "component count"),
        _check_u32(ratio.numerator, "ratio numerator"),
        _check_u32(ratio.denominator, "ratio denominator"),
    )
    basis = np.ascontiguousarray(codec.basis.T, dtype="<f8")
    atomic_write_bytes(path, [header, np.asarray(codec.mean, dtype="<f8"), basis])


def read_codec(path: str | Path) -> LinearCodec:
    """Parse a codec container, validating extent, ratio, and orthonormality."""
    with open(path, "rb") as fh:
        delay_bins, antennas, m, num, den = _read_header(fh, path, CODEC_MAGIC)
        if delay_bins < 1 or antennas < 1:
            raise FileFormatError(f"{path}: dimensions ({delay_bins}, {antennas}) must be positive")
        if den == 0 or num == 0:
            raise FileFormatError(f"{path}: ratio {num}/{den} is not a positive rational")
        dim = 2 * delay_bins * antennas
        _check_extent(fh, path, 8 * (dim + dim * m))
        floats = _read_into(fh, path, np.empty(dim + dim * m, dtype="<f8"))
    # The codec adopts the payload buffer: the basis is its column-major tail.
    floats = floats.astype(np.float64, copy=False)
    basis = floats[dim:].reshape(m, dim).T
    try:
        return LinearCodec._adopt(delay_bins, antennas, Fraction(num, den), floats[:dim], basis)
    except ValueError as exc:
        raise CorruptedFileError(f"{path}: codec payload invalid: {exc}") from exc


def write_report(report: EvalReport, path: str | Path) -> None:
    write_record(path, report.to_dict())


def read_report(path: str | Path) -> EvalReport:
    return read_record(path, "report", EvalReport.from_dict)
