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
little-endian 64-bit floats.

Storage quantizes complex values once to 32-bit floats; reading never
re-quantizes, so write -> read -> write reproduces files byte for byte.
Payloads move straight between the file and one array: a dataset read
holds the float32 payload plus the dataset's own complex128 copy, and a
dataset write holds one float32 copy of the samples.
All writes go through a temp file plus rename, so a crashed run never
leaves a half-written artifact at the target path.

Every JSON artifact (provenance sidecars, eval reports, scenario files,
sweep and study summaries) is one object written by :func:`write_record`
with sorted keys, 2-space indent and a final newline, and read back by
:func:`read_record`.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Any, BinaryIO, Callable

import numpy as np

from csiaug.codec import EvalReport, LinearCodec
from csiaug.core import Dataset, Domain, Provenance

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


def atomic_write_bytes(path: str | Path, *chunks: Any) -> None:
    """Write ``chunks`` (bytes or C-contiguous arrays) in order via a temp file and rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp")
    try:
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
    atomic_write_bytes(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


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


def _read_payload(fh: BinaryIO, path: str | Path, count: int, dtype: str) -> np.ndarray:
    """The ``count`` entries of ``dtype`` that must fill the rest of the file."""
    expected = fh.tell() + count * np.dtype(dtype).itemsize
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise CorruptedFileError(
            f"{path}: payload length mismatch, header implies {expected} bytes, file has {size}"
        )
    out = np.empty(count, dtype=dtype)
    if fh.readinto(out) != out.nbytes:
        raise CorruptedFileError(f"{path}: short read, file ended inside the payload")
    return out


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the binary container and its provenance sidecar.

    Identical datasets produce byte-identical files: the writer embeds
    no timestamps or environment details.  An entry too large for a
    32-bit float is a ``ValueError`` before either file is written.
    """
    count, (rows, cols) = len(dataset), dataset.sample_shape
    header = _DATASET_HEADER.pack(
        DATASET_MAGIC,
        DATASET_VERSION,
        _DOMAIN_TO_CODE[dataset.domain],
        0,
        _check_u32(count, "sample count"),
        _check_u32(rows, "row count"),
        _check_u32(cols, "col count"),
    )
    try:
        with np.errstate(over="raise"):
            payload = np.ascontiguousarray(dataset.samples, dtype="<c8")
    except FloatingPointError:
        raise ValueError(f"{path}: dataset samples overflow 32-bit floats") from None
    atomic_write_bytes(path, header, payload)
    write_record(sidecar_path(path), dataset.meta.to_dict())


def read_dataset(path: str | Path) -> Dataset:
    """Parse a dataset container, validating header and payload extent.

    A missing sidecar is tolerated with a warning (external tools may
    emit bare binaries); a malformed sidecar is an error.
    """
    with open(path, "rb") as fh:
        domain_code, reserved, count, rows, cols = _read_header(fh, path, DATASET_MAGIC)
        if domain_code not in _CODE_TO_DOMAIN:
            raise FileFormatError(f"{path}: unknown domain code {domain_code} at offset 6")
        if reserved != 0:
            raise FileFormatError(f"{path}: reserved byte at offset 7 must be zero, got {reserved}")
        if rows < 1 or cols < 1:
            raise FileFormatError(f"{path}: sample shape ({rows}, {cols}) must be at least 1x1")
        flat = _read_payload(fh, path, count * rows * cols, "<c8")
    meta = _read_sidecar(path)
    try:
        # Dataset's own complex128 copy is the one upcast; a signalling NaN
        # raises the invalid flag there before Dataset rejects it as not finite.
        with np.errstate(invalid="ignore"):
            return Dataset(flat.reshape(count, rows, cols), _CODE_TO_DOMAIN[domain_code], meta)
    except ValueError as exc:
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
    atomic_write_bytes(path, header, np.asarray(codec.mean, dtype="<f8"), basis)


def read_codec(path: str | Path) -> LinearCodec:
    """Parse a codec container, validating extent, ratio, and orthonormality."""
    with open(path, "rb") as fh:
        delay_bins, antennas, m, num, den = _read_header(fh, path, CODEC_MAGIC)
        if delay_bins < 1 or antennas < 1:
            raise FileFormatError(f"{path}: dimensions ({delay_bins}, {antennas}) must be positive")
        if den == 0 or num == 0:
            raise FileFormatError(f"{path}: ratio {num}/{den} is not a positive rational")
        dim = 2 * delay_bins * antennas
        floats = _read_payload(fh, path, dim + dim * m, "<f8")
    basis = floats[dim:].reshape(m, dim).T
    try:
        return LinearCodec(delay_bins, antennas, Fraction(num, den), floats[:dim], basis)
    except ValueError as exc:
        raise CorruptedFileError(f"{path}: codec payload invalid: {exc}") from exc


def write_report(report: EvalReport, path: str | Path) -> None:
    write_record(path, report.to_dict())


def read_report(path: str | Path) -> EvalReport:
    return read_record(path, "report", EvalReport.from_dict)
