"""Binary file formats for datasets and codecs, plus JSON sidecars.

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
All writes go through a temp file plus rename, so a crashed run never
leaves a half-written artifact at the target path.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from csiaug.codec import EvalReport, LinearCodec, component_count
from csiaug.core import Dataset, Domain, Provenance

DATASET_MAGIC = b"CSIA"
DATASET_VERSION = 1
CODEC_MAGIC = b"CSIC"
CODEC_VERSION = 1

_DATASET_HEADER = struct.Struct("<4sHBBIII")
_CODEC_HEADER = struct.Struct("<4sHIIIII")

_DOMAIN_TO_CODE = {Domain.SPATIAL_FREQUENCY: 0, Domain.ANGULAR_DELAY: 1}
_CODE_TO_DOMAIN = {code: dom for dom, code in _DOMAIN_TO_CODE.items()}

_U32_MAX = 2**32 - 1


class FileFormatError(ValueError):
    """The file does not follow the container grammar (magic, version, fields)."""


class CorruptedFileError(ValueError):
    """The file follows the grammar but its content is inconsistent."""


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see partial files."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value <= _U32_MAX:
        raise ValueError(f"{what} {value} does not fit in an unsigned 32-bit field")
    return value


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the binary container and its provenance sidecar.

    Identical datasets produce byte-identical files: the writer embeds
    no timestamps or environment details.
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
    payload = dataset.samples.astype("<c8").tobytes()
    atomic_write_bytes(path, header + payload)
    sidecar = json.dumps(dataset.meta.to_dict(), indent=2, sort_keys=True) + "\n"
    atomic_write_text(sidecar_path(path), sidecar)


def read_dataset(path: str | Path) -> Dataset:
    """Parse a dataset container, validating header and payload extent.

    A missing sidecar is tolerated with a warning (external tools may
    emit bare binaries); a malformed sidecar is an error.
    """
    data = Path(path).read_bytes()
    if len(data) < _DATASET_HEADER.size:
        raise CorruptedFileError(
            f"{path}: truncated header, expected at least {_DATASET_HEADER.size} bytes, "
            f"got {len(data)}"
        )
    magic, version, domain_code, reserved, count, rows, cols = _DATASET_HEADER.unpack_from(data)
    if magic != DATASET_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r} at offset 0, expected {DATASET_MAGIC!r}")
    if version != DATASET_VERSION:
        raise FileFormatError(
            f"{path}: unsupported version {version} at offset 4, expected {DATASET_VERSION}"
        )
    if domain_code not in _CODE_TO_DOMAIN:
        raise FileFormatError(f"{path}: unknown domain code {domain_code} at offset 6")
    if reserved != 0:
        raise FileFormatError(f"{path}: reserved byte at offset 7 must be zero, got {reserved}")
    if rows < 1 or cols < 1:
        raise FileFormatError(f"{path}: sample shape ({rows}, {cols}) must be at least 1x1")
    expected = _DATASET_HEADER.size + count * rows * cols * 8
    if len(data) != expected:
        raise CorruptedFileError(
            f"{path}: payload length mismatch, header implies {expected} bytes, "
            f"file has {len(data)}"
        )
    meta = _read_sidecar(path)
    flat = np.frombuffer(data, dtype="<c8", offset=_DATASET_HEADER.size)
    try:
        samples = flat.reshape(count, rows, cols).astype(np.complex128)
        return Dataset(samples, _CODE_TO_DOMAIN[domain_code], meta)
    except ValueError as exc:
        raise CorruptedFileError(f"{path}: dataset payload invalid: {exc}") from exc


def _read_sidecar(path: str | Path) -> Provenance:
    side = sidecar_path(path)
    if not side.exists():
        warnings.warn(f"metadata sidecar {side} not found; provenance will be empty")
        return Provenance()
    try:
        with open(side, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        return Provenance.from_dict(data)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{side}: malformed metadata sidecar: {exc}") from exc


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
    payload = (
        codec.mean.astype("<f8").tobytes()
        + np.ascontiguousarray(codec.basis.T).astype("<f8").tobytes()
    )
    atomic_write_bytes(path, header + payload)


def read_codec(path: str | Path) -> LinearCodec:
    """Parse a codec container, validating extent, ratio, and orthonormality."""
    data = Path(path).read_bytes()
    if len(data) < _CODEC_HEADER.size:
        raise CorruptedFileError(
            f"{path}: truncated header, expected at least {_CODEC_HEADER.size} bytes, "
            f"got {len(data)}"
        )
    magic, version, delay_bins, antennas, m, num, den = _CODEC_HEADER.unpack_from(data)
    if magic != CODEC_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r} at offset 0, expected {CODEC_MAGIC!r}")
    if version != CODEC_VERSION:
        raise FileFormatError(
            f"{path}: unsupported version {version} at offset 4, expected {CODEC_VERSION}"
        )
    if delay_bins < 1 or antennas < 1:
        raise FileFormatError(f"{path}: dimensions ({delay_bins}, {antennas}) must be positive")
    if den == 0 or num == 0:
        raise FileFormatError(f"{path}: ratio {num}/{den} is not a positive rational")
    dim = 2 * delay_bins * antennas
    expected = _CODEC_HEADER.size + 8 * (dim + dim * m)
    if len(data) != expected:
        raise CorruptedFileError(
            f"{path}: payload length mismatch, header implies {expected} bytes, "
            f"file has {len(data)}"
        )
    ratio = Fraction(num, den)
    if m != component_count(ratio, dim):
        raise CorruptedFileError(
            f"{path}: component count {m} inconsistent with ratio {num}/{den} "
            f"(expected {component_count(ratio, dim)})"
        )
    floats = np.frombuffer(data, dtype="<f8", offset=_CODEC_HEADER.size)
    mean = floats[:dim]
    basis = floats[dim:].reshape(m, dim).T
    try:
        return LinearCodec(delay_bins, antennas, ratio, mean, basis)
    except ValueError as exc:
        raise CorruptedFileError(f"{path}: codec payload invalid: {exc}") from exc


def write_report(report: EvalReport, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


def read_report(path: str | Path) -> EvalReport:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: report is not UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: report must be a JSON object")
    try:
        return EvalReport.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed report: {exc}") from exc
