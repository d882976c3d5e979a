"""Tests for the binary dataset/codec containers and JSON artifacts."""

import dataclasses
import json
import math
import os
import re
import stat
import struct
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csiaug.augment import augment_dataset
from csiaug.channel import ScenarioSpec, generate_angular_dataset, load_scenario
from csiaug import core, dataset_io
from csiaug.codec import EvalReport, LinearCodec, fit_codec
from csiaug.core import (
    AugmentationRecord,
    AugmentMethod,
    AugmentParams,
    Dataset,
    Domain,
    Provenance,
)
from csiaug.dataset_io import (
    CorruptedFileError,
    FileFormatError,
    read_codec,
    read_dataset,
    read_record,
    read_report,
    sidecar_path,
    write_codec,
    write_dataset,
    write_record,
    write_report,
)
from csiaug.rng import RNG_SCHEME


def float32_dataset(count=3, rows=4, cols=2, seed=5, domain=Domain.ANGULAR_DELAY):
    """Random dataset whose values are exactly float32-representable."""
    g = np.random.default_rng(seed)
    raw = g.standard_normal((count, rows, cols)) + 1j * g.standard_normal((count, rows, cols))
    samples = raw.astype(np.complex64).astype(np.complex128)
    meta = Provenance(
        scenario={"subcarriers": 8},
        seed=seed,
        augmentations=(
            AugmentationRecord(method="bs-up", parameters={"shift": 1, "mode": "append"}, seed=2),
        ),
    )
    return Dataset(samples, domain, meta)


def test_dataset_round_trip_bit_exact(tmp_path):
    ds = float32_dataset()
    path = tmp_path / "data.csia"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back == ds
    assert np.array_equal(back.samples, ds.samples)
    assert back.meta == ds.meta
    assert back.domain is ds.domain


def test_dataset_double_round_trip_files_identical(tmp_path):
    ds = float32_dataset(seed=9, domain=Domain.SPATIAL_FREQUENCY)
    first = tmp_path / "a.csia"
    second = tmp_path / "b.csia"
    write_dataset(ds, first)
    write_dataset(read_dataset(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert sidecar_path(first).read_bytes() == sidecar_path(second).read_bytes()


def test_write_quantizes_to_float32_once(tmp_path):
    value = 1.0 + 2**-40  # not float32-representable
    ds = Dataset(np.full((1, 1, 1), value, dtype=complex), Domain.ANGULAR_DELAY)
    path = tmp_path / "q.csia"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.samples[0, 0, 0] == np.complex64(value)
    assert back.samples[0, 0, 0] != value


def test_empty_dataset_file_is_header_only(tmp_path):
    ds = Dataset(np.zeros((0, 5, 3)), Domain.ANGULAR_DELAY)
    path = tmp_path / "empty.csia"
    write_dataset(ds, path)
    assert path.stat().st_size == 20
    back = read_dataset(path)
    assert len(back) == 0
    assert back.sample_shape == (5, 3)


def test_header_layout_hand_constructed(tmp_path):
    # one 1x2 angular-delay sample: (1+2i, 3-4i)
    header = struct.pack("<4sHBBIII", b"CSIA", 1, 1, 0, 1, 1, 2)
    payload = struct.pack("<4f", 1.0, 2.0, 3.0, -4.0)
    path = tmp_path / "hand.csia"
    path.write_bytes(header + payload)
    sidecar_path(path).write_text(json.dumps(Provenance(seed=3).to_dict()))
    ds = read_dataset(path)
    assert ds.domain is Domain.ANGULAR_DELAY
    assert ds.samples.shape == (1, 1, 2)
    assert ds.samples[0, 0, 0] == 1 + 2j
    assert ds.samples[0, 0, 1] == 3 - 4j
    assert ds.meta.seed == 3


def test_missing_sidecar_warns_and_defaults(tmp_path):
    ds = float32_dataset()
    path = tmp_path / "bare.csia"
    write_dataset(ds, path)
    sidecar_path(path).unlink()
    with pytest.warns(UserWarning, match="sidecar"):
        back = read_dataset(path)
    assert back.meta == Provenance()


LEGACY_SIDECAR = {
    "augmentations": [
        {"method": "rg", "parameters": {"block_size": 4, "mode": "append"}, "seed": 9}
    ],
    "scenario": {"subcarriers": 8},
    "seed": 3,
}


def test_sidecar_rng_scheme_fresh_and_legacy(tmp_path):
    # A sidecar written before schemes were recorded has no "rng" key; it
    # reads with rng None and rewrites byte for byte.
    legacy = tmp_path / "legacy.csia"
    write_dataset(float32_dataset(), legacy)
    legacy_text = json.dumps(LEGACY_SIDECAR, indent=2, sort_keys=True) + "\n"
    sidecar_path(legacy).write_text(legacy_text)
    back = read_dataset(legacy)
    assert back.meta.rng is None and back.meta.augmentations[0].rng is None
    write_dataset(back, tmp_path / "again.csia")
    assert sidecar_path(tmp_path / "again.csia").read_text() == legacy_text
    # Augmenting it tags only the new record.
    params = AugmentParams(method=AugmentMethod.BUBBLE_SHIFT_UP, shift=1, seed=4)
    grown = augment_dataset(back, params).meta.to_dict()
    assert "rng" not in grown and "rng" not in grown["augmentations"][0]
    assert grown["augmentations"][1]["rng"] == RNG_SCHEME

    # Fresh generation and augmentation both record the scheme.
    spec = ScenarioSpec(8, 2, 2, (0.0, 3.0), (-0.5, 0.5), 0.3, seed=6)
    fresh = augment_dataset(generate_angular_dataset(spec, 3, 4), params)
    path = tmp_path / "fresh.csia"
    write_dataset(fresh, path)
    side = json.loads(sidecar_path(path).read_text())
    assert side["rng"] == RNG_SCHEME and side["augmentations"][0]["rng"] == RNG_SCHEME
    assert read_dataset(path).meta == fresh.meta
    sidecar_path(path).write_text(json.dumps({**side, "rng": 1}))
    with pytest.raises(FileFormatError, match="rng scheme"):
        read_dataset(path)


def test_malformed_sidecar_rejected(tmp_path):
    ds = float32_dataset()
    path = tmp_path / "bad_meta.csia"
    write_dataset(ds, path)
    sidecar_path(path).write_text("{not json")
    with pytest.raises(FileFormatError, match="sidecar"):
        read_dataset(path)
    sidecar_path(path).write_text(json.dumps({"augmentations": [{"method": "x"}]}))
    with pytest.raises(FileFormatError, match="sidecar"):
        read_dataset(path)
    # Integer fields are checked, not truncated.
    record = {"method": "bs-up", "parameters": {}, "seed": 7.9}
    for meta in ({"augmentations": [record]}, {"seed": "abc"}, {"seed": 2.5}):
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(FileFormatError, match="sidecar.*seed must be an integer"):
            read_dataset(path)
    for not_an_object in ("[]", "1", '"x"'):
        sidecar_path(path).write_text(not_an_object)
        with pytest.raises(FileFormatError, match="sidecar"):
            read_dataset(path)


def write_valid_then_corrupt(tmp_path, mutate):
    ds = float32_dataset()
    path = tmp_path / "corrupt.csia"
    write_dataset(ds, path)
    raw = bytearray(path.read_bytes())
    mutate(raw)
    path.write_bytes(bytes(raw))
    return path


def test_bad_magic_rejected(tmp_path):
    def mutate(raw):
        raw[0:4] = b"XSIA"

    path = write_valid_then_corrupt(tmp_path, mutate)
    with pytest.raises(FileFormatError, match="magic.*offset 0"):
        read_dataset(path)


def test_bad_version_rejected(tmp_path):
    def mutate(raw):
        raw[4:6] = struct.pack("<H", 99)

    path = write_valid_then_corrupt(tmp_path, mutate)
    with pytest.raises(FileFormatError, match="version 99"):
        read_dataset(path)


def test_bad_domain_code_rejected(tmp_path):
    def mutate(raw):
        raw[6] = 7

    path = write_valid_then_corrupt(tmp_path, mutate)
    with pytest.raises(FileFormatError, match="domain code 7"):
        read_dataset(path)


def test_nonzero_reserved_rejected(tmp_path):
    def mutate(raw):
        raw[7] = 1

    path = write_valid_then_corrupt(tmp_path, mutate)
    with pytest.raises(FileFormatError, match="reserved"):
        read_dataset(path)


def test_zero_rows_rejected(tmp_path):
    def mutate(raw):
        raw[12:16] = struct.pack("<I", 0)

    path = write_valid_then_corrupt(tmp_path, mutate)
    with pytest.raises(FileFormatError, match="at least 1x1"):
        read_dataset(path)


def test_truncated_payload_rejected(tmp_path):
    def mutate(raw):
        del raw[-8:]

    path = write_valid_then_corrupt(tmp_path, mutate)
    with pytest.raises(CorruptedFileError, match="implies 212 bytes, file has 204"):
        read_dataset(path)


def test_short_header_rejected(tmp_path):
    path = tmp_path / "short.csia"
    path.write_bytes(b"CSIA\x01")
    with pytest.raises(CorruptedFileError, match="truncated header"):
        read_dataset(path)


def test_forged_count_rejected(tmp_path):
    header = struct.pack("<4sHBBIII", b"CSIA", 1, 1, 0, 2, 1, 1)
    path = tmp_path / "count.csia"
    path.write_bytes(header + struct.pack("<2f", 0.0, 0.0))  # one sample, header says two
    with pytest.raises(CorruptedFileError, match="mismatch"):
        read_dataset(path)


def test_non_finite_payload_rejected(tmp_path):
    header = struct.pack("<4sHBBIII", b"CSIA", 1, 1, 0, 2, 1, 1)
    path = tmp_path / "nan.csia"
    sidecar_path(path).write_text(json.dumps(Provenance().to_dict()))
    for bad in (np.nan, np.inf):
        path.write_bytes(header + struct.pack("<4f", 1.0, 0.0, bad, 0.0))
        with pytest.raises(CorruptedFileError, match="nan.csia.*finite"):
            read_dataset(path)


@pytest.mark.filterwarnings("error")
def test_signalling_nan_payload_rejected_without_warning(tmp_path):
    # The complex128 upcast of a signalling NaN raises the invalid flag.
    header = struct.pack("<4sHBBIII", b"CSIA", 1, 1, 0, 1, 1, 1)
    path = tmp_path / "snan.csia"
    sidecar_path(path).write_text(json.dumps(Provenance().to_dict()))
    path.write_bytes(header + struct.pack("<2I", 0x7F800001, 0))
    with pytest.raises(CorruptedFileError, match="snan.csia.*finite"):
        read_dataset(path)


@pytest.mark.parametrize("value", [1e39, 1e39j, -3.5e38])
def test_write_rejects_samples_beyond_float32(tmp_path, value):
    # The 32-bit cast would store inf, which read_dataset then rejects.
    path = tmp_path / "big.csia"
    with pytest.raises(ValueError, match="big.csia.*32-bit"):
        write_dataset(Dataset(np.full((1, 2, 1), value), Domain.ANGULAR_DELAY), path)
    assert list(tmp_path.iterdir()) == []


def test_oversized_sample_shape_rejected(tmp_path):
    # zero samples of 2**32-1 by 2**32-1 pass the length check but no
    # array of that shape can exist.
    path = tmp_path / "huge.csia"
    path.write_bytes(struct.pack("<4sHBBIII", b"CSIA", 1, 1, 0, 0, 2**32 - 1, 2**32 - 1))
    sidecar_path(path).write_text(json.dumps(Provenance().to_dict()))
    with pytest.raises(CorruptedFileError, match="huge.csia"):
        read_dataset(path)


def fitted_codec(ratio="1/2", rows=3, cols=2, count=12, seed=4):
    g = np.random.default_rng(seed)
    s = g.standard_normal((count, rows, cols)) + 1j * g.standard_normal((count, rows, cols))
    ds = Dataset(s, Domain.ANGULAR_DELAY, Provenance(seed=seed))
    return fit_codec(ds, ratio)


def test_codec_round_trip_bit_exact(tmp_path):
    codec = fitted_codec()
    path = tmp_path / "codec.csic"
    write_codec(codec, path)
    back = read_codec(path)
    assert back.delay_bins == codec.delay_bins
    assert back.antennas == codec.antennas
    assert back.ratio == codec.ratio
    assert np.array_equal(back.mean, codec.mean)
    assert np.array_equal(back.basis, codec.basis)
    # Both hold the file's column-major layout; the read codec adopts the
    # one payload buffer it read into.
    assert codec.basis.flags.f_contiguous and back.basis.flags.f_contiguous
    assert back.mean.base is back.basis.base is not None and not back.basis.flags.writeable
    second = tmp_path / "codec2.csic"
    write_codec(back, second)
    assert path.read_bytes() == second.read_bytes()


def test_codec_header_fields(tmp_path):
    codec = fitted_codec(ratio="1/2", rows=3, cols=2)
    path = tmp_path / "layout.csic"
    write_codec(codec, path)
    raw = path.read_bytes()
    magic, version, delay_bins, antennas, m, num, den = struct.unpack_from("<4sHIIIII", raw)
    assert magic == b"CSIC" and version == 1
    assert (delay_bins, antennas) == (3, 2)
    assert m == 6 and (num, den) == (1, 2)
    assert len(raw) == 26 + 8 * (12 + 12 * 6)


def test_codec_bad_magic_and_truncation(tmp_path):
    codec = fitted_codec()
    path = tmp_path / "bad.csic"
    write_codec(codec, path)
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"CSIX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="magic"):
        read_codec(path)
    raw[0:4] = b"CSIC"
    path.write_bytes(bytes(raw[:-8]))
    with pytest.raises(CorruptedFileError, match="mismatch"):
        read_codec(path)
    path.write_bytes(b"CS")
    with pytest.raises(CorruptedFileError, match="truncated"):
        read_codec(path)


def test_codec_zero_ratio_rejected(tmp_path):
    codec = fitted_codec()
    path = tmp_path / "ratio.csic"
    write_codec(codec, path)
    raw = bytearray(path.read_bytes())
    raw[22:26] = struct.pack("<I", 0)  # denominator field
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="positive rational"):
        read_codec(path)


def test_codec_component_ratio_mismatch_rejected(tmp_path):
    codec = fitted_codec(ratio="1/2", rows=3, cols=2)  # dim 12, m 6
    path = tmp_path / "m.csic"
    write_codec(codec, path)
    raw = bytearray(path.read_bytes())
    raw[14:18] = struct.pack("<I", 4)  # component-count field; ratio still 1/2
    # trim the basis so the payload length matches the forged count
    path.write_bytes(bytes(raw[: 26 + 8 * 12 + 8 * 12 * 4]))
    with pytest.raises(CorruptedFileError, match="inconsistent with ratio"):
        read_codec(path)


def test_codec_non_orthonormal_payload_rejected(tmp_path):
    codec = fitted_codec()
    path = tmp_path / "orth.csic"
    write_codec(codec, path)
    raw = bytearray(path.read_bytes())
    # scale one basis float far from unit norm
    offset = 26 + 8 * codec.feature_dim
    (v,) = struct.unpack_from("<d", raw, offset)
    struct.pack_into("<d", raw, offset, v + 1.0)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptedFileError, match="payload invalid"):
        read_codec(path)


@pytest.mark.filterwarnings("error")
def test_codec_huge_basis_entry_rejected_without_warning(tmp_path):
    # 1e300 squared overflows in the orthonormality residual.
    codec = fitted_codec()
    path = tmp_path / "huge.csic"
    write_codec(codec, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, 26 + 8 * codec.feature_dim, 1e300)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptedFileError, match="huge.csic.*not orthonormal"):
        read_codec(path)


def test_codec_oversized_ratio_field_rejected(tmp_path):
    codec = fitted_codec()
    huge = LinearCodec(
        codec.delay_bins,
        codec.antennas,
        Fraction(codec.components * 2**33, codec.feature_dim * 2**33),
        codec.mean,
        codec.basis,
    )
    # Fraction normalizes, so forge an unnormalized one via object surgery
    object.__setattr__(huge, "ratio", Fraction(1, 2**33))
    with pytest.raises(ValueError, match="32-bit"):
        write_codec(huge, tmp_path / "huge.csic")


def test_atomic_writes_leave_no_temp_files(tmp_path):
    ds = float32_dataset()
    write_dataset(ds, tmp_path / "clean.csia")
    write_codec(fitted_codec(), tmp_path / "clean.csic")
    leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_new_artifacts_get_the_umask_default_mode(tmp_path, umask, mode):
    # As open(path, "wb") would create them, not with the temp file's 0o600.
    old = os.umask(umask)
    try:
        write_dataset(float32_dataset(), tmp_path / "new.csia")
        write_codec(fitted_codec(), tmp_path / "new.csic")
        write_record(tmp_path / "new.json", {"a": 1})
    finally:
        os.umask(old)
    for path in tmp_path.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == mode, path.name
    assert len(list(tmp_path.iterdir())) == 4


def oracle_dataset_bytes(ds):
    """The container bytes as the whole-buffer writer built them."""
    code = {Domain.SPATIAL_FREQUENCY: 0, Domain.ANGULAR_DELAY: 1}[ds.domain]
    header = struct.pack("<4sHBBIII", b"CSIA", 1, code, 0, len(ds), *ds.sample_shape)
    return header + ds.samples.astype("<c8").tobytes()


def oracle_codec_bytes(codec):
    r = codec.ratio
    fields = (codec.delay_bins, codec.antennas, codec.components, r.numerator, r.denominator)
    header = struct.pack("<4sHIIIII", b"CSIC", 1, *fields)
    basis = np.ascontiguousarray(codec.basis.T).astype("<f8").tobytes()
    return header + codec.mean.astype("<f8").tobytes() + basis


def test_writers_match_whole_buffer_oracle(tmp_path):
    g = np.random.default_rng(17)
    path = tmp_path / "oracle.csia"
    for trial in range(12):
        count, rows, cols = (0 if trial < 2 else int(g.integers(1, 9)), *g.integers(1, 7, 2))
        domain = (Domain.SPATIAL_FREQUENCY, Domain.ANGULAR_DELAY)[trial % 2]
        raw = g.standard_normal((2, cols, rows, count)) * 10.0 ** g.integers(-3, 4)
        # A transposed view keeps its non-C layout through Dataset's copy.
        ds = Dataset((raw[0] + 1j * raw[1]).T, domain)
        write_dataset(ds, path)
        assert path.read_bytes() == oracle_dataset_bytes(ds)
    path = tmp_path / "oracle.csic"
    for ratio in ("1", "1/2", "1/3", "1/4", "1/6"):
        codec = fitted_codec(ratio=ratio, rows=3, cols=2, count=16, seed=len(ratio))
        write_codec(codec, path)
        assert path.read_bytes() == oracle_codec_bytes(codec)


def test_short_read_rejected(tmp_path, monkeypatch):
    cases = [
        (write_dataset, read_dataset, float32_dataset(), "short.csia"),
        (write_codec, read_codec, fitted_codec(), "short.csic"),
    ]
    for writer, reader, value, name in cases:
        path = tmp_path / name
        writer(value, path)
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        # The file shrinks between the extent check and the read.
        with monkeypatch.context() as m:
            m.setattr(dataset_io.os, "fstat", lambda fd: SimpleNamespace(st_size=full))
            with pytest.raises(CorruptedFileError, match="short read"):
                reader(path)


def traced_peak(fn, *args):
    """Peak bytes ``fn(*args)`` allocates above what was live before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def large_dataset():
    g = np.random.default_rng(3)
    raw = g.standard_normal((2, 200, 256, 32))
    return Dataset(raw[0] + 1j * raw[1], Domain.SPATIAL_FREQUENCY)


def chunk_bytes(ds):
    """complex128 bytes of one chunk of ``ds``'s samples."""
    return core._chunk_samples(*ds.sample_shape) * ds.samples[0].nbytes


def test_read_dataset_memory_bound(tmp_path):
    ds = large_dataset()
    path = tmp_path / "big.csia"
    write_dataset(ds, path)
    # The dataset's own array, one complex128 chunk and its float32 buffer.
    bound = ds.samples.nbytes + 1.5 * chunk_bytes(ds) + 2**20
    assert traced_peak(read_dataset, path) <= bound


def test_write_dataset_memory_bound(tmp_path):
    ds = large_dataset()
    # One float32 chunk.
    bound = 0.5 * chunk_bytes(ds) + 2**20
    assert traced_peak(write_dataset, ds, tmp_path / "big.csia") <= bound


def test_dataset_equality_memory_bound():
    ds = large_dataset()
    twin = Dataset(ds.samples, ds.domain)
    # Integer views of the real and imaginary parts, never a byte copy.
    assert traced_peak(ds.__eq__, twin) <= 0.25 * ds.samples.nbytes
    assert ds == twin


def test_report_round_trip(tmp_path):
    report = EvalReport(
        label="baseline",
        ratio="1/4",
        nmse_linear=0.031,
        nmse_db=-15.1,
        sample_count=500,
        codec_info={"components": 512, "ratio": "1/4"},
        test_provenance={"seed": 11},
    )
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report
    path.write_text("[]")
    with pytest.raises(FileFormatError, match="JSON object"):
        read_report(path)
    path.write_text(json.dumps({"label": "x"}))
    with pytest.raises(FileFormatError, match="malformed report"):
        read_report(path)
    path.write_text(json.dumps({**report.to_dict(), "sample_count": 500.5}))
    with pytest.raises(FileFormatError, match="sample_count must be an integer"):
        read_report(path)
    for field, value in [("nmse_db", "-3"), ("nmse_linear", True), ("db_floor", None)]:
        path.write_text(json.dumps({**report.to_dict(), field: value}))
        with pytest.raises(FileFormatError, match=f"{field} must be a number"):
            read_report(path)
    # json reads NaN and Infinity, which are not standard JSON; a report rejects them.
    for field in ("nmse_linear", "nmse_db", "db_floor"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                dataclasses.replace(report, **{field: value})
            path.write_text(json.dumps({**report.to_dict(), field: value}))
            with pytest.raises(FileFormatError, match=f"{field} must be finite"):
                read_report(path)
    write_report(report, path)
    path.write_text(path.read_text()[:-10])
    with pytest.raises(FileFormatError, match="not UTF-8 JSON"):
        read_report(path)
    path.write_bytes(b'{"label": "\xff"}')
    with pytest.raises(FileFormatError, match="not UTF-8 JSON"):
        read_report(path)


def test_record_grammar(tmp_path):
    path = tmp_path / "record.json"
    write_record(path, {"b": [1, 2.5], "a": None})
    assert path.read_bytes() == b'{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    assert read_record(path, "thing", dict) == {"a": None, "b": [1, 2.5]}
    with pytest.raises(FileFormatError, match=re.escape(f"malformed thing {path}: 'c'")):
        read_record(path, "thing", lambda data: data["c"])


@pytest.mark.parametrize(
    "raw,reason",
    [
        (b'{"seed": ', "not UTF-8 JSON: "),
        (b'{"seed": "\xff"}', "not UTF-8 JSON: "),
        (b"[]", "must contain a JSON object, got list"),
    ],
    ids=["truncated", "not-utf8", "list"],
)
def test_json_records_name_their_kind_and_path(tmp_path, raw, reason):
    data = tmp_path / "data.csia"
    write_dataset(float32_dataset(), data)
    report, scenario = tmp_path / "report.json", tmp_path / "scenario.json"
    for what, path, read in [
        ("metadata sidecar", sidecar_path(data), lambda: read_dataset(data)),
        ("report", report, lambda: read_report(report)),
        ("scenario file", scenario, lambda: load_scenario(scenario)),
    ]:
        path.write_bytes(raw)
        with pytest.raises(FileFormatError, match=re.escape(f"malformed {what} {path}: {reason}")):
            read()


# Fuzzing: up to three truncations, bit flips or forged header fields
# must leave a file that either parses or raises one of the container
# errors, never anything else.


def mutations(fields):
    """Truncate, flip one bit, or forge a field; positions wrap at the length."""
    truncate = st.integers(0, 2**16).map(lambda n: ("truncate", n, None))
    flip = st.integers(0, 2**16).map(lambda bit: ("flip", bit, None))
    forge = st.tuples(
        st.just("forge"),
        st.sampled_from(fields),
        st.sampled_from([0, 1, 2, 3, 7, 255, 2**16 - 1, 2**31, 2**32 - 1]),
    )
    return st.lists(st.one_of(truncate, flip, forge), min_size=1, max_size=3)


def mutate(raw, mutations):
    out = bytearray(raw)
    for kind, where, value in mutations:
        if kind == "truncate" and out:
            del out[where % len(out):]
        elif kind == "flip" and out:
            bit = where % (8 * len(out))
            out[bit // 8] ^= 1 << (bit % 8)
        elif kind == "forge":
            offset, fmt = where
            if offset + struct.calcsize(fmt) <= len(out):
                value &= (1 << (8 * struct.calcsize(fmt))) - 1
                struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def parses_or_rejects(reader, path):
    try:
        reader(path)
    except (FileFormatError, CorruptedFileError):
        pass


DATASET_FIELDS = [(4, "<H"), (6, "<B"), (7, "<B"), (8, "<I"), (12, "<I"), (16, "<I")]
CODEC_FIELDS = [(4, "<H"), (6, "<I"), (10, "<I"), (14, "<I"), (18, "<I"), (22, "<I")]
FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ
@given(st.sampled_from([0, 3]), mutations(DATASET_FIELDS))
def test_dataset_reader_fuzz(tmp_path, count, mutations):
    path = tmp_path / "fuzz.csia"
    # Values in [1, 2) turn into inf or NaN when the top exponent bit flips.
    parts = np.random.default_rng(count).uniform(1.0, 2.0, (2, count, 4, 2))
    write_dataset(Dataset(parts[0] + 1j * parts[1], Domain.ANGULAR_DELAY), path)
    path.write_bytes(mutate(path.read_bytes(), mutations))
    parses_or_rejects(read_dataset, path)


@FUZZ
@given(mutations(CODEC_FIELDS))
def test_codec_reader_fuzz(tmp_path, mutations):
    path = tmp_path / "fuzz.csic"
    write_codec(fitted_codec(), path)
    path.write_bytes(mutate(path.read_bytes(), mutations))
    parses_or_rejects(read_codec, path)


# Records: the keys of every JSON record are its dataclass fields.

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
JSON_OBJECTS = st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4)
SCHEMES = st.none() | st.text(max_size=12)
AUGMENTATION_RECORDS = st.builds(
    AugmentationRecord, st.text(max_size=6), JSON_OBJECTS, st.integers(), SCHEMES
)
PROVENANCES = st.builds(
    Provenance,
    st.none() | JSON_OBJECTS,
    st.none() | st.integers(),
    st.lists(AUGMENTATION_RECORDS, max_size=3).map(tuple),
    SCHEMES,
)
REALS = st.floats(allow_nan=False, allow_infinity=False)
REPORTS = st.builds(
    EvalReport,
    st.text(max_size=6),
    st.fractions(min_value=Fraction(1, 64), max_denominator=64).map(str),
    REALS,
    REALS,
    st.integers(),
    JSON_OBJECTS,
    st.none() | PROVENANCES.map(Provenance.to_dict),
    REALS,
)
RECORDS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@RECORDS
@given(st.one_of(PROVENANCES, REPORTS))
def test_records_round_trip_byte_for_byte(tmp_path, record):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_record(first, record.to_dict())
    back = read_record(first, "record", type(record).from_dict)
    assert back == record
    assert type(record).from_dict(record.to_dict()) == record
    write_record(second, back.to_dict())
    assert second.read_bytes() == first.read_bytes()
    # A key added later is left out, not written as null, when it is None.
    if isinstance(record, Provenance):
        assert ("rng" in record.to_dict()) == (record.rng is not None)
        for rec, out in zip(record.augmentations, record.to_dict()["augmentations"]):
            assert ("rng" in out) == (rec.rng is not None)


def record_files(tmp_path):
    """(kind, path, read, valid JSON object) of a sidecar, a report and a scenario file."""
    data = tmp_path / "data.csia"
    spec = ScenarioSpec(8, 2, 2, (0.0, 3.0), (-0.5, 0.5), 0.3, seed=6)
    params = AugmentParams(method=AugmentMethod.BUBBLE_SHIFT_UP, shift=1, seed=4)
    write_dataset(augment_dataset(generate_angular_dataset(spec, 2, 4), params), data)
    side = json.loads(sidecar_path(data).read_text())
    report = EvalReport("none", "1/4", 0.5, -3.0, 2, {"components": 4}, side)
    report_path, scenario = tmp_path / "report.json", tmp_path / "scenario.json"
    return [
        ("metadata sidecar", sidecar_path(data), lambda: read_dataset(data), side),
        ("report", report_path, lambda: read_report(report_path), report.to_dict()),
        ("scenario file", scenario, lambda: load_scenario(scenario), spec.to_dict()),
    ]


def test_records_reject_unknown_and_missing_fields(tmp_path):
    for what, path, read, valid in record_files(tmp_path):
        path.write_text(json.dumps({**valid, "extra": 1}))
        unknown = re.escape(f"{what} {path}: unknown fields: extra")
        with pytest.raises(FileFormatError, match=unknown):
            read()
        if what == "metadata sidecar":
            # Every provenance field has a default; an augmentation record's seed has none.
            record = {k: v for k, v in valid["augmentations"][0].items() if k != "seed"}
            broken, field = {**valid, "augmentations": [record]}, "seed"
        else:
            field = "label" if what == "report" else "gain_decay"
            broken = {k: v for k, v in valid.items() if k != field}
        path.write_text(json.dumps(broken))
        missing = re.escape(f"{what} {path}: missing fields: {field}")
        with pytest.raises(FileFormatError, match=missing):
            read()


@pytest.mark.parametrize(
    "what,field,value,message",
    [
        ("report", "label", None, "label must be a string"),
        ("report", "ratio", 0.25, "ratio must be a string"),
        ("report", "ratio", "abc", "cannot parse ratio 'abc'"),
        ("report", "ratio", "2/8", "ratio must be in lowest terms, like '1/4', got '2/8'"),
        ("report", "ratio", "0.25", "ratio must be in lowest terms, like '1/4', got '0.25'"),
        ("report", "codec_info", [["components", 4]], "codec_info must be a JSON object"),
        ("report", "test_provenance", [["seed", 6]], "test_provenance must be a JSON object"),
        ("metadata sidecar", "scenario", [["subcarriers", 8]], "scenario must be a JSON object"),
        ("metadata sidecar", "parameters", [["shift", 1]], "parameters must be a JSON object"),
        ("metadata sidecar", "method", 5, "method must be a string"),
        ("metadata sidecar", "augmentations", ["rg"], "AugmentationRecord must be a JSON object"),
        ("metadata sidecar", "augmentations", 5, "augmentations must be a JSON array, got 5"),
        ("metadata sidecar", "augmentations", None, "augmentations must be a JSON array, got None"),
        ("metadata sidecar", "augmentations", "ab", "augmentations must be a JSON array, got 'ab'"),
    ],
)
def test_records_check_fields_instead_of_converting_them(tmp_path, what, field, value, message):
    path, read, valid = next((p, r, v) for kind, p, r, v in record_files(tmp_path) if kind == what)
    if field in valid:
        broken = {**valid, field: value}
    else:
        broken = {**valid, "augmentations": [{**valid["augmentations"][0], field: value}]}
    path.write_text(json.dumps(broken))
    with pytest.raises(FileFormatError, match=re.escape(f"{what} {path}: {message}")):
        read()


@pytest.mark.parametrize("cls", [AugmentationRecord, Provenance, EvalReport, ScenarioSpec])
def test_records_reject_a_non_object(cls):
    with pytest.raises(ValueError, match=re.escape(f"{cls.__name__} must be a JSON object, got []")):
        cls.from_dict([])
