"""Streamed gen and transform: the bytes of the in-memory path, every check
per chunk, no file or handle left behind, and memory flat in the count."""

import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from csiaug import cli, core, dataset_io
from csiaug.channel import generate_dataset, load_scenario
from csiaug.core import Dataset, Domain
from csiaug.dataset_io import CorruptedFileError, read_dataset, sidecar_path, write_dataset
from csiaug.transform import inverse_transform_dataset, transform_dataset

PRESET = Path(__file__).resolve().parents[1] / "scenarios" / "motion-range-train.json"
CHUNK = core._chunk_samples(1024, 32)  # samples per chunk of the preset's 1024 x 32 samples
LONG = 3 * CHUNK + 5  # three full chunks and a short one


def run(*argv):
    return cli.run([str(a) for a in argv])


def chain(tmp_path, count, tag=""):
    """gen, transform --na 32 and transform --nc 1024 of the preset; the three paths."""
    f, a, b = (tmp_path / f"{name}{tag}.csia" for name in ("f", "a", "b"))
    assert run("gen", "--scenario", PRESET, "--count", count, "--out", f) == 0
    assert run("transform", "--in", f, "--na", 32, "--out", a) == 0
    assert run("transform", "--in", a, "--nc", 1024, "--out", b) == 0
    return f, a, b


def files(path):
    return path.read_bytes(), sidecar_path(path).read_bytes()


@pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, LONG])
def test_streamed_files_equal_in_memory_files(tmp_path, capsys, count):
    f, a, b = chain(tmp_path, count)
    mf, ma, mb = (tmp_path / f"m{name}.csia" for name in ("f", "a", "b"))
    write_dataset(generate_dataset(load_scenario(PRESET), count), mf)
    write_dataset(transform_dataset(read_dataset(f), 32), ma)
    write_dataset(inverse_transform_dataset(read_dataset(a), 1024), mb)
    for streamed, in_memory in ((f, mf), (a, ma), (b, mb)):
        assert files(streamed) == files(in_memory)


def test_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, capsys):
    default = chain(tmp_path, LONG)
    # One sample per chunk, then the whole dataset in one chunk.
    for tag, budget in (("one", 1), ("all", 1 << 40)):
        monkeypatch.setattr(core, "_CHUNK_BYTES", budget)
        for path, other in zip(default, chain(tmp_path, LONG, tag)):
            assert files(path) == files(other)


def open_fds():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd to count open files")
    return len(os.listdir("/proc/self/fd"))


def preset_input(tmp_path):
    """A LONG-sample preset dataset, outside the directory the tests write into."""
    path = tmp_path / "in.csia"
    assert run("gen", "--scenario", PRESET, "--count", LONG, "--out", path) == 0
    (tmp_path / "out").mkdir()
    return path, tmp_path / "out" / "a.csia"


def poke(path, sample, values):
    """Overwrite the leading float32 entries of ``sample`` with ``values``."""
    raw = bytearray(path.read_bytes())
    struct.pack_into(f"<{len(values)}f", raw, 20 + sample * 1024 * 32 * 8, *values)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("sample", [0, LONG - 1], ids=["first-chunk", "last-chunk"])
def test_transform_rejects_a_non_finite_entry_in_any_chunk(tmp_path, capsys, sample):
    src, out = preset_input(tmp_path)
    poke(src, sample, [np.nan])
    fds = open_fds()
    assert run("transform", "--in", src, "--na", 32, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: {src}: dataset payload invalid: dataset samples must be finite\n")
    assert list(out.parent.iterdir()) == []
    assert open_fds() == fds


def test_transform_output_overflow_in_the_last_chunk_leaves_nothing(tmp_path, capsys):
    # 1024 subcarriers of 3e38 sum to 1e40 in delay row 0, past float32.
    src, out = preset_input(tmp_path)
    poke(src, LONG - 1, [3e38, 0.0] * 1024 * 32)
    fds = open_fds()
    assert run("transform", "--in", src, "--na", 32, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {out}: dataset samples overflow 32-bit floats\n"
    assert list(out.parent.iterdir()) == []
    assert open_fds() == fds


def test_write_dataset_rejects_overflow_in_the_last_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_CHUNK_BYTES", 2 * 16 * 8 * 4)  # 2 samples of 8 x 4
    samples = np.zeros((7, 8, 4), dtype=complex)
    samples[-1, -1, -1] = 1e39
    path = tmp_path / "big.csia"
    with pytest.raises(ValueError, match="big.csia.*32-bit"):
        write_dataset(Dataset(samples, Domain.ANGULAR_DELAY), path)
    assert list(tmp_path.iterdir()) == []


def test_abandoned_readers_close_their_file(tmp_path, capsys):
    src, out = preset_input(tmp_path)
    fds = open_fds()
    # Left after one chunk, and left by an exception before the first.
    with dataset_io._open_dataset(src) as (head, chunks):
        assert next(chunks(CHUNK)).shape == (CHUNK, 1024, 32)
    assert run("transform", "--in", src, "--nc", 1024, "--out", out) == 2
    poke(src, LONG - 1, [np.inf])
    with pytest.raises(CorruptedFileError, match="finite"):
        read_dataset(src)
    assert open_fds() == fds
    assert list(out.parent.iterdir()) == []


def traced(argv):
    """Exit code of ``cli.run(argv)`` and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = run(*argv)
        return code, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_gen_and_transform_memory_does_not_grow_with_count(tmp_path, capsys):
    peaks = {}
    for count in (200, 1600):
        f, a = tmp_path / "f.csia", tmp_path / "a.csia"
        gen = traced(["gen", "--scenario", PRESET, "--count", count, "--out", f])
        transform = traced(["transform", "--in", f, "--na", 32, "--out", a])
        assert (gen[0], transform[0]) == (0, 0)
        peaks[count] = gen[1], transform[1]
        f.unlink()
    for small, large in zip(peaks[200], peaks[1600]):
        assert large <= 1.1 * small, peaks
