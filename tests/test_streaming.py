"""Streamed gen, transform, augment, fit, eval and sweep: the bytes of the
in-memory path, every check per chunk, no file or handle left behind, and
memory flat in the count (gen, transform, fit, eval, sweep), no complex copy of
the set (augment, fit, sweep) and no eigensolver copies (the fit child's peak
resident size)."""

import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from csiaug import cli, codec, core, dataset_io
from csiaug.augment import augment_dataset
from csiaug.channel import generate_dataset, load_scenario
from csiaug.codec import fit_codec
from csiaug.core import (
    AugmentMethod, AugmentMode, AugmentParams, Dataset, Domain, Provenance, ShiftDirection,
)
from csiaug.dataset_io import (
    CorruptedFileError, read_dataset, sidecar_path, write_codec, write_dataset,
)
from csiaug.transform import inverse_transform_dataset, transform_dataset

ROOT = Path(__file__).resolve().parents[1]
PRESET = ROOT / "scenarios" / "motion-range-train.json"
SRC = ROOT / "src"
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
    with dataset_io._open_dataset(src) as stream:
        assert next(stream.chunks(CHUNK)).shape == (CHUNK, 1024, 32)
    assert run("transform", "--in", src, "--nc", 1024, "--out", out) == 2
    poke(src, LONG - 1, [np.inf])
    with pytest.raises(CorruptedFileError, match="finite"):
        read_dataset(src)
    assert open_fds() == fds
    assert list(out.parent.iterdir()) == []


def test_every_sink_rejects_a_short_stream(tmp_path):
    # The chunks hold one sample fewer than the count the stream announces.
    chunk = np.ones((4, 2, 3), dtype=complex)
    stream = core._Stream(Domain.ANGULAR_DELAY, 5, 2, 3, Provenance(), lambda step: iter([chunk]))
    with pytest.raises(ValueError, match="chunks hold 4 samples, expected 5"):
        stream.collect()
    with pytest.raises(ValueError, match="chunks hold 4 samples, expected 5"):
        dataset_io._write(tmp_path / "short.csia", stream)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match="chunks hold 4 samples, expected 5"):
        codec._fit(stream, Fraction(1))
    with pytest.raises(ValueError, match="chunks hold 4 samples, expected 5"):
        codec._evaluate(codec.LinearCodec(2, 3, 1, np.zeros(12), np.eye(12)), stream)
    # The fit serves its stream once: the mean and the scatter come from one read.
    calls = []
    whole = stream._replace(
        chunks=lambda step: calls.append(step) or iter([np.ones((5, 2, 3), dtype=complex)]))
    codec._fit(whole, Fraction(1))
    assert len(calls) == 1


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_writer_rejects_a_non_finite_chunk(tmp_path, value):
    # Neither a Dataset nor a reader serves one, so only a raw stream reaches
    # the check; its second chunk fails after the first was written.
    good, bad = np.ones((4, 2, 3), dtype=complex), np.ones((4, 2, 3), dtype=complex)
    bad[3, 1, 2] = value
    stream = core._Stream(Domain.ANGULAR_DELAY, 8, 2, 3, Provenance(),
                          lambda step: iter([good, bad]))
    with pytest.raises(ValueError, match="dataset samples must be finite"):
        dataset_io._write(tmp_path / "bad.csia", stream)
    assert list(tmp_path.iterdir()) == []


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


def test_fit_and_sweep_memory_does_not_grow_with_count(tmp_path, monkeypatch, capsys):
    # 16 x 16 samples in 64-sample chunks: the fit holds two 512 x 512
    # arrays and one block whatever the count, and a file sweep also its
    # fixed test set. Holding float64 features, the fit grew 4.6 and the
    # sweep 5.7 times from 600 to 4800 training samples.
    rows = cols = 16
    monkeypatch.setattr(core, "_CHUNK_BYTES", 64 * 16 * rows * cols)
    test = random_file(tmp_path / "test.csia", 50, rows=rows, cols=cols, seed=1)
    peaks = {}
    for count in (600, 4800):
        train = random_file(tmp_path / "train.csia", count, rows=rows, cols=cols)
        fit = traced(["fit", "--train", train, "--ratio", "1/4", "--out", tmp_path / "c.csic"])
        sweep = traced(["sweep", "--train", train, "--test", test, "--method", "bs-down",
                        "--values", "1", "--ratio", "1/4", "--out", tmp_path / "s.json"])
        assert (fit[0], sweep[0]) == (0, 0)
        peaks[count] = fit[1], sweep[1]
    for small, large in zip(peaks[600], peaks[4800]):
        assert large <= 1.1 * small, peaks


def test_eval_and_sweep_memory_does_not_grow_with_test_count(tmp_path, monkeypatch, capsys):
    # 16 x 16 samples in 64-sample chunks: an evaluation holds one chunk and
    # 16 bytes per sample whatever the count, and a file sweep also its fixed
    # training fits. Holding the test set, each grew 7.5 times from 600 to
    # 4800 test samples.
    rows = cols = 16
    monkeypatch.setattr(core, "_CHUNK_BYTES", 64 * 16 * rows * cols)
    train, c = random_file(tmp_path / "train.csia", 200, rows=rows, cols=cols), tmp_path / "c.csic"
    assert run("fit", "--train", train, "--ratio", "1/4", "--out", c) == 0
    peaks = {}
    for count in (600, 4800):
        test = random_file(tmp_path / "test.csia", count, rows=rows, cols=cols, seed=1)
        ev = traced(["eval", "--codec", c, "--test", test, "--out", tmp_path / "r.json"])
        sweep = traced(["sweep", "--train", train, "--test", test, "--method", "bs-down",
                        "--values", "1", "--ratio", "1/4", "--out", tmp_path / "s.json"])
        assert (ev[0], sweep[0]) == (0, 0)
        peaks[count] = ev[1], sweep[1]
    for small, large in zip(peaks[600], peaks[4800]):
        assert large <= 1.1 * small, peaks


def test_sweep_memory_holds_no_complex_copy_of_the_training_set(tmp_path, monkeypatch, capsys):
    # 2000 samples of 16 x 16 and a bs-down append pass: each fit holds two
    # 2.1 MB d x d arrays and a 2.1 MB block; the complex128 training set is
    # 8.2 MB and its augmented copy 16.4 MB. 5.8 MB measured here.
    count, rows, cols, step = 2000, 16, 16, 64
    train = random_file(tmp_path / "train.csia", count, rows=rows, cols=cols)
    test = random_file(tmp_path / "test.csia", 50, rows=rows, cols=cols, seed=1)
    monkeypatch.setattr(core, "_CHUNK_BYTES", step * 16 * rows * cols)
    dim = 2 * rows * cols
    bound = (2 * 8 * dim * dim + 8 * dim * codec._block_samples(dim) + 50 * rows * cols * 16
             + 8 * step * rows * cols * 16 + (1 << 20))
    assert bound < 2 * count * rows * cols * 16
    code, peak = traced(["sweep", "--train", train, "--test", test, "--method", "bs-down",
                         "--values", "1", "--ratio", "1/4", "--out", tmp_path / "s.json"])
    assert code == 0
    assert peak <= bound, (peak, bound)


def random_file(path, count, domain=Domain.ANGULAR_DELAY, rows=8, cols=4, seed=0):
    g = np.random.default_rng(seed)
    shape = (count, rows, cols)
    write_dataset(Dataset(g.standard_normal(shape) + 1j * g.standard_normal(shape), domain), path)
    return path


SAMPLE_BYTES = 16 * 8 * 4  # one complex128 sample of 8 x 4


@pytest.mark.parametrize("count", [2, 17, 53])
def test_cli_fit_equals_the_library_fit(tmp_path, monkeypatch, capsys, count):
    train = random_file(tmp_path / "train.csia", count, seed=count)
    want = tmp_path / "want.csic"
    write_codec(fit_codec(read_dataset(train), "1/4"), want)
    # One sample per chunk, three (a short last chunk for 17 and 53), the whole file.
    for budget in (1, 3 * SAMPLE_BYTES, 1 << 40):
        monkeypatch.setattr(core, "_CHUNK_BYTES", budget)
        got = tmp_path / f"got{budget}.csic"
        assert run("fit", "--train", train, "--ratio", "1/4", "--out", got) == 0
        assert got.read_bytes() == want.read_bytes()


def nan_in_last_chunk(path):
    random_file(path, 17)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, len(raw) - 4, np.nan)
    path.write_bytes(bytes(raw))


def truncated(path):
    random_file(path, 17)
    path.write_bytes(path.read_bytes()[:-8])


@pytest.mark.parametrize(
    "make,ratio,message",
    [
        (lambda p: random_file(p, 17, Domain.SPATIAL_FREQUENCY), "1/4",
         "codec training expects angular-delay samples, got spatial-frequency"),
        (lambda p: random_file(p, 1), "1/4", "codec training needs at least 2 samples, got 1"),
        (nan_in_last_chunk, "1/4", "dataset samples must be finite"),
        (truncated, "1/4", "payload length mismatch"),
        (lambda p: random_file(p, 17), "3/2", "exceeds feature dim 64"),
        (lambda p: random_file(p, 1), "3/2", "exceeds feature dim 64"),
    ],
    ids=["frequency-domain", "one-sample", "nan-in-last-chunk", "truncated", "ratio-above-1",
         "ratio-before-count"],
)
def test_cli_fit_rejects_bad_input_and_leaves_nothing(
        tmp_path, monkeypatch, capsys, make, ratio, message):
    monkeypatch.setattr(core, "_CHUNK_BYTES", 3 * SAMPLE_BYTES)
    train = tmp_path / "train.csia"
    make(train)
    (tmp_path / "out").mkdir()
    fds = open_fds()
    assert run("fit", "--train", train, "--ratio", ratio, "--out", tmp_path / "out" / "c.csic") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert list((tmp_path / "out").iterdir()) == []
    assert open_fds() == fds


def test_sweep_closes_its_training_file_however_it_ends(tmp_path, monkeypatch, capsys):
    # Both files are read again for each pass and stay open only while their
    # trial runs: after a summary, after a NaN in the training file found by
    # the first fit, and after one in the test file found by the first
    # evaluation.
    monkeypatch.setattr(core, "_CHUNK_BYTES", 3 * SAMPLE_BYTES)
    good, bad = random_file(tmp_path / "good.csia", 17), tmp_path / "bad.csia"
    nan_in_last_chunk(bad)
    test, out = random_file(tmp_path / "test.csia", 5, seed=5), tmp_path / "s.json"
    fds = open_fds()
    for train, test, code in ((good, test, 0), (bad, test, 1), (good, bad, 1)):
        out.unlink(missing_ok=True)
        assert run("sweep", "--train", train, "--test", test, "--method", "bs-down",
                   "--values", "1", "--ratio", "1/4", "--out", out) == code
        assert out.exists() == (code == 0)
        assert open_fds() == fds
    assert capsys.readouterr().err == 2 * (
        f"error: {bad}: dataset payload invalid: dataset samples must be finite\n")


def test_cli_fit_holds_no_complex_copy_of_the_training_set(tmp_path, monkeypatch, capsys):
    # 2000 samples of 16 x 16: the complex128 set is 8.2 MB; the scatter
    # matrix (allocated whole, though only its lower triangle is written),
    # dstemr's eigenvectors and a block 2.1 MB each, a 64-sample chunk
    # 0.4 MB. 4.7 MB measured here.
    count, rows, cols, step = 2000, 16, 16, 64
    train = random_file(tmp_path / "train.csia", count, rows=rows, cols=cols)
    monkeypatch.setattr(core, "_CHUNK_BYTES", step * 16 * rows * cols)
    dim = 2 * rows * cols
    bound = (2 * 8 * dim * dim + 8 * dim * codec._block_samples(dim)
             + step * rows * cols * (8 + 16) + (1 << 20))
    assert bound < count * rows * cols * 16
    code, peak = traced(["fit", "--train", train, "--ratio", "1/4", "--out", tmp_path / "c.csic"])
    assert code == 0
    assert peak <= bound, (peak, bound)


# Fits the file named first, in a child whose start-up and a tiny warm-up fit
# set the baseline, and prints how far the fit raised ru_maxrss, in bytes.
FIT_CHILD = """
import resource, sys
from csiaug import cli, core

train, warm, out, chunk = sys.argv[1:]
core._CHUNK_BYTES = int(chunk)
assert cli.run(["fit", "--train", warm, "--ratio", "1/4", "--out", out]) == 0
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert cli.run(["fit", "--train", train, "--ratio", "1/4", "--out", out]) == 0
print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base))
"""

# A child's ru_maxrss starts at its parent's resident size, so the fit child
# is started by a small launcher whose own size is below the child's baseline.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def fit_child_growth(tmp_path, count, rows, cols, step):
    """How far a ``csiaug fit`` of ``count`` random samples, read ``step`` at
    a time, raises the fit child's ru_maxrss, in bytes."""
    train = random_file(tmp_path / "train.csia", count, rows=rows, cols=cols)
    warm = random_file(tmp_path / "warm.csia", 8, rows=2, cols=2)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-c", FIT_CHILD,
         train, warm, tmp_path / "c.csic", str(step * rows * cols * 16)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(os.name != "posix", reason="needs resource.getrusage")
def test_fit_child_rss_holds_features_scatter_and_a_chunk(tmp_path, capsys):
    # 2048 samples of 16 x 32: 8.4 MB d x d arrays and a 2.1 MB block. The fit
    # holds the scatter matrix and dstemr's eigenvectors, never the 16.8 MB
    # of features, dsyevd's 16.8 MB workspace or NumPy's copies of the
    # input and output: growth was 20.6-20.9 MB here, and 30.0-30.9 MB
    # holding the features beside dsyevd. The slack covers BLAS buffers and
    # allocator rounding, 1 MB measured at one and two BLAS threads.
    count, rows, cols, step = 2048, 16, 32, 64
    dim = 2 * rows * cols
    chunk = step * rows * cols * (16 + 8)
    bound = 2 * 8 * dim * dim + 8 * dim * codec._block_samples(dim) + chunk + (4 << 20)
    growth = fit_child_growth(tmp_path, count, rows, cols, step)
    assert growth <= bound, (growth, bound)


@pytest.mark.skipif(os.name != "posix" or codec._madvise() is None,
                    reason="needs resource.getrusage and madvise(MADV_NOHUGEPAGE)")
def test_fit_child_rss_holds_the_scatter_triangle_and_the_eigenvectors(tmp_path, capsys):
    # 300 samples of 32 x 32, the preset's 2048 features: 33.6 MB d x d
    # arrays. dstemr writes all of its eigenvectors, but the fit writes only
    # the scatter's lower triangle, on 4 KiB pages: row i of 16 KiB reaches
    # about ceil(8 (i + 1) / 4096) of its 4 pages, so about 5/8 of the buffer
    # is resident (21.0 MB measured), within the 2/3 the bound allows.
    # Growth was 58.8 MB here, and 70.8-71.5 MB with the whole scatter
    # resident (its upper half written by the downdate, or the triangle on
    # 2 MiB pages). The slack covers BLAS buffers and allocator rounding, as
    # above.
    count, rows, cols, step = 300, 32, 32, 64
    dim = 2 * rows * cols
    chunk = step * rows * cols * (16 + 8)
    bound = (8 * dim * dim * 5 // 3 + 8 * dim * codec._block_samples(dim) + chunk
             + (4 << 20))
    growth = fit_child_growth(tmp_path, count, rows, cols, step)
    assert growth <= bound, (growth, bound)


METHODS = [
    AugmentParams(AugmentMethod.BUBBLE_SHIFT_UP, shift=2),
    AugmentParams(AugmentMethod.BUBBLE_SHIFT_DOWN, shift=3),
    AugmentParams(AugmentMethod.RANDOM_GENERATION, block_size=3, seed=11),
    AugmentParams(AugmentMethod.MODEL_DRIVEN, shift=1, seed=12, direction=ShiftDirection.UP),
]


def augment_argv(path, params, mode, out):
    used = "block" if params.method is AugmentMethod.RANDOM_GENERATION else "shift"
    value = params.block_size if used == "block" else params.shift
    return ["augment", "--in", path, "--method", params.method.value, f"--{used}", value,
            "--seed", params.seed, "--direction", params.direction.value,
            "--mode", mode.value, "--out", out]


@pytest.mark.parametrize("mode", list(AugmentMode), ids=lambda m: m.value)
@pytest.mark.parametrize("params", METHODS, ids=lambda p: p.method.value)
def test_streamed_augment_equals_the_in_memory_augment(tmp_path, monkeypatch, capsys,
                                                        params, mode):
    src = random_file(tmp_path / "in.csia", 17, seed=17)
    dataset = read_dataset(src)
    # The whole file in one batch, as one call of the batch primitives.
    monkeypatch.setattr(core, "_CHUNK_BYTES", 1 << 40)
    whole = augment_dataset(dataset, params, mode)
    want = tmp_path / "want.csia"
    write_dataset(whole, want)
    # One sample per chunk, three (a short last chunk), the whole file.
    for budget in (1, 3 * SAMPLE_BYTES, 1 << 40):
        monkeypatch.setattr(core, "_CHUNK_BYTES", budget)
        got = tmp_path / f"got{budget}.csia"
        assert run(*augment_argv(src, params, mode, got)) == 0
        assert files(got) == files(want)
        assert augment_dataset(dataset, params, mode) == whole


def test_cli_fit_of_an_augmented_file_equals_the_library_fit(tmp_path, monkeypatch, capsys):
    # 600 samples of 16 x 16 appended to 1200 fill two 512-sample blocks and
    # a short one, with the seam between originals and copies in the second.
    src = random_file(tmp_path / "in.csia", 600, rows=16, cols=16, seed=6)
    aug = tmp_path / "aug.csia"
    assert run(*augment_argv(src, METHODS[1], AugmentMode.APPEND, aug)) == 0
    want = tmp_path / "want.csic"
    write_codec(fit_codec(read_dataset(aug), "1/4"), want)
    # Seven samples per chunk, so chunks straddle every block edge, then the whole file.
    for budget in (7 * 16 * 16 * 16, 1 << 40):
        monkeypatch.setattr(core, "_CHUNK_BYTES", budget)
        got = tmp_path / f"got{budget}.csic"
        assert run("fit", "--train", aug, "--ratio", "1/4", "--out", got) == 0
        assert got.read_bytes() == want.read_bytes()


def test_cli_augment_holds_no_complex_copy_of_the_set(tmp_path, monkeypatch, capsys):
    # 2000 samples of 16 x 16: the complex128 set is 8.2 MB, its appended
    # output 16.4 MB, a 64-sample chunk 0.26 MB. Each method peaked at about
    # six chunks (1.5 MB) here, and at 33 MB reading the whole set.
    count, rows, cols, step = 2000, 16, 16, 64
    src = random_file(tmp_path / "in.csia", count, rows=rows, cols=cols)
    monkeypatch.setattr(core, "_CHUNK_BYTES", step * 16 * rows * cols)
    bound = 8 * step * rows * cols * 16 + (1 << 20)
    assert bound < count * rows * cols * 16 / 2
    for params in METHODS:
        code, peak = traced(augment_argv(src, params, AugmentMode.APPEND, tmp_path / "a.csia"))
        assert code == 0
        assert peak <= bound, (params.method, peak, bound)


@pytest.mark.parametrize("mode", list(AugmentMode), ids=lambda m: m.value)
def test_cli_augment_rejects_a_nan_in_the_last_chunk_and_leaves_nothing(
        tmp_path, monkeypatch, capsys, mode):
    monkeypatch.setattr(core, "_CHUNK_BYTES", 3 * SAMPLE_BYTES)
    src = tmp_path / "in.csia"
    nan_in_last_chunk(src)
    (tmp_path / "out").mkdir()
    fds = open_fds()
    argv = augment_argv(src, METHODS[1], mode, tmp_path / "out" / "a.csia")
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {src}: dataset payload invalid: dataset samples must be finite\n")
    assert list((tmp_path / "out").iterdir()) == []
    assert open_fds() == fds
