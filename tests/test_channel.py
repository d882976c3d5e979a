"""Tests for the synthetic multipath channel generator."""

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from csiaug import _openblas, channel, core
from csiaug.channel import (
    ScenarioSpec,
    _source,
    generate_angular_dataset,
    generate_dataset,
    load_scenario,
    save_scenario,
)
from csiaug.core import Domain
from csiaug.rng import make_generator
from csiaug.transform import transform_dataset

ROOT = Path(__file__).resolve().parent.parent
PRESET_DIR = ROOT / "scenarios"
PRESETS = ["motion-range-train", "motion-range-test", "motion-mode-train", "motion-mode-test"]


def small_spec(**overrides):
    base = dict(
        subcarriers=32,
        antennas=8,
        paths=3,
        delay_range=(1.0, 5.0),
        angle_range=(-0.4, 0.4),
        gain_decay=0.5,
        seed=42,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError, match="delay_range"):
        small_spec(delay_range=(5.0, 1.0))
    with pytest.raises(ValueError, match="delay_range"):
        small_spec(delay_range=(-1.0, 5.0))
    with pytest.raises(ValueError, match="delay_range"):
        small_spec(delay_range=(1.0, 32.0))  # hi must stay below subcarriers
    with pytest.raises(ValueError, match="angle_range"):
        small_spec(angle_range=(-2.0, 0.0))
    with pytest.raises(ValueError, match="angle_range"):
        small_spec(angle_range=(0.4, -0.4))
    with pytest.raises(ValueError, match="gain_decay"):
        small_spec(gain_decay=-0.1)
    with pytest.raises(ValueError, match="gain_decay"):
        small_spec(gain_decay=math.inf)
    with pytest.raises(ValueError, match="paths"):
        small_spec(paths=0)
    with pytest.raises(ValueError, match="seed"):
        small_spec(seed=-1)


def test_spec_normalizes_and_path_gains():
    spec = small_spec(gain_decay=0.5, paths=4)
    assert spec.delay_range == (1.0, 5.0)
    assert np.allclose(spec.path_gains(), np.exp(-0.5 * np.arange(4)))
    assert spec.path_gains()[0] == 1.0
    two = spec.with_seed(7)
    assert two.seed == 7 and two.delay_range == spec.delay_range


def test_spec_dict_round_trip():
    spec = small_spec()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError, match="unknown"):
        ScenarioSpec.from_dict({**spec.to_dict(), "bandwidth": 20})
    partial = spec.to_dict()
    del partial["gain_decay"]
    with pytest.raises(ValueError, match="missing"):
        ScenarioSpec.from_dict(partial)


def test_scenario_file_round_trip(tmp_path):
    spec = small_spec()
    path = tmp_path / "scenario.json"
    save_scenario(spec, path)
    assert load_scenario(path) == spec
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="JSON object"):
        load_scenario(path)
    # Truncated JSON and non-UTF-8 bytes name the file too.
    for raw in (b'{"subcarriers": 32, ', b"\xff\xfe{}"):
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"scenario file {path}"):
            load_scenario(path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("delay_range", 5),
        ("subcarriers", None),
        ("seed", None),
        ("subcarriers", 1024.9),
        ("paths", True),
        ("seed", 3001.7),
        ("gain_decay", True),
        ("gain_decay", "0.5"),
        ("delay_range", "08"),
        ("angle_range", [-0.1, "0.1"]),
    ],
)
def test_malformed_scenario_field_names_file_and_field(tmp_path, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**small_spec().to_dict(), field: value}))
    with pytest.raises(ValueError, match=rf"{path}.*{field}"):
        load_scenario(path)


def test_generation_is_deterministic():
    spec = small_spec()
    a = generate_dataset(spec, 6)
    b = generate_dataset(spec, 6)
    assert np.array_equal(a.samples, b.samples)
    c = generate_dataset(spec.with_seed(43), 6)
    assert not np.array_equal(a.samples, c.samples)


def test_generation_matches_per_sample_draws():
    spec = small_spec()
    ds = generate_dataset(spec, 5)
    assert ds.domain is Domain.SPATIAL_FREQUENCY
    assert ds.sample_shape == (32, 8)
    n = np.arange(32)[:, None]
    a = np.arange(8)[None, :]
    for i in range(5):
        # Sample i draws (delays, angles, phases) from stream (seed, i)
        # and evaluates the model in the module docstring.
        rng = make_generator(spec.seed, i)
        tau = rng.uniform(*spec.delay_range, spec.paths)
        theta = rng.uniform(*spec.angle_range, spec.paths)
        phi = rng.uniform(-np.pi, np.pi, spec.paths)
        want = sum(
            g
            * np.exp(1j * p)
            * np.exp(-2j * np.pi * n * t / 32)
            * np.exp(-1j * np.pi * a * np.sin(th))
            for g, t, th, p in zip(spec.path_gains(), tau, theta, phi)
        )
        assert np.abs(ds.samples[i] - want).max() < 1e-12 * np.abs(want).max()


def test_adjacent_seeds_share_no_sample():
    # Seeds 0 and 1 name disjoint streams: no sample of one dataset
    # reappears anywhere in the other (a train/test leak otherwise).
    first = generate_dataset(small_spec(seed=0), 8).samples
    second = generate_dataset(small_spec(seed=1), 8).samples
    shared = {a.tobytes() for a in first} & {b.tobytes() for b in second}
    assert not shared


def test_generation_prefix_stability():
    # extending the dataset must not change earlier samples
    spec = small_spec()
    short = generate_dataset(spec, 4)
    long = generate_dataset(spec, 9)
    assert np.array_equal(long.samples[:4], short.samples)


def test_generation_provenance_embeds_scenario():
    spec = small_spec()
    ds = generate_dataset(spec, 2)
    assert ds.meta.seed == spec.seed
    assert ds.meta.augmentations == ()
    assert ScenarioSpec.from_dict(ds.meta.scenario) == spec


def fft_oracle(spec, count, delay_bins):
    """The staged path: all subcarriers, then the truncated FFT."""
    return transform_dataset(generate_dataset(spec, count), delay_bins)


def assert_matches_fft_oracle(spec, count, delay_bins):
    # The closed form moves bytes by roundoff only: 1e-12 of the largest entry.
    fused = generate_angular_dataset(spec, count, delay_bins)
    staged = fft_oracle(spec, count, delay_bins)
    assert fused.domain is Domain.ANGULAR_DELAY
    assert fused.meta == staged.meta
    error = np.abs(fused.samples - staged.samples).max()
    assert error <= 1e-12 * np.abs(staged.samples).max()


def chunk_spec():
    return ScenarioSpec(
        subcarriers=16,
        antennas=4,
        paths=2,
        delay_range=(0.0, 6.0),
        angle_range=(-0.5, 0.5),
        gain_decay=0.3,
        seed=9,
    )


def test_generate_angular_matches_transform_of_generated():
    assert_matches_fft_oracle(small_spec(), 20, 12)


@pytest.fixture
def chunk_512(monkeypatch):
    """512 samples per chunk at chunk_spec's 8 delay rows by 4 antennas."""
    monkeypatch.setattr(core, "_CHUNK_BYTES", 512 * 16 * 8 * 4)


def test_generate_angular_matches_across_chunk_boundary(chunk_512):
    assert_matches_fft_oracle(chunk_spec(), 520, 8)


@pytest.mark.parametrize("name", PRESETS)
def test_generate_angular_matches_fft_oracle_on_presets(name):
    assert_matches_fft_oracle(load_scenario(PRESET_DIR / f"{name}.json"), 64, 32)


@pytest.mark.parametrize("subcarriers", [32, 1024])
@pytest.mark.parametrize("tau", ["Nc-1e-12", 5 - 1e-12, 5 + 1e-12, 5.0])
def test_generate_angular_matches_fft_oracle_at_delay_edges(subcarriers, tau):
    # A delay just below Nc aliases onto row 0 (d = k - tau near -Nc); delays
    # a hair off an integer put d near 0 on one row and near integers on the rest.
    if tau == "Nc-1e-12":
        tau = subcarriers - 1e-12
    assert_matches_fft_oracle(small_spec(subcarriers=subcarriers, delay_range=(tau, tau)), 4, 32)


def unreduced_kernel(d, nc):
    """The delay kernel with sin(pi d / Nc) taken directly, not reduced mod Nc."""
    m = np.round(d)
    numerator = (-1.0) ** m * np.sin(np.pi * (d - m))
    phase = np.exp(1j * np.pi * d * (nc - 1) / nc)
    return phase * numerator / (math.sqrt(nc) * np.sin(np.pi * d / nc))


def test_unreduced_denominator_misses_the_oracle_near_nc():
    # With tau = Nc - 1e-12, sin(pi d / Nc) sits at -pi + 1e-13, where the
    # rounding of pi alone is a 1e-3 relative error: the tolerance above
    # rejects that form, so the delay-edge case pins the reduction mod Nc.
    tau = 32 - 1e-12
    spec = small_spec(antennas=1, paths=1, delay_range=(tau, tau), angle_range=(0.0, 0.0))
    staged = fft_oracle(spec, 1, 32).samples[0, :, 0]
    rng = make_generator(spec.seed, 0)
    rng.uniform(*spec.delay_range, 1)
    rng.uniform(*spec.angle_range, 1)
    phi = rng.uniform(-np.pi, np.pi, 1)
    unreduced = unreduced_kernel(np.arange(32) - tau, 32) * np.exp(1j * phi)
    tolerance = 1e-12 * np.abs(staged).max()
    # The same kernel, off by far more than roundoff but far less than a wrong formula.
    assert tolerance < np.abs(unreduced - staged).max() < 1e-2 * np.abs(staged).max()
    fused = generate_angular_dataset(spec, 1, 32).samples[0, :, 0]
    assert np.abs(fused - staged).max() <= tolerance


def test_generate_angular_is_batch_independent(chunk_512):
    # Sample 512 is alone in its chunk of the 513-sample call and one of
    # eight in the 520-sample call: its bytes must not notice.
    long = generate_angular_dataset(chunk_spec(), 520, 8).samples
    short = generate_angular_dataset(chunk_spec(), 513, 8).samples
    assert long[:513].tobytes() == short.tobytes()


def test_generate_angular_bytes_do_not_depend_on_blas_threads():
    # Both paths run their per-sample products through zgemm: the angular
    # one at 600 samples, the frequency-domain one (csiaug gen) at 64.
    code = (
        "import hashlib, sys\n"
        "from csiaug.channel import generate_angular_dataset, generate_dataset, load_scenario\n"
        "spec = load_scenario(sys.argv[1])\n"
        "angular = generate_angular_dataset(spec, 600, 32).samples\n"
        "frequency = generate_dataset(spec, 64).samples\n"
        "print(hashlib.sha256(angular.tobytes()).hexdigest(),"
        " hashlib.sha256(frequency.tobytes()).hexdigest())"
    )
    preset = PRESET_DIR / "motion-range-test.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    digests = set()
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        child = subprocess.run(
            [sys.executable, "-c", code, str(preset)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(tuple(child.stdout.split()))
    spec = load_scenario(preset)
    here = generate_angular_dataset(spec, 600, 32).samples, generate_dataset(spec, 64).samples
    digests.add(tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in here))
    assert len(digests) == 1


@pytest.fixture
def blas_threads():
    """NumPy's OpenBLAS, set to two threads so that a pin to one shows."""
    blas = _openblas._blas()
    if blas is None:
        pytest.skip("NumPy does not bundle scipy-openblas's thread controls")
    before = blas.get_num_threads()
    blas.set_num_threads(2)
    yield blas
    blas.set_num_threads(before)


def record_threads(monkeypatch, blas, name, fail=False):
    """Thread counts seen by each call of ``channel.<name>``; for the
    ``_one_thread`` pin, the count inside each pinned block."""
    seen, original = [], getattr(channel, name)

    def record():
        seen.append(blas.get_num_threads())
        if fail:
            raise RuntimeError("synthesis failed")

    @contextlib.contextmanager
    def pinned():
        with original():
            record()
            yield

    def called(*args):
        record()
        return original(*args)

    monkeypatch.setattr(channel, name, pinned if name == "_one_thread" else called)
    return seen


def test_frequency_synthesis_runs_on_one_blas_thread(monkeypatch, blas_threads):
    seen = record_threads(monkeypatch, blas_threads, "_one_thread")
    generate_dataset(small_spec(), 40)
    assert seen == [1]
    assert blas_threads.get_num_threads() == 2


def test_failed_frequency_synthesis_restores_blas_threads(monkeypatch, blas_threads):
    seen = record_threads(monkeypatch, blas_threads, "_one_thread", fail=True)
    with pytest.raises(RuntimeError, match="synthesis failed"):
        generate_dataset(small_spec(), 4)
    assert seen == [1]
    assert blas_threads.get_num_threads() == 2


def test_frequency_stream_consumer_runs_at_the_callers_blas_threads(monkeypatch, blas_threads):
    seen = record_threads(monkeypatch, blas_threads, "_one_thread")
    stream = _source(small_spec(), 12, 32, Domain.SPATIAL_FREQUENCY)
    between = [blas_threads.get_num_threads() for _ in stream.chunks(4)]
    assert seen == [1, 1, 1] and between == [2, 2, 2]
    # A consumer that stops after the first chunk closes the generator.
    chunks = stream.chunks(4)
    next(chunks)
    chunks.close()
    assert seen == [1, 1, 1, 1]
    assert blas_threads.get_num_threads() == 2


def test_concurrent_frequency_synthesis_restores_blas_threads(blas_threads):
    # A pin that read another thread's one-thread count would restore it.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(generate_dataset, small_spec(), 40) for _ in range(200)]
            done = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert len(done) == 200
    assert blas_threads.get_num_threads() == 2


def test_angular_synthesis_runs_at_the_callers_blas_threads(monkeypatch, blas_threads):
    seen = record_threads(monkeypatch, blas_threads, "_synthesize_angular")
    generate_angular_dataset(small_spec(), 40, 8)
    assert seen == [2]
    assert blas_threads.get_num_threads() == 2


def test_generation_without_thread_controls_is_the_same(monkeypatch):
    want = generate_dataset(small_spec(), 40).samples
    monkeypatch.setattr(_openblas, "_blas", lambda: None)
    assert generate_dataset(small_spec(), 40).samples.tobytes() == want.tobytes()


def test_single_integer_delay_concentrates_energy():
    spec = small_spec(paths=1, delay_range=(3.0, 3.0), gain_decay=0.0)
    ds = generate_angular_dataset(spec, 10, 32)
    power = np.abs(ds.samples) ** 2
    total = power.sum(axis=(1, 2))
    in_row = power[:, 3, :].sum(axis=1)
    assert np.all(in_row / total > 1.0 - 1e-10)


def test_delay_spread_bounds_angular_peak_rows():
    spec = small_spec()  # delays in [1, 5]
    ds = generate_angular_dataset(spec, 200, 32)
    peak_rows = np.argmax(np.abs(ds.samples).max(axis=2), axis=1)
    # fractional delays leak, so allow one bin of slack around the range
    inside = np.mean((peak_rows >= 0) & (peak_rows <= 6))
    assert inside >= 0.95


def test_energy_bounded_by_path_gains():
    spec = small_spec(paths=4, gain_decay=0.3)
    ds = generate_dataset(spec, 30)
    bound = math.sqrt(32 * 8) * spec.path_gains().sum()
    norms = np.linalg.norm(ds.samples, axis=(1, 2))
    assert np.all(norms <= bound * (1 + 1e-12))


def test_counts_validated():
    spec = small_spec()
    assert len(generate_dataset(spec, 0)) == 0
    assert len(generate_angular_dataset(spec, 0, 8)) == 0
    with pytest.raises(ValueError, match="count"):
        generate_dataset(spec, -1)
    with pytest.raises(ValueError, match="count"):
        generate_angular_dataset(spec, -1, 8)
    for count in (2.9, True, "3"):
        with pytest.raises(ValueError, match="count must be an integer"):
            generate_dataset(spec, count)
        with pytest.raises(ValueError, match="count must be an integer"):
            generate_angular_dataset(spec, count, 8)


@pytest.mark.parametrize("name", PRESETS)
def test_shipped_presets_load(name):
    spec = load_scenario(PRESET_DIR / f"{name}.json")
    assert spec.subcarriers == 1024
    assert spec.antennas == 32
    assert spec.delay_range[1] <= 16.0


@pytest.mark.parametrize("name", PRESETS)
def test_shipped_presets_rewrite_byte_for_byte(tmp_path, name):
    preset = PRESET_DIR / f"{name}.json"
    copy = tmp_path / "copy.json"
    save_scenario(load_scenario(preset), copy)
    assert copy.read_bytes() == preset.read_bytes()


def test_save_scenario_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "scenario.json"
    save_scenario(small_spec(), path)
    before = path.read_bytes()

    def crash(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="rename failed"):
        save_scenario(small_spec(seed=7), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


def test_shipped_preset_pairs_shift_delay_profile():
    def mean_peak_row(spec, n=60):
        ds = generate_angular_dataset(spec.with_seed(1234), n, 32)
        return np.argmax(np.abs(ds.samples).max(axis=2), axis=1).mean()

    range_train = load_scenario(PRESET_DIR / "motion-range-train.json")
    range_test = load_scenario(PRESET_DIR / "motion-range-test.json")
    assert mean_peak_row(range_test) > mean_peak_row(range_train)

    mode_train = load_scenario(PRESET_DIR / "motion-mode-train.json")
    mode_test = load_scenario(PRESET_DIR / "motion-mode-test.json")
    assert mean_peak_row(mode_test) < mean_peak_row(mode_train)
