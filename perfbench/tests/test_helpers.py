"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import csiaug  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from measure import Span, Tracer, run_child, self_times, tail_percentile  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root"):            # 0 .. 10
        clock.now = 1.0
        with tracer.span("a"):           # 1 .. 3
            clock.now = 3.0
        clock.now = 4.0
        with tracer.span("b"):           # 4 .. 8
            clock.now = 5.0
            with tracer.span("b.leaf"):  # 5 .. 6
                clock.now = 6.0
            clock.now = 8.0
        clock.now = 10.0
    own = self_times(tracer.spans)
    assert {s.name: own[s.id] for s in tracer.spans} == {"root": 4.0, "a": 2.0, "b": 3.0,
                                                          "b.leaf": 1.0}
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span(0, "p", None, 0, 0.0, 10.0),
        Span(1, "c1", 0, 0, 1.0, 4.0),
        Span(2, "c2", 0, 0, 3.0, 6.0),   # overlaps c1 on [3, 4]
        Span(3, "c3", 0, 0, 9.0, 12.0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_alloc_span_records_traced_peak():
    tracer = Tracer()
    with tracer.span("alloc", alloc=True):
        block = np.ones(8 * 1024 * 1024 // 8)
        del block
    assert tracer.spans[0].counts["alloc_peak_mb"] >= 8.0


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1000, 99.0, 10), (200, 95.0, 10), (150, 90.0, 15), (100, 90.0, 10), (40, 75.0, 10),
     (20, 50.0, 10)],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, percentile, beyond):
    values = [float(v) for v in range(1, n + 1)]
    tail = tail_percentile(values[::-1])
    assert (tail.percentile, tail.beyond, tail.samples) == (percentile, beyond, n)
    assert tail.value == values[n - beyond - 1]
    assert tail.meets_rule


@pytest.mark.parametrize("n", [1, 2, 5, 19])
def test_tail_falls_back_to_max_below_twenty_samples(n):
    values = [0.5 * v for v in range(n)]
    tail = tail_percentile(values)
    assert (tail.value, tail.percentile, tail.samples, tail.beyond) == (max(values), 100.0, n, 0)
    assert not tail.meets_rule


def test_child_rss_is_each_childs_own(tmp_path):
    big = run_child([sys.executable, "-c", "b = bytearray(160 * 1024 * 1024)"], {}, tmp_path,
                    tmp_path / "big.log")
    small = run_child([sys.executable, "-c", "pass"], {}, tmp_path, tmp_path / "small.log")
    failing = run_child([sys.executable, "-c", "raise SystemExit(3)"], {}, tmp_path,
                        tmp_path / "fail.log")
    assert (big.code, small.code, failing.code) == (0, 0, 3)
    assert big.peak_rss_mb >= 160
    # Reaped after the big one, yet reports only its own high-water mark.
    assert small.peak_rss_mb < 100
    assert small.wall_s > 0 and big.cpu_s > 0


def test_blas_threads_are_capped_whatever_is_inherited():
    environ = {"OPENBLAS_NUM_THREADS": "8", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "x"}
    run.cap_blas_threads(environ, 2)
    assert environ == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "2"}
    environ = {"OPENBLAS_NUM_THREADS": "0"}
    run.cap_blas_threads(environ, 2)
    assert environ == dict.fromkeys(run.BLAS_THREAD_VARS, "2")


def test_same_seed_gives_identical_inputs():
    assert workloads.derive(7, 3, 0) == workloads.derive(7, 3, 0)
    seeds = {workloads.derive(s, k, r) for s in (7, 8) for k in range(3) for r in range(3)}
    assert len(seeds) == 18
    spec = csiaug.load_scenario(ROOT / workloads.TRAIN_SCENARIO)

    def inputs(seed):
        return csiaug.generate_angular_dataset(
            spec.with_seed(workloads.derive(seed, 0, workloads.ROLE_TRAIN)), 8, 4).samples

    assert inputs(7).tobytes() == inputs(7).tobytes()
    assert inputs(7).tobytes() != inputs(8).tobytes()
    chain = [workloads.CliChain(ROOT, seed, BENCH / "unused") for seed in (7, 7, 8)]
    where = Path("w")
    assert chain[0].commands(2, where) == chain[1].commands(2, where)
    assert chain[0].commands(2, where) != chain[2].commands(2, where)


def test_bubble_steps_count_capped_moves():
    column = np.zeros((1, 4, 2), dtype=complex)
    column[0, 1, 0] = 1.0  # peak in row 1: room 2 down, 1 up
    column[0, 3, 1] = 1.0  # peak in the last row: room 0 down, 3 up
    ds = csiaug.Dataset(column, csiaug.Domain.ANGULAR_DELAY)
    assert workloads.bubble_steps(ds, "bs-down", 4) == (2, 8)
    assert workloads.bubble_steps(ds, "bs-up", 4) == (4, 8)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.unit_of(name) for name in run.per_layer_names()}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
