"""Measurement helpers: order statistics, spans, child processes, environment.

Nothing here imports csiaug (the workloads module does), and numpy is
imported only inside the environment helpers.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

MB = 1024 * 1024

# Candidate tail percentiles in per mille, highest first; the tail is the
# first one with at least MIN_BEYOND samples ranked above it.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    samples: int
    beyond: int

    @property
    def meets_rule(self) -> bool:
        return self.beyond >= MIN_BEYOND


def tail_percentile(values: Sequence[float]) -> Tail:
    """Highest ladder percentile (nearest rank) with ``MIN_BEYOND`` samples above it.

    With fewer than ``2 * MIN_BEYOND`` samples no ladder percentile
    qualifies; the maximum is returned as percentile 100 with 0 beyond,
    and ``Tail.meets_rule`` says so.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    for permille in TAIL_LADDER_PERMILLE:
        rank = -(-permille * n // 1000)  # nearest rank, exact integer ceiling
        if n - rank >= MIN_BEYOND:
            return Tail(ordered[rank - 1], permille / 10, n, n - rank)
    return Tail(ordered[-1], 100.0, n, 0)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    iteration: int
    start: float
    end: float = math.nan
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


class Tracer:
    """In-memory span recorder for one single-threaded run.

    ``alloc=True`` spans run under ``tracemalloc`` and record the peak
    traced allocation in MB; such spans must not nest in one another.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.iteration = -1
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, alloc: bool = False) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        if alloc:
            tracemalloc.start()
        record = Span(len(self.spans), name, parent, self.iteration, self.clock())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()
            if alloc:
                record.counts["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        counts: Callable[..., dict[str, float]],
        alloc: bool,
    ) -> Callable:
        """``fn`` inside a span; ``name`` and ``counts`` see (args, kwargs[, result])."""

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label, alloc) as record:
                result = fn(*args, **kwargs)
            record.counts["calls"] = 1
            record.counts.update(counts(args, kwargs, result))
            return result

        return traced


@dataclass(frozen=True)
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: Sequence[str], env: dict[str, str], cwd: Path, log: Path) -> ChildRun:
    """Run one child to completion; its own rusage comes from ``os.wait4``."""
    start = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(list(argv), env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    # The child is already reaped; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources, path and content."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` if it is the top of a git work tree, else None."""
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def environment(root: Path) -> dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "executable": Path(sys.executable).name,
    }
