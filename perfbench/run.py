"""csiaug benchmark: one workload, plain or traced, from a source checkout.

    python3 perfbench/run.py --workload study --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout that holds ``src/csiaug`` and
``scenarios/``.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs an untraced and then a traced half and
reports the per-layer metrics.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (environment, every iteration, percentiles, spans) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from measure import Tracer, environment, nproc, run_child, self_times, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "iter_s_p50": "s", "iter_s_tail": "s", "cpu_s_p50": "s",
                    "peak_rss_mb": "MB"}

# Span name -> stats the traced run reports for it, each per iteration
# except alloc_peak_mb (the largest single call).
SPAN_LAYERS = {
    "channel.generate_angular_dataset": ("s", "samples"),
    "channel.generate_dataset": ("s", "samples", "alloc_peak_mb"),
    "transform.transform_dataset": ("s", "samples", "alloc_peak_mb"),
    **{f"augment.augment_dataset.{m}": ("s", "samples") for m in ("bs-down", "bs-up", "rg", "md")},
    "codec.fit_codec": ("s", "calls", "samples", "flop_computed"),
    "codec.evaluate": ("s", "samples"),
    **{f"dataset_io.{f}": ("s", "bytes", "alloc_peak_mb")
       for f in ("write_dataset", "read_dataset", "write_codec", "read_codec")},
}
CLI_SUBCOMMANDS = ("gen", "transform", "augment", "fit", "eval")
STAT_UNITS = {"s": "s", "self_s": "s", "samples": "count", "calls": "count", "bytes": "bytes",
              "alloc_peak_mb": "MB", "peak_rss_mb": "MB", "flop_computed": "flop"}


def per_layer_names() -> list[str]:
    names = [f"{layer}.{stat}" for layer, stats in SPAN_LAYERS.items() for stat in stats]
    names.append("augment.steps_useful_frac")
    names += [f"cli.{sub}.{stat}" for sub in CLI_SUBCOMMANDS
              for stat in ("s", "peak_rss_mb", "self_s")]
    names += ["cli.import_s", "trace.coverage_frac", "trace.iter_s_p50",
              "trace.untraced_iter_s_p50", "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_frac"):
        return "frac"
    return STAT_UNITS.get(stat, "s")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("study", "grid", "cli_chain"))
    ap.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    ap.add_argument("--seconds", type=int, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def cap_blas_threads(environ, limit: int) -> None:
    """Set every BLAS thread variable to its inherited count capped at
    ``limit``; an unset, non-positive or unparsable one becomes ``limit``."""
    for name in BLAS_THREAD_VARS:
        try:
            wanted = int(environ.get(name, ""))
        except ValueError:
            wanted = limit
        environ[name] = str(min(wanted, limit) if wanted > 0 else limit)


def prepare_process() -> float:
    """Pin the program to this checkout's source and its defaults, import it,
    and return the import time in seconds."""
    for name in [k for k in os.environ if k.startswith("CSIAUG_")]:
        del os.environ[name]
    cap_blas_threads(os.environ, nproc())
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import csiaug

    elapsed = time.perf_counter() - start
    if Path(csiaug.__file__).resolve().parent != (ROOT / "src" / "csiaug").resolve():
        raise ImportError(f"csiaug imported from {csiaug.__file__}, not from this checkout")
    return elapsed


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    """Closed loop: one caller, iterations back to back, checks in between.

    ``api`` is a plain or traced namespace from ``workloads``; for the
    plain one, ``cli_run`` starts a child per subcommand and its rusage
    lands in ``children``.
    """

    def __init__(self, workload, tracer: Tracer | None = None) -> None:
        import workloads

        self.workload = workload
        self.tracer = tracer
        self.iterations: list[dict] = []
        self.children: list[tuple[str, object]] = []
        if tracer is None:
            self.api = workloads.plain_api(self._child)
        else:
            self.api = workloads.traced_api(tracer)
        self._env = workload.child_env()

    def _child(self, argv: list[str]) -> int:
        log = self.workload.work / f"{argv[0]}.log"
        child = run_child([sys.executable, "-m", "csiaug", *argv], self._env, ROOT, log)
        self.children.append((argv[0], child))
        return child.code

    def one(self, seed_index: int, keep_digest: bool) -> dict:
        wl = self.workload
        record = {"seed_index": seed_index, "failures": [], "digest": None, "steps": (0, 0)}
        cpu0 = _cpu()
        start = time.perf_counter()
        try:
            if self.tracer is None:
                out = wl.iteration(self.api, seed_index)
            else:
                self.tracer.iteration = len(self.iterations)
                with self.tracer.span("iteration"):
                    out = wl.iteration(self.api, seed_index)
        except Exception:  # a failing iteration is counted and the loop goes on
            traceback.print_exc(file=sys.stderr)
            record["failures"].append("iteration raised " + traceback.format_exc(limit=1))
            out = None
        record["wall_s"] = time.perf_counter() - start
        record["cpu_s"] = _cpu() - cpu0
        self.iterations.append(record)
        if out is not None:
            try:
                record["failures"] += wl.check(out)
                if not record["failures"]:
                    record["digest"] = wl.digest(out) if keep_digest else None
                    record["steps"] = wl.steps(out) if self.tracer is not None else (0, 0)
            finally:
                wl.release(out)
        return record

    def loop(self, budget_s: float, min_iters: int, schedule) -> list[dict]:
        """Run until the next iteration would overrun ``budget_s`` (after at
        least ``min_iters``); ``schedule(k)`` gives (seed index, keep digest)."""
        start = time.perf_counter()
        while True:
            self.one(*schedule(len(self.iterations)))
            typical = statistics.median(r["wall_s"] for r in self.iterations)
            elapsed = time.perf_counter() - start
            if len(self.iterations) >= min_iters and elapsed + typical > budget_s:
                return self.iterations


def repeat_failures(first: dict, repeat: dict) -> list[str]:
    if first["digest"] is None or repeat["digest"] is None:
        return []  # the iteration itself failed and is already counted
    if first["digest"] != repeat["digest"]:
        return [f"repeat of seed index {first['seed_index']} did not reproduce its outputs"]
    return []


def plain_run(workload, seconds: int) -> tuple[list[dict], dict]:
    runner = Runner(workload)
    # Iteration 1 repeats iteration 0's seed; later ones take fresh seeds.
    done = runner.loop(seconds, workload.min_iters, lambda k: (max(k - 1, 0), k < 2))
    done[1]["failures"] += repeat_failures(done[0], done[1])
    walls = [r["wall_s"] for r in done]
    tail = tail_percentile(walls)
    peak = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
               + [child.peak_rss_mb for _, child in runner.children])
    metrics = {
        "iter_s_p50": {"value": statistics.median(walls), "samples": len(walls)},
        "iter_s_tail": {"value": tail.value, "percentile": tail.percentile,
                        "samples": tail.samples, "beyond": tail.beyond,
                        "meets_10_beyond_rule": tail.meets_rule},
        "cpu_s_p50": {"value": statistics.median(r["cpu_s"] for r in done),
                      "samples": len(done)},
        "peak_rss_mb": {"value": peak,
                        "of": "largest child" if runner.children else "benchmark process"},
    }
    return done, metrics


def traced_run(workload, seconds: int) -> tuple[list[dict], dict, list]:
    """Untraced half, then a traced half whose first iteration repeats the
    untraced first seed.  Returns (iterations, per-layer metrics, spans)."""
    import workloads

    plain = Runner(workload)
    untraced = plain.loop(seconds / 2, 1, lambda k: (k, k == 0))
    tracer = Tracer()
    traced = Runner(workload, tracer)
    with workloads.patched_cli(traced.api):
        spanned = traced.loop(seconds / 2, 1, lambda k: (k, k == 0))
    spanned[0]["failures"] += repeat_failures(untraced[0], spanned[0])

    spans = tracer.spans
    own = self_times(spans)
    n = len(spanned)
    layers: dict[str, float] = {}
    for layer, stats in SPAN_LAYERS.items():
        mine = [s for s in spans if s.name == layer]
        for stat in stats:
            if stat == "s":
                value = sum(own[s.id] for s in mine) / n
            elif stat == "alloc_peak_mb":
                value = max((s.counts[stat] for s in mine), default=0.0)
            else:
                value = sum(s.counts.get(stat, 0) for s in mine) / n
            layers[f"{layer}.{stat}"] = value
    realised = sum(r["steps"][0] for r in spanned)
    requested = sum(r["steps"][1] for r in spanned)
    layers["augment.steps_useful_frac"] = realised / requested if requested else 0.0
    for sub in CLI_SUBCOMMANDS:
        runs = [child for name, child in plain.children if name == sub]
        layers[f"cli.{sub}.s"] = sum(c.wall_s for c in runs) / len(untraced)
        layers[f"cli.{sub}.peak_rss_mb"] = max((c.peak_rss_mb for c in runs), default=0.0)
        layers[f"cli.{sub}.self_s"] = sum(own[s.id] for s in spans if s.name == f"cli.{sub}") / n
    layers["cli.import_s"] = workload.import_run.wall_s
    roots = [s for s in spans if s.name == "iteration"]
    layers["trace.coverage_frac"] = 1.0 - sum(own[s.id] for s in roots) / sum(
        s.duration for s in roots)
    layers["trace.iter_s_p50"] = statistics.median(r["wall_s"] for r in spanned)
    layers["trace.untraced_iter_s_p50"] = statistics.median(r["wall_s"] for r in untraced)
    layers["trace.overhead_s"] = layers["trace.iter_s_p50"] - layers["trace.untraced_iter_s_p50"]
    return untraced + spanned, {k: {"value": v} for k, v in layers.items()}, spans


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "csiaug" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: {ROOT} is not a csiaug source checkout (no src/csiaug or scenarios/)",
              file=sys.stderr)
        return 2
    import_s = prepare_process()
    import workloads  # only now: it imports numpy and csiaug

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, work)
    spans = []
    try:
        setups = []
        for _ in range(workload.setups if args.trace == 0 else 1):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        env = environment(ROOT)
        env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, **{k: os.environ.get(k) for k in BLAS_THREAD_VARS})
        if args.trace == 0:
            done, measured = plain_run(workload, args.seconds)
            detail = {"setup_s": {"value": statistics.median(setups), "setups": len(setups),
                                  "import_s": import_s}, **measured}
            units = END_TO_END_UNITS
        else:
            done, detail, spans = traced_run(workload, args.seconds)
            units = {name: unit_of(name) for name in per_layer_names()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, entry in detail.items():
        entry["unit"] = units[name]
    failed = sum(1 for r in done if r["failures"])
    detail["failed_frac"] = {"value": failed / len(done), "unit": "frac", "samples": len(done)}

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"env": env, "setup_runs_s": setups, "metrics": detail, "iterations": done},
        indent=1) + "\n")
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")

    print(f"csiaug benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, entry in detail.items():
        extra = ", ".join(f"{k}={v}" for k, v in entry.items() if k not in ("value", "unit"))
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']:<6} {extra}")
    for r in done:
        for failure in r["failures"]:
            print(f"  FAILED (seed index {r['seed_index']}): {failure}")
    metrics = {name: {"value": detail[name]["value"], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(done), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
