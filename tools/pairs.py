"""Run the benchmark on a parent and a change checkout in alternating pairs.

    python3 tools/pairs.py --parent ../parent --change . --workloads study,grid,cli_chain \
        --seeds 1-10 --tag codec_views

For each seed, and for each workload in turn, each checkout runs its own
``perfbench/run.py --trace 0`` once, with BENCHMARK.json's ``run_seconds``;
the side that runs first swaps from one seed to the next.  The two runs of
one seed and workload are a pair.  ``BENCH_<tag>_parent.json`` and
``BENCH_<tag>_change.json`` are written in the layout of
``perfbench/repeat.py``, whose ``summarise`` they use.  Then one line per
workload and end-to-end metric gives both medians, the parent's quartiles
and the pairs the change won, ties counting for neither side; ``gain`` marks
a metric the change won in at least nine tenths of the pairs by a median
difference larger than the parent's quartile distance.  With the metric's
BENCHMARK.json ``bound``, taken relative to the parent median, ``worse``
marks a change median worse than the parent's by more than the bound, and
``unresolved`` a parent quartile distance larger than the bound, unless
every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from repeat import seed_list, summarise  # noqa: E402


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs ``(parent[i], change[i])`` in which the change is strictly better."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent values against {len(change)} change values")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    return sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> dict[str, object]:
    """Both medians, the parent's quartiles, the change's wins and the gain,
    worse and unresolved verdicts."""
    won = wins(parent, change, better)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    before, after = statistics.median(parent), statistics.median(change)
    gained = before - after if better == "lower" else after - before
    beats_all = (max(change) < min(parent) if better == "lower"
                 else min(change) > max(parent))
    return {"parent": before, "change": after, "q1": q1, "q3": q3, "wins": won,
            "pairs": len(parent), "gain": won >= 0.9 * len(parent) and gained > q3 - q1,
            "worse": -gained > bound * before,
            "unresolved": q3 - q1 > bound * before and not beats_all}


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {proc.returncode}\n"
                           f"{proc.stdout}{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"seed": seed, "env": env, **json.loads(lines[-1])}


def summary(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    return {"runs": runs,
            "metrics": {name: {"unit": names[name]["unit"],
                               **summarise([r["metrics"][name]["value"] for r in runs])}
                        for name in names}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="parent checkout")
    ap.add_argument("--change", required=True, type=Path, help="change checkout")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="a range like 1-10 or a list like 1,4,9")
    ap.add_argument("--tag", required=True, help="names BENCH_<tag>_{parent,change}.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, dict[str, list]] = {side: {w: [] for w in workloads} for side in sides}
    for i, seed in enumerate(seed_list(args.seeds)):
        for workload in workloads:
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                result = run(sides[side], workload, seed, bench["run_seconds"])
                runs[side][workload].append(result)
                print(side, workload, seed, json.dumps(result["metrics"]), flush=True)
    for side, by_workload in runs.items():
        out = Path(f"BENCH_{args.tag}_{side}.json")
        out.write_text(json.dumps({w: summary(r) for w, r in by_workload.items()}, indent=1)
                       + "\n")
    for workload in workloads:
        failed = {side: sum(r["failed"] for r in runs[side][workload]) for side in sides}
        print(f"{workload}: failed iterations parent {failed['parent']}, "
              f"change {failed['change']}")
        for name, metric in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in runs[side][workload]]
                      for side in sides}
            c = compare(values["parent"], values["change"], metric["better"], metric["bound"])
            flags = "".join(f"  {flag}" for flag in ("gain", "worse", "unresolved") if c[flag])
            print(f"  {name:<12} parent {c['parent']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                  f"  change {c['change']:.6g}  won {c['wins']}/{c['pairs']}{flags}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
