"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads study,grid,cli_chain --seeds 1-10 \
        --out perfbench/out/repeat.json

Each run is ``perfbench/run.py`` with BENCHMARK.json's ``run_seconds``.
For every workload and metric the summary holds the values in seed order,
their median, quartiles (``statistics.quantiles(n=4)``) and spread, the
inter-quartile distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict[str, object]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="a range like 1-10 or a list like 1,4,9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="summary JSON to write")
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    summary: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "env": env, **result})
            print(workload, seed, json.dumps(result), flush=True)
        names = runs[0]["metrics"]
        summary[workload] = {
            "runs": runs,
            "metrics": {name: {"unit": runs[0]["metrics"][name]["unit"],
                               **summarise([r["metrics"][name]["value"] for r in runs])}
                        for name in names},
        }
        for name, m in summary[workload]["metrics"].items():
            print(f"  {workload} {name}: median {m['median']:.6g} {m['unit']}, "
                  f"spread {m['spread']}", flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
