"""Run the benchmark on several seeds and summarise each end-to-end metric.

Usage (from the repository root):

    python3 benchmarks/steadiness.py --runs 10 [--workload sweep ...] [--out FILE]

For each workload this runs `run.py` once per seed (1..runs), one run at a
time, and reports per metric the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the
interquartile distance as a share of the median. It exits 1 when a run
fails or reports incorrect output, and flags every spread that is not
below a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [*config["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(config["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: failed\n{proc.stdout}{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
                  flush=True)
        summary[workload] = {name: summarise(v) for name, v in values.items() if len(v) >= 2}
        for name, stats in summary[workload].items():
            flag = "" if stats["spread"] < bounds[name] / 3 else f"  <-- not below bound/3 ({bounds[name] / 3:.3f})"
            print(f"  {workload:<10} {name:<12} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
