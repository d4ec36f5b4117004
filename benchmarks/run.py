"""Benchmark for polyhex: one workload, one seed, a closed loop with one client.

Usage (from the repository root):

    python3 benchmarks/run.py --workload adjudicate --seed 1 --seconds 40 --trace 0

Each pass runs in a fresh interpreter (`child.py`), one after the other, as
successive CLI calls would; nothing in polyhex is parallel. Passes repeat
until `--seconds` is used up (at least MIN_ROUNDS). Every operation is
checked against the independent reference after its pass, outside the
timed region.

--trace 0 reports the end-to-end metrics. Each round is a set-up-only
child, a pass and a run of the yardstick task (`yardstick.py`), and the
first round is preceded by one more yardstick run. Times are divided by the
mean of the two yardstick runs around their round, so that the machine's
changing speed cancels, and reported in yardstick seconds; the raw medians
are printed alongside. --trace 1 alternates
untraced and traced passes, adds one tracemalloc pass, and reports the
per-layer metrics of `tracing.METRICS`; wrapped names missing from the
polyhex under test are listed as absent and read 0.

Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The polyhex measured is
the one in `src/` next to this directory; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads
import yardstick
from inputs import WORKLOADS, make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3
RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take
ITEM_UNITS = {
    "adjudicate": "(form, grid point) checks",
    "sweep": "CSV rows",
    "large_tube": "tube edges handled by one operation",
}


def _monotonic_ns() -> int:
    # system-wide, so the child's reading is comparable with the parent's
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Pass:
    """Start one child pass and collect what it reports."""

    def __init__(self, workdir: Path, workload: str, inputs: dict) -> None:
        self.workdir = workdir
        self.workload = workload
        self.inputs = inputs
        self.count = 0

    def run(self, mode: str, timeout: float, spans_path: Path | None = None) -> tuple[dict | None, Path]:
        self.count += 1
        passdir = self.workdir / f"pass{self.count}"
        passdir.mkdir()
        request = {
            "workload": self.workload,
            "inputs": self.inputs,
            "pass_id": self.count,
            "outdir": str(passdir),
            "src": os.path.realpath(SRC),
            "result": str(passdir / "result.json"),
            "spans_path": str(spans_path) if spans_path else None,
        }
        request_path = passdir / "request.json"
        request_path.write_text(json.dumps(request), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        with open(passdir / "child.log", "wb") as log:
            start_ns = _monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), mode, str(request_path)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return None, passdir
        if code != 0 or not (passdir / "result.json").is_file():
            return None, passdir
        result = json.loads((passdir / "result.json").read_text(encoding="utf-8"))
        if "setup_done_ns" in result:
            result["setup_s"] = (result["setup_done_ns"] - start_ns) / 1e9
        return result, passdir


def _median(values: list[float]) -> float:
    """Median, or 0 when no pass completed (the run then reports failures)."""
    return statistics.median(values) if values else 0.0


def _describe(values: list[float]) -> str:
    if not values:
        return "no samples"
    return f"median of {len(values)} (min {min(values):.6g}, max {max(values):.6g})"


class Run:
    """The passes of one run, their checks and their samples."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.inputs = make_inputs(workload, seed)
        self.items = workloads.items(workload, self.inputs)
        self.ops = workloads.operations(workload, self.inputs)
        self.passes = Pass(workdir, workload, self.inputs)
        self.ledger = checks.Ledger()
        self.attempted = self.failed = 0
        self.started = time.monotonic()
        self.round = 0
        # set-up and pass times are stored with their round, to find the yardstick runs around them
        self.samples: dict[str, list] = {
            key: [] for key in ("setup", "reference", "plain", "trace", "rss_mb", "layers", "output_bytes")
        }
        self.graph_peaks: list[int] = []
        self.missing: list[str] = []
        self.absent: list[str] = []

    def one(self, mode: str, spans_path: Path | None = None) -> bool:
        """Run and check one pass; False when it did not complete."""
        timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        result, passdir = self.passes.run(mode, timeout, spans_path)
        if result is None:
            self.attempted += len(self.ops)
            self.failed += len(self.ops)
            log = (passdir / "child.log").read_text(encoding="utf-8", errors="replace")
            print(f"pass {self.passes.count} ({mode}) did not complete:\n{log[-2000:]}", file=sys.stderr)
            return False
        if "setup_s" in result:
            self.samples["setup"].append((result["setup_s"], self.round))
        if mode in ("reference", "setup"):
            if mode == "reference":
                self.samples["reference"].append(result["wall_ns"] / 1e9)
            shutil.rmtree(passdir)
            return True
        self.attempted += len(self.ops)
        records = {record["op"]: record for record in result["records"]}
        for op in self.ops:
            record = records.get(op)
            problems = [f"{op} did not run"] if record is None else \
                checks.check_record(self.workload, self.inputs, record, str(passdir), self.ledger)
            if problems:
                self.failed += 1
                print(f"pass {self.passes.count} ({mode}): {'; '.join(problems)}", file=sys.stderr)
        if mode == "plain":
            self.samples["plain"].append((result["wall_ns"] / 1e9, self.round))
            self.samples["rss_mb"].append(result["peak_rss_kb"] / 1024)
        elif mode == "trace":
            self.samples["trace"].append(result["wall_ns"] / 1e9)
            self.samples["layers"].append(result["layers"])
            self.samples["output_bytes"].append(
                sum(checks.output_bytes(record, str(passdir)) for record in result["records"])
            )
            self.absent[:] = result["absent"]
            self.missing[:] = result["missing"]
        else:
            self.graph_peaks.extend(result["graph_peaks"])
            self.missing.extend(name for name in result["missing"] if name not in self.missing)
        shutil.rmtree(passdir)
        return True

    def measure(self, seconds: float, trace: bool) -> None:
        self.passes.run("setup", RUN_LIMIT_S)  # compiles bytecode caches; not measured
        spans = OUT / f"spans-{self.workload}-seed{self.seed}.json"
        round_modes = ("plain", "trace") if trace else ("setup", "plain", "reference")
        ok = trace or self.one("reference")
        while ok:
            self.round += 1
            round_start = time.monotonic()
            for mode in round_modes:
                ok = ok and self.one(mode, spans if mode == "trace" and self.round == 1 else None)
            elapsed = time.monotonic() - self.started
            if self.round >= MIN_ROUNDS and elapsed + (time.monotonic() - round_start) > seconds:
                break
        if trace and ok:
            self.one("alloc")

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        refs = self.samples["reference"]

        def normalized(samples: list[tuple[float, int]]) -> list[float]:
            # round i runs between yardstick runs i-1 and i
            return [value / ((refs[i - 1] + refs[i]) / 2) * yardstick.REFERENCE_S
                    for value, i in samples if i < len(refs)]

        setups, walls = normalized(self.samples["setup"]), normalized(self.samples["plain"])
        wall = _median(walls)
        metrics = {
            "setup_s": (_median(setups), "s"),
            "wall_s": (wall, "s"),
            "items_per_s": (self.items / wall if wall else 0.0, "1/s"),
            "peak_rss_mb": (_median(self.samples["rss_mb"]), "MB"),
        }
        details = {
            "setup_s": _describe(setups),
            "wall_s": _describe(walls),
            "items_per_s": f"{self.items} items per pass / wall_s",
            "peak_rss_mb": _describe(self.samples["rss_mb"]),
        }
        for name, (value, unit) in metrics.items():
            print(f"{name:<12} {value:<14.6g} {unit:<4} {details[name]}")
        raw_setups = [value for value, _ in self.samples["setup"]]
        raw_walls = [value for value, _ in self.samples["plain"]]
        print(f"times above are in yardstick seconds: measured / yardstick run time x {yardstick.REFERENCE_S}")
        print(f"{'raw setup':<12} {_median(raw_setups):<14.6g} {'s':<4} {_describe(raw_setups)}")
        print(f"{'raw wall':<12} {_median(raw_walls):<14.6g} {'s':<4} {_describe(raw_walls)}")
        print(f"{'yardstick':<12} {_median(refs):<14.6g} {'s':<4} {_describe(refs)}")
        return metrics

    def per_layer(self) -> dict[str, tuple[float, str]]:
        plain, traced = [value for value, _ in self.samples["plain"]], self.samples["trace"]
        layers = {
            "graph.Graph.peak_alloc_mb": max(self.graph_peaks, default=0) / 2**20,
            "cli.output_bytes": _median(self.samples["output_bytes"]),
            # plain and traced passes alternate, so each pair ran at about the same machine speed
            "trace.overhead": _median([t / p for p, t in zip(plain, traced)]),
        }
        for name in tracing.METRICS.keys() - layers.keys():
            layers[name] = _median([sample[name] for sample in self.samples["layers"]])
        metrics = {name: (layers[name], unit) for name, (unit, _) in tracing.METRICS.items()}
        print(f"traced pass {_median(traced):.4f} s, untraced {_median(plain):.4f} s")
        print("absent wrapped names: " + (", ".join(self.missing) or "none"))
        print("absent metrics, reported as 0: " + (", ".join(self.absent) or "none"))
        for name, (value, unit) in metrics.items():
            print(f"{name:<40} {value:<14.6g} {unit}")
        return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "polyhex" / "__init__.py").is_file():
        print(f"error: no polyhex sources at {SRC}; run from a polyhex checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        current = Run(workload, seed, workdir)
        print(f"workload {workload}, seed {seed}: inputs {json.dumps(current.inputs)}")
        print(f"{current.items} {ITEM_UNITS[workload]} per pass; closed loop, 1 client, "
              "each pass in a fresh interpreter")
        current.measure(seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{current.passes.count} child processes in {time.monotonic() - current.started:.1f} s")
    metrics = current.per_layer() if trace else current.end_to_end()
    attempted, failed = current.attempted, current.failed
    print(f"{'error_rate':<12} {failed / attempted if attempted else 0:<14.6g} {'':<4} "
          f"{failed} of {attempted} operations failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
