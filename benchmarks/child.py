"""One benchmark pass, in a fresh interpreter, as a CLI call would run.

Usage: python3 benchmarks/child.py MODE REQUEST.json  (started by run.py)

Set-up ends when `polyhex` is imported and the CLI parser is built; the
parent measures set-up from just before it started this process, on the
same system-wide monotonic clock. The pass itself is timed from then on.
MODE `setup` stops after set-up, `plain` runs the pass, `trace` runs it with
per-layer wrappers installed, `alloc` runs it with tracemalloc around each
Graph construction, and `reference` times the yardstick task instead of
polyhex.
"""

import sys
import time


def peak_rss_kb() -> int:
    """This process's peak resident set size since it was exec'd.

    ru_maxrss is not used: Linux carries the parent's high-water mark into
    it across fork and exec, so it would report the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reference(request_path: str) -> int:
    import json

    import yardstick

    start = time.perf_counter_ns()
    yardstick.run()
    result = {"wall_ns": time.perf_counter_ns() - start}
    with open(request_path, encoding="utf-8") as handle:
        request = json.load(handle)
    with open(request["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def main(mode: str, request_path: str) -> int:
    if mode == "reference":
        return reference(request_path)
    import polyhex
    import polyhex.cli

    polyhex.cli.build_parser()
    setup_done_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

    import json
    import os

    with open(request_path, encoding="utf-8") as handle:
        request = json.load(handle)
    origin = os.path.realpath(polyhex.__file__)
    if not origin.startswith(os.path.join(request["src"], "")):
        print(f"polyhex was imported from {origin}, not from {request['src']}", file=sys.stderr)
        return 3
    result = {"setup_done_ns": setup_done_ns}
    if mode != "setup":
        import tracing
        import workloads

        probe = None
        if mode == "trace":
            probe = tracing.Tracer(request["pass_id"])
        elif mode == "alloc":
            probe = tracing.AllocProbe()
        if probe is not None:
            probe.install()
        start = time.perf_counter_ns()
        try:
            records = workloads.run_pass(request["workload"], request["inputs"], polyhex, request["outdir"])
        finally:
            wall_ns = time.perf_counter_ns() - start
            if probe is not None:
                probe.uninstall()
        result.update(wall_ns=wall_ns, records=records)
        if mode == "trace":
            result.update(layers=probe.summary(), absent=probe.absent_metrics(), missing=probe.absent)
            if request.get("spans_path"):
                with open(request["spans_path"], "w", encoding="utf-8") as handle:
                    json.dump(
                        {"fields": ["pass", "span", "parent", "name", "start_ns", "end_ns"], "spans": probe.spans},
                        handle, separators=(",", ":"),
                    )
        elif mode == "alloc":
            result.update(graph_peaks=probe.peaks, missing=["graph.Graph"] if probe.absent else [])
    result["peak_rss_kb"] = peak_rss_kb()
    with open(request["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
