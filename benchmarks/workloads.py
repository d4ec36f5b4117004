"""What one pass of each workload does.

A pass is a sequence of operations against polyhex's public library API
and its CLI (`polyhex.cli.main`, with stdout sent to a file as a shell
redirect would). Every operation is attempted even when an earlier one
failed, so a failure costs exactly its own count. The records written here
are checked afterwards, outside the timed region, by `checks`.
"""

from __future__ import annotations

import os
import sys

from reference import edge_count

LIBRARY_STEPS = ("build_nanotube", "edge_partition", "azi", "randic", "abc")
CLI_STEPS = ("cli_partition", "cli_build")
FORMS_PER_KIND = 3  # stated, proof, fitted


def operations(workload: str, inputs: dict) -> list[str]:
    """Names of the operations one pass attempts, in order."""
    if workload == "adjudicate":
        return ["verify", "fit.armchair", "fit.zigzag"]
    if workload == "sweep":
        return ["sweep"]
    tubes = [tube["kind"] for tube in inputs["tubes"]]
    return [f"{step}.{kind}" for kind in tubes for step in LIBRARY_STEPS] + [
        f"{step}.{kind}" for kind in tubes for step in CLI_STEPS
    ]


def items(workload: str, inputs: dict) -> int:
    """Work in one pass, in the workload's item unit.

    adjudicate: one (form, grid point) check; sweep: one CSV row;
    large_tube: one tube edge handled by one operation.
    """
    if workload == "large_tube":
        ops_per_tube = len(LIBRARY_STEPS) + len(CLI_STEPS)
        return sum(ops_per_tube * edge_count(t["kind"], t["m"], t["n"]) for t in inputs["tubes"])
    (m_lo, m_hi), (n_lo, n_hi) = inputs["m_range"], inputs["n_range"]
    points = (m_hi - m_lo + 1) * (n_hi - n_lo + 1)
    if workload == "adjudicate":
        return 2 * FORMS_PER_KIND * points
    return 2 * points


def _span(bounds: list[int]) -> str:
    return f"{bounds[0]}:{bounds[1]}"


def run_cli(cli, argv: list[str], stdout_path: str) -> int:
    """Run the CLI in-process with stdout redirected to a file; return its exit code."""
    with open(stdout_path, "w", encoding="utf-8") as handle:
        saved, sys.stdout = sys.stdout, handle
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            return exc.code if isinstance(exc.code, int) else 2
        finally:
            sys.stdout = saved


def run_pass(workload: str, inputs: dict, polyhex, outdir: str) -> list[dict]:
    """Run one pass; return one record per operation, in `operations` order."""
    records: list[dict] = []

    def attempt(name: str, call, describe):
        try:
            result = call()
            record = describe(result)
        except Exception as exc:  # counted as a failed operation, the pass goes on
            result, record = None, {"error": f"{type(exc).__name__}: {exc}"}
        records.append({"op": name, **record})
        return result

    def cli(name: str, *argv: str, extra_files: tuple[str, ...] = ()) -> None:
        stdout_name = name + ".out"
        attempt(
            name,
            lambda: run_cli(polyhex.cli, list(argv), os.path.join(outdir, stdout_name)),
            lambda code: {"exit": code, "files": [stdout_name, *extra_files]},
        )

    if workload == "adjudicate":
        m_range, n_range = _span(inputs["m_range"]), _span(inputs["n_range"])
        cli("verify", "verify", "--kind", "both", "--m-range", m_range, "--n-range", n_range)
        for kind in ("armchair", "zigzag"):
            cli(f"fit.{kind}", "fit", "--kind", kind)
    elif workload == "sweep":
        csv_name = "sweep.csv"
        cli(
            "sweep", "sweep", "--kind", "both",
            "--m-range", _span(inputs["m_range"]), "--n-range", _span(inputs["n_range"]),
            "--out", os.path.join(outdir, csv_name),
            extra_files=(csv_name,),
        )
    else:
        for tube in inputs["tubes"]:
            kind, m, n = tube["kind"], tube["m"], tube["n"]
            g = attempt(
                f"build_nanotube.{kind}",
                lambda: polyhex.build_nanotube(
                    polyhex.NanotubeSpec(polyhex.NanotubeKind.parse(kind), m, n)
                ),
                lambda g: {"value": {"vertex_count": g.vertex_count, "edge_count": g.edge_count}},
            )
            attempt(
                f"edge_partition.{kind}",
                lambda: polyhex.edge_partition(g),
                lambda p: {"value": sorted([*pair, count] for pair, count in p.classes.items())},
            )
            attempt(
                f"azi.{kind}",
                lambda: polyhex.azi(g).exact,
                lambda q: {"value": [q.numerator, q.denominator]},
            )
            for index in ("randic", "abc"):
                attempt(
                    f"{index}.{kind}",
                    lambda: getattr(polyhex, index)(g).approx,
                    lambda x: {"value": x},
                )
            del g
        for tube in inputs["tubes"]:
            spec = ("--kind", tube["kind"], "--m", str(tube["m"]), "--n", str(tube["n"]))
            cli(f"cli_partition.{tube['kind']}", "partition", *spec)
            cli(f"cli_build.{tube['kind']}", "build", *spec, "--format", "json")
    return records
