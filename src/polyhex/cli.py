"""Command-line front end: build, partition, index, fit, verify, sweep.

All results go to stdout (sweep writes its CSV to a file); logs go to
stderr. Exit codes: 0 success, 1 verification found an inconsistency (or a
fit found no exact form), 2 usage or validation error. Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Sequence

from .forms import (
    DEFAULT_FIT_SAMPLES,
    DiscrepancyReport,
    InconsistentSamplesError,
    Provenance,
    SingularSystemError,
    fit_closed_form,
    verify_published_forms,
)
from .graph import EdgePartition
from .indices import ABC, AZI, RANDIC, index_from_partition
from .tubes import (
    InvalidSpecError,
    NanotubeKind,
    NanotubeSpec,
    build_nanotube,
    tube_edge_count,
    tube_edge_partition,
    tube_vertex_count,
    validate_ranges,
)

INDEX_NAMES = ("azi", "randic", "abc")


def _fraction_fields(q: Fraction) -> dict[str, int]:
    return {"num": q.numerator, "den": q.denominator}


def _float_decimal(x: float) -> str:
    return f"{x:.15g}"


def _exact_decimal(q: Fraction) -> str:
    """Decimal string of q: exact when the expansion terminates, else 15 digits."""
    rest = q.denominator
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return _float_decimal(float(q))
    places = max(twos, fives)
    scaled = abs(q.numerator) * 10**places // q.denominator
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if q.numerator < 0 else ""
    if places == 0:
        return sign + digits
    fractional = digits[len(digits) - places :].rstrip("0")
    whole = digits[: len(digits) - places]
    return sign + whole + ("." + fractional if fractional else "")


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"invalid range {text!r} (expected LO:HI)")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid range {text!r} (expected LO:HI)") from None


def _parse_sample(text: str) -> tuple[int, int]:
    m, sep, n = text.partition(",")
    if not sep:
        raise argparse.ArgumentTypeError(f"invalid sample {text!r} (expected M,N)")
    try:
        return int(m), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid sample {text!r} (expected M,N)") from None


def _kinds(name: str) -> tuple[NanotubeKind, ...]:
    if name == "both":
        return (NanotubeKind.ARMCHAIR, NanotubeKind.ZIGZAG)
    return (NanotubeKind.parse(name),)


def _index_fields(partition: EdgePartition, which: Sequence[str]) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for name in INDEX_NAMES:
        if name not in which:
            continue
        if name == "azi":
            value = index_from_partition(partition, AZI)
            assert value.exact is not None
            out[name] = {
                **_fraction_fields(value.exact),
                "decimal": _exact_decimal(value.exact),
            }
        else:
            f = RANDIC if name == "randic" else ABC
            out[name] = {"decimal": _float_decimal(index_from_partition(partition, f).approx)}
    return out


def _tube_record(spec: NanotubeSpec, partition: EdgePartition) -> dict:
    return {
        "kind": spec.kind.value,
        "m": spec.m,
        "n": spec.n,
        "vertex_count": tube_vertex_count(spec),
        "edge_count": tube_edge_count(spec),
        "partition": {f"{lo},{hi}": count for (lo, hi), count in partition.classes.items()},
    }


def _emit(payload: dict, compact: bool = False) -> None:
    if compact:
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def cmd_build(args: argparse.Namespace) -> int:
    spec = NanotubeSpec(NanotubeKind.parse(args.kind), args.m, args.n)
    g = build_nanotube(spec)
    if args.format == "json":
        _emit(
            {
                "kind": spec.kind.value,
                "m": spec.m,
                "n": spec.n,
                "vertex_count": g.vertex_count,
                "edge_count": g.edge_count,
                "edges": [[u, v] for u, v in g.edges],
            },
            compact=True,
        )
        return 0
    width = 2 * spec.m

    def label(v: int) -> str:
        return f'"{v // width}_{v % width}"'

    lines = [f"graph {spec.kind.value}_m{spec.m}_n{spec.n} {{"]
    lines.extend(f"  {label(v)};" for v in range(g.vertex_count))
    lines.extend(f"  {label(u)} -- {label(v)};" for u, v in g.edges)
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    spec = NanotubeSpec(NanotubeKind.parse(args.kind), args.m, args.n)
    _emit(_tube_record(spec, tube_edge_partition(spec)))
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    spec = NanotubeSpec(NanotubeKind.parse(args.kind), args.m, args.n)
    which = INDEX_NAMES if args.index == "all" else (args.index,)
    partition = tube_edge_partition(spec)
    _emit({**_tube_record(spec, partition), "indices": _index_fields(partition, which)})
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    kind = NanotubeKind.parse(args.kind)
    samples = tuple(args.samples) if args.samples else DEFAULT_FIT_SAMPLES
    try:
        form = fit_closed_form(kind, args.index, samples)
    except (SingularSystemError, InconsistentSamplesError) as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    _emit(
        {
            "kind": kind.value,
            "index": form.index_name,
            "provenance": form.provenance.value,
            "a": _fraction_fields(form.a),
            "b": _fraction_fields(form.b),
            "samples": [[m, n] for m, n in samples],
        }
    )
    return 0


def _report_fields(report: DiscrepancyReport) -> dict:
    forms = []
    for check in report.checks:
        form = check.form
        forms.append(
            {
                "kind": form.kind.value,
                "index": form.index_name,
                "provenance": form.provenance.value,
                "a": _fraction_fields(form.a),
                "b": _fraction_fields(form.b),
                "verdict": "consistent" if check.consistent else "inconsistent",
                "mismatches": sum(1 for p in check.points if p.difference != 0),
                "points": [
                    {
                        "m": p.m,
                        "n": p.n,
                        "claimed": _fraction_fields(p.claimed),
                        "oracle": _fraction_fields(p.oracle),
                        "difference": _fraction_fields(p.difference),
                    }
                    for p in check.points
                ],
            }
        )
    return {
        "index": "azi",
        "m_range": list(report.m_range),
        "n_range": list(report.n_range),
        "forms": forms,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_published_forms(args.m_range, args.n_range, _kinds(args.kind))
    _emit(_report_fields(report))
    stated_ok = all(c.consistent for c in report.checks_for(Provenance.STATED))
    return 0 if stated_ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    validate_ranges(args.m_range, args.n_range)
    which = tuple(args.indices.split(",")) if args.indices else INDEX_NAMES
    for name in which:
        if name not in INDEX_NAMES:
            raise InvalidSpecError(
                f"unknown index {name!r} (expected a comma-separated subset of azi,randic,abc)"
            )
    rows = []
    for kind in sorted(_kinds(args.kind), key=lambda k: k.value):
        for m in range(args.m_range[0], args.m_range[1] + 1):
            for n in range(args.n_range[0], args.n_range[1] + 1):
                spec = NanotubeSpec(kind, m, n)
                fields = _index_fields(tube_edge_partition(spec), which)
                azi_fields = fields.get("azi")
                rows.append(
                    [
                        kind.value,
                        m,
                        n,
                        tube_vertex_count(spec),
                        tube_edge_count(spec),
                        azi_fields["num"] if azi_fields else "",
                        azi_fields["den"] if azi_fields else "",
                        azi_fields["decimal"] if azi_fields else "",
                        fields["randic"]["decimal"] if "randic" in fields else "",
                        fields["abc"]["decimal"] if "abc" in fields else "",
                    ]
                )
    try:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(
                ["kind", "m", "n", "vertices", "edges", "azi_num", "azi_den", "azi", "randic", "abc"]
            )
            writer.writerows(rows)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyhex",
        description=(
            "Construct armchair/zigzag polyhex nanotube graphs and compute their "
            "degree-based topological indices (Randic, ABC, augmented Zagreb)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", required=True, choices=["armchair", "zigzag"])
        p.add_argument("--m", type=int, required=True, help="hexagons around the circumference (>= 2)")
        p.add_argument("--n", type=int, required=True, help="rows / repetitions (>= 1)")

    def add_range_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m-range", type=_parse_range, required=True, metavar="LO:HI")
        p.add_argument("--n-range", type=_parse_range, required=True, metavar="LO:HI")

    p = sub.add_parser("build", help="emit the tube graph as DOT or JSON")
    add_spec_args(p)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("partition", help="degree-class edge counts from the count formulas")
    add_spec_args(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("index", help="index values for one tube (partition-first)")
    add_spec_args(p)
    p.add_argument("--index", choices=[*INDEX_NAMES, "all"], default="all")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("fit", help="solve a*mn + b*m exactly from brute-force samples")
    p.add_argument("--kind", required=True, choices=["armchair", "zigzag"])
    p.add_argument("--index", choices=list(INDEX_NAMES), default="azi")
    p.add_argument("--samples", type=_parse_sample, nargs="+", metavar="M,N")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "verify",
        help="adjudicate published closed forms against the brute-force oracle "
        "(exit 1 when a stated form is inconsistent)",
    )
    p.add_argument("--kind", choices=["armchair", "zigzag", "both"], default="both")
    add_range_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="write a CSV of index values over a grid")
    p.add_argument("--kind", choices=["armchair", "zigzag", "both"], default="both")
    add_range_args(p)
    p.add_argument("--indices", help="comma-separated subset of azi,randic,abc (default all)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # InvalidSpecError, GraphError, empty ranges: all usage/validation
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
