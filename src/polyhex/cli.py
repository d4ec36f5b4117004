"""Command-line front end: build, partition, index, fit, verify, sweep.

All results go to stdout (sweep writes its CSV to a file); logs go to
stderr. Exit codes: 0 success, 1 verification found an inconsistency (or a
fit found no exact form), 2 usage or validation error, 141 (128 + SIGPIPE)
the output's reader closed it early, as `| head` does (stderr stays empty).
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from fractions import Fraction

from .forms import (
    DEFAULT_FIT_SAMPLES,
    ClosedForm,
    DiscrepancyReport,
    GridTooLargeError,
    InconsistentSamplesError,
    Provenance,
    SingularSystemError,
    fit_closed_form,
    verify_published_forms,
)
from .graph import EdgePartition
from .indices import EDGE_FUNCTIONS, EdgeFunction, index_from_partition
from .tubes import (
    InvalidSpecError,
    NanotubeKind,
    NanotubeSpec,
    build_nanotube,
    grid_tubes,
    tube_edge_count,
    tube_edge_partition,
    tube_vertex_count,
    validate_ranges,
)

KIND_NAMES = tuple(kind.value for kind in NanotubeKind)
INDEX_NAMES = tuple(EDGE_FUNCTIONS)
INDEX_LIST = ",".join(INDEX_NAMES)  # as --indices takes them

# Most rows one sweep may write. Sweep writes each row as it is computed, so
# its memory does not grow with the grid (tracemalloc peak near 70 KB at
# 4,000 and at 100,000 rows) and this cap bounds time only: about 14 us per
# row (wall clock of a whole 100,000-row sweep process, median of 15 runs,
# 2-CPU Xeon VM, Python 3.11.7), so a sweep at the cap takes under 30 s.
MAX_SWEEP_ROWS = 1_000_000

# Edges per json.dumps call in `build --format json`: the C encoder can hold a
# call's small strings until it returns (about 0.85 MB traced at 8,192 edges).
_JSON_EDGE_CHUNK = 1024


def _fraction_fields(q: Fraction) -> dict[str, int]:
    return {"num": q.numerator, "den": q.denominator}


def _float_decimal(x: float) -> str:
    return f"{x:.15g}"


def _exact_decimal(num: int, den: int) -> str:
    """Decimal string of num/den in lowest terms: exact when it terminates, else 15 digits."""
    # den = 2**a * 5**b has 2**a <= den and 2**b <= 5**b <= den, so a and b are
    # at most places and den divides 10**places; any other prime factor of den
    # leaves a remainder.
    places = den.bit_length() - 1
    scale, remainder = divmod(10**places, den)
    if remainder:
        return _float_decimal(num / den)  # float(Fraction(num, den)) is this quotient
    whole, part = divmod(abs(num), den)
    fractional = str(part * scale).rjust(places, "0").rstrip("0")
    text = f"{whole}.{fractional}" if fractional else str(whole)
    return "-" + text if num < 0 else text


def _int_pair(what: str, sep: str, metavar: str) -> dict:
    """add_argument keywords for an argument of two ints written X<sep>Y."""

    def parse(text: str) -> tuple[int, int]:
        try:
            x, y = text.split(sep)  # ValueError unless exactly one separator
            return int(x), int(y)
        except ValueError:
            message = f"invalid {what} {text!r} (expected {metavar})"
        raise argparse.ArgumentTypeError(message)

    return {"type": parse, "metavar": metavar}


def _kinds(name: str) -> tuple[NanotubeKind, ...]:
    return tuple(NanotubeKind) if name == "both" else (NanotubeKind.parse(name),)


def _cell_names(f: EdgeFunction) -> tuple[str, ...]:
    return ("num", "den", "decimal") if f.exact else ("decimal",)


def _index_cells(partition: EdgePartition, f: EdgeFunction) -> tuple[int | str, ...]:
    """f's value as the cells _cell_names(f) names: num, den and exact decimal, or %.15g."""
    value = index_from_partition(partition, f)
    if f.exact:
        q = value.exact
        num, den = q.numerator, q.denominator
        return num, den, _exact_decimal(num, den)
    return (_float_decimal(value.approx),)


def _tube_record(spec: NanotubeSpec, partition: EdgePartition) -> dict:
    return {
        "kind": spec.kind.value,
        "m": spec.m,
        "n": spec.n,
        "vertex_count": tube_vertex_count(spec),
        "edge_count": tube_edge_count(spec),
        "partition": {f"{lo},{hi}": count for (lo, hi), count in partition.classes.items()},
    }


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2))
    sys.stdout.write("\n")


def cmd_build(args: argparse.Namespace) -> int:
    spec = NanotubeSpec(NanotubeKind.parse(args.kind), args.m, args.n)
    g = build_nanotube(spec)
    out = sys.stdout  # a chunk or a line at a time, so no copy of the document is held
    if args.format == "json":
        header = {
            "kind": spec.kind.value,
            "m": spec.m,
            "n": spec.n,
            "vertex_count": g.vertex_count,
            "edge_count": g.edge_count,
            "edges": [],
        }
        out.write(json.dumps(header, separators=(",", ":"))[:-2])  # ends with "edges":[
        edges, step = g.edges, _JSON_EDGE_CHUNK
        # A chunk's "[u,v],[u,v],..." is the C encoder's text for its edges
        # (tuples encode as JSON arrays) without the list's brackets.
        out.writelines(
            ("," if i else "") + json.dumps(edges[i : i + step], separators=(",", ":"))[1:-1]
            for i in range(0, len(edges), step)
        )
        out.write("]}\n")
        return 0
    width = 2 * spec.m

    def label(v: int) -> str:
        return f'"{v // width}_{v % width}"'

    out.write(f"graph {spec.kind.value}_m{spec.m}_n{spec.n} {{\n")
    out.writelines(f"  {label(v)};\n" for v in range(g.vertex_count))
    out.writelines(f"  {label(u)} -- {label(v)};\n" for u, v in g.edges)
    out.write("}\n")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    spec = NanotubeSpec(NanotubeKind.parse(args.kind), args.m, args.n)
    _emit(_tube_record(spec, tube_edge_partition(spec)))
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    spec = NanotubeSpec(NanotubeKind.parse(args.kind), args.m, args.n)
    functions = EDGE_FUNCTIONS.values() if args.index == "all" else (EDGE_FUNCTIONS[args.index],)
    partition = tube_edge_partition(spec)
    indices = {f.name: dict(zip(_cell_names(f), _index_cells(partition, f))) for f in functions}
    _emit({**_tube_record(spec, partition), "indices": indices})
    return 0


def _form_fields(form: ClosedForm) -> dict:
    return {
        "kind": form.kind.value,
        "index": form.index_name,
        "provenance": form.provenance.value,
        "a": _fraction_fields(form.a),
        "b": _fraction_fields(form.b),
    }


def cmd_fit(args: argparse.Namespace) -> int:
    kind = NanotubeKind.parse(args.kind)
    samples = tuple(args.samples) if args.samples else DEFAULT_FIT_SAMPLES
    try:
        form = fit_closed_form(kind, args.index, samples)
    except (SingularSystemError, InconsistentSamplesError) as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    _emit({**_form_fields(form), "samples": [[m, n] for m, n in samples]})
    return 0


def _report_fields(report: DiscrepancyReport) -> dict:
    """The verify report with every form's "points" left empty; _write_report fills them."""
    forms = [
        {
            **_form_fields(check.form),
            "verdict": "consistent" if check.consistent else "inconsistent",
            "mismatches": sum(1 for p in check.points if p.difference),
            "points": [],
        }
        for check in report.checks
    ]
    return {
        "index": "azi",
        "m_range": list(report.m_range),
        "n_range": list(report.n_range),
        "forms": forms,
    }


# One point of a verify report, laid out as json.dumps(indent=2) lays out
# {"m", "n", "claimed", "oracle", "difference"} (each a num/den pair) at its
# depth: report > "forms" > form > "points".
_POINT_RECORD = """\
        {
          "m": %d,
          "n": %d,
          "claimed": {
            "num": %d,
            "den": %d
          },
          "oracle": {
            "num": %d,
            "den": %d
          },
          "difference": {
            "num": %d,
            "den": %d
          }
        }"""
_EMPTY_POINTS = '"points": []'


def _write_report(report: DiscrepancyReport) -> None:
    """Write json.dumps(<report with every point>, indent=2) and a newline to stdout.

    The pure-Python encoder that indent selects is slow for thousands of
    points, so only the skeleton goes through json; each check's points
    (never none, as a grid is never empty) are rendered from _POINT_RECORD
    and spliced in where the skeleton has an empty list. A string value
    cannot hold _EMPTY_POINTS, as json escapes its quotes.
    """
    out = sys.stdout
    pieces = json.dumps(_report_fields(report), indent=2).split(_EMPTY_POINTS)
    out.write(pieces[0])
    for check, piece in zip(report.checks, pieces[1:]):
        out.write('"points": [\n')
        out.write(",\n".join([
            _POINT_RECORD % (
                p.m, p.n,
                p.claimed.numerator, p.claimed.denominator,
                p.oracle.numerator, p.oracle.denominator,
                p.difference.numerator, p.difference.denominator,
            )
            for p in check.points
        ]))
        out.write("\n      ]")
        out.write(piece)
    out.write("\n")


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_published_forms(args.m_range, args.n_range, _kinds(args.kind))
    _write_report(report)
    stated_ok = all(c.consistent for c in report.checks_for(Provenance.STATED))
    return 0 if stated_ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    ms, ns = validate_ranges(args.m_range, args.n_range)
    which = INDEX_NAMES if args.indices is None else tuple(args.indices.split(","))
    for name in which:
        if name not in INDEX_NAMES:
            raise InvalidSpecError(
                f"unknown index {name!r} (expected a comma-separated subset of {INDEX_LIST})"
            )
    kinds = sorted(_kinds(args.kind), key=lambda k: k.value)
    # stop - start rather than len(), which overflows past sys.maxsize items
    row_count = len(kinds) * (ms.stop - ms.start) * (ns.stop - ns.start)
    if row_count > MAX_SWEEP_ROWS:
        raise GridTooLargeError(
            f"sweep grid m={ms[0]}:{ms[-1]}, n={ns[0]}:{ns[-1]} would write {row_count} rows, "
            f"more than the {MAX_SWEEP_ROWS} one sweep may write"
        )
    # One row is template % (kind, m, n, vertices, edges, then the cells of
    # each wanted index); an index not wanted prints as empty cells. No cell
    # holds a comma, quote or newline, so none needs CSV quoting.
    header = ["kind", "m", "n", "vertices", "edges"]
    slots = ["%s"] * len(header)
    for f in EDGE_FUNCTIONS.values():
        names = _cell_names(f)
        header += [f.name if c == "decimal" else f"{f.name}_{c}" for c in names]
        slots += ["%s" if f.name in which else ""] * len(names)
    template = ",".join(slots) + "\n"
    wanted = [f for f in EDGE_FUNCTIONS.values() if f.name in which]
    try:
        # Opened before any row is computed, so an unwritable path fails fast;
        # each row is written as soon as it is computed, so memory stays flat.
        with open(args.out, "w", newline="") as out:
            out.write(",".join(header) + "\n")
            for kind in kinds:
                label, tubes = kind.value, grid_tubes(kind, args.m_range, args.n_range)
                for m, n, vertices, edges, partition in tubes:
                    cells = (label, m, n, vertices, edges)
                    for f in wanted:
                        cells += _index_cells(partition, f)
                    out.write(template % cells)
    except BrokenPipeError:  # --out is stdout, or a pipe, and its reader went away
        raise
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {row_count} rows to {args.out}", file=sys.stderr)
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
        p.add_argument("--kind", required=True, choices=KIND_NAMES)
        p.add_argument("--m", type=int, required=True, help="hexagons around the circumference (>= 2)")
        p.add_argument("--n", type=int, required=True, help="rows / repetitions (>= 1)")

    def add_grid_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", choices=[*KIND_NAMES, "both"], default="both")
        p.add_argument("--m-range", required=True, **_int_pair("range", ":", "LO:HI"))
        p.add_argument("--n-range", required=True, **_int_pair("range", ":", "LO:HI"))

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
    p.add_argument("--kind", required=True, choices=KIND_NAMES)
    p.add_argument("--index", choices=INDEX_NAMES, default="azi")
    p.add_argument("--samples", nargs="+", **_int_pair("sample", ",", "M,N"))
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "verify",
        help="adjudicate published closed forms against the brute-force oracle "
        "(exit 1 when a stated form is inconsistent)",
    )
    add_grid_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="write a CSV of index values over a grid")
    add_grid_args(p)
    p.add_argument("--indices", help=f"comma-separated subset of {INDEX_LIST} (default all)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
    except ValueError as exc:
        # InvalidSpecError (empty ranges included), GraphError: all usage/validation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the rest of stdout's buffer goes to devnull, so exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
