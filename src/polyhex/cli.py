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
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain, islice, repeat

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
    _build_counts,
    _edge_id_rows,
    build_nanotube,  # unused: test_uninstall_restores_every_patched_attribute reads it
    grid_tubes,
    validate_ranges,
)

KIND_NAMES = tuple(kind.value for kind in NanotubeKind)
INDEX_NAMES = tuple(EDGE_FUNCTIONS)
INDEX_LIST = ",".join(INDEX_NAMES)  # as --indices takes them

# Most rows one sweep may write. Sweep writes each row as it is computed, so
# its memory does not grow with the grid (tracemalloc peak near 70 KB at
# 4,000 and at 100,000 rows) and this cap bounds time only: about 18 us per
# row (wall clock of a whole `sweep --kind both --m-range 2:201 --n-range
# 1:250` process, 100,000 rows, start-up included: median of 15 runs, quartiles
# 16 and 18 us; 2-CPU Xeon VM, Python 3.11.7), so a sweep at the cap takes
# under 30 s.
MAX_SWEEP_ROWS = 1_000_000

# Lines per % format in `build`. Beside the tube's ids, one row of edges and one
# chunk's template, fields and text are all it holds: at [300, 300], 110 KB traced
# for JSON and 170 to 220 KB for DOT, whose divmod makes new ints. 1,024 was no faster.
_OUTPUT_CHUNK = 512


def _fraction_fields(q: Fraction) -> dict[str, int]:
    return {"num": q.numerator, "den": q.denominator}


def _exact_decimal(num: int, den: int) -> str:
    """Decimal string of num/den in lowest terms: exact when it terminates, else 15 digits."""
    # den = 2**a * 5**b has 2**a <= den and 2**b <= 5**b <= den, so a and b are
    # at most places and den divides 10**places; any other prime factor of den
    # leaves a remainder.
    places = den.bit_length() - 1
    scale, remainder = divmod(10**places, den)
    if remainder:
        return "%.15g" % (num / den)  # the float slot; float(Fraction(num, den)) is this quotient
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


def _cell_slots(f: EdgeFunction) -> tuple[tuple[str, str], ...]:
    """(name, % slot) of each cell f's value is written as: num, den and exact decimal, or
    %.15g, as _exact_decimal prints a quotient that does not terminate."""
    if f.exact:
        return ("num", "%d"), ("den", "%d"), ("decimal", "%s")
    return (("decimal", "%.15g"),)


def _index_rows(
    tubes: Iterable[tuple[int, int, int, int, EdgePartition]], functions: Sequence[EdgeFunction]
) -> Iterator[tuple]:
    """(m, n, vertices, edges, then the cells _cell_slots names for each of functions) per
    grid_tubes row, each cell a value for its slot."""
    for m, n, vertices, edges, partition in tubes:
        cells = [m, n, vertices, edges]
        for f in functions:
            value = index_from_partition(partition, f)
            if f.exact:
                num, den = value._ratio  # lowest terms, as the Fraction exact would be
                cells += num, den, _exact_decimal(num, den)
            else:
                cells.append(value.approx)
        yield tuple(cells)


def _tube_record(args: argparse.Namespace) -> tuple[dict, tuple]:
    """The JSON record of the tube args name, and the one grid_tubes row it is read off."""
    spec = NanotubeSpec(NanotubeKind.parse(args.kind), args.m, args.n)
    row = next(grid_tubes(spec.kind, (spec.m, spec.m), (spec.n, spec.n)))
    _, _, vertices, edges, partition = row
    return {
        "kind": spec.kind.value,
        "m": spec.m,
        "n": spec.n,
        "vertex_count": vertices,
        "edge_count": edges,
        "partition": {f"{lo},{hi}": count for (lo, hi), count in partition.classes.items()},
    }, row


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2))
    sys.stdout.write("\n")


def _render(line: str, ints_per_line: int, ints: Iterator[int]) -> Iterator[str]:
    """line % (the next ints_per_line of ints) for each line, _OUTPUT_CHUNK lines a string."""
    step = ints_per_line * _OUTPUT_CHUNK
    while chunk := tuple(islice(ints, step)):
        yield line * (len(chunk) // ints_per_line) % chunk


def cmd_build(args: argparse.Namespace) -> int:
    spec = NanotubeSpec(NanotubeKind.parse(args.kind), args.m, args.n)
    vertex_count, edge_count = _build_counts(spec)  # refused before any edge is generated
    ids = chain.from_iterable(_edge_id_rows(spec.kind, spec.m, spec.n))  # sorted, no Graph
    out = sys.stdout  # a chunk at a time, so no copy of the document is held
    if args.format == "json":
        # %d prints ints as json does, no kind needs escapes; chunks lose their last comma
        out.write('{"kind":"%s","m":%d,"n":%d,"vertex_count":%d,"edge_count":%d,"edges":['
                  % (spec.kind.value, spec.m, spec.n, vertex_count, edge_count))
        out.writelines(
            ("," if i else "") + text[:-1] for i, text in enumerate(_render("[%d,%d],", 2, ids))
        )
        out.write("]}\n")
        return 0
    width = 2 * spec.m

    def rows_columns(vertices: Iterable[int]) -> Iterator[int]:  # each "row_column" label's fields
        return chain.from_iterable(map(divmod, vertices, repeat(width)))

    out.write(f"graph {spec.kind.value}_m{spec.m}_n{spec.n} {{\n")
    out.writelines(_render('  "%d_%d";\n', 2, rows_columns(range(vertex_count))))
    out.writelines(_render('  "%d_%d" -- "%d_%d";\n', 4, rows_columns(ids)))
    out.write("}\n")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    _emit(_tube_record(args)[0])
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    functions = EDGE_FUNCTIONS.values() if args.index == "all" else (EDGE_FUNCTIONS[args.index],)
    record, row = _tube_record(args)
    cells = iter(next(_index_rows([row], functions))[4:])
    # each cell as its slot prints it, but a %d cell stays an int, which json prints alike
    indices = {
        f.name: {name: value if slot == "%d" else slot % value
                 for (name, slot), value in zip(_cell_slots(f), cells)}
        for f in functions
    }
    _emit({**record, "indices": indices})
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
            "mismatches": sum(1 for p in check.points if p._ints[4]),  # difference numerators
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
        # each point's _ints are its claimed, oracle and difference num/den pairs
        out.write(",\n".join([_POINT_RECORD % (p.m, p.n, *p._ints) for p in check.points]))
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
    # One row is its kind's template % (m, n, vertices, edges, then the cells
    # of each wanted index, _index_rows's row); an index not wanted prints as
    # empty cells. No cell holds a comma, quote or newline, so none needs CSV
    # quoting, and no kind name holds a %.
    header = ["kind", "m", "n", "vertices", "edges"]
    slots = ["%d"] * 4
    for f in EDGE_FUNCTIONS.values():
        for name, slot in _cell_slots(f):
            header.append(f.name if name == "decimal" else f"{f.name}_{name}")
            slots.append(slot if f.name in which else "")
    wanted = [f for f in EDGE_FUNCTIONS.values() if f.name in which]
    try:
        # Opened before any row is computed, so an unwritable path fails fast;
        # each row is written as soon as it is computed, so memory stays flat.
        with open(args.out, "w", newline="") as out:
            out.write(",".join(header) + "\n")
            for kind in kinds:
                template = ",".join([kind.value, *slots]) + "\n"
                rows = _index_rows(grid_tubes(kind, args.m_range, args.n_range), wanted)
                out.writelines(map(template.__mod__, rows))
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
