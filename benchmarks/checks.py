"""Correctness checks on every operation of a pass, against `reference`.

An operation passes when it raised nothing, returned the expected exit code
and its output agrees with the independent reference. `verify` exits 1 by
design: the published forms are inconsistent, and that is the expected
result. Each check returns a list of problems; an empty list is a pass.

CLI outputs are checked in depth the first time an operation runs in a
benchmark run; later passes must then reproduce the same bytes, which the
`Ledger` compares by hash.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from collections import Counter
from fractions import Fraction

import reference as ref

EXPECTED_EXIT = {"verify": 1, "fit": 0, "sweep": 0, "cli_partition": 0, "cli_build": 0}
SWEEP_HEADER = ["kind", "m", "n", "vertices", "edges", "azi_num", "azi_den", "azi", "randic", "abc"]


def _grid(inputs: dict):
    (m_lo, m_hi), (n_lo, n_hi) = inputs["m_range"], inputs["n_range"]
    return [(m, n) for m in range(m_lo, m_hi + 1) for n in range(n_lo, n_hi + 1)]


def _fraction(fields: dict) -> Fraction:
    return Fraction(fields["num"], fields["den"])


def _terminates(q: Fraction) -> bool:
    den = q.denominator
    for p in (2, 5):
        while den % p == 0:
            den //= p
    return den == 1


def check_verify(data: bytes, inputs: dict) -> list[str]:
    report = json.loads(data)
    problems = []
    if report.get("index") != "azi":
        problems.append(f"verify index is {report.get('index')!r}, expected 'azi'")
    if report.get("m_range") != inputs["m_range"] or report.get("n_range") != inputs["n_range"]:
        problems.append("verify report ranges differ from the request")
    grid = _grid(inputs)
    seen = set()
    for form in report.get("forms", []):
        kind, provenance = form["kind"], form["provenance"]
        seen.add((kind, provenance))
        a, b = _fraction(form["a"]), _fraction(form["b"])
        expected_b = ref.FITTED_B[kind] if provenance == "fitted" else ref.PUBLISHED_B.get((kind, provenance))
        if a != ref.A or b != expected_b:
            problems.append(f"{kind} {provenance}: coefficients ({a}, {b}), expected ({ref.A}, {expected_b})")
        differences = [a * m * n + b * m - ref.azi(kind, m, n) for m, n in grid]
        want = "inconsistent" if any(differences) else "consistent"
        if form["verdict"] != want:
            problems.append(f"{kind} {provenance}: verdict {form['verdict']!r}, expected {want!r}")
        # Per-point output may become opt-in; when present it must be exact.
        if "points" in form:
            points = form["points"]
            if [(p["m"], p["n"]) for p in points] != grid:
                problems.append(f"{kind} {provenance}: points do not cover the grid in order")
                continue
            for p, diff in zip(points, differences):
                oracle = ref.azi(kind, p["m"], p["n"])
                if _fraction(p["oracle"]) != oracle or _fraction(p["difference"]) != diff \
                        or _fraction(p["claimed"]) != oracle + diff:
                    problems.append(f"{kind} {provenance}: wrong point at m={p['m']}, n={p['n']}")
                    break
            if form["mismatches"] != sum(1 for d in differences if d):
                problems.append(f"{kind} {provenance}: mismatch count {form['mismatches']}")
    expected = {(kind, p) for kind in ("armchair", "zigzag") for p in ("stated", "proof", "fitted")}
    if seen != expected:
        problems.append(f"verify report forms {sorted(seen)}, expected {sorted(expected)}")
    return problems


def check_fit(data: bytes, kind: str) -> list[str]:
    fit = json.loads(data)
    a, b = _fraction(fit["a"]), _fraction(fit["b"])
    if (fit["kind"], fit["index"], fit["provenance"]) != (kind, "azi", "fitted"):
        return [f"fit header {fit['kind']}, {fit['index']}, {fit['provenance']}"]
    if (a, b) != (ref.A, ref.FITTED_B[kind]):
        return [f"fit {kind}: ({a}, {b}), expected ({ref.A}, {ref.FITTED_B[kind]})"]
    return []


def check_sweep(stdout: bytes, table: bytes, inputs: dict) -> list[str]:
    if stdout:
        return [f"sweep wrote {len(stdout)} bytes to stdout, expected none"]
    rows = list(csv.reader(io.StringIO(table.decode("utf-8"), newline="")))
    if not rows or rows[0] != SWEEP_HEADER:
        return ["sweep CSV header differs"]
    expected = [(kind, m, n) for kind in ("armchair", "zigzag") for m, n in _grid(inputs)]
    if len(rows) - 1 != len(expected):
        return [f"sweep CSV has {len(rows) - 1} rows, expected {len(expected)}"]
    for row, (kind, m, n) in zip(rows[1:], expected):
        azi = ref.azi(kind, m, n)
        decimal = Fraction(row[7])
        ok = (
            row[:5] == [kind, str(m), str(n), str(ref.vertex_count(kind, m, n)), str(ref.edge_count(kind, m, n))]
            and Fraction(int(row[5]), int(row[6])) == azi and int(row[6]) == azi.denominator
            and (decimal == azi if _terminates(azi) else ref.close(float(decimal), float(azi)))
            and ref.close(float(row[8]), ref.randic(kind, m, n))
            and ref.close(float(row[9]), ref.abc(kind, m, n))
        )
        if not ok:
            return [f"sweep CSV row for {kind} m={m} n={n} is wrong: {','.join(row)}"]
    return []


def _tube_header(doc: dict, kind: str, m: int, n: int) -> list[str]:
    got = [doc.get(k) for k in ("kind", "m", "n", "vertex_count", "edge_count")]
    want = [kind, m, n, ref.vertex_count(kind, m, n), ref.edge_count(kind, m, n)]
    return [] if got == want else [f"{kind} [{m}, {n}] header {got}, expected {want}"]


def check_partition(data: bytes, kind: str, m: int, n: int) -> list[str]:
    doc = json.loads(data)
    want = {f"{lo},{hi}": count for (lo, hi), count in ref.classes(kind, m, n).items()}
    problems = _tube_header(doc, kind, m, n)
    if doc.get("partition") != want:
        problems.append(f"{kind} [{m}, {n}] partition {doc.get('partition')}, expected {want}")
    return problems


def check_build(data: bytes, kind: str, m: int, n: int) -> list[str]:
    doc = json.loads(data)
    problems = _tube_header(doc, kind, m, n)
    if problems:
        return problems
    edges = [tuple(edge) for edge in doc["edges"]]
    vertices = doc["vertex_count"]
    if len(edges) != doc["edge_count"]:
        return [f"{kind} [{m}, {n}] lists {len(edges)} edges"]
    if any(not 0 <= u < v < vertices for u, v in edges) or any(a >= b for a, b in zip(edges, edges[1:])):
        return [f"{kind} [{m}, {n}] edges are not canonical, sorted and unique"]
    degree = [0] * vertices
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    classes = Counter(tuple(sorted((degree[u], degree[v]))) for u, v in edges)
    if dict(sorted(classes.items())) != ref.classes(kind, m, n):
        return [f"{kind} [{m}, {n}] built graph has degree classes {dict(classes)}"]
    return []


def check_value(step: str, value, kind: str, m: int, n: int) -> list[str]:
    """Check a library result (as recorded by `workloads.run_pass`)."""
    if step == "build_nanotube":
        ok = value == {"vertex_count": ref.vertex_count(kind, m, n), "edge_count": ref.edge_count(kind, m, n)}
    elif step == "edge_partition":
        ok = value == [[lo, hi, count] for (lo, hi), count in ref.classes(kind, m, n).items()]
    elif step == "azi":
        ok = Fraction(*value) == ref.azi(kind, m, n)
    else:
        expected = ref.randic(kind, m, n) if step == "randic" else ref.abc(kind, m, n)
        ok = isinstance(value, float) and math.isfinite(value) and ref.close(value, expected)
    return [] if ok else [f"{step} on {kind} [{m}, {n}] returned {value!r}"]


class Ledger:
    """Output hashes per operation: the first pass is checked, later ones must match it."""

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}

    def check(self, op: str, outputs: list[bytes], deep_check) -> list[str]:
        digest = hashlib.sha256(b"\0".join(outputs)).hexdigest()
        if op in self.digests:
            if digest != self.digests[op]:
                return [f"{op}: output bytes differ from the first pass"]
            return []
        problems = deep_check()
        if not problems:
            self.digests[op] = digest
        return problems


def check_record(workload: str, inputs: dict, record: dict, outdir: str, ledger: Ledger) -> list[str]:
    """Problems with one operation's record; empty when it is correct."""
    op = record["op"]
    if "error" in record:
        return [f"{op} raised {record['error']}"]
    step, _, kind = op.partition(".")
    tube = next((t for t in inputs.get("tubes", []) if t["kind"] == kind), None)
    size = (tube["m"], tube["n"]) if tube else ()
    if "value" in record:
        return check_value(step, record["value"], kind, *size)
    if record["exit"] != EXPECTED_EXIT[step]:
        return [f"{op} exited {record['exit']}, expected {EXPECTED_EXIT[step]}"]
    outputs = []
    for name in record["files"]:
        with open(os.path.join(outdir, name), "rb") as handle:
            outputs.append(handle.read())
    deep = {
        "verify": lambda: check_verify(outputs[0], inputs),
        "fit": lambda: check_fit(outputs[0], kind),
        "sweep": lambda: check_sweep(outputs[0], outputs[1], inputs),
        "cli_partition": lambda: check_partition(outputs[0], kind, *size),
        "cli_build": lambda: check_build(outputs[0], kind, *size),
    }[step]
    return ledger.check(op, outputs, deep)


def output_bytes(record: dict, outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(outdir, name)) for name in record.get("files", []))
