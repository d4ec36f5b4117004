"""Acceptance gate: eight criteria, one test and one printed line each.

Run under pytest (use -s to see the per-criterion lines), or standalone:

    python3 tests/test_acceptance.py

Each criterion prints exactly one line, "criterion N: PASS: ..." or
"criterion N: FAIL: ...", and the standalone runner exits nonzero if any
criterion fails.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from polyhex import (
    AZI,
    DEFAULT_FIT_SAMPLES,
    NanotubeKind,
    NanotubeSpec,
    Provenance,
    abc,
    abc_term,
    azi,
    azi_term,
    build_nanotube,
    edge_partition,
    fit_closed_form,
    index_from_partition,
    randic,
    randic_term,
    tube_edge_count,
    tube_edge_partition,
    tube_vertex_count,
    verify_published_forms,
)

M_RANGE = range(2, 13)
N_RANGE = range(1, 13)
GRID = [(m, n) for m in M_RANGE for n in N_RANGE]
A_COEFF = Fraction(2187, 64)
FITTED_B = {NanotubeKind.ARMCHAIR: Fraction(807, 32), NanotubeKind.ZIGZAG: Fraction(295, 32)}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL: {description}")
        raise
    print(f"criterion {number}: PASS: {description}")


def expected_partition(kind: NanotubeKind, m: int, n: int) -> dict[tuple[int, int], int]:
    classes = {(2, 3): 4 * m, (3, 3): 3 * m * n - 2 * m}
    if kind is NanotubeKind.ARMCHAIR:
        classes[(2, 2)] = 2 * m
    return classes


def rel_gap(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def test_criterion_1_partition_reproduction():
    with criterion(1, "edge partitions and counts match the closed formulas on the full grid"):
        start = time.perf_counter()
        instances = 0
        for kind in NanotubeKind:
            for m, n in GRID:
                spec = NanotubeSpec(kind, m, n)
                g = build_nanotube(spec)
                if kind is NanotubeKind.ARMCHAIR:
                    assert g.vertex_count == 2 * m * (n + 2)
                    assert g.edge_count == 3 * m * n + 4 * m
                else:
                    assert g.vertex_count == 2 * m * (n + 1)
                    assert g.edge_count == 3 * m * n + 2 * m
                assert dict(edge_partition(g).classes) == expected_partition(kind, m, n)
                instances += 1
        elapsed = time.perf_counter() - start
        assert instances == 264
        assert elapsed < 1.0, f"partition reproduction took {elapsed:.3f}s"


def test_criterion_2_fitted_mn_coefficient():
    with criterion(2, "fitted closed forms have m*n coefficient exactly 2187/64 for both kinds"):
        for kind in NanotubeKind:
            form = fit_closed_form(kind, "azi", DEFAULT_FIT_SAMPLES)
            assert form.a == A_COEFF, f"{kind.value}: a = {form.a}"


def test_criterion_3_oracle_adjudication():
    with criterion(3, "all four published b-coefficients inconsistent, fitted forms exact on the grid"):
        for kind in NanotubeKind:
            refit = fit_closed_form(kind, "azi", DEFAULT_FIT_SAMPLES)
            assert refit.b == FITTED_B[kind], f"{kind.value}: b = {refit.b}"
        report = verify_published_forms((2, 12), (1, 12))
        published = [
            c for c in report.checks
            if c.form.provenance in (Provenance.STATED, Provenance.PROOF)
        ]
        fitted = report.checks_for(Provenance.FITTED)
        assert len(published) == 4 and len(fitted) == 2
        assert {c.form.b for c in published} == {
            Fraction(-573, 64), Fraction(-807, 32),
            Fraction(-597, 64), Fraction(-434, 64),
        }
        for check in published:
            assert not check.consistent
        for check in fitted:
            assert len(check.points) == 132
            assert check.consistent
            assert all(p.difference == 0 for p in check.points)


def test_criterion_4_edgewise_partition_equivalence():
    with criterion(4, "edgewise and partition paths agree (exact for azi, 1e-12 for randic/abc)"):
        for kind in NanotubeKind:
            for m, n in GRID:
                g = build_nanotube(NanotubeSpec(kind, m, n))
                # azi, randic and abc sum over degree classes, so the
                # edgewise side is summed here, term by term over the edges
                edgewise = [(g.degrees[u], g.degrees[v]) for u, v in g.edges]
                assert sum((azi_term(*pair) for pair in edgewise), Fraction(0)) == azi(g).exact
                assert rel_gap(
                    math.fsum(randic_term(*pair) for pair in edgewise), randic(g).approx
                ) <= 1e-12
                assert rel_gap(
                    math.fsum(abc_term(*pair) for pair in edgewise), abc(g).approx
                ) <= 1e-12


def test_criterion_5_cross_kind_identity():
    with criterion(5, "azi(armchair) - azi(zigzag) equals 16m on the full grid"):
        for m, n in GRID:
            arm = azi(build_nanotube(NanotubeSpec(NanotubeKind.ARMCHAIR, m, n))).exact
            zig = azi(build_nanotube(NanotubeSpec(NanotubeKind.ZIGZAG, m, n))).exact
            assert arm - zig == 16 * m, f"(m, n) = ({m}, {n})"


def test_criterion_6_spot_values():
    with criterion(6, "spot values: armchair[5,9] = 106485/64, zigzag[7,5] = 80675/64"):
        arm = azi(build_nanotube(NanotubeSpec(NanotubeKind.ARMCHAIR, 5, 9))).exact
        zig = azi(build_nanotube(NanotubeSpec(NanotubeKind.ZIGZAG, 7, 5))).exact
        assert arm == Fraction(106485, 64)
        assert zig == Fraction(80675, 64)


def test_criterion_7_performance():
    with criterion(7, "partition-first azi at m=n=1000 under 1s, edgewise at m=n=300 under 5s"):
        # partition-first path is trusted only after spot validation against
        # built graphs on a sampled sub-grid
        for kind in NanotubeKind:
            for m, n in ((2, 1), (5, 4), (12, 12), (40, 3), (3, 40)):
                spec = NanotubeSpec(kind, m, n)
                assert dict(tube_edge_partition(spec).classes) == dict(
                    edge_partition(build_nanotube(spec)).classes
                )

        big = NanotubeSpec(NanotubeKind.ARMCHAIR, 1000, 1000)
        start = time.perf_counter()
        value = index_from_partition(tube_edge_partition(big), AZI)
        fast_elapsed = time.perf_counter() - start
        assert tube_edge_count(big) == 3_004_000
        assert value.exact == A_COEFF * 1000 * 1000 + FITTED_B[NanotubeKind.ARMCHAIR] * 1000
        assert fast_elapsed < 1.0, f"partition-first took {fast_elapsed:.3f}s"

        medium = NanotubeSpec(NanotubeKind.ARMCHAIR, 300, 300)
        start = time.perf_counter()
        g = build_nanotube(medium)
        edgewise = azi(g)
        slow_elapsed = time.perf_counter() - start
        assert g.edge_count == 271_200
        assert edgewise.exact == index_from_partition(tube_edge_partition(medium), AZI).exact
        assert slow_elapsed < 5.0, f"edgewise took {slow_elapsed:.3f}s"


def test_criterion_8_sweep_determinism(tmp_path=None):
    with criterion(8, "two full-grid sweep runs produce byte-identical CSV"):
        if tmp_path is None:
            import tempfile

            tmp_path = Path(tempfile.mkdtemp())
        csv_a = Path(tmp_path) / "sweep_a.csv"
        csv_b = Path(tmp_path) / "sweep_b.csv"
        for out in (csv_a, csv_b):
            result = subprocess.run(
                [
                    sys.executable, "-m", "polyhex", "sweep",
                    "--m-range", "2:12", "--n-range", "1:12", "--out", str(out),
                ],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
        content_a, content_b = csv_a.read_bytes(), csv_b.read_bytes()
        assert content_a == content_b
        assert len(content_a.splitlines()) == 1 + 264

        expected_vertices = tube_vertex_count(NanotubeSpec(NanotubeKind.ARMCHAIR, 5, 9))
        golden = f"armchair,5,9,{expected_vertices},155,106485,64,1663.828125".encode()
        assert any(line.startswith(golden) for line in content_a.splitlines())


CRITERIA = [
    test_criterion_1_partition_reproduction,
    test_criterion_2_fitted_mn_coefficient,
    test_criterion_3_oracle_adjudication,
    test_criterion_4_edgewise_partition_equivalence,
    test_criterion_5_cross_kind_identity,
    test_criterion_6_spot_values,
    test_criterion_7_performance,
    test_criterion_8_sweep_determinism,
]


def run_all() -> int:
    failures = 0
    for check in CRITERIA:
        try:
            check()
        except BaseException as exc:  # noqa: BLE001 - keep going, report at end
            failures += 1
            print(f"  ({type(exc).__name__}: {exc})", file=sys.stderr)
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_all())
