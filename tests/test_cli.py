"""Command-line behavior: output schemas, exit codes, determinism."""

from __future__ import annotations

import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyhex.cli
import polyhex.forms
import polyhex.graph
import polyhex.indices
import polyhex.tubes
from polyhex import (
    ClosedForm,
    Graph,
    NanotubeKind,
    NanotubeSpec,
    Provenance,
    build_nanotube,
    edge_partition,
    published_forms,
    tube_edge_count,
    verify_forms,
    verify_published_forms,
)
from polyhex.cli import (
    INDEX_NAMES,
    MAX_SWEEP_ROWS,
    _cell_slots,
    _exact_decimal,
    _write_report,
    main,
)
from polyhex.indices import EDGE_FUNCTIONS

import oracles


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(__file__).resolve().parents[1] / "src")


def process_env() -> dict[str, str]:
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def run_process(*argv: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "polyhex", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=process_env(),
    )


def _build_and_graph_peaks(m: int, n: int, fmt: str) -> tuple[int, int]:
    """Traced peaks of `build` for armchair [m, n], stdout discarded, and of build_nanotube."""

    def traced_peak(call):
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        call()
        return tracemalloc.get_traced_memory()[1] - before

    argv = ["build", "--kind", "armchair", "--m", str(m), "--n", str(n), "--format", fmt]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        graph_peak = traced_peak(lambda: build_nanotube(NanotubeSpec(NanotubeKind.ARMCHAIR, m, n)))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            codes = []
            build_peak = traced_peak(lambda: codes.append(main(argv)))
    finally:
        if started:
            tracemalloc.stop()
    assert codes == [0]
    return build_peak, graph_peak


class TestBuild:
    def test_json_single_line(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--kind", "zigzag", "--m", "2", "--n", "1")
        assert code == 0
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert payload["kind"] == "zigzag"
        assert payload["vertex_count"] == 8
        assert payload["edge_count"] == 10
        assert len(payload["edges"]) == 10
        assert all(u < v for u, v in payload["edges"])

    @pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (5, 9)])
    @pytest.mark.parametrize("kind", ["armchair", "zigzag"])
    def test_json_round_trips_through_graph(self, capsys, kind, m, n):
        spec_args = ("--kind", kind, "--m", str(m), "--n", str(n))
        code, out, _ = run_cli(capsys, "build", *spec_args)
        assert code == 0
        payload = json.loads(out)
        g = Graph(payload["vertex_count"], [tuple(e) for e in payload["edges"]])
        part = {f"{lo},{hi}": c for (lo, hi), c in edge_partition(g).classes.items()}

        code, out, _ = run_cli(capsys, "partition", *spec_args)
        assert code == 0
        record = json.loads(out)
        assert record["partition"] == part
        assert (record["vertex_count"], record["edge_count"]) == (g.vertex_count, g.edge_count)

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "build", "--kind", "armchair", "--m", "2", "--n", "1",
            "--format", "dot",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "graph armchair_m2_n1 {"
        assert lines[-1] == "}"
        assert '  "0_0";' in lines
        assert sum(1 for line in lines if " -- " in line) == 14

    # Whatever the chunk size, the chunks join into the document json.dumps
    # writes in one call. Chunks of 1, 5, 7 and 16 against tubes of 10, 14,
    # 15 and 16 edges cover one edge per chunk, a tube below one chunk,
    # exactly k chunks and k chunks plus one edge.
    @pytest.mark.parametrize(
        "kind, m, n", [("zigzag", 2, 1), ("armchair", 2, 1), ("zigzag", 3, 1), ("zigzag", 2, 2)]
    )
    @pytest.mark.parametrize("chunk", [1, 5, 7, 16])
    def test_json_chunk_seams(self, capsys, monkeypatch, chunk, kind, m, n):
        monkeypatch.setattr(polyhex.cli, "_OUTPUT_CHUNK", chunk)
        code, out, _ = run_cli(capsys, "build", "--kind", kind, "--m", str(m), "--n", str(n))
        assert code == 0
        g = build_nanotube(NanotubeSpec(NanotubeKind.parse(kind), m, n))
        document = {
            "kind": kind,
            "m": m,
            "n": n,
            "vertex_count": g.vertex_count,
            "edge_count": g.edge_count,
            "edges": g.edges,
        }
        assert out == json.dumps(document, separators=(",", ":")) + "\n"

    # Whatever the chunk size, the chunks join into the document one line per
    # vertex and per edge makes, on the tubes of test_json_chunk_seams.
    @pytest.mark.parametrize(
        "kind, m, n", [("zigzag", 2, 1), ("armchair", 2, 1), ("zigzag", 3, 1), ("zigzag", 2, 2)]
    )
    @pytest.mark.parametrize("chunk", [1, 5, 7, 16])
    def test_dot_chunk_seams(self, capsys, monkeypatch, chunk, kind, m, n):
        monkeypatch.setattr(polyhex.cli, "_OUTPUT_CHUNK", chunk)
        code, out, _ = run_cli(
            capsys, "build", "--kind", kind, "--m", str(m), "--n", str(n), "--format", "dot"
        )
        assert code == 0
        g = build_nanotube(NanotubeSpec(NanotubeKind.parse(kind), m, n))
        width = 2 * m

        def label(v: int) -> str:
            return f'"{v // width}_{v % width}"'

        lines = [f"graph {kind}_m{m}_n{n} {{"]
        lines += [f"  {label(v)};" for v in range(g.vertex_count)]
        lines += [f"  {label(u)} -- {label(v)};" for u, v in g.edges]
        assert out == "\n".join([*lines, "}"]) + "\n"

    # Multi-row tubes whose rows hold 9 or 12 edges (6 or 8 in the last), so
    # chunks of 5 and 7 edges, or of 5 and 7 DOT lines, end inside a row.
    @pytest.mark.parametrize(
        "kind, m, n", [("armchair", 3, 2), ("zigzag", 3, 2), ("zigzag", 4, 3)]
    )
    @pytest.mark.parametrize("chunk", [5, 7])
    def test_chunk_seams_inside_rows(self, capsys, monkeypatch, chunk, kind, m, n):
        self.test_json_chunk_seams(capsys, monkeypatch, chunk, kind, m, n)
        self.test_dot_chunk_seams(capsys, monkeypatch, chunk, kind, m, n)

    # `build` reads the tube's sorted edge ids, never a Graph: it holds the
    # tube's ids (40 traced bytes a vertex), one row of edges and one chunk,
    # which DOT writes a chunk at a time and JSON 512 edges at a time. So at
    # every size it peaks below build_nanotube plus 256 KiB.
    @pytest.mark.parametrize("m, n", [(60, 60), (120, 60)])
    def test_dot_peak_traced_memory_is_the_graph_alone(self, m, n):
        build_peak, graph_peak = _build_and_graph_peaks(m, n, "dot")
        assert build_peak < graph_peak + 256 * 1024

    @pytest.mark.parametrize("m, n", [(60, 60), (120, 60), (200, 120)])
    def test_json_peak_traced_memory_is_the_graph_alone(self, m, n):
        build_peak, graph_peak = _build_and_graph_peaks(m, n, "json")
        assert build_peak < graph_peak + 256 * 1024

    # At [200, 120] `build` peaks (1.9 MB) under a fixed 2.5 MiB, which
    # build_nanotube exceeds (3.6 MB, 50 traced bytes an edge;
    # test_peak_and_kept_memory_per_edge in test_graph bounds it at 64). A
    # Graph, or every edge's ids held at once (1.2 MB more), breaks the bound.
    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_peak_traced_memory_is_far_under_the_graph(self, fmt):
        build_peak, graph_peak = _build_and_graph_peaks(200, 120, fmt)
        bound = 5 * 1024 * 1024 // 2
        assert build_peak < bound < graph_peak

    def test_rejects_small_m(self, capsys):
        code, _, err = run_cli(capsys, "build", "--kind", "armchair", "--m", "1", "--n", "3")
        assert code == 2
        assert "m must be >= 2 (got 1)" in err

    def test_rejects_huge_tube(self, capsys, monkeypatch):
        def no_edges(kind, m, n):
            raise AssertionError("edges generated for a refused tube")

        monkeypatch.setattr(polyhex.tubes, "_tube_edges", no_edges)
        code, out, err = run_cli(capsys, "build", "--kind", "armchair", "--m", "100000", "--n", "100000")
        assert code == 2
        assert out == ""
        assert "30000400000 edges, more than the 5000000" in err

    def test_refused_before_any_edge_id(self, capsys, monkeypatch):
        def no_ids(kind, m, n):
            raise AssertionError("edge ids generated for a refused tube")

        for module in (polyhex.cli, polyhex.tubes):
            monkeypatch.setattr(module, "_edge_id_rows", no_ids)
        for fmt in ("json", "dot"):
            code, out, err = run_cli(
                capsys, "build", "--kind", "zigzag", "--m", "100000", "--n", "100000",
                "--format", fmt,
            )
            assert (code, out) == (2, "")
            assert "more than the 5000000" in err

    # As tubes.MAX_BUILD_EDGES bounds build_nanotube (test_tubes.py's
    # test_limit_is_inclusive), it bounds `build`: a tube of exactly that
    # many edges prints, one row more is refused.
    def test_limit_is_inclusive(self, capsys, monkeypatch):
        spec = NanotubeSpec(NanotubeKind.ARMCHAIR, 2, 1)
        monkeypatch.setattr(polyhex.tubes, "MAX_BUILD_EDGES", tube_edge_count(spec))
        code, out, _ = run_cli(capsys, "build", "--kind", "armchair", "--m", "2", "--n", "1")
        assert code == 0
        assert len(json.loads(out)["edges"]) == tube_edge_count(spec)
        code, out, err = run_cli(capsys, "build", "--kind", "armchair", "--m", "2", "--n", "2")
        assert (code, out) == (2, "")
        assert "has 20 edges, more than the 14" in err

    def test_rejects_small_n(self, capsys):
        code, _, err = run_cli(capsys, "build", "--kind", "zigzag", "--m", "4", "--n", "0")
        assert code == 2
        assert "n must be >= 1 (got 0)" in err


class TestPartition:
    def test_zigzag_classes(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--kind", "zigzag", "--m", "7", "--n", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["partition"] == {"2,3": 28, "3,3": 91}
        assert payload["edge_count"] == 119


class TestIndex:
    def test_all_indices(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--kind", "armchair", "--m", "5", "--n", "9")
        assert code == 0
        payload = json.loads(out)
        assert payload["partition"] == {"2,2": 10, "2,3": 20, "3,3": 125}
        assert payload["indices"]["azi"] == {
            "num": 106485, "den": 64, "decimal": "1663.828125",
        }
        assert payload["indices"]["randic"] == {"decimal": "54.8316324759439"}
        assert payload["indices"]["abc"] == {"decimal": "104.54653676893"}

    def test_single_index_selection(self, capsys):
        code, out, _ = run_cli(
            capsys, "index", "--kind", "armchair", "--m", "2", "--n", "1",
            "--index", "randic",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload["indices"]) == ["randic"]
        assert payload["indices"]["randic"]["decimal"] == "5.93265299037757"

    def test_zigzag_azi(self, capsys):
        code, out, _ = run_cli(
            capsys, "index", "--kind", "zigzag", "--m", "7", "--n", "5",
            "--index", "azi",
        )
        assert code == 0
        azi_payload = json.loads(out)["indices"]["azi"]
        assert azi_payload == {"num": 80675, "den": 64, "decimal": "1260.546875"}

    # Each once exited 1 with an OverflowError traceback; "all" stops at azi.
    @pytest.mark.parametrize("index", [*INDEX_NAMES, "all"])
    def test_value_past_floats_exits_2(self, capsys, index):
        huge = str(10**200)
        code, out, err = run_cli(
            capsys, "index", "--kind", "armchair", "--m", huge, "--n", huge, "--index", index
        )
        assert (code, out) == (2, "")
        name = "azi" if index == "all" else index
        assert err == f"error: the {name} index is too large for a float\n"

    def test_value_past_floats_prints_no_traceback(self):
        huge = str(10**200)
        result = run_process("index", "--kind", "zigzag", "--m", huge, "--n", huge)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


class TestFit:
    def test_default_samples(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--kind", "zigzag")
        assert code == 0
        payload = json.loads(out)
        assert payload["a"] == {"num": 2187, "den": 64}
        assert payload["b"] == {"num": 295, "den": 32}
        assert payload["provenance"] == "fitted"
        assert payload["samples"] == [[2, 1], [2, 2], [3, 1], [3, 2]]

    def test_armchair_custom_samples(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--kind", "armchair", "--samples", "3,2", "4,5", "6,1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["a"] == {"num": 2187, "den": 64}
        assert payload["b"] == {"num": 807, "den": 32}

    def test_singular_samples_fail(self, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--kind", "armchair", "--samples", "2,1", "3,1",
        )
        assert code == 1
        assert "fit failed" in err

    def test_float_index_refused(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--kind", "armchair", "--index", "randic")
        assert code == 1
        assert "fit failed" in err

    def test_out_of_domain_sample(self, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--kind", "armchair", "--samples", "1,1", "2,2",
        )
        assert code == 2
        assert "m must be >= 2" in err

    def test_long_sample_list_refused_before_any_build(self, capsys, monkeypatch):
        def no_build(spec):
            raise AssertionError("tube built for a refused fit")

        monkeypatch.setattr(polyhex.forms, "build_nanotube", no_build)
        samples = [f"1000,{1000 + i}" for i in range(7)]
        code, out, err = run_cli(capsys, "fit", "--kind", "armchair", "--samples", *samples)
        assert code == 2
        assert out == ""
        assert "more than the 20000000 one fit may build" in err

    @pytest.mark.parametrize("samples", [["300,300"], ["300,300", "301,300"]])
    def test_singular_samples_refused_before_any_build(self, capsys, monkeypatch, samples):
        def no_build(spec):
            raise AssertionError("tube built for a refused fit")

        monkeypatch.setattr(polyhex.forms, "build_nanotube", no_build)
        code, out, err = run_cli(capsys, "fit", "--kind", "armchair", "--samples", *samples)
        assert code == 1
        assert out == ""
        assert "fit failed: samples are linearly dependent" in err


FITTED_FORMS = (
    ClosedForm(NanotubeKind.ARMCHAIR, "azi", Fraction(2187, 64), Fraction(807, 32), Provenance.FITTED),
    ClosedForm(NanotubeKind.ZIGZAG, "azi", Fraction(2187, 64), Fraction(295, 32), Provenance.FITTED),
)
# negative, zero and large coefficients, with small and large denominators
COEFFICIENTS = st.one_of(
    st.just(0),
    st.integers(-(10**40), 10**40),
    st.fractions(-(10**6), 10**6, max_denominator=10**9),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**20)),
)
RANDOM_FORMS = st.builds(
    ClosedForm, st.sampled_from(list(NanotubeKind)), st.just("azi"),
    COEFFICIENTS, COEFFICIENTS, st.sampled_from(list(Provenance)),
)


class TestVerify:
    def test_full_grid_flags_published_forms(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--m-range", "2:6", "--n-range", "1:6",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["m_range"] == [2, 6]
        assert len(payload["forms"]) == 6
        by_provenance = {}
        for form in payload["forms"]:
            by_provenance.setdefault(form["provenance"], []).append(form)
        assert all(f["verdict"] == "inconsistent" for f in by_provenance["stated"])
        assert all(f["verdict"] == "inconsistent" for f in by_provenance["proof"])
        assert all(f["verdict"] == "consistent" for f in by_provenance["fitted"])
        for form in by_provenance["fitted"]:
            assert form["mismatches"] == 0
            assert all(p["difference"] == {"num": 0, "den": 1} for p in form["points"])
        for form in by_provenance["stated"]:
            assert form["mismatches"] == len(form["points"]) == 30

    def test_single_kind_single_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--kind", "zigzag",
            "--m-range", "7:7", "--n-range", "5:5",
        )
        assert code == 1
        payload = json.loads(out)
        assert {f["kind"] for f in payload["forms"]} == {"zigzag"}
        point = payload["forms"][0]["points"][0]
        assert (point["m"], point["n"]) == (7, 5)
        assert point["oracle"] == {"num": 80675, "den": 64}

    def test_empty_range_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--m-range", "12:2", "--n-range", "1:3",
        )
        assert code == 2
        assert "empty range 12:2" in err

    def test_rejects_huge_grid(self, capsys, monkeypatch):
        def no_build(spec):
            raise AssertionError("tube built for a refused grid")

        monkeypatch.setattr(polyhex.forms, "build_nanotube", no_build)
        code, out, err = run_cli(capsys, "verify", "--m-range", "2:400", "--n-range", "1:400")
        assert code == 2
        assert out == ""
        assert "more than the 20000000" in err

    def test_rejects_grid_past_sys_maxsize(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--m-range", f"2:{10**19}", "--n-range", "1:1"
        )
        assert code == 2
        assert out == ""
        assert "more than the 20000000 one verification may build" in err

    def test_malformed_range_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--m-range", "3", "--n-range", "1:2"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_stdout_is_the_indented_json_of_the_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m-range", "2:4", "--n-range", "1:3")
        assert code == 1
        report = verify_published_forms((2, 4), (1, 3))
        assert out == json.dumps(oracles.verify_report_dict(report), indent=2) + "\n"

    @given(
        st.lists(
            st.one_of(st.sampled_from([*published_forms(), *FITTED_FORMS]), RANDOM_FORMS),
            max_size=4,
        ),
        st.integers(2, 5), st.integers(0, 2), st.integers(1, 4), st.integers(0, 2),
    )
    @example([], 2, 0, 1, 0)
    @example(list(FITTED_FORMS), 3, 1, 2, 2)
    @settings(max_examples=150, deadline=None)
    def test_rendered_report_matches_json_dumps(self, forms, m_lo, m_span, n_lo, n_span):
        report = verify_forms(forms, (m_lo, m_lo + m_span), (n_lo, n_lo + n_span))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _write_report(report)
        assert out.getvalue() == json.dumps(oracles.verify_report_dict(report), indent=2) + "\n"


class TestSweep:
    def test_rows_and_header(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--m-range", "2:3", "--n-range", "1:2",
            "--out", str(out_path),
        )
        assert code == 0
        assert "wrote 8 rows" in err
        lines = out_path.read_text().splitlines()
        assert lines[0] == "kind,m,n,vertices,edges,azi_num,azi_den,azi,randic,abc"
        assert len(lines) == 9
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds == ["armchair"] * 4 + ["zigzag"] * 4

    # Once exited 1 with an OverflowError traceback. The header is written
    # before any row is computed.
    def test_value_past_floats_exits_2(self, capsys, tmp_path):
        out_path, huge = tmp_path / "huge.csv", f"{10**160}:{10**160}"
        code, _, err = run_cli(
            capsys, "sweep", "--kind", "zigzag", "--indices", "azi",
            "--m-range", huge, "--n-range", huge, "--out", str(out_path),
        )
        assert code == 2
        assert err == "error: the azi index is too large for a float\n"
        assert out_path.read_text() == "kind,m,n,vertices,edges,azi_num,azi_den,azi,randic,abc\n"

    def test_known_row(self, capsys, tmp_path):
        out_path = tmp_path / "row.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--kind", "armchair",
            "--m-range", "5:5", "--n-range", "9:9", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines()[1] == (
            "armchair,5,9,110,155,106485,64,1663.828125,"
            "54.8316324759439,104.54653676893"
        )

    def test_index_subset_blanks_other_columns(self, capsys, tmp_path):
        out_path = tmp_path / "subset.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--kind", "zigzag", "--indices", "azi",
            "--m-range", "7:7", "--n-range", "5:5", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines()[1] == "zigzag,7,5,84,119,80675,64,1260.546875,,"

    @given(
        st.sampled_from(["armchair", "zigzag", "both"]),
        st.integers(2, 40), st.integers(0, 5), st.integers(1, 40), st.integers(0, 5),
        st.lists(st.sampled_from(INDEX_NAMES), min_size=1, max_size=5),
    )
    @example("both", 2, 0, 1, 0, ["azi"])
    @example("both", 38, 5, 35, 5, ["abc", "randic", "abc", "azi"])
    @settings(max_examples=150, deadline=None)
    def test_csv_matches_reference_bytes(
        self, tmp_path_factory, kind, m_lo, m_span, n_lo, n_span, indices
    ):
        m_range, n_range = (m_lo, m_lo + m_span), (n_lo, n_lo + n_span)
        out_path = tmp_path_factory.mktemp("sweep") / "grid.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([
                "sweep", "--kind", kind, "--indices", ",".join(indices),
                "--m-range", "%d:%d" % m_range, "--n-range", "%d:%d" % n_range,
                "--out", str(out_path),
            ])
        assert code == 0
        assert out_path.read_bytes() == oracles.sweep_csv_reference(kind, m_range, n_range, indices)

    def test_unknown_index_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--indices", "azi,wiener",
            "--m-range", "2:2", "--n-range", "1:1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "unknown index 'wiener'" in err

    def test_empty_index_list_rejected(self, capsys, tmp_path):
        out_path = tmp_path / "never.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--indices", "", "--m-range", "2:2", "--n-range", "1:1",
            "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert "unknown index ''" in err
        assert not out_path.exists()

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--m-range", "2:2", "--n-range", "1:1",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 2
        assert "cannot write" in err

    def test_unwritable_path_refused_before_any_row(self, capsys, tmp_path, monkeypatch):
        def no_rows(*args):
            raise AssertionError("row computed for an unwritable sweep")

        monkeypatch.setattr(polyhex.cli, "grid_tubes", no_rows)
        code, _, err = run_cli(
            capsys, "sweep", "--m-range", "2:50", "--n-range", "1:50",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 2
        assert "cannot write" in err

    def test_error_while_writing_rows(self, capsys, tmp_path, monkeypatch):
        class FullDisk(io.StringIO):
            # takes the header, then fails as a full disk does
            def write(self, text):
                if self.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)

        monkeypatch.setattr(polyhex.cli, "open", lambda *a, **k: FullDisk(), raising=False)
        code, _, err = run_cli(
            capsys, "sweep", "--m-range", "2:3", "--n-range", "1:2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "cannot write" in err and "No space left on device" in err
        assert "wrote" not in err

    def test_huge_grid_refused_before_any_row(self, capsys, tmp_path, monkeypatch):
        def no_rows(*args):
            raise AssertionError("row computed for a refused sweep")

        monkeypatch.setattr(polyhex.cli, "grid_tubes", no_rows)
        out_path = tmp_path / "huge.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--m-range", "2:100000", "--n-range", "1:100000",
            "--out", str(out_path),
        )
        assert code == 2
        assert f"more than the {MAX_SWEEP_ROWS} one sweep may write" in err
        assert not out_path.exists()

    def test_grid_past_sys_maxsize_refused(self, capsys, tmp_path):
        out_path = tmp_path / "huge.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--m-range", f"2:{10**19}", "--n-range", "1:1",
            "--out", str(out_path),
        )
        assert code == 2
        assert f"would write {2 * (10**19 - 1)} rows" in err
        assert f"more than the {MAX_SWEEP_ROWS} one sweep may write" in err
        assert not out_path.exists()

    def test_row_limit_is_inclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(polyhex.cli, "MAX_SWEEP_ROWS", 8)

        def sweep(n_range):
            return run_cli(
                capsys, "sweep", "--m-range", "2:3", "--n-range", n_range,
                "--out", str(tmp_path / "x.csv"),
            )

        code, _, err = sweep("1:2")
        assert code == 0 and "wrote 8 rows" in err
        code, _, err = sweep("1:3")
        assert code == 2 and "would write 12 rows" in err

    # Rows are written as they are computed, so the peak does not grow with
    # the grid (4,000 and 16,000 rows here).
    @pytest.mark.parametrize("m_range, n_range", [("2:41", "1:50"), ("2:81", "1:100")])
    def test_peak_traced_memory_is_flat(self, capsys, tmp_path, m_range, n_range):
        argv = ("sweep", "--m-range", m_range, "--n-range", n_range,
                "--out", str(tmp_path / "x.csv"))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            code = main(list(argv))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak - before < 512 * 1024

    # MAX_SWEEP_ROWS bounds time only because memory does not grow with the
    # rows. After a warm-up sweep (the first in a process peaks near 250 KB),
    # the traced peak at 8,000 rows stays within 32 KB of its peak at
    # 1,000 rows, so even a few bytes kept per row would show.
    def test_peak_traced_memory_does_not_grow_with_rows(self, tmp_path):
        def traced_peak(m_range, n_range):
            argv = ["sweep", "--m-range", m_range, "--n-range", n_range,
                    "--out", str(tmp_path / "x.csv")]
            gc.collect()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1] - before

        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            traced_peak("2:3", "1:2")
            small = traced_peak("2:21", "1:25")
            large = traced_peak("2:41", "1:100")
        finally:
            if started:
                tracemalloc.stop()
        assert large - small < 32 * 1024, (small, large)

    # A float index's cell is written through the row template's % slot, and
    # index prints it through the same slot; an exact value whose decimal
    # does not terminate is printed as that slot prints its quotient.
    @given(st.integers(-(10**20), 10**20), st.integers(1, 10**9))
    @settings(max_examples=300, deadline=None)
    def test_float_slot_is_the_exact_decimal_fallback(self, k, d):
        q = Fraction(3 * k + 1, 3 * d)  # 3 stays in the denominator, so no decimal terminates
        num, den = q.numerator, q.denominator
        slots = [slot for f in EDGE_FUNCTIONS.values() if not f.exact
                 for _, slot in _cell_slots(f)]
        assert slots
        for slot in slots:
            assert _exact_decimal(num, den) == slot % (num / den)

    def test_empty_range_rejected_before_writing(self, capsys, tmp_path):
        out_path = tmp_path / "never.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--m-range", "2:3", "--n-range", "5:4",
            "--out", str(out_path),
        )
        assert code == 2
        assert "empty range 5:4" in err
        assert not out_path.exists()


class _CountingMeta(type(Fraction)):
    # every Fraction passes isinstance against the counting class, as the
    # checks in polyhex that read the patched name need
    def __instancecheck__(cls, instance):
        return isinstance(instance, Fraction)


class CountingFraction(Fraction, metaclass=_CountingMeta):
    """A Fraction that counts the Fractions made through it."""

    made = 0

    def __new__(cls, *args, **kwargs):
        CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


@pytest.fixture
def count_fractions(monkeypatch):
    """Make the Fraction name in indices, forms and cli count; empty the AZI term cache."""
    for module in (polyhex.indices, polyhex.forms, polyhex.cli):
        monkeypatch.setattr(module, "Fraction", CountingFraction)
    polyhex.indices.azi_term.cache_clear()
    yield
    polyhex.indices.azi_term.cache_clear()  # so no counting Fraction stays cached


# Exact results stay integer pairs on the sweep rows and verify points: a
# grid many times larger makes no more Fractions. Sweep makes one per AZI
# term cache fill, verify those and its published and fitted forms'.
class TestNoFractionPerRowOrPoint:
    def fractions_made(self, capsys, argv: list[str], code: int) -> int:
        polyhex.indices.azi_term.cache_clear()
        CountingFraction.made = 0
        assert main(argv) == code
        capsys.readouterr()
        return CountingFraction.made

    def test_sweep(self, capsys, tmp_path, count_fractions):
        made = [
            self.fractions_made(capsys, ["sweep", "--m-range", m_range, "--n-range", n_range,
                                         "--out", str(tmp_path / "x.csv")], 0)
            for m_range, n_range in (("2:9", "1:8"), ("2:30", "1:30"))
        ]
        assert made == [polyhex.indices.azi_term.cache_info().currsize] * 2
        assert made[0] > 0

    def test_verify(self, capsys, count_fractions):
        made = [
            self.fractions_made(capsys, ["verify", "--m-range", m_range, "--n-range", n_range], 1)
            for m_range, n_range in (("2:5", "1:4"), ("2:12", "1:12"))
        ]
        assert made[0] == made[1] > polyhex.indices.azi_term.cache_info().currsize


# (kind, m, n, format, SHA-256 of build stdout), from the implementation whose
# generators looped once per edge and whose JSON encoder was given lists.
BUILD_DIGESTS = [
    ("armchair", 5, 9, "json",
     "fbae264555ae66c3acfdbdb3d8990e298bef8db2b798e73743acecd26d370f13"),
    ("armchair", 5, 9, "dot",
     "aee843d8f916357403ddfc31166cfa8ec7a654834fda61889273eb364a70949e"),
    ("zigzag", 4, 7, "json",
     "8c35883cae459d961f6e564f81b1eb0e52782dbca666ca2e8dd4448acf0bc34d"),
    ("zigzag", 2, 3, "dot",
     "43bebfb2ea17a3f8039e270587854b78df0874658a1fe33a6bc2cd28563dd747"),
    # From the implementation that encoded the whole JSON document in
    # one json.dumps call; each spans several 1,024-edge chunks.
    ("armchair", 40, 30, "json",
     "275787d8d5e585cdd54bca59df547dfcf3d825dd3001fa7773df7eb9a36af429"),
    ("zigzag", 33, 31, "json",
     "f8898646af1b86fb1f3bf295d3cb113dbffb835f4ef941f07f6379c88c655517"),
    # From the implementation with one edge generator per kind; the
    # smallest tubes, where each ring's runs are shortest.
    ("armchair", 2, 1, "json",
     "4342d538e7d134d2ca1c35a068d2ff5211c85745dd5036ac4019d4256f26de81"),
    ("armchair", 2, 1, "dot",
     "684ceb2934fec67c77844f1e2f9af5438e32f39d9134f1c582f93b48f2ad4bb3"),
    ("zigzag", 2, 1, "json",
     "310b5c9a3c4e1982593a04ec90b5f9adce4d754cfd748f68cff43cc17b9a0bc9"),
    # From the implementation that called json.dumps once per 1,024
    # edges and made each DOT line with an f-string.
    ("armchair", 300, 300, "json",
     "314e29239709dd80e8ffa128812c138e3e790aaa4c952975b45316c7c0577eca"),
    ("zigzag", 300, 300, "json",
     "9e5e547de9910eac90ca5f523cf4ba89d813eba5da0f148294173d4e8a971c94"),
    ("armchair", 300, 300, "dot",
     "2478589640af04e1359126ce1a85902b21b0afd82bcfdf3b4796f5ab570789cd"),
    ("zigzag", 300, 300, "dot",
     "6a2e4fbd3196cdd289e98d932edc627097e69d700e42c27a04faed443f2e9757"),
]


class TestDeterminism:
    def test_stdout_byte_identical_across_runs(self):
        argv = ("index", "--kind", "armchair", "--m", "5", "--n", "9")
        first = run_process(*argv)
        second = run_process(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_sweep_byte_identical_across_runs(self, tmp_path):
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ("sweep", "--m-range", "2:4", "--n-range", "1:4")
        assert run_process(*argv, "--out", str(csv_a)).returncode == 0
        assert run_process(*argv, "--out", str(csv_b)).returncode == 0
        assert csv_a.read_bytes() == csv_b.read_bytes()

    # SHA-256 of outputs from the implementation before terms were memoized;
    # two runs of one build cannot show a cached term that moved a digit.
    def test_index_stdout_matches_pinned_digest(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--kind", "armchair", "--m", "5", "--n", "9")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "49f7b6fea106f58d0f7a3b22054b38e10afdd4e6a77073250782e65f91fe5154"
        )

    # SHA-256 of build stdout from the implementation whose generators looped
    # once per edge and whose JSON encoder was given lists.
    @pytest.mark.parametrize("kind, m, n, fmt, digest", BUILD_DIGESTS)
    def test_build_stdout_matches_pinned_digest(self, capsys, kind, m, n, fmt, digest):
        code, out, _ = run_cli(
            capsys, "build", "--kind", kind, "--m", str(m), "--n", str(n), "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # `build` prints the pinned bytes with no Graph to build: it streams the
    # tube's sorted edges, while build_nanotube, verify and fit go through Graph.
    @pytest.mark.parametrize("kind, m, n, fmt, digest", BUILD_DIGESTS)
    def test_build_constructs_no_graph(self, capsys, monkeypatch, kind, m, n, fmt, digest):
        def no_graph(graph, *args):
            raise AssertionError("build constructed a Graph")

        monkeypatch.setattr(polyhex.graph.Graph, "__init__", no_graph)
        self.test_build_stdout_matches_pinned_digest(capsys, kind, m, n, fmt, digest)

    # SHA-256 of index-subset CSVs from the implementation that held every
    # row until the end; pins the blank cells of unselected indices.
    @pytest.mark.parametrize(
        "kind, indices, digest",
        [
            ("zigzag", "abc,azi",
             "02b975db79d163ff9c077939b4d2429c0af9ffd467826d4ab546cab824fad119"),
            ("armchair", "randic",
             "7a641107775a8501cbe70a5384c1e5a401dc4c11d0557774b7d1e0aa1b018fc8"),
            # From the implementation that wrote every cell through a %s slot
            # and concatenated a tuple of cells per index.
            ("both", "azi",
             "4244f02e438d9a68d26788c1d4191195733d460fe2e2b4afa6422d8c2d49a148"),
            ("both", "abc",
             "07a9c45bf33e7690146cd5f22bd27403223d57ee94268b9929eef9466f74f1fd"),
            ("both", "abc,randic",
             "321c3483d48530fbd5cb9f8a5f6ec07fc5af278acb669a082c5c828300ab2968"),
            ("both", "randic,azi",
             "a98c3e881941db5dc64230ecf1e784b9ce219bbcbe827fc44939732da4d686bb"),
        ],
    )
    def test_sweep_subset_csv_matches_pinned_digest(self, capsys, tmp_path, kind, indices, digest):
        out_path = tmp_path / "subset.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--kind", kind, "--indices", indices,
            "--m-range", "2:30", "--n-range", "1:30", "--out", str(out_path),
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    # SHA-256 of stdout from the implementation whose count functions each
    # branched on the kind and whose verify cached oracle values per point;
    # the verify-off-samples grid, from the implementation whose fits and grid
    # shared their oracle values, holds none of the default fit samples. The
    # verify-two-n and verify-one-n grids hold two n values and one: the
    # oracle reads the two-n grid's first n off a window of the one tube it
    # builds per m, and walks no edge of the one-n grid's; their digests are
    # from the implementation that built one tube per grid point. The
    # verify-wide-m grid reads eleven of its twelve n per m off a window of
    # the last tube, at m up to 24; its digest is from the implementation
    # that walked the last tube's edges one cut at a time.
    @pytest.mark.parametrize(
        "argv, exit_code, digest",
        [
            (("verify", "--kind", "both", "--m-range", "2:9", "--n-range", "1:8"), 1,
             "09f9402415ad00d93b6c5f6d5e5d8cc2102be865ba815e7599e328ad8986797c"),
            (("partition", "--kind", "armchair", "--m", "7", "--n", "5"), 0,
             "68f34d0d1c27ede115db6348e9029c5184c5f218484c05185a9bee8a9bbe35d0"),
            (("partition", "--kind", "zigzag", "--m", "7", "--n", "5"), 0,
             "7562f23de02336ccf43171c0ec42a6b31a427fb8832f02d8c72de1b9e607ba98"),
            (("fit", "--kind", "zigzag"), 0,
             "e359c95ba0aff4c5f8b88b59a29a33a56800dcb717a58dc0d6b7f5c9794d59f1"),
            (("fit", "--kind", "armchair", "--samples", "4,2", "5,3", "6,7"), 0,
             "fd190427203c02902cf883295c9f7feaf39ef270f489163b3490cfb611033a42"),
            (("verify", "--kind", "both", "--m-range", "5:9", "--n-range", "3:7"), 1,
             "316e6735639943f83ec58aa8fd2cddd6bf47a89307c94cd4dd8626342965067c"),
            (("verify", "--kind", "both", "--m-range", "2:9", "--n-range", "6:7"), 1,
             "fb0ae419414d9a298b2f00b3069f8cf2d280987b5592577d80dd34e5d522c2ba"),
            (("verify", "--kind", "both", "--m-range", "3:8", "--n-range", "4:4"), 1,
             "3add6b90d5b60890be109cbb6e6a1aee85d907e10591eef32b3738d09b5daf9a"),
            (("verify", "--kind", "both", "--m-range", "20:24", "--n-range", "1:12"), 1,
             "151d642eec5536704d49cf8312776bfcb8d50ca16d7540b5f9c8ae82554be30f"),
            # The 2:40 x 1:40 headline grid reads 39 n per (kind, m) off a window
            # of its last tube. It and the next two were pinned by the CI
            # workflow alone before they joined this table.
            (("verify", "--kind", "both", "--m-range", "2:40", "--n-range", "1:40"), 1,
             "50a13916cc172de8d5dcc56e823a6c284e0607159293ae5ce57374e6f6c3a7d2"),
            (("verify", "--kind", "both", "--m-range", "2:9", "--n-range", "3:8"), 1,
             "ae8e01f63745fb295408ff7c83977c5efe7af3f983b0fc6c1b909d715182734e"),
            (("verify", "--kind", "both", "--m-range", "20:24", "--n-range", "11:12"), 1,
             "f5bc345b379bf1ba51629620b894e1c05411469d55a39c44a0160e225e13789f"),
        ],
        ids=["verify", "partition-armchair", "partition-zigzag", "fit-zigzag", "fit-armchair",
             "verify-off-samples", "verify-two-n", "verify-one-n", "verify-wide-m",
             "verify-headline", "verify-small", "verify-wide-m-two-n"],
    )
    def test_stdout_matches_pinned_digest(self, capsys, argv, exit_code, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # SHA-256 of verify stdout from the implementation that encoded the whole
    # report, every point a dict, with json.dumps(indent=2).
    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("both", "280a3cc41ca5b5ee37f5cffcd8edd4e8c5708e8cb34bf2f13dd21533b83027ca"),
            ("armchair", "6e3935aa65c7169387234e2be919de8396f30a61cec5198df18c92d341ed152a"),
            ("zigzag", "7b5394587d4ddb0cf4c9385ec4a8dab87a300e98f5b29dc7cb6ce91db58ad9af"),
        ],
    )
    def test_verify_stdout_matches_pinned_digest(self, capsys, kind, digest):
        code, out, _ = run_cli(
            capsys, "verify", "--kind", kind, "--m-range", "2:26", "--n-range", "1:25",
        )
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # SHA-256 of --help stdout at 80 columns, and of single-index stdout, from
    # the implementation whose parsers spelled out every kind and index name
    # and whose index and sweep commands each formatted index values; the
    # help digests are the same on Python 3.10, 3.11, 3.12 and 3.13.
    @pytest.mark.parametrize(
        "command, digest",
        [
            ((), "414fa8c6a66a79f2d944252ce2024e0201931f8cf97be0831e58862e0209d3ee"),
            (("build",), "1b89c2fd018b25363ffc77b1773240361e0b572c9717f51725d2bc60f6ff75a4"),
            (("partition",), "8bb779adc82e122b403184c01d4c806a5124c8053f116be6016a8d84089445a6"),
            (("index",), "7284da3da4fb0783efd0204d350919244b702979a2038b08124a5bc3761256b4"),
            (("fit",), "27aad7ac8b0f653fc2272cf8579660f5e7017cce4c0472470d517a91c0d8a901"),
            (("verify",), "d3a5c959a02368a0541f5a5b77d629edf8af119c6ed2d779653b1719dfc6aea0"),
            (("sweep",), "2cf55d96d031743d9db17561aee2ed893a14a74d73728ff9d434687b2fff4b6b"),
        ],
        ids=["polyhex", "build", "partition", "index", "fit", "verify", "sweep"],
    )
    def test_help_matches_pinned_digest(self, capsys, monkeypatch, command, digest):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--help"])
        assert excinfo.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "index, digest",
        [
            ("azi", "a972ba480706cbed51152aaabc6a03da7902b9e4306ca88ecd70109ca17ee8a1"),
            ("randic", "b72138551c1a5e791c1bef29e7eec84403f8071e39575029d08ba75c6d494081"),
            ("abc", "29a1dfb05eb38b875d96332089f20accdd2c551abb209272b9265c4af62488e1"),
        ],
    )
    def test_single_index_matches_pinned_digest(self, capsys, index, digest):
        code, out, _ = run_cli(
            capsys, "index", "--kind", "zigzag", "--m", "3", "--n", "4", "--index", index,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # The last stderr line of each refusal, from the implementation with one
    # argument parser per separator.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "--m-range", "2-5", "--n-range", "1:2"),
             "polyhex verify: error: argument --m-range: invalid range '2-5' (expected LO:HI)"),
            (("verify", "--m-range", "a:5", "--n-range", "1:2"),
             "polyhex verify: error: argument --m-range: invalid range 'a:5' (expected LO:HI)"),
            (("fit", "--kind", "armchair", "--samples", "2x1", "3,2"),
             "polyhex fit: error: argument --samples: invalid sample '2x1' (expected M,N)"),
            (("fit", "--kind", "armchair", "--samples", "a,1", "3,2"),
             "polyhex fit: error: argument --samples: invalid sample 'a,1' (expected M,N)"),
            (("sweep", "--indices", "wiener", "--m-range", "2:3", "--n-range", "1:2"),
             "error: unknown index 'wiener' (expected a comma-separated subset of azi,randic,abc)"),
        ],
        ids=["range-separator", "range-bound", "sample-separator", "sample-bound", "sweep-index"],
    )
    def test_refusal_message_pinned(self, capsys, tmp_path, argv, message):
        if argv[0] == "sweep":
            argv = (*argv, "--out", str(tmp_path / "refused.csv"))
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refuses before any command runs
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == message

    def test_sweep_csv_matches_pinned_digest(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--m-range", "2:12", "--n-range", "1:12", "--out", str(out_path),
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "26216ad45b4b8d2198f2867ea3a7a0575f5b74b3b848f383d61e095e1fd49801"
        )

    # SHA-256 of both kinds' CSV over the headline 2:200 x 1:200 grid (79,600
    # rows) and a small one, pinned by the CI workflow alone before they
    # joined this table.
    @pytest.mark.parametrize(
        "m_range, n_range, digest",
        [
            ("2:200", "1:200", "fda01edc46603eb90ac41ec1855315f4507cb25bc77031829bf56bb6723bf022"),
            ("2:9", "1:8", "03968904c93ea89fd6b28c59f0a188710d61d0e21330d9fac7da396b113772c9"),
        ],
        ids=["headline", "small"],
    )
    def test_sweep_both_csv_matches_pinned_digest(self, capsys, tmp_path, m_range, n_range, digest):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--kind", "both", "--m-range", m_range, "--n-range", n_range,
            "--out", str(out_path),
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


# Command-line ints: mostly small ones, then huge ones (10**20 and up), and
# text that is not an int at all; ranges mostly in order.
SMALL_INTS = st.integers(1, 6)
HUGE_INTS = st.integers(10**20, 10**40)
ARGV_INTS = st.one_of(
    SMALL_INTS.map(str),
    SMALL_INTS.map(str),
    HUGE_INTS.map(str),
    st.integers(-2, 0).map(str),
    st.sampled_from(["x", "1.5", "", "1e3"]),
)
ARGV_RANGES = st.one_of(
    st.builds(lambda lo, span: f"{lo}:{lo + span}", SMALL_INTS, st.integers(0, 4)),
    st.builds(lambda lo, span: f"{lo}:{lo + span}", HUGE_INTS, st.integers(0, 2)),
    st.builds("{}:{}".format, ARGV_INTS, ARGV_INTS),
)
ARGV_KINDS = st.sampled_from(["armchair", "zigzag", "armchair", "zigzag", "chiral"])
ARGV_INDICES = st.sampled_from([*INDEX_NAMES, "all", "wiener"])


@st.composite
def argv_lists(draw) -> list[str]:
    """An argv for one of the six subcommands, on grids small enough to run in milliseconds."""
    command = draw(st.sampled_from(["build", "partition", "index", "fit", "verify", "sweep"]))
    if command in ("build", "partition", "index"):
        argv = [command, "--kind", draw(ARGV_KINDS), "--m", draw(ARGV_INTS), "--n", draw(ARGV_INTS)]
        if command == "build":
            argv += ["--format", draw(st.sampled_from(["json", "dot", "csv"]))]
        if command == "index":
            argv += ["--index", draw(ARGV_INDICES)]
        return argv
    if command == "fit":
        argv = ["fit", "--kind", draw(ARGV_KINDS), "--index", draw(ARGV_INDICES)]
        samples = draw(st.lists(st.builds("{},{}".format, ARGV_INTS, ARGV_INTS), max_size=4))
        return argv + (["--samples", *samples] if samples or draw(st.booleans()) else [])
    argv = [command, "--kind", draw(st.sampled_from(["both", "armchair", "zigzag", "helical"])),
            "--m-range", draw(ARGV_RANGES), "--n-range", draw(ARGV_RANGES)]
    if command == "sweep":
        names = draw(st.lists(st.sampled_from([*INDEX_NAMES, *INDEX_NAMES, "wiener", ""]),
                              max_size=4))
        argv += [*(["--indices", ",".join(names)] if names else []), "--out", os.devnull]
    return argv


class TestArgvContract:
    # Every exit is 0, 1, 2 or 141, with no traceback on stderr; an exception
    # that escapes main would be one.
    @given(argv_lists())
    @example(["sweep", "--m-range", f"{10**20}:{10**20}", "--n-range", "1:1", "--out", os.devnull])
    @example(["index", "--kind", "zigzag", "--m", str(10**40), "--n", str(10**40)])
    @example(["verify", "--m-range", f"2:{10**20}", "--n-range", "1:1"])
    @settings(max_examples=300, deadline=None)
    def test_every_subcommand_exits_with_a_documented_code(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses, or prints help, this way
                code = exc.code
        assert code in (0, 1, 2, 141), (argv, code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()


TERMINATING_DENOMINATORS = st.builds(
    lambda a, b: 2**a * 5**b, st.integers(0, 40), st.integers(0, 40)
)
# a factor coprime to 10 makes the expansion non-terminating
OTHER_FACTORS = st.sampled_from([3, 7, 9, 11, 13, 17, 21, 49, 999, 2**61 - 1])
NON_TERMINATING_DENOMINATORS = st.builds(
    lambda den, factor: den * factor, TERMINATING_DENOMINATORS, OTHER_FACTORS
)


class TestClosedPipe:
    # build, verify and sweep (its CSV to /dev/stdout) write far more than a
    # pipe buffer holds, so they are still writing when their reader goes
    # away after 20 bytes; index's few bytes wait in stdout's buffer until
    # the end, and its reader is gone before it starts. stdout is
    # block-buffered, as without PYTHONUNBUFFERED, so bytes can still be in
    # its buffer when the pipe closes.
    @pytest.mark.parametrize("argv, read", [
        (("build", "--kind", "armchair", "--m", "200", "--n", "200", "--format", "dot"), 20),
        (("verify", "--m-range", "2:30", "--n-range", "1:30"), 20),
        (("index", "--kind", "zigzag", "--m", "5", "--n", "9"), 0),
        (("sweep", "--m-range", "2:200", "--n-range", "1:200", "--out", "/dev/stdout"), 20),
    ], ids=["build", "verify", "index", "sweep"])
    def test_reader_closing_early_ends_quietly(self, argv, read):
        env = {k: v for k, v in process_env().items() if k != "PYTHONUNBUFFERED"}
        with subprocess.Popen([sys.executable, "-m", "polyhex", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(read)) == read
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=300)
        assert err == b""
        assert code == 141


class TestExactDecimal:
    @given(
        st.integers(-(10**15), 10**15),
        st.one_of(st.just(1), TERMINATING_DENOMINATORS, NON_TERMINATING_DENOMINATORS),
    )
    @example(0, 1)
    @example(0, 2**40 * 5**40)
    @example(-1, 2**40)
    @example(-(10**15), 5**40)
    @example(10**15, 3)
    @settings(max_examples=400, deadline=None)
    def test_matches_decimal_module_reference(self, num, den):
        q = Fraction(num, den)
        assert _exact_decimal(q.numerator, q.denominator) == oracles.exact_decimal_reference(q)
