"""Command-line behavior: output schemas, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from polyhex import Graph, edge_partition
from polyhex.cli import main


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "polyhex", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


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

    def test_rejects_small_m(self, capsys):
        code, _, err = run_cli(capsys, "build", "--kind", "armchair", "--m", "1", "--n", "3")
        assert code == 2
        assert "m must be >= 2 (got 1)" in err

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

    def test_malformed_range_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--m-range", "3", "--n-range", "1:2"])
        assert excinfo.value.code == 2
        capsys.readouterr()


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

    def test_unknown_index_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--indices", "azi,wiener",
            "--m-range", "2:2", "--n-range", "1:1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "unknown index 'wiener'" in err

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--m-range", "2:2", "--n-range", "1:1",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 2
        assert "cannot write" in err

    def test_empty_range_rejected_before_writing(self, capsys, tmp_path):
        out_path = tmp_path / "never.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--m-range", "2:3", "--n-range", "5:4",
            "--out", str(out_path),
        )
        assert code == 2
        assert "empty range 5:4" in err
        assert not out_path.exists()


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
