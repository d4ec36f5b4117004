"""The benchmark's checker accepts correct polyhex output and rejects wrong output."""

from fractions import Fraction

import polyhex
import pytest

import checks
import reference
import workloads

SMALL = {
    "adjudicate": {"m_range": [2, 4], "n_range": [1, 3]},
    "sweep": {"m_range": [2, 4], "n_range": [1, 3]},
    "large_tube": {"tubes": [{"kind": "armchair", "m": 3, "n": 2}, {"kind": "zigzag", "m": 4, "n": 3}]},
}


def run_small(workload, outdir):
    return workloads.run_pass(workload, SMALL[workload], polyhex, str(outdir))


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_operation_of_a_correct_pass_is_accepted(workload, tmp_path):
    records = run_small(workload, tmp_path)
    assert [r["op"] for r in records] == workloads.operations(workload, SMALL[workload])
    ledger = checks.Ledger()
    for record in records:
        assert checks.check_record(workload, SMALL[workload], record, str(tmp_path), ledger) == []


def test_reference_matches_documented_counts():
    assert reference.vertex_count("armchair", 5, 9) == 110
    assert reference.vertex_count("zigzag", 7, 5) == 2 * 7 * 5 + 2 * 7
    assert reference.azi("armchair", 5, 9) == Fraction(106485, 64)


def test_wrong_azi_fraction_is_rejected():
    right = reference.azi("armchair", 3, 2)
    assert checks.check_value("azi", [right.numerator, right.denominator], "armchair", 3, 2) == []
    assert checks.check_value("azi", [right.numerator + 1, right.denominator], "armchair", 3, 2)
    assert checks.check_value("azi", [right.numerator, right.denominator * 2], "armchair", 3, 2)


def test_csv_one_byte_off_is_rejected(tmp_path):
    (record,) = run_small("sweep", tmp_path)
    table = (tmp_path / "sweep.csv").read_bytes()
    assert checks.check_sweep(b"", table, SMALL["sweep"]) == []
    row_start = table.index(b"\n") + 1
    digit = table.index(b",", row_start + len("armchair,2,1,")) - 1  # last digit of the vertex count
    changed = table[:digit] + bytes([table[digit] ^ 1]) + table[digit + 1:]
    assert checks.check_sweep(b"", changed, SMALL["sweep"])

    ledger = checks.Ledger()
    assert ledger.check("sweep", [b"", table], lambda: []) == []
    assert ledger.check("sweep", [b"", table], lambda: ["not consulted again"]) == []
    assert ledger.check("sweep", [b"", table + b"\n"], lambda: []) != []


def test_verify_exit_1_is_the_expected_result(tmp_path):
    verify = run_small("adjudicate", tmp_path)[0]
    assert verify["op"] == "verify" and verify["exit"] == 1
    assert checks.check_record("adjudicate", SMALL["adjudicate"], verify, str(tmp_path), checks.Ledger()) == []
    for code in (0, 2):
        wrong = {**verify, "exit": code}
        assert checks.check_record("adjudicate", SMALL["adjudicate"], wrong, str(tmp_path), checks.Ledger())


def test_verify_report_with_a_wrong_verdict_is_rejected(tmp_path):
    verify = run_small("adjudicate", tmp_path)[0]
    path = tmp_path / verify["files"][0]
    text = path.read_text()
    assert text.count('"verdict": "inconsistent"') == 4
    path.write_text(text.replace('"verdict": "inconsistent"', '"verdict": "consistent"', 1))
    assert checks.check_record("adjudicate", SMALL["adjudicate"], verify, str(tmp_path), checks.Ledger())


def test_raised_operation_is_a_failure():
    record = {"op": "azi.armchair", "error": "ValueError: boom"}
    assert checks.check_record("large_tube", SMALL["large_tube"], record, ".", checks.Ledger())
