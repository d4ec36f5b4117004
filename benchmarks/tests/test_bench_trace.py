"""Tracing wrappers are transparent, restorable and tolerant of missing names;
the run refuses to measure without polyhex and normalizes machine speed away."""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import polyhex
import polyhex.cli
import pytest

import run
import tracing
import yardstick
from inputs import WORKLOADS
from test_bench_checks import SMALL, run_small

ROOT = Path(__file__).resolve().parents[2]


def snapshot():
    """Every attribute a Tracer may patch, by identity."""
    modules = tracing._polyhex_modules()
    state = {(id(holder), name): value
             for holder in tracing._holders(modules) for name, value in vars(holder).items()}
    state[id(polyhex.Graph), "__init__"] = polyhex.Graph.__dict__["__init__"]
    return state


def test_uninstall_restores_every_patched_attribute():
    before = snapshot()
    build, term = polyhex.cli.build_nanotube, polyhex.indices.azi_term
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert polyhex.cli.build_nanotube is not build
        assert polyhex.forms.build_nanotube is polyhex.cli.build_nanotube
        assert polyhex.AZI.term is polyhex.indices.azi_term is not term
        assert polyhex.Graph.__dict__["__init__"] is not before[id(polyhex.Graph), "__init__"]
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.absent == []


def test_traced_pass_counts_layers(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_small("adjudicate", tmp_path)
    finally:
        tracer.uninstall()
    layers = tracer.summary()
    assert layers["tubes.build_nanotube.calls"] == layers["graph.Graph.calls"] > 0
    assert layers["forms.oracle_builds"] == layers["tubes.build_nanotube.calls"]
    assert layers["forms.points_checked"] == 2 * 3 * 3 * 3
    assert layers["tubes.edges_generated"] == layers["graph.Graph.edges"] == layers["indices.edgewise_edges"]
    assert layers["cli.self_s"] > 0
    assert all(layers[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)
    assert set(layers) | {"graph.Graph.peak_alloc_mb", "cli.output_bytes", "trace.overhead"} == set(tracing.METRICS)


def test_term_calls_counted_through_edge_functions(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_small("sweep", tmp_path)
    finally:
        tracer.uninstall()
    layers = tracer.summary()
    rows = 2 * 3 * 3
    assert layers["indices.index_from_partition.calls"] == 3 * rows
    # 3 degree classes per armchair row and 2 per zigzag row, for each of 3 indices
    assert layers["indices.term_calls"] == 3 * (3 + 2) * rows // 2
    assert layers["indices.term_calls_per_partition_sum"] == 2.5


def test_missing_wrapped_name_is_absent_not_failed(tmp_path, monkeypatch):
    monkeypatch.delattr(polyhex.indices, "index_from_partition")
    targets = {**tracing.SPAN_TARGETS, "tubes.renamed": ("tubes", "no_such_function", None)}
    tracer = tracing.Tracer(span_targets=targets)
    tracer.install()
    try:
        run_small("sweep", tmp_path)
    finally:
        tracer.uninstall()
    assert "tubes.renamed" in tracer.absent
    assert "indices.index_from_partition" in tracer.absent
    assert "indices.index_from_partition.calls" in tracer.absent_metrics()
    assert "tubes.build_nanotube.calls" not in tracer.absent_metrics()
    assert tracer.summary()["indices.index_from_partition.calls"] == 0


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_outputs_identical_with_tracing_on_and_off(workload, tmp_path):
    passes = run.Pass(tmp_path, workload, SMALL[workload])
    outputs = {}
    for mode in ("plain", "trace", "alloc"):
        result, passdir = passes.run(mode, timeout=60)
        assert result is not None, (passdir / "child.log").read_text()
        outputs[mode] = {
            name: (passdir / name).read_bytes()
            for record in result["records"] for name in record.get("files", [])
        }
        outputs[mode]["values"] = json.dumps([r.get("value") for r in result["records"]]).encode()
    assert outputs["plain"] == outputs["trace"] == outputs["alloc"]
    assert outputs["plain"]


def test_run_refuses_without_polyhex_sources(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_metric():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["per_layer"]] == list(tracing.METRICS)
    assert {m["name"] for m in config["end_to_end"]} == {"setup_s", "wall_s", "items_per_s", "peak_rss_mb"}
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)


def test_uniform_machine_slowdown_cancels(tmp_path):
    def end_to_end(factor):
        current = run.Run("sweep", 1, tmp_path)
        current.samples["reference"] = [0.5 * factor, 0.6 * factor, 0.4 * factor]
        current.samples["plain"] = [(2.0 * factor, 1), (1.5 * factor, 2)]
        current.samples["setup"] = [(0.08 * factor, 1), (0.1 * factor, 1), (0.09 * factor, 2)]
        current.samples["rss_mb"] = [30.0, 30.5]
        return current.end_to_end()

    steady, slow = end_to_end(1.0), end_to_end(1.7)
    for name in ("setup_s", "wall_s", "items_per_s"):
        assert slow[name][0] == pytest.approx(steady[name][0])
    assert steady["wall_s"][0] == pytest.approx(statistics.median([2.0 / 0.55, 1.5 / 0.5]) * yardstick.REFERENCE_S)
