"""The package's public names, each module's __all__ and nothing else, and
the modules that importing and running it loads."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import polyhex
from polyhex import forms, graph, indices, tubes

PUBLIC_NAMES = [
    "ABC", "AZI", "ClosedForm", "DEFAULT_FIT_SAMPLES", "DiscrepancyReport",
    "DuplicateEdgeError", "EDGE_FUNCTIONS", "EdgePartition",
    "FormCheck", "Graph", "GraphError", "GridTooLargeError",
    "InconsistentSamplesError", "IndexValue", "InvalidSpecError",
    "MAX_BUILD_EDGES", "MAX_VERIFY_EDGES", "NanotubeKind", "NanotubeSpec",
    "PointCheck", "Provenance", "RANDIC", "SelfLoopError", "SingularSystemError",
    "TubeTooLargeError", "UndefinedTermError", "VertexOutOfRangeError", "abc",
    "abc_term", "azi", "azi_term", "build_nanotube", "edge_partition",
    "fit_closed_form", "fit_from_values", "grid_edge_count", "grid_tubes",
    "index_from_partition", "published_forms", "randic", "randic_term",
    "tube_edge_count", "tube_edge_partition", "tube_vertex_count",
    "validate_ranges", "verify_forms", "verify_published_forms",
]
MODULES = (forms, graph, indices, tubes)


def test_exports_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 47
    assert sorted(polyhex.__all__) == PUBLIC_NAMES


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(polyhex, name) is getattr(module, name)


def test_package_list_is_the_union_of_the_module_lists():
    module_names = [name for module in MODULES for name in module.__all__]
    assert len(module_names) == len(set(module_names))
    assert set(polyhex.__all__) == set(module_names)
    assert len(polyhex.__all__) == len(module_names)


SRC = Path(polyhex.__file__).resolve().parents[1]

# Prints the modules loaded at exit, after a parser of one argument is built
# and used: argparse loads some of its modules (shutil, locale) only then.
STDLIB_ONLY = """
from __future__ import annotations
import argparse, json, fractions, enum, functools, itertools, collections, sys
parser = argparse.ArgumentParser(prog="x")
parser.add_argument("--y")
parser.parse_args(["--y", "1"])
print(json.dumps(sorted(sys.modules)))
"""

# Runs every subcommand, and one refused request, on tiny inputs; then
# prints the modules loaded.
EVERY_COMMAND = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
import polyhex.cli
polyhex.cli.build_parser()
out = sys.argv[2] + "/sweep.csv"
commands = [
    ["build", "--kind", "zigzag", "--m", "2", "--n", "1"],
    ["build", "--kind", "armchair", "--m", "2", "--n", "1", "--format", "dot"],
    ["partition", "--kind", "armchair", "--m", "3", "--n", "2"],
    ["index", "--kind", "zigzag", "--m", "3", "--n", "2"],
    ["fit", "--kind", "armchair"],
    ["verify", "--m-range", "2:3", "--n-range", "1:2"],
    ["sweep", "--m-range", "2:3", "--n-range", "1:2", "--out", out],
    ["index", "--kind", "zigzag", "--m", "1", "--n", "2"],
]
stdout, sys.stdout, sys.stderr = sys.stdout, io.StringIO(), io.StringIO()
codes = [polyhex.cli.main(argv) for argv in commands]
sys.stdout = stdout
print(json.dumps([codes, sorted(sys.modules)]))
"""


def loaded_modules(code: str, *args: str) -> list:
    # -I -S: no environment variables, user site or .pth file adds modules;
    # -B: -I ignores PYTHONDONTWRITEBYTECODE, so say it here, or the run
    # writes __pycache__ into the tree under test
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, *args],
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


def test_running_every_command_loads_only_what_the_stdlib_parts_load(tmp_path):
    codes, modules = loaded_modules(EVERY_COMMAND, str(SRC), str(tmp_path))
    assert codes == [0, 0, 0, 0, 0, 1, 0, 2]
    own = {name for name in modules if name == "polyhex" or name.startswith("polyhex.")}
    assert own == {"polyhex", "polyhex.cli", *(module.__name__ for module in MODULES)}
    assert set(modules) - own - set(loaded_modules(STDLIB_ONLY)) == set()
    assert not {"dataclasses", "inspect", "typing"} & set(modules)
