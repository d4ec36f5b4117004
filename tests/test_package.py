"""The package's public names: each module's __all__, and nothing else."""

from __future__ import annotations

import polyhex
from polyhex import forms, graph, indices, tubes

PUBLIC_NAMES = [
    "ABC", "AZI", "ClosedForm", "DEFAULT_FIT_SAMPLES", "DiscrepancyReport",
    "DuplicateEdgeError", "EDGE_FUNCTIONS", "EdgeFunction", "EdgePartition",
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
    assert len(PUBLIC_NAMES) == 48
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
