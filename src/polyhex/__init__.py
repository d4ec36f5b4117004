"""Polyhex nanotube graphs and their degree-based topological indices.

Builds armchair (TUAC6) and zigzag (TUZC6) polyhex nanotube graphs
parametrized by (m, n), computes the Randic, atom-bond connectivity and
augmented Zagreb indices as sums over degree classes (exact for the
augmented Zagreb index), and adjudicates published closed-form expressions
against the brute-force oracle.
"""

from .forms import (
    DEFAULT_FIT_SAMPLES,
    ClosedForm,
    DiscrepancyReport,
    FormCheck,
    InconsistentSamplesError,
    PointCheck,
    Provenance,
    SingularSystemError,
    fit_closed_form,
    fit_from_values,
    published_forms,
    verify_forms,
    verify_published_forms,
)
from .graph import (
    DuplicateEdgeError,
    EdgePartition,
    Graph,
    GraphError,
    SelfLoopError,
    VertexOutOfRangeError,
    edge_partition,
    is_connected,
)
from .indices import (
    ABC,
    AZI,
    EDGE_FUNCTIONS,
    EdgeFunction,
    IndexValue,
    RANDIC,
    UndefinedTermError,
    abc,
    abc_term,
    azi,
    azi_term,
    index_from_partition,
    randic,
    randic_term,
)
from .tubes import (
    InvalidSpecError,
    NanotubeKind,
    NanotubeSpec,
    build_nanotube,
    tube_edge_count,
    tube_edge_partition,
    tube_vertex_count,
    validate_ranges,
)

__version__ = "0.1.0"

__all__ = [
    "ABC",
    "AZI",
    "ClosedForm",
    "DEFAULT_FIT_SAMPLES",
    "DiscrepancyReport",
    "DuplicateEdgeError",
    "EDGE_FUNCTIONS",
    "EdgeFunction",
    "EdgePartition",
    "FormCheck",
    "Graph",
    "GraphError",
    "InconsistentSamplesError",
    "IndexValue",
    "InvalidSpecError",
    "NanotubeKind",
    "NanotubeSpec",
    "PointCheck",
    "Provenance",
    "RANDIC",
    "SelfLoopError",
    "SingularSystemError",
    "UndefinedTermError",
    "VertexOutOfRangeError",
    "abc",
    "abc_term",
    "azi",
    "azi_term",
    "build_nanotube",
    "edge_partition",
    "fit_closed_form",
    "fit_from_values",
    "index_from_partition",
    "is_connected",
    "published_forms",
    "randic",
    "randic_term",
    "tube_edge_count",
    "tube_edge_partition",
    "tube_vertex_count",
    "validate_ranges",
    "verify_forms",
    "verify_published_forms",
]
