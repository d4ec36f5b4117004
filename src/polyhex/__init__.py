"""Polyhex nanotube graphs and their degree-based topological indices.

Builds armchair (TUAC6) and zigzag (TUZC6) polyhex nanotube graphs
parametrized by (m, n), computes the Randic, atom-bond connectivity and
augmented Zagreb indices as sums over degree classes (exact for the
augmented Zagreb index), and adjudicates published closed-form expressions
against the brute-force oracle.

The public names are those of each module's __all__.
"""

from .forms import *
from .graph import *
from .indices import *
from .tubes import *

__version__ = "0.1.0"

# Importing a submodule binds its name here.
__all__ = forms.__all__ + graph.__all__ + indices.__all__ + tubes.__all__
