"""Exact graph-coloring invariants and cover-ideal decompositions.

The package computes chromatic, b-fold, and fractional chromatic numbers
with exact rational arithmetic, irredundant irreducible decompositions of
powers of cover ideals, and the dictionary between those components and
critically colored induced subgraphs of graph expansions.
"""

from . import coloring, corpus, correspondence, graphs, ideals
from .coloring import *
from .correspondence import *
from .corpus import *
from .graphs import *
from .ideals import *

__version__ = "0.1.0"

__all__ = (
    graphs.__all__
    + coloring.__all__
    + ideals.__all__
    + correspondence.__all__
    + corpus.__all__
)
