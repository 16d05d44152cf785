"""Exact graph-coloring invariants and cover-ideal decompositions.

The package computes chromatic, b-fold, and fractional chromatic numbers
with exact rational arithmetic, irredundant irreducible decompositions of
powers of cover ideals, and the dictionary between those components and
critically colored induced subgraphs of graph expansions.  The census
module ``corpus`` loads on first use of it or of one of its names.
"""

import importlib

from . import coloring, correspondence, graphs, ideals
from .coloring import *
from .correspondence import *
from .graphs import *
from .ideals import *

__version__ = "0.1.0"

_CORPUS = ["all_graphs", "connected_graphs", "graphs_with_min_degree", "critical_graphs"]
__all__ = graphs.__all__ + coloring.__all__ + ideals.__all__ + correspondence.__all__ + _CORPUS


def __getattr__(name: str):
    if name != "corpus" and name not in _CORPUS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    corpus = importlib.import_module(".corpus", __name__)
    return corpus if name == "corpus" else getattr(corpus, name)
