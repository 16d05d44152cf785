"""The package's public names: a name leaves or joins the surface only here."""

import importlib

import pytest

import coverideal

PUBLIC = [
    "ComponentCorrespondence",
    "ConjectureWitness",
    "Graph",
    "Monomial",
    "MonomialIdeal",
    "all_graphs",
    "associated_primes",
    "automorphisms",
    "b_fold_chromatic",
    "build_graph",
    "chromatic_number",
    "classify_chi_f_window",
    "complement",
    "component_to_Y",
    "connected_graphs",
    "contains_in_power",
    "cover_ideal",
    "critical_graphs",
    "expand",
    "expansion_witnesses",
    "family",
    "first_of_each_class",
    "fractional_value",
    "graphs_with_min_degree",
    "irreducible_decomposition",
    "is_connected",
    "is_critical",
    "is_isomorphic",
    "kneser_graph",
    "maximal_independent_sets",
    "minimal_vertex_covers",
    "monomial_ideal",
    "multiply",
    "mycielski",
    "persistence_check",
    "power",
    "probe_expansion",
    "replicate",
    "technical_lemma_check",
    "verify_correspondence",
]

MODULES = ["coverideal", "cli", "coloring", "corpus", "correspondence", "graphs", "ideals", "lp"]


def test_package_surface():
    assert sorted(coverideal.__all__) == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = coverideal if name == "coverideal" else importlib.import_module(f"coverideal.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.{attr}"
