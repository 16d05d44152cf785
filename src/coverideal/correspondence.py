"""Dictionary between irreducible components of cover-ideal powers and
critical induced subgraphs of graph expansions, plus the derived checks:
persistence of associated primes and the critical-expansion search.  A
component of J(G)^s is its exponent vector a, and its shadow set keeps
s - a_v + 1 shadows of each v with a_v > 0 and none of the others."""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, combinations
from typing import NamedTuple

from .coloring import chromatic_number, is_critical, b_fold_chromatic
from .graphs import Graph, expand, maximal_independent_sets, replicate
from .ideals import (
    Monomial,
    associated_primes,
    contains_in_power,
    cover_ideal,
    irreducible_decomposition,
    power,
)

__all__ = [
    "ComponentCorrespondence",
    "ConjectureWitness",
    "component_to_Y",
    "verify_correspondence",
    "persistence_check",
    "expansion_witnesses",
    "probe_expansion",
    "technical_lemma_check",
]


class ComponentCorrespondence(NamedTuple):
    """One irreducible component of J^s, as its exponent vector, with the
    criticality data of its shadow graph; its shadow set is
    ``component_to_Y(component, s)``."""

    component: Monomial
    chi: int
    verified_critical: bool


class ConjectureWitness(NamedTuple):
    """Result of probing one expansion candidate W."""

    W: frozenset[int]
    is_maximal_independent: bool
    expanded_chi: int
    expanded_critical: bool


def _copies(a: Monomial, s: int) -> list[int]:
    """Shadows kept per vertex by the component a of J^s: s - a_v + 1 on
    its support, 0 off it.  The component's shadow graph is
    ``replicate(G, _copies(a, s))``."""
    return [s - e + 1 if e else 0 for e in a]


def component_to_Y(a: Monomial, s: int) -> frozenset[int]:
    """Shadow set in the s-th expansion matching the component of J^s with
    exponent vector a.

    Vertex v keeps its first _copies(a, s)[v] shadows, which sit at
    indices v*s, v*s + 1, ... of the expansion.
    """
    if s < 1:
        raise ValueError("expansion order must be >= 1")
    for v, e in enumerate(a):
        if e and not 1 <= e <= s:
            raise ValueError(f"exponent {e} at variable {v} outside 1..{s}")
    return frozenset(v * s + j for v, c in enumerate(_copies(a, s)) for j in range(c))


def verify_correspondence(G: Graph, s: int) -> list[ComponentCorrespondence]:
    """Check every component of J(G)^s against its critical-subgraph reading.

    For each irreducible component, the induced subgraph of the s-th
    expansion on its shadow set must be critically (s+1)-chromatic.
    """
    decomp = irreducible_decomposition(power(cover_ideal(G), s))
    out = []
    for comp in decomp:
        critical, chi, _ = is_critical(replicate(G, _copies(comp, s)))
        out.append(ComponentCorrespondence(comp, chi, critical and chi == s + 1))
    return out


def persistence_check(G: Graph, s: int) -> tuple[bool, list[frozenset[int]]]:
    """Whether every associated prime of J^s persists into J^(s+1)."""
    if s < 1:
        raise ValueError("power must be >= 1")
    J = cover_ideal(G)
    # J^s before J^(s+1): called with ascending s, the one-slot memos of
    # ``cover_ideal``, ``power`` and ``associated_primes`` still hold G's J
    # and the previous call's J^(s+1), so neither is built or decomposed again.
    ass_s = associated_primes(power(J, s))
    kept = set(associated_primes(power(J, s + 1)))
    missing = [p for p in ass_s if p not in kept]
    return not missing, missing


def _is_maximal_independent(G: Graph, W: frozenset[int]) -> bool:
    """No vertex of W has a neighbour in W, and every other vertex has one."""
    w = sum(1 << v for v in W)
    return all(bool(m & w) != (v in W) for v, m in enumerate(G.masks))


def probe_expansion(G: Graph, W) -> ConjectureWitness:
    """Expand G at W and report the chromatic number and criticality.

    When G is critical and W is a maximal independent set whose expansion
    reaches chi(G) + 1, the expansion must come out critical; hitting the
    contrary is an internal error, not a finding.
    """
    W = frozenset(W)
    H = expand(G, W)
    h_critical, h_chi, _ = is_critical(H)
    maximal = _is_maximal_independent(G, W)
    g_chi, _ = chromatic_number(G)
    if maximal and h_chi == g_chi + 1 and not h_critical:
        g_critical, _, _ = is_critical(G)
        if g_critical:
            raise RuntimeError(
                "maximal-independent expansion reached chi+1 but is not critical"
            )
    return ConjectureWitness(
        W=W,
        is_maximal_independent=maximal,
        expanded_chi=h_chi,
        expanded_critical=h_critical,
    )


def expansion_witnesses(
    G: Graph, mode: str = "maximal_independent_only"
) -> Iterator[ConjectureWitness]:
    """Every W whose expansion is critically (chi+1)-chromatic, in order.

    Candidates run through the maximal independent sets in canonical order;
    mode "all_subsets" continues with every remaining vertex subset ordered
    by size then lexicographically, drawn only as the search reaches them.
    A candidate whose expansion reaches chi + 1 is tested by
    probe_expansion.
    """
    if mode not in ("maximal_independent_only", "all_subsets"):
        raise ValueError(f"unknown search mode {mode!r}")
    critical, chi, _ = is_critical(G)
    if not critical:
        raise ValueError("conjecture search expects a critical graph")
    candidates = maximal_independent_sets(G)
    if mode == "all_subsets":
        mis = set(candidates)
        subsets = (frozenset(c) for r in range(G.n + 1) for c in combinations(range(G.n), r))
        candidates = chain(candidates, (W for W in subsets if W not in mis))
    for W in candidates:
        if chromatic_number(expand(G, W))[0] == chi + 1:
            witness = probe_expansion(G, W)
            if witness.expanded_critical:
                yield witness


def technical_lemma_check(G: Graph, W, b: int) -> tuple[bool, int]:
    """Membership identity linking expansion colorings to ideal powers.

    With G' the expansion of G at W and d its b-fold chromatic number, the
    monomial (x_0...x_{n-1})^(d-b) divided by the W-product to the b-th
    power must lie in J(G)^d.  This is the algebraic step that the
    conjecture check rests on in the independent-set case.  Returns the
    membership and d.
    """
    if b < 1:
        raise ValueError("fold count must be >= 1")
    W = frozenset(W)
    J = cover_ideal(G)
    H = expand(G, W)
    d, _ = b_fold_chromatic(H, b)
    exps = tuple(d - b - (b if v in W else 0) for v in range(G.n))
    if any(e < 0 for e in exps):
        raise RuntimeError("negative exponent in the technical-lemma monomial")
    return contains_in_power(J, d, exps), d
