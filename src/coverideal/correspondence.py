"""Dictionary between irreducible components of cover-ideal powers and
critical induced subgraphs of graph expansions, plus the derived checks:
persistence of associated primes and the critical-expansion search."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product

from .coloring import chromatic_number, is_critical, b_fold_chromatic
from .graphs import Graph, expand, maximal_independent_sets, replicate
from .ideals import (
    IrreducibleIdeal,
    MonomialIdeal,
    associated_primes,
    contains_in_power,
    cover_ideal,
    irreducible_decomposition,
    multiply,
    power,
)

__all__ = [
    "ComponentCorrespondence",
    "ConjectureWitness",
    "PersistenceFinding",
    "SweepReport",
    "component_to_Y",
    "verify_correspondence",
    "converse_correspondence",
    "persistence_check",
    "persistence_sweep",
    "conjecture_search",
    "probe_expansion",
    "technical_lemma_check",
]


@dataclass(frozen=True)
class ComponentCorrespondence:
    """One irreducible component of J^s with its shadow set and criticality data."""

    component: IrreducibleIdeal
    s: int
    Y: frozenset[int]
    chi: int
    verified_critical: bool


@dataclass(frozen=True)
class ConjectureWitness:
    """Result of probing one expansion candidate W."""

    W: frozenset[int]
    is_maximal_independent: bool
    expanded_chi: int
    expanded_critical: bool


def component_to_Y(component: IrreducibleIdeal, s: int) -> frozenset[int]:
    """Shadow set in the s-th expansion matching a component of J^s.

    A variable with exponent a contributes its first s - a + 1 shadows;
    shadow (i, j) sits at index i*s + (j - 1).
    """
    if s < 1:
        raise ValueError("expansion order must be >= 1")
    for v, e in component.exps:
        if not 1 <= e <= s:
            raise ValueError(f"exponent {e} at variable {v} outside 1..{s}")
    return frozenset(
        i * s + j for i, a in component.exps for j in range(s - a + 1)
    )


def _shadow_graph(G: Graph, component: IrreducibleIdeal, s: int) -> Graph:
    """Induced subgraph of the s-th expansion on the component's shadow set.

    Built directly as a replication: a variable with exponent a keeps
    s - a + 1 shadows, a variable outside the support none.
    """
    copies = [0] * G.n
    for v, a in component.exps:
        copies[v] = s - a + 1
    return replicate(G, copies)


def _decomposition_of_power(
    G: Graph, s: int, Js: MonomialIdeal | None
) -> tuple[IrreducibleIdeal, ...]:
    """Irreducible components of J(G)^s, from Js when the caller holds it."""
    if s < 1:
        raise ValueError("expansion order must be >= 1")
    if Js is None:
        Js = power(cover_ideal(G), s)
    elif Js.nvars != G.n:
        raise ValueError("the power lives in a ring of another graph")
    return irreducible_decomposition(Js)


def verify_correspondence(
    G: Graph, s: int, Js: MonomialIdeal | None = None
) -> list[ComponentCorrespondence]:
    """Check every component of J(G)^s against its critical-subgraph reading.

    For each irreducible component, the induced subgraph of the s-th
    expansion on its shadow set must be critically (s+1)-chromatic.  A
    caller that already holds J(G)^s passes it as Js; otherwise it is
    built from J(G).
    """
    decomp = _decomposition_of_power(G, s, Js)
    out = []
    for comp in decomp:
        Y = component_to_Y(comp, s)
        H = _shadow_graph(G, comp, s)
        critical, chi, _ = is_critical(H)
        out.append(
            ComponentCorrespondence(
                component=comp,
                s=s,
                Y=Y,
                chi=chi,
                verified_critical=critical and chi == s + 1,
            )
        )
    return out


def converse_correspondence(
    G: Graph, s: int, Js: MonomialIdeal | None = None
) -> list[IrreducibleIdeal]:
    """Critical canonical shadow sets whose component is absent from J(G)^s.

    Enumerates every candidate exponent vector (support with exponents in
    1..s), keeps those whose shadow set induces a critically (s+1)-chromatic
    subgraph of the s-th expansion, and returns the ones missing from the
    decomposition.  An empty list is the expected outcome.  A caller that
    already holds J(G)^s passes it as Js; otherwise it is built from J(G).
    """
    decomp = set(_decomposition_of_power(G, s, Js))
    missing = []
    for r in range(1, G.n + 1):
        for support in combinations(range(G.n), r):
            for exps in product(range(1, s + 1), repeat=r):
                size = sum(s - a + 1 for a in exps)
                if size <= s:
                    continue
                comp = IrreducibleIdeal(G.n, tuple(zip(support, exps)))
                H = _shadow_graph(G, comp, s)
                chi, _ = chromatic_number(H)
                if chi != s + 1:
                    continue
                critical, _, _ = is_critical(H)
                if critical and comp not in decomp:
                    missing.append(comp)
    return missing


def persistence_check(G: Graph, s: int) -> tuple[bool, list[frozenset[int]]]:
    """Whether every associated prime of J^s persists into J^(s+1)."""
    if s < 1:
        raise ValueError("power must be >= 1")
    J = cover_ideal(G)
    _, _, _, missing = _persistence_step(power(J, s), J)
    return not missing, missing


def _persistence_step(Js: MonomialIdeal, J: MonomialIdeal) -> tuple[
    MonomialIdeal, list[frozenset[int]], list[frozenset[int]], list[frozenset[int]]
]:
    """Compare Ass(J^s) with Ass(J^(s+1)), given J^s and J.

    Returns J^(s+1) = J^s * J, both lists of associated primes, and the
    primes of J^s that are missing from J^(s+1).
    """
    Jnext = multiply(Js, J)
    ass_s = associated_primes(Js)
    ass_next = associated_primes(Jnext)
    kept = set(ass_next)
    return Jnext, ass_s, ass_next, [p for p in ass_s if p not in kept]


@dataclass(frozen=True)
class PersistenceFinding:
    """A persistence failure: primes of J^s absent from J^(s+1)."""

    graph_index: int
    s: int
    missing: tuple[frozenset[int], ...]
    ass_s: tuple[frozenset[int], ...]
    ass_next: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class SweepReport:
    graphs_checked: int
    s_max: int
    checks_run: int
    findings: tuple[PersistenceFinding, ...]


def persistence_sweep(graphs, s_max: int) -> SweepReport:
    """Check persistence for s = 1..s_max over a family of graphs.

    Each graph's powers J, J^2, ..., J^(s_max+1) are built once, each from
    the one before, and compared as in persistence_check.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    findings = []
    graphs = list(graphs)
    for gi, G in enumerate(graphs):
        J = P = cover_ideal(G)
        for s in range(1, s_max + 1):
            P, ass_s, ass_next, missing = _persistence_step(P, J)
            if missing:
                findings.append(
                    PersistenceFinding(
                        graph_index=gi,
                        s=s,
                        missing=tuple(missing),
                        ass_s=tuple(ass_s),
                        ass_next=tuple(ass_next),
                    )
                )
    return SweepReport(
        graphs_checked=len(graphs),
        s_max=s_max,
        checks_run=len(graphs) * s_max,
        findings=tuple(findings),
    )


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


def conjecture_search(
    G: Graph, mode: str = "maximal_independent_only"
) -> ConjectureWitness | None:
    """Search for W whose expansion is critically (chi+1)-chromatic.

    Candidates run through the maximal independent sets in canonical order;
    mode "all_subsets" continues with every remaining vertex subset ordered
    by size then lexicographically, drawn only as the search reaches them.
    Returns the first witness, or None when every candidate fails.
    """
    if mode not in ("maximal_independent_only", "all_subsets"):
        raise ValueError(f"unknown search mode {mode!r}")
    critical, chi, _ = is_critical(G)
    if not critical:
        raise ValueError("conjecture search expects a critical graph")
    target = chi + 1
    candidates = maximal_independent_sets(G)
    mis = set(candidates)
    if mode == "all_subsets":
        subsets = (frozenset(c) for r in range(G.n + 1) for c in combinations(range(G.n), r))
        candidates = chain(candidates, (W for W in subsets if W not in mis))
    for W in candidates:
        H = expand(G, W)
        h_chi, _ = chromatic_number(H)
        if h_chi != target:
            continue
        h_critical, _, _ = is_critical(H)
        if h_critical:
            return ConjectureWitness(
                W=W,
                is_maximal_independent=W in mis,
                expanded_chi=h_chi,
                expanded_critical=True,
            )
    return None


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
