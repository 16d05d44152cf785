from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from coverideal.graphs import Graph, build_graph

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 7) -> Graph:
    """Random simple graph with each possible edge tossed independently."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, picks) if keep]
    return build_graph(n, edges)


@st.composite
def graphs_with_components(draw, max_n: int = 7) -> Graph:
    """Disjoint union of 2-3 random graphs, vertices shuffled so parts interleave."""
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=3).filter(
            lambda sizes: sum(sizes) <= max_n
        )
    )
    perm = draw(st.permutations(range(sum(sizes))))
    edges, base = [], 0
    for k in sizes:
        part = draw(graphs(min_n=k, max_n=k))
        edges += [(perm[base + u], perm[base + v]) for u, v in part.edges()]
        base += k
    return build_graph(base, edges)


@st.composite
def graphs_with_edges(draw, min_n: int = 2, max_n: int = 6) -> Graph:
    """Random graph with no isolated vertices and at least one edge."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, picks) if keep]
    covered = {v for e in edges for v in e}
    for v in range(n):
        if v not in covered:
            u = draw(st.integers(min_value=0, max_value=n - 2))
            u = u if u < v else u + 1
            edges.append((min(u, v), max(u, v)))
            covered.update((u, v))
    return build_graph(n, edges)


@st.composite
def monomial_ideals(draw, max_vars: int = 5, max_gens: int = 6, max_exp: int = 4):
    """Random proper nonzero monomial ideal as (nvars, generator tuples)."""
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    ngens = draw(st.integers(min_value=1, max_value=max_gens))
    gens = []
    for _ in range(ngens):
        g = tuple(
            draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(nvars)
        )
        if sum(g) > 0:
            gens.append(g)
    if not gens:
        gens = [tuple([1] + [0] * (nvars - 1))]
    return nvars, tuple(gens)


@st.composite
def squarefree_ideals(draw, max_vars: int = 6, max_gens: int = 5):
    """Random nonzero squarefree ideal as (nvars, generator tuples).

    Any 0/1 generators, the unit ideal included; one variable may be put
    in every generator, and the full-support generator may be added.
    """
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    gens = draw(
        st.lists(st.tuples(*[st.integers(0, 1)] * nvars), min_size=1, max_size=max_gens)
    )
    shared = draw(st.none() | st.integers(min_value=0, max_value=nvars - 1))
    if shared is not None:
        gens = [g[:shared] + (1,) + g[shared + 1:] for g in gens]
    if draw(st.booleans()):
        gens.append((1,) * nvars)
    return nvars, tuple(gens)
