"""Acceptance gate: the nine headline checks, each with its runtime budget.

Every test prints exactly one CRITERION line on success; a failure shows up
as the test's own failure line.  The heavyweight opt-in runs (the full
4th-power decomposition and the 8-vertex persistence sweep) are gated
behind COVERIDEAL_EXTENDED=1.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from coverideal import ideals
from coverideal.coloring import (
    b_fold_chromatic,
    chromatic_number,
    fractional_value,
    is_critical,
)
from coverideal.correspondence import (
    component_to_Y,
    persistence_check,
    probe_expansion,
    technical_lemma_check,
    verify_correspondence,
)
from coverideal.corpus import connected_graphs, critical_graphs
from coverideal.graphs import (
    build_graph,
    expand,
    family,
    is_isomorphic,
    kneser_graph,
    maximal_independent_sets,
    mycielski,
    replicate,
)
from coverideal.ideals import (
    cover_ideal,
    irreducible_decomposition,
    monomial_ideal,
    multiply,
    power,
)
from oracles import (
    b_fold_via_membership,
    brute_contains,
    component_contains,
    converse_correspondence,
    induced_subgraph,
    is_component,
    monomial_box,
    neighbors,
    one_step_neighbours,
    sequential_expand,
)

EXTENDED = os.environ.get("COVERIDEAL_EXTENDED") == "1"

# 0-based stand-ins for the classical 1-based names: x_i -> i-1 on the base
# cycle, y_i -> 8 + i on the shadow layer, z -> 18 on the apex.
Z_WITNESS = frozenset({0, 2, 4, 6, 9, 11, 13, 15})
SHADOW_LAYER = frozenset(range(9, 18))


def test_criterion_1_base_chromatic_facts():
    start = time.perf_counter()
    C9 = family("cycle", 9)
    assert chromatic_number(C9)[0] == 3
    assert is_critical(C9) == (True, 3, [])
    M = mycielski(C9)
    assert is_critical(M) == (True, 4, [])
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(
        f"CRITERION 1 PASS: chi(C9)=3 critical, mycielski(C9) critically "
        f"4-chromatic ({elapsed:.2f}s < 10s)"
    )


def test_criterion_2_fractional_closed_forms():
    start = time.perf_counter()
    for n in range(1, 6):
        value, cert = fractional_value(family("cycle", 2 * n + 1))
        assert value == 2 + Fraction(1, n), f"odd cycle 2*{n}+1"
    for n in range(2, 5):
        value, cert = fractional_value(family("antihole", 2 * n + 1))
        assert value == n + Fraction(1, 2), f"antihole 2*{n}+1"
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(
        f"CRITERION 2 PASS: chi_f(C_2n+1)=2+1/n for n=1..5 and "
        f"chi_f(antihole_2n+1)=n+1/2 for n=2..4, exact ({elapsed:.2f}s < 60s)"
    )


def test_criterion_3_expansion_examples():
    start = time.perf_counter()
    w1 = probe_expansion(family("cycle", 9), {1, 4, 7})
    assert w1.expanded_chi == 3
    M = mycielski(family("cycle", 9))
    w2 = probe_expansion(M, SHADOW_LAYER)
    assert w2.expanded_chi == 4
    w3 = probe_expansion(M, Z_WITNESS)
    assert w3.expanded_chi == 5
    assert w3.expanded_critical
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"CRITERION 3 PASS: expansions of C9 and mycielski(C9) hit chi "
        f"3 / 4 / 5-critical as required ({elapsed:.2f}s < 300s)"
    )


def _explicit_19_variable_component() -> tuple[int, ...]:
    return tuple(3 if v in Z_WITNESS else 4 for v in range(19))


def test_criterion_4_explicit_component_reading():
    start = time.perf_counter()
    comp = _explicit_19_variable_component()
    Y = component_to_Y(comp, 4)
    want = {v * 4 for v in range(19)} | {v * 4 + 1 for v in Z_WITNESS}
    assert Y == frozenset(want)
    assert len(Y) == 27
    G = mycielski(family("cycle", 9))
    M4 = replicate(G, [4] * G.n)
    H = induced_subgraph(M4, Y)
    assert is_critical(H) == (True, 5, [])
    elapsed = time.perf_counter() - start
    assert elapsed < 900
    print(
        f"CRITERION 4 PASS: explicit 19-variable component maps to the "
        f"27-vertex set, critically 5-chromatic ({elapsed:.2f}s < 900s)"
    )


# On Linux a spawned child's ru_maxrss starts from the peak RSS of the
# process that spawned it, so the command runs under a small launcher, and
# its own exit code and peak RSS (kB, from os.wait4) come back on the
# launcher's last line of stderr.
_LAUNCHER = """
import os, subprocess, sys
pid = subprocess.Popen(sys.argv[1:]).pid
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def _run_measured(*argv):
    """``python -m coverideal *argv`` in a child process: its exit code,
    stdout, stderr and peak RSS in kB."""
    package_root = os.path.dirname(os.path.dirname(ideals.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "coverideal", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    err, _, last = proc.stderr.rstrip("\n").rpartition("\n")
    code, peak_kb = map(int, last.split())
    return code, proc.stdout, err, peak_kb


@pytest.mark.skipif(
    not EXTENDED, reason="set COVERIDEAL_EXTENDED=1 to run the 4th-power decomposition"
)
def test_criterion_4_extended_full_decomposition():
    start = time.perf_counter()
    G = mycielski(family("cycle", 9))
    J = cover_ideal(G)
    J3 = power(J, 3)
    J4 = multiply(J3, J)
    # Pinned from the packed-row kernel that the bit-sliced one replaced:
    # the generator counts and the SHA-256 of each generator tuple.
    for Js, count, want in (
        (J3, 18_454, "c9c98b8d1347500bc5ce54c69bbeb93a4974bb66b528f7cc51f0284e33a535a7"),
        (J4, 175_109, "037788f1c6775dfb0badc472fcfcb35b377e0082d782ef0f922ff22611ee7f89"),
    ):
        assert len(Js.gens) == count
        assert hashlib.sha256(repr(Js.gens).encode()).hexdigest() == want
    decomp = irreducible_decomposition(J4)
    assert _explicit_19_variable_component() in set(decomp)
    # Pinned from the packed-row duality chain that the bit-sliced chain
    # replaced: the count and the SHA-256 of the canonical component list,
    # each component written as its (variable, exponent) pairs.
    assert len(decomp) == 25_392
    pairs = [tuple((v, e) for v, e in enumerate(c) if e) for c in decomp]
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == "5eb62e63985b9edf5dc41fa545f00384c98ed4bf5f06648a5a67af156e042a7d"
    # Each component, one at a time, passes the corner test against J^4's
    # generators, and each vector one step from it fails.
    corner_start = time.perf_counter()
    for a in decomp:
        assert is_component(J4, a), a
        for b in one_step_neighbours(a):
            assert not is_component(J4, b), b
    corner_s = time.perf_counter() - corner_start
    # The paper's dictionary in full, through the command line in a child
    # process: every component's shadow graph is critically 5-chromatic.
    # The report is pinned by size and SHA-256, and the command's own peak
    # RSS is bounded.
    code, out, err, peak_kb = _run_measured(
        "verify", "correspondence", "--builtin", "mycielski-cycle:9", "--power", "4", "--json"
    )
    assert (code, err) == (0, "")
    assert len(out.encode()) == 15_816_411
    assert peak_kb < 300 * 1024, f"peak RSS {peak_kb / 1024:.0f} MB"
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "b4626a1f65693f9fa59c6333a835d58ba9b8370053a64dd062603631b4e10d80"
    results = json.loads(out)["results"]
    assert len(results["components"]) == 25_392
    assert results["all_verified"]
    assert all(r["verified"] and r["chi"] == 5 for r in results["components"])
    elapsed = time.perf_counter() - start
    assert elapsed < 4 * 3600
    print(
        f"CRITERION 4 (EXTENDED) PASS: full 4th-power decomposition has the "
        f"pinned 25,392 components, each critically 5-chromatic and passing "
        f"the corner test ({corner_s:.0f}s), and contains the explicit "
        f"component ({elapsed:.0f}s < 4h)"
    )


def test_criterion_5_component_dictionary_both_directions():
    start = time.perf_counter()
    cases = [
        (name, G, s)
        for name, G in [
            ("K3", family("complete", 3)),
            ("K4", family("complete", 4)),
            ("C5", family("cycle", 5)),
            ("C7", family("cycle", 7)),
        ]
        for s in (1, 2)
    ]
    for name, G, s in cases:
        records = verify_correspondence(G, s)
        assert all(r.verified_critical for r in records), (name, s)
        assert converse_correspondence(G, s) == [], (name, s)
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(
        f"CRITERION 5 PASS: component dictionary verified in both directions "
        f"on K3/K4/C5/C7 at s=1,2 ({elapsed:.2f}s < 600s)"
    )


def test_criterion_6_bfold_dual_route():
    start = time.perf_counter()
    table = {
        "C5": (family("cycle", 5), (3, 5, 8)),
        "C7": (family("cycle", 7), (3, 5, 7)),
        "K3": (family("complete", 3), (3, 6, 9)),
        "K4": (family("complete", 4), (4, 8, 12)),
        "petersen": (kneser_graph(5, 2), (3, 5, 8)),
    }
    for name, (G, expected) in table.items():
        for b in (1, 2, 3):
            via_coloring = b_fold_chromatic(G, b)[0]
            via_membership = b_fold_via_membership(G, b)
            assert via_coloring == via_membership == expected[b - 1], (name, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(
        f"CRITERION 6 PASS: coloring and ideal-membership routes agree on "
        f"chi_b for 5 graphs x b=1..3 ({elapsed:.2f}s < 600s)"
    )


def test_criterion_7_persistence_sweep():
    start = time.perf_counter()
    corpus = [G for n in range(2, 7) for G in connected_graphs(n)]
    assert len(corpus) == 142
    assert all(persistence_check(G, s) == (True, []) for G in corpus for s in (1, 2))
    for G in (family("cycle", 5), family("cycle", 7)):
        assert all(persistence_check(G, s) == (True, []) for s in (1, 2, 3))
    elapsed = time.perf_counter() - start
    assert elapsed < 1800
    print(
        f"CRITERION 7 PASS: associated primes persist across 284 checks on "
        f"142 connected graphs plus C5/C7 to s=3 ({elapsed:.2f}s < 1800s)"
    )


@pytest.mark.skipif(
    not EXTENDED, reason="set COVERIDEAL_EXTENDED=1 to run the 8-vertex persistence sweep"
)
def test_criterion_7_extended_persistence_to_8_vertices():
    start = time.perf_counter()
    corpus = [G for n in range(2, 9) for G in connected_graphs(n)]
    assert len(corpus) == 12112
    assert all(persistence_check(G, s) == (True, []) for G in corpus for s in (1, 2, 3))
    assert ideals._components.cache_info().currsize == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1800
    print(
        f"CRITERION 7 (EXTENDED) PASS: associated primes persist across 36336 "
        f"checks on 12112 connected graphs on 2..8 vertices to s=3 "
        f"({elapsed:.2f}s < 1800s)"
    )


def _random_graph(rng: random.Random, n: int, p: float = 0.5):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    covered = {v for e in edges for v in e}
    for v in range(n):
        if v not in covered and n >= 2:
            u = rng.choice([u for u in range(n) if u != v])
            edges.append((min(u, v), max(u, v)))
            covered.update((u, v))
    return build_graph(n, edges)


def test_criterion_8_property_suites():
    start = time.perf_counter()
    rng = random.Random(20260815)

    # (a) decomposition <=> membership equivalence on 200 random ideals
    for _ in range(200):
        nvars = rng.randint(1, 5)
        gens = []
        for _ in range(rng.randint(1, 6)):
            g = tuple(rng.randint(0, 4) for _ in range(nvars))
            if sum(g):
                gens.append(g)
        if not gens:
            gens = [tuple([1] + [0] * (nvars - 1))]
        I = monomial_ideal(nvars, gens)
        comps = irreducible_decomposition(I)
        bounds = tuple(
            max(g[v] for g in I.gens) + 1 for v in range(nvars)
        )
        for m in monomial_box(bounds):
            want = brute_contains(I.gens, m)
            assert all(component_contains(c, m) for c in comps) == want

    # (b) expansion order-independence, 50 cases x 3 orders
    for _ in range(50):
        G = _random_graph(rng, rng.randint(1, 6))
        W = [v for v in range(G.n) if rng.random() < 0.5]
        H = expand(G, frozenset(W))
        for _ in range(3):
            order = W[:]
            rng.shuffle(order)
            assert is_isomorphic(H, sequential_expand(G, order))

    # (c) subadditivity of chi_b and the fractional lower bound
    corpus = {
        "C5": family("cycle", 5),
        "C7": family("cycle", 7),
        "C9": family("cycle", 9),
        "K3": family("complete", 3),
        "K4": family("complete", 4),
        "K6": family("complete", 6),
        "petersen": kneser_graph(5, 2),
        "antihole7": family("antihole", 7),
        "antihole9": family("antihole", 9),
        "path4": family("path", 4),
    }
    for name, G in corpus.items():
        chi_b = {b: b_fold_chromatic(G, b)[0] for b in range(1, 7)}
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert chi_b[a + b] <= chi_b[a] + chi_b[b], (name, a, b)
        chi_f, _ = fractional_value(G)
        for b in range(1, 5):
            assert chi_f <= Fraction(chi_b[b], b), (name, b)

    # (d) the division-trick membership on 50 random (G, W, b) triples
    for _ in range(50):
        G = _random_graph(rng, rng.randint(2, 8))
        W = frozenset(v for v in range(G.n) if rng.random() < 0.4)
        b = rng.randint(1, 2)
        member, _ = technical_lemma_check(G, W, b)
        assert member, (G.edges(), sorted(W), b)

    elapsed = time.perf_counter() - start
    assert elapsed < 1200
    print(
        f"CRITERION 8 PASS: oracle equivalence (200 ideals), expansion order "
        f"independence (50x3), chi_b subadditivity + fractional bound, "
        f"membership lemma (50 triples) ({elapsed:.2f}s < 1200s)"
    )


def test_criterion_9_maximal_independent_expansion_law():
    start = time.perf_counter()
    bumps = 0
    checks = 0
    for n in range(1, 9):
        for G, chi in critical_graphs(n):
            maximal = set(maximal_independent_sets(G))
            for r in range(G.n + 1):
                for c in combinations(range(G.n), r):
                    W = frozenset(c)
                    if any(u in neighbors(G, v) for u in W for v in W):
                        continue
                    checks += 1
                    H = expand(G, W)
                    h_chi = chromatic_number(H)[0]
                    assert h_chi in (chi, chi + 1)
                    if W in maximal:
                        if h_chi == chi + 1:
                            bumps += 1
                            h_critical, _, failing = is_critical(H)
                            assert h_critical, (n, sorted(W), failing)
                    else:
                        assert h_chi == chi, (n, sorted(W))
    elapsed = time.perf_counter() - start
    assert elapsed < 1800
    print(
        f"CRITERION 9 PASS: {checks} independent-set expansions over all "
        f"critical graphs on <= 8 vertices obey the chi(+1)/criticality law "
        f"({bumps} bumps verified critical) ({elapsed:.2f}s < 1800s)"
    )
