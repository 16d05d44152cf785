"""One pass of the `sweep` or `invariants` workload, in a fresh process.

Usage: python3 bench/worker.py WORKLOAD SEED OUT_JSON [--trace] [--setup-only] [--check-data]

Imports coverideal, builds the workload's inputs, then runs its items in
a fixed order and times each one.  It writes to OUT_JSON the clock
reading (CLOCK_MONOTONIC, shared by all processes) at which the first item
began, each item's seconds and output, and, with --trace, each item's
self time per function and the pass's work counts.  --setup-only stops
before the first item; --check-data also computes, untimed, the extra
answers the checks need.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
import traceback
from fractions import Fraction

import coverideal as ci
from coverideal.graphs import family


def _edges(G) -> list[list[int]]:
    return [list(e) for e in G.edges()]


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def sweep_items(seed: int, state: dict, out: dict):
    """Persistence of associated primes over every connected graph on 2..6
    vertices, s = 1..4; graphs in seeded order, s ascending per graph."""

    def corpus():
        state["graphs"] = {n: ci.connected_graphs(n) for n in range(2, 7)}
        out["corpus"] = {n: [_edges(G) for G in gs] for n, gs in state["graphs"].items()}

    yield "corpus", corpus
    keys = [(n, i) for n, gs in state["graphs"].items() for i in range(len(gs))]
    random.Random(seed).shuffle(keys)
    out["persistence"] = {}
    for n, i in keys:
        G = state["graphs"][n][i]
        for s in range(1, 5):

            def check(G=G, key=f"{n}:{i}:{s}", s=s):
                holds, missing = ci.persistence_check(G, s)
                out["persistence"][key] = [holds, [sorted(p) for p in missing]]

            yield f"check:{n}:{i}:{s}", check


def sweep_check_data(state: dict, out: dict) -> None:
    out["ass"] = {}
    for n, gs in state["graphs"].items():
        for i, G in enumerate(gs):
            J = ci.cover_ideal(G)
            P, per_s = J, []
            for s in range(1, 5):
                per_s.append([sorted(p) for p in ci.associated_primes(P)])
                P = ci.multiply(P, J)
            out["ass"][f"{n}:{i}"] = per_s


# The probes' inputs: the 35 critical graphs on 1..8 vertices, as n and a
# string of edges, each edge two vertex digits.  They are fixed inputs, not
# the census's own answers, so the probes can run before the census is done.
# The worker numbers their vertices in reverse, so that 23 of them are not
# the labelled graphs the census builds and share no cache entries with it;
# the other 12 (the complete graphs among them) are their own reverse.
PROBE_GRAPHS = [
    (1, ""),
    (2, "01"),
    (3, "010212"),
    (4, "010203121323"),
    (5, "0203131424"),
    (5, "01020304121314232434"),
    (6, "02030513141524253545"),
    (6, "010203040512131415232425343545"),
    (7, "03041415252636"),
    (7, "030405131416242526353656"),
    (7, "0204051315162426353646"),
    (7, "020405061315162425353646"),
    (7, "020405061314152426353656"),
    (7, "02040506131415162425353646"),
    (7, "02030506131415162425353646"),
    (7, "02030506131415162425263536454656"),
    (7, "0203040513141516242526353646"),
    (7, "010203040506121314151623242526343536454656"),
    (8, "0305061415172526273637464767"),
    (8, "0304071415172526273637475767"),
    (8, "0304061415172526273637465767"),
    (8, "0304050714151625262736374767"),
    (8, "030405061415172526273637465767"),
    (8, "03040514161725262736374567"),
    (8, "0304050714161725262736374567"),
    (8, "030405061416172526273637454767"),
    (8, "03040507131416172425262735363747565767"),
    (8, "020405071315161724262735363746475767"),
    (8, "02040506071315161724252735363746475767"),
    (8, "02040506071314151724262735363747565767"),
    (8, "0204050607131415161724252735363746475767"),
    (8, "0203050607131415161724252735363746475767"),
    (8, "0203050607131415161724252627353637454647565767"),
    (8, "020304050713141516172425262735363746475767"),
    (8, "01020304050607121314151617232425262734353637454647565767"),
]


def probe_graph(n: int, edges: str):
    pairs = [(n - 1 - int(edges[i]), n - 1 - int(edges[i + 1])) for i in range(0, len(edges), 2)]
    return ci.build_graph(n, pairs)


def invariants_items(seed: int, state: dict, out: dict):
    """Coloring, LP and corpus work with no ideal work.  The items are
    fixed, so the seed is not used.

    The probes take a few tenths of a second in all.  Run as one block,
    their times would sample the processor's speed at a single moment of
    the pass; they run instead, in a fixed shuffled order, in seven chunks
    at the start and after each group of the longer items, so that they
    sample it at moments seconds apart."""
    probe_graphs = [probe_graph(n, edges) for n, edges in PROBE_GRAPHS]
    C5 = family("cycle", 5)
    towers = [ci.mycielski(C5)]
    towers.append(ci.mycielski(towers[-1]))
    lp_graphs = {
        "M(C5)": towers[0],
        "M(C9)": ci.mycielski(family("cycle", 9)),
        "M(C11)": ci.mycielski(family("cycle", 11)),
        "M2(C5)": towers[1],
    }
    kneser = ci.kneser_graph(7, 2)
    cycles = {n: family("cycle", n) for n in (5, 7, 9, 11)}
    out.update(census={}, probe_graphs=[[G.n, _edges(G)] for G in probe_graphs], probes={},
               towers=[[] for _ in towers], chi_f={}, chi_b={})
    items = {}

    for n in range(1, 9):

        def crit(n=n):
            out["census"][n] = [[_edges(G), chi] for G, chi in ci.critical_graphs(n)]

        items[f"census:{n}"] = crit
    for k, G in enumerate(towers, start=1):
        row = out["towers"][k - 1]
        items[f"tower-chi:M{k}(C5)"] = lambda G=G, row=row: row.append(ci.chromatic_number(G)[0])
        items[f"tower-critical:M{k}(C5)"] = lambda G=G, row=row: row.append(ci.is_critical(G)[0])
    for name, G in lp_graphs.items():

        def chi_f(G=G, name=name):
            out["chi_f"][name] = _frac(ci.fractional_value(G)[0])

        items[f"chi_f:{name}"] = chi_f

    def kneser_item():
        out["kneser"] = [ci.chromatic_number(kneser)[0], _frac(ci.fractional_value(kneser)[0])]

    items["kneser:K(7,2)"] = kneser_item
    for n, C in cycles.items():

        def chi_b(n=n, C=C):
            out["chi_b"][n] = [ci.b_fold_chromatic(C, b)[0] for b in range(1, 6)]

        items[f"chi_b:C{n}"] = chi_b

    def probe_sets():
        state["probe_sets"] = [ci.maximal_independent_sets(G) for G in probe_graphs]

    yield "probe-sets", probe_sets
    probes = []
    for gi, G in enumerate(probe_graphs):
        out["probes"][gi] = []
        for W in state["probe_sets"][gi]:

            def probe(G=G, W=W, gi=gi):
                w = ci.probe_expansion(G, W)
                out["probes"][gi].append(
                    [sorted(w.W), w.expanded_chi, w.expanded_critical, w.is_maximal_independent]
                )

            probes.append((f"probe:{gi}:{','.join(map(str, sorted(W)))}", probe))
    # Listed by graph, the probes would put the small graphs' fast ones in
    # the first chunks and the slow ones in the last, so that the median
    # would come from a few chunks.  A fixed shuffle mixes every chunk.
    random.Random(0).shuffle(probes)
    # Groups of the other items, each followed by a chunk of probes.  The
    # groups are made so that the chunks fall at the start of the pass,
    # around the census of 7-vertex graphs, and around and between the
    # longest LP solves after the census of 8-vertex graphs.
    groups = [
        [],
        [*(f"census:{n}" for n in range(1, 7)), "tower-chi:M1(C5)", "tower-critical:M1(C5)",
         "tower-chi:M2(C5)", "tower-critical:M2(C5)", "chi_f:M(C5)", "chi_b:C5", "chi_b:C7",
         "chi_b:C9"],
        ["census:7"],
        ["chi_f:M(C9)", "kneser:K(7,2)", "chi_b:C11"],
        ["census:8"],
        ["chi_f:M2(C5)"],
        ["chi_f:M(C11)"],
    ]
    assert sorted(name for g in groups for name in g) == sorted(items)
    for c, group in enumerate(groups):
        for name in group:
            yield name, items[name]
        yield from probes[c * len(probes) // len(groups) : (c + 1) * len(probes) // len(groups)]


WORKLOADS = {
    "sweep": (sweep_items, sweep_check_data),
    "invariants": (invariants_items, None),
}


def main(argv: list[str]) -> int:
    workload, seed, path = argv[0], int(argv[1]), argv[2]
    flags = set(argv[3:])
    items_of, check_data = WORKLOADS[workload]
    state: dict = {}
    out: dict = {}
    items = items_of(seed, state, out)
    first = next(items)  # builds the inputs
    tracer = None
    if "--trace" in flags:
        from tracer import Tracer, diff

        tracer = Tracer()
        tracer.install()
    report: dict = {"items": [], "started_at": time.monotonic()}
    if "--setup-only" not in flags:
        for name, fn in itertools.chain([first], items):
            before = tracer.snapshot() if tracer else None
            t0 = time.perf_counter()
            try:
                fn()
                error = None
            except Exception:  # a failed item is reported, the pass goes on
                error = traceback.format_exc()
            seconds = time.perf_counter() - t0
            entry = {"name": name, "seconds": seconds, "error": error}
            if tracer:
                after = tracer.snapshot()
                entry["self_s"] = diff(after, before)
                entry["covered_s"] = after["covered_s"] - before["covered_s"]
            report["items"].append(entry)
        if tracer:
            snap = tracer.snapshot()
            report["calls"], report["counts"] = snap["calls"], snap["counts"]
        if check_data and "--check-data" in flags:
            check_data(state, out)
    report["output"] = out
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
