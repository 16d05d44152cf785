"""Sweep small connected graphs for associated primes that fail to persist.

For every connected graph up to --max-n vertices (and a few odd cycles
beyond, which are the classical stress cases), compute the associated
primes of the cover-ideal powers J^s for s = 1..--s-max and report any
prime of J^s that is missing from J^(s+1).  Expected output: no findings.

Usage:
    python3 scripts/persistence_sweep.py [--max-n 6] [--s-max 2]
"""

import argparse
import sys
import time

from coverideal.cli import CLIError, exit_code
from coverideal.corpus import connected_graphs
from coverideal.correspondence import persistence_check
from coverideal.graphs import family


def _findings(n, batch, s_max):
    """Persistence findings of one batch as (n, edges, s, missing) rows.
    Each graph is checked with ascending s, so each check finds J^s held."""
    return [(n, G.edges(), s, missing)
            for G in batch for s in range(1, s_max + 1)
            if (missing := persistence_check(G, s)[1])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=6,
                        help="largest vertex count to sweep (default 6)")
    parser.add_argument("--s-max", type=int, default=2,
                        help="check persistence for s = 1..s_max (default 2)")
    args = parser.parse_args(argv)

    if args.s_max < 1:
        raise CLIError("--s-max must be >= 1")
    t0 = time.perf_counter()
    graphs = 0
    checks = 0
    findings = []

    for n in range(2, args.max_n + 1):
        batch = [G for G in connected_graphs(n) if G.m]
        findings += _findings(n, batch, args.s_max)
        graphs += len(batch)
        checks += len(batch) * args.s_max
        print(f"n={n}: cumulative {graphs} graphs, {checks} checks, "
              f"{len(findings)} findings ({time.perf_counter() - t0:.1f}s)",
              flush=True)

    for n in (5, 7, 9):
        findings += _findings(n, [family("cycle", n)], args.s_max)
        checks += args.s_max
        print(f"cycle:{n}: checked s=1..{args.s_max}", flush=True)

    print(f"\ntotal: {graphs} connected graphs, {checks} persistence checks, "
          f"{time.perf_counter() - t0:.1f}s")
    if findings:
        print(f"FINDINGS ({len(findings)}):")
        for n, edges, s, missing in findings:
            print(f"  n={n} edges={edges} s={s} missing={sorted(missing)}")
        return 1
    print("no associated prime of J^s was missing from J^(s+1)")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
