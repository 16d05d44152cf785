"""Hunt for independent-set expansions that raise the chromatic number.

For every critically chromatic connected graph up to --max-n vertices,
try every maximal independent set W and test whether expanding W (adding
a duplicate of each vertex of W with the same closed neighborhood
adjacencies) produces a graph of strictly larger chromatic number whose
expansion is again critically chromatic.

Every found witness is printed; the summary counts how many critical
graphs admit at least one.

Usage:
    python3 scripts/witness_hunt.py [--max-n 8]
"""

import argparse
import sys
import time

from coverideal.cli import exit_code
from coverideal.corpus import critical_graphs
from coverideal.correspondence import expansion_witnesses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=8,
                        help="largest vertex count to search (default 8)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    critical_graphs(args.max_n)  # refuses an unsupported size before any output
    total = 0
    with_witness = 0
    for n in range(1, args.max_n + 1):
        for G, chi in critical_graphs(n):
            if G.m == 0:
                continue
            total += 1
            hits = [sorted(w.W) for w in expansion_witnesses(G)]
            if hits:
                with_witness += 1
                print(f"n={n} chi={chi} edges={G.edges()}: "
                      f"{len(hits)} witness set(s), e.g. W={hits[0]}", flush=True)
            else:
                print(f"n={n} chi={chi} edges={G.edges()}: no witness", flush=True)

    print(f"\n{with_witness} of {total} critical graphs up to n={args.max_n} "
          f"admit a chromatic-increasing critical expansion "
          f"({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
