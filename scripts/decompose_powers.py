"""Decompose cover-ideal powers of a built-in graph and verify each component.

For s = 1..--s-max, compute the minimal generators of J^s, its irreducible
decomposition, the support-size histogram of the components, and (unless
--no-verify) check every component against its shadow-set reading: the
induced subgraph of the s-th expansion on the component's shadow set must
be critically (s+1)-chromatic.

The default target is the triangle-free 19-vertex graph obtained by
applying the cone-over-shadows construction to the 9-cycle; its fourth
power is the heaviest case this package is designed to reach.  On a
2-vCPU Xeon with Python 3.11 its generators (from about a million
products) took 8.3 s, the decomposition 44 s and the verification of its
25,392 components 62 s: the whole default run took 2 minutes.

Usage:
    python3 scripts/decompose_powers.py [--builtin mycielski-cycle:9]
                                        [--s-max 4] [--no-verify]
"""

import argparse
import sys
import time
from collections import Counter

from coverideal.cli import CLIError, exit_code, parse_builtin
from coverideal.correspondence import component_to_Y, verify_correspondence
from coverideal.ideals import cover_ideal, irreducible_decomposition, power


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--builtin", default="mycielski-cycle:9",
                        help="graph to analyze, kind:n (default mycielski-cycle:9)")
    parser.add_argument("--s-max", type=int, default=4,
                        help="largest power to decompose (default 4)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the per-component criticality verification")
    args = parser.parse_args(argv)

    if args.s_max < 1:
        raise CLIError("--s-max must be >= 1")
    G = parse_builtin(args.builtin)
    J = cover_ideal(G)
    print(f"{args.builtin}: n={G.n} m={G.m}, cover ideal has "
          f"{len(J.gens)} minimal generators", flush=True)

    for s in range(1, args.s_max + 1):
        t0 = time.perf_counter()
        Js = power(J, s)
        t_pow = time.perf_counter() - t0
        t0 = time.perf_counter()
        decomp = irreducible_decomposition(Js)
        t_dec = time.perf_counter() - t0
        hist = Counter(len(c.exps) for c in decomp)
        print(f"s={s}: {len(Js.gens)} generators ({t_pow:.1f}s), "
              f"{len(decomp)} components ({t_dec:.1f}s), "
              f"support sizes {dict(sorted(hist.items()))}", flush=True)
        if args.no_verify:
            continue
        t0 = time.perf_counter()
        records = verify_correspondence(G, s)
        bad = [r for r in records if not r.verified_critical]
        t_ver = time.perf_counter() - t0
        if bad:
            print(f"s={s}: {len(bad)} components FAILED verification "
                  f"({t_ver:.1f}s):", flush=True)
            for r in bad[:10]:
                Y = sorted(component_to_Y(r.component, s))
                print(f"  exps={r.component.exps} Y={Y} chi={r.chi}")
            return 1
        print(f"s={s}: all {len(records)} components verified critically "
              f"{s + 1}-chromatic ({t_ver:.1f}s)", flush=True)

    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
