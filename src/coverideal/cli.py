"""Command-line interface: graph ingestion, invariants, decomposition,
verification sweeps, and the critical-expansion search, with deterministic
human-readable or JSON reports.

Vertices are 0-based everywhere; polynomial variables print as x0..x{n-1}.
Exit codes: 0 = completed (and, for verify/conjecture, the check passed or
a witness was found); 1 = completed but the check failed or the search was
exhausted; 2 = usage or input error; 3 = internal error (an unexpected
exception, reported on stderr without a traceback), so a crash never reads
as a finding.  :func:`exit_code` is the one place that maps exceptions to
these codes; :func:`main` and the experiment scripts all run through it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .coloring import (
    b_fold_chromatic,
    classify_chi_f_window,
    fractional_value,
    is_critical,
)
from .correspondence import (
    component_to_Y,
    expansion_witnesses,
    persistence_check,
    technical_lemma_check,
    verify_correspondence,
)
from .graphs import Graph, build_graph, family, mycielski
from .ideals import associated_primes, cover_ideal, irreducible_decomposition, power

__all__ = ["exit_code", "main", "parse_builtin", "parse_edge_list", "parse_graph6"]

_BUILTIN_KINDS = ("cycle", "complete", "antihole", "path", "mycielski-cycle")

# Largest vertex count any input may ask for, checked before the graph is
# built, so an edge-list or graph6 header cannot make ``build_graph``
# allocate without bound.  The colouring search recurses once per vertex
# of a component, so Python's default recursion limit of 1000 frames
# already ends larger runs.
_VERTEX_LIMIT = 1000


class CLIError(ValueError):
    """Input or usage problem; reported on stderr with exit code 2."""


def _check_vertex_count(n: int) -> None:
    if n > _VERTEX_LIMIT:
        raise CLIError(f"{n} vertices exceed the limit of {_VERTEX_LIMIT} vertices")


# ---------------------------------------------------------------------------
# graph ingestion


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: "n m" header, then m "u v" lines.

    Blank lines and lines starting with '#' are ignored.
    """
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise CLIError("edge-list input is empty")
    head = rows[0].split()
    if len(head) != 2:
        raise CLIError(f'edge-list header must be "n m", got {rows[0]!r}')
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise CLIError(f'edge-list header must be "n m", got {rows[0]!r}') from None
    _check_vertex_count(n)
    if len(rows) - 1 != m:
        raise CLIError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    seen = set()
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise CLIError(f'edge line must be "u v", got {ln!r}')
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise CLIError(f'edge line must be "u v", got {ln!r}') from None
        key = (min(u, v), max(u, v))
        if key in seen:
            raise CLIError(f"duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    try:
        return build_graph(n, edges)
    except ValueError as exc:
        raise CLIError(f"invalid edge list: {exc}") from None


def parse_graph6(text: str) -> Graph:
    """Parse a single graph6 string (optionally with the >>graph6<< header)."""
    s = text.strip()
    header = ">>graph6<<"
    if s.startswith(header):
        s = s[len(header):]
    if not s:
        raise CLIError("graph6 input is empty")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise CLIError("graph6 input has characters outside chr(63)..chr(126)")
    if data[0] < 63:
        n, idx = data[0], 1
    elif len(data) >= 4 and data[1] < 63:
        n, idx = (data[1] << 12) | (data[2] << 6) | data[3], 4
    elif len(data) >= 8:
        n = 0
        for d in data[2:8]:
            n = (n << 6) | d
        idx = 8
    else:
        raise CLIError("graph6 input is truncated")
    _check_vertex_count(n)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - idx != nbytes:
        raise CLIError(
            f"graph6 body has {len(data) - idx} data characters, expected {nbytes}"
        )
    bits = []
    for d in data[idx:]:
        bits.extend((d >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return build_graph(n, edges)


def parse_builtin(spec: str) -> Graph:
    """Build a builtin family member from "kind:n", e.g. "mycielski-cycle:9"."""
    kind, sep, num = spec.partition(":")
    if not sep or kind not in _BUILTIN_KINDS:
        raise CLIError(
            f"builtin must be kind:n with kind in {', '.join(_BUILTIN_KINDS)}"
        )
    try:
        n = int(num)
    except ValueError:
        raise CLIError(f"builtin size must be an integer, got {num!r}") from None
    _check_vertex_count(2 * n + 1 if kind == "mycielski-cycle" else n)
    try:
        if kind == "mycielski-cycle":
            return mycielski(family("cycle", n))
        return family(kind, n)
    except ValueError as exc:
        raise CLIError(f"invalid builtin {spec!r}: {exc}") from None


def _load_graph(args) -> tuple[Graph, str]:
    """Build the graph from whichever input flag was given; echo its source."""
    if args.builtin is not None:
        return parse_builtin(args.builtin), f"builtin:{args.builtin}"
    if args.edge_list is not None:
        if args.edge_list == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.edge_list, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise CLIError(f"cannot read edge list: {exc}") from None
        return parse_edge_list(text), f"edge-list:{args.edge_list}"
    return parse_graph6(args.graph6), f"graph6:{args.graph6.strip()}"


# ---------------------------------------------------------------------------
# serialization helpers


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _terms(m) -> list[str]:
    return [f"x{v}^{e}" for v, e in enumerate(m) if e]


def _int_list(text: str, what: str) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(int(piece))
        except ValueError:
            raise CLIError(f"{what} must be a comma-separated integer list") from None
    if not out:
        raise CLIError(f"{what} must name at least one integer")
    return out


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    return str(value)


def _human_lines(obj, prefix: str) -> list[str]:
    if isinstance(obj, dict):
        lines = []
        for key, val in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            lines.extend(_human_lines(val, path))
        return lines
    if isinstance(obj, list) and any(isinstance(x, (dict, list)) for x in obj):
        lines = []
        for i, val in enumerate(obj):
            lines.extend(_human_lines(val, f"{prefix}[{i}]"))
        return lines
    return [f"{prefix} = {_scalar(obj)}"]


def _emit(report: dict, as_json: bool, out) -> None:
    if as_json:
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        for line in _human_lines(report, ""):
            out.write(line + "\n")


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, inputs_echo, results)


def _cmd_invariants(args):
    G, source = _load_graph(args)
    folds = _int_list(args.bfold, "--bfold") if args.bfold else []
    if any(b < 1 for b in folds):
        raise CLIError("--bfold entries must be >= 1")
    if G.n == 0:
        raise CLIError("invariants need a graph with at least one vertex")
    inputs = {"graph": source, "bfold": folds}
    chi_f = fractional_value(G)[0]
    critical, chi, failing = is_critical(G)
    results = {
        "n": G.n,
        "m": G.m,
        "chi": chi,
        "critical": critical,
        "failing_vertices": failing,
        "chi_b": [[b, b_fold_chromatic(G, b)[0]] for b in sorted(set(folds))],
        "chi_f": _frac(chi_f),
        "chi_f_window": classify_chi_f_window(G),
    }
    return 0, inputs, results


def _cmd_decompose(args):
    G, source = _load_graph(args)
    if args.power < 1:
        raise CLIError("--power must be >= 1")
    inputs = {"graph": source, "power": args.power}
    J = cover_ideal(G)
    Js = power(J, args.power)
    decomp = irreducible_decomposition(Js)
    results = {
        "nvars": G.n,
        "generators": ["*".join(_terms(g)) for g in Js.gens],
        "components": [_terms(c) for c in decomp],
        "component_count": len(decomp),
        "associated_primes": [sorted(p) for p in associated_primes(Js)],
    }
    return 0, inputs, results


def _cmd_verify(args):
    G, source = _load_graph(args)
    if args.which != "technical-lemma" and args.power < 1:
        raise CLIError("--power must be >= 1")
    inputs = {"graph": source, "which": args.which, "power": args.power}
    if args.which == "correspondence":
        records = verify_correspondence(G, args.power)
        results = {
            "s": args.power,
            "components": [
                {
                    "component": _terms(r.component),
                    "Y": sorted(component_to_Y(r.component, args.power)),
                    "chi": r.chi,
                    "verified": r.verified_critical,
                }
                for r in records
            ],
            "all_verified": all(r.verified_critical for r in records),
        }
        return (0 if results["all_verified"] else 1), inputs, results
    if args.which == "persistence":
        holds, missing = persistence_check(G, args.power)
        results = {
            "s": args.power,
            "holds": holds,
            "missing_primes": [sorted(p) for p in missing],
        }
        return (0 if holds else 1), inputs, results
    # technical-lemma
    if args.W is None or args.b is None:
        raise CLIError("technical-lemma needs --W and --b")
    W = _int_list(args.W, "--W")
    if any(v < 0 or v >= G.n for v in W):
        raise CLIError("--W vertices out of range")
    if args.b < 1:
        raise CLIError("--b must be >= 1")
    inputs = {"graph": source, "which": args.which, "W": sorted(set(W)), "b": args.b}
    member, d = technical_lemma_check(G, W, args.b)
    results = {
        "W": sorted(set(W)),
        "b": args.b,
        "expansion_bfold_chromatic": d,
        "member": member,
    }
    return (0 if member else 1), inputs, results


def _cmd_conjecture(args):
    G, source = _load_graph(args)
    mode = args.mode.replace("-", "_")
    inputs = {"graph": source, "mode": args.mode}
    witness = next(expansion_witnesses(G, mode), None)
    results = {
        "found": witness is not None,
        "witness": (
            None
            if witness is None
            else {
                "W": sorted(witness.W),
                "maximal_independent": witness.is_maximal_independent,
                "expanded_chi": witness.expanded_chi,
                "expanded_critical": witness.expanded_critical,
            }
        ),
        "exhausted": witness is None,
    }
    return (1 if witness is None else 0), inputs, results


_HANDLERS = {
    "invariants": _cmd_invariants,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument(
        "--builtin",
        metavar="KIND:N",
        help=f"builtin family, one of {', '.join(_BUILTIN_KINDS)}",
    )
    grp.add_argument(
        "--edge-list",
        metavar="PATH",
        help='edge-list file ("-" for stdin): header "n m", then "u v" lines, 0-based',
    )
    grp.add_argument("--graph6", metavar="TEXT", help="graph6 string (read-only format)")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock milliseconds (off by default to keep reports byte-stable)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverideal",
        description="Exact chromatic invariants and cover-ideal decompositions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("invariants", help="chi, criticality, chi_b, chi_f, window test")
    _add_graph_flags(p)
    p.add_argument("--bfold", metavar="LIST", help="comma-separated fold counts b")
    _add_common_flags(p)

    p = subs.add_parser("decompose", help="irreducible components of the cover ideal power")
    _add_graph_flags(p)
    p.add_argument("--power", type=int, default=1, metavar="S", help="ideal power (default 1)")
    _add_common_flags(p)

    p = subs.add_parser("verify", help="correspondence / persistence / technical-lemma checks")
    _add_graph_flags(p)
    p.add_argument(
        "which",
        choices=["correspondence", "persistence", "technical-lemma"],
        help="which check to run",
    )
    p.add_argument("--power", type=int, default=1, metavar="S", help="ideal power (default 1)")
    p.add_argument("--W", metavar="LIST", help="comma-separated vertex set (technical-lemma)")
    p.add_argument("--b", type=int, metavar="B", help="fold count (technical-lemma)")
    _add_common_flags(p)

    p = subs.add_parser("conjecture", help="search for a critical-expansion witness")
    _add_graph_flags(p)
    p.add_argument(
        "--mode",
        choices=["maximal-independent-only", "all-subsets"],
        default="maximal-independent-only",
        help="candidate pool (default: maximal independent sets)",
    )
    _add_common_flags(p)
    return parser


def exit_code(body, *args) -> int:
    """Run body(*args) and return its exit code, mapping exceptions to codes.

    A ValueError (CLIError and UnicodeDecodeError included) is an input
    error and a RecursionError an input too deep for the searches: both
    print one "error:" line and give 2.  Any other exception prints one
    "internal error:" line and gives 3, since 1 means "counterexample found".
    """
    try:
        return body(*args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(
            f"error: the input needs more than Python's recursion limit of "
            f"{sys.getrecursionlimit()} frames",
            file=sys.stderr,
        )
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _run(args) -> int:
    start = time.perf_counter()
    code, inputs, results = _HANDLERS[args.command](args)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = {"command": args.command, "inputs": inputs, "results": results}
    if args.timing:
        report["timing_ms"] = round(elapsed_ms, 3)
    _emit(report, args.json, sys.stdout)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 2 if code is None else int(code)
    return exit_code(_run, args)
