"""Benchmark of coverideal: three workloads, every answer checked.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {cli,sweep,invariants} --seed N --seconds S --trace {0,1}

A run is several passes over the workload's items, each pass a fresh
process (for `cli`, each command is its own process), so no cache of the
program carries over from one pass to the next.  An item's time is its
mean over the passes.  The number of passes follows --seconds:
round(seconds / nominal pass length), at least one, so every run of a
given length attempts the same whole rounds of operations.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
makes as many traced passes as untraced ones, interleaved, and reports the
per-layer metrics: self times averaged over the traced passes (so they add
up to the traced solve_s), and work counts, which must agree between
traced passes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Nominal pass length in seconds on a 2-vCPU Xeon (Python 3.11, numpy 2.4).
PASS_S = {"cli": 15.0, "sweep": 13.0, "invariants": 18.0}
# Extra processes that only start up, so that setup_s is a median.
SETUP_SAMPLES = 6
# A pass that takes longer than this is treated as a hang.
PASS_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
    ("check_p50_ms", "ms"),
]

LAYERS = ("cli", "correspondence", "ideals", "coloring", "lp", "graphs", "corpus", "harness")
PER_LAYER = [f"{layer}.self_s" for layer in LAYERS] + [
    "ideals.multiply.self_s",
    "ideals.multiply.calls",
    "ideals.multiply.products",
    "ideals.multiply.gens_out",
    "ideals.power.calls",
    "ideals.irreducible_decomposition.self_s",
    "ideals.irreducible_decomposition.calls",
    "ideals.irreducible_decomposition.distinct_inputs",
    "ideals.irreducible_decomposition.components_out",
    "ideals.cover_ideal.self_s",
    "ideals.associated_primes.self_s",
    "coloring.chromatic_number.self_s",
    "coloring.chromatic_number.calls",
    "coloring.chromatic_number.cache_hits",
    "coloring.is_critical.self_s",
    "coloring.is_critical.calls",
    "graphs.delete_vertex.calls",
    "coloring.fractional_value.self_s",
    "coloring.b_fold_chromatic.self_s",
    "coloring.b_fold_chromatic.calls",
    "lp.solve_cover_lp.self_s",
    "lp.solve_cover_lp.calls",
    "lp.solve_cover_lp.columns",
    "lp.solve_cover_lp.rows",
    "graphs.maximal_independent_sets.self_s",
    "graphs.maximal_independent_sets.sets_out",
    "graphs.power_expansion.self_s",
    "graphs.induced_subgraph.self_s",
    "graphs.induced_subgraph.calls",
    "graphs.expand.calls",
    "graphs.is_isomorphic.self_s",
    "graphs.is_isomorphic.calls",
    "corpus.critical_graphs.self_s",
    "corpus.graphs_with_min_degree.self_s",
    "corpus.connected_graphs.self_s",
    "corpus.graphs_out",
    "correspondence.verify_correspondence.self_s",
    "correspondence.persistence_check.self_s",
    "correspondence.persistence_check.calls",
    "correspondence.probe_expansion.self_s",
    "trace.solve_s",
    "trace.overhead_s",
]

# Items whose mean times make up check_p50_ms.
CHECK_PREFIX = {"cli": "", "sweep": "check:", "invariants": "probe:"}


class BenchError(Exception):
    """The benchmark cannot produce a result; reported on stderr."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list[str], timeout: float = PASS_TIMEOUT_S) -> tuple[subprocess.CompletedProcess, float]:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"no result within {timeout} s from: {' '.join(cmd)}") from None
    return proc, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# the cli workload: each command its own process


def perfect_graph(seed: int) -> tuple[int, list[tuple[int, int]]]:
    """The cube of the path on 12 vertices (chordal, so perfect, with
    cliques of 2, 3 and 4 vertices), relabelled and listed in seeded order.
    Every seed gives an isomorphic graph, so work counts do not depend on
    the seed while the generator order the program sees does."""
    n = 12
    rng = random.Random(seed)
    perm = rng.sample(range(n), n)
    edges = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, min(n, i + 4))]
    rng.shuffle(edges)
    return n, edges


def cli_ops(seed: int, run_dir: Path) -> list[dict]:
    n, edges = perfect_graph(seed)
    path = run_dir / "perfect.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    myc = {k: (2 * k + 1, checks.mycielski_edges(k, checks.cycle_edges(k))) for k in (7, 9)}
    return [
        # Duality chain with many components (3,620 generators -> 680).
        {"name": "decompose:mycielski-cycle:7:3", "kind": "decompose", "s": 3, "graph": myc[7],
         "argv": ["decompose", "--builtin", "mycielski-cycle:7", "--power", "3"]},
        {"name": "decompose:mycielski-cycle:9:2", "kind": "decompose", "s": 2, "graph": myc[9],
         "argv": ["decompose", "--builtin", "mycielski-cycle:9", "--power", "2"]},
        # Fewer than 65,536 products per multiply: the per-tuple path; then
        # one criticality check per component (251 shadow subgraphs).
        {"name": "verify:mycielski-cycle:5:3", "kind": "verify", "s": 3,
         "argv": ["verify", "correspondence", "--builtin", "mycielski-cycle:5", "--power", "3"]},
        # Bipartite, so perfect: 2,667 generators, only 36 components.
        {"name": "decompose:cycle:18:2", "kind": "decompose", "s": 2, "perfect": True,
         "graph": (18, checks.cycle_edges(18)),
         "argv": ["decompose", "--builtin", "cycle:18", "--power", "2"]},
        {"name": "decompose:perfect:3", "kind": "decompose", "s": 3, "perfect": True,
         "graph": (n, edges),
         "argv": ["decompose", "--edge-list", str(path), "--power", "3"]},
        # The empty graph: today a ValueError traceback with exit 1.
        {"name": "invariants:empty", "kind": "empty", "argv": ["invariants", "--graph6", "?"]},
    ]


def op_failed(op: dict, proc: subprocess.CompletedProcess) -> bool:
    """An operation fails when it crashes or, for the empty graph, when it
    gives neither an answer nor an exit-2 input error."""
    if b"Traceback" in proc.stderr:
        return True
    if op["kind"] == "empty":
        if proc.returncode == 2:
            return not proc.stderr.startswith(b"error:")
        return proc.returncode != 0
    return proc.returncode != 0


def cli_pass(ops: list[dict], traced: bool, run_dir: Path) -> dict:
    items, stdout, counts, calls = [], {}, {}, {}
    for op in ops:
        if traced:
            trace_path = run_dir / "op-trace.json"
            cmd = [sys.executable, str(BENCH / "tracecli.py"), str(trace_path), *op["argv"], "--json"]
        else:
            cmd = [sys.executable, "-m", "coverideal", *op["argv"], "--json"]
        proc, seconds = run_child(cmd)
        item = {"name": op["name"], "seconds": seconds, "error": None}
        if op_failed(op, proc):
            item["error"] = proc.stderr.decode(errors="replace").strip() or f"exit code {proc.returncode}"
        stdout[op["name"]] = (proc.returncode, proc.stdout)
        if traced:
            snap = json.loads(trace_path.read_text())
            item["self_s"], item["covered_s"] = snap["self_s"], snap["covered_s"]
            for key, val in snap["calls"].items():
                calls[key] = calls.get(key, 0) + val
            for key, val in snap["counts"].items():
                counts[key] = counts.get(key, 0) + val
        items.append(item)
    return {"items": items, "output": stdout, "calls": calls, "counts": counts}


def cli_setup() -> float:
    proc, seconds = run_child([sys.executable, "-m", "coverideal", "--help"])
    if proc.returncode != 0:
        raise BenchError("coverideal --help failed: " + proc.stderr.decode(errors="replace"))
    return seconds


def cli_check(ops: list[dict], output: dict, failed: set, seed: int) -> list[str]:
    errors = []
    rng = random.Random(seed)
    for op in ops:
        if op["name"] in failed or op["kind"] == "empty":
            continue
        report = json.loads(output[op["name"]][1])
        if op["kind"] == "verify":
            errs = checks.check_verify(report, op["s"])
        else:
            n, edges = op["graph"]
            errs = checks.check_decompose(report, n, edges, op["s"], op.get("perfect", False), rng)
        errors += [f"{op['name']}: {e}" for e in errs]
    return errors


# ---------------------------------------------------------------------------
# the sweep and invariants workloads: each pass one worker process


def worker_pass(workload: str, seed: int, run_dir: Path, flags: list[str]) -> dict:
    path = run_dir / "pass.json"
    spawned = time.monotonic()
    proc, _ = run_child([sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(path), *flags])
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed:\n" + proc.stderr.decode(errors="replace"))
    report = json.loads(path.read_text())
    report["setup_s"] = report["started_at"] - spawned
    return report


def worker_check(workload: str, output: dict) -> list[str]:
    if workload == "sweep":
        return checks.check_sweep(output)
    return checks.check_invariants(output)


# ---------------------------------------------------------------------------
# metrics


def item_means(passes: list[dict]) -> dict[str, float]:
    """Each item's mean time over the passes."""
    total: dict[str, float] = {}
    for p in passes:
        for item in p["items"]:
            total[item["name"]] = total.get(item["name"], 0.0) + item["seconds"]
    return {name: t / len(passes) for name, t in total.items()}


def end_to_end(workload: str, untraced: list[dict], setups: list[float]) -> dict:
    means = item_means(untraced)
    prefix = CHECK_PREFIX[workload]
    per_check = [t for name, t in means.items() if name.startswith(prefix)]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(setups),
        "solve_s": sum(means.values()),
        "peak_rss_mb": rss_kb / 1024.0,
        "check_p50_ms": statistics.median(per_check) * 1000.0,
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    errors = []
    first = traced[0]
    for p in traced[1:]:
        if p["counts"] != first["counts"] or p["calls"] != first["calls"]:
            errors.append("work counts differ between traced passes")
    # Means over the traced passes, so the layers add up to trace.solve_s.
    fn_self: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for p in traced:
        for item in p["items"]:
            for key, val in item["self_s"].items():
                fn_self[key] = fn_self.get(key, 0.0) + val / len(traced)
                layer_self[key.split(".")[0]] += val / len(traced)
            layer_self["harness"] += (item["seconds"] - item["covered_s"]) / len(traced)
    traced_solve = sum(item_means(traced).values())
    untraced_solve = sum(item_means(untraced).values())
    values = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in first["counts"]:
            values[name] = first["counts"][name]
        elif name == "trace.solve_s":
            values[name] = traced_solve
        elif name == "trace.overhead_s":
            values[name] = traced_solve - untraced_solve
        elif field == "self_s":
            values[name] = layer_self[base] if base in layer_self else fn_self.get(base, 0.0)
        elif field == "calls":
            values[name] = first["calls"].get(base, 0)
        else:
            values[name] = 0
    return values, errors


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    passes = max(1, round(seconds / PASS_S[workload]))
    # Traced runs interleave untraced and traced passes as U T T U U T ...,
    # so a steady drift in speed does not favour either kind.
    pairs = [(False, True) if i % 2 == 0 else (True, False) for i in range(passes)]
    schedule = [traced for pair in pairs for traced in pair] if trace else [False] * passes
    if workload == "cli":
        t0 = time.perf_counter()
        ops = cli_ops(seed, run_dir)
        inputs_s = time.perf_counter() - t0

        def start_up() -> float:
            return inputs_s + cli_setup()

        def one_pass(i: int, traced: bool) -> dict:
            return cli_pass(ops, traced, run_dir)

    else:

        def start_up() -> float:
            return worker_pass(workload, seed, run_dir, ["--setup-only"])["setup_s"]

        def one_pass(i: int, traced: bool) -> dict:
            flags = (["--trace"] if traced else []) + (["--check-data"] if i == 0 else [])
            return worker_pass(workload, seed, run_dir, flags)

    # Start-ups are spread over the run, before each pass and after the
    # last, so that setup_s sees the same drift as the passes do.
    per_gap = 0 if trace else max(1, round(SETUP_SAMPLES / (len(schedule) + 1)))
    setups: list[float] = []
    done: list[tuple[bool, dict]] = []
    for i, traced in enumerate(schedule):
        setups += [start_up() for _ in range(per_gap)]
        report = one_pass(i, traced)
        if not traced and "setup_s" in report:
            setups.append(report["setup_s"])
        done.append((traced, report))
    setups += [start_up() for _ in range(per_gap)]

    all_passes = [p for _, p in done]
    attempted = sum(len(p["items"]) for p in all_passes)
    failures = {i["name"]: i["error"] for p in all_passes for i in p["items"] if i["error"]}
    failed = sum(1 for p in all_passes for i in p["items"] if i["error"])
    for name, error in sorted(failures.items()):
        print(f"failed: {name}: {error.strip().splitlines()[-1]}", file=sys.stderr)

    # Answers must not change from pass to pass; check the first in full.
    errors = []
    first_out = all_passes[0]["output"]
    for p in all_passes[1:]:
        if {k: v for k, v in p["output"].items() if k != "ass"} != {
            k: v for k, v in first_out.items() if k != "ass"
        }:
            errors.append("outputs differ between passes")
    try:
        if workload == "cli":
            errors += cli_check(ops, first_out, set(failures), seed)
        else:
            errors += worker_check(workload, first_out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        errors.append(f"answers incomplete or malformed: {exc!r}")

    untraced = [p for traced, p in done if not traced]
    if trace:
        values, count_errors = per_layer(untraced, [p for traced, p in done if traced])
        errors += count_errors
        metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in PER_LAYER}
    else:
        values = end_to_end(workload, untraced, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for e in errors[:50]:
        print(f"check failed: {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coverideal" / "__init__.py").is_file():
        print(f"error: no coverideal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_run" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
