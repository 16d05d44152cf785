"""Self-test of the benchmark's checks: real answers pass, corrupted ones fail.

Usage (from the root of a checkout): python3 bench/selftest.py

Gets real answers from the program (a few `coverideal decompose` reports
and one pass of the `sweep` and `invariants` workloads), confirms that the
checks accept them, then corrupts them one way at a time and confirms that
every corruption is rejected.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import checks
from run import BENCH, run_child

FAILURES: list[str] = []


def expect(label: str, errors: list[str], should_fail: bool) -> None:
    ok = bool(errors) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f"  [{errors[0]}]" if errors else ""))
    if not ok:
        FAILURES.append(label)


def decompose_report(spec: str, s: int) -> dict:
    proc, _ = run_child([sys.executable, "-m", "coverideal", "decompose", "--builtin", spec,
                         "--power", str(s), "--json"])
    return json.loads(proc.stdout)


def decomposition_cases() -> None:
    cases = [
        ("mycielski-cycle:5", 2, 11, checks.mycielski_edges(5, checks.cycle_edges(5)), False),
        ("cycle:8", 3, 8, checks.cycle_edges(8), True),
    ]
    for spec, s, n, edges, perfect in cases:
        report = decompose_report(spec, s)

        def run(rep, seed=1):
            return checks.check_decompose(rep, n, edges, s, perfect, random.Random(seed))

        expect(f"{spec} s={s}: real decomposition passes", run(report), False)
        comps = report["results"]["components"]
        missed = []
        for i in range(len(comps)):
            bad = copy.deepcopy(report)
            del bad["results"]["components"][i]
            bad["results"]["component_count"] -= 1
            if not run(bad):
                missed.append(i)
        expect(f"{spec} s={s}: each of {len(comps)} single-component drops fails",
               [f"drops not caught: {missed}"] if missed else [], False)
        missed = []
        for i in range(len(comps)):
            for delta in (1, -1):
                bad = copy.deepcopy(report)
                v, e = bad["results"]["components"][i][0][1:].split("^")
                bad["results"]["components"][i][0] = f"x{v}^{int(e) + delta}"
                if not run(bad):
                    missed.append((i, delta))
        expect(f"{spec} s={s}: each component with its first exponent changed by +-1 fails",
               [f"changes not caught: {missed}"] if missed else [], False)
        bad = copy.deepcopy(report)
        bad["results"]["generators"].pop(0)
        expect(f"{spec} s={s}: a dropped generator fails", run(bad), True)


def worker_output(workload: str, tmp: Path) -> dict:
    path = tmp / f"{workload}.json"
    proc, _ = run_child([sys.executable, str(BENCH / "worker.py"), workload, "1", str(path),
                         "--check-data"])
    if proc.returncode != 0:
        raise SystemExit(proc.stderr.decode(errors="replace"))
    return json.loads(path.read_text())["output"]


def sweep_cases(out: dict) -> None:
    expect("sweep: real answers pass", checks.check_sweep(out), False)
    bad = copy.deepcopy(out)
    bad["corpus"]["6"].pop()
    expect("sweep: a corpus missing a graph fails", checks.check_sweep(bad), True)
    bad = copy.deepcopy(out)
    bad["corpus"]["5"].append(bad["corpus"]["5"][0])
    expect("sweep: a corpus with a graph twice fails", checks.check_sweep(bad), True)
    bad = copy.deepcopy(out)
    key = sorted(bad["persistence"])[0]
    bad["persistence"][key] = [False, [[0, 1]]]
    expect("sweep: a lost prime fails", checks.check_sweep(bad), True)
    bad = copy.deepcopy(out)
    bad["ass"]["4:0"][2].pop()
    expect("sweep: a missing associated prime of a perfect graph fails", checks.check_sweep(bad), True)


def invariants_cases(out: dict) -> None:
    expect("invariants: real answers pass", checks.check_invariants(out), False)
    for name, n in (("M(C9)", 9), ("M2(C5)", 5)):
        bad = copy.deepcopy(out)
        bad["chi_f"][name] = str(Fraction(bad["chi_f"][name]) + Fraction(1, n))
        expect(f"invariants: chi_f({name}) off by 1/{n} fails", checks.check_invariants(bad), True)
    bad = copy.deepcopy(out)
    bad["chi_b"]["7"][3] += 1
    expect("invariants: chi_b(C7) off by one fails", checks.check_invariants(bad), True)
    bad = copy.deepcopy(out)
    bad["kneser"][0] -= 1
    expect("invariants: chi of K(7,2) off by one fails", checks.check_invariants(bad), True)
    bad = copy.deepcopy(out)
    bad["towers"][1][0] += 1
    expect("invariants: chi of M2(C5) off by one fails", checks.check_invariants(bad), True)
    bad = copy.deepcopy(out)
    probes = next(v for v in bad["probes"].values() if v)
    probes[0][1] += 1
    expect("invariants: a probe chi off by one fails", checks.check_invariants(bad), True)
    bad = copy.deepcopy(out)
    next(v for v in bad["probes"].values() if v).pop()
    expect("invariants: a missing probe fails", checks.check_invariants(bad), True)
    missed = []
    total = 0
    for n, entries in out["census"].items():
        for i in range(len(entries)):
            total += 1
            bad = copy.deepcopy(out["census"])
            del bad[n][i]
            if not checks.check_census(bad):
                missed.append(f"n={n} #{i} chi={entries[i][1]}")
    # Only 4-chromatic graphs with a connected complement on 8 vertices
    # have no closed form to be missed by.
    uncovered = [m for m in missed if not (m.startswith("n=8") and m.endswith("chi=4"))]
    print(f"     census drops caught: {total - len(missed)} of {total}; "
          f"not caught: {missed or 'none'}")
    expect("invariants: a census missing any graph other than an 8-vertex "
           "4-chromatic one fails", [f"not caught: {uncovered}"] if uncovered else [], False)


def main() -> int:
    decomposition_cases()
    scratch = BENCH.parent / ".bench_run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        sweep_cases(worker_output("sweep", Path(tmp)))
        invariants_cases(worker_output("invariants", Path(tmp)))
    print("self-test " + ("passed" if not FAILURES else f"FAILED: {FAILURES}"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
