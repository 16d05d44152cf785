"""Smoke tests for the front-end scripts: each runs as a user would run it."""

import hashlib
import os
import re
import subprocess
import sys

import pytest

import coverideal
from coverideal.cli import CLIError, exit_code

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *argv):
    # The child must import the package this suite imported, installed or not.
    package_root = os.path.dirname(os.path.dirname(coverideal.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_persistence_sweep():
    proc = run_script("persistence_sweep.py", "--max-n", "4", "--s-max", "1")
    assert proc.returncode == 0
    assert "total: 9 connected graphs, 12 persistence checks" in proc.stdout
    assert proc.stdout.endswith("no associated prime of J^s was missing from J^(s+1)\n")


def test_witness_hunt():
    proc = run_script("witness_hunt.py", "--max-n", "5")
    assert proc.returncode == 0
    assert "5 of 5 critical graphs up to n=5" in proc.stdout


SWEEP_6_2 = """\
n=2: cumulative 1 graphs, 2 checks, 0 findings
n=3: cumulative 3 graphs, 6 checks, 0 findings
n=4: cumulative 9 graphs, 18 checks, 0 findings
n=5: cumulative 30 graphs, 60 checks, 0 findings
n=6: cumulative 142 graphs, 284 checks, 0 findings
cycle:5: checked s=1..2
cycle:7: checked s=1..2
cycle:9: checked s=1..2

total: 142 connected graphs, 290 persistence checks
no associated prime of J^s was missing from J^(s+1)
"""

SWEEP_7_2 = """\
n=2: cumulative 1 graphs, 2 checks, 0 findings
n=3: cumulative 3 graphs, 6 checks, 0 findings
n=4: cumulative 9 graphs, 18 checks, 0 findings
n=5: cumulative 30 graphs, 60 checks, 0 findings
n=6: cumulative 142 graphs, 284 checks, 0 findings
n=7: cumulative 995 graphs, 1990 checks, 0 findings
cycle:5: checked s=1..2
cycle:7: checked s=1..2
cycle:9: checked s=1..2

total: 995 connected graphs, 1996 persistence checks
no associated prime of J^s was missing from J^(s+1)
"""


SWEEP_6_4 = """\
n=2: cumulative 1 graphs, 4 checks, 0 findings
n=3: cumulative 3 graphs, 12 checks, 0 findings
n=4: cumulative 9 graphs, 36 checks, 0 findings
n=5: cumulative 30 graphs, 120 checks, 0 findings
n=6: cumulative 142 graphs, 568 checks, 0 findings
cycle:5: checked s=1..4
cycle:7: checked s=1..4
cycle:9: checked s=1..4

total: 142 connected graphs, 580 persistence checks
no associated prime of J^s was missing from J^(s+1)
"""

SWEEP_8_2 = """\
n=2: cumulative 1 graphs, 2 checks, 0 findings
n=3: cumulative 3 graphs, 6 checks, 0 findings
n=4: cumulative 9 graphs, 18 checks, 0 findings
n=5: cumulative 30 graphs, 60 checks, 0 findings
n=6: cumulative 142 graphs, 284 checks, 0 findings
n=7: cumulative 995 graphs, 1990 checks, 0 findings
n=8: cumulative 12112 graphs, 24224 checks, 0 findings
cycle:5: checked s=1..2
cycle:7: checked s=1..2
cycle:9: checked s=1..2

total: 12112 connected graphs, 24230 persistence checks
no associated prime of J^s was missing from J^(s+1)
"""

EXTENDED = os.environ.get("COVERIDEAL_EXTENDED") == "1"


def _sweep_report(max_n, s_max=2):
    proc = run_script("persistence_sweep.py", "--max-n", str(max_n), "--s-max", str(s_max))
    assert proc.returncode == 0
    out = re.sub(r" \(\d+\.\ds\)$", "", proc.stdout, flags=re.M)
    return re.sub(r", \d+\.\ds$", "", out, flags=re.M)


def test_persistence_sweep_report():
    assert _sweep_report(6) == SWEEP_6_2


def test_persistence_sweep_report_7_vertices():
    assert _sweep_report(7) == SWEEP_7_2


def test_persistence_sweep_report_to_fourth_power():
    # The graphs and powers of the benchmark's sweep workload.
    assert _sweep_report(6, 4) == SWEEP_6_4


@pytest.mark.skipif(
    not EXTENDED, reason="set COVERIDEAL_EXTENDED=1 to run the 8-vertex sweep (about 40 s)"
)
def test_persistence_sweep_report_8_vertices():
    assert _sweep_report(8) == SWEEP_8_2


def _hunt_digest(max_n):
    proc = run_script("witness_hunt.py", "--max-n", str(max_n))
    assert proc.returncode == 0
    out = re.sub(r" \(\d+\.\ds\)\n$", "\n", proc.stdout)
    return hashlib.sha256(out.encode()).hexdigest()


def test_witness_hunt_report():
    # 19 lines ending "17 of 17 critical graphs up to n=7 ...".
    assert _hunt_digest(7) == "a256aee8bcf0178883eebf8096f66ada9981896b4f586e3689556d103bde5830"


def test_witness_hunt_report_extended():
    # "34 of 34 critical graphs up to n=8 ...".
    assert _hunt_digest(8) == "3a3bd03fe828c8981f3da2754e23d76776817ebb11c935a7a6e0e87499b4cd3c"


def test_decompose_powers():
    proc = run_script("decompose_powers.py", "--builtin", "cycle:5", "--s-max", "2")
    assert proc.returncode == 0
    assert "s=2: all 11 components verified critically 3-chromatic" in proc.stdout


DECOMPOSE_NO_VERIFY = """\
mycielski-cycle:5: n=11 m=20, cover ideal has 16 minimal generators
s=1: 16 generators, 20 components, support sizes {2: 20}
s=2: 131 generators, 71 components, support sizes {2: 40, 5: 31}
s=3: 741 generators, 251 components, support sizes {2: 60, 5: 155, 8: 15, 9: 20, 11: 1}
"""


def test_decompose_powers_no_verify():
    proc = run_script(
        "decompose_powers.py", "--builtin", "mycielski-cycle:5", "--s-max", "3", "--no-verify"
    )
    assert proc.returncode == 0
    assert re.sub(r" \(\d+\.\ds\)", "", proc.stdout) == DECOMPOSE_NO_VERIFY
    assert "verified" not in proc.stdout


@pytest.mark.parametrize("builtin", ["foo:5", "cycle:x"])
def test_decompose_powers_bad_builtin(builtin):
    proc = run_script("decompose_powers.py", "--builtin", builtin)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "name,argv",
    [
        ("persistence_sweep.py", ["--s-max", "0"]),
        ("witness_hunt.py", ["--max-n", "9"]),
        ("witness_hunt.py", ["--max-n", "0"]),
        ("decompose_powers.py", ["--s-max", "0"]),
    ],
    ids=["sweep_s_max_0", "hunt_max_n_9", "hunt_max_n_0", "decompose_s_max_0"],
)
def test_script_input_error_exits_2(name, argv):
    proc = run_script(name, *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def _raise(exc):
    def body():
        raise exc

    return body


@pytest.mark.parametrize(
    "exc,code,line",
    [
        (ValueError("bad size"), 2, "error: bad size"),
        (CLIError("bad flag"), 2, "error: bad flag"),
        (
            RecursionError("maximum recursion depth exceeded"),
            2,
            f"error: the input needs more than Python's recursion limit of "
            f"{sys.getrecursionlimit()} frames",
        ),
        (RuntimeError("boom"), 3, "internal error: RuntimeError: boom"),
    ],
    ids=["value_error", "cli_error", "recursion_error", "runtime_error"],
)
def test_exit_code_boundary(capsys, exc, code, line):
    assert exit_code(_raise(exc)) == code
    assert capsys.readouterr() == ("", line + "\n")
