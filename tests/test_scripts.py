"""Smoke tests for the front-end scripts: each runs as a user would run it."""

import os
import subprocess
import sys

import pytest

import coverideal

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


def test_decompose_powers():
    proc = run_script("decompose_powers.py", "--builtin", "cycle:5", "--s-max", "2")
    assert proc.returncode == 0
    assert "s=2: all 11 components verified critically 3-chromatic" in proc.stdout


@pytest.mark.parametrize("builtin", ["foo:5", "cycle:x"])
def test_decompose_powers_bad_builtin(builtin):
    proc = run_script("decompose_powers.py", "--builtin", builtin)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
