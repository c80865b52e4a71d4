"""Source checks on the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_package():
    # assert is stripped under python -O, so it cannot guard anything
    offenders = []
    for path in sorted((SRC / "localk3").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_checks_survive_optimized_mode():
    script = """
import sys
from localk3.lattice import FIBER, HodgeIsometry
from localk3.modular import DeltaSeries
from localk3.ptseries import ConsistencyError, _eps
from localk3.series import LaurentPoly, MultiSeries
assert False, "asserts must be stripped"
try:
    HodgeIsometry([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
except ValueError:
    print("isometry rejected")
try:
    _eps(0)
except ConsistencyError:
    print("orientation rejected")
try:
    DeltaSeries(0, 1, {1: LaurentPoly({1: 1})})
except ConsistencyError:
    print("non-palindromic row rejected")
try:
    LaurentPoly({0: 0.5})
except TypeError:
    print("float coefficient rejected")
try:
    MultiSeries(1, (0, 0), {(FIBER, 5): 0.5})
except TypeError:
    print("out-of-window float rejected")
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("isometry rejected\norientation rejected\n"
                           "non-palindromic row rejected\nfloat coefficient rejected\n"
                           "out-of-window float rejected\n")
