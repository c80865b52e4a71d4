"""Source checks on the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_no_assert_statements_in_package():
    # assert is stripped under python -O, so it cannot guard anything
    offenders = []
    for path in sorted((SRC / "localk3").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def kernel_users(node, where, out):
    """Add to out the outermost function (or "<module>") around each
    reference to _pack or _unpack_sum below node."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Name) and child.id in ("_pack", "_unpack_sum")
                or isinstance(child, ast.Attribute) and child.attr in ("_pack", "_unpack_sum")):
            out.add(where)
        inner = child.name if where == "<module>" and isinstance(child, ast.FunctionDef) else where
        kernel_users(child, inner, out)


def test_one_function_drives_the_kronecker_kernel():
    # one driver means one slot proof covers every packed product
    users = set()
    for path in sorted((SRC / "localk3").glob("*.py")):
        found: set = set()
        kernel_users(ast.parse(path.read_text(), filename=str(path)), "<module>", found)
        users |= {f"{path.name}:{name}" for name in found}
    assert users == {"series.py:_row_sum"}


def test_a_failing_given_test_does_not_end_the_run(tmp_path):
    # with warnings as errors, a hypothesis failure report must not stop
    # pytest with INTERNALERROR before the remaining tests run
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                           str(tmp_path / "test_probe.py")],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


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
