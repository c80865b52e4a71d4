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
    # one driver means one slot proof covers every packed product; the
    # genus basis change packs its own u-polynomials under its own proof
    users = set()
    for path in sorted((SRC / "localk3").glob("*.py")):
        found: set = set()
        kernel_users(ast.parse(path.read_text(), filename=str(path)), "<module>", found)
        users |= {f"{path.name}:{name}" for name in found}
    assert users == {"series.py:_row_sum", "series.py:_genus_row"}


INTEGER_KERNEL = ("_row_sum", "_block_product", "_pack", "_unpack_sum", "_trim", "_genus_row")
RATIONAL_NAMES = {"Fraction", "numerator", "denominator"}


def test_the_kronecker_kernel_is_integer_only():
    # denominators live in LaurentPoly and MultiSeries, so the kernel
    # functions never see a Fraction and the pack cache has no integral flag
    tree = ast.parse((SRC / "localk3" / "series.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in INTEGER_KERNEL:
            # names, attributes, and strings such as attrgetter("numerator")
            used = {getattr(n, "id", getattr(n, "attr", getattr(n, "value", None)))
                    for n in ast.walk(node)}
            found[node.name] = sorted(used & RATIONAL_NAMES)
    assert found == {name: [] for name in INTEGER_KERNEL}
    assert not any(isinstance(n, ast.Attribute) and n.attr == "integral" for n in ast.walk(tree))
    from localk3.series import _Packs
    assert not hasattr(_Packs(), "integral")


def test_cli_cold_start_imports_no_dataclasses():
    # each subcommand is a fresh process, so import cost is paid per run;
    # dataclasses alone pulls in inspect, ast, dis and tokenize
    users = [path.name for path in sorted((SRC / "localk3").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert users == []
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import localk3.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_exported_names_are_pinned():
    # what the CLI, the three builds of the pair series and the benchmark
    # use; closed forms that only tests read live in tests/oracles.py
    import localk3
    assert localk3.__all__ == [
        "BPSTable", "ConsistencyError", "CurveClass", "DeltaSeries", "HilbTable",
        "HodgeIsometry", "LaurentPoly", "MukaiVector", "MultiSeries", "PTParams",
        "QZSeries", "apply_isometry", "bps_extract", "conjectural_J", "delta",
        "enumerate_effective", "exp", "gv_extract", "hilb_euler", "hilb_table",
        "inv_delta", "ky_identity_check", "ky_pairs_euler", "log",
        "mukai_pairing", "pow_binomial", "pt_borcherds", "pt_main", "pt_xbar",
        "qz_invert", "qz_mul"]
    assert all(hasattr(localk3, name) for name in localk3.__all__)
    public = {name for name in vars(localk3) if not name.startswith("_")}
    assert public - set(localk3.__all__) <= {"cli", "invariants", "lattice", "modular",
                                             "ptseries", "series"}


def test_every_mutant_edit_applies_exactly_once():
    # tests/mutants.py runs each edit on a copy of src/; an edit whose old
    # text no longer occurs exactly once would test nothing
    from mutants import MUTANTS
    for m in MUTANTS:
        assert (SRC / "localk3" / m.file).read_text().count(m.old) == 1, m.name
        assert m.old != m.new and m.tests, m.name
        for node_id in m.tests:
            path, name = node_id.partition("[")[0].split("::")
            assert f"def {name}(" in (ROOT / path).read_text(), node_id
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


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
from localk3.ptseries import ConsistencyError
from localk3.series import LaurentPoly, MultiSeries
assert False, "asserts must be stripped"
try:
    HodgeIsometry([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
except ValueError:
    print("isometry rejected")
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
    assert proc.stdout == ("isometry rejected\nnon-palindromic row rejected\n"
                           "float coefficient rejected\nout-of-window float rejected\n")
