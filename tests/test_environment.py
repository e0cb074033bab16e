"""The declared environment, read from the source: pyproject.toml allows
numpy >= 1.26 and Python >= 3.10, while the suite runs on one numpy 2 and
one Python. So a name that exists only from NumPy 2.0, or a builtin sum()
whose bits change with Python 3.12's compensated float sum, would pass the
live tests and break elsewhere. This walks the syntax tree of every module
under src/ and fails on either."""

import ast
import os

import pytest

from test_cli import RUN_PATH_MODULES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "metalign")

# attributes of any object that exist only from NumPy 2.0 (ndarray.mT, ...)
NUMPY2_ATTRIBUTES = {"mT", "device", "to_device"}
# names reached through the numpy module (np.NAME, np.linalg.NAME, or
# `from numpy import NAME`) that exist only from NumPy 2.0
NUMPY2_NAMES = {
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh",
    "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
    "concat", "cumulative_prod", "cumulative_sum", "isdtype", "matrix_norm",
    "matrix_transpose", "matvec", "permute_dims", "pow", "unique_all",
    "unique_counts", "unique_inverse", "unique_values", "unstack", "vecdot",
    "vecmat", "vector_norm",
}
# (module, dotted function name) of each builtin sum() the run path may call, with why
SUM_ALLOWED = {
    ("metalign.tensor", "group_step.vjp"):
        "its start value is an np.float64, so every partial sum is an np.float64 "
        "and Python 3.12's sum() adds it left to right, uncompensated, as 3.11 does",
}


def module_name(path):
    rel = os.path.relpath(path, os.path.dirname(PACKAGE))[:-len(".py")].split(os.sep)
    return ".".join(rel[:-1] if rel[-1] == "__init__" else rel)


def sources():
    for base, _, files in sorted(os.walk(PACKAGE)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                with open(path, encoding="utf-8") as fh:
                    yield module_name(path), ast.parse(fh.read(), path)


def numpy_aliases(tree):
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names
            if alias.name.split(".")[0] == "numpy"}


def root_name(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def numpy2_uses(tree):
    """(line, name) of every NumPy-2.0-only name the tree reaches."""
    aliases, out = numpy_aliases(tree), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr in NUMPY2_ATTRIBUTES
                or node.attr in NUMPY2_NAMES and root_name(node.value) in aliases):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            out += [(node.lineno, a.name) for a in node.names if a.name in NUMPY2_NAMES]
    return out


def builtin_sums(tree):
    """(line, enclosing function's dotted name) of every call of the name sum."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = f"{func}.{node.name}" if func else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum"):
            out.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


SOURCES = dict(sources())


def test_every_run_path_module_is_walked():
    assert set(RUN_PATH_MODULES) <= set(SOURCES)


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_numpy2_only_names(module):
    assert numpy2_uses(SOURCES[module]) == []


@pytest.mark.parametrize("module", RUN_PATH_MODULES)
def test_no_builtin_sum_on_the_run_path(module):
    found = [(line, func) for line, func in builtin_sums(SOURCES[module])
             if (module, func) not in SUM_ALLOWED]
    assert found == []


def test_each_allowed_sum_is_still_there():
    """An allowance outlives no call: each names a function with one sum()."""
    for module, func in SUM_ALLOWED:
        assert [f for _, f in builtin_sums(SOURCES[module])].count(func) == 1


@pytest.mark.parametrize("code,want", [
    ("import numpy as np\nx = a.mT", [(2, "mT")]),
    ("import numpy as np\ny = np.concat([a, b])", [(2, "concat")]),
    ("import numpy\ny = numpy.linalg.vecdot(a, b)", [(2, "vecdot")]),
    ("from numpy import isdtype", [(1, "isdtype")]),
    ("import numpy as np\ny = a.astype(float)", []),
    ("import numpy as np\ny = math.pow(2, 3)", []),
])
def test_numpy2_walk_finds_the_names(code, want):
    assert numpy2_uses(ast.parse(code)) == want


def test_sum_walk_names_the_enclosing_function():
    code = ("def f(xs):\n    def g():\n        return sum(xs)\n    return g\n\n"
            "def h(xs):\n    return xs.sum()\n")
    assert builtin_sums(ast.parse(code)) == [(3, "f.g")]
