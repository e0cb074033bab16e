"""Mutation audit: make one small change at a time to a module of the package,
in a copy of the repository, and run the tests on the copy.

    python3 tests/mutants.py src/metalign/tensor.py [--only 3,17] [--list]
        [--timeout 60] [--copy DIR]

A site is an arithmetic operator (+ - * / flipped to its partner), a
comparison (< <= > >= == != is in, flipped likewise), a boolean operator
(and <-> or), a `not` (dropped) or a number (plus 1). Sites are numbered in
one fixed walk of the module's syntax tree. Each mutant is written, through
ast.unparse, over the module in a copy of the repository made in a temporary
directory (or --copy), and runs

    python -m pytest -x -q -p no:cacheprovider -k "not criterion_7 and not criterion_8" tests

there, the module's own tests/test_<module>.py first if there is one, so most
mutants fail fast, with bytecode writes off so no stale .pyc can stand in for
it. One JSON
line per mutant: its site, the change, and "killed", "survived" or
"timeout"; a run that exits 0 without pytest's "N passed" summary line
counts as killed. The repository itself is only read. Not collected by pytest.
"""

import argparse
import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLIPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And}
PYTEST = ["-x", "-q", "-p", "no:cacheprovider", "-k", "not criterion_7 and not criterion_8"]


class Mutator(ast.NodeTransformer):
    """Numbers the sites in post-order; changes the one numbered target."""

    def __init__(self, target: int = -1) -> None:
        self.target, self.sites = target, []

    def _site(self, node, change: str) -> bool:
        self.sites.append({"site": len(self.sites), "line": node.lineno, "change": change})
        return len(self.sites) - 1 == self.target

    def _flip(self, node, op):
        new = FLIPS[type(op)]
        return new() if self._site(node, f"{type(op).__name__} -> {new.__name__}") else op

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if type(node.op) in FLIPS:
            node.op = self._flip(node, node.op)
        return node

    visit_AugAssign = visit_BinOp

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        node.op = self._flip(node, node.op)
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        node.ops = [self._flip(node, op) if type(op) in FLIPS else op for op in node.ops]
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, "drop not"):
            return node.operand
        return node

    def visit_Constant(self, node):
        if type(node.value) in (int, float) and self._site(node, f"{node.value!r} + 1"):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node


def mutate(source: str, target: int = -1) -> tuple[str, list]:
    mutator = Mutator(target)
    tree = mutator.visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree)), mutator.sites


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", help="path of the module, relative to the repository root")
    ap.add_argument("--only", help="comma-separated site numbers")
    ap.add_argument("--list", action="store_true", help="print the sites and stop")
    ap.add_argument("--timeout", type=float, default=60.0)
    ap.add_argument("--copy", help="directory for the copy (default: a new temporary one)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, args.module), encoding="utf-8") as fh:
        source = fh.read()
    sites = mutate(source)[1]
    if args.list:
        for site in sites:
            print(json.dumps(site))
        return
    work = args.copy or tempfile.mkdtemp(prefix="mutants-")
    copy = os.path.join(work, "repo")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_runs", "runs"))
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    target_path = os.path.join(copy, args.module)
    own = os.path.join("tests", "test_" + os.path.basename(args.module))
    tests = ([own] if os.path.exists(os.path.join(ROOT, own)) else []) + ["tests"]
    chosen = [int(k) for k in args.only.split(",")] if args.only else range(len(sites))
    try:
        for k in chosen:
            with open(target_path, "w", encoding="utf-8") as fh:
                fh.write(mutate(source, k)[0])
            proc = subprocess.Popen([sys.executable, "-m", "pytest", *PYTEST, *tests],
                                    cwd=copy, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, start_new_session=True)
            try:
                out = proc.communicate(timeout=args.timeout)[0]
                # a mutant that makes the test process itself call os._exit(0)
                # ends pytest before its summary line: that run passed nothing
                passed = proc.returncode == 0 and re.search(rb"\d+ passed", out)
                outcome = "survived" if passed else "killed"
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # pytest and any process it started
                proc.wait()
                outcome = "timeout"
            print(json.dumps({**sites[k], "outcome": outcome}), flush=True)
    finally:
        if not args.copy:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
