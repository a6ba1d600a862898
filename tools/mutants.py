"""Mutation sweep over liecomm's modules, with the standard library's ast only.

Each mutant changes one expression of one module:

- a comparison flipped (< and >=, > and <=, == and !=, in and not in, is and is not)
- + and - swapped, * and // swapped (also in augmented assignments)
- an integer constant plus one
- require(x) made require(True)
- exact_quotient(a, b, detail) made a // b

Each mutant is written into a copy of src/, tests/ and perfbench/ (which some
tests read), the module's own tests (TESTS below) run there with -x, and the
copy is restored.  A mutant that no test fails is printed as
file:line:column:operator: replacement, the column 1-based and the
replacement the source text the mutant puts in place of the span that
starts there; a mutant whose tests fail, error or time out is killed.  One
line per target then gives the counts.

    python tools/mutants.py wps.py homology.py::FinAbGroup

A target is a module of src/liecomm, or module.py::Qualname for one class or
function in it.  A mutant costs one pytest run of its module's tests, a few
seconds each, so the sweep runs module by module and is not part of the suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liecomm"

# module -> the pytest node ids that test it
TESTS = {
    "alcove.py": ["tests/test_alcove.py"],
    "cli.py": ["tests/test_cli.py", "tests/test_surface.py"],
    "geom.py": ["tests/test_geom.py"],
    "homology.py": ["tests/test_homology.py"],
    "invariants.py": [
        "tests/test_invariants.py",
        "tests/test_cli.py::test_golden_stdout",
        "tests/test_cli.py::test_stdout_digest",
    ],
    "rootdata.py": [
        "tests/test_rootdata.py",
        "tests/test_cli.py::TestPoincareCommand::test_closed_form_order_breach_exits_3",
    ],
    "simplicial.py": ["tests/test_simplicial.py"],
    "verify.py": ["tests/test_acceptance.py", "tests/test_cli.py::test_stdout_digest"],
    "weyl.py": ["tests/test_weyl.py", "tests/test_cli.py::TestPoincareCommand"],
    "wps.py": [
        "tests/test_wps.py",
        "tests/test_cli.py::test_golden_stdout",
        "tests/test_cli.py::test_stdout_digest",
    ],
}

_SYMBOLS = {
    ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
}
_FLIPS = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult}


@dataclass(frozen=True)
class Mutant:
    module: str
    line: int
    column: int  # 1-based, of the replaced span's start
    operator: str
    start: int  # byte offsets of the replaced source span
    end: int
    text: str

    def apply(self, source: bytes) -> bytes:
        return source[: self.start] + self.text.encode() + source[self.end :]


def _called(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _rewrites(node: ast.AST):
    """(node whose span is replaced, replacement source, operator) for each mutant of node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _FLIPS:
                flipped = _FLIPS[type(op)]
                ops = node.ops[:i] + [flipped()] + node.ops[i + 1 :]
                new = ast.Compare(node.left, ops, node.comparators)
                yield node, f"({ast.unparse(new)})", f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[flipped]}"
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
        swapped = _SWAPS[type(node.op)]
        if isinstance(node, ast.BinOp):
            new, text = ast.BinOp(node.left, swapped(), node.right), "({})"
        else:
            new, text = ast.AugAssign(node.target, swapped(), node.value), "{}"
        operator = f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[swapped]}"
        yield node, text.format(ast.unparse(new)), operator
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield node, f"({node.value + 1})", f"{node.value} -> {node.value + 1}"
    elif isinstance(node, ast.Call) and node.args:
        name = _called(node)
        if name == "require" and not (
            isinstance(node.args[0], ast.Constant) and node.args[0].value is True
        ):
            yield node.args[0], "True", "require(True)"
        elif name == "exact_quotient" and len(node.args) >= 2:
            num, den = (ast.unparse(a) for a in node.args[:2])
            yield node, f"(({num}) // ({den}))", "exact_quotient -> //"


def mutants(target: str, package: Path = PACKAGE) -> list[Mutant]:
    """Every mutant of a target, module.py or module.py::Qualname, in source
    order, read from the module in package."""
    module, _, qualname = target.partition("::")
    source = (package / module).read_bytes()
    tree = ast.parse(source)
    scope: ast.AST = tree
    for name in filter(None, qualname.split(".")):
        defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        found = [n for n in ast.iter_child_nodes(scope) if isinstance(n, defs) and n.name == name]
        if not found:
            raise SystemExit(f"{module} has no {qualname}")
        scope = found[0]
    # f-strings are left alone: their parts have no spans of their own to replace
    skipped = {id(n) for f in ast.walk(scope) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    out = []
    for node in ast.walk(scope):
        if id(node) in skipped:
            continue
        for span, text, operator in _rewrites(node):
            start = starts[span.lineno - 1] + span.col_offset
            end = starts[span.end_lineno - 1] + span.end_col_offset
            mutant = Mutant(module, span.lineno, span.col_offset + 1, operator, start, end, text)
            out.append(mutant)
    return sorted(out, key=lambda m: (m.start, m.end, m.operator))


def _pytest(work: Path, tests: list[str], timeout: float) -> bool:
    """True when the tests pass in the copy at work; a timeout counts as a failure."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(
            command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def sweep(target: str, work: Path) -> tuple[int, list[Mutant]]:
    """Run every mutant of target against its module's tests; (mutants, survivors)."""
    module = target.partition("::")[0]
    tests = TESTS[module]
    start = time.perf_counter()
    if not _pytest(work, tests, timeout=3600):
        raise SystemExit(f"{module}'s tests fail before any mutation")
    timeout = 10 * (time.perf_counter() - start) + 30
    path = work / "src" / "liecomm" / module
    original = path.read_bytes()
    found = mutants(target, path.parent)  # offsets in the copy: edits to the tree cannot shift them
    survivors = []
    try:
        for mutant in found:
            path.write_bytes(mutant.apply(original))
            if _pytest(work, tests, timeout):
                survivors.append(mutant)
                print(f"{module}:{mutant.line}:{mutant.column}:{mutant.operator}: {mutant.text}",
                      flush=True)
    finally:
        path.write_bytes(original)
    return len(found), survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="module.py or module.py::Qualname")
    args = parser.parse_args(argv)
    for target in args.targets:
        if target.partition("::")[0] not in TESTS:
            parser.error(f"unknown module in {target}; known: {', '.join(sorted(TESTS))}")
    any_survivor = False
    with tempfile.TemporaryDirectory(prefix="liecomm-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "perfbench"):  # tests read perfbench too
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        for target in args.targets:
            total, survivors = sweep(target, work)
            any_survivor |= bool(survivors)
            print(f"{target}: {total} mutants, {total - len(survivors)} killed, "
                  f"{len(survivors)} survived", flush=True)
    return 1 if any_survivor else 0


if __name__ == "__main__":
    sys.exit(main())
