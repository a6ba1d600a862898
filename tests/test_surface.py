"""The package's surface: what it exports, and which modules stay exact.

An export passes if the code of `src/liecomm/*.py` (apart from `__init__`) or
`perfbench/*.py` uses it, or names it in a dotted string such as the
`"weyl.generate"` entries of `spans.FUNCTIONS`.  Tests do not count: a name
only a test reaches is kept by listing it in `_NO_CONSUMER` with its reason.

The modules in `_EXACT_MODULES` compute in integers and Fractions only, so
none of them may import numpy.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liecomm"

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

_NO_CONSUMER = (
    ("barycenter", "test reference for face stabilizers (test_stabilizers_match_full_scan)"),
    ("cocycle_s4", "test reference for _rho"),
    ("rep_project_su2", "test reference for _chart"),
    ("kawasaki_homology", "formula side of the Kawasaki homology oracle (ROADMAP item 2)"),
    ("zeta_class", "kept until the ledger of ROADMAP item 5 decides it"),
)

_EXACT_MODULES = ("rootdata.py", "alcove.py", "wps.py", "invariants.py", "simplicial.py")


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _consumed() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    names: set[str] = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    names.update(node.value.split("."))
    return names


def test_every_export_has_a_consumer():
    allowed = {name for name, _ in _NO_CONSUMER}
    assert sorted(_exports() - _consumed() - allowed) == []


def test_allowed_names_are_still_exported():
    assert sorted({name for name, _ in _NO_CONSUMER} - _exports()) == []


def _top_level_imports(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_exact_modules_import_no_numpy():
    assert [name for name in _EXACT_MODULES if "numpy" in _top_level_imports(PACKAGE / name)] == []
