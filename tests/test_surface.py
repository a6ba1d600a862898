"""Every name the package exports has a consumer in the library or the benchmark.

An export passes if the code of `src/liecomm/*.py` (apart from `__init__`) or
`perfbench/*.py` uses it, or names it in a dotted string such as the
`"weyl.generate"` entries of `spans.FUNCTIONS`.  Tests do not count: a name
only a test reaches is kept by listing it in `_NO_CONSUMER` with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liecomm"

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

_NO_CONSUMER = (
    ("barycenter", "test reference for faces"),
    ("face_of_point", "test reference for faces"),
    ("cocycle_s4", "test reference for _rho"),
    ("rep_project_su2", "test reference for _chart"),
    ("full_subgroup", "double_cosets edge cases"),
    ("trivial_subgroup", "double_cosets edge cases"),
    ("kawasaki_homology", "formula side of the Kawasaki homology oracle (ROADMAP item 2)"),
    ("zeta_class", "kept until the ledger of ROADMAP item 5 decides it"),
)


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

