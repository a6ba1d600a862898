"""The package's surface: what it exports, what its classes hold, and which
modules stay exact.

The exports are the keys of `liecomm._EXPORTS`, the table the package's
lazy `__getattr__` imports from; each must be its module's own object.

An export passes if the code of `src/liecomm/*.py` (apart from `__init__`) or
`perfbench/*.py` uses it, or names it in a dotted string such as the
`"weyl.generate"` entries of `spans.FUNCTIONS`.  Tests do not count: a name
only a test reaches is kept by listing it in `_NO_CONSUMER` with its reason.

Every field, property or method that a class of `src/liecomm` defines, fields
assigned to `self` included and dunders excluded, passes the same way if that
code loads it as an attribute or names it in a dotted string.  A member only
a test reads is kept by listing it in `_NO_READER` with its reason.  A read
is matched by the bare member name, so the names that more than one class
defines are listed in `_SHARED_MEMBERS` with a function that reads each
class's copy; a new shared name fails until it is listed there.

The modules in `_EXACT_MODULES` compute in integers and Fractions only, so
none of them may import numpy.

The command line's options and their defaults are pinned in `_CLI_OPTIONS`,
so a change that adds, drops or re-defaults one edits that table.
"""

import argparse
import ast
import importlib
import re
from collections import defaultdict
from pathlib import Path

import pytest

import liecomm
from liecomm import cli

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

_NO_READER = (
    ("ExtensionReport.kernel", "the extension's Z^s, which no library check reads yet (item 1)"),
)

# member name -> {class: the module.function that reads that class's copy}
_SHARED_MEMBERS = {
    "rank": {
        "LieType": "rootdata._cartan_matrix",
        "RootDatum": "alcove.alcove_geometry",
        "FaceIndex": "rootdata.FaceIndex.check_rank",
    },
    "order": {
        "FinAbGroup": "invariants.pi2_hom_pairs",
        "WeylGroup": "weyl.cell_census",
        "StabilizerSubgroup": "jobs.query",
    },
    "datum": {
        "WeylGroup": "weyl.cell_census",
        "CharpolyHistogram": "weyl._require_solomon",
        "AlcoveGeometry": "weyl.face_stabilizer",
    },
    "charpoly_buckets": {
        "WeylGroup": "weyl.irreducibility_check",
        "CharpolyHistogram": "weyl.molien_poincare",
    },
    "_coinvariant_quotients": {
        "WeylGroup": "weyl._solomon_holds",
        "CharpolyHistogram": "weyl.molien_poincare",
    },
    "vertices": {
        "AlcoveGeometry": "weyl.WeylGroup._translation_labels",
        "SimplicialComplex": "simplicial.quotient_by_involution",
    },
    "group": {"Pi2Report": "cli._cmd_invariants", "StabilizerSubgroup": "weyl.double_cosets"},
}

_EXACT_MODULES = ("rootdata.py", "alcove.py", "wps.py", "invariants.py", "simplicial.py")


def _exports() -> set[str]:
    return set(liecomm._EXPORTS)


def _reader_sources() -> list[str]:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "perfbench").glob("*.py")
    return [path.read_text() for path in paths]


def _consumed() -> set[str]:
    names: set[str] = set()
    for source in _reader_sources():
        for node in ast.walk(ast.parse(source)):
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


# the package's exports, recorded when `__init__` still imported them eagerly
_EXPORTED = [
    "AlcoveGeometry", "ExtensionReport", "FaceIndex", "FinAbGroup", "InvariantBreachError",
    "LieType", "LieTypeError", "Pi2Report", "RegularityError", "RootDatum", "SimplicialComplex",
    "StabilizerSubgroup", "WeylCapError", "WeylGroup", "alcove_geometry", "alcove_reduce",
    "barycenter", "barycentric_subdivide", "beta", "beta_check", "bredon_e2_fragment",
    "build_root_datum", "cell_census", "chain_homology", "cocycle_check", "cocycle_s4",
    "degree_to_s2", "double_cosets", "dynkin_index", "euler_char_rep",
    "face_stabilizer", "gamma", "generate", "h2_extension_semisimple", "inclusion_degree",
    "irreducibility_check", "kawasaki_homology", "lattice_quotient", "molien_poincare", "n_vee",
    "null_homotopy_h", "pi2_hom_n", "pi2_hom_pairs", "pi4_commutative_classifying",
    "proj_degree", "quotient_by_involution", "rep_project_su2", "smith_normal_form",
    "snf_divisors", "spin_stability_report", "torus_inversion_quotient",
    "torus_triangulation", "triangulate_prism_boundary", "zeta_class",
]


def test_exports_pinned():
    assert sorted(liecomm.__all__) == _EXPORTED


def test_export_is_its_modules_object():
    def defined(name):
        return getattr(importlib.import_module(f"liecomm.{liecomm._EXPORTS[name]}"), name)

    assert [name for name in liecomm.__all__ if getattr(liecomm, name) is not defined(name)] == []


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from liecomm import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == _EXPORTED


def test_submodule_resolves_before_its_import(run_python):
    # perfbench's span installer reaches each module as getattr(liecomm, name)
    code = "import sys, liecomm; print(getattr(liecomm, 'geom') is sys.modules['liecomm.geom'])"
    assert run_python("-c", code).stdout == "True\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'liecomm' has no attribute 'no_such_name'"):
        liecomm.no_such_name  # noqa: B018


def _members(source: str) -> set[str]:
    """Class.member for each non-dunder field, property or method of each
    class in source, with the attributes its methods assign to self."""
    members = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = set()
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                names.add(node.attr)
        members.update(
            f"{cls.name}.{name}"
            for name in names
            if not (name.startswith("__") and name.endswith("__"))
        )
    return members


def _read(source: str) -> set[str]:
    """Attribute names that source loads, and the parts of its dotted strings."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def _unread(class_sources: list[str], reader_sources: list[str]) -> list[str]:
    read = set().union(*map(_read, reader_sources))
    members = set().union(*map(_members, class_sources))
    return sorted(m for m in members if m.split(".")[1] not in read)


def _package_unread() -> list[str]:
    classes = [path.read_text() for path in PACKAGE.glob("*.py")]
    return _unread(classes, _reader_sources())


def test_every_class_member_has_a_reader():
    allowed = {name for name, _ in _NO_READER}
    assert [m for m in _package_unread() if m not in allowed] == []


def test_allowed_members_are_still_unread():
    assert sorted({name for name, _ in _NO_READER} - set(_package_unread())) == []


def _shared_members() -> dict[str, set[str]]:
    """Each member name that more than one package class defines, with those classes."""
    owners = defaultdict(set)
    for path in PACKAGE.glob("*.py"):
        for member in _members(path.read_text()):
            cls, name = member.split(".")
            owners[name].add(cls)
    return {name: classes for name, classes in owners.items() if len(classes) > 1}


def _function(dotted: str) -> ast.AST:
    """The definition of module.function (or module.Class.method) in the package or perfbench."""
    module, *names = dotted.split(".")
    path = PACKAGE / f"{module}.py"
    node = ast.parse((path if path.exists() else ROOT / "perfbench" / f"{module}.py").read_text())
    for name in names:
        (node,) = [n for n in node.body if getattr(n, "name", None) == name]
    return node


def test_shared_member_names_are_listed():
    assert _shared_members() == {name: set(readers) for name, readers in _SHARED_MEMBERS.items()}


@pytest.mark.parametrize(
    "name, reader",
    [(name, reader) for name, readers in _SHARED_MEMBERS.items() for reader in readers.values()],
)
def test_listed_readers_read_the_member(name, reader):
    loads = {
        node.attr
        for node in ast.walk(_function(reader))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert name in loads


def test_an_unread_member_is_flagged():
    source = """
class Report:
    read: int
    unread: int

    def __init__(self):
        self.stored = self.read

    @property
    def shown(self):
        return "Report.named"

    def named(self):
        pass

    def __len__(self):
        return 0
"""
    assert _unread([source], [source]) == ["Report.shown", "Report.stored", "Report.unread"]


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


def _unused_imports(source: str) -> list[str]:
    """The names an import binds that the module never loads as a bare name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_every_import_is_used():
    # the project has no linter dependency, so this is its unused-import check
    found = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_an_unused_import_is_flagged():
    source = """
from __future__ import annotations
import numpy as np
import os.path
from math import gcd, lcm
from . import weyl

def f(x):
    from . import wps
    return gcd(x, os.sep) + weyl.order(np)
"""
    assert _unused_imports(source) == ["lcm", "wps"]


# each subcommand's options by their option strings, positionals by their
# dest, with their defaults; None is the top-level parser
_CLI_OPTIONS = {
    None: {"--version": argparse.SUPPRESS},
    "invariants": {"type": None},
    "poincare": {"type": None, "--n": None, "--deg": 6, "--cache-dir": None},
    "cells": {"type": None, "--k": 2, "--rank-cap": 4, "--cache-dir": None},
    "wps-degree": {"--weights": None, "--k": 1, "--subset": None},
    "spin-stability": {"--ell": None, "--parity": "even", "--k": None},
    "beta-check": {"--grid": 50},
    "cocycle-check": {"--samples": 10_000},
    "verify": {},
}


def _options(parser: argparse.ArgumentParser) -> dict:
    return {
        "/".join(action.option_strings) or action.dest: action.default
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
    }


def test_cli_options_pinned():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {None: _options(parser), **{name: _options(p) for name, p in sub.choices.items()}}
    assert found == _CLI_OPTIONS
