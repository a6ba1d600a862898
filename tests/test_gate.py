"""The one gate from a failed cross-check to InvariantBreachError (exit code 3).

homology.require raises the breach and homology.exact_quotient routes a
division with a remainder through it; every cross-check in the library goes
through one of the two.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liecomm
from liecomm.homology import InvariantBreachError, exact_quotient, require

SRC = Path(liecomm.__file__).parent


class TestRequire:
    def test_passes_silently(self):
        assert require(True, "unused") is None
        assert require(1) is None

    @pytest.mark.parametrize("falsy", [False, 0, None, [], ""])
    def test_falsy_raises(self, falsy):
        with pytest.raises(InvariantBreachError):
            require(falsy, "detail")

    def test_detail_is_the_message(self):
        with pytest.raises(InvariantBreachError, match=r"^highest root is not unique$"):
            require(False, "highest root is not unique")

    def test_non_string_detail_is_kept(self):
        with pytest.raises(InvariantBreachError) as info:
            require(False, ("even", 4, 0))
        assert info.value.args == (("even", 4, 0),)
        assert str(info.value) == "('even', 4, 0)"


class TestExactQuotient:
    @pytest.mark.parametrize(
        "num, den, quot", [(12, 4, 3), (0, 7, 0), (-12, 4, -3), (12, -4, -3), (-12, -4, 3)]
    )
    def test_exact(self, num, den, quot):
        assert exact_quotient(num, den, "unused") == quot

    @pytest.mark.parametrize("num, den", [(13, 4), (-13, 4), (13, -4), (-1, 2), (1, 2)])
    def test_remainder_is_a_breach(self, num, den):
        with pytest.raises(InvariantBreachError, match="not an integer"):
            exact_quotient(num, den, "average is not an integer")

    def test_beyond_int64(self):
        big = 3**90 * 2**70
        assert big > 2**63
        assert exact_quotient(big, 2**70, "unused") == 3**90
        assert exact_quotient(-big, 3**90, "unused") == -(2**70)
        with pytest.raises(InvariantBreachError, match="big"):
            exact_quotient(big + 1, 3**90, "big")

    def test_detail_carried(self):
        with pytest.raises(InvariantBreachError) as info:
            exact_quotient(7, 3, ("Molien", 7))
        assert info.value.args == (("Molien", 7),)


def test_library_breach_survives_optimize():
    # under python -O every assert is stripped; a library cross-check must still fire
    code = (
        "import dataclasses\n"
        "from liecomm import weyl\n"
        "from liecomm.homology import InvariantBreachError\n"
        "from liecomm.rootdata import build_root_datum\n"
        "group = weyl.generate(build_root_datum('A2'))\n"
        "# one more rotation, det(1 - w) = 3: the k = 2 sum 27 is not divisible by 6\n"
        "buckets = tuple((cp, n + (sum(cp) == 3)) for cp, n in group.charpoly_buckets)\n"
        "group = dataclasses.replace(group, charpoly_buckets=buckets)\n"
        "try:\n"
        "    weyl.euler_char_rep(group, 2)\n"
        "except InvariantBreachError as exc:\n"
        "    print('debug:', __debug__, 'breach:', exc)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.stdout == "debug: False breach: Lefschetz average is not an integer\n"


def _breach_raises() -> list[tuple[str, str]]:
    """(module, enclosing function) of every `raise InvariantBreachError` in the package."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id == "InvariantBreachError"):
                continue
            scope = node
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parents[scope]
            sites.append((path.stem, getattr(scope, "name", "<module>")))
    return sites


def test_one_raise_site():
    # require raises every breach, a generator pair that fails to commute included
    assert _breach_raises() == [("homology", "require")]
