"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with -s or in captured
output) and fails on the first violated assertion inside the criterion.
Run the same checks from the command line with `liecomm verify`.
"""

import dataclasses
import hashlib
import inspect
import re
import time
from types import SimpleNamespace

import pytest

from liecomm import verify
from liecomm.homology import FinAbGroup
from liecomm.rootdata import LieType


@pytest.mark.parametrize("index", range(1, len(verify.CRITERIA) + 1))
def test_criterion(index):
    result = verify.run_criterion(index)
    status = "PASS" if result["passed"] else "FAIL"
    line = f"criterion {result['index']:2d} ({result['name']}): {result['detail']}"
    print(f"[{status}] {line}")
    assert result["passed"], line


def test_result_shape():
    # one record of the "criteria" list that `liecomm verify` emits
    types = {key: type(value) for key, value in verify.run_criterion(1).items()}
    assert types == {"index": int, "name": str, "passed": bool, "detail": str, "seconds": float}


def test_no_option_shrinks_the_verdict():
    # nothing can be set; rank, grid and sample counts are fixed
    for _, func in verify.CRITERIA:
        assert not inspect.signature(func).parameters
    with pytest.raises(TypeError):
        verify.run_criterion(3, rank_cap=1)
    with pytest.raises(TypeError):
        verify.run_criterion(3, cache_dir=None)


def test_gates_survive_optimize(run_python):
    # under python -O every assert is stripped; the criteria must still fail
    code = (
        "from liecomm import verify, wps\n"
        "real = wps.spin_stability_report\n"
        "wps.spin_stability_report = lambda *a: {**real(*a), 'degree': 99}\n"
        "result = verify.run_criterion(8)\n"
        "print('passed:', result['passed'], result['detail'])\n"
    )
    run = run_python("-O", "-c", code)
    assert run.stdout.startswith("passed: False InvariantBreachError: ('even', 4, 0)")


def test_budget_overrun_fails_the_criterion(monkeypatch):
    # budgets are checked once, in run_criterion, after the criterion's own checks
    monkeypatch.setitem(verify.BUDGETS, 9, 0)
    result = verify.run_criterion(9)
    assert not result["passed"]
    assert re.fullmatch(r"InvariantBreachError: took \d+\.\d\ds, budget 0s", result["detail"])


def test_seconds_is_the_elapsed_time():
    start = time.perf_counter()
    result = verify.run_criterion(9)
    assert 0 <= result["seconds"] <= time.perf_counter() - start


def _wrap(monkeypatch, name, wrap):
    """verify reads `name`, a global of verify or module.attr, as wrap(real).
    A module is swapped for a copy of its namespace, so the library's own
    calls inside that module still reach the real function."""
    owner, _, attr = name.rpartition(".")
    if not owner:
        monkeypatch.setattr(verify, attr, wrap(getattr(verify, attr)))
        return
    module = getattr(verify, owner)
    proxy = SimpleNamespace(**vars(module))
    setattr(proxy, attr, wrap(getattr(module, attr)))
    monkeypatch.setattr(verify, owner, proxy)


def _when(test, change):
    """A wrap: change(result) for the calls whose arguments pass test."""
    return lambda real: lambda *a: change(real(*a)) if test(*a) else real(*a)


def _quotient(euler=0, homology=lambda h: h):
    """A wrap of quotient_by_involution whose complex reports a shifted Euler
    characteristic or changed homology."""
    def wrap(real):
        def quotient(*a):
            q = real(*a)
            return SimpleNamespace(
                euler_characteristic=lambda: q.euler_characteristic() + euler,
                homology=lambda: homology(q.homology()),
            )
        return quotient
    return wrap


def _replace(**fields):
    return lambda value: dataclasses.replace(value, **fields)


def _update(**fields):
    return lambda report: {**report, **fields}


# one wrong value per require of a criterion: (criterion, what verify reads,
# its wrap, the regex of the detail that require raises)
_D4, _E7, _G2 = LieType("D", 4), LieType("E", 7), LieType("G", 2)
_BREACHES = [
    (1, "build_root_datum", _when(lambda lt: lt == _D4, _replace(coroot_integers=(2,) * 5)), "D4"),
    (1, "dynkin_index", lambda real: lambda d: real(d) + 1, "A1"),
    (2, "weyl.molien_poincare", lambda real: lambda *a: [*real(*a), 0], ""),
    (5, "invariants.bredon_e2_fragment",
     _when(lambda lt, p, k: lt == _E7, lambda g: FinAbGroup(0, (2,))), "E7"),
    (5, "invariants.bredon_e2_fragment",
     _when(lambda lt, p, k: lt == _G2, lambda g: FinAbGroup(0, (4,))), "G2"),
    (5, "invariants.pi2_hom_pairs", _when(lambda lt: lt == "E7", _replace(quotient_degree=6)), ""),
    (5, "invariants.pi2_hom_pairs", _when(lambda lt: lt == "G2", _replace(quotient_degree=1)), ""),
    (5, "invariants.pi2_hom_pairs",
     _when(lambda lt: lt == "SU(5)", _replace(quotient_degree=2)), ""),
    (6, "weyl.cell_census", lambda real: lambda *a, **kw: [*real(*a, **kw), 0], r"\[4, 4, 2, 0\]"),
    (7, "comb", _when(lambda n, k: k == 1, lambda c: c + 1), r"\(1, 1, 'Z'\)"),
    (7, "simplicial.quotient_by_involution", _quotient(euler=1), "1"),
    (7, "simplicial.quotient_by_involution",
     _quotient(homology=lambda h: [FinAbGroup(2), *h[1:]]), "1"),
    (7, "simplicial.quotient_by_involution",
     _quotient(homology=lambda h: [h[0], FinAbGroup(1), *h[2:]]), r"\(1, 'Z'\)"),
    (7, "simplicial.quotient_by_involution",
     _quotient(homology=lambda h: [*h[:2], FinAbGroup(0, (3,))]), r"\(1, 'Z/3'\)"),
    (8, "wps.spin_stability_report",
     _when(lambda ell, parity, k: parity == "odd" and ell > 3, _update(degree=3)),
     r"\('odd', 4, 0\)"),
    (8, "wps.spin_stability_report",
     _when(lambda ell, parity, k: k % 2, _update(zero_groups=False)), r"\('even', 4, 1\)"),
    (8, "wps.spin_stability_report", _when(lambda *a: a == (3, "odd", 2), _update(degree=1)), ""),
    (8, "wps.spin_pi2_stability", _when(lambda m: m == 16, _update(stable=False)), "16"),
    (9, "wps.proj_degree", lambda real: lambda *a: real(*a) + 1, "A1"),
    (10, "geom.beta_passed", lambda real: lambda report: False, r"\{'grid': 50, .*"),
    (10, "geom.cocycle_passed", lambda real: lambda report: False, r"\{'samples': 10000, .*"),
    (11, "invariants.pi2_hom_n",
     _when(lambda name, n: name == "SU(3)", lambda g: FinAbGroup(9)), r"\('SU\(3\)', 1\)"),
    (11, "invariants.pi2_hom_n",
     _when(lambda name, n: name == "Sp(1)", lambda g: FinAbGroup(9)), r"\('Sp\(1\)', 1\)"),
    (11, "invariants.h2_extension_semisimple",
     _when(lambda pi1, s: len(pi1.torsion) == 1, _replace(has_forced_torsion=True)), ""),
    (11, "invariants.h2_extension_semisimple",
     _when(lambda pi1, s: len(pi1.torsion) == 2, _replace(has_forced_torsion=False)), ""),
]


@pytest.mark.parametrize(
    "index, name, wrap, detail", _BREACHES, ids=[f"{i}-{name}" for i, name, _, _ in _BREACHES]
)
def test_each_check_can_fail(monkeypatch, index, name, wrap, detail):
    # the criterion fails, and on the require that was meant to catch it
    _wrap(monkeypatch, name, wrap)
    result = verify.run_criterion(index)
    assert not result["passed"]
    assert re.fullmatch(f"InvariantBreachError: {detail}", result["detail"], re.DOTALL)


def _key(value):
    """A value as the same text in every run: a type by name, a group by its type."""
    if isinstance(value, (list, tuple)):
        return [_key(v) for v in value]
    if isinstance(value, dict):
        return {k: _key(v) for k, v in value.items()}
    for attr in ("datum", "lie_type"):
        value = getattr(value, attr, value)
    if isinstance(value, LieType):
        return value.name
    nodes = getattr(value, "nodes", None)
    return sorted(nodes) if nodes is not None else repr(value)


# the library calls of one run_all; re-record on purpose when a case list changes
_CALLS = (1571, "c3cc51b39a9acff807f906afe7501df8270ff838f918564fdb7600769fba1456")


def test_the_cases_checked_are_pinned(monkeypatch):
    # nothing can be set, so every run checks the same cases with the same budgets
    assert verify.BUDGETS == {1: 1, 2: 10, 3: 30, 7: 120, 10: 60}
    calls = []

    def spy(name):
        def wrap(real):
            return lambda *a, **kw: calls.append((name, _key(a), _key(kw))) or real(*a, **kw)
        return wrap

    for name in (
        "build_root_datum", "lattice_quotient", "weyl.generate", "weyl.molien_poincare",
        "weyl.irreducibility_check", "weyl.cell_census", "invariants.pi2_hom_pairs",
        "invariants.bredon_e2_fragment", "invariants.pi2_hom_n",
        "invariants.h2_extension_semisimple", "simplicial.torus_triangulation",
        "wps.spin_stability_report", "wps.spin_pi2_stability", "wps.proj_degree",
        "geom.beta_check", "geom.cocycle_check",
    ):
        _wrap(monkeypatch, name, spy(name))
    assert all(result["passed"] for result in verify.run_all())
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert (len(calls), digest) == _CALLS, (len(calls), digest)
