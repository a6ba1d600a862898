"""The acceptance suite: one callable per criterion, shared by pytest and the CLI.

Each criterion raises InvariantBreachError on failure and returns a short
detail string on success; run_all collects results with timings.  Checks go
through homology.require rather than assert, so they also run under python -O.
run_criterion times each criterion and holds it to its budget in BUDGETS.

An identity that a library function requires on every call is not checked
again here: criteria 2-6 run those functions over their cases, and keep only
the hand-typed values the library cannot know.
"""

from __future__ import annotations

import time
from math import comb
from typing import Callable

from . import geom, invariants, simplicial, weyl, wps
from .homology import FinAbGroup, require
from .rootdata import LieType, all_faces, build_root_datum, dynkin_index, lattice_quotient


def _table_types() -> list[LieType]:
    out = [LieType("A", r) for r in range(1, 9)]
    out += [LieType("B", r) for r in range(2, 9)]
    out += [LieType("C", r) for r in range(2, 9)]
    out += [LieType("D", r) for r in range(3, 9)]
    out += [LieType("E", r) for r in (6, 7, 8)]
    out += [LieType("F", 4), LieType("G", 2)]
    return out


def _canonical_types(max_rank: int) -> list[LieType]:
    seen = set()
    out = []
    for lt in _table_types():
        c = lt.canonical()
        if c.rank <= max_rank and c not in seen:
            seen.add(c)
            out.append(c)
    return out


def _expected_table(lt: LieType) -> tuple[set[int], int]:
    fam, r = lt.family, lt.rank
    if fam in ("A", "C") or (fam == "B" and r == 2) or (fam == "D" and r == 3):
        return {1}, 1
    if fam in ("B", "D"):
        return {1, 2}, 2
    if fam == "G":
        return {1, 2}, 2
    if fam == "F" or (fam == "E" and r == 6):
        return {1, 2, 3}, 6
    if fam == "E" and r == 7:
        return {1, 2, 3, 4}, 12
    return {1, 2, 3, 4, 5, 6}, 60  # E8


def criterion_coroot_tables() -> str:
    """1. Coroot integers and Dynkin indices match the tabulated values."""
    for lt in _table_types():
        datum = build_root_datum(lt)
        expected_set, expected_lcm = _expected_table(lt)
        require(set(datum.coroot_integers) == expected_set, lt.name)
        require(dynkin_index(datum) == expected_lcm, lt.name)
    return f"{len(_table_types())} types checked"


def criterion_molien() -> str:
    """2. Poincare coefficients: [t^0]=1, [t^1]=0, [t^2]=C(n,2), nonnegative."""
    cases = 0
    for lt in _canonical_types(4):
        group = weyl.generate(build_root_datum(lt))
        for n in range(1, 5):
            weyl.molien_poincare(group, n, 3)
            cases += 1
    a1 = weyl.generate(build_root_datum(LieType("A", 1)))
    require(weyl.molien_poincare(a1, 2, 3) == [1, 0, 1, 2])
    return f"{cases} (type, n) cases"


def criterion_irreducibility() -> str:
    """3. (1/|W|) sum of squared traces equals 1 for every enumerable type."""
    types = _canonical_types(6)
    for lt in types:
        weyl.irreducibility_check(weyl.generate(build_root_datum(lt)))
    return f"{len(types)} types (max order {max(t.weyl_order for t in types)})"


def criterion_lattice_quotient() -> str:
    """4. Smith-form lattice quotients match the gcd formula on every face."""
    checked = 0
    for lt in _canonical_types(6):
        datum = build_root_datum(lt)
        for face in all_faces(datum):
            lattice_quotient(datum, face)
            checked += 1
    return f"{checked} (type, face) pairs, zero mismatches"


def criterion_prime_assembly() -> str:
    """5. Product of degree-0 prime fragments equals the coroot-integer lcm."""
    for lt in _table_types():
        invariants.pi2_hom_pairs(lt)
        is_big_e = lt.family == "E" and lt.rank >= 7
        frag2 = invariants.bredon_e2_fragment(lt, 2, 0)
        if is_big_e:
            require(frag2 == FinAbGroup(0, (4,)), lt.name)
        else:
            require(frag2.order() in (1, 2), lt.name)
    require(invariants.pi2_hom_pairs("E7").quotient_degree == 12)
    require(invariants.pi2_hom_pairs("G2").quotient_degree == 2)
    require(invariants.pi2_hom_pairs("SU(5)").quotient_degree == 1)
    return "all families assemble to the Dynkin index; Z/4 override fires only at rank-7/8 E"


def criterion_cell_census() -> str:
    """6. Alternating cell counts match the Lefschetz averages for k = 1, 2, 3."""
    checked = 0
    for lt in _canonical_types(3):
        group = weyl.generate(build_root_datum(lt))
        for k in (1, 2, 3):
            weyl.cell_census(group, k)
            checked += 1
    census = weyl.cell_census(weyl.generate(build_root_datum(LieType("A", 1))), 2)
    require(census == [4, 4, 2], census)
    return f"{checked} (type, k) censuses; rank-1 k=2 census is (4, 4, 2)"


def criterion_torus_quotient() -> str:
    """7. Quotient torus homology matches the closed formula for n = 1, 2, 3."""
    details = []
    for n in (1, 2, 3):
        complex_, involution = simplicial.torus_triangulation(n)
        torus_h = complex_.homology()
        for k in range(n + 1):
            require(torus_h[k] == FinAbGroup(comb(n, k)), (n, k, str(torus_h[k])))
        quotient = simplicial.quotient_by_involution(complex_, involution)
        require(quotient.euler_characteristic() == 2 ** (n - 1), n)
        qh = quotient.homology()
        require(qh[0] == FinAbGroup(1), n)
        if len(qh) > 1:
            require(qh[1] == FinAbGroup(), (n, str(qh[1])))
        expected_h2 = FinAbGroup(comb(n, 2), (2,) * (2**n - 1 - n - comb(n, 2)))
        actual_h2 = qh[2] if len(qh) > 2 else FinAbGroup()
        require(actual_h2 == expected_h2, (n, str(actual_h2)))
        details.append(f"n={n}: H2={actual_h2}")
    return "; ".join(details)


def criterion_spin_stability() -> str:
    """8. Spin stabilization degrees across the validated range of both parities."""
    for ell in range(4, 9):
        for k in range(0, 2 * ell - 6 + 1, 2):
            expected = 2 if k == 2 * ell - 6 else 1
            degree = wps.spin_stability_report(ell, "even", k)["degree"]
            require(degree == expected, ("even", ell, k))
        for k in range(0, 2 * ell - 4 + 1, 2):
            expected = 2 if k == 2 * ell - 4 else 1
            degree = wps.spin_stability_report(ell, "odd", k)["degree"]
            require(degree == expected, ("odd", ell, k))
        for k in (1, 3):
            report = wps.spin_stability_report(ell, "even", k)
            require(report["degree"] == 1 and report["zero_groups"], ("even", ell, k))
    require(wps.spin_stability_report(3, "odd", 2)["degree"] == 2)  # the 5 -> 7 composite
    return "degrees for ell=4..8 both parities and the 5->7 composite"


def criterion_composite_degree() -> str:
    """9. The H_2 degree of CP(1,...,1) -> CP(w) equals the Dynkin index, w the coroot integers."""
    types = _table_types()
    for lt in types:
        datum = build_root_datum(lt)
        require(wps.proj_degree(datum.coroot_integers, 1) == dynkin_index(datum), lt.name)
    return f"{len(types)} types, each H_2 projection degree equal to the Dynkin index"


def criterion_geometry() -> str:
    """10. Generator and cocycle residuals within tolerance; degree is +-1."""
    beta_report = geom.beta_check(grid=50)
    require(geom.beta_passed(beta_report), beta_report)
    cocycle_report = geom.cocycle_check(samples=10_000)
    require(geom.cocycle_passed(cocycle_report), cocycle_report)
    # the residuals that can fail (the cocycle residual is 0 by construction)
    worst = max(
        beta_report["seam_residual"],
        beta_report["max_commutator"],
        cocycle_report["pairwise_commutator"],
        cocycle_report["overlap_agreement"],
    )
    return (
        f"degree {beta_report['degree']} (residue {beta_report['degree_residue']:.1e}), "
        f"max residual {worst:.1e}"
    )


def criterion_theorem_tables() -> str:
    """11. The n-tuple formulas and the extension quotients."""
    for name in ("SU(3)", "SU(5)"):
        for n in range(1, 5):
            expected = FinAbGroup(comb(n, 2))
            require(invariants.pi2_hom_n(name, n) == expected, (name, n))
    for name in ("Sp(1)", "Sp(2)", "Sp(3)"):
        for n in range(1, 5):
            expected = FinAbGroup(comb(n, 2), (2,) * (2**n - 1 - n - comb(n, 2)))
            require(invariants.pi2_hom_n(name, n) == expected, (name, n))
    so3 = invariants.h2_extension_semisimple(FinAbGroup(0, (2,)), 1)
    require(so3.quotient == FinAbGroup(0, (2,)) and not so3.has_forced_torsion)
    pso = invariants.h2_extension_semisimple(FinAbGroup(0, (2, 2)), 1)
    require(pso.has_forced_torsion and pso.quotient == FinAbGroup(0, (2,) * 6))
    return "20 n-tuple cases, both extension examples"


CRITERIA: list[tuple[str, Callable[[], str]]] = [
    ("coroot-integer tables", criterion_coroot_tables),
    ("Poincare series low degrees", criterion_molien),
    ("irreducibility sum", criterion_irreducibility),
    ("lattice-quotient oracle", criterion_lattice_quotient),
    ("prime assembly equals Dynkin index", criterion_prime_assembly),
    ("cell census Euler identity", criterion_cell_census),
    ("torus quotient homology", criterion_torus_quotient),
    ("spin stability", criterion_spin_stability),
    ("rank-1 composite degree", criterion_composite_degree),
    ("geometry residuals and degree", criterion_geometry),
    ("theorem tables", criterion_theorem_tables),
]

# wall-clock budgets in seconds, by criterion index; the others have none
BUDGETS = {1: 1, 2: 10, 3: 30, 7: 120, 10: 60}


def run_criterion(index: int) -> dict:
    """Run a single acceptance criterion (1-based index).

    Returns {"index", "name", "passed", "detail", "seconds"}, the record
    `liecomm verify` emits.  Nothing can be set, so every run checks the
    same cases.
    """
    name, func = CRITERIA[index - 1]
    start = time.perf_counter()
    try:
        detail = func()
        elapsed = time.perf_counter() - start
        budget = BUDGETS.get(index)
        require(budget is None or elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s")
        passed = True
    except Exception as exc:  # noqa: BLE001 - verdicts must not crash the table
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    seconds = time.perf_counter() - start
    return {"index": index, "name": name, "passed": passed, "detail": detail, "seconds": seconds}


def run_all() -> list[dict]:
    return [run_criterion(i) for i in range(1, len(CRITERIA) + 1)]
