"""The acceptance suite: one callable per criterion, shared by pytest and the CLI.

Each criterion raises InvariantBreachError on failure and returns a short
detail string on success; run_all collects results with timings.  Checks go
through homology.require rather than assert, so they also run under python -O.
run_criterion times each criterion and holds it to its budget in BUDGETS.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from pathlib import Path
from typing import Callable

from . import alcove, geom, invariants, simplicial, weyl, wps
from .homology import FinAbGroup, require
from .rootdata import LieType, all_faces, build_root_datum, dynkin_index, lattice_quotient, n_vee


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


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
        require(lcm(*datum.coroot_integers) == expected_lcm, lt.name)
    return f"{len(_table_types())} types checked"


def criterion_molien(cache_dir: Path | None = None) -> str:
    """2. Poincare coefficients: [t^0]=1, [t^1]=0, [t^2]=C(n,2), nonnegative."""
    cases = 0
    for lt in _canonical_types(4):
        group = weyl.generate(build_root_datum(lt), cache_dir=cache_dir)
        for n in range(1, 5):
            coeffs = weyl.molien_poincare(group, n, 3)
            require(coeffs[0] == 1 and coeffs[1] == 0, (lt.name, n))
            require(coeffs[2] == comb(n, 2), (lt.name, n))
            require(all(c >= 0 for c in coeffs), (lt.name, n))
            cases += 1
    a1 = weyl.generate(build_root_datum(LieType("A", 1)), cache_dir=cache_dir)
    require(weyl.molien_poincare(a1, 2, 3) == [1, 0, 1, 2])
    return f"{cases} (type, n) cases"


def criterion_irreducibility(cache_dir: Path | None = None) -> str:
    """3. (1/|W|) sum of squared traces equals 1 for every enumerable type."""
    types = _canonical_types(6)
    for lt in types:
        group = weyl.generate(build_root_datum(lt), cache_dir=cache_dir)
        require(weyl.irreducibility_check(group) == Fraction(1), lt.name)
    return f"{len(types)} types (max order {max(build_root_datum(t).weyl_order for t in types)})"


def criterion_lattice_quotient() -> str:
    """4. Smith-form lattice quotients match the gcd formula on every face."""
    checked = 0
    for lt in _canonical_types(6):
        datum = build_root_datum(lt)
        for face in all_faces(datum):
            free, torsion = lattice_quotient(datum, face)
            where = (lt.name, face.sorted_nodes())
            require(free == face.dim, where)
            require(torsion == FinAbGroup.cyclic(n_vee(datum, face)), where)
            checked += 1
    return f"{checked} (type, face) pairs, zero mismatches"


def criterion_prime_assembly() -> str:
    """5. Product of degree-0 prime fragments equals the coroot-integer lcm."""
    for lt in _table_types():
        report = invariants.pi2_hom_pairs(lt)
        datum = build_root_datum(lt)
        require(report.quotient_degree == dynkin_index(datum), lt.name)
        require(report.group == FinAbGroup.free(1), lt.name)
        is_big_e = datum.lie_type.family == "E" and datum.lie_type.rank >= 7
        frag2 = invariants.bredon_e2_fragment(lt, 2, 0)
        if is_big_e:
            require(frag2 == FinAbGroup.cyclic(4), lt.name)
        else:
            require(frag2.order() in (1, 2), lt.name)
    require(invariants.pi2_hom_pairs("E7").quotient_degree == 12)
    require(invariants.pi2_hom_pairs("G2").quotient_degree == 2)
    require(invariants.pi2_hom_pairs("SU(5)").quotient_degree == 1)
    return "all families assemble to the Dynkin index; Z/4 override fires only at rank-7/8 E"


def criterion_cell_census(cache_dir: Path | None = None) -> str:
    """6. Alternating cell counts match the Lefschetz averages for k = 1, 2, 3."""
    checked = 0
    for lt in _canonical_types(3):
        datum = build_root_datum(lt)
        group = weyl.generate(datum, cache_dir=cache_dir)
        geometry = alcove.alcove_geometry(datum)
        for k in (1, 2, 3):
            counts = weyl.cell_census(group, geometry, k)
            alternating = sum((-1) ** d * c for d, c in enumerate(counts))
            require(alternating == weyl.euler_char_rep(group, k), (lt.name, k))
            if k == 2:
                require(alternating == datum.rank + 1, lt.name)
            checked += 1
    a1 = build_root_datum(LieType("A", 1))
    census = weyl.cell_census(weyl.generate(a1, cache_dir=cache_dir), alcove.alcove_geometry(a1), 2)
    require(census == [4, 4, 2], census)
    return f"{checked} (type, k) censuses; rank-1 k=2 census is (4, 4, 2)"


def criterion_torus_quotient() -> str:
    """7. Quotient torus homology matches the closed formula for n = 1, 2, 3."""
    details = []
    for n in (1, 2, 3):
        complex_, involution = simplicial.torus_triangulation(n)
        torus_h = complex_.homology()
        for k in range(n + 1):
            require(torus_h[k] == FinAbGroup.free(comb(n, k)), (n, k, str(torus_h[k])))
        quotient = simplicial.quotient_by_involution(complex_, involution)
        require(quotient.euler_characteristic() == 2 ** (n - 1), n)
        qh = quotient.homology()
        require(qh[0] == FinAbGroup.free(1), n)
        if len(qh) > 1:
            require(qh[1] == FinAbGroup.trivial(), (n, str(qh[1])))
        expected_h2 = FinAbGroup.from_divisors(
            [2] * (2**n - 1 - n - comb(n, 2)), comb(n, 2)
        )
        actual_h2 = qh[2] if len(qh) > 2 else FinAbGroup.trivial()
        require(actual_h2 == expected_h2, (n, str(actual_h2)))
        details.append(f"n={n}: H2={actual_h2}")
    return "; ".join(details)


def criterion_spin_stability() -> str:
    """8. Spin stabilization degrees and pi_2 stability across the whole range."""
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
    for m in range(5, 17):
        report = invariants.spin_pi2_stability(m)
        require(report.stable, m)
    return "degrees for ell=4..8 both parities, the 5->7 composite, stability m=5..16"


def criterion_composite_degree() -> str:
    """9. The rank-1 composite degree equals lcm of the weights for every node."""
    checked = 0
    for lt in _table_types():
        datum = build_root_datum(lt)
        weights = datum.coroot_integers
        target = lcm(*weights)
        for j in range(1, datum.rank + 1):
            require(wps.composite_su2_degree(weights, j) == target, (lt.name, j))
            checked += 1
    return f"{checked} (type, node) composites, all equal to the weight lcm"


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
    """11. The n-tuple formulas, the extension quotients, and pi_4 values."""
    cases = 0
    for name in ("SU(3)", "SU(5)"):
        for n in range(1, 5):
            expected = FinAbGroup.free(comb(n, 2))
            require(invariants.pi2_hom_n(name, n) == expected, (name, n))
            cases += 1
    for name in ("Sp(1)", "Sp(2)", "Sp(3)"):
        for n in range(1, 5):
            expected = FinAbGroup.from_divisors(
                [2] * (2**n - 1 - n - comb(n, 2)), comb(n, 2)
            )
            require(invariants.pi2_hom_n(name, n) == expected, (name, n))
            cases += 1
    require(cases == 20)
    so3 = invariants.h2_extension_semisimple(FinAbGroup.cyclic(2), 1)
    require(so3.quotient == FinAbGroup.cyclic(2) and not so3.has_forced_torsion)
    pso = invariants.h2_extension_semisimple(FinAbGroup(0, (2, 2)), 1)
    require(pso.has_forced_torsion and pso.quotient == FinAbGroup(0, (2, 2, 2, 2)))
    for lt in _table_types():
        ecom, bcom = invariants.pi4_commutative_classifying(lt)
        require(ecom == FinAbGroup.free(1) and bcom == FinAbGroup.free(2), lt.name)
    return "20 n-tuple cases, both extension examples, pi_4 for all types"


CRITERIA: list[tuple[str, Callable[..., str]]] = [
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


def run_criterion(index: int, cache_dir: Path | None = None) -> CriterionResult:
    """Run a single acceptance criterion (1-based index).

    cache_dir goes to the criteria that enumerate Weyl groups; nothing else
    can be set, so every run checks the same cases.
    """
    name, func = CRITERIA[index - 1]
    takes_cache = "cache_dir" in inspect.signature(func).parameters
    start = time.perf_counter()
    try:
        detail = func(cache_dir=cache_dir) if takes_cache else func()
        elapsed = time.perf_counter() - start
        budget = BUDGETS.get(index)
        require(budget is None or elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s")
        passed = True
    except Exception as exc:  # noqa: BLE001 - verdicts must not crash the table
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    return CriterionResult(index, name, passed, detail, time.perf_counter() - start)


def run_all(cache_dir: Path | None = None) -> list[CriterionResult]:
    return [run_criterion(i, cache_dir) for i in range(1, len(CRITERIA) + 1)]
