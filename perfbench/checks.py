"""Independent answer checks, run in the parent on each job's output.

Each check takes the job's parsed JSON output and its output directory and
returns a list of mismatch descriptions; an empty list means the job's
answers are right.  Expected values come from closed formulas and tables
written here, not from the code path under test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from pathlib import Path

import numpy as np

# Degrees of the basic invariants (Bourbaki, Plates I-IX).
_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


def degrees(name: str) -> tuple[int, ...]:
    if name in _EXCEPTIONAL_DEGREES:
        return _EXCEPTIONAL_DEGREES[name]
    family, r = name[0], int(name[1:])
    if family == "A":
        return tuple(range(2, r + 2))
    if family in "BC":
        return tuple(range(2, 2 * r + 1, 2))
    if family == "D":
        return tuple(sorted(tuple(range(2, 2 * r - 1, 2)) + (r,)))
    raise ValueError(f"no degree table for {name}")


def weyl_order(name: str) -> int:
    out = 1
    for d in degrees(name):
        out *= d
    return out


def poincare_n1(name: str, max_deg: int) -> list[int]:
    """prod_i (1 + t^(2 d_i - 1)), the Poincare polynomial of G, truncated."""
    coeffs = [1] + [0] * max_deg
    for d in degrees(name):
        shift = 2 * d - 1
        coeffs = [c + (coeffs[j - shift] if j >= shift else 0) for j, c in enumerate(coeffs)]
    return coeffs


def _datum(name: str):
    import liecomm

    return liecomm.build_root_datum(name)


# --- enumerate ------------------------------------------------------------------


def check_poincare(name: str, max_deg: int):
    def check(out: dict, _: Path) -> list[str]:
        expected = poincare_n1(name, max_deg)
        if out.get("coefficients") != expected:
            return [f"poincare {name}: {out.get('coefficients')} != {expected}"]
        return []

    return check


# --- query --------------------------------------------------------------------


def _extended_cartan(datum) -> list[list[int]]:
    """Cartan matrix of the extended diagram, node 0 first."""
    r, a = datum.rank, datum.cartan
    ext = [[2] + [0] * r for _ in range(r + 1)]
    for j in range(r):
        ext[0][j + 1] = -sum(datum.theta[i] * a[i][j] for i in range(r))
        ext[j + 1][0] = -sum(a[j][k] * datum.theta_vee[k] for k in range(r))
        for i in range(r):
            ext[i + 1][j + 1] = a[i][j]
    return ext


def _component_order(ext: list[list[int]], nodes: list[int]) -> int:
    """Order of the finite Weyl group of one connected finite-type subdiagram."""
    n = len(nodes)
    nbrs = {i: [j for j in nodes if j != i and ext[i][j]] for i in nodes}
    bonds = {(i, j): ext[i][j] * ext[j][i] for i in nodes for j in nbrs[i]}
    if n == 1:
        return 2
    if 3 in bonds.values():
        return 12  # G2
    if 2 in bonds.values():
        i, j = next(k for k, v in bonds.items() if v == 2)
        if n == 4 and len(nbrs[i]) == 2 and len(nbrs[j]) == 2:
            return 1152  # F4
        return 2**n * factorial(n)  # B_n = C_n
    branch = [i for i in nodes if len(nbrs[i]) == 3]
    if not branch:
        return factorial(n + 1)  # A_n
    arms = []
    for start in nbrs[branch[0]]:
        length, prev, cur = 1, branch[0], start
        while len(nbrs[cur]) == 2:
            prev, cur = cur, next(x for x in nbrs[cur] if x != prev)
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return 2 ** (n - 1) * factorial(n)  # D_n
    return {(1, 2, 2): 51840, (1, 2, 3): 2903040, (1, 2, 4): 696729600}[tuple(arms)]


def parabolic_order(ext: list[list[int]], face: list[int]) -> int:
    """|W_face|: the face's stabilizer is the Weyl group of its subdiagram."""
    remaining, order = set(face), 1
    while remaining:
        comp, todo = set(), [remaining.pop()]
        while todo:
            i = todo.pop()
            comp.add(i)
            for j in list(remaining):
                if ext[i][j]:
                    remaining.discard(j)
                    todo.append(j)
        order *= _component_order(ext, sorted(comp))
    return order


def _in_alcove(datum, y: list[Fraction]) -> bool:
    r = datum.rank
    alphas = [sum(datum.cartan[j][k] * y[k] for k in range(r)) for j in range(r)]
    return all(v >= 0 for v in alphas) and sum(
        datum.theta[j] * alphas[j] for j in range(r)
    ) <= 1


def _check_reduction(red: dict) -> list[str]:
    datum = _datum(red["type"])
    x = [Fraction(c) for c in red["x"]]
    y = [Fraction(c) for c in red["y"]]
    w, q = red["w"], red["q"]
    r = datum.rank
    errors = []
    if y != [sum(w[i][j] * x[j] for j in range(r)) + q[i] for i in range(r)]:
        errors.append(f"alcove_reduce {red['type']} {red['x']}: y != w x + q")
    if not _in_alcove(datum, y):
        errors.append(f"alcove_reduce {red['type']} {red['x']}: result outside the alcove")
    if round(abs(np.linalg.det(np.array(w, dtype=float)))) != 1:
        errors.append(f"alcove_reduce {red['type']} {red['x']}: w is not unimodular")
    return errors


def check_query(name: str, points: dict[str, list[list[str]]]):
    def check(out: dict, _: Path) -> list[str]:
        datum = _datum(name)
        r = datum.rank
        errors = []
        if out["order"] != weyl_order(name):
            errors.append(f"{name}: order {out['order']} != {weyl_order(name)}")
        for n in range(1, 5):
            coeffs = out["poincare"][str(n)]
            if n == 1 and coeffs != poincare_n1(name, len(coeffs) - 1):
                errors.append(f"{name}: n = 1 Poincare series != prod(1 + t^(2d - 1))")
            if coeffs[:3] != [1, 0, comb(n, 2)] or min(coeffs) < 0:
                errors.append(f"{name}: n = {n} Poincare series violates its low-degree values")
        if out["irreducibility"] != [1, 1]:
            errors.append(f"{name}: irreducibility sum {out['irreducibility']} != 1")
        if out["euler"][:2] != [1, r + 1]:
            errors.append(f"{name}: Lefschetz averages k = 1, 2 are {out['euler'][:2]}, not [1, {r + 1}]")
        ext = _extended_cartan(datum)
        if len(out["stabilizers"]) != 2 ** (r + 1) - 1:
            errors.append(f"{name}: {len(out['stabilizers'])} faces, expected {2 ** (r + 1) - 1}")
        for key, order in out["stabilizers"].items():
            face = [int(i) for i in key.split(",")] if key else []
            if order != parabolic_order(ext, face):
                errors.append(f"{name}: stabilizer of face {{{key}}} has order {order}")
        sent = [(t, p) for t, pts in points.items() for p in pts]
        got = [(red["type"], red["x"]) for red in out["reductions"]]
        if got != sent:
            errors.append(f"{name}: reductions do not answer the points sent")
        for red in out["reductions"]:
            errors += _check_reduction(red)
        return errors

    return check


# --- census -------------------------------------------------------------------


def check_cells(name: str, k: int):
    def check(out: dict, _: Path) -> list[str]:
        counts = out["counts_by_dim"]
        r = int(name[1:])
        alternating = sum((-1) ** d * c for d, c in enumerate(counts))
        errors = []
        if min(counts) < 0 or len(counts) != k * r + 1:
            errors.append(f"cells {name} k={k}: malformed counts {counts}")
        if alternating != out["euler_characteristic"]:
            errors.append(f"cells {name} k={k}: alternating sum {alternating} != euler_char_rep")
        if k == 1 and alternating != 1:
            errors.append(f"cells {name} k=1: alternating sum {alternating} != 1")
        if k == 2 and alternating != r + 1:
            errors.append(f"cells {name} k=2: alternating sum {alternating} != rank + 1")
        if name[0] == "A" and alternating != (r + 1) ** (k - 1):
            # only the (r+1)-cycles of S_(r+1) have det(1 - w) != 0, each equal to r+1
            errors.append(f"cells {name} k={k}: alternating sum {alternating} != {(r + 1) ** (k - 1)}")
        if name == "A1" and k == 2 and counts != [4, 4, 2]:
            errors.append(f"cells A1 k=2: {counts} != [4, 4, 2]")
        return errors

    return check


@lru_cache(maxsize=None)
def _elements(name: str, cache_dir: str) -> tuple[np.ndarray, dict[bytes, int]]:
    import liecomm

    mats = liecomm.generate(_datum(name), cache_dir=Path(cache_dir)).matrices.astype(np.int64)
    return mats, {m.tobytes(): i for i, m in enumerate(mats)}


def check_double_cosets(name: str, cache_dir: str):
    """sum over representatives w of |H||K| / |H cap wKw^-1| must be |W|."""

    def check(out: dict, _: Path) -> list[str]:
        mats, index = _elements(name, cache_dir)
        errors = []
        for i, j, reps in out["pairs"]:
            h = set(out["subgroups"][i])
            k = mats[out["subgroups"][j]]
            total = 0
            seen = set()
            for rep in reps:
                w = np.array(rep, dtype=np.int64)
                w_inv = np.rint(np.linalg.inv(w)).astype(np.int64)
                conj = w @ k @ w_inv
                meet = sum(index.get(m.tobytes()) in h for m in conj)
                total += len(h) * len(k) // meet
                seen.add(w.tobytes())
            if total != len(mats) or len(seen) != len(reps):
                errors.append(
                    f"double cosets {name} faces {out['faces'][i]} / {out['faces'][j]}: "
                    f"orbit sizes sum to {total}, not |W| = {len(mats)}"
                )
        return errors

    return check


# --- oracles ------------------------------------------------------------------


def _free(rank: int) -> list:
    return [rank, []]


def _quotient_h2(n: int) -> list:
    return [comb(n, 2), [2] * (2**n - 1 - n - comb(n, 2))]


def check_torus(n: int):
    def check(out: dict, _: Path) -> list[str]:
        errors = []
        if out["homology"] != [_free(comb(n, k)) for k in range(n + 1)]:
            errors.append(f"torus n={n}: homology {out['homology']} is not free of rank C(n, k)")
        qh = out["quotient_homology"] + [[0, []]] * 3
        if qh[0] != _free(1) or qh[1] != _free(0) or qh[2] != _quotient_h2(n):
            errors.append(f"torus n={n}: quotient homology {out['quotient_homology']}")
        if out["quotient_euler"] != 2 ** (n - 1):
            errors.append(f"torus n={n}: quotient Euler characteristic {out['quotient_euler']}")
        return errors

    return check


def check_subdivided_torus(out: dict, _: Path) -> list[str]:
    errors = []
    if out["homology"] != [_free(1), _free(2), _free(1)]:
        errors.append(f"subdivided 2-torus: homology {out['homology']}")
    if out["quotient_homology"] != [_free(1), _free(0), _quotient_h2(2)]:
        errors.append(f"subdivided 2-torus quotient: homology {out['quotient_homology']}")
    return errors


def check_lattice_quotients(out: dict, _: Path) -> list[str]:
    errors = []
    for name, rows in out.items():
        datum = _datum(name)
        for key, free, torsion in rows:
            face = {int(i) for i in key.split(",")} if key else set()
            n_vee = gcd(*(datum.coroot_integers[i] for i in range(datum.rank + 1) if i not in face))
            if free != datum.rank - len(face) or torsion != ([n_vee] if n_vee > 1 else []):
                errors.append(f"lattice_quotient {name} face {{{key}}}: {free}, {torsion}")
    return errors


def _unimodular(mat: np.ndarray) -> bool:
    sign, logdet = np.linalg.slogdet(mat.astype(float))
    return sign != 0 and abs(logdet) < 0.1  # an integer determinant, so +-1


def check_snf(out: dict, out_dir: Path) -> list[str]:
    A, U, D, V = (np.load(out_dir / f"{n}.npy") for n in "AUDV")
    diag = np.diagonal(D)
    errors = []
    if list(A.shape) != out["shape"] or not np.array_equal(U @ A @ V, D):
        errors.append("smith_normal_form: U A V != D")
    if np.count_nonzero(D) != np.count_nonzero(diag):
        errors.append("smith_normal_form: D is not diagonal")
    nz = [int(d) for d in diag if d]
    if any(b % a for a, b in zip(nz, nz[1:])) or min(nz) < 1:
        errors.append("smith_normal_form: diagonal is not a divisor chain")
    # d_1 of a connected complex: rank |C_0| - 1, all elementary divisors 1
    if nz != [1] * (A.shape[0] - 1):
        errors.append(f"smith_normal_form: divisors of d_1 are not 1 x {A.shape[0] - 1}")
    if not (_unimodular(U) and _unimodular(V)):
        errors.append("smith_normal_form: a transform is not unimodular")
    return errors


def check_beta(out: dict, _: Path) -> list[str]:
    ok = (
        out["passed"]
        and out["seam_residual"] < 1e-12
        and out["max_commutator"] < 1e-12
        and out["degree"] in (1, -1)
        and out["degree_residue"] < 1e-3
        and out["degree_refined"] in (1, -1)
        and out["degree_refined"] == out["degree"]
        and out["degree_refined_residue"] < 1e-3
    )
    return [] if ok else [f"beta-check residuals or degrees out of range: {out}"]


def check_cocycle(out: dict, _: Path) -> list[str]:
    ok = (
        out["passed"]
        and out["cocycle_residual"] < 1e-12
        and out["pairwise_commutator"] < 1e-12
        and out["overlap_agreement"] < 1e-12
        and out["clutching_residual"] < 1e-12
        and out["min_extension_denominator"] > 0.1
        and out["conjugation_residual"] < 1e-9
    )
    return [] if ok else [f"cocycle-check residuals out of range: {out}"]
