"""Library call sequences that run as single benchmark jobs, one per child.

Each function takes JSON-able keyword arguments, calls only public liecomm
functions, and returns a JSON-able result that the parent checks against
answers it computes independently (see checks.py).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

import liecomm as lc

POINCARE_DEG = 24  # n = 1 is checked against prod(1 + t^(2d - 1)) up to here
POINCARE_DEG_HIGHER_N = 12


def all_faces(datum) -> list:
    """Every proper subset of the extended node set {0, ..., r}."""
    nodes = range(datum.rank + 1)
    return [
        lc.FaceIndex.of(datum, subset)
        for size in range(datum.rank + 1)
        for subset in combinations(nodes, size)
    ]


def _face_key(face) -> str:
    return ",".join(str(i) for i in face.sorted_nodes())


def _group(g) -> list:
    return [g.free_rank, list(g.torsion)]


def prepare(cache_dir: str, types: list[str]) -> dict:
    """Set-up job: import liecomm and fill the cache a warm workload reads."""
    for name in types:
        lc.generate(lc.build_root_datum(name), cache_dir=Path(cache_dir))
    return {}


def query(lie_type: str, cache_dir: str, points: dict[str, list[list[str]]]) -> dict:
    """Warm read path: load one cached group, then Molien sums, stabilizers, reduction."""
    datum = lc.build_root_datum(lie_type)
    group = lc.generate(datum, cache_dir=Path(cache_dir))
    poincare = {
        str(n): lc.molien_poincare(group, n, POINCARE_DEG if n == 1 else POINCARE_DEG_HIGHER_N)
        for n in range(1, 5)
    }
    irreducibility = lc.irreducibility_check(group)
    euler = [lc.euler_char_rep(group, k) for k in range(1, 5)]
    geometry = lc.alcove_geometry(datum)
    stabilizers = {
        _face_key(face): lc.face_stabilizer(group, geometry, face).order
        for face in all_faces(datum)
    }
    reductions = []
    for name, pts in points.items():
        target = lc.build_root_datum(name)
        for p in pts:
            y, w, q = lc.alcove_reduce(target, [Fraction(c) for c in p])
            reductions.append(
                {"type": name, "x": p, "y": [str(c) for c in y], "w": w, "q": q}
            )
    return {
        "order": group.order,
        "poincare": poincare,
        "irreducibility": [irreducibility.numerator, irreducibility.denominator],
        "euler": euler,
        "stabilizers": stabilizers,
        "reductions": reductions,
    }


def double_cosets(lie_type: str, cache_dir: str) -> dict:
    """H\\W/K representatives between vertex stabilizers and between edge stabilizers."""
    datum = lc.build_root_datum(lie_type)
    group = lc.generate(datum, cache_dir=Path(cache_dir))
    geometry = lc.alcove_geometry(datum)
    faces = [f for f in all_faces(datum) if len(f.nodes) >= datum.rank - 1]
    stabs = [lc.face_stabilizer(group, geometry, f) for f in faces]
    pairs = []
    for i, j in combinations(range(len(faces)), 2):
        if len(faces[i].nodes) == len(faces[j].nodes):
            pairs.append([i, j, lc.double_cosets(group, stabs[i], stabs[j])])
    return {
        "order": group.order,
        "faces": [_face_key(f) for f in faces],
        "subgroups": [list(s.indices) for s in stabs],
        "pairs": pairs,
    }


def torus(n: int) -> dict:
    """The n-torus and its inversion quotient, both through chain homology."""
    complex_, _ = lc.torus_triangulation(n)
    homology = complex_.homology()
    quotient, extra = lc.torus_inversion_quotient(n)
    return {
        "f_vector": list(complex_.f_vector()),
        "homology": [_group(g) for g in homology],
        "quotient_f_vector": list(quotient.f_vector()),
        "quotient_euler": quotient.euler_characteristic(),
        "quotient_homology": [_group(g) for g in quotient.homology()],
        "extra_subdivisions": extra,
    }


def subdivided_torus() -> dict:
    """The 2-torus subdivided twice (once inside torus_triangulation) and its quotient."""
    complex_, involution = lc.torus_triangulation(2)
    sd, sd_involution = lc.barycentric_subdivide(complex_, involution)
    quotient = lc.quotient_by_involution(sd, sd_involution)
    return {
        "f_vector": list(sd.f_vector()),
        "homology": [_group(g) for g in sd.homology()],
        "quotient_homology": [_group(g) for g in quotient.homology()],
    }


def lattice_quotients(types: list[str]) -> dict:
    """lattice_quotient on every face of every listed type."""
    out = {}
    for name in types:
        datum = lc.build_root_datum(name)
        rows = []
        for face in all_faces(datum):
            free, torsion = lc.lattice_quotient(datum, face)
            rows.append([_face_key(face), free, list(torsion.torsion)])
        out[name] = rows
    return out


def snf_transforms(out_dir: str) -> dict:
    """Smith form with transforms of d_1 of the 3-torus inversion quotient."""
    quotient, _ = lc.torus_inversion_quotient(3)
    d1 = quotient.boundary_matrices()[0]
    U, D, V = lc.smith_normal_form(d1)
    for name, mat in (("A", d1), ("U", U), ("D", D), ("V", V)):
        np.save(Path(out_dir) / f"{name}.npy", np.array(mat, dtype=np.int64))
    return {"shape": list(d1.shape)}


JOBS = {
    "prepare": prepare,
    "query": query,
    "double_cosets": double_cosets,
    "torus": torus,
    "subdivided_torus": subdivided_torus,
    "lattice_quotients": lattice_quotients,
    "snf_transforms": snf_transforms,
}
