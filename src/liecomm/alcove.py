"""Geometry of the fundamental alcove: vertices, barycenters, faces.

The alcove is the simplex {a_j >= b_j for j = 0..r} cut out by the root
datum's wall table, that is {alpha_j >= 0 for j = 1..r, theta <= 1}, with
vertices 0 and omega_j_vee / n_j (fundamental coweight over root integer).
Coordinates are exact Fractions in the simple-coroot basis throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .homology import require
from .rootdata import FaceIndex, RootDatum, _in_alcove

FractionVector = tuple[Fraction, ...]


class AlcoveMembershipError(ValueError):
    """A point violates the alcove wall inequalities."""


class EmptyFaceError(ValueError):
    """The requested divisibility face of the alcove is empty."""


def _alcove_wall_values(datum: RootDatum, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact wall values of x; raises AlcoveMembershipError if x is not in the alcove."""
    vals = datum.wall_values([Fraction(c) for c in x])
    if not _in_alcove(vals):
        raise AlcoveMembershipError(f"point {x} is outside the fundamental alcove")
    return vals


def _solve_columns(a: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Columns of the inverse of an integer matrix, by exact Gauss-Jordan."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(1 if i == k else 0) for k in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [[aug[i][n + k] for i in range(n)] for k in range(n)]


@dataclass(frozen=True)
class AlcoveGeometry:
    """Vertices and coweights of the fundamental alcove of a root datum."""

    datum: RootDatum
    coweights: tuple[FractionVector, ...]  # omega_1_vee .. omega_r_vee
    vertices: tuple[FractionVector, ...]  # indexed by node: 0, v_1, ..., v_r

    @property
    def rank(self) -> int:
        return self.datum.rank


@lru_cache(maxsize=None)
def alcove_geometry(datum: RootDatum) -> AlcoveGeometry:
    """Build the alcove geometry: v_0 = 0 and v_j = omega_j_vee / n_j."""
    r = datum.rank
    coweights = tuple(tuple(col) for col in _solve_columns(datum.cartan))
    vertices = ((Fraction(0),) * r,) + tuple(
        tuple(c / n for c in w) for n, w in zip(datum.theta, coweights)
    )
    marks = (1,) + datum.theta
    for j, vertex in enumerate(vertices):
        # vertex j lies on every wall but wall j, at height 1/n_j over it
        expect = tuple(Fraction(1, marks[j]) if i == j else 0 for i in range(r + 1))
        require(datum.wall_values(vertex) == expect, "alcove vertex fails its wall equations")
    return AlcoveGeometry(datum, coweights, vertices)


def barycenter(geometry: AlcoveGeometry, face: FaceIndex) -> FractionVector:
    """Barycenter of the face: average of the vertices off the face's walls."""
    nodes = face.complement()
    r = geometry.rank
    acc = [Fraction(0)] * r
    for i in nodes:
        for k in range(r):
            acc[k] += geometry.vertices[i][k]
    return tuple(c / len(nodes) for c in acc)


def face_of_point(geometry: AlcoveGeometry, x: Sequence[Fraction]) -> FaceIndex:
    """The set of alcove walls containing x; errors if x is not in the alcove."""
    datum = geometry.datum
    vals = _alcove_wall_values(datum, x)
    return FaceIndex.of(datum, (j for j, v in enumerate(vals) if v == 0))


def face_a_of_m(geometry: AlcoveGeometry, m: int) -> FaceIndex:
    """The face where every coroot integer off the wall set is divisible by m."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    datum = geometry.datum
    nodes = {i for i in range(datum.rank + 1) if datum.coroot_integers[i] % m}
    if len(nodes) == datum.rank + 1:
        raise EmptyFaceError(f"no coroot integer is divisible by {m}")
    return FaceIndex.of(datum, nodes)


def spin_vertex_table(ell: int) -> dict[str, list[FractionVector]]:
    """Vertices of the nested even-spin alcoves in the standard basis of R^ell.

    Returns the two columns {u_i} (rank ell-1 alcove, inside span(e_2..e_ell))
    and {v_i} (rank ell alcove); the origin vertex is implicit in both.
    """
    if ell < 4:
        raise ValueError("need ell >= 4")
    half = Fraction(1, 2)

    def vec(entries: dict[int, Fraction]) -> FractionVector:
        return tuple(entries.get(i, Fraction(0)) for i in range(1, ell + 1))

    u: list[FractionVector] = [vec({2: Fraction(1)})]
    for i in range(2, ell - 2):
        u.append(vec({k: half for k in range(2, i + 2)}))
    u.append(vec({**{k: half for k in range(2, ell)}, ell: -half}))
    u.append(vec({k: half for k in range(2, ell + 1)}))

    v: list[FractionVector] = [vec({1: Fraction(1)})]
    for i in range(2, ell - 1):
        v.append(vec({k: half for k in range(1, i + 1)}))
    v.append(vec({**{k: half for k in range(1, ell)}, ell: -half}))
    v.append(vec({k: half for k in range(1, ell + 1)}))
    return {"u": u, "v": v}
