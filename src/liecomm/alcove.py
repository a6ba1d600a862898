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
from .rootdata import FaceIndex, RootDatum

FractionVector = tuple[Fraction, ...]


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

