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
from operator import mul

from .homology import require, smith_normal_form
from .rootdata import FaceIndex, RootDatum

FractionVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class AlcoveGeometry:
    """Vertices and coweights of the fundamental alcove of a root datum."""

    datum: RootDatum
    coweights: tuple[FractionVector, ...]  # omega_1_vee .. omega_r_vee
    vertices: tuple[FractionVector, ...]  # indexed by node: 0, v_1, ..., v_r


@lru_cache(maxsize=None)
def alcove_geometry(datum: RootDatum) -> AlcoveGeometry:
    """Build the alcove geometry: v_0 = 0 and v_j = omega_j_vee / n_j, the
    coweights being the columns of A^-1 = V*D^-1*U, from A's Smith form U*A*V = D."""
    r = datum.rank
    u, d, v = smith_normal_form(datum.cartan)
    top = d[-1][-1]  # a multiple of every divisor d_t
    top_d_inv_u = [[top // d[t][t] * x for x in row] for t, row in enumerate(u)]
    coweights = tuple(
        tuple(Fraction(sum(map(mul, row, col)), top) for row in v) for col in zip(*top_d_inv_u)
    )
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
    r = geometry.datum.rank
    acc = [Fraction(0)] * r
    for i in nodes:
        for k in range(r):
            acc[k] += geometry.vertices[i][k]
    return tuple(c / len(nodes) for c in acc)

