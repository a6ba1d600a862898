"""Brute-force simplicial topology: triangulated tori, subdivision, quotients.

The n-torus is triangulated by the monotone-path simplices of the half-integer
grid.  Coordinate inversion fixes every grid vertex but is only simplicial
after one barycentric subdivision (it is affine on each closed cell), so
``torus_triangulation`` returns the subdivided complex together with the
induced involution on its vertices.  That one subdivision also makes the
involution regular, so the torus quotient never subdivides again.  One
routine, ``_subdivide``, builds every barycentric subdivision: the torus with
its geometric cells and ``barycentric_subdivide`` with the faces of a
complex; it canonicalizes each cell of each top once.  Quotients check
regularity in the same orbit pass that builds them and refuse to proceed
when it fails.  Boundary matrices are built as sparse rows, the one format
the homology oracle reads.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, combinations, permutations, product
from operator import or_
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .homology import FinAbGroup, _SparseMatrix, chain_homology, require


class RegularityError(ValueError):
    """The involution is not regular on this complex; subdivide further."""


class SimplicialError(ValueError):
    """Malformed complex or non-simplicial vertex map."""


class SimplicialComplex:
    """An abstract simplicial complex given by its maximal simplices."""

    def __init__(self, facets: Iterable[Sequence[Hashable]]):
        cleaned = set()
        for f in facets:
            listed = tuple(f)
            face = tuple(sorted(set(listed)))
            if len(face) != len(listed):
                raise SimplicialError(f"facet {listed!r} repeats a vertex")
            if face:
                cleaned.add(face)
        if not cleaned:
            raise SimplicialError("complex must have at least one simplex")
        # largest first, so a face of a kept facet is already in its level
        levels: list[set[tuple]] = [set() for _ in range(max(map(len, cleaned)))]
        kept: list[tuple] = []
        for f in sorted(cleaned, key=len, reverse=True):
            if f in levels[len(f) - 1]:
                continue
            kept.append(f)
            for size in range(1, len(f) + 1):
                levels[size - 1].update(combinations(f, size))
        self.facets: tuple[tuple, ...] = tuple(sorted(kept))
        self._levels = levels

    @cached_property
    def faces_by_dim(self) -> list[list[tuple]]:
        return [sorted(level) for level in self._levels]

    @cached_property
    def face_set(self) -> set[tuple]:
        return set().union(*self._levels)

    @property
    def vertices(self) -> tuple:
        return tuple(v for (v,) in self.faces_by_dim[0])

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces_by_dim)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.f_vector()))

    def boundary_matrices(self) -> list[_SparseMatrix]:
        """Boundary matrices [d_1, ..., d_top] over the sorted face bases.

        Each d_k is built as sparse {column: +-1} rows; np.asarray densifies.
        """
        levels = self.faces_by_dim
        if len(levels) == 1:
            return [_SparseMatrix([{}] * len(levels[0]), (len(levels[0]), 0))]
        mats = []
        for k in range(1, len(levels)):
            index = {face: i for i, face in enumerate(levels[k - 1])}
            rows: list[dict[int, int]] = [{} for _ in levels[k - 1]]
            for col, face in enumerate(levels[k]):
                for i in range(k + 1):
                    rows[index[face[:i] + face[i + 1 :]]][col] = (-1) ** i
            mats.append(_SparseMatrix(rows, (len(levels[k - 1]), len(levels[k]))))
        return mats

    def homology(self) -> list[FinAbGroup]:
        return chain_homology(self.boundary_matrices())


def _subdivide(
    tops: Sequence[Sequence[Hashable]],
    cell_of: Callable[[tuple], tuple],
    image: Callable[[tuple], tuple],
):
    """Order complex of the cells spanned by tops: the one barycentric subdivision.

    cell_of names the cell of a tuple of top vertices; every face of a top is
    a cell, labelled by its position in (size, cell) order.  cell_of runs once
    per nonempty vertex subset of each top, which is indexed by its bitmask.
    Each ordering of a top's vertices gives one chain of prefixes, a facet of
    the result, whose labels are those of the prefixes' masks.  Returns
    (subdivision, image transported to a map on labels).
    """
    subsets = [
        [
            cell_of(tuple(v for i, v in enumerate(top) if mask >> i & 1))
            for mask in range(1, 1 << len(top))
        ]
        for top in tops
    ]
    cells = set().union(*subsets)
    label = {cell: i for i, cell in enumerate(sorted(cells, key=lambda c: (len(c), c)))}
    # the prefix bitmasks of each ordering, shared by every top of a size
    chains = {
        size: [tuple(accumulate((1 << i for i in perm), or_)) for perm in permutations(range(size))]
        for size in {len(top) for top in tops}
    }
    facets = []
    for top, by_mask in zip(tops, subsets):
        labels = [None] + [label[cell] for cell in by_mask]
        facets.extend(tuple(labels[mask] for mask in chain) for chain in chains[len(top)])
    sd = SimplicialComplex(facets)
    transported = {i: label.get(image(cell)) for cell, i in label.items()}
    if None in transported.values():
        raise SimplicialError("involution is not simplicial on the input complex")
    return sd, transported


def barycentric_subdivide(complex_: SimplicialComplex, involution: Mapping[Hashable, Hashable]):
    """Barycentric subdivision; vertices of the result are faces of the input.

    Returns (subdivision, transported involution).  Labels are re-encoded as
    integers in a deterministic order.
    """
    return _subdivide(
        complex_.facets,
        lambda face: tuple(sorted(face)),
        lambda face: tuple(sorted(involution[v] for v in face)),
    )


def quotient_by_involution(
    complex_: SimplicialComplex, involution: Mapping[Hashable, Hashable]
) -> SimplicialComplex:
    """Orbit complex of a regular simplicial involution, from one regularity
    pass over the faces; under regularity it triangulates the topological
    quotient.

    With rep(v) = min(v, involution[v]), the faces over one set of vertex
    orbits must form the single orbit {face, image}.  That excludes collapse
    (a face with two vertices in one orbit has the orbit set of the face
    minus one of them), and then a face {g_i v_i} over the orbits of {v_i}
    is g{v_i}, so g v_i = g_i v_i: Bredon's regularity.  A breach raises
    RegularityError, asking for further subdivision; a map that is not a
    simplicial involution of the vertices raises SimplicialError.
    """
    verts = set(complex_.vertices)
    if set(involution) != verts:
        raise SimplicialError("involution must be defined exactly on the vertices")
    for v in verts:
        if involution[involution[v]] != v:
            raise SimplicialError("vertex map is not an involution")
    rep = {v: min(v, w) for v, w in involution.items()}
    face_set = complex_.face_set
    lifts: dict[tuple, tuple] = {}  # orbit set -> least of {face, image}
    for face in face_set:
        image = tuple(sorted(involution[v] for v in face))
        if image not in face_set:
            raise SimplicialError("involution is not simplicial")
        lift = min(face, image)
        if lifts.setdefault(tuple(sorted({rep[v] for v in face})), lift) != lift:
            raise RegularityError(
                f"simplex {face} violates regularity; apply barycentric_subdivide and retry"
            )
    return SimplicialComplex(tuple(sorted(rep[v] for v in facet)) for facet in complex_.facets)


# ---------------------------------------------------------------------------
# Triangulated tori with the inversion involution
# ---------------------------------------------------------------------------


def _canonical_cell(points: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Canonical lift of a geometric cell of the torus, in doubled coordinates.

    Grid points are stored as 2x, so the half-integer grid is the integer
    lattice and the torus has period 2.  Cells have per-axis spread at most
    1 (a half period), so translating away the even floor 2 * (min // 2) of
    the per-axis minimum picks a unique representative.
    """
    pts = [tuple(p) for p in points]
    shift = [2 * (min(axis) // 2) for axis in zip(*pts)]
    return tuple(sorted(tuple(x - s for x, s in zip(p, shift)) for p in pts))


def torus_triangulation(n: int):
    """Triangulated n-torus with the coordinate-inversion vertex involution.

    Returns (complex, involution).  The complex is the barycentric subdivision
    of the half-grid monotone-path triangulation: its vertices are the
    geometric cells, on which inversion acts simplicially.  The top simplices
    are the monotone paths from each corner of the doubled unit cube, as
    unreduced grid points.
    """
    if not 1 <= n <= 4:
        raise ValueError("torus triangulation is supported for 1 <= n <= 4")
    tops = []
    for corner in product((0, 1), repeat=n):
        for perm in permutations(range(n)):
            path = [corner]
            for axis in perm:
                path.append(tuple(x + (i == axis) for i, x in enumerate(path[-1])))
            tops.append(path)
    complex_, involution = _subdivide(
        tops, _canonical_cell, lambda cell: _canonical_cell(tuple(-x for x in p) for p in cell)
    )
    require(
        all(involution[jdx] == idx for idx, jdx in involution.items()),
        "inversion transport failed to be an involution",
    )
    return complex_, involution


def torus_inversion_quotient(n: int):
    """Quotient of the triangulated n-torus by inversion.

    The one barycentric subdivision built into torus_triangulation makes
    inversion regular for every supported n: two opposite half-grid cubes of
    the torus meet only in grid vertices.  There is no retry, so a failed
    regularity check raises RegularityError.  Returns (quotient complex, 0),
    the 0 extra subdivisions kept for the benchmark job that unpacks it.
    """
    complex_, involution = torus_triangulation(n)
    return quotient_by_involution(complex_, involution), 0
