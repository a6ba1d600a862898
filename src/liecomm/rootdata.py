"""Root-system data for the simple compact Lie types, derived from Cartan matrices.

Conventions (fixed once, used everywhere):

* Node numbering follows the Bourbaki plates; node 0 is the extra node of the
  extended diagram, attached to the lowest root.
* The Cartan matrix is stored as ``a[i][j] = alpha_i(alpha_j_vee)``, so the
  simple reflection s_i acts on coroot coordinates by
  ``alpha_j_vee -> alpha_j_vee - a[i][j] * alpha_i_vee``.
* The affine walls are tabled once, by node j = 0..r: the functional a_j
  (a_0 = -theta, a_j = alpha_j, as rows on coroot coordinates), the coroot
  c_j (c_0 = -theta_vee, c_j = alpha_j_vee) and the bound b_j (-1 at node 0,
  else 0).  The alcove is {a_j(x) >= b_j for every j}, and the reflection in
  wall j is s_j(x) = x - (a_j(x) - b_j) * c_j.
* All vectors live in the simple-coroot basis unless stated otherwise, and all
  arithmetic in this module is exact: integers and Fractions only.
* The root closure forms only the positive roots, and the exponents are
  read off it: the numbers of positive roots of each height form the
  partition dual to the exponents (Kostant, Amer. J. Math. 81, 1959;
  Humphreys, Reflection Groups and Coxeter Groups 3.20).  The closure is
  checked against the Cartan matrix, not stored beside it: theta_k /
  theta_vee_k = |theta|^2 / |alpha_k|^2, so that ratio, scaled to integers
  d_k, must symmetrize it, d_i * a[i][j] == d_j * a[j][i].
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm, prod
from typing import Iterable, Sequence

from .homology import (
    FinAbGroup, _SparseMatrix, exact_quotient, require, scale_to_integers, snf_divisors
)

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class LieTypeError(ValueError):
    """Inadmissible family/rank combination, or an unparseable group name."""


_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}
_EXCEPTIONAL_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}

_NAME_RE = re.compile(r"^([A-Ga-g])[_ ]?(\d+)$")
_GROUP_RE = re.compile(r"^(SU|Spin|Sp)\((\d+)\)$", re.IGNORECASE)


@dataclass(frozen=True)
class LieType:
    """A simple Lie type: family A-G plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        fam = self.family.upper()
        object.__setattr__(self, "family", fam)
        if fam not in _RANK_BOUNDS:
            raise LieTypeError(f"unknown family {self.family!r}")
        lo, hi = _RANK_BOUNDS[fam]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise LieTypeError(f"rank {self.rank} is not admissible for family {fam}")

    def canonical(self) -> "LieType":
        """Resolve the exceptional isomorphisms B2 = C2 and D3 = A3."""
        if self.family == "B" and self.rank == 2:
            return LieType("C", 2)
        if self.family == "D" and self.rank == 3:
            return LieType("A", 3)
        return self

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def weyl_order(self) -> int:
        """|W| in closed form (Bourbaki plates), known before the root datum."""
        f, r = self.family, self.rank
        classical = {"A": r + 1, "B": 2**r, "C": 2**r, "D": 2 ** (r - 1)}
        return factorial(r) * classical[f] if f in classical else _EXCEPTIONAL_ORDERS[self.name]

    @classmethod
    def parse(cls, text: str) -> "LieType":
        """Parse 'E8', 'a_2', or a group name 'SU(5)', 'Spin(9)', 'Sp(3)'."""
        text = text.strip()
        m = _NAME_RE.match(text)
        if m:
            return cls(m.group(1).upper(), int(m.group(2)))
        m = _GROUP_RE.match(text)
        if not m:
            raise LieTypeError(f"cannot parse Lie type {text!r}")
        kind, arg = m.group(1).lower(), int(m.group(2))
        if kind == "su":
            if arg < 2:
                raise LieTypeError("SU(m) needs m >= 2")
            return cls("A", arg - 1)
        if kind == "sp":
            if arg < 1:
                raise LieTypeError("Sp(k) needs k >= 1")
            return cls("A", 1) if arg == 1 else cls("C", arg)
        # Spin(k)
        if arg < 3 or arg == 4:
            raise LieTypeError("Spin(k) is simple only for k = 3 or k >= 5")
        if arg == 3:
            return cls("A", 1)
        if arg % 2:
            return cls("B", (arg - 1) // 2)
        return cls("D", arg // 2)


def _cartan_matrix(lt: LieType) -> Matrix:
    f, r = lt.family, lt.rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if f == "A":
        for i in range(r - 1):
            bond(i, i + 1)
    elif f == "B":
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 2, r - 1, -2, -1)
    elif f == "C":
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 2, r - 1, -1, -2)
    elif f == "D":
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 3, r - 1)
    elif f == "E":
        for i, j in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: r - 2]:
            bond(i, j)
        bond(1, 3)
    elif f == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    else:  # G2
        bond(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


def _root_closure(cartan: Matrix) -> tuple[set[Vector], tuple[Vector, ...] | None]:
    """The positive roots, raised from the simple roots, and the top entry.

    The walk carries, for each frontier root c (simple-root basis), its coroot
    g (simple-coroot basis), p = c . A (p_i = beta(alpha_i_vee)) and q = A . g
    (q_i = alpha_i(beta_vee)).  s_i is applied only when p_i < 0, raising the
    height by subtracting p_i e_i, q_i e_i, p_i * (row i of A) and q_i *
    (column i of A) from c, g, p and q, an O(r) step.  Each positive root is
    reached: s_i lowers a non-simple one with p_i > 0.  Only the roots are
    kept; the top entry is the (c, g, p, q) of the first root reached at the
    greatest height, tracked by height, as a frontier level may mix heights.
    """
    r = len(cartan)
    cols = tuple(zip(*cartan))
    unit = [tuple(int(k == i) for k in range(r)) for i in range(r)]
    frontier = list(zip(unit, unit, cartan, cols))
    roots = set(unit)
    top, top_height = (frontier[0] if frontier else None), 1
    while frontier:
        fresh = []
        for c, g, p, q in frontier:
            for i, pi in enumerate(p):
                if pi >= 0 or (c2 := c[:i] + (c[i] - pi,) + c[i + 1 :]) in roots:
                    continue
                qi = q[i]
                g2 = g[:i] + (g[i] - qi,) + g[i + 1 :]
                p2 = tuple(x - pi * y for x, y in zip(p, cartan[i]))
                q2 = tuple(x - qi * y for x, y in zip(q, cols[i]))
                roots.add(c2)
                fresh.append((c2, g2, p2, q2))
                if (height := sum(c2)) > top_height:
                    top, top_height = fresh[-1], height
        frontier = fresh
    return roots, top


@dataclass(frozen=True)
class RootDatum:
    """All root-system data of a simple type, derived from its Cartan matrix."""

    lie_type: LieType
    cartan: Matrix
    positive_roots: tuple[Vector, ...]
    theta: Vector
    theta_vee: Vector
    coroot_integers: tuple[int, ...]
    exponents: tuple[int, ...]
    degrees: tuple[int, ...]
    wall_functionals: Matrix  # a_j by node j = 0..r
    wall_coroots: Matrix  # c_j by node j = 0..r
    wall_bounds: Vector  # b_j by node j = 0..r

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def wall_values(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The heights a_j(x) - b_j of coroot coordinates x over the walls, by node."""
        return tuple(
            sum((a * c for a, c in zip(row, x)), Fraction(-b))
            for row, b in zip(self.wall_functionals, self.wall_bounds)
        )

    def to_json_dict(self) -> dict:
        return {
            "family": self.lie_type.family,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "coroot_integers": list(self.coroot_integers),
            "root_integers": list(self.theta),
            "degrees": list(self.degrees),
            "weyl_order": self.lie_type.weyl_order,
        }


@lru_cache(maxsize=None)
def _build(lt: LieType) -> RootDatum:
    cartan = _cartan_matrix(lt)
    r = lt.rank
    roots, (theta, theta_vee, theta_functional, _) = _root_closure(cartan)
    positives = sorted(roots)
    heights = [sum(c) for c in positives]
    hmax = max(heights)
    require(heights.count(hmax) == 1, "highest root is not unique")
    coroot_integers = (1,) + tuple(theta_vee)
    require(all(n >= 1 for n in coroot_integers), "coroot integers must be positive")
    unit = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    wall_functionals = (tuple(-c for c in theta_functional),) + cartan
    wall_coroots = (tuple(-c for c in theta_vee),) + unit
    h = exact_quotient(2 * len(positives), r, "root count is not r*h/2")
    require(hmax + 1 == h, "the highest root's height is not h - 1")
    # the exponents are the partition dual to the root counts by height
    by_height = Counter(heights).values()
    exps = tuple(sum(n >= j for n in by_height) for j in range(r, 0, -1))
    degrees = tuple(e + 1 for e in exps)
    require(prod(degrees) == lt.weyl_order, "the product of the degrees is not |W| in closed form")
    # a symmetrizer d_k: theta_k / theta_vee_k = |theta|^2 / |alpha_k|^2, scaled to integers
    _, (d,) = scale_to_integers([[Fraction(t, tv) for t, tv in zip(theta, theta_vee)]])
    ok = all(d[i] * cartan[i][j] == d[j] * cartan[j][i] for i, j in combinations(range(r), 2))
    require(ok, "theta / theta_vee does not symmetrize the Cartan matrix")
    return RootDatum(
        lie_type=lt,
        cartan=cartan,
        positive_roots=tuple(positives),
        theta=theta,
        theta_vee=theta_vee,
        coroot_integers=coroot_integers,
        exponents=exps,
        degrees=degrees,
        wall_functionals=wall_functionals,
        wall_coroots=wall_coroots,
        wall_bounds=(-1,) + (0,) * r,
    )


def build_root_datum(lie_type: LieType | str) -> RootDatum:
    """Root datum for a simple type (accepts LieType, 'F4', or 'Spin(9)')."""
    lt = LieType.parse(lie_type) if isinstance(lie_type, str) else lie_type
    return _build(lt.canonical())


def dynkin_index(datum: RootDatum) -> int:
    """lcm of the coroot integers (including the affine node's 1)."""
    return lcm(*datum.coroot_integers)


@dataclass(frozen=True)
class FaceIndex:
    """A proper subset of the extended node set {0, 1, ..., r}.

    Indexes the face of the fundamental alcove cut out by the walls it names;
    the face has dimension r - |nodes|.
    """

    nodes: frozenset[int]
    rank: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(int(i) for i in self.nodes))
        if not all(0 <= i <= self.rank for i in self.nodes):
            raise ValueError("node indices must lie in 0..rank")
        if len(self.nodes) == self.rank + 1:
            raise ValueError("face index must be a proper subset of the extended nodes")

    @classmethod
    def of(cls, datum: RootDatum, nodes: Iterable[int]) -> "FaceIndex":
        return cls(frozenset(nodes), datum.rank)

    @property
    def dim(self) -> int:
        return self.rank - len(self.nodes)

    def complement(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.rank + 1) if i not in self.nodes)

    def sorted_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))

    def check_rank(self, datum: RootDatum) -> None:
        if self.rank != datum.rank:
            raise ValueError(f"a face of rank {self.rank} is not a face of {datum.lie_type.name}")


def all_faces(datum: RootDatum) -> list[FaceIndex]:
    """Every face of the alcove, by number of walls, then lexicographically."""
    nodes = range(datum.rank + 1)
    return [FaceIndex.of(datum, c) for k in range(datum.rank + 1) for c in combinations(nodes, k)]


def n_vee(datum: RootDatum, face: FaceIndex) -> int:
    """gcd of the coroot integers over the complement of the face's node set."""
    face.check_rank(datum)
    return gcd(*(datum.coroot_integers[i] for i in face.complement()))


def zeta_class(datum: RootDatum, face: FaceIndex) -> tuple[Fraction, ...]:
    """Generator of the torsion of the lattice quotient, in the coroot basis.

    (1/n_vee) * sum of n_i_vee * c_i over the complement nodes, c_i the wall
    coroots (c_0 = -theta_vee).
    """
    nv = n_vee(datum, face)
    acc = [0] * datum.rank
    for i in face.complement():
        n = datum.coroot_integers[i]
        acc = [s + n * c for s, c in zip(acc, datum.wall_coroots[i])]
    return tuple(Fraction(c, nv) for c in acc)


def lattice_quotient(datum: RootDatum, face: FaceIndex) -> tuple[int, FinAbGroup]:
    """Quotient of the coroot lattice by the face's sublattice, via Smith form.

    Returns (free_rank, torsion).  The sublattice is spanned by the wall
    coroots c_i of the nodes in the face (c_0 = -theta_vee), the columns of
    an r x |face| matrix built directly as sparse rows.  The result is
    required to be (face.dim, Z/n_vee).  Raises ValueError when the face is
    of another rank.
    """
    torsion = FinAbGroup(0, (n_vee(datum, face),))  # first, as n_vee checks the rank
    r = datum.rank
    nodes = face.sorted_nodes()
    rows: list[dict[int, int]] = [{} for _ in range(r)]
    for j, node in enumerate(nodes):
        for i, c in enumerate(datum.wall_coroots[node]):
            if c:
                rows[i][j] = c
    divisors = snf_divisors(_SparseMatrix(rows, (r, len(nodes)))) if nodes else []
    free = r - len(divisors)
    if free != face.dim or tuple(d for d in divisors if d > 1) != torsion.torsion:
        # formatted only on failure: this runs once per face in every oracle sweep
        require(False, f"{datum.lie_type.name} face {nodes}: Smith form disagrees with n_vee")
    return free, torsion
