"""Root-system data for the simple compact Lie types, derived from Cartan matrices.

Conventions (fixed once, used everywhere):

* Node numbering follows the Bourbaki plates; node 0 is the extra node of the
  extended diagram, attached to the lowest root.
* The Cartan matrix is stored as ``a[i][j] = alpha_i(alpha_j_vee)``, so the
  simple reflection s_i acts on coroot coordinates by
  ``alpha_j_vee -> alpha_j_vee - a[i][j] * alpha_i_vee``.
* All vectors live in the simple-coroot basis unless stated otherwise, and all
  arithmetic in this module is exact: integers and Fractions, and float32
  matrix products only under a checked bound that keeps them exact.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from typing import Iterable, Sequence

import numpy as np

from .homology import FinAbGroup, exact_quotient, require, snf_divisors

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


def _root_closure(cartan: Matrix) -> dict[Vector, Vector]:
    """All roots with their coroots, closed under the simple reflections.

    Keys are root coordinates (simple-root basis), values are the matching
    coroot coordinates (simple-coroot basis).
    """
    r = len(cartan)
    unit = lambda i: tuple(1 if k == i else 0 for k in range(r))
    roots: dict[Vector, Vector] = {unit(i): unit(i) for i in range(r)}
    frontier = list(roots.items())
    while frontier:
        fresh = []
        for c, g in frontier:
            for i in range(r):
                pr = sum(c[j] * cartan[j][i] for j in range(r))  # beta(alpha_i_vee)
                c2 = list(c)
                c2[i] -= pr
                c2t = tuple(c2)
                if c2t in roots:
                    continue
                pc = sum(cartan[i][j] * g[j] for j in range(r))  # alpha_i(beta_vee)
                g2 = list(g)
                g2[i] -= pc
                roots[c2t] = tuple(g2)
                fresh.append((c2t, tuple(g2)))
        frontier = fresh
    return roots


_POWER_CHUNK = 1 << 14  # matrices per float32 batch; bounds the temporaries
_FLOAT32_EXACT = 1 << 24  # float32 holds every integer of smaller magnitude exactly


def charpoly_buckets(stack: np.ndarray) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Characteristic polynomials det(xI - w) of a stack of integer matrices, counted.

    Returns sorted (ascending coefficients, count) pairs.  A charpoly is fixed
    by the power sums p_k = tr(w^k), k = 1..r, through Newton's identities.
    The powers are batched float32 products, exact because every partial sum
    stays below 2^24: r * max|w^k| * max|w| < 2^24 is checked before each
    product and trace.  Rows of power sums are counted chunk by chunk, and only
    the distinct rows are turned into charpolys, in Python ints.
    """
    n, r, _ = stack.shape
    counts: Counter[tuple[int, ...]] = Counter()
    for start in range(0, n, _POWER_CHUNK):
        w = stack[start : start + _POWER_CHUNK].astype(np.float32)
        w_max = float(np.abs(w).max())
        sums = np.empty((len(w), r), dtype=np.int64)
        power = w
        for k in range(r):
            require(
                r * float(np.abs(power).max()) * w_max < _FLOAT32_EXACT,
                "matrix powers leave the exact float32 range",
            )
            sums[:, k] = np.trace(power, axis1=1, axis2=2)
            if k + 1 < r:
                power = power @ w
        sums = sums[np.lexsort(sums.T)]
        starts = np.flatnonzero(np.concatenate(([True], np.any(sums[1:] != sums[:-1], axis=1))))
        sizes = np.diff(np.append(starts, len(sums)))
        for row, size in zip(sums[starts].tolist(), sizes.tolist()):
            counts[tuple(row)] += size
    return tuple(sorted((_newton(p), c) for p, c in counts.items()))


def _newton(p: Sequence[int]) -> tuple[int, ...]:
    """Ascending coefficients of det(xI - w) from the power sums p_k = tr(w^k)."""
    e = [1]  # elementary symmetric functions of the eigenvalues
    for k in range(1, len(p) + 1):
        s = sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1))
        e.append(exact_quotient(s, k, "Newton's identities give a non-integral coefficient"))
    return tuple((-1) ** k * e[k] for k in range(len(p), -1, -1))


def _poly_divmod(num: Sequence[int], den: Sequence[int]):
    """Division of integer polynomials (ascending coeffs, monic divisor)."""
    num = list(num)
    den = list(den)
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    dn, dd = len(num) - 1, len(den) - 1
    quot = [0] * max(dn - dd + 1, 1)
    for k in range(dn - dd, -1, -1):
        q = num[k + dd]
        quot[k] = q
        if q:
            for i, c in enumerate(den):
                num[k + i] -= q * c
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Cyclotomic polynomial Phi_d, ascending integer coefficients."""
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _poly_divmod(poly, _cyclotomic(e))
            require(not any(rem), "cyclotomic division left a remainder")
    return tuple(poly)


def _coxeter_exponents(cartan: Matrix, h: int) -> tuple[int, ...]:
    """Exponents of W from the eigenvalue angles of a Coxeter element.

    The Coxeter element has order h and eigenvalues exp(2*pi*i*m/h); the
    multiset of angles is read off exactly by factoring its characteristic
    polynomial into cyclotomics.
    """
    r = len(cartan)
    cox = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for i in range(r):
        # left-multiply by the reflection s_i acting on coroot coordinates
        s = [[(1 if k == j else 0) - (cartan[i][j] if k == i else 0) for j in range(r)] for k in range(r)]
        cox = [
            [sum(s[a][b] * cox[b][c] for b in range(r)) for c in range(r)]
            for a in range(r)
        ]
    ((poly, _),) = charpoly_buckets(np.array([cox]))
    poly = list(poly)
    exponents: list[int] = []
    for d in range(1, h + 1):
        if h % d:
            continue
        phi = _cyclotomic(d)
        while len(poly) > len(phi) or (len(poly) == len(phi) and len(poly) > 1):
            quot, rem = _poly_divmod(poly, phi)
            if any(rem):
                break
            poly = quot
            exponents.extend(h * k // d for k in range(1, d + 1) if gcd(k, d) == 1)
    factored = len(exponents) == r and poly == [1]
    require(factored, "Coxeter charpoly did not factor into cyclotomics")
    return tuple(sorted(exponents))


def _symmetrizer(cartan: Matrix) -> tuple[Fraction, ...]:
    """Positive rationals d_i with d_i * a[i][j] == d_j * a[j][i], minimal integers."""
    r = len(cartan)
    d: list[Fraction | None] = [None] * r
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(r):
            if i != j and cartan[i][j] and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                todo.append(j)
    if any(x is None for x in d):
        raise LieTypeError("Cartan matrix is not connected")
    scale = lcm(*(x.denominator for x in d))
    ints = [x * scale for x in d]
    g = gcd(*(int(x) for x in ints))
    out = tuple(Fraction(int(x) // g) for x in ints)
    ok = all(out[i] * cartan[i][j] == out[j] * cartan[j][i] for i in range(r) for j in range(r))
    require(ok, "symmetrizer failed")
    return out


@dataclass(frozen=True)
class RootDatum:
    """All root-system data of a simple type, derived from its Cartan matrix."""

    lie_type: LieType
    cartan: Matrix
    symmetrizer: tuple[Fraction, ...]
    positive_roots: tuple[Vector, ...]
    positive_coroots: tuple[Vector, ...]
    theta: Vector
    theta_vee: Vector
    coroot_integers: tuple[int, ...]
    exponents: tuple[int, ...]
    degrees: tuple[int, ...]
    coxeter_number: int
    weyl_order: int

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def alpha_value(self, j: int, x: Sequence[Fraction]) -> Fraction:
        """alpha_j evaluated on coroot-basis coordinates x (node j in 1..r)."""
        row = self.cartan[j - 1]
        return sum((Fraction(row[k]) * x[k] for k in range(self.rank)), Fraction(0))

    def wall_values(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """(alpha_1(x), ..., alpha_r(x), theta(x))."""
        vals = tuple(self.alpha_value(j, x) for j in range(1, self.rank + 1))
        return vals + (sum((Fraction(self.theta[j]) * vals[j] for j in range(self.rank)), Fraction(0)),)

    def contains_in_alcove(self, x: Sequence[Fraction]) -> bool:
        return _in_alcove(self.wall_values(x))

    def to_json_dict(self) -> dict:
        return {
            "family": self.lie_type.family,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "coroot_integers": list(self.coroot_integers),
            "root_integers": list(self.theta),
            "degrees": list(self.degrees),
            "weyl_order": self.weyl_order,
        }


def _in_alcove(vals: Sequence[Fraction]) -> bool:
    """The alcove inequalities on wall values (alpha_1, ..., alpha_r, theta)."""
    return all(v >= 0 for v in vals[:-1]) and vals[-1] <= 1


@lru_cache(maxsize=None)
def _build(lt: LieType) -> RootDatum:
    cartan = _cartan_matrix(lt)
    r = lt.rank
    closure = _root_closure(cartan)
    positives = sorted(c for c in closure if all(x >= 0 for x in c))
    for c in closure:
        require(all(x >= 0 for x in c) or all(x <= 0 for x in c), f"mixed-sign root {c}")
    heights = [sum(c) for c in positives]
    hmax = max(heights)
    thetas = [c for c, h in zip(positives, heights) if h == hmax]
    require(len(thetas) == 1, "highest root is not unique")
    theta = thetas[0]
    theta_vee = closure[theta]
    coroot_integers = (1,) + tuple(theta_vee)
    require(all(n >= 1 for n in coroot_integers), "coroot integers must be positive")
    h = exact_quotient(2 * len(positives), r, "root count is not r*h/2")
    exps = _coxeter_exponents(cartan, h)
    degrees = tuple(e + 1 for e in exps)
    require(sum(degrees) - r == len(positives), "degrees do not match the positive root count")
    require(max(degrees) == h, "largest degree disagrees with the Coxeter number")
    return RootDatum(
        lie_type=lt,
        cartan=cartan,
        symmetrizer=_symmetrizer(cartan),
        positive_roots=tuple(positives),
        positive_coroots=tuple(closure[c] for c in positives),
        theta=theta,
        theta_vee=theta_vee,
        coroot_integers=coroot_integers,
        exponents=exps,
        degrees=degrees,
        coxeter_number=h,
        weyl_order=prod(degrees),
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

    def __contains__(self, i: int) -> bool:
        return i in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def sorted_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))


def all_faces(datum: RootDatum) -> list[FaceIndex]:
    """Every face of the alcove, by number of walls, then lexicographically."""
    nodes = range(datum.rank + 1)
    return [FaceIndex.of(datum, c) for k in range(datum.rank + 1) for c in combinations(nodes, k)]


def n_vee(datum: RootDatum, face: FaceIndex) -> int:
    """gcd of the coroot integers over the complement of the face's node set."""
    return gcd(*(datum.coroot_integers[i] for i in face.complement()))


def zeta_class(datum: RootDatum, face: FaceIndex) -> tuple[Fraction, ...]:
    """Generator of the torsion of the lattice quotient, in the coroot basis.

    (1/n_vee) * sum of n_i_vee * alpha_i_vee over the complement nodes, with
    the node-0 coroot expanded as minus the sum of the others.
    """
    r = datum.rank
    nv = n_vee(datum, face)
    acc = [Fraction(0)] * r
    for i in face.complement():
        n = datum.coroot_integers[i]
        if i == 0:
            for j in range(r):
                acc[j] -= n * datum.coroot_integers[j + 1]
        else:
            acc[i - 1] += n
    return tuple(Fraction(c, nv) for c in acc)


def lattice_quotient(datum: RootDatum, face: FaceIndex) -> tuple[int, FinAbGroup]:
    """Quotient of the coroot lattice by the face's sublattice, via Smith form.

    Returns (free_rank, torsion).  The sublattice is spanned by the coroots of
    the nodes in the face; node 0 contributes minus the weighted sum of the
    simple coroots.
    """
    r = datum.rank
    cols = []
    for i in face.sorted_nodes():
        if i == 0:
            cols.append([-datum.coroot_integers[j + 1] for j in range(r)])
        else:
            cols.append([1 if j == i - 1 else 0 for j in range(r)])
    if cols:
        mat = [[cols[c][row] for c in range(len(cols))] for row in range(r)]
        divisors = snf_divisors(mat)
    else:
        divisors = []
    free = r - len(divisors)
    torsion = FinAbGroup.from_divisors([d for d in divisors if d > 1])
    return free, torsion
