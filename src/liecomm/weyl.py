"""Weyl groups as integer matrices on the coroot lattice.

Element index.  Each element w is keyed by its image w*v of one regular
integer vector v, the smallest integral multiple of A^-1 * 1 in coroot
coordinates (rho-vee or 2*rho-vee), so alpha_i(v) > 0 for every simple root.
v lies inside the fundamental chamber and W acts simply transitively on the
chambers, so w -> w*v is injective.  v is dominant and -v is the lowest
point of its orbit, so coordinate i of w*v lies in [-v_i, v_i] and the image
packs by mixed radix (2*v_i + 1) into one int64.  The key width,
sum of log2(2*v_i + 1) bits, peaks at 47.1 bits (E7) over the types below
HARD_ELEMENT_LIMIT, and never exceeds r*log2(2*max(v) + 1) (53.1 at E7).
The keys are kept sorted and queried with np.searchsorted; every query checks
that the element found is the matrix asked for.

Enumeration is a breadth-first search by Coxeter length.  w*s_g is w minus
the outer product of column g of w with row g of the Cartan matrix, and
l(w*s_g) = l(w) +- 1, so each level's products are deduplicated by key among
themselves and against the previous level only.  The elements are then
stored in canonical lexicographic order, so runs are deterministic.

The product table is built without per-product lookups: left multiplication
by each simple reflection is an index permutation found with r*|W| index
queries, and the row of s_g*w is that permutation applied to the row of w.
The table is quadratic in |W| and limited to TABLE_ELEMENT_LIMIT elements,
a limit separate from the enumeration's element_cap.

Molien/Poincare sums, trace statistics and Lefschetz averages are evaluated
per characteristic-polynomial bucket: both det(1 + t*w) and det(1 - t^2*w)
depend only on the characteristic polynomial of w.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from pathlib import Path
from typing import Sequence

import numpy as np

from .alcove import AlcoveGeometry, barycenter
from .invariants import InvariantBreachError
from .rootdata import FaceIndex, RootDatum

WeylMatrix = tuple[tuple[int, ...], ...]

DEFAULT_ELEMENT_CAP = 100_000
HARD_ELEMENT_LIMIT = 10_000_000
TABLE_ELEMENT_LIMIT = 20_000  # |W|^2 int32 product table: 1.6 GB at the limit
CACHE_ENV_VAR = "LIECOMM_CACHE_DIR"
_CACHE_VERSION = 1


class WeylCapError(RuntimeError):
    """Full enumeration, or a table over the group, would exceed its cap."""

    def __init__(self, required: int, cap: int, message: str | None = None):
        self.required = required
        self.cap = cap
        super().__init__(
            message
            or f"enumeration needs {required} elements, above the cap {cap}; "
            "raise element_cap or use the formula-level operations"
        )


class ReductionError(RuntimeError):
    """Affine reduction failed to land in the alcove within the iteration cap."""


def _regular_vector(datum: RootDatum) -> np.ndarray:
    """The smallest integral multiple of A^-1 * 1 in coroot coordinates.

    The sum of the positive coroots is 2*rho-vee, which is integral; halve it
    when that stays integral.
    """
    v = np.sum(np.array(datum.positive_coroots, dtype=np.int64), axis=0)
    if not np.any(v % 2):
        v //= 2
    alpha = np.array(datum.cartan, dtype=np.int64) @ v
    if np.any(alpha != alpha[0]) or alpha[0] <= 0:
        raise InvariantBreachError(f"{datum.lie_type.name}: v is not a multiple of rho-vee")
    return v


def _pack(images: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mixed-radix int64 keys of orbit points w*v, one per trailing vector."""
    weights = np.concatenate(([1], np.cumprod(2 * v[:-1] + 1)))
    return (images + v) @ weights


@dataclass(frozen=True, eq=False)
class WeylGroup:
    """A fully enumerated Weyl group acting on coroot coordinates.

    matrices holds the canonically sorted element stack; it is the primary
    representation (int16 for the largest enumerations).  elements materializes
    the same data as nested tuples on demand.
    """

    datum: RootDatum
    matrices: np.ndarray
    charpoly_buckets: tuple[tuple[tuple[int, ...], int], ...]
    order: int

    @cached_property
    def elements(self) -> tuple[WeylMatrix, ...]:
        return tuple(
            tuple(tuple(int(x) for x in row) for row in mat)
            for mat in self.matrices.tolist()
        )

    @cached_property
    def _array(self) -> np.ndarray:
        return self.matrices.astype(np.int64)

    @cached_property
    def _v(self) -> np.ndarray:
        return _regular_vector(self.datum)

    @cached_property
    def _sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The element keys in ascending order, and the element index of each."""
        keys = _pack(self.matrices @ self._v, self._v)
        perm = np.argsort(keys)
        keys = keys[perm]
        if np.any(keys[1:] == keys[:-1]):
            raise InvariantBreachError(
                f"{self.datum.lie_type.name}: two elements share an orbit key"
            )
        return keys, perm

    def index_of(self, mats) -> np.ndarray:
        """Element indices of a stack of matrices (shape (..., r, r)).

        Raises InvariantBreachError if any matrix is not a group element.
        """
        mats = np.asarray(mats, dtype=np.int64)
        keys, perm = self._sorted_keys
        pos = np.searchsorted(keys, _pack(mats @ self._v, self._v))
        idx = perm[np.minimum(pos, self.order - 1)]
        if not np.array_equal(self.matrices[idx], mats):
            raise InvariantBreachError(
                f"a queried matrix is not an element of the {self.datum.lie_type.name} Weyl group"
            )
        return idx

    @cached_property
    def identity_index(self) -> int:
        return int(self.index_of(np.eye(self.datum.rank, dtype=np.int64)))

    @cached_property
    def _mult_table(self) -> np.ndarray:
        """table[i, j] = index of elements[i] @ elements[j]; small groups only."""
        n, r = self.order, self.datum.rank
        if n > TABLE_ELEMENT_LIMIT:
            raise WeylCapError(
                n,
                TABLE_ELEMENT_LIMIT,
                f"the {self.datum.lie_type.name} Weyl group has {n} elements, above the "
                f"{TABLE_ELEMENT_LIMIT:,}-element limit of its product table (a table at "
                "that size is 1.6 GB of int32); no option raises this limit",
            )
        cartan = np.array(self.datum.cartan, dtype=np.int64)
        arr = self._array
        # left[g, j] = index of s_g * w_j; s_g changes row g only, by cartan[g] @ w
        left = np.empty((r, n), dtype=np.int32)
        for g in range(r):
            prods = arr.copy()
            prods[:, g, :] -= cartan[g] @ arr
            left[g] = self.index_of(prods)
        # rows along a breadth-first tree from the identity: row(s_g w) = left[g][row(w)]
        table = np.empty((n, n), dtype=np.int32)
        e = self.identity_index
        table[e] = np.arange(n, dtype=np.int32)
        done = np.zeros(n, dtype=bool)
        done[e] = True
        frontier = np.array([e])
        while frontier.size:
            children, first = np.unique(left[:, frontier], return_index=True)
            fresh = ~done[children]
            children = children[fresh]
            gens, parents = np.divmod(first[fresh], frontier.size)
            table[children] = left[gens[:, None], table[frontier[parents]]]
            done[children] = True
            frontier = children
        if not done.all():
            raise InvariantBreachError("simple reflections did not reach every element")
        return table

    @cached_property
    def _inverse(self) -> np.ndarray:
        rows, cols = np.nonzero(self._mult_table == self.identity_index)
        if not np.array_equal(rows, np.arange(self.order)):
            raise InvariantBreachError("product table rows do not each hold the identity once")
        return cols.astype(np.int32)

    @cached_property
    def _conjugation_table(self) -> np.ndarray:
        """conj[g, w] = index of g^-1 * w * g."""
        table = self._mult_table
        left = table[self._inverse]  # left[g, w] = g^-1 * w
        return table[left, np.arange(self.order, dtype=np.int32)[:, None]]


@dataclass(frozen=True)
class StabilizerSubgroup:
    """A subgroup of a Weyl group given by its member list."""

    group: WeylGroup
    indices: tuple[int, ...]
    face: FaceIndex | None = None

    @property
    def members(self) -> tuple[WeylMatrix, ...]:
        return tuple(self.group.elements[i] for i in self.indices)

    @property
    def order(self) -> int:
        return len(self.indices)


_MEMO: dict[tuple[str, int], WeylGroup] = {}


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "liecomm"


def _cache_path(datum: RootDatum, cache_dir: Path | None) -> Path:
    base = cache_dir if cache_dir is not None else default_cache_dir()
    return Path(base) / f"weyl_{datum.lie_type.name}_v{_CACHE_VERSION}.npz"


def _charpolys_stack(arr: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a stack of integer matrices, ascending.

    Faddeev-LeVerrier with exact integer divisions; entries stay tiny because
    Weyl matrices have small coordinates.
    """
    n, r, _ = arr.shape
    a = arr.astype(np.int64)
    desc = np.zeros((n, r + 1), dtype=np.int64)
    desc[:, 0] = 1
    m = a.copy()
    eye = np.eye(r, dtype=np.int64)
    for k in range(1, r + 1):
        tr = np.trace(m, axis1=1, axis2=2)
        if np.any(tr % k):
            raise InvariantBreachError("Faddeev-LeVerrier divisibility failed")
        c = -(tr // k)
        desc[:, k] = c
        if k == r:
            break
        m = a @ (m + c[:, None, None] * eye)
    return desc[:, ::-1]  # ascending: coefficient of x^0 first


def generate(
    datum: RootDatum,
    element_cap: int = DEFAULT_ELEMENT_CAP,
    cache_dir: Path | None = None,
) -> WeylGroup:
    """Fully enumerate the Weyl group, deterministically sorted.

    Raises WeylCapError when the order (product of the degrees) exceeds
    element_cap, and unconditionally beyond HARD_ELEMENT_LIMIT; those types
    are served by the formula-level operations instead.
    """
    required = datum.weyl_order
    if required > element_cap or required > HARD_ELEMENT_LIMIT:
        raise WeylCapError(required, min(element_cap, HARD_ELEMENT_LIMIT))
    key = (datum.lie_type.family, datum.lie_type.rank)
    if key in _MEMO:
        return _MEMO[key]
    group = _load_cache(datum, cache_dir)
    if group is None:
        group = _enumerate(datum)
        if datum.rank >= 5:
            _save_cache(group, cache_dir)
    _MEMO[key] = group
    return group


def _bucket_charpolys(arr: np.ndarray, chunk: int = 200_000):
    """Characteristic-polynomial histogram, computed in bounded-memory chunks."""
    buckets: dict[tuple[int, ...], int] = {}
    for start in range(0, arr.shape[0], chunk):
        part = _charpolys_stack(arr[start : start + chunk].astype(np.int64))
        for row in part.tolist():
            key = tuple(row)
            buckets[key] = buckets.get(key, 0) + 1
    return tuple(sorted(buckets.items()))


def _enumerate(datum: RootDatum) -> WeylGroup:
    r = datum.rank
    if datum.rank >= 5:
        print(
            f"liecomm: enumerating the {datum.lie_type.name} Weyl group "
            f"({datum.weyl_order} elements)",
            file=sys.stderr,
        )
    # matrix entries are coroot coordinates of coroots (|entry| <= 6), so the
    # search runs in int8; w - (w e_g) (row g of A) stays within 6 + 6 * 3
    cartan = np.array(datum.cartan, dtype=np.int8)
    v = _regular_vector(datum)
    alpha_v = int(cartan[0].astype(np.int64) @ v)  # alpha_g(v), the same for every g
    level = np.eye(r, dtype=np.int8)[None]
    levels = [level]
    level_keys = _pack(v, v)[None]
    prev_keys = level_keys[:0]
    while True:
        # w * s_g for every w in the level and every g, as flat index w * r + g
        cols = level.transpose(0, 2, 1)
        images = (level @ v)[:, None, :] - alpha_v * cols
        keys, first = np.unique(_pack(images, v), return_index=True)
        fresh = ~np.isin(keys, prev_keys, assume_unique=True)
        if not fresh.any():
            break
        parents, gens = np.divmod(first[fresh], r)
        level = level[parents] - cols[parents, gens][:, :, None] * cartan[gens][:, None, :]
        levels.append(level)
        prev_keys, level_keys = level_keys, keys[fresh]
    all_mats = np.concatenate(levels, axis=0)
    del levels  # free the search buffers before the sort and the bucketing
    if all_mats.shape[0] != datum.weyl_order:
        raise InvariantBreachError(
            f"enumeration found {all_mats.shape[0]} elements, expected {datum.weyl_order}"
        )
    flat = all_mats.reshape(all_mats.shape[0], r * r)
    arr = all_mats[np.lexsort(flat.T[::-1])]
    del all_mats, flat  # sort in int8, then widen once
    arr = arr.astype(np.int64 if datum.weyl_order <= 200_000 else np.int16)
    arr.setflags(write=False)
    return WeylGroup(datum, arr, _bucket_charpolys(arr), arr.shape[0])


def _save_cache(group: WeylGroup, cache_dir: Path | None) -> None:
    path = _cache_path(group.datum, cache_dir)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = np.array([k for k, _ in group.charpoly_buckets], dtype=np.int64)
        counts = np.array([c for _, c in group.charpoly_buckets], dtype=np.int64)
        np.savez_compressed(
            path,
            version=np.int64(_CACHE_VERSION),
            order=np.int64(group.order),
            matrices=group.matrices.astype(np.int16),
            bucket_keys=keys,
            bucket_counts=counts,
        )
    except OSError:
        pass


def _load_cache(datum: RootDatum, cache_dir: Path | None) -> WeylGroup | None:
    path = _cache_path(datum, cache_dir)
    if not path.exists():
        return None
    try:
        with np.load(path) as data:
            if int(data["version"]) != _CACHE_VERSION:
                return None
            order = int(data["order"])
            mats = data["matrices"].astype(np.int64)
            keys = data["bucket_keys"]
            counts = data["bucket_counts"]
    except (OSError, KeyError, ValueError):
        return None
    if order != datum.weyl_order or mats.shape != (order, datum.rank, datum.rank):
        return None
    buckets = tuple(
        sorted((tuple(int(x) for x in k), int(c)) for k, c in zip(keys.tolist(), counts.tolist()))
    )
    if sum(c for _, c in buckets) != order:
        return None
    arr = mats if order <= 200_000 else mats.astype(np.int16)
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return WeylGroup(datum, arr, buckets, order)


# ---------------------------------------------------------------------------
# Truncated integer power series helpers
# ---------------------------------------------------------------------------


def _pmul(p: Sequence[int], q: Sequence[int], trunc: int) -> list[int]:
    out = [0] * (trunc + 1)
    for i, a in enumerate(p):
        if a == 0 or i > trunc:
            continue
        top = min(len(q) - 1, trunc - i)
        for j in range(top + 1):
            out[i + j] += a * q[j]
    return out


def _ppow(p: Sequence[int], n: int, trunc: int) -> list[int]:
    out = [1] + [0] * trunc
    for _ in range(n):
        out = _pmul(out, p, trunc)
    return out


def _pinv(p: Sequence[int], trunc: int) -> list[int]:
    if p[0] != 1:
        raise ValueError("series inversion needs constant term 1")
    out = [1] + [0] * trunc
    for k in range(1, trunc + 1):
        acc = 0
        for i in range(1, min(k, len(p) - 1) + 1):
            acc += p[i] * out[k - i]
        out[k] = -acc
    return out


def _det_one_plus_tw(charpoly: Sequence[int]) -> list[int]:
    """Coefficients of det(1 + t*w) from the ascending charpoly of w."""
    r = len(charpoly) - 1
    return [(-1) ** j * charpoly[r - j] for j in range(r + 1)]


def _det_one_minus_t2w(charpoly: Sequence[int]) -> list[int]:
    """Coefficients of det(1 - t^2*w) from the ascending charpoly of w."""
    r = len(charpoly) - 1
    out = [0] * (2 * r + 1)
    for j in range(r + 1):
        out[2 * j] = charpoly[r - j]
    return out


def molien_poincare(group: WeylGroup, n: int, max_deg: int) -> list[int]:
    """Coefficients of the Poincare series of the commuting-n-tuple space.

    prod(1 - t^(2 d_i)) / |W| * sum over W of det(1 + t*w)^n / det(1 - t^2*w),
    truncated at max_deg.  All coefficients are nonnegative integers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    acc = [0] * (max_deg + 1)
    for charpoly, mult in group.charpoly_buckets:
        num = _ppow(_det_one_plus_tw(charpoly), n, max_deg)
        den_inv = _pinv(_det_one_minus_t2w(charpoly), max_deg)
        term = _pmul(num, den_inv, max_deg)
        for j in range(max_deg + 1):
            acc[j] += mult * term[j]
    prefactor = [1] + [0] * max_deg
    for d in group.datum.degrees:
        factor = [0] * (max_deg + 1)
        factor[0] = 1
        if 2 * d <= max_deg:
            factor[2 * d] = -1
        prefactor = _pmul(prefactor, factor, max_deg)
    acc = _pmul(acc, prefactor, max_deg)
    coeffs = []
    for c in acc:
        if c % group.order:
            raise InvariantBreachError("Molien sum is not divisible by the group order")
        coeffs.append(c // group.order)
    if coeffs[0] != 1 or (max_deg >= 1 and coeffs[1] != 0) or any(c < 0 for c in coeffs):
        raise InvariantBreachError("Poincare coefficients violate their invariants")
    return coeffs


def irreducibility_check(group: WeylGroup) -> Fraction:
    """(1/|W|) * sum of trace(w)^2; equals 1 exactly for every simple type."""
    r = group.datum.rank
    total = 0
    for charpoly, mult in group.charpoly_buckets:
        tr = -charpoly[r - 1]
        total += mult * tr * tr
    return Fraction(total, group.order)


def euler_char_rep(group: WeylGroup, k: int) -> int:
    """Lefschetz average (1/|W|) * sum of det(1 - w)^k.

    This is the Euler characteristic of the k-fold torus quotient; for k = 2
    it equals rank + 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0
    for charpoly, mult in group.charpoly_buckets:
        det1 = sum(charpoly)  # charpoly evaluated at 1 = det(1 - w)
        total += mult * det1**k
    if total % group.order:
        raise InvariantBreachError("Lefschetz average is not an integer")
    return total // group.order


# ---------------------------------------------------------------------------
# Stabilizers, double cosets, cell census
# ---------------------------------------------------------------------------


def face_stabilizer(group: WeylGroup, geometry: AlcoveGeometry, face: FaceIndex) -> StabilizerSubgroup:
    """Elements fixing the face barycenter modulo the coroot lattice."""
    b = barycenter(geometry, face)
    denom = 1
    for c in b:
        denom = lcm(denom, c.denominator)
    vec = np.array([int(c * denom) for c in b], dtype=np.int64)
    moved = group._array @ vec - vec
    keep = np.nonzero((moved % denom == 0).all(axis=1))[0]
    return StabilizerSubgroup(group, tuple(int(i) for i in keep), face)


def trivial_subgroup(group: WeylGroup) -> StabilizerSubgroup:
    return StabilizerSubgroup(group, (group.identity_index,))


def full_subgroup(group: WeylGroup) -> StabilizerSubgroup:
    return StabilizerSubgroup(group, tuple(range(group.order)))


def double_cosets(
    group: WeylGroup, h: StabilizerSubgroup, k: StabilizerSubgroup
) -> list[WeylMatrix]:
    """Lexicographically least representatives of the double cosets H\\W/K."""
    if h.group is not group or k.group is not group:
        raise ValueError("subgroups must belong to the given Weyl group")
    table = group._mult_table
    hs = np.array(h.indices, dtype=np.int32)
    ks = np.array(k.indices, dtype=np.int32)
    seen = np.zeros(group.order, dtype=bool)
    reps = []
    for w in range(group.order):
        if seen[w]:
            continue
        reps.append(group.elements[w])
        hw = table[hs, w]
        orbit = table[hw[:, None], ks[None, :]]
        seen[orbit.reshape(-1)] = True
    return reps


def _all_faces(datum: RootDatum) -> list[FaceIndex]:
    nodes = range(datum.rank + 1)
    faces = []
    for bits in product((0, 1), repeat=datum.rank + 1):
        subset = frozenset(i for i in nodes if bits[i])
        if len(subset) <= datum.rank:
            faces.append(FaceIndex(subset, datum.rank))
    faces.sort(key=lambda f: (len(f.nodes), f.sorted_nodes()))
    return faces


def _fixed_coset_counts(group: WeylGroup, stab: StabilizerSubgroup) -> np.ndarray:
    """For each w: number of cosets g*W_sigma with w*g*W_sigma = g*W_sigma."""
    # #{g : g^-1 w g in W_sigma} counts the pairs (g, s) with s in W_sigma and
    # g s g^-1 = w, i.e. how often w appears in the columns conj[:, s]; the
    # columns go in blocks of about 2^16 entries to bound bincount's intp copy
    conj = group._conjugation_table
    members = np.array(stab.indices)
    step = max(1, (1 << 16) // group.order)
    counts = np.zeros(group.order, dtype=np.int64)
    for start in range(0, members.size, step):
        block = conj[:, members[start : start + step]]
        counts += np.bincount(block.ravel(), minlength=group.order)
    if np.any(counts % stab.order):
        raise InvariantBreachError("coset fixed-point count is not divisible")
    return counts // stab.order


def cell_census(group: WeylGroup, geometry: AlcoveGeometry, k: int) -> list[int]:
    """Cells per dimension of the k-fold torus quotient's face/coset structure.

    Cells are indexed by k-tuples of alcove faces together with diagonal
    W-orbits of the product of coset spaces; orbits are counted by Burnside
    averaging of the fixed-coset counts.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    datum = group.datum
    faces = _all_faces(datum)
    fixed = {f: _fixed_coset_counts(group, face_stabilizer(group, geometry, f)) for f in faces}
    counts = [0] * (k * datum.rank + 1)
    for combo in product(faces, repeat=k):
        dim = sum(f.dim for f in combo)
        acc = np.ones(group.order, dtype=np.int64)
        for f in combo:
            acc = acc * fixed[f]
        total = int(acc.sum())
        if total % group.order:
            raise InvariantBreachError("Burnside average is not an integer")
        counts[dim] += total // group.order
    alternating = sum((-1) ** d * c for d, c in enumerate(counts))
    if alternating != euler_char_rep(group, k):
        raise InvariantBreachError("cell census fails the Euler-characteristic identity")
    return counts


# ---------------------------------------------------------------------------
# Affine alcove reduction
# ---------------------------------------------------------------------------


def _as_fraction_vector(x: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in x)


def alcove_reduce(
    datum: RootDatum, x: Sequence, max_iter: int = 100_000
) -> tuple[tuple[Fraction, ...], WeylMatrix, tuple[int, ...]]:
    """Reduce a point into the fundamental alcove by wall reflections.

    Returns (point, w, q) with point = w*x + q, all alcove inequalities
    satisfied, w a Weyl matrix and q an integer coroot translation.
    """
    r = datum.rank
    y = list(_as_fraction_vector(x))
    if len(y) != r:
        raise ValueError(f"expected a vector of length {r}")
    w = [[Fraction(1 if i == j else 0) for j in range(r)] for i in range(r)]
    if datum.contains_in_alcove(y):
        identity = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
        return tuple(y), identity, tuple(0 for _ in range(r))
    # translate by the coroot lattice (integer vectors in this basis) first,
    # so the reflection walk starts from a bounded point
    q = [Fraction(-math.floor(c)) for c in y]
    y = [c + d for c, d in zip(y, q)]
    theta_vee = [Fraction(c) for c in datum.theta_vee]
    # theta as a functional on coroot coordinates: row vector theta . cartan
    theta_row = [
        sum(Fraction(datum.theta[i]) * datum.cartan[i][j] for i in range(r)) for j in range(r)
    ]

    def apply_linear(mat_rows: list[list[Fraction]]) -> None:
        nonlocal y, w, q
        y = [sum(mat_rows[i][j] * y[j] for j in range(r)) for i in range(r)]
        w = [[sum(mat_rows[i][j] * w[j][jj] for j in range(r)) for jj in range(r)] for i in range(r)]
        q = [sum(mat_rows[i][j] * q[j] for j in range(r)) for i in range(r)]

    for _ in range(max_iter):
        vals = [
            sum(Fraction(datum.cartan[j][jj]) * y[jj] for jj in range(r)) for j in range(r)
        ]
        theta_val = sum(Fraction(datum.theta[j]) * vals[j] for j in range(r))
        neg = next((j for j in range(r) if vals[j] < 0), None)
        if neg is not None:
            s = [
                [Fraction(1 if i == j else 0) - (Fraction(datum.cartan[neg][j]) if i == neg else 0) for j in range(r)]
                for i in range(r)
            ]
            apply_linear(s)
            continue
        if theta_val > 1:
            s_theta = [
                [Fraction(1 if i == j else 0) - theta_vee[i] * theta_row[j] for j in range(r)]
                for i in range(r)
            ]
            apply_linear(s_theta)
            for i in range(r):
                y[i] += theta_vee[i]
                q[i] += theta_vee[i]
            continue
        if any(c.denominator != 1 for row in w for c in row) or any(
            c.denominator != 1 for c in q
        ):
            raise InvariantBreachError("reduction produced a non-integral transform")
        w_int = tuple(tuple(int(c) for c in row) for row in w)
        q_int = tuple(int(c) for c in q)
        x_frac = _as_fraction_vector(x)
        check = [
            sum(w_int[i][j] * x_frac[j] for j in range(r)) + q_int[i] for i in range(r)
        ]
        if check != y:
            raise InvariantBreachError("reduction bookkeeping failed")
        return tuple(y), w_int, q_int
    raise ReductionError("alcove reduction did not terminate; input may be irrational")
