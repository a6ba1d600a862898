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

No table quadratic in |W| is built.  One routine labels each element with
the least index reachable from it under a list of index permutations.  Under
conjugation by the simple reflections that is the least index of its class,
and the cell census sums its class functions over classes.  Under left and
right multiplication by the reflections of H and of K it is the least index
of the double coset HwK, when H and K are generated by their reflections (face
stabilizers are); a Burnside count of the double cosets cross-checks it.

The elements are one read-only int8 stack (every entry is a coroot
coordinate of a coroot, at most 6 in absolute value); each operation widens
only the slice it multiplies.

Molien/Poincare sums, trace statistics and Lefschetz averages are evaluated
per characteristic-polynomial bucket: both det(1 + t*w) and det(1 - t^2*w)
depend only on the characteristic polynomial of w.  The buckets come from
rootdata.charpoly_buckets, from the power sums tr(w^k).
"""

from __future__ import annotations

import math
import operator
import os
import sys
import zipfile
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from pathlib import Path
from typing import Sequence

import numpy as np

from .alcove import AlcoveGeometry, barycenter
from .homology import exact_quotient, require
from .rootdata import FaceIndex, RootDatum, all_faces, charpoly_buckets

WeylMatrix = tuple[tuple[int, ...], ...]

DEFAULT_ELEMENT_CAP = 100_000
HARD_ELEMENT_LIMIT = 10_000_000
CACHE_ENV_VAR = "LIECOMM_CACHE_DIR"
_CACHE_VERSION = 2


class WeylCapError(RuntimeError):
    """Full enumeration would exceed its cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(f"enumeration needs {required} elements, above the cap {cap}")


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
    require(
        np.all(alpha == alpha[0]) and alpha[0] > 0,
        f"{datum.lie_type.name}: v is not a multiple of rho-vee",
    )
    return v


def _pack(images: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mixed-radix int64 keys of orbit points w*v, one per trailing vector."""
    weights = np.concatenate(([1], np.cumprod(2 * v[:-1] + 1)))
    return (images + v) @ weights


@dataclass(frozen=True, eq=False)
class WeylGroup:
    """A fully enumerated Weyl group acting on coroot coordinates.

    matrices is the canonically sorted, read-only int8 element stack, the
    only representation of the elements; element i is matrices[i].
    """

    datum: RootDatum
    matrices: np.ndarray
    charpoly_buckets: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def order(self) -> int:
        return len(self.matrices)

    @cached_property
    def _v(self) -> np.ndarray:
        return _regular_vector(self.datum)

    @cached_property
    def _sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The element keys in ascending order, and the element index of each."""
        keys = _pack(self.matrices @ self._v, self._v)
        perm = np.argsort(keys)
        keys = keys[perm]
        require(
            not np.any(keys[1:] == keys[:-1]),
            f"{self.datum.lie_type.name}: two elements share an orbit key",
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
        require(
            np.array_equal(self.matrices[idx], mats),
            f"a queried matrix is not an element of the {self.datum.lie_type.name} Weyl group",
        )
        return idx

    @cached_property
    def identity_index(self) -> int:
        return int(self.index_of(np.eye(self.datum.rank, dtype=np.int64)))

    @cached_property
    def _class_labels(self) -> np.ndarray:
        """The least element index in the conjugacy class of each element."""
        eye, cartan = np.eye(self.datum.rank, dtype=np.int64), np.array(self.datum.cartan)
        simple = eye - eye[:, :, None] * cartan[:, None, :]  # s_g = 1 - e_g (x) row g of A
        return _least_reachable(np.stack([self.index_of(s @ self.matrices @ s) for s in simple]))

    @cached_property
    def _classes(self) -> tuple[np.ndarray, list[int]]:
        """Class representatives (least indices) and class sizes."""
        reps, sizes = np.unique(self._class_labels, return_counts=True)
        return reps, sizes.tolist()

    @cached_property
    def _reflections(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The reflections (det -1, trace r - 2) as element indices, and the
        index permutations of left and of right multiplication by each."""
        arr = self.matrices
        det, trace = np.rint(np.linalg.det(arr)), np.trace(arr, axis1=1, axis2=2)
        refl = np.flatnonzero((det == -1) & (trace == self.datum.rank - 2))
        require(
            refl.size == len(self.datum.positive_coroots),
            "reflection count differs from the positive root count",
        )
        wide = arr[refl].astype(np.int64)
        left = np.stack([self.index_of(t @ arr) for t in wide])
        right = np.stack([self.index_of(arr @ t) for t in wide])
        return refl, left, right


def _least_reachable(perms: np.ndarray) -> np.ndarray:
    """For each index, the least index reachable from it under the permutations.

    Min-label propagation with pointer jumping: each round lowers every label
    to the least label one step away, then to the label of the index it names.
    A label always names an index in the same orbit, so the fixed point is exact.
    """
    label = np.arange(perms.shape[1])
    while True:
        new = label.copy()
        for p in perms:
            np.minimum(new, label[p], out=new)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


@dataclass(frozen=True)
class StabilizerSubgroup:
    """A subgroup of a Weyl group given by the indices of its members."""

    group: WeylGroup
    indices: tuple[int, ...]

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
    group = _MEMO.get(key) or _load_cache(datum, cache_dir)
    if group is None:
        group = _enumerate(datum)
        if datum.rank >= 5:
            _save_cache(group, cache_dir)
    elif datum.rank >= 5 and not _cache_path(datum, cache_dir).exists():
        _save_cache(group, cache_dir)  # a memo hit still fills this cache_dir
    _MEMO[key] = group
    return group


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
    require(
        all_mats.shape[0] == datum.weyl_order,
        f"enumeration found {all_mats.shape[0]} elements, expected {datum.weyl_order}",
    )
    flat = all_mats.reshape(all_mats.shape[0], r * r)
    arr = all_mats[np.lexsort(flat.T[::-1])]
    del all_mats, flat
    arr.setflags(write=False)
    return WeylGroup(datum, arr, charpoly_buckets(arr))


def _save_cache(group: WeylGroup, cache_dir: Path | None) -> None:
    path = _cache_path(group.datum, cache_dir)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            version=np.int64(_CACHE_VERSION),
            order=np.int64(group.order),
            matrices=group.matrices,
        )
    except OSError as exc:
        print(f"liecomm: could not write the Weyl cache {path}: {exc}", file=sys.stderr)


def _load_cache(datum: RootDatum, cache_dir: Path | None) -> WeylGroup | None:
    path = _cache_path(datum, cache_dir)
    if not path.exists():
        return None
    try:
        with np.load(path) as data:
            if int(data["version"]) != _CACHE_VERSION:
                return None
            order = int(data["order"])
            mats = data["matrices"]
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    shape = (datum.weyl_order, datum.rank, datum.rank)
    if order != datum.weyl_order or mats.dtype != np.int8 or mats.shape != shape:
        return None
    mats.setflags(write=False)
    return WeylGroup(datum, mats, charpoly_buckets(mats))


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
    detail = "Molien sum is not divisible by the group order"
    coeffs = [exact_quotient(c, group.order, detail) for c in acc]
    require(
        coeffs[0] == 1 and (max_deg < 1 or coeffs[1] == 0) and all(c >= 0 for c in coeffs),
        "Poincare coefficients violate their invariants",
    )
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
    return exact_quotient(total, group.order, "Lefschetz average is not an integer")


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
    # filter one coordinate at a time, (row i of w) . vec == vec_i mod denom,
    # reading row i of the survivors only
    mats = group.matrices
    keep = np.flatnonzero((mats[:, 0] @ vec - vec[0]) % denom == 0)
    for i in range(1, len(vec)):
        keep = keep[(mats[keep, i] @ vec - vec[i]) % denom == 0]
    return StabilizerSubgroup(group, tuple(keep.tolist()))


def trivial_subgroup(group: WeylGroup) -> StabilizerSubgroup:
    return StabilizerSubgroup(group, (group.identity_index,))


def full_subgroup(group: WeylGroup) -> StabilizerSubgroup:
    return StabilizerSubgroup(group, tuple(range(group.order)))


def double_cosets(
    group: WeylGroup, h: StabilizerSubgroup, k: StabilizerSubgroup
) -> list[list[list[int]]]:
    """Lexicographically least representatives of the double cosets H\\W/K.

    H and K must be generated by their reflections, as face stabilizers are.
    """
    if h.group is not group or k.group is not group:
        raise ValueError("subgroups must belong to the given Weyl group")
    refl, left, right = group._reflections
    perms = np.concatenate((left[np.isin(refl, h.indices)], right[np.isin(refl, k.indices)]))
    # the stack is sorted, so the least index of a double coset is its least element
    reps = np.unique(_least_reachable(perms))
    fixed = [_fixed_coset_counts(group, s)[group._classes[0]].tolist() for s in (h, k)]
    burnside = _orbit_count(group, fixed)
    require(
        reps.size == burnside,
        f"{reps.size} reflection-generated components, but {burnside} double cosets",
    )
    return group.matrices[reps].tolist()


def _fixed_coset_counts(group: WeylGroup, stab: StabilizerSubgroup) -> np.ndarray:
    """For each w: number of cosets g*W_sigma with w*g*W_sigma = g*W_sigma,
    the class function |C_W(w)| * |cl(w) cap W_sigma| / |W_sigma|."""
    labels = group._class_labels
    class_size = np.bincount(labels)[labels]
    in_stab = np.bincount(labels[list(stab.indices)], minlength=group.order)[labels]
    counts = group.order // class_size * in_stab
    require(not np.any(counts % stab.order), "coset fixed-point count is not divisible")
    return counts // stab.order


def _orbit_count(group: WeylGroup, fixed: list[list[int]]) -> int:
    """Burnside count of diagonal W-orbits from fixed-point counts per class, in exact ints."""
    total = sum(map(math.prod, zip(group._classes[1], *fixed)))
    return exact_quotient(total, group.order, "Burnside average is not an integer")


def cell_census(group: WeylGroup, geometry: AlcoveGeometry, k: int) -> list[int]:
    """Cells per dimension of the k-fold torus quotient's face/coset structure.

    Cells are indexed by k-tuples of alcove faces together with diagonal
    W-orbits of the product of coset spaces; orbits are counted by Burnside
    averaging of the fixed-coset counts, one term per conjugacy class.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    datum = group.datum
    faces = all_faces(datum)
    classes = group._classes[0]
    fixed = {
        f: _fixed_coset_counts(group, face_stabilizer(group, geometry, f))[classes].tolist()
        for f in faces
    }
    counts = [0] * (k * datum.rank + 1)
    for combo in product(faces, repeat=k):
        counts[sum(f.dim for f in combo)] += _orbit_count(group, [fixed[f] for f in combo])
    alternating = sum((-1) ** d * c for d, c in enumerate(counts))
    require(
        alternating == euler_char_rep(group, k),
        "cell census fails the Euler-characteristic identity",
    )
    return counts


# ---------------------------------------------------------------------------
# Affine alcove reduction
# ---------------------------------------------------------------------------


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def alcove_reduce(
    datum: RootDatum, x: Sequence, max_iter: int = 100_000
) -> tuple[tuple[Fraction, ...], WeylMatrix, tuple[int, ...]]:
    """Reduce a point into the fundamental alcove by wall reflections.

    Returns (point, w, q) with point = w*x + q, all alcove inequalities
    satisfied, w a Weyl matrix and q an integer coroot translation.

    The walk runs in integers: with D the lcm of the denominators of x, it
    keeps y = D*(w*x + q), an integer vector, and w and q, which stay
    integral.  A simple reflection s_g = 1 - e_g (x) (row g of A) changes
    only coordinate g of y and q and row g of w; the affine reflection
    p -> s_theta(p) + theta-vee is a rank-one update.  Each step reflects in
    the first simple wall with a negative value, else in the theta wall if
    theta(p) > 1, that is theta(y) > D.
    """
    r = datum.rank
    x = tuple(Fraction(c) for c in x)
    if len(x) != r:
        raise ValueError(f"expected a vector of length {r}")
    if datum.contains_in_alcove(x):
        identity = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        return x, identity, (0,) * r
    scale = lcm(*(c.denominator for c in x))
    dx = [c.numerator * (scale // c.denominator) for c in x]  # scale*x, integral
    # translate by the coroot lattice (integer vectors in this basis) first,
    # so the reflection walk starts from a bounded point
    q = [-math.floor(c) for c in x]
    y = [a + scale * b for a, b in zip(dx, q)]
    w = [[int(i == j) for j in range(r)] for i in range(r)]
    cartan, theta_vee = datum.cartan, datum.theta_vee
    # theta as a functional on coroot coordinates: row vector theta . cartan
    theta_row = [sum(datum.theta[i] * cartan[i][j] for i in range(r)) for j in range(r)]
    for _ in range(max_iter):
        neg = next((g for g in range(r) if _dot(cartan[g], y) < 0), None)
        if neg is not None:
            row = cartan[neg]
            y[neg] -= _dot(row, y)
            q[neg] -= _dot(row, q)
            w[neg] = [c - _dot(row, col) for c, col in zip(w[neg], zip(*w))]
            continue
        ty = _dot(theta_row, y)
        if ty > scale:
            tq = _dot(theta_row, q)
            tw = [_dot(theta_row, col) for col in zip(*w)]
            for i, t in enumerate(theta_vee):
                y[i] += t * (scale - ty)
                q[i] += t * (1 - tq)
                w[i] = [a - t * b for a, b in zip(w[i], tw)]
            continue
        # bookkeeping, exact: scale*(w*x + q) == y
        exact = all(_dot(wi, dx) + scale * qi == yi for wi, qi, yi in zip(w, q, y))
        require(exact, "reduction bookkeeping failed")
        return (
            tuple(Fraction(c, scale) for c in y),
            tuple(tuple(row) for row in w),
            tuple(q),
        )
    raise ReductionError(
        f"alcove reduction did not reach the alcove within max_iter={max_iter} steps; "
        "raise max_iter"
    )
