"""Weyl groups as integer matrices on the coroot lattice.

Element index.  Each element w is keyed by its image w*v of one regular
integer vector v, the smallest integral multiple of rho-vee, the sum of the
fundamental coweights (rho-vee or 2*rho-vee in coroot coordinates), so
alpha_i(v) > 0 for every simple root.
v lies inside the fundamental chamber and W acts simply transitively on the
chambers, so w -> w*v is injective.  v is dominant and -v is the lowest
point of its orbit, so coordinate i of w*v lies in [-v_i, v_i] and the image
packs by mixed radix (2*v_i + 1) into one int64.  The key width,
sum of log2(2*v_i + 1) bits, peaks at 47.1 bits (E7) over the types below
HARD_ELEMENT_LIMIT, and never exceeds r*log2(2*max(v) + 1) (53.1 at E7).
The stack is stored in ascending key order, so an element's index is the
rank of its key, found by np.searchsorted and checked against the matrix
asked for: w_0 (w_0*v = -v) is element 0 and the identity the last.

Enumeration multiplies parabolic cosets.  Let W_k be generated by
s_1, ..., s_k.  The fundamental coweight omega_k-vee is dominant, so its
stabilizer in W_k is generated by the simple reflections of W_k that fix it
(Humphreys, Reflection Groups and Coxeter Groups 1.10-1.12; Geck-Pfeiffer,
Characters of Finite Coxeter Groups and Iwahori-Hecke Algebras, ch. 2), and
those are s_1, ..., s_(k-1).  So W_k is the disjoint union of the cosets
u*W_(k-1), u running over one element per point of the W_k-orbit of
omega_k-vee.  W_(r-1) is built stage by stage, float32 products u*w
_LABEL_BLOCK rows at a time written into one int8 stack, and W = W_r is
never stored unsorted: element q*n + j is u_q*W_(r-1)[j], u_q the last
stage's representatives.  Its r x |W| int8 table of orbit images, taken as
u_q*(W_(r-1)*v), is sorted by np.lexsort, so runs are deterministic, and
freed; the int32 permutation then names the q and j of each sorted
position, and _sorted_blocks yields the key-sorted elements _LABEL_BLOCK at
a time.  Three checks are required: the stages give |W| = prod d_i
products, every product fits int8, and no two consecutive sorted rows are
equal, across blocks too.  _stream counts the blocks and writes them to the
cache as they pass, copying them into a stack for generate and into none
for charpoly_histogram (poincare), which holds W_(r-1), the table and the
permutation at most.

No table quadratic in |W| is built.  _components labels each index with the
least index of its orbit under a list of index permutations; the indices
labelled with themselves are the orbits' least indices, and one cumsum gives
each index its int32 orbit ordinal.  Under conjugation by the simple
reflections the orbits are the classes, WeylGroup._classes the one class
table, and the cell census one polynomial power per class.  The reflections
come from the root datum's wall table, s_j = 1 - c_j (x) a_j for the nodes
j = 0..r (node 0 gives s_theta).  The stabilizer of a point of the closed
alcove, mod the coroot lattice, is generated by the reflections in the walls
through it (Bourbaki, Lie Groups V 3.3), so the face on the walls J has the
stabilizer generated by s_j, j in J.  Under left multiplication by the wall
reflections in H and right multiplication by those in K the orbits are the
double cosets HwK, when H and K are generated by the wall reflections they
contain, as face stabilizers are; a Burnside count cross-checks them.
Those permutations are read off the orbit keys: the key of s_i*w*s_j is that
of the point s_i*x, x = w*(s_j*v), one matrix-vector product per element,
and s_i*x = x - a_i(x)*c_i is a rank-one update of the key of x, since a key
is affine in its point.  These keys are the element keys permuted, so one
sort matches every key asked for with the key found, and a key that is not
an element key is a breach.

Face stabilizers come from one int8 table of vertex translations.  For each
alcove vertex v_k (k = 0..r) and each element w, the table labels
q_k(w) = v_k - w*v_k with the least vertex index j <= k for which
q_j(w) = q_k(w) when q_k(w) lies in the coroot lattice, and with -1
otherwise.  An element of the affine Weyl group that fixes a point of the
closed alcove fixes that point's face pointwise (Bourbaki, Lie Groups V 3.3;
Humphreys, Reflection Groups and Coxeter Groups 4.8).  So w fixes the face
on the walls J mod Q-vee if and only if q_k(w) is one lattice vector q for
every vertex k not in J: then t_q*w fixes every vertex of the face, hence
its barycenter b, and conversely t_q*w with q = b - w*b fixes b, hence the
face.  With k0 the least vertex off the walls, w is a member exactly when
its label at k0 is not -1 and equals its label at every other vertex off
the walls: one boolean mask, row by row over the labels, and nothing is
kept per face.

The elements are one read-only int8 stack (every entry is a coroot
coordinate of a coroot, at most 6 in absolute value).  Products of the stack
with a vector (_images) and coset products widen _LABEL_BLOCK elements to
float32 at a time, and the translation table _LABEL_BLOCK elements to
float64, in work arrays allocated once per table.

Molien/Poincare sums, trace statistics and Lefschetz averages are evaluated
per characteristic-polynomial bucket.  One kernel, _count_power_sums, takes
the power sums tr(w^k) by float32 products of a block of _LABEL_BLOCK
matrices, under a checked bound that keeps them exact, and counts the
distinct rows of power sums; _newton_buckets turns only those into charpolys
by Newton's identities, in Python ints.  _stream runs them over the
blocks, and charpoly_buckets over a stack.  The Molien sum (at
x = t^2) and Solomon's identity below read only the datum and the buckets,
and both sum the exact quotients prod_i (1 - x^d_i) / det(1 - x*w) of the
_coinvariant_quotients of a WeylGroup or a CharpolyHistogram, computed once
per group from the constant term up.  Each division is exact: for a primitive d-th root of
unity z, the z-eigenspace of w has dimension at most #{i : d | d_i}
(Springer, Invent. Math. 25, 1974), the multiplicity of Phi_d in the product.

Every enumeration requires Solomon's identity (Nagoya Math. J. 22, 1963),
(1/|W|) sum_w det(1 + y*w)/det(1 - x*w) = prod_i (1 + y*x^m_i)/(1 - x^d_i),
of its buckets, in exact integers.  At x = t^2 and y = t the identity is the
n = 1 Poincare series prod_i (1 + t^(2d_i - 1)), which molien_poincare
requires.

Groups are memoized in-process.  A caller that names a cache directory also
gets the on-disk cache (format 5), written for rank >= 5: one flat file,
the stack's int8 bytes in element order, then a little-endian int64 trailer
[version, zlib CRC-32 of the stack, bucket count n, the n counts, the n
charpolys row by row].  The stack is written from the blocks as they stream
past, with a running CRC, under a temporary name renamed once the buckets
pass Solomon's identity.  A load reads the stack into a stack only for
generate, and through one reused _LABEL_BLOCK buffer otherwise, and requires
the version, a trailer of exactly 3 + n*(r + 2) entries, the CRC of the
stack and the buckets, by their counts summing to |W| and by Solomon's
identity, so a warm load never derives the buckets, and a warm poincare
holds no stack.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import sys
import zlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from pathlib import Path
from typing import Sequence

import numpy as np

from .alcove import AlcoveGeometry, alcove_geometry
from .homology import exact_quotient, require, scale_to_integers
from .rootdata import FaceIndex, LieType, RootDatum, all_faces

WeylMatrix = tuple[tuple[int, ...], ...]

HARD_ELEMENT_LIMIT = 10_000_000  # the one enumeration bound; B8 and E8 lie above it
CENSUS_MAX_K = 32  # the largest k of `cells`; E6's census at k = 32 takes 0.04-0.07 s (2-core VM)
_CACHE_VERSION = 5
_LABEL_BLOCK = 1 << 10  # elements per block of stack products, charpolys and translation labels
_FLOAT32_EXACT = 1 << 24  # float32 holds every integer of smaller magnitude exactly


class WeylCapError(RuntimeError):
    """Full enumeration would exceed HARD_ELEMENT_LIMIT."""

    def __init__(self, required: int):
        super().__init__(
            f"enumeration needs {required} elements, above the cap {HARD_ELEMENT_LIMIT}"
        )


def _regular_vector(datum: RootDatum) -> np.ndarray:
    """The smallest integral multiple of rho-vee, the sum of the fundamental
    coweights, in coroot coordinates; A*rho-vee = 1, so every simple root is
    positive on it."""
    rho = [sum(col) for col in zip(*alcove_geometry(datum).coweights)]
    return np.array(scale_to_integers([rho])[1][0], dtype=np.int64)


def _wall_reflections(datum: RootDatum) -> np.ndarray:
    """The linear parts 1 - c_j (x) a_j of the wall reflections s_0, ..., s_r,
    by node, as int64 matrices; that of s_0 is s_theta."""
    a = np.array(datum.wall_functionals, dtype=np.int64)
    c = np.array(datum.wall_coroots, dtype=np.int64)
    return np.eye(datum.rank, dtype=np.int64) - c[:, :, None] * a[:, None, :]


def _pack_weights(v: np.ndarray) -> np.ndarray:
    """The mixed-radix place values of _pack."""
    return np.concatenate(([1], np.cumprod(2 * v[:-1] + 1)))


def _pack(images: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mixed-radix int64 keys of orbit points w*v, one per trailing vector."""
    return (images + v) @ _pack_weights(v)


def _images(stack: np.ndarray, u: np.ndarray):
    """The points w*u, w running over the stack, as int64 blocks of
    _LABEL_BLOCK rows, each one float32 matrix-vector product; exact, since u
    (v or s_j*v) lies in the orbit of v and r*128*max(v) < 2^24."""
    r, u = stack.shape[-1], np.asarray(u, dtype=np.float32)
    for start in range(0, len(stack), _LABEL_BLOCK):
        rows = stack[start : start + _LABEL_BLOCK].reshape(-1, r).astype(np.float32)
        yield (rows @ u).astype(np.int64).reshape(-1, r)


def charpoly_buckets(stack: np.ndarray) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Characteristic polynomials det(xI - w) of a stack of integer matrices, counted.

    Returns sorted (ascending coefficients, count) pairs.  A charpoly is fixed
    by the power sums p_k = tr(w^k), k = 1..r, through Newton's identities.
    Rows of power sums are counted _LABEL_BLOCK matrices at a time
    (_count_power_sums), and only the distinct rows are turned into
    charpolys, in Python ints (_newton_buckets).
    """
    counts: Counter[tuple[int, ...]] = Counter()
    work = _power_work(*stack.shape[:2])
    for start in range(0, len(stack), _LABEL_BLOCK):
        _count_power_sums(stack[start : start + _LABEL_BLOCK], counts, work)
    return _newton_buckets(counts)


def _count_power_sums(
    block: np.ndarray, counts: Counter[tuple[int, ...]], work: tuple[np.ndarray, ...]
) -> None:
    """Add the rows of power sums (tr(w), ..., tr(w^r)) of a block of integer
    matrices to counts.  The powers are batched float32 products, exact
    because every partial sum stays below 2^24: r * max|w^k| * max|w| < 2^24
    is checked before each product and trace.  work holds three float32
    arrays of at least len(block) matrices (_power_work)."""
    n, r, _ = block.shape
    w, *spare = (a[:n] for a in work)
    np.copyto(w, block)
    w_max = max(float(w.max()), -float(w.min()))
    sums = np.empty((n, r), dtype=np.int64)
    power = w
    for k in range(r):
        require(
            r * max(float(power.max()), -float(power.min())) * w_max < _FLOAT32_EXACT,
            "matrix powers leave the exact float32 range",
        )
        sums[:, k] = np.einsum("nii->n", power)
        if k + 1 < r:
            power = np.matmul(power, w, out=spare[k % 2])
    sums = sums[np.lexsort(sums.T)]
    starts = np.flatnonzero(np.concatenate(([True], np.any(sums[1:] != sums[:-1], axis=1))))
    sizes = np.diff(np.append(starts, len(sums)))
    for row, size in zip(sums[starts].tolist(), sizes.tolist()):
        counts[tuple(row)] += size


def _power_work(rows: int, r: int) -> tuple[np.ndarray, ...]:
    """Three float32 work arrays of min(rows, _LABEL_BLOCK) r x r matrices, for
    one pass over rows elements.  Fresh temporaries per block gave the same
    buckets, but twice the page faults and 3-4 % more CPU per cold poincare at
    A7 and D6, as the heap was returned to the system between blocks."""
    return tuple(np.empty((min(rows, _LABEL_BLOCK), r, r), dtype=np.float32) for _ in range(3))


def _newton_buckets(counts: Counter[tuple[int, ...]]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Sorted (charpoly, count) pairs from counted rows of power sums."""
    return tuple(sorted((_newton(p), c) for p, c in counts.items()))


def _newton(p: Sequence[int]) -> tuple[int, ...]:
    """Ascending coefficients of det(xI - w) from the power sums p_k = tr(w^k)."""
    e = [1]  # elementary symmetric functions of the eigenvalues
    for k in range(1, len(p) + 1):
        s = sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1))
        e.append(exact_quotient(s, k, "Newton's identities give a non-integral coefficient"))
    return tuple((-1) ** k * e[k] for k in range(len(p), -1, -1))


@dataclass(frozen=True, eq=False)
class WeylGroup:
    """A fully enumerated Weyl group acting on coroot coordinates.

    matrices is the read-only int8 element stack, the only representation of
    the elements, in ascending orbit-key order; element i is matrices[i].
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
    def _keys(self) -> np.ndarray:
        """The element keys in element order, which must strictly ascend: that
        checks both that they are distinct and the order of a loaded stack."""
        keys = np.concatenate([_pack(img, self._v) for img in _images(self.matrices, self._v)])
        require(
            bool(np.all(keys[1:] > keys[:-1])),
            f"{self.datum.lie_type.name}: the orbit keys of the stack do not strictly ascend",
        )
        return keys

    def index_of(self, mats) -> np.ndarray:
        """Element indices of a stack of matrices (shape (..., r, r)).

        Raises InvariantBreachError if any matrix is not a group element.
        """
        mats = np.asarray(mats, dtype=np.int64)
        idx = np.searchsorted(self._keys, _pack(mats @ self._v, self._v)).clip(max=self.order - 1)
        require(
            np.array_equal(self.matrices[idx], mats),
            f"a queried matrix is not an element of the {self.datum.lie_type.name} Weyl group",
        )
        return idx

    def _permutation(self, left: int | None, right: int | None) -> np.ndarray:
        """The index of s_left*w*s_right for every element w, where s_j is the
        linear part 1 - c_j (x) a_j of the wall reflection of node j, and
        s_None = 1.

        The key of s_left*w*s_right is that of the point s_left*x with
        x = w*(s_right*v), and s_j*x = x - a_j(x)*c_j; a key is affine in its
        point, so that key is the key of x less a_j(x) * (c_j . _pack_weights),
        one rank-one update per element.  The products run over W as w does,
        so their keys, sorted, must be _keys: the sort matches each key asked
        for with the key found, and a key that is not an element key raises
        InvariantBreachError.
        """
        v, datum = self._v, self.datum
        u = v if right is None else _wall_reflections(datum)[right] @ v
        images = _images(self.matrices, u)
        if left is None:
            query = np.concatenate([_pack(img, v) for img in images])
        else:
            a = np.array(datum.wall_functionals[left], dtype=np.int64)
            step = int(np.array(datum.wall_coroots[left]) @ _pack_weights(v))
            query = np.concatenate([_pack(img, v) - (img @ a) * step for img in images])
        order = np.argsort(query)
        require(
            np.array_equal(query[order], self._keys),
            f"an orbit image is not a {self.datum.lie_type.name} orbit key",
        )
        out = np.empty(self.order, dtype=np.int32)
        out[order] = np.arange(self.order, dtype=np.int32)
        return out

    @cached_property
    def _coinvariant_quotients(self) -> list[list[int]] | None:
        """prod(1 - x^d_i) / det(1 - x w_b) for each bucket b, exactly; None
        when a division is not exact, which no element of W gives (Springer).
        det(1 - x w) is the charpoly reversed, with constant term 1, so the
        quotient is read off from the constant term up while rem = num -
        quot * det(1 - x w) is kept, and the division is exact when rem is 0.
        Computed once per group, for Solomon's identity on enumeration or load
        and for every molien_poincare."""
        top, r = sum(self.datum.degrees), self.datum.rank
        num = [1]
        for d in self.datum.degrees:
            num = _pmul(num, [1] + [0] * (d - 1) + [-1], top)
        quotients = []
        for charpoly, _ in self.charpoly_buckets:
            rem, quot = list(num), []
            for k in range(top + 1 - r):
                quot.append(q := rem[k])
                for i, c in enumerate(reversed(charpoly)):
                    rem[k + i] -= q * c
            if any(rem):
                return None
            quotients.append(quot)
        return quotients

    @cached_property
    def _classes(self) -> tuple[np.ndarray, list[int], np.ndarray]:
        """The conjugacy classes, orbits of conjugation by the simple reflections:
        representatives (least indices, ascending), sizes, and int32 ordinals."""
        nodes = range(1, self.datum.rank + 1)
        reps, ordinals = _components([self._permutation(j, j) for j in nodes], self.order)
        return reps, np.bincount(ordinals).tolist(), ordinals

    @cached_property
    def _walls(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The linear parts of the r + 1 wall reflections s_0, ..., s_r, by node,
        as element indices, and the index permutations of left and of right
        multiplication by each."""
        nodes = range(self.datum.rank + 1)
        left = np.stack([self._permutation(j, None) for j in nodes])
        right = np.stack([self._permutation(None, j) for j in nodes])
        return self.index_of(_wall_reflections(self.datum)), left, right

    @cached_property
    def _translation_labels(self) -> np.ndarray:
        """Row k, column w: the least vertex index j <= k with q_j(w) = q_k(w)
        when q_k(w) = v_k - w*v_k lies in the coroot lattice, else -1: int8.

        Built _LABEL_BLOCK elements at a time, each block labelled on its own
        from the keys of its translations, in work arrays allocated once per
        table: fresh temporaries per block gave the same table, but a fresh
        process's peak RSS 0.7-0.9 MB higher at E6 and D6.  See _stabilizer.
        """
        r = self.datum.rank
        denom, scaled = scale_to_integers(alcove_geometry(self.datum).vertices)
        scaled = np.array(scaled, dtype=np.float64)
        # v_k is dominant, so q = v_k - w*v_k is a sum of simple coroots with
        # coefficients q_i <= v_k,i + v_k,sigma(i) (sigma = -w_0 on the nodes)
        radix = 2 * int(scaled.max()) // denom + 1
        require(
            r * 129 * scaled.max() < 2**53 and radix**r < 2**53,
            f"{self.datum.lie_type.name}: vertex translations exceed float64's exact integers",
        )
        # room for a block of `rows` elements: 1 - w, the translations, their
        # rounding, its equality, the lattice mask and the keys
        rows, slab = min(self.order, _LABEL_BLOCK), r * (r + 1)
        widths = (r * r, slab, slab, slab, r + 1, r + 1)
        dtypes = (float, float, float, bool, bool, float)
        work = tuple(np.empty((rows, n), t) for n, t in zip(widths, dtypes))
        # the greatest weight r + 1 - j over the vertices j with q_j = q_k names the least j
        weight = (r + 1 - np.arange(r + 1, dtype=np.int8))[:, None, None]
        labels = np.empty((r + 1, self.order), dtype=np.int8)
        for start in range(0, self.order, _LABEL_BLOCK):
            block = self.matrices[start : start + _LABEL_BLOCK]
            keys = _translation_keys(block, scaled, denom, radix, work)
            out = labels[:, start : start + len(block)]
            np.subtract(r + 1, ((keys[:, None] == keys) * weight).max(axis=0), out=out)
            np.copyto(out, -1, where=keys < 0)
        labels.setflags(write=False)
        return labels


@dataclass(frozen=True, eq=False)
class CharpolyHistogram:
    """The charpoly buckets of a Weyl group whose stack was never held: all
    that molien_poincare and Solomon's identity read of a WeylGroup."""

    datum: RootDatum
    charpoly_buckets: tuple[tuple[tuple[int, ...], int], ...]

    _coinvariant_quotients = WeylGroup._coinvariant_quotients  # the same cached property


def _translation_keys(
    block: np.ndarray, scaled: np.ndarray, denom: int, radix: int, work: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Packed keys, shape (r + 1, len(block)), of the translations
    q_k(w) = v_k - w*v_k = (1 - w)*v_k for the elements w of the block, and -1
    where q_k(w) is not in the coroot lattice.

    scaled holds denom*v_k as row k.  Every coordinate of q_k(w) must lie in
    [0, radix), else the packing by mixed radix `radix` is a breach.  work
    holds _translation_labels' six work arrays, of at least len(block) rows;
    the result is a view of the last, valid until the next call.
    """
    n, r = len(block), scaled.shape[1]
    # coordinate i outermost and the element innermost, so the checks and
    # the packing over i run on whole (k, w) slabs
    one_minus_w = work[0][:n].reshape(r, r, n)
    q, rounded, same = (a[:n].reshape(r, r + 1, n) for a in work[1:4])
    lattice, keys = (a[:n].reshape(r + 1, n) for a in work[4:])
    np.negative(block.transpose(1, 2, 0), out=one_minus_w)
    one_minus_w.reshape(r * r, n)[:: r + 1] += 1
    np.matmul(scaled, one_minus_w, out=q)  # denom * q_k(w)_i
    q /= denom
    require(
        q.min() >= 0 and q.max() < radix, f"a vertex translation leaves the packing radix {radix}"
    )
    np.matmul(radix ** np.arange(r, dtype=np.float64), q.reshape(r, -1), out=keys.reshape(-1))
    np.equal(np.rint(q, out=rounded), q, out=same)
    np.logical_and.reduce(same, axis=0, out=lattice)
    np.copyto(keys, -1, where=~lattice)
    return keys


def _components(perms: Sequence[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of the indices 0..n-1 under the permutations perms, index
    rows of length n: each orbit's least index, ascending, and each index's
    int32 orbit ordinal; with no permutations each index is its own orbit.

    Min-label propagation with pointer jumping: each round lowers every label
    to the least label one step away, then to the label of the index it names.
    A label always names an index in the same orbit, so at the fixed point
    each label is its orbit's least index.
    """
    label = np.arange(n, dtype=np.int32)
    while True:
        new = label.copy()
        for p in perms:
            np.minimum(new, label[p], out=new)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    least = label == np.arange(n, dtype=np.int32)
    return np.flatnonzero(least), (np.cumsum(least, dtype=np.int32) - 1)[label]


@dataclass(frozen=True, eq=False)
class StabilizerSubgroup:
    """A subgroup of a Weyl group given by the element indices of its members,
    an int32 array (face_stabilizer's is read-only)."""

    group: WeylGroup
    members: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", np.asarray(self.members, dtype=np.int32))

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def indices(self) -> tuple[int, ...]:
        return tuple(self.members.tolist())


_MEMO: dict[tuple[str, int], WeylGroup] = {}


def _cache_path(datum: RootDatum, cache_dir: Path) -> Path:
    return Path(cache_dir) / f"weyl_{datum.lie_type.name}_v{_CACHE_VERSION}.bin"


def check_cap(lie_type: LieType) -> None:
    """The cap check of generate and charpoly_histogram, on |W| read off the
    type, so no root datum is built."""
    if lie_type.weyl_order > HARD_ELEMENT_LIMIT:
        raise WeylCapError(lie_type.weyl_order)


def generate(datum: RootDatum, cache_dir: Path | None = None) -> WeylGroup:
    """Fully enumerate the Weyl group, sorted by orbit key.

    Raises WeylCapError when the order (product of the degrees) exceeds
    HARD_ELEMENT_LIMIT; those types are served by the formula-level
    operations instead.  The on-disk cache is read, and written for
    rank >= 5, only in a cache_dir that is given.
    """
    check_cap(datum.lie_type)
    key = (datum.lie_type.family, datum.lie_type.rank)
    if key not in _MEMO:
        stack = np.empty((datum.lie_type.weyl_order, datum.rank, datum.rank), dtype=np.int8)
        _MEMO[key] = _load_cache(datum, cache_dir, stack) or _stream(datum, cache_dir, stack)
        stack.setflags(write=False)
    return _MEMO[key]


def charpoly_histogram(
    datum: RootDatum, cache_dir: Path | None = None
) -> WeylGroup | CharpolyHistogram:
    """The charpoly buckets of the Weyl group, for callers that read nothing
    else (molien_poincare).

    The cap, the memo and the on-disk cache are generate's, and a group found
    in the memo is returned whole.  Otherwise the buckets are read from the
    cache or counted as the elements stream past (_stream): no stack is held
    and nothing is memoized.
    """
    check_cap(datum.lie_type)
    group = _MEMO.get((datum.lie_type.family, datum.lie_type.rank))
    return group or _load_cache(datum, cache_dir) or _stream(datum, cache_dir)


def _coset_representatives(datum: RootDatum, k: int) -> np.ndarray:
    """One element of W_k = <s_1, ..., s_k> per point of the W_k-orbit of the
    fundamental coweight omega_k-vee, int64, shape (|W_k| / |W_(k-1)|, r, r),
    the identity first; see the module docstring.

    The orbit is walked breadth first from the smallest integral multiple of
    omega_k-vee, s_i x = x - alpha_i(x) alpha_i-vee, and the element that
    reaches a new point is s_i times the element of the point it came from.
    """
    r, cartan = datum.rank, datum.cartan
    rows = np.array(cartan, dtype=np.int64)
    start = tuple(scale_to_integers([alcove_geometry(datum).coweights[k - 1]])[1][0])
    seen, points, reps = {start}, [start], [np.eye(r, dtype=np.int64)]
    for x, u in zip(points, reps):  # both grow as the walk goes
        for i in range(k):
            a = _dot(cartan[i], x)
            y = x[:i] + (x[i] - a,) + x[i + 1 :]
            if a and y not in seen:
                su = u.copy()
                su[i] -= rows[i] @ u  # s_i u = u - e_i (x) (row i of A) u
                seen.add(y)
                points.append(y)
                reps.append(su)
    return np.stack(reps)


def _store_int8(out: np.ndarray, products: np.ndarray) -> None:
    """Write integral products of elements, or orbit images, into int8 rows, which they must fit."""
    require(
        products.min() >= -128 and products.max() <= 127, "a coset product leaves int8"
    )
    np.copyto(out, products, casting="unsafe")


def _sorted_blocks(datum: RootDatum, counts: Counter[tuple[int, ...]]):
    """The elements of W in ascending orbit-key order, as int8 blocks of at
    most _LABEL_BLOCK matrices, views valid until the next is drawn, each
    yielded with its first index once counted (_count_power_sums).  Only
    W_(r-1), the image table and the permutation are stored (see the module
    docstring); products and powers share _power_work arrays, allocated
    after the sort, whose peak they would raise.  Required: the stages give
    |W| products, every product and image fits int8, and no two consecutive
    rows are equal, across blocks too."""
    r, order = datum.rank, datum.lie_type.weyl_order
    if r >= 5:
        print(
            f"liecomm: enumerating the {datum.lie_type.name} Weyl group "
            f"({order} elements)",
            file=sys.stderr,
        )
    *stages, reps = [_coset_representatives(datum, k).astype(np.float32) for k in range(1, r + 1)]
    found = math.prod(map(len, stages)) * len(reps)
    require(found == order, f"the coset products give {found} elements, not |W| = {order}")
    n = order // len(reps)
    # W_k = union of u*W_(k-1) over the stage's representatives u: the
    # products by u = stage[q] go to rows q*m.. of the stack of W_(r-1), and
    # stage[0] is the identity, so W_(k-1) stays where it is
    prev = np.empty((n, r, r), dtype=np.int8)
    prev[0] = np.eye(r, dtype=np.int8)
    m = 1
    for stage in stages:
        for start in range(0, m, _LABEL_BLOCK):
            block = prev[start : min(start + _LABEL_BLOCK, m)].astype(np.float32)
            for q, u in enumerate(stage[1:], 1):
                _store_int8(prev[q * m + start : q * m + start + len(block)], u @ block)
        m *= len(stage)
    # coordinate i of an image lies in [-v_i, v_i], so the images are int8 rows
    points = np.concatenate(list(_images(prev, _regular_vector(datum)))).T.astype(np.float32)
    images = np.empty((r, order), dtype=np.int8)
    for q, u in enumerate(reps):
        _store_int8(images[:, q * n : (q + 1) * n], u @ points)
    perm = np.lexsort(images)
    del images, points  # before the permutation is narrowed
    perm = perm.astype(np.int32)
    out, last = np.empty((min(order, _LABEL_BLOCK), r, r), dtype=np.int8), None
    work = _power_work(order, r)
    u, w, products = work
    for start in range(0, order, _LABEL_BLOCK):
        q, j = np.divmod(perm[start : start + _LABEL_BLOCK], n)
        m = len(q)
        block = out[:m]
        np.take(reps, q, axis=0, out=u[:m], mode="clip")  # q < len(reps); "raise" would buffer
        np.copyto(w[:m], prev[j])
        _store_int8(block, np.matmul(u[:m], w[:m], out=products[:m]))
        rows = block.reshape(m, r * r).view(np.dtype((np.void, r * r))).ravel()
        require(
            bool(np.all(rows[1:] != rows[:-1])) and block[0].tobytes() != last,
            "two coset products are the same element",
        )
        last = block[-1].tobytes()
        _count_power_sums(block, counts, work)
        yield start, block


def _stream(
    datum: RootDatum, cache_dir: Path | None, stack: np.ndarray | None = None
) -> WeylGroup | CharpolyHistogram:
    """W's group, its elements copied into stack, or with no stack its
    CharpolyHistogram, counted as _sorted_blocks yields them; the buckets
    must satisfy Solomon's identity.  For rank >= 5 in a cache_dir that is
    given, the blocks are written into the cache file as they pass, which is
    completed only once the identity holds."""
    counts: Counter[tuple[int, ...]] = Counter()
    writes = cache_dir is not None and datum.rank >= 5
    with _CacheWriter(_cache_path(datum, cache_dir) if writes else None) as writer:
        for start, block in _sorted_blocks(datum, counts):
            writer.write(block)
            if stack is not None:
                stack[start : start + len(block)] = block
        b = _newton_buckets(counts)
        found = CharpolyHistogram(datum, b) if stack is None else WeylGroup(datum, stack, b)
        _require_solomon(found)
        writer.finish(b)
    return found


def _require_solomon(group: WeylGroup | CharpolyHistogram) -> None:
    name = group.datum.lie_type.name
    require(_solomon_holds(group), f"the {name} charpoly buckets fail Solomon's identity")


class _CacheWriter:
    """The cache file of one group, written as its blocks stream past.

    write adds each block of the stack, and finish the int64 trailer.  Only
    finish renames the file into place: leaving the with block before it, or
    an OSError, removes the file, and an OSError is reported on stderr and
    ends the write, not the caller's work.  With no path nothing is written.
    """

    def __init__(self, path: Path | None):
        self.path, self.crc, self.file = path, 0, None
        if path is None:
            return
        self.temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            self.file = open(self.temp, "wb")
        except OSError as exc:
            self._discard(exc)

    def __enter__(self) -> _CacheWriter:
        return self

    def __exit__(self, *exc_info) -> None:
        self._discard()

    def write(self, block: np.ndarray) -> None:
        if self.file is not None:
            try:
                self.file.write(block)  # ValueError if not C-contiguous
                self.crc = zlib.crc32(block, self.crc)
            except OSError as exc:
                self._discard(exc)

    def finish(self, buckets: tuple[tuple[tuple[int, ...], int], ...]) -> None:
        if self.file is None:
            return
        charpolys, counts = zip(*buckets)
        head = [_CACHE_VERSION, self.crc, len(buckets), *counts]
        try:
            self.file.write(np.array(head + [c for p in charpolys for c in p], dtype="<i8"))
            self.file.close()
            os.replace(self.temp, self.path)
            self.file = None
        except OSError as exc:
            self._discard(exc)

    def _discard(self, exc: OSError | None = None) -> None:
        """Report exc, if given, then close and remove the temporary file, if one is open."""
        if exc is not None:
            print(f"liecomm: could not write the Weyl cache {self.path}: {exc}", file=sys.stderr)
        if self.file is not None:
            with contextlib.suppress(OSError):
                self.file.close()
            self.file = None
            self.temp.unlink(missing_ok=True)


def _load_cache(
    datum: RootDatum, cache_dir: Path | None, stack: np.ndarray | None = None
) -> WeylGroup | CharpolyHistogram | None:
    """The cached buckets, with the stored stack read into stack when one is
    given and its group returned, else a CharpolyHistogram; None with no
    cache_dir, or when the file is missing or rejected.  With no stack to
    fill, the stack is read _LABEL_BLOCK elements at a time into one buffer,
    its CRC-32 taken as they pass, so none is held.

    A rejected file is named on stderr with its reason: unreadable or
    truncated (too short for a trailer of whole int64 entries), another
    version, a trailer of the wrong length, a stack whose CRC-32 is not the
    stored one, or buckets that fail Solomon's identity.
    """
    path = None if cache_dir is None else _cache_path(datum, cache_dir)
    if path is None or not path.exists():
        return None
    r, order = datum.rank, datum.lie_type.weyl_order
    try:
        with open(path, "rb") as file:
            if stack is not None:
                file.readinto(stack)
                crc = zlib.crc32(stack)
            else:
                crc, chunk, total = 0, np.empty(_LABEL_BLOCK * r * r, dtype=np.int8), order * r * r
                for start in range(0, total, chunk.size):
                    size = file.readinto(chunk[: total - start])
                    crc = zlib.crc32(chunk[:size], crc)
            tail = file.read()
    except OSError as exc:
        return _reject(path, f"unreadable or truncated ({exc})")
    if len(tail) < 24 or len(tail) % 8:
        return _reject(path, f"unreadable or truncated ({len(tail)} bytes after the stack)")
    version, stored_crc, n, *rest = np.frombuffer(tail, dtype="<i8").tolist()
    if version != _CACHE_VERSION:
        return _reject(path, f"format version {version}, not {_CACHE_VERSION}")
    if len(rest) != n * (r + 2):
        return _reject(path, f"a trailer of {3 + len(rest)} entries, not 3 + {n}*{r + 2}")
    if crc != stored_crc:
        return _reject(path, "the stack does not match its CRC-32")
    charpolys = (tuple(rest[k : k + r + 1]) for k in range(n, len(rest), r + 1))
    buckets = tuple(zip(charpolys, rest[:n]))
    found = CharpolyHistogram(datum, buckets) if stack is None else WeylGroup(datum, stack, buckets)
    if sum(rest[:n]) != order or not _solomon_holds(found):
        return _reject(path, "the charpoly buckets fail Solomon's identity")
    return found


def _reject(path: Path, reason: str) -> None:
    print(f"liecomm: ignoring the Weyl cache {path}: {reason}", file=sys.stderr)


def _solomon_holds(group: WeylGroup) -> bool:
    """Solomon's identity (Nagoya Math. J. 22, 1963) for the group's charpoly
    histogram, exactly, as polynomials in x and y, with Q_b the group's
    _coinvariant_quotients:

        sum_b c_b det(1 + y w_b) Q_b(x) = |W| prod(1 + y x^m_i)
    """
    datum, quotients = group.datum, group._coinvariant_quotients
    if quotients is None:
        return False
    r, top = datum.rank, sum(datum.exponents)
    lhs = [[0] * (top + 1) for _ in range(r + 1)]  # by power of y, then of x
    for (charpoly, count), quot in zip(group.charpoly_buckets, quotients):
        for row, e in zip(lhs, _det_one_plus_tw(charpoly)):
            if e:
                for k, q in enumerate(quot):
                    row[k] += count * e * q
    rhs = [[datum.lie_type.weyl_order] + [0] * top] + [[0] * (top + 1) for _ in range(r)]
    for m in datum.exponents:  # multiply by 1 + y x^m
        for j in range(r, 0, -1):
            for k in range(m, top + 1):
                rhs[j][k] += rhs[j - 1][k - m]
    return lhs == rhs


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
    """p^n truncated at trunc, by repeated squaring: O(log n) products."""
    out, base = [1] + [0] * trunc, p
    while True:
        if n & 1:
            out = _pmul(out, base, trunc)
        n >>= 1
        if not n:
            return out
        base = _pmul(base, base, trunc)


def _det_one_plus_tw(charpoly: Sequence[int]) -> list[int]:
    """Coefficients of det(1 + t*w) from the ascending charpoly of w."""
    r = len(charpoly) - 1
    return [(-1) ** j * charpoly[r - j] for j in range(r + 1)]


def molien_poincare(group: WeylGroup, n: int, max_deg: int) -> list[int]:
    """Coefficients of the Poincare series of the commuting-n-tuple space.

    1/|W| * sum over W of det(1 + t*w)^n * Q_w(t^2), truncated at max_deg,
    where Q_w(x) = prod(1 - x^d_i) / det(1 - x*w) is an exact polynomial
    quotient.  All coefficients are nonnegative integers.  Only the datum and
    the charpoly buckets are read, so group may be a CharpolyHistogram.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    quotients = group._coinvariant_quotients
    require(
        quotients is not None, "a charpoly bucket's det(1 - x*w) does not divide prod(1 - x^d_i)"
    )
    acc = [0] * (max_deg + 1)
    for (charpoly, mult), quot in zip(group.charpoly_buckets, quotients):
        at_t2 = [0] * (2 * len(quot) - 1)
        at_t2[::2] = quot
        term = _pmul(_ppow(_det_one_plus_tw(charpoly), n, max_deg), at_t2, max_deg)
        for j in range(max_deg + 1):
            acc[j] += mult * term[j]
    detail = "Molien sum is not divisible by the group order"
    coeffs = [exact_quotient(c, group.datum.lie_type.weyl_order, detail) for c in acc]
    require(
        coeffs[0] == 1 and (max_deg < 1 or coeffs[1] == 0) and all(c >= 0 for c in coeffs),
        "Poincare coefficients violate their invariants",
    )
    require(max_deg < 2 or coeffs[2] == comb(n, 2), "Poincare [t^2] is not C(n, 2)")
    if n == 1:
        # Solomon's identity at x = t^2, y = t: the Poincare series of G
        series = [1] + [0] * max_deg
        for d in group.datum.degrees:
            series = _pmul(series, [1] + [0] * (2 * d - 2) + [1], max_deg)
        require(coeffs == series, "Poincare series at n = 1 is not prod(1 + t^(2d - 1))")
    return coeffs


def irreducibility_check(group: WeylGroup) -> Fraction:
    """(1/|W|) * sum of trace(w)^2, required to equal 1 (W is irreducible)."""
    r = group.datum.rank
    total = sum(mult * charpoly[r - 1] ** 2 for charpoly, mult in group.charpoly_buckets)
    require(total == group.order, f"sum of squared traces {total} is not |W| = {group.order}")
    return Fraction(1)


def euler_char_rep(group: WeylGroup, k: int) -> int:
    """Lefschetz average (1/|W|) * sum of det(1 - w)^k.

    This is the Euler characteristic of the k-fold torus quotient; for k = 2
    it is required to equal rank + 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0
    for charpoly, mult in group.charpoly_buckets:
        det1 = sum(charpoly)  # charpoly evaluated at 1 = det(1 - w)
        total += mult * det1**k
    euler = exact_quotient(total, group.order, "Lefschetz average is not an integer")
    require(k != 2 or euler == group.datum.rank + 1, "Lefschetz average at k = 2 is not rank + 1")
    return euler


# ---------------------------------------------------------------------------
# Stabilizers, double cosets, cell census
# ---------------------------------------------------------------------------


def face_stabilizer(group: WeylGroup, geometry: AlcoveGeometry, face: FaceIndex) -> StabilizerSubgroup:
    """Elements fixing the face barycenter modulo the coroot lattice.

    Raises ValueError when the face is of another rank or the geometry is not
    that of the group's datum.
    """
    face.check_rank(group.datum)
    if geometry.datum is not group.datum:
        raise ValueError("the alcove geometry belongs to another root datum")
    return StabilizerSubgroup(group, _stabilizer(group, face.nodes))


def _stabilizer(group: WeylGroup, nodes: frozenset[int]) -> np.ndarray:
    """Sorted int32 indices, read-only, of the elements fixing the face on the
    walls `nodes` modulo the coroot lattice.

    w is a member when the translation v_k - w*v_k is one lattice vector for
    every vertex k off the walls (see the module docstring): its label at the
    least such vertex k0 is not -1, and its labels at the others equal it.
    """
    labels = group._translation_labels
    k0, *rest = sorted(set(range(group.datum.rank + 1)) - nodes)
    member = labels[k0] >= 0
    for k in rest:
        member &= labels[k] == labels[k0]
    found = np.flatnonzero(member).astype(np.int32)
    found.setflags(write=False)
    return found


def double_cosets(
    group: WeylGroup, h: StabilizerSubgroup, k: StabilizerSubgroup
) -> list[list[list[int]]]:
    """The representatives of least orbit key of the double cosets H\\W/K.

    H and K must be generated by the wall reflections they contain, as face
    stabilizers are (by those of their walls).
    """
    if h.group is not group or k.group is not group:
        raise ValueError("subgroups must belong to the given Weyl group")
    walls, left, right = group._walls
    rows = []
    for perms, s in ((left, h), (right, k)):
        member = np.zeros(group.order, dtype=bool)
        member[s.members] = True
        rows += [perms[j] for j in np.flatnonzero(member[walls])]
    # the stack is sorted by orbit key, so a double coset's least index is its
    # element of least key; with no wall reflections each element is its own
    reps, _ = _components(rows, group.order)
    fixed = [_fixed_coset_counts(group, s.members).tolist() for s in (h, k)]
    burnside = _orbit_count(group, fixed)
    require(
        reps.size == burnside,
        f"{reps.size} wall-reflection components, but {burnside} double cosets",
    )
    return group.matrices[reps].tolist()


def _fixed_coset_counts(group: WeylGroup, members: np.ndarray) -> np.ndarray:
    """For each class of W, in the order of group._classes: the number of
    cosets g*W_sigma with w*g*W_sigma = g*W_sigma for w in the class, the
    class function |C_W(w)| * |cl(w) cap W_sigma| / |W_sigma|.

    members are the element indices of W_sigma.
    """
    sizes = np.array(group._classes[1])
    in_stab = np.bincount(group._classes[2][members], minlength=sizes.size)
    counts = group.order // sizes * in_stab
    require(not np.any(counts % len(members)), "coset fixed-point count is not divisible")
    return counts // len(members)


def _orbit_count(group: WeylGroup, fixed: list[list[int]]) -> int:
    """Burnside count of diagonal W-orbits from fixed-point counts per class, in exact ints."""
    total = sum(map(math.prod, zip(group._classes[1], *fixed)))
    return exact_quotient(total, group.order, "Burnside average is not an integer")


def cell_census(group: WeylGroup, k: int) -> list[int]:
    """Cells per dimension of the k-fold torus quotient's face/coset structure.

    Cells are k-tuples of alcove faces with a diagonal W-orbit of the product
    of their coset spaces.  An element fixes a tuple of cosets when it fixes
    each one, so by Burnside the census is (1/|W|) sum_c |c| * P_c(t)^k over
    the classes c, with P_c(t) = sum_F fix_F(c) * t^(dim F), in exact ints.
    Required, in this order: every double-coset count of a face pair,
    (1/|W|) sum_c |c| * fix_F(c) * fix_G(c), is an integer (at k = 2 these
    are the census's own Burnside averages); for every class P_c(-1), the
    Lefschetz number of w_c on T (the cells w fixes are fixed pointwise), is
    det(1 - w_c); the top count is |W|^(k-1), as only the open alcove has
    dimension r and only the identity fixes its cosets; and the alternating
    count is euler_char_rep.  ValueError for k < 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    datum, order = group.datum, group.order
    faces = all_faces(datum)
    reps, sizes, _ = group._classes
    fixed = np.array([_fixed_coset_counts(group, _stabilizer(group, f.nodes)) for f in faces])
    # an entry is |W| times the double cosets of a face pair: at most |W|^2, below 2^63
    require(not ((fixed * sizes) @ fixed.T % order).any(), "Burnside average is not an integer")
    by_dim = np.eye(datum.rank + 1, dtype=np.int64)[[f.dim for f in faces]]  # F x (r + 1), one-hot
    totals = [0] * (k * datum.rank + 1)
    for rep, size, poly in zip(reps.tolist(), sizes, (fixed.T @ by_dim).tolist()):
        ((charpoly, _),) = charpoly_buckets(group.matrices[rep : rep + 1])
        lefschetz = sum((-1) ** d * c for d, c in enumerate(poly))
        detail = f"the class of element {rep} fixes cells of Lefschetz number {lefschetz}"
        require(lefschetz == sum(charpoly), f"{detail}, but det(1 - w) = {sum(charpoly)}")
        for d, c in enumerate(_ppow(poly, k, k * datum.rank)):
            totals[d] += size * c
    counts = [exact_quotient(t, order, "Burnside average is not an integer") for t in totals]
    top = order ** (k - 1)
    require(counts[-1] == top, f"the census's top count {counts[-1]} is not |W|^(k-1) = {top}")
    require(
        sum((-1) ** d * c for d, c in enumerate(counts)) == euler_char_rep(group, k),
        "cell census fails the Euler-characteristic identity",
    )
    return counts


# ---------------------------------------------------------------------------
# Affine alcove reduction
# ---------------------------------------------------------------------------


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def _separating_hyperplanes(datum: RootDatum, y: Sequence[int], scale: int) -> int:
    """The number of affine root hyperplanes beta = k that strictly separate the
    point y/scale from the open alcove, where 0 < beta < 1 for every positive
    root: the k in [1, beta) when beta > 1, and in (beta, 0] when beta < 0.
    beta(y) = (c . A) . y = c . (A . y), c the root in the simple-root basis."""
    ay = [_dot(row, y) for row in datum.cartan]
    total = 0
    for root in datum.positive_roots:
        t = _dot(root, ay)
        total += (t - 1) // scale if t > 0 else -(t // scale)
    return total


def alcove_reduce(
    datum: RootDatum, x: Sequence
) -> tuple[tuple[Fraction, ...], WeylMatrix, tuple[int, ...]]:
    """Reduce a point into the fundamental alcove by wall reflections.

    Returns (point, w, q) with point = w*x + q, all alcove inequalities
    satisfied, w a Weyl matrix and q an integer coroot translation.

    The walk runs in integers: with D the lcm of the denominators of x, it
    keeps y = D*(w*x + q), an integer vector, and w and q, which stay
    integral.  A point with a_j(D*x) >= D*b_j on every wall is returned with
    the identity and q = 0.  Each step reflects in the first wall, in node
    order 1..r then 0, with a_j(y) < D*b_j: s_j(p) = p - (a_j(p) - b_j)*c_j
    is a rank-one update of y, q and w, which touches only the rows where c_j
    is nonzero.
    A step crosses exactly one affine root hyperplane between the point and
    the alcove (Humphreys, Reflection Groups and Coxeter Groups, ch. 4), so
    the walk, cut off one step past their count, must take exactly that many.
    A coordinate that is not a finite rational raises ValueError.
    """
    r = datum.rank
    try:
        x = tuple(Fraction(c) for c in x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError("coordinates must be finite rationals") from None
    if len(x) != r:
        raise ValueError(f"expected a vector of length {r}")
    scale, (dx,) = scale_to_integers([x])  # dx = scale*x, integral
    walls = list(zip(datum.wall_functionals, datum.wall_coroots, datum.wall_bounds))
    walls = walls[1:] + walls[:1]  # node order 1..r, then 0
    w = [[int(i == j) for j in range(r)] for i in range(r)]
    if all(_dot(a, dx) >= b * scale for a, _, b in walls):
        return x, tuple(map(tuple, w)), (0,) * r
    # translate by the coroot lattice (integer vectors in this basis) first,
    # so the reflection walk starts from a bounded point
    q = [-math.floor(c) for c in x]
    y = [a + scale * b for a, b in zip(dx, q)]
    hyperplanes = _separating_hyperplanes(datum, y, scale)
    for steps in range(hyperplanes + 2):
        wall = next((wall for wall in walls if _dot(wall[0], y) < wall[2] * scale), None)
        if wall is None:
            break
        a, c, b = wall
        ay, aq = _dot(a, y) - b * scale, _dot(a, q) - b
        aw = [_dot(a, col) for col in zip(*w)]
        for i, ci in enumerate(c):
            if ci:
                y[i] -= ci * ay
                q[i] -= ci * aq
                w[i] = [u - ci * v for u, v in zip(w[i], aw)]
    require(
        wall is None and steps == hyperplanes,
        f"the alcove walk took {'over ' if wall else ''}{steps} steps, but {hyperplanes} "
        "root hyperplanes separate the point from the alcove",
    )
    # bookkeeping, exact: scale*(w*x + q) == y
    exact = all(_dot(wi, dx) + scale * qi == yi for wi, qi, yi in zip(w, q, y))
    require(exact, "reduction bookkeeping failed")
    return tuple(Fraction(c, scale) for c in y), tuple(map(tuple, w)), tuple(q)
