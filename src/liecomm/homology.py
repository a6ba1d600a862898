"""Exact integer linear algebra: Smith normal form and chain-complex homology.

Everything here is computed over Z with arbitrary precision.  The fast path
keeps matrices in int64 numpy arrays with smallest-pivot elimination; it bails
out to a pure Python big-integer routine whenever entries threaten the int64
range, so results are always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Sequence

import numpy as np

IntMatrix = Sequence[Sequence[int]]

_INT64_GUARD = 2**59


class InvariantBreachError(RuntimeError):
    """A theorem-level cross-check failed; this must never fire."""


class ChainComplexError(ValueError):
    """Consecutive boundary maps do not compose to zero."""


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are small)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class FinAbGroup:
    """A finitely generated abelian group Z^free ⊕ Z/d_1 ⊕ ... ⊕ Z/d_t.

    The torsion coefficients form a divisor chain d_1 | d_2 | ... with each
    d_i >= 2, so equality of instances is equality of isomorphism classes.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        tors = tuple(int(d) for d in self.torsion)
        object.__setattr__(self, "torsion", tors)
        for d in tors:
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(tors, tors[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisor chain")

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FinAbGroup":
        """Z/n (n >= 1); Z/1 is the trivial group."""
        if n < 1:
            raise ValueError("cyclic order must be positive")
        return cls(0, ()) if n == 1 else cls(0, (n,))

    @classmethod
    def from_divisors(cls, divisors: Sequence[int], free_rank: int = 0) -> "FinAbGroup":
        """Normalize an arbitrary list of cyclic orders into a divisor chain."""
        primary: dict[int, list[int]] = {}
        for d in divisors:
            d = int(d)
            if d <= 0:
                raise ValueError("divisors must be positive")
            if d == 1:
                continue
            for p, e in _factorint(d).items():
                primary.setdefault(p, []).append(e)
        t = max((len(v) for v in primary.values()), default=0)
        chain = [1] * t
        for p, exps in primary.items():
            for i, e in enumerate(sorted(exps)):
                chain[t - len(exps) + i] *= p**e
        return cls(free_rank, tuple(chain))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def is_cyclic(self) -> bool:
        """Cyclic as an abstract group (Z, Z/n, or 0)."""
        if self.free_rank == 0:
            return len(self.torsion) <= 1
        return self.free_rank == 1 and not self.torsion

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("group is infinite")
        return prod(self.torsion) if self.torsion else 1

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup.from_divisors(
            self.torsion + other.torsion, self.free_rank + other.free_rank
        )

    def tensor(self, other: "FinAbGroup") -> "FinAbGroup":
        """Tensor product over Z, assembled from Z/m ⊗ Z/n = Z/gcd(m, n)."""
        divs: list[int] = []
        divs.extend(list(other.torsion) * self.free_rank)
        divs.extend(list(self.torsion) * other.free_rank)
        divs.extend(gcd(a, b) for a in self.torsion for b in other.torsion)
        return FinAbGroup.from_divisors(divs, self.free_rank * other.free_rank)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def tensor_finab(a: FinAbGroup, b: FinAbGroup) -> FinAbGroup:
    """Structural tensor product of two finitely generated abelian groups."""
    return a.tensor(b)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _smith_python(mat: Sequence[Sequence[int]], want_transforms: bool):
    """Big-integer Smith reduction; returns (U, D, V) or (None, D, None)."""
    A = [[int(x) for x in row] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity(m) if want_transforms else None
    V = _identity(n) if want_transforms else None

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        Ai, Aj = A[i], A[j]
        for k in range(n):
            Ai[k] += q * Aj[k]
        if U is not None:
            Ui, Uj = U[i], U[j]
            for k in range(m):
                Ui[k] += q * Uj[k]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in A:
            row[i] += q * row[j]
        if V is not None:
            for row in V:
                row[i] += q * row[j]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        if U is not None:
            U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        # smallest nonzero pivot in the trailing submatrix
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (pivot is None or v < pivot[0]):
                    pivot = (v, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            if A[t][t] < 0:
                negate_row(t)
            p = A[t][t]
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // p
                    if q:
                        add_row(i, t, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // p
                    if q:
                        add_col(j, t, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the whole trailing submatrix
            bad = None
            for i in range(t + 1, m):
                if any(A[i][j] % p for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is not None:
                add_row(t, bad, 1)
                continue
            break
        t += 1
    return U, A, V


def smith_normal_form(mat: IntMatrix):
    """Smith normal form with transforms: returns (U, D, V), U @ mat @ V == D.

    U and V are unimodular; D is diagonal with a divisibility chain along the
    diagonal.  Intended for moderate sizes (all entries are Python ints).
    """
    rows = [list(map(int, row)) for row in mat]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    U, D, V = _smith_python(rows, want_transforms=True)
    return U, D, V


def _find_pivot(A: np.ndarray, t: int) -> tuple[int, int] | None:
    """Smallest-magnitude pivot in A[t:, t:], returning early on a +-1."""
    m, n = A.shape
    best = None
    best_val = None
    for j in range(t, n):
        col = A[t:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        k = int(nz[np.argmin(np.abs(col[nz]))])
        val = abs(int(col[k]))
        if best_val is None or val < best_val:
            best_val = val
            best = (t + k, j)
            if val == 1:
                return best
    return best


def snf_divisors(mat: IntMatrix) -> list[int]:
    """Nonzero elementary divisors d_1 | d_2 | ... of an integer matrix.

    Fast int64 numpy path with smallest-pivot elimination (preferring +-1
    pivots) and an exact big-integer fallback when entries grow too large.
    """
    A = np.array(mat, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = A.shape
    if m == 0 or n == 0 or not A.any():
        return []
    if int(np.abs(A).max()) > _INT64_GUARD:
        return _divisors_python(mat)
    t = 0
    out: list[int] = []
    while t < min(m, n):
        if t % 32 == 0 and int(np.abs(A[t:, t:]).max(initial=0)) > _INT64_GUARD:
            return _divisors_python(mat)
        pivot = _find_pivot(A, t)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            A[[t, i], :] = A[[i, t], :]
        if j != t:
            A[:, [t, j]] = A[:, [j, t]]
        while True:
            if A[t, t] < 0:
                A[t, t:] = -A[t, t:]
            p = int(A[t, t])
            col = A[t + 1 :, t]
            nz = np.nonzero(col)[0]
            if nz.size:
                q = col[nz] // p
                upd = nz[q != 0]
                if upd.size:
                    A[t + 1 + upd, t:] -= (col[upd] // p)[:, None] * A[t, t:][None, :]
                nz = np.nonzero(A[t + 1 :, t])[0]
                if nz.size:
                    # remainders lie in (0, p); bring the smallest up as pivot
                    col = A[t + 1 :, t]
                    k2 = int(nz[np.argmin(col[nz])])
                    A[[t, t + 1 + k2], :] = A[[t + 1 + k2, t], :]
                    continue
            row = A[t, t + 1 :]
            nz = np.nonzero(row)[0]
            if nz.size:
                q = row // p
                # column t below row t is already clear, so only row t changes
                A[t, t + 1 :] -= p * q
                row = A[t, t + 1 :]
                nz = np.nonzero(row)[0]
                if nz.size:
                    k2 = int(nz[np.argmin(row[nz])])
                    A[:, [t, t + 1 + k2]] = A[:, [t + 1 + k2, t]]
                    continue
            if p != 1:
                if int(np.abs(A[t:, t:]).max()) > _INT64_GUARD:
                    return _divisors_python(mat)
                rem = A[t + 1 :, t + 1 :] % p
                bad = np.nonzero(rem.any(axis=1))[0]
                if bad.size:
                    A[t, :] += A[t + 1 + int(bad[0]), :]
                    continue
            break
        out.append(int(A[t, t]))
        t += 1
    return out


def _divisors_python(mat: IntMatrix) -> list[int]:
    _, D, _ = _smith_python([list(map(int, row)) for row in mat], want_transforms=False)
    out = []
    for k in range(min(len(D), len(D[0]) if D else 0)):
        if D[k][k]:
            out.append(abs(D[k][k]))
    return out


# ---------------------------------------------------------------------------
# Chain-complex homology
# ---------------------------------------------------------------------------


def _compose_is_zero(a: np.ndarray, b: np.ndarray) -> bool:
    if a.size == 0 or b.size == 0:
        return True
    bound = float(np.abs(a).max()) * float(np.abs(b).max()) * a.shape[1]
    if bound < 2**52:
        prod_ = a.astype(np.float64) @ b.astype(np.float64)
        return not prod_.any()
    prod_ = a.astype(object) @ b.astype(object)
    return not np.asarray(prod_ != 0).any()


def chain_homology(boundaries: Sequence[IntMatrix]) -> list[FinAbGroup]:
    """Homology of a chain complex given by boundary matrices [d_1, ..., d_top].

    boundaries[k] is the matrix of d_{k+1}: C_{k+1} -> C_k, with shape
    (dim C_k, dim C_{k+1}).  Returns [H_0, ..., H_top].
    """
    mats = [np.array(b, dtype=np.int64) for b in boundaries]
    if not mats:
        raise ValueError("need at least one boundary matrix")
    for b in mats:
        if b.ndim != 2:
            raise ValueError("boundary matrices must be 2-d")
    dims = [mats[0].shape[0]] + [b.shape[1] for b in mats]
    for k in range(1, len(mats)):
        if mats[k].shape[0] != dims[k]:
            raise ValueError("inconsistent boundary matrix shapes")
        if not _compose_is_zero(mats[k - 1], mats[k]):
            raise ChainComplexError(f"d_{k} o d_{k + 1} != 0")
    divisors = [snf_divisors(b) for b in mats]
    ranks = [len(d) for d in divisors]
    top = len(mats)
    groups = []
    for k in range(top + 1):
        rank_in = ranks[k] if k < top else 0
        rank_out = ranks[k - 1] if k > 0 else 0
        free = dims[k] - rank_out - rank_in
        tors = [d for d in (divisors[k] if k < top else [])] if k < top else []
        tors = [d for d in tors if d > 1]
        groups.append(FinAbGroup.from_divisors(tors, free))
    return groups
