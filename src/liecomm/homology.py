"""Exact integer linear algebra: Smith normal form and chain-complex homology.

Everything here is computed over Z with Python ints, so results are exact at
any size.  Both Smith routines share one sparse front end: the matrix is held
as {column: value} rows with column index sets, and +-1 pivots are eliminated
one at a time, least Markowitz cost (|row| - 1) * (|column| - 1) first.  Each
such step is unimodular and leaves the exact Schur complement, so the Smith
form is unchanged; simplicial boundary and coroot-lattice matrices are almost
all unit pivots.  Only the remainder, which has no unit entry left, goes to
the dense big-integer reduction, the one finisher for divisors and for
transforms; with transforms, U and V compose the sparse row and column
operations with the finisher's.  Composition of boundary maps is checked
exactly on the same sparse rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd, prod
from typing import Sequence

import numpy as np

IntMatrix = Sequence[Sequence[int]]


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


class _SparseMatrix:
    """Exact integer matrix: one {column: value} dict of Python ints per row."""

    __slots__ = ("rows", "shape")

    def __init__(self, rows: list[dict[int, int]], shape: tuple[int, int]):
        self.rows = rows
        self.shape = shape

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """Dense copy for numpy callers; the entries must fit dtype (int64 by default)."""
        if copy is False:
            raise ValueError("a sparse matrix has no dense view to share")
        out = np.zeros(self.shape, dtype=dtype or np.int64)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out[i, j] = v
        return out


def _sparse(mat) -> _SparseMatrix:
    """Read an integer matrix into sparse rows; exact for entries of any size."""
    if isinstance(mat, _SparseMatrix):
        return _SparseMatrix([dict(row) for row in mat.rows], mat.shape)
    if isinstance(mat, np.ndarray) and mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows = []
    # an ndarray keeps its column count even when it has no rows
    width = mat.shape[1] if isinstance(mat, np.ndarray) else None
    for row in mat:
        if not hasattr(row, "__len__"):
            raise ValueError("expected a 2-d matrix")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged matrix")
        try:
            rows.append({j: int(x) for j, x in enumerate(row) if x})
        except TypeError:
            if any(hasattr(x, "__len__") for x in row):
                raise ValueError("expected a 2-d matrix") from None
            raise
    return _SparseMatrix(rows, (len(rows), width or 0))


def _axpy(dst: dict[int, int], f: int, src: dict[int, int]) -> None:
    """dst -= f * src on sparse vectors, dropping entries that cancel."""
    for c, v in src.items():
        x = dst.get(c, 0) - f * v
        if x:
            dst[c] = x
        else:
            del dst[c]


def _eliminate_units(
    a: _SparseMatrix,
    U: list[dict[int, int]] | None = None,
    V: list[dict[int, int]] | None = None,
):
    """Eliminate +-1 pivots of least Markowitz cost, each by an exact Schur step.

    Pivoting on a unit entry p = a[i][j] clears column j by row operations and
    row i by column operations; both are unimodular, so the Smith form of a is
    diag(1, Schur complement).  The cost (|row| - 1) * (|column| - 1) bounds
    the fill-in; costs in the heap are refreshed when popped.  With U (rows)
    and V (columns) given as sparse identities, the same operations are
    applied to them.  a.rows is consumed.

    Returns (pivots, remainder, rest_rows, rest_cols): pivots lists (i, j, p);
    remainder is the dense matrix on rest_rows x rest_cols, the live rows and
    columns that still hold an entry, none of which is a unit.
    """
    rows: list[dict[int, int] | None] = a.rows  # type: ignore[assignment]
    cols: list[set[int] | None] = [set() for _ in range(a.shape[1])]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    heap = [
        ((len(row) - 1) * (len(cols[j]) - 1), i, j)
        for i, row in enumerate(rows)
        for j, v in row.items()
        if v == 1 or v == -1
    ]
    heapify(heap)
    pivots = []
    while heap:
        cost, i, j = heappop(heap)
        row = rows[i]
        if row is None:
            continue
        p = row.get(j)
        if p != 1 and p != -1:
            continue
        col = cols[j]
        now = (len(row) - 1) * (len(col) - 1)
        if now > cost:
            heappush(heap, (now, i, j))
            continue
        for c in row:
            cols[c].discard(i)
        for k in col:
            rk = rows[k]
            f = rk.pop(j) * p
            units = []
            for c, v in row.items():
                if c == j:
                    continue
                x = rk.get(c, 0) - f * v
                if x:
                    if c not in rk:
                        cols[c].add(k)
                    rk[c] = x
                    if x == 1 or x == -1:
                        units.append(c)
                else:
                    del rk[c]
                    cols[c].discard(k)
            for c in units:
                heappush(heap, ((len(rk) - 1) * (len(cols[c]) - 1), k, c))
            if U is not None:
                _axpy(U[k], f, U[i])
        if V is not None:
            for c, v in row.items():
                if c != j:
                    _axpy(V[c], v * p, V[j])
        rows[i] = None
        cols[j] = None
        pivots.append((i, j, p))
    rest_rows = [i for i, row in enumerate(rows) if row]
    rest_cols = [j for j, col in enumerate(cols) if col]
    remainder = [[rows[i].get(j, 0) for j in rest_cols] for i in rest_rows]
    return pivots, remainder, rest_rows, rest_cols


def _combine(coeffs: Sequence[int], vecs: Sequence[dict[int, int]]) -> dict[int, int]:
    """The sparse vector sum_k coeffs[k] * vecs[k]."""
    out: dict[int, int] = {}
    for q, vec in zip(coeffs, vecs):
        if q:
            _axpy(out, -q, vec)
    return out


def smith_normal_form(mat: IntMatrix):
    """Smith normal form with transforms: returns (U, D, V), U @ mat @ V == D.

    U and V are unimodular; D is diagonal with a divisibility chain along the
    diagonal.  Unit pivots are eliminated sparsely and only the remainder
    goes through the dense big-integer reduction; U and V compose both.
    """
    a = _sparse(mat)
    m, n = a.shape
    U = [{i: 1} for i in range(m)]
    V = [{j: 1} for j in range(n)]
    pivots, remainder, rest_rows, rest_cols = _eliminate_units(a, U, V)
    Ur, Dr, Vr = _smith_python(remainder, want_transforms=True)
    done_rows = {i for i, _, _ in pivots}.union(rest_rows)
    done_cols = {j for _, j, _ in pivots}.union(rest_cols)
    u_rows = [{c: p * v for c, v in U[i].items()} for i, _, p in pivots]
    u_rows += [_combine(coeffs, [U[i] for i in rest_rows]) for coeffs in Ur]
    u_rows += [U[i] for i in range(m) if i not in done_rows]
    v_cols = [V[j] for _, j, _ in pivots]
    v_cols += [_combine(coeffs, [V[j] for j in rest_cols]) for coeffs in zip(*Vr)]
    v_cols += [V[j] for j in range(n) if j not in done_cols]
    U_out = [[0] * m for _ in range(m)]
    for r, vec in enumerate(u_rows):
        for c, v in vec.items():
            U_out[r][c] = v
    V_out = [[0] * n for _ in range(n)]
    for c, vec in enumerate(v_cols):
        for r, v in vec.items():
            V_out[r][c] = v
    diagonal = [1] * len(pivots) + [Dr[t][t] for t in range(min(len(Dr), len(rest_cols)))]
    D = [[0] * n for _ in range(m)]
    for t, d in enumerate(diagonal):
        D[t][t] = d
    return U_out, D, V_out


def snf_divisors(mat: IntMatrix) -> list[int]:
    """Nonzero elementary divisors d_1 | d_2 | ... of an integer matrix.

    Unit pivots are eliminated sparsely (each contributes a divisor 1); the
    remainder goes to the big-integer reduction.
    """
    pivots, remainder, _, _ = _eliminate_units(_sparse(mat))
    return [1] * len(pivots) + (_divisors_python(remainder) if remainder else [])


def _divisors_python(mat: list[list[int]]) -> list[int]:
    _, D, _ = _smith_python(mat, want_transforms=False)
    return [abs(D[k][k]) for k in range(min(len(D), len(D[0]))) if D[k][k]]


# ---------------------------------------------------------------------------
# Chain-complex homology
# ---------------------------------------------------------------------------


def _compose_is_zero(a: _SparseMatrix, b: _SparseMatrix) -> bool:
    """Whether a @ b == 0, exactly, from the sparse rows."""
    for row in a.rows:
        acc: dict[int, int] = {}
        for j, x in row.items():
            for c, y in b.rows[j].items():
                acc[c] = acc.get(c, 0) + x * y
        if any(acc.values()):
            return False
    return True


def chain_homology(boundaries: Sequence[IntMatrix]) -> list[FinAbGroup]:
    """Homology of a chain complex given by boundary matrices [d_1, ..., d_top].

    boundaries[k] is the matrix of d_{k+1}: C_{k+1} -> C_k, with shape
    (dim C_k, dim C_{k+1}).  Returns [H_0, ..., H_top].
    """
    mats = [_sparse(b) for b in boundaries]
    if not mats:
        raise ValueError("need at least one boundary matrix")
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
        tors = [d for d in divisors[k] if d > 1] if k < top else []
        groups.append(FinAbGroup.from_divisors(tors, dims[k] - rank_out - rank_in))
    return groups
