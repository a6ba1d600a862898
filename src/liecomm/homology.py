"""Exact integer linear algebra: Smith normal form and chain-complex homology.

Everything here is computed over Z with Python ints, so results are exact at
any size.  Both Smith routines share one sparse front end: the matrix is held
as {column: value} rows with column index sets, and +-1 pivots are eliminated
one at a time, least Markowitz cost (|row| - 1) * (|column| - 1) first.  Each
such step is unimodular and leaves the exact Schur complement, so the Smith
form is unchanged; simplicial boundary and coroot-lattice matrices are almost
all unit pivots.  Only the remainder, which has no unit entry left, goes to
the dense big-integer reduction, the one finisher for divisors and for
transforms; with transforms it reduces [[A, 1], [1, 0]], whose identity
blocks become U and V, composed with the sparse row and column operations.
Composition of boundary maps is checked exactly on the same sparse rows.

Homology eliminates d_1, d_2, ... in order, and d_{k+1} skips the rows J
that the unit pivots (I, J) of d_k paired (clearing: Chen-Kerber 2011,
Bauer-Kerber-Reininghaus 2014).  Over Z this keeps its elementary divisors:
d_k[I, J] has determinant +-1, the product of the pivots, so rows I of
d_k d_{k+1} = 0 give rows J of d_{k+1} as -d_k[I, J]^-1 d_k[I, J^c] times
the other rows, an integral combination that unimodular row operations clear.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import Sequence

import numpy as np

IntMatrix = Sequence[Sequence[int]]


class InvariantBreachError(RuntimeError):
    """A theorem-level cross-check failed; this must never fire."""


def require(ok: object, detail: object = "") -> None:
    """Raise InvariantBreachError(detail) unless ok: the one place a failed
    cross-check becomes an error.  An if/raise, so it survives python -O."""
    if not ok:
        raise InvariantBreachError(detail)


def exact_quotient(num: int, den: int, detail: object) -> int:
    """num // den for Python ints, a breach if the division leaves a remainder."""
    quot, rem = divmod(num, den)
    require(not rem, detail)
    return quot


class ChainComplexError(ValueError):
    """Consecutive boundary maps do not compose to zero."""


def as_int(x: object, detail: str) -> int:
    """x as an int, a ValueError(detail) unless x is integral: 3 and 3.0 pass,
    2.5, inf, nan and "3" do not."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(detail) from None
    if n != x:
        raise ValueError(detail)
    return n


@dataclass(frozen=True)
class FinAbGroup:
    """A finitely generated abelian group Z^free_rank ⊕ Z/n_1 ⊕ ... ⊕ Z/n_s.

    Any positive cyclic orders n_i are accepted and stored as the invariant
    factors d_1 | d_2 | ... with each d_i >= 2, so equality of instances is
    equality of isomorphism classes.  The orders 1 are dropped, and each other
    order is merged into the chain by Z/a ⊕ Z/b = Z/gcd(a, b) ⊕ Z/lcm(a, b),
    which needs no factoring.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        rank = as_int(self.free_rank, "free rank must be a nonnegative integer")
        if rank < 0:
            raise ValueError("free rank must be a nonnegative integer")
        orders = [as_int(n, "cyclic orders must be positive integers") for n in self.torsion]
        if any(n < 1 for n in orders):
            raise ValueError("cyclic orders must be positive integers")
        chain: list[int] = []  # descending, so the least factor is last
        for n in orders:
            # an n that divides the least factor divides them all and is appended
            if chain and chain[-1] % n:
                # from the top down, each factor keeps the lcm and passes the gcd on
                for i, d in enumerate(chain):
                    chain[i], n = lcm(d, n), gcd(d, n)
            if n > 1:
                chain.append(n)
        object.__setattr__(self, "free_rank", rank)
        object.__setattr__(self, "torsion", tuple(reversed(chain)))

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
        return prod(self.torsion)

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


def _smith_python(mat: Sequence[Sequence[int]], want_transforms: bool):
    """Big-integer Smith reduction; returns (U, D, V) or (None, D, None).

    With transforms it reduces [[A, 1_m], [1_n, 0]]: row operations touch only
    the first m rows and column operations only the first n columns, so U and
    V are the top-right and bottom-left blocks."""
    A = [[int(x) for x in row] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    if want_transforms:
        A = [row + [int(i == k) for k in range(m)] for i, row in enumerate(A)]
        A += [[int(j == k) for k in range(n + m)] for j in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        Ai, Aj = A[i], A[j]
        for k in range(len(Ai)):
            Ai[k] += q * Aj[k]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in A:
            row[i] += q * row[j]

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
                A[t] = [-x for x in A[t]]
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
    if not want_transforms:
        return None, A, None
    return [row[n:] for row in A[:m]], [row[:n] for row in A[:m]], [row[:n] for row in A[m:]]


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
        if not hasattr(row, "__len__") or any(hasattr(x, "__len__") for x in row):
            raise ValueError("expected a 2-d matrix")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged matrix")
        ints = [as_int(x, "matrix entries must be integers") for x in row]
        rows.append({j: v for j, v in enumerate(ints) if v})
    return _SparseMatrix(rows, (len(rows), width or 0))


def scale_to_integers(vectors: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """(D, D*vectors) for exact vectors: D is the lcm of their denominators,
    and the scaled vectors are rows of Python ints."""
    denom = lcm(*(c.denominator for v in vectors for c in v))
    return denom, [[c.numerator * (denom // c.denominator) for c in v] for v in vectors]


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
    # (cost, i, j) packed into the int (cost * m + i) * n + j: same order
    m, n = len(rows) or 1, a.shape[1] or 1
    heap = [
        ((len(row) - 1) * (len(cols[j]) - 1) * m + i) * n + j
        for i, row in enumerate(rows)
        for j, v in row.items()
        if v == 1 or v == -1
    ]
    heapify(heap)
    pivots = []
    while heap:
        key, j = divmod(heappop(heap), n)
        cost, i = divmod(key, m)
        row = rows[i]
        if row is None:
            continue
        p = row.get(j)
        if p != 1 and p != -1:
            continue
        col = cols[j]
        now = (len(row) - 1) * (len(col) - 1)
        if now > cost:
            heappush(heap, (now * m + i) * n + j)
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
                heappush(heap, ((len(rk) - 1) * (len(cols[c]) - 1) * m + k) * n + c)
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
    return [1] * len(pivots) + _remainder_divisors(remainder)


def _remainder_divisors(remainder: list[list[int]]) -> list[int]:
    """Nonzero elementary divisors of a dense remainder of _eliminate_units,
    by the big-integer reduction alone: it holds no unit entry to eliminate."""
    _, D, _ = _smith_python(remainder, want_transforms=False)
    return [abs(d) for k, row in enumerate(D) for d in row[k : k + 1] if d]  # the diagonal


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
    Each d_{k+1} skips the rows that the unit pivots of d_k paired, which is
    exact by the module docstring; composition is checked on the full
    matrices before any row is skipped.
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
    divisors = []
    paired: set[int] = set()
    for b in mats:
        rows = [row for i, row in enumerate(b.rows) if i not in paired]
        pivots, remainder, _, _ = _eliminate_units(_SparseMatrix(rows, (len(rows), b.shape[1])))
        divisors.append([1] * len(pivots) + _remainder_divisors(remainder))
        paired = {j for _, j, _ in pivots}
    ranks = [len(d) for d in divisors]
    top = len(mats)
    groups = []
    for k in range(top + 1):
        rank_in = ranks[k] if k < top else 0
        rank_out = ranks[k - 1] if k > 0 else 0
        groups.append(FinAbGroup(dims[k] - rank_out - rank_in, divisors[k] if k < top else ()))
    return groups
