import hashlib
import random
import time
from fractions import Fraction
from math import inf, nan, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liecomm import homology
from liecomm.homology import (
    ChainComplexError,
    FinAbGroup,
    _eliminate_units,
    _smith_python,
    _sparse,
    chain_homology,
    smith_normal_form,
    snf_divisors,
)
from liecomm.simplicial import (
    barycentric_subdivide,
    quotient_by_involution,
    torus_inversion_quotient,
    torus_triangulation,
)


def _mat_mult(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _abs_det(mat):
    """|det| of a square integer matrix, exactly: Gaussian elimination over Q."""
    rows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in mat]
    live = set(range(len(rows)))
    out = Fraction(1)
    for j in range(len(rows)):
        cands = [i for i in live if j in rows[i]]
        if not cands:
            return 0
        i = min(cands, key=lambda r: len(rows[r]))
        live.remove(i)
        pivot_row = rows[i]
        out *= abs(pivot_row[j])
        for k in cands:
            if k != i:
                f = rows[k][j] / pivot_row[j]
                for c, v in pivot_row.items():
                    x = rows[k].get(c, 0) - f * v
                    if x:
                        rows[k][c] = x
                    else:
                        rows[k].pop(c, None)
    return out


def _python_divisors(mat):
    """Nonzero diagonal of the dense big-integer reduction: the reference."""
    _, d, _ = _smith_python(mat, want_transforms=False)
    return [abs(d[k][k]) for k in range(min(len(d), len(d[0]))) if d[k][k]]


@st.composite
def _int_matrices(draw):
    """Rectangular matrices with entries in [-20, 20], some zero rows and columns."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    entry = st.integers(-20, 20)
    if draw(st.booleans()):
        entry = entry.filter(lambda x: abs(x) != 1)  # nothing for the unit pivots
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(mat)
    ]


# sha256 of every Smith output on _seeded_matrices() and on the 3-torus
# quotient's d1, as computed before the finisher carried U and V as blocks of
# one matrix; a change that moves one entry of U, D or V fails it
SMITH_DIGEST = "7eb7a0dc24b14ab1a6d62ea8e68875e34dc73d30872a3e464285d52eb4fa1e38"


def _seeded_matrices():
    """400 integer matrices, every shape 0-7 x 0-7 six or seven times: signed
    entries of mixed density, and an entry of +-2**70 in every seventh."""
    rng = random.Random(2022)
    mats = []
    for k in range(400):
        m, n = k % 8, (k // 8) % 8
        density = rng.choice((0.3, 0.7, 1.0))
        mat = [
            [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)
        ]
        if m and n and k % 7 == 0:
            mat[rng.randrange(m)][rng.randrange(n)] = rng.choice((2**70, -(2**70)))
        mats.append(mat)
    return mats


class TestSmithNormalForm:
    def test_identity(self):
        u, d, v = smith_normal_form([[1, 0], [0, 1]])
        assert d == [[1, 0], [0, 1]]

    def test_diag_2_3(self):
        u, d, v = smith_normal_form([[2, 0], [0, 3]])
        assert [d[0][0], d[1][1]] == [1, 6]

    def test_zero(self):
        _, d, _ = smith_normal_form([[0, 0], [0, 0]])
        assert d == [[0, 0], [0, 0]]

    def test_transforms(self):
        m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        u, d, v = smith_normal_form(m)
        assert _mat_mult(_mat_mult(u, m), v) == d
        assert _abs_det(u) == 1 and _abs_det(v) == 1
        diag = [d[i][i] for i in range(3)]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 or b == 0

    def test_divisors_fast_path_matches(self):
        m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        _, d, _ = smith_normal_form(m)
        assert snf_divisors(m) == [d[i][i] for i in range(3) if d[i][i]]

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
        st.permutations(range(3)),
        st.permutations(range(3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_divisors_invariant_under_permutation(self, mat, rp, cp):
        permuted = [[mat[rp[i]][cp[j]] for j in range(3)] for i in range(3)]
        assert snf_divisors(mat) == snf_divisors(permuted)

    @given(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=2, max_size=4),
            min_size=2,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_transform_identity_and_chain(self, mat):
        u, d, v = smith_normal_form(mat)
        assert _mat_mult(_mat_mult(u, mat), v) == d
        assert _abs_det(u) == 1 and _abs_det(v) == 1
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else b == 0
        assert snf_divisors(mat) == [x for x in diag if x]


    @given(_int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_divisors_match_dense_reduction(self, mat):
        assert snf_divisors(mat) == _python_divisors(mat)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_remainder_parity(self, seed):
        mat = np.random.default_rng(seed).integers(-3, 4, size=(40, 40)).tolist()
        _, remainder, _, _ = _eliminate_units(_sparse(mat))
        assert remainder  # the finisher has work to do
        assert snf_divisors(mat) == _python_divisors(mat)

    @pytest.mark.parametrize("seed", [5, 6, 20])
    def test_large_entry_parity(self, seed):
        # one or two unit pivots, then a dense remainder of 22 x 22 or more
        mat = np.random.default_rng(seed).integers(-50, 51, size=(24, 24)).tolist()
        assert snf_divisors(mat) == _python_divisors(mat)

    def test_non_2d_rejected(self):
        for bad in ([[[1]]], [[1, [2]]], [1, 2], np.zeros((1, 1, 1), dtype=np.int64),
                    np.zeros((1, 1, 1), dtype=object)):
            with pytest.raises(ValueError, match="expected a 2-d matrix"):
                snf_divisors(bad)
            with pytest.raises(ValueError, match="expected a 2-d matrix"):
                smith_normal_form(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            [[1.5]], [[2.7, 0], [0, 1]], [[0.5, 1]], [[Fraction(1, 2)]], [[inf]], [[-inf, 1]],
            [[nan]], [[None]],
        ],
    )
    def test_non_integral_entries_rejected(self, bad):
        # int() would truncate them, to a wrong divisor or to a stored zero,
        # and raises OverflowError on an infinity and TypeError on None
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            snf_divisors(bad)
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            smith_normal_form(bad)

    def test_integral_floats_accepted(self):
        assert snf_divisors([[2.0, 0], [0, 4.0]]) == [2, 4]
        assert snf_divisors(np.array([[2.0, 0], [0, 6.0]])) == [2, 6]

    def test_entries_beyond_int64(self):
        assert snf_divisors([[2**70, 0], [0, 3]]) == [1, 3 * 2**70]
        u, d, v = smith_normal_form([[2**70, 0], [0, 3]])
        assert _mat_mult(_mat_mult(u, [[2**70, 0], [0, 3]]), v) == d
        assert [d[0][0], d[1][1]] == [1, 3 * 2**70]

    def test_transforms_on_quotient_d1(self):
        quotient, _ = torus_inversion_quotient(3)
        d1 = quotient.boundary_matrices()[0]
        u, d, v = smith_normal_form(d1)
        uu, vv = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
        m, n = d1.shape
        # the int64 products below are exact under this bound
        assert m * n * int(np.abs(uu).max()) * int(np.abs(d1).max()) * int(np.abs(vv).max()) < 2**62
        assert np.array_equal(uu @ d1 @ vv, np.array(d, dtype=np.int64))
        assert _abs_det(u) == 1 and _abs_det(v) == 1
        assert [d[k][k] for k in range(m)] == [1] * (m - 1) + [0]
        assert sum(x != 0 for row in d for x in row) == m - 1

    def test_outputs_byte_identical(self):
        digest = hashlib.sha256()
        # a list without rows has no width; arrays keep theirs
        mats = _seeded_matrices() + [np.zeros((0, n), dtype=np.int64) for n in range(8)]
        for mat in mats:
            outputs = (
                smith_normal_form(mat),
                _smith_python(mat, want_transforms=True),
                _smith_python(mat, want_transforms=False),
                snf_divisors(mat),
            )
            digest.update(repr(outputs).encode())
        d1 = torus_inversion_quotient(3)[0].boundary_matrices()[0]
        digest.update(repr((smith_normal_form(d1), snf_divisors(d1))).encode())
        assert digest.hexdigest() == SMITH_DIGEST


def _unimodular_pair(rng, n):
    """A random unimodular n x n matrix P and its inverse: n elementary
    operations row_a += q * row_b with q = +-1, then a permutation."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        q = rng.choice((-1, 1))
        # P <- (1 + q e_ab) P and P^-1 <- P^-1 (1 - q e_ab)
        p[a] = [x + q * y for x, y in zip(p[a], p[b])]
        for row in p_inv:
            row[b] -= q * row[a]
    perm = rng.sample(range(n), n)
    return [p[i] for i in perm], [[row[i] for i in perm] for row in p_inv]


def _conjugated_complex(rng, blocks):
    """Boundary matrices [d_1, ..., d_top] of known homology, and that homology.

    blocks[k] = (divisors of d_{k+1}, free rank of H_k) for k = 0, ..., top;
    the last has no divisors.  In the standard basis C_k = B_k + H_k + S_k,
    d_{k+1} sends S_{k+1} onto B_k by diag(divisors) and is 0 elsewhere; each
    C_k then changes basis by a random unimodular P_k, so d_{k+1} becomes
    P_k d_{k+1} P_{k+1}^-1 as an int64 array.
    """
    top = len(blocks) - 1
    ranks = [len(divs) for divs, _ in blocks]
    dims = [ranks[k] + blocks[k][1] + (ranks[k - 1] if k else 0) for k in range(top + 1)]
    pairs = [_unimodular_pair(rng, n) for n in dims]
    mats = []
    for k in range(top):
        d = [[0] * dims[k + 1] for _ in range(dims[k])]
        first = ranks[k + 1] + blocks[k + 1][1]  # where S_{k+1} starts
        for t, e in enumerate(blocks[k][0]):
            d[t][first + t] = e
        product = _mat_mult(_mat_mult(pairs[k][0], d), pairs[k + 1][1])
        mats.append(np.array(product, dtype=np.int64).reshape(dims[k], dims[k + 1]))
    return mats, [FinAbGroup(free, divs) for divs, free in blocks]


def _homology_from_full_matrices(mats):
    """The homology read off snf_divisors of every full boundary matrix."""
    divisors = [snf_divisors(b) for b in mats] + [[]]
    dims = [mats[0].shape[0]] + [b.shape[1] for b in mats]
    return [
        FinAbGroup(dims[k] - len(divisors[k]) - (len(divisors[k - 1]) if k else 0), divisors[k])
        for k in range(len(dims))
    ]


_divisor_chains = st.lists(st.sampled_from((1, 1, 1, 2, 3)), max_size=3).map(
    lambda steps: [prod(steps[: i + 1]) for i in range(len(steps))]
)


@st.composite
def _complexes(draw, paired=False):
    """_conjugated_complex with 2 to 4 boundary maps and torsion of orders 2, 3, 4, 6 ...

    With paired, d_1 and d_2 each have an elementary divisor 1."""
    top = draw(st.integers(2, 4))
    blocks = [(draw(_divisor_chains), draw(st.integers(0, 2))) for _ in range(top)]
    if paired:
        blocks[:2] = [([1] + divs, free) for divs, free in blocks[:2]]
    blocks.append(([], draw(st.integers(0, 2))))
    return _conjugated_complex(draw(st.randoms(use_true_random=False)), blocks)


def _paired_rows(mats):
    """For each d_{k+1} with k >= 1, the rows the unit pivots of the full d_k
    pair; for d_2 these are the rows chain_homology skips."""
    return [{j for _, j, _ in _eliminate_units(_sparse(d))[0]} for d in mats[:-1]]


class TestClearing:
    @given(_complexes())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_matrices(self, complex_):
        mats, expected = complex_
        assert chain_homology(mats) == _homology_from_full_matrices(mats) == expected

    @given(_complexes(paired=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_perturbed_paired_row_raises(self, complex_, data):
        # an entry added in a row that clearing skips still breaks d_k o d_{k+1}
        mats, _ = complex_
        cells = [
            (k + 1, i, j)
            for k, rows in enumerate(_paired_rows(mats))
            for i in sorted(rows)
            for j in range(mats[k + 1].shape[1])
        ]
        assume(cells)
        k, i, j = data.draw(st.sampled_from(cells))
        mats[k] = mats[k].copy()
        mats[k][i, j] += 1
        with pytest.raises(ChainComplexError, match=f"d_{k} o d_{k + 1}"):
            chain_homology(mats)

    def test_skipped_rows_are_nonzero(self):
        # clearing is no shortcut over zero rows: in most of these complexes
        # d_2 has entries in a row it skips, and every answer is still exact
        rng = random.Random(26)
        blocks = [([1, 1, 2], 1), ([1, 1, 3], 0), ([1, 2], 2), ([], 1)]
        nonzero = 0
        for _ in range(20):
            mats, expected = _conjugated_complex(rng, blocks)
            nonzero += bool(mats[1][sorted(_paired_rows(mats)[0])].any())
            assert chain_homology(mats) == expected
        assert nonzero >= 10  # 13 of 20

    def test_simplicial_rows_are_skipped(self, monkeypatch):
        # d_2 and d_3 of T^3 start without the 207 and 1150 rows paired below them
        seen = []
        real = homology._eliminate_units

        def recording(a, *args):
            seen.append(a.shape)
            return real(a, *args)

        monkeypatch.setattr(homology, "_eliminate_units", recording)
        complex_, _ = torus_triangulation(3)
        assert complex_.homology() == [FinAbGroup(c) for c in (1, 3, 3, 1)]
        assert seen == [(208, 1360), (1360 - 207, 2304), (2304 - 1150, 1152)]


class TestChainHomology:
    def test_circle(self):
        # one vertex, one edge, zero boundary
        h = chain_homology([np.zeros((1, 1), dtype=int)])
        assert h == [FinAbGroup(1), FinAbGroup(1)]

    def test_array_without_rows_keeps_its_width(self):
        h = chain_homology([np.zeros((0, 3), dtype=np.int64)])
        assert h == [FinAbGroup(), FinAbGroup(3)]

    def test_tetrahedron_boundary(self):
        from liecomm.simplicial import SimplicialComplex

        sphere = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert sphere.homology() == [
            FinAbGroup(1),
            FinAbGroup(),
            FinAbGroup(1),
        ]

    def test_projective_plane(self):
        from liecomm.simplicial import SimplicialComplex

        rp2 = SimplicialComplex(
            [
                (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
            ]
        )
        assert rp2.homology() == [
            FinAbGroup(1),
            FinAbGroup(0, (2,)),
            FinAbGroup(),
        ]

    def test_compose_check(self):
        with pytest.raises(ChainComplexError):
            chain_homology([np.array([[1]]), np.array([[1]])])

    def test_compose_check_exact_beyond_float(self):
        # entries above 2^53, where float64 would round (2^53 + 1) - 2^53 - 1
        a = [[2**53 + 1, 2**53, 1]]
        h = chain_homology([a, [[1], [-1], [-1]]])
        assert h == [FinAbGroup(), FinAbGroup(1), FinAbGroup()]
        with pytest.raises(ChainComplexError, match="d_1 o d_2"):
            chain_homology([a, [[1], [-1], [0]]])

    def test_entry_beyond_int64(self):
        h = chain_homology([[[2**70]]])
        assert h == [FinAbGroup(0, (2**70,)), FinAbGroup()]

    def test_large_prime_divisor_is_not_factored(self):
        # trial division up to sqrt(2^61 - 1) took longer than 20 s
        start = time.perf_counter()
        h = chain_homology([[[2**61 - 1]]])
        assert time.perf_counter() - start < 1
        assert h == [FinAbGroup(0, (2**61 - 1,)), FinAbGroup()]

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="expected a 2-d matrix"):
            chain_homology([[[[1]]]])

    def test_non_integral_entries_rejected(self):
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            chain_homology([[[0.5]]])

    @pytest.mark.parametrize(
        "boundaries, message",
        [
            ([], "need at least one boundary matrix"),
            ([[[1, 2], [3]]], "ragged matrix"),
            # d_1 leaves a 2-dimensional C_1, but d_2 lands in a 3-dimensional one
            ([[[1, -1]], [[0], [0], [0]]], "inconsistent boundary matrix shapes"),
        ],
        ids=["empty", "ragged", "mismatched"],
    )
    def test_malformed_complex_rejected(self, boundaries, message):
        with pytest.raises(ValueError, match=message):
            chain_homology(boundaries)

    def test_sparse_matrix_has_no_shared_dense_view(self):
        sparse = _sparse([[1, 0], [0, 2]])
        assert np.asarray(sparse).tolist() == [[1, 0], [0, 2]]
        with pytest.raises(ValueError, match="no dense view to share"):
            np.asarray(sparse, copy=False)

    @pytest.mark.parametrize(
        "n,torus,quotient",
        [
            (1, ["Z", "Z"], ["Z", "0"]),
            (2, ["Z", "Z^2", "Z"], ["Z", "0", "Z"]),
            (3, ["Z", "Z^3", "Z^3", "Z"], ["Z", "0", "Z^3 + Z/2", "0"]),
        ],
    )
    def test_torus_and_quotient_homology(self, n, torus, quotient):
        complex_, _ = torus_triangulation(n)
        assert [str(g) for g in complex_.homology()] == torus
        q, _ = torus_inversion_quotient(n)
        assert [str(g) for g in q.homology()] == quotient

    def test_twice_subdivided_torus_homology(self):
        complex_, involution = torus_triangulation(2)
        sd, sd_involution = barycentric_subdivide(complex_, involution)
        assert [str(g) for g in sd.homology()] == ["Z", "Z^2", "Z"]
        q = quotient_by_involution(sd, sd_involution)
        assert [str(g) for g in q.homology()] == ["Z", "0", "Z"]


class TestFinAbGroup:
    def test_divisor_chain_normalization(self):
        g = FinAbGroup(0, (6, 4))
        assert g.torsion == (2, 12)

    def test_any_orders_normalized(self):
        assert FinAbGroup(0, (4, 2)).torsion == (2, 4)
        assert FinAbGroup(0, (1,)) == FinAbGroup()
        assert FinAbGroup(2, (1, 3, 1, 2, 2.0)) == FinAbGroup(2, (2, 6))
        assert FinAbGroup(3.0).free_rank == 3

    @pytest.mark.parametrize(
        "free_rank, orders",
        [(-1, ()), (1.5, ()), (inf, ()), ("1", ()), (0, (0,)), (0, (-2,)), (0, (2.5,)),
         (0, (inf,)), (0, (nan,)), (0, ("2",)), (0, (Fraction(3, 2),))],
    )
    def test_invalid_input_rejected(self, free_rank, orders):
        with pytest.raises(ValueError):
            FinAbGroup(free_rank, orders)

    @given(st.lists(st.integers(1, 60), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_invariant_factors(self, orders):
        torsion = FinAbGroup(0, orders).torsion
        assert all(d >= 2 for d in torsion)
        assert all(b % a == 0 for a, b in zip(torsion, torsion[1:]))
        assert prod(torsion) == prod(orders)

        def valuations(p, ns):
            out = []
            for n in ns:
                e = 0
                while n % p == 0:
                    n, e = n // p, e + 1
                out.append(e)
            return sorted(e for e in out if e)

        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
            assert valuations(p, torsion) == valuations(p, orders)

    def test_repeated_orders_merge_in_linear_time(self, monkeypatch):
        # an order that divides the least factor is appended without a walk
        # down the chain, which made 2000 twos cost about 2 * 10^6 gcds
        calls = []
        real = homology.gcd
        monkeypatch.setattr(homology, "gcd", lambda a, b: calls.append(1) or real(a, b))
        assert FinAbGroup(0, (2,) * 2000).torsion == (2,) * 2000
        assert len(calls) <= 2000

    def test_str(self):
        assert str(FinAbGroup()) == "0"
        assert str(FinAbGroup(1, (2, 4))) == "Z + Z/2 + Z/4"
        assert str(FinAbGroup(3)) == "Z^3"

    def test_order_and_cyclic(self):
        assert FinAbGroup(0, (6,)).order() == 6
        assert FinAbGroup(0, (6,)).is_cyclic
        assert not FinAbGroup(0, (2, 2)).is_cyclic
        assert FinAbGroup(1).is_cyclic  # Z
        assert not FinAbGroup(1, (2,)).is_cyclic  # Z + Z/2
        with pytest.raises(ValueError):
            FinAbGroup(1).order()
