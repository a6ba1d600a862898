from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestChainHomology:
    def test_circle(self):
        # one vertex, one edge, zero boundary
        h = chain_homology([np.zeros((1, 1), dtype=int)])
        assert h == [FinAbGroup.free(1), FinAbGroup.free(1)]

    def test_array_without_rows_keeps_its_width(self):
        h = chain_homology([np.zeros((0, 3), dtype=np.int64)])
        assert h == [FinAbGroup.trivial(), FinAbGroup.free(3)]

    def test_tetrahedron_boundary(self):
        from liecomm.simplicial import SimplicialComplex

        sphere = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert sphere.homology() == [
            FinAbGroup.free(1),
            FinAbGroup.trivial(),
            FinAbGroup.free(1),
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
            FinAbGroup.free(1),
            FinAbGroup.cyclic(2),
            FinAbGroup.trivial(),
        ]

    def test_compose_check(self):
        with pytest.raises(ChainComplexError):
            chain_homology([np.array([[1]]), np.array([[1]])])

    def test_compose_check_exact_beyond_float(self):
        # entries above 2^53, where float64 would round (2^53 + 1) - 2^53 - 1
        a = [[2**53 + 1, 2**53, 1]]
        h = chain_homology([a, [[1], [-1], [-1]]])
        assert h == [FinAbGroup.trivial(), FinAbGroup.free(1), FinAbGroup.trivial()]
        with pytest.raises(ChainComplexError, match="d_1 o d_2"):
            chain_homology([a, [[1], [-1], [0]]])

    def test_entry_beyond_int64(self):
        h = chain_homology([[[2**70]]])
        assert h == [FinAbGroup(0, (2**70,)), FinAbGroup.trivial()]

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="expected a 2-d matrix"):
            chain_homology([[[[1]]]])

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
        g = FinAbGroup.from_divisors([6, 4])
        assert g.torsion == (2, 12)

    def test_tensor_examples(self):
        z2 = FinAbGroup.cyclic(2)
        z3 = FinAbGroup.cyclic(3)
        assert z2.tensor(z2) == z2
        assert z2.tensor(z3) == FinAbGroup.trivial()
        klein = FinAbGroup(0, (2, 2))
        assert klein.tensor(klein) == FinAbGroup(0, (2, 2, 2, 2))

    def test_tensor_with_free_part(self):
        g = FinAbGroup(2, (3,))
        h = FinAbGroup(1, (6,))
        # (Z^2 + Z/3) (x) (Z + Z/6) = Z^2 + (Z/6)^2 + (Z/3)^1 + Z/3
        assert g.tensor(h) == FinAbGroup.from_divisors([6, 6, 3, 3], 2)

    @given(
        st.lists(st.integers(2, 12), max_size=3),
        st.lists(st.integers(2, 12), max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_tensor_commutative(self, da, db):
        a = FinAbGroup.from_divisors(da)
        b = FinAbGroup.from_divisors(db)
        assert a.tensor(b) == b.tensor(a)

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValueError):
            FinAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FinAbGroup(0, (1,))

    def test_str(self):
        assert str(FinAbGroup.trivial()) == "0"
        assert str(FinAbGroup(1, (2, 4))) == "Z + Z/2 + Z/4"
        assert str(FinAbGroup.free(3)) == "Z^3"

    def test_order_and_cyclic(self):
        assert FinAbGroup.cyclic(6).order() == 6
        assert FinAbGroup.cyclic(6).is_cyclic
        assert not FinAbGroup(0, (2, 2)).is_cyclic
        with pytest.raises(ValueError):
            FinAbGroup.free(1).order()
