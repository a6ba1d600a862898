import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from collections import Counter
from math import gcd

import numpy as np
import pytest

from liecomm import rootdata, weyl
from liecomm.homology import FinAbGroup, InvariantBreachError
from liecomm.rootdata import (
    FaceIndex,
    LieType,
    LieTypeError,
    all_faces,
    build_root_datum,
    dynkin_index,
    lattice_quotient,
    n_vee,
    zeta_class,
)
from liecomm.verify import _table_types
from liecomm.weyl import charpoly_buckets, generate

_REAL_CLOSURE = rootdata._root_closure


def _closure_without(*dropped):
    def closure(cartan):
        roots, top = _REAL_CLOSURE(cartan)
        return roots - set(dropped), top

    return closure


def _closure_with_root_as_coroot(cartan):
    roots, (c, _, p, q) = _REAL_CLOSURE(cartan)
    return roots, (c, c, p, q)


# acceptance data: full coroot-integer tuples in Bourbaki node order
KNOWN_COROOT_INTEGERS = {
    "A3": (1, 1, 1, 1),
    "B4": (1, 1, 2, 2, 1),
    "C4": (1, 1, 1, 1, 1),
    "D5": (1, 1, 2, 2, 1, 1),
    "E6": (1, 1, 2, 2, 3, 2, 1),
    "E7": (1, 2, 2, 3, 4, 3, 2, 1),
    "E8": (1, 2, 3, 4, 6, 5, 4, 3, 2),
    "F4": (1, 2, 3, 2, 1),
    "G2": (1, 1, 2),
}

# acceptance data: characteristic degrees
KNOWN_DEGREES = {
    "A4": (2, 3, 4, 5),
    "B4": (2, 4, 6, 8),
    "C3": (2, 4, 6),
    "D4": (2, 4, 4, 6),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


def _classical_degrees(family, r):
    """The degrees of the classical types: A_r 2..r+1, B_r and C_r 2, 4, ..., 2r,
    and D_r 2, 4, ..., 2r - 2 with r."""
    if family == "A":
        return tuple(range(2, r + 2))
    if family in "BC":
        return tuple(range(2, 2 * r + 1, 2))
    return tuple(sorted([*range(2, 2 * r - 1, 2), r]))


# ranks far above any enumerable group, where only the root closure reaches
HIGH_RANK = ["A40", "B30", "C30", "D50"]

# the acceptance data first, then every other table type and the high ranks
# by the classical formulas
DEGREE_CASES = sorted(KNOWN_DEGREES.items()) + [
    (lt.name, _classical_degrees(lt.family, lt.rank))
    for lt in _table_types() + [LieType.parse(name) for name in HIGH_RANK]
    if lt.name not in KNOWN_DEGREES
]


class TestLieType:
    def test_aliases(self):
        assert LieType.parse("SU(5)") == LieType("A", 4)
        assert LieType.parse("Sp(3)") == LieType("C", 3)
        assert LieType.parse("Sp(1)") == LieType("A", 1)
        assert LieType.parse("Spin(3)") == LieType("A", 1)
        assert LieType.parse("Spin(9)") == LieType("B", 4)
        assert LieType.parse("Spin(10)") == LieType("D", 5)
        assert LieType.parse("e_7") == LieType("E", 7)

    def test_canonicalization(self):
        assert LieType("B", 2).canonical() == LieType("C", 2)
        assert LieType("D", 3).canonical() == LieType("A", 3)
        assert build_root_datum("Spin(5)").lie_type == LieType("C", 2)
        assert build_root_datum("Spin(6)").lie_type == LieType("A", 3)

    @pytest.mark.parametrize(
        "bad", ["E5", "F5", "G3", "A0", "D2", "Spin(4)", "SU(1)", "H3", "Sp(0)"]
    )
    def test_inadmissible(self, bad):
        with pytest.raises(LieTypeError):
            LieType.parse(bad)

    def test_unknown_family(self):
        # the parser reads only the letters A-G, so this is the constructor's gate
        with pytest.raises(LieTypeError, match="unknown family 'X'"):
            LieType("X", 1)


class TestRootDatum:
    @pytest.mark.parametrize("name,expected", sorted(KNOWN_COROOT_INTEGERS.items()))
    def test_coroot_integers(self, name, expected):
        assert build_root_datum(name).coroot_integers == expected

    @pytest.mark.parametrize("name,expected", DEGREE_CASES)
    def test_degrees(self, name, expected):
        assert build_root_datum(name).degrees == expected

    @pytest.mark.parametrize("name", ["A5", "B3", "C4", "D6", "E7", "F4", "G2", *HIGH_RANK])
    def test_positive_root_count(self, name):
        datum = build_root_datum(name)
        r, h = datum.rank, max(datum.degrees)  # the Coxeter number
        assert len(datum.positive_roots) == r * h // 2
        assert sum(datum.theta) == h - 1
        assert sum(d - 1 for d in datum.degrees) == len(datum.positive_roots)

    def test_theta_expansion_is_stored(self):
        datum = build_root_datum("F4")
        # -alpha0_vee expands with exactly the stored coroot integers
        assert datum.theta_vee == datum.coroot_integers[1:]

    def test_coroot_integer_sum_is_height_plus_one(self):
        for name in ("A3", "B4", "F4", "E7"):
            datum = build_root_datum(name)
            assert sum(datum.coroot_integers) == 1 + sum(datum.theta_vee)

    @pytest.mark.parametrize("name", ["A1", "A4", "B3", "C4", "D5", "E8", "F4", "G2"])
    def test_wall_table(self, name):
        datum = build_root_datum(name)
        r = datum.rank
        a, c = np.array(datum.wall_functionals), np.array(datum.wall_coroots)
        # a_i(c_j) is the extended Cartan matrix: 2 on the diagonal, and the
        # marks (1, theta) and coroot integers are its left and right null vectors
        ext = a @ c.T
        assert ext.diagonal().tolist() == [2] * (r + 1)
        assert not np.any(np.array((1,) + datum.theta) @ a)
        assert not np.any(np.array(datum.coroot_integers) @ c)
        assert ext[1:, 1:].tolist() == [list(row) for row in datum.cartan]
        assert datum.wall_bounds == (-1,) + (0,) * r
        # the linear part of s_j negates c_j and a_j
        for s, aj, cj in zip(weyl._wall_reflections(datum), a, c):
            assert np.array_equal(s @ cj, -cj)
            assert np.array_equal(aj @ s, -aj)

    @pytest.mark.parametrize("name", ["A3", "B4", "C3", "D5", "E6", "E8", "F4", "G2"])
    def test_separating_hyperplanes_from_roots(self, name):
        # the walk's count, read through A . y, equals a count of the integers
        # k with 1 <= k < beta or beta < k <= 0 over the functionals beta = c . A
        datum = build_root_datum(name)
        functionals = np.array(datum.positive_roots) @ np.array(datum.cartan)
        rng = random.Random(name)
        for _ in range(20):
            scale = rng.choice((1, 2, 3, 7))
            y = [rng.randint(-30, 30) for _ in range(datum.rank)]
            expected = 0
            for t in (functionals @ y).tolist():
                b = Fraction(t, scale)
                span = range(min(0, math.floor(b)), max(1, math.ceil(b)) + 1)
                expected += sum(1 <= k < b or b < k <= 0 for k in span)
            assert weyl._separating_hyperplanes(datum, y, scale) == expected, (y, scale)

    def test_build_keeps_only_the_roots(self):
        # the closure stores no coroot or functional per root: building A100
        # peaks within 1.5x the bytes of the positive-root tuples it returns
        tracemalloc.start()
        try:
            datum = rootdata._build.__wrapped__(LieType("A", 100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        root_bytes = sum(sys.getsizeof(c) for c in datum.positive_roots)
        assert len(datum.positive_roots) == 5050
        assert peak <= 1.5 * root_bytes, (peak, root_bytes)

    @pytest.mark.parametrize(
        "name, target, stand_in, message",
        [
            # A1 x A1 and A1 x A2: the top root of a reducible system is not
            # unique, or misses a node
            ("A2", "_cartan_matrix", lambda lt: ((2, 0), (0, 2)), "highest root is not unique"),
            (
                "A3",
                "_cartan_matrix",
                lambda lt: ((2, 0, 0), (0, 2, -1), (0, -1, 2)),
                "coroot integers must be positive",
            ),
            (
                "A3",
                "_root_closure",
                _closure_without((0, 1, 0), (1, 1, 0), (0, 1, 1)),
                "the highest root's height is not h - 1",
            ),
            # five positive roots on three nodes: 2 * 5 / 3 is no Coxeter number
            ("A3", "_root_closure", _closure_without((0, 1, 0)), "root count is not r*h/2"),
            (
                "B3",
                "_root_closure",
                _closure_with_root_as_coroot,
                "theta / theta_vee does not symmetrize the Cartan matrix",
            ),
        ],
        ids=["unique-top", "positive-marks", "coxeter-number", "root-count", "symmetrizer"],
    )
    def test_build_requires_a_consistent_closure(
        self, monkeypatch, name, target, stand_in, message
    ):
        # each of _build's checks on the closure fires under its own perturbation
        monkeypatch.setattr(rootdata, target, stand_in)
        with pytest.raises(InvariantBreachError, match=re.escape(message)):
            rootdata._build.__wrapped__(LieType.parse(name))

    def test_symmetrizer_relation(self):
        # theta_k / theta_vee_k symmetrizes the Cartan matrix, as _build requires
        for name in ("F4", "G2", "B3", "C4", "E6"):
            datum = build_root_datum(name)
            a, r = datum.cartan, datum.rank
            d = [Fraction(t, tv) for t, tv in zip(datum.theta, datum.theta_vee)]
            for i in range(r):
                for j in range(r):
                    assert d[i] * a[i][j] == d[j] * a[j][i]
            assert all(x > 0 for x in d)

    def test_dynkin_index_prime_factorization(self):
        # lcm equals the product over primes of (p, or 4 at p=2 for rank-7/8 E)
        for name in ("A4", "B5", "E6", "E7", "E8", "F4", "G2"):
            datum = build_root_datum(name)
            primes = set()
            for n in datum.coroot_integers:
                for p in (2, 3, 5):
                    if n % p == 0:
                        primes.add(p)
            factor = 1
            for p in sorted(primes):
                if p == 2 and datum.lie_type.family == "E" and datum.lie_type.rank >= 7:
                    factor *= 4
                else:
                    factor *= p
            assert factor == dynkin_index(datum), name

    def test_json_dict(self):
        d = build_root_datum("G2").to_json_dict()
        assert d["coroot_integers"] == [1, 1, 2]
        assert d["weyl_order"] == 12


class TestFaceOperations:
    def test_face_index_validation(self):
        datum = build_root_datum("A2")
        with pytest.raises(ValueError):
            FaceIndex.of(datum, [0, 1, 2])  # not proper
        with pytest.raises(ValueError):
            FaceIndex.of(datum, [5])

    def test_all_faces_match_bit_pattern_order(self):
        # reference: every proper subset of the extended nodes as a bit
        # pattern, sorted by number of walls, then by sorted nodes
        names = [f"A{r}" for r in range(1, 7)] + [f"B{r}" for r in range(2, 7)]
        names += [f"C{r}" for r in range(2, 7)] + [f"D{r}" for r in range(3, 7)]
        for name in names + ["E6", "F4", "G2"]:
            datum = build_root_datum(name)
            nodes = range(datum.rank + 1)
            reference = []
            for bits in product((0, 1), repeat=datum.rank + 1):
                subset = frozenset(i for i in nodes if bits[i])
                if len(subset) <= datum.rank:
                    reference.append(FaceIndex(subset, datum.rank))
            reference.sort(key=lambda f: (len(f.nodes), f.sorted_nodes()))
            assert all_faces(datum) == reference, name

    def test_n_vee_examples(self):
        datum = build_root_datum("E7")
        assert n_vee(datum, FaceIndex.of(datum, [])) == 1
        r = datum.rank
        for j in range(r + 1):
            face = FaceIndex.of(datum, set(range(r + 1)) - {j})
            assert n_vee(datum, face) == datum.coroot_integers[j]

    def test_zeta_singleton_complement(self):
        datum = build_root_datum("F4")
        r = datum.rank
        for j in range(1, r + 1):
            face = FaceIndex.of(datum, set(range(r + 1)) - {j})
            zeta = zeta_class(datum, face)
            assert zeta == tuple(
                Fraction(1 if i == j - 1 else 0) for i in range(r)
            )

    def test_zeta_g2(self):
        datum = build_root_datum("G2")
        face = FaceIndex.of(datum, [0])
        assert zeta_class(datum, face) == (Fraction(1), Fraction(2))

    @pytest.mark.parametrize("name", ["A2", "C3", "G2", "F4", "D4"])
    def test_zeta_integrality_and_coprimality(self, name):
        datum = build_root_datum(name)
        r = datum.rank
        for size in range(r + 1):
            for subset in combinations(range(r + 1), size):
                face = FaceIndex.of(datum, subset)
                nv = n_vee(datum, face)
                zeta = zeta_class(datum, face)
                scaled = [nv * c for c in zeta]
                assert all(c.denominator == 1 for c in scaled)
                extended = [datum.coroot_integers[i] // nv for i in face.complement()]
                assert gcd(*extended) == 1

    def test_lattice_quotient_examples(self):
        datum = build_root_datum("E6")
        full_minus = FaceIndex.of(datum, [])
        assert lattice_quotient(datum, full_minus) == (datum.rank, FinAbGroup())
        for j in range(datum.rank + 1):
            face = FaceIndex.of(datum, set(range(datum.rank + 1)) - {j})
            free, torsion = lattice_quotient(datum, face)
            assert free == 0
            assert torsion == FinAbGroup(0, (datum.coroot_integers[j],))

    @pytest.mark.parametrize("name", ["E6", "F4", "G2"])
    def test_lattice_quotient_matches_gcd(self, name):
        datum = build_root_datum(name)
        r = datum.rank
        for size in range(r + 1):
            for subset in combinations(range(r + 1), size):
                face = FaceIndex.of(datum, subset)
                free, torsion = lattice_quotient(datum, face)
                assert free == r - size
                assert torsion == FinAbGroup(0, (n_vee(datum, face),))

    def test_lattice_quotient_requires_the_gcd(self, monkeypatch):
        real = rootdata.snf_divisors
        monkeypatch.setattr(rootdata, "snf_divisors", lambda mat: [*real(mat)[:-1], 2])
        datum = build_root_datum("G2")
        with pytest.raises(InvariantBreachError, match=r"G2 face \(1,\): Smith form disagrees"):
            lattice_quotient(datum, FaceIndex.of(datum, [1]))


def _faddeev_leverrier(mat):
    """Reference det(xI - M), ascending coefficients, in Python ints."""
    n = len(mat)
    m = [row[:] for row in mat]
    desc = [1]
    for k in range(1, n + 1):
        c = -sum(m[i][i] for i in range(n)) // k
        desc.append(c)
        for i in range(n):
            m[i][i] += c
        m = [[sum(mat[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    return tuple(reversed(desc))


class TestCharpolyBuckets:
    def test_matches_faddeev_leverrier(self):
        # 40 integer matrices, most of infinite order, repeated over two chunks
        rng = np.random.default_rng(3)
        base = rng.integers(-2, 3, size=(40, 4, 4))
        picks = rng.integers(0, 40, size=weyl._LABEL_BLOCK + 100)
        expected = Counter()
        for i, count in Counter(picks.tolist()).items():
            expected[_faddeev_leverrier(base[i].tolist())] += count
        assert charpoly_buckets(base[picks]) == tuple(sorted(expected.items()))

    @pytest.mark.parametrize("name", ["A7", "E6"])
    def test_buckets_do_not_depend_on_chunk_size(self, monkeypatch, name):
        stack = generate(build_root_datum(name)).matrices
        buckets = []
        for chunk in (1 << 12, 1 << 14):
            monkeypatch.setattr(weyl, "_LABEL_BLOCK", chunk)
            buckets.append(charpoly_buckets(stack))
        assert buckets[0] == buckets[1]

    def test_scalar_matrix(self):
        assert charpoly_buckets(2 * np.eye(3, dtype=np.int64)[None]) == (((-8, 12, -6, 1), 1),)

    def test_float32_guard(self):
        # 3 * 4096 * 4096 >= 2^24: float32 products could round, so the routine refuses
        stack = np.zeros((3, 3, 3), dtype=np.int64)
        stack[1] = 4096 * np.eye(3, dtype=np.int64)
        with pytest.raises(InvariantBreachError, match="float32"):
            charpoly_buckets(stack)
