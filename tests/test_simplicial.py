import hashlib
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from liecomm.homology import FinAbGroup
from liecomm.simplicial import (
    RegularityError,
    SimplicialComplex,
    SimplicialError,
    barycentric_subdivide,
    check_involution_regular,
    quotient_by_involution,
    torus_inversion_quotient,
    torus_triangulation,
)


class TestComplex:
    def test_facets_and_f_vector(self):
        complex_ = SimplicialComplex([(0, 1, 2), (2, 1), (3,)])
        assert complex_.facets == ((0, 1, 2), (3,))
        assert complex_.f_vector() == (4, 3, 1)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(SimplicialError):
            SimplicialComplex([(0, 1, 1)])

    def test_no_simplex_rejected(self):
        with pytest.raises(SimplicialError):
            SimplicialComplex([])
        with pytest.raises(SimplicialError):
            SimplicialComplex([()])

    def test_empty_facet_dropped(self):
        assert SimplicialComplex([(0, 1), ()]).facets == ((0, 1),)

    def test_faces_by_dim_matches_combinations(self):
        facets = [(0, 1, 2, 3), (3, 4, 5), (5, 6), (2, 6), (7,), (1, 2, 4)]
        complex_ = SimplicialComplex(facets)
        top = max(len(f) for f in facets)
        expected = [
            sorted({sub for f in facets for sub in combinations(f, size)})
            for size in range(1, top + 1)
        ]
        assert complex_.faces_by_dim == expected
        assert complex_.face_set == {face for level in expected for face in level}


class TestSubdivision:
    def test_interval(self):
        interval = SimplicialComplex([(0, 1)])
        sd = barycentric_subdivide(interval)
        assert sd.f_vector() == (3, 2)

    def test_triangle(self):
        triangle = SimplicialComplex([(0, 1, 2)])
        sd = barycentric_subdivide(triangle)
        assert len(sd.facets) == 6
        assert sd.euler_characteristic() == 1

    def test_top_simplex_multiplier(self):
        tetra = SimplicialComplex([(0, 1, 2, 3)])
        sd = barycentric_subdivide(tetra)
        assert len(sd.facets) == 24  # (dim + 1)!

    def test_homology_preserved_on_torus(self):
        complex_, involution = torus_triangulation(2)
        sd, _ = barycentric_subdivide(complex_, involution)
        assert sd.homology() == complex_.homology()

    def test_subdivided_torus_pinned(self):
        # recorded before torus and complex subdivision shared one routine
        sd, involution = barycentric_subdivide(*torus_triangulation(2))
        text = repr((sd.facets, sorted(involution.items())))
        digest = "63cc771fcf96ba9d7c0217e4665942f99d87ddfe70fd589d645e1ed01149fc37"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_non_simplicial_involution_rejected(self):
        complex_ = SimplicialComplex([(0, 1), (2,)])
        with pytest.raises(SimplicialError):
            barycentric_subdivide(complex_, {0: 2, 1: 1, 2: 0})

    def test_subdivided_cell_fixture(self):
        # a circle and the same circle with one edge subdivided agree
        circle3 = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        circle4 = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)])
        assert circle3.homology() == circle4.homology()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_euler_characteristic_from_homology(self, n):
        complex_, _ = torus_triangulation(n)
        hom = complex_.homology()
        assert complex_.euler_characteristic() == sum(
            (-1) ** k * h.free_rank for k, h in enumerate(hom)
        )


class TestTorus:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_homology(self, n):
        complex_, _ = torus_triangulation(n)
        hom = complex_.homology()
        assert hom == [FinAbGroup.free(comb(n, k)) for k in range(n + 1)]

    def test_involution_is_simplicial_and_involutive(self):
        complex_, involution = torus_triangulation(2)
        assert set(involution) == set(complex_.vertices)
        faces = complex_.face_set
        for face in faces:
            image = tuple(sorted(involution[v] for v in face))
            assert image in faces
        for v, w in involution.items():
            assert involution[w] == v

    @pytest.mark.parametrize(
        "n,digest",
        [
            (1, "d470a40d3eb5e2f5873d6fcb1a2e25b0d268167870cfc9fed95a65400f8f4373"),
            (2, "1ef324cc5bc31ec740408a3114fd19a7b5b024a686a3d4d1b31137b86cb8149a"),
            (3, "eea2249617808bd4e91aa03b78aa63f2e9d65f16189388d3fcc3a6677283c233"),
        ],
    )
    def test_triangulation_pinned(self, n, digest):
        # recorded with the Fraction grid; the doubled integer grid must match
        complex_, involution = torus_triangulation(n)
        text = repr((complex_.facets, sorted(involution.items())))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_range_validation(self):
        with pytest.raises(ValueError):
            torus_triangulation(0)
        with pytest.raises(ValueError):
            torus_triangulation(4)


# (shape, sha256 of the int64 bytes) of d_1, ..., d_top, recorded from the
# dense int64 boundary arrays the sparse rows replaced
_BOUNDARY_PINS = {
    ("torus", 1): [
        ((4, 4), "b0cc18b6388f8b63b34e2215f39a560407fbd1cbc402ab39336d84c8aedf8507"),
    ],
    ("torus", 2): [
        ((24, 72), "ed583dc20556f19ed37b96f3ee8eb6e21ed0253a64d155b42db0001d616314da"),
        ((72, 48), "95a87fedb9c7c3fcca1b636861ae65ba520de9ad0a98454a4c80a46bc485a8b8"),
    ],
    ("torus", 3): [
        ((208, 1360), "9aa57686b121908a190ba07ba5335054e11860610cba6a690446bd2dde593bbc"),
        ((1360, 2304), "efb644dfadc3332be64c257ef5e2217c71c3323bce195b048146ffc709760c5f"),
        ((2304, 1152), "f43f1c62d7982122c9b08e5d5beb685926c9dd7edbb541cff6baee1d2785c0f4"),
    ],
    ("quotient", 1): [
        ((3, 2), "bc50eed4cbb7a7b6fa634123aa32c30c4395171ccd072efe580acf7534d4cd03"),
    ],
    ("quotient", 2): [
        ((14, 36), "3bb81015457bf28227c5382464102f8cd6d7d563bb3d43aa1903e7b92182e122"),
        ((36, 24), "38f85adee2a9cb13356fe3ddbea4d77b55c35ea21bfb724ed833e8cbb6036002"),
    ],
    ("quotient", 3): [
        ((108, 680), "c2f141f21491634bf82ac049738d48978480d550aa613ec2de9ae6e82e1394cf"),
        ((680, 1152), "5ab3dd8a447874e1a7fbe59b41b7736214fadbdc72c3aa23dbac0e06882380ec"),
        ((1152, 576), "d596397e7e092d71fdcc502b84daba875e2f5340d8f8960bbe20d36227235543"),
    ],
}


class TestBoundaries:
    @pytest.mark.parametrize("kind,n", sorted(_BOUNDARY_PINS))
    def test_boundaries_pinned(self, kind, n):
        if kind == "torus":
            complex_, _ = torus_triangulation(n)
        else:
            complex_, _ = torus_inversion_quotient(n)
        got = [
            (d.shape, hashlib.sha256(np.asarray(d, dtype=np.int64).tobytes()).hexdigest())
            for d in complex_.boundary_matrices()
        ]
        assert got == _BOUNDARY_PINS[kind, n]

    def test_two_points(self):
        points = SimplicialComplex([(0,), (1,)])
        assert [d.shape for d in points.boundary_matrices()] == [(2, 0)]
        assert points.homology() == [FinAbGroup.free(2), FinAbGroup.trivial()]


class TestQuotient:
    def test_antipodal_circle_needs_subdivision(self):
        square = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)])
        antipode = {0: 2, 1: 3, 2: 0, 3: 1}
        with pytest.raises(RegularityError):
            quotient_by_involution(square, antipode)
        sd, transported = barycentric_subdivide(square, antipode)
        quotient = quotient_by_involution(sd, transported)
        assert quotient.homology() == [FinAbGroup.free(1), FinAbGroup.free(1)]

    def test_non_involution_rejected(self):
        square = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(Exception):
            quotient_by_involution(square, {0: 1, 1: 2, 2: 3, 3: 0})

    @pytest.mark.parametrize(
        "n,h1,h2",
        [
            (1, FinAbGroup.trivial(), FinAbGroup.trivial()),
            (2, FinAbGroup.trivial(), FinAbGroup.free(1)),
            (3, FinAbGroup.trivial(), FinAbGroup.from_divisors([2], 3)),
        ],
    )
    def test_torus_quotient_homology(self, n, h1, h2):
        quotient, extra = torus_inversion_quotient(n)
        assert extra == 0
        hom = quotient.homology()
        assert hom[0] == FinAbGroup.free(1)
        assert (hom[1] if len(hom) > 1 else FinAbGroup.trivial()) == h1
        assert (hom[2] if len(hom) > 2 else FinAbGroup.trivial()) == h2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_quotient_euler_characteristic(self, n):
        # chi(quotient) = (chi(torus) + number of fixed points) / 2 = 2^(n-1)
        quotient, _ = torus_inversion_quotient(n)
        assert quotient.euler_characteristic() == 2 ** (n - 1)

    def test_formula_exponents(self):
        for n in (1, 2, 3):
            quotient, _ = torus_inversion_quotient(n)
            hom = quotient.homology()
            expected = FinAbGroup.from_divisors(
                [2] * (2**n - 1 - n - comb(n, 2)), comb(n, 2)
            )
            actual = hom[2] if len(hom) > 2 else FinAbGroup.trivial()
            assert actual == expected


def _regular_by_all_bit_patterns(complex_, involution) -> bool:
    """Reference regularity check: every face against every mixed bit pattern."""
    face_set = complex_.face_set
    for face in face_set:
        fixed = [involution[v] == v for v in face]
        for bits in product((0, 1), repeat=len(face)):
            if all(bits) or not any(bits):
                continue
            mixed = {involution[v] if b else v for v, b in zip(face, bits)}
            if tuple(sorted(mixed)) not in face_set:
                continue
            swapped_fixed = all(f for f, b in zip(fixed, bits) if b)
            kept_fixed = all(f for f, b in zip(fixed, bits) if not b)
            if not (swapped_fixed or kept_fixed):
                return False
    return True


def _antipodal_square():
    return SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)]), {0: 2, 1: 3, 2: 0, 3: 1}


def _twice_subdivided_torus():
    return barycentric_subdivide(*torus_triangulation(2))


_INVOLUTIONS = {
    "antipodal square": (_antipodal_square, False),
    "subdivided antipodal square": (lambda: barycentric_subdivide(*_antipodal_square()), True),
    "1-torus": (lambda: torus_triangulation(1), True),
    "2-torus": (lambda: torus_triangulation(2), True),
    "3-torus": (lambda: torus_triangulation(3), True),
    "twice-subdivided 2-torus": (_twice_subdivided_torus, True),
    "triangle, one edge swapped": (
        lambda: (SimplicialComplex([(0, 1, 2)]), {0: 1, 1: 0, 2: 2}), False,
    ),
    "two triangles on an edge": (
        lambda: (SimplicialComplex([(0, 1, 2), (1, 2, 3)]), {0: 3, 1: 1, 2: 2, 3: 0}), True,
    ),
    "tetrahedron, two pairs swapped": (
        lambda: (SimplicialComplex([(0, 1, 2, 3)]), {0: 1, 1: 0, 2: 3, 3: 2}), False,
    ),
}


class TestRegularity:
    @pytest.mark.parametrize("name", list(_INVOLUTIONS))
    def test_matches_all_bit_patterns(self, name):
        build, regular = _INVOLUTIONS[name]
        complex_, involution = build()
        assert _regular_by_all_bit_patterns(complex_, involution) == regular
        if regular:
            check_involution_regular(complex_, involution)
        else:
            with pytest.raises(RegularityError):
                check_involution_regular(complex_, involution)
