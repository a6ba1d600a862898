import hashlib
from math import comb

import pytest

from liecomm.homology import FinAbGroup
from liecomm.simplicial import (
    RegularityError,
    SimplicialComplex,
    barycentric_subdivide,
    quotient_by_involution,
    torus_inversion_quotient,
    torus_triangulation,
)


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
