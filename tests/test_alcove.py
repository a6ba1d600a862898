from fractions import Fraction

import pytest

from liecomm.alcove import (
    AlcoveMembershipError,
    EmptyFaceError,
    alcove_geometry,
    barycenter,
    face_a_of_m,
    face_of_point,
    spin_vertex_table,
)
from liecomm.rootdata import FaceIndex, all_faces, build_root_datum, n_vee


def d_coroots_in_standard_basis(ell: int, offset: int = 0, ambient: int | None = None) -> list[tuple[Fraction, ...]]:
    """Simple coroots of the even-spin rank-ell system as vectors in R^ambient.

    offset shifts the construction onto span(e_{1+offset}, ...), which is how
    the rank ell-1 system sits inside the rank ell one.
    """
    if ell < 3:
        raise ValueError("need ell >= 3")
    dim = ambient if ambient is not None else ell + offset

    def e(i: int) -> list[Fraction]:
        out = [Fraction(0)] * dim
        out[i - 1] = Fraction(1)
        return out

    coroots = []
    for i in range(1, ell):
        vecm = [a - b for a, b in zip(e(i + offset), e(i + 1 + offset))]
        coroots.append(tuple(vecm))
    last = [a + b for a, b in zip(e(ell - 1 + offset), e(ell + offset))]
    coroots.append(tuple(last))
    return coroots


class TestBarycenters:
    def test_vertex_faces(self):
        datum = build_root_datum("C3")
        geo = alcove_geometry(datum)
        origin = FaceIndex.of(datum, range(1, datum.rank + 1))
        assert barycenter(geo, origin) == tuple([Fraction(0)] * datum.rank)
        for j in range(1, datum.rank + 1):
            face = FaceIndex.of(datum, set(range(datum.rank + 1)) - {j})
            assert barycenter(geo, face) == geo.vertices[j]

    @pytest.mark.parametrize("name", ["A1", "A3", "C2", "B3", "G2", "F4", "D5", "E6"])
    def test_roundtrip(self, name):
        datum = build_root_datum(name)
        geo = alcove_geometry(datum)
        for face in all_faces(datum):
            assert face_of_point(geo, barycenter(geo, face)) == face

    def test_outside_alcove_rejected(self):
        datum = build_root_datum("A2")
        geo = alcove_geometry(datum)
        with pytest.raises(AlcoveMembershipError):
            face_of_point(geo, (Fraction(-1), Fraction(0)))

    def test_vertex_wall_pattern(self):
        datum = build_root_datum("G2")
        geo = alcove_geometry(datum)
        for j in range(1, 3):
            face = face_of_point(geo, geo.vertices[j])
            assert face.nodes == frozenset(range(3)) - {j}

    @pytest.mark.parametrize("name", ["A2", "C3", "G2"])
    def test_face_lattice_anti_isomorphism(self, name):
        datum = build_root_datum(name)
        for fa in all_faces(datum):
            for fb in all_faces(datum):
                vertex_containment = set(fb.complement()) <= set(fa.complement())
                assert (fa.nodes <= fb.nodes) == vertex_containment


class TestDivisibilityFace:
    def test_m_one_is_whole_alcove(self):
        datum = build_root_datum("F4")
        geo = alcove_geometry(datum)
        assert face_a_of_m(geo, 1).nodes == frozenset()

    def test_divisible_count_examples(self):
        geo8 = alcove_geometry(build_root_datum("E8"))
        face = face_a_of_m(geo8, 5)
        assert len(face.complement()) == 1
        for ell in (4, 5, 6):
            geo = alcove_geometry(build_root_datum(f"D{ell}"))
            face2 = face_a_of_m(geo, 2)
            assert len(face2.complement()) == ell - 3

    def test_empty_face_rejected(self):
        geo = alcove_geometry(build_root_datum("G2"))
        with pytest.raises(EmptyFaceError):
            face_a_of_m(geo, 7)

    @pytest.mark.parametrize("name", ["G2", "F4", "D5", "E6"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_membership_equivalence(self, name, m):
        # m divides n_vee at a face barycenter exactly when the face lies in A(m)
        datum = build_root_datum(name)
        geo = alcove_geometry(datum)
        try:
            target = face_a_of_m(geo, m)
        except EmptyFaceError:
            target = None
        for face in all_faces(datum):
            divisible = n_vee(datum, face) % m == 0
            inside = target is not None and target.nodes <= face.nodes
            assert divisible == inside, face


class TestSpinVertexTable:
    def test_low_rank_entries(self):
        tbl = spin_vertex_table(5)
        half = Fraction(1, 2)
        assert tbl["v"][0] == (1, 0, 0, 0, 0)
        assert tbl["u"][1] == (0, half, half, 0, 0)
        assert tbl["u"][2] == (0, half, half, half, -half)
        assert tbl["u"][3] == (0, half, half, half, half)
        assert tbl["v"][4] == (half, half, half, half, half)

    @pytest.mark.parametrize("ell", [5, 6, 7])
    def test_alcove_inequalities(self, ell):
        # walls of the even-spin system: x1 >= ... >= x_{l-1} >= |x_l|, x1 + x2 <= 1
        tbl = spin_vertex_table(ell)
        for v in tbl["v"]:
            for i in range(ell - 2):
                assert v[i] >= v[i + 1]
            assert v[ell - 2] >= abs(v[ell - 1])
            assert v[0] + v[1] <= 1
        for u in tbl["u"]:
            assert u[0] == 0
            for i in range(1, ell - 2):
                assert u[i] >= u[i + 1]
            assert u[ell - 2] >= abs(u[ell - 1])
            assert u[1] + u[2] <= 1

    @pytest.mark.parametrize("ell", [5, 6])
    def test_matches_computed_coweights(self, ell):
        # change-of-basis check: v_j = omega_j_vee / n_j in the standard basis
        datum = build_root_datum(f"D{ell}")
        geo = alcove_geometry(datum)
        coroots = d_coroots_in_standard_basis(ell)
        tbl = spin_vertex_table(ell)
        for j in range(1, ell + 1):
            coords = geo.vertices[j]
            embedded = [
                sum(coords[i] * coroots[i][axis] for i in range(ell))
                for axis in range(ell)
            ]
            assert tuple(embedded) == tbl["v"][j - 1]

    @pytest.mark.parametrize("ell", [6, 7])
    def test_u_column_matches_shifted_subsystem(self, ell):
        # the rank l-1 system sits on span(e_2, ..., e_l)
        datum = build_root_datum(f"D{ell - 1}")
        geo = alcove_geometry(datum)
        coroots = d_coroots_in_standard_basis(ell - 1, offset=1, ambient=ell)
        tbl = spin_vertex_table(ell)
        for j in range(1, ell):
            coords = geo.vertices[j]
            embedded = [
                sum(coords[i] * coroots[i][axis] for i in range(ell - 1))
                for axis in range(ell)
            ]
            assert tuple(embedded) == tbl["u"][j - 1]
