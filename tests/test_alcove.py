from fractions import Fraction

import pytest

from liecomm.alcove import (
    AlcoveMembershipError,
    alcove_geometry,
    barycenter,
    face_of_point,
)
from liecomm.rootdata import FaceIndex, all_faces, build_root_datum


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

