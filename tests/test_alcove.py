from fractions import Fraction

import pytest

from liecomm.alcove import alcove_geometry, barycenter
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
        # a face's barycenter lies on exactly its walls and above the others
        datum = build_root_datum(name)
        geo = alcove_geometry(datum)
        for face in all_faces(datum):
            heights = datum.wall_values(barycenter(geo, face))
            assert all(h >= 0 for h in heights)
            assert {j for j, h in enumerate(heights) if h == 0} == face.nodes

    def test_vertex_wall_pattern(self):
        datum = build_root_datum("G2")
        geo = alcove_geometry(datum)
        for j in range(1, 3):
            heights = datum.wall_values(geo.vertices[j])
            assert {i for i, h in enumerate(heights) if h == 0} == set(range(3)) - {j}

    @pytest.mark.parametrize("name", ["A2", "C3", "G2"])
    def test_face_lattice_anti_isomorphism(self, name):
        datum = build_root_datum(name)
        for fa in all_faces(datum):
            for fb in all_faces(datum):
                vertex_containment = set(fb.complement()) <= set(fa.complement())
                assert (fa.nodes <= fb.nodes) == vertex_containment

