import cmath
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from liecomm.alcove import alcove_geometry
from liecomm.homology import FinAbGroup
from liecomm.rootdata import build_root_datum
from liecomm.wps import (
    barycentric_coordinates,
    composite_su2_degree,
    even_spin_weights,
    inclusion_degree,
    kawasaki_homology,
    odd_spin_weights,
    orbit_equal,
    proj_degree,
    rep_to_wps,
    spin_stability_map,
    spin_stability_report,
)


class TestKawasaki:
    def test_projective_line(self):
        assert kawasaki_homology((1, 1), 2) == FinAbGroup.free(1)

    def test_odd_degrees_vanish(self):
        for k in (1, 3, 5):
            assert kawasaki_homology((1, 2, 3), k) == FinAbGroup.trivial()

    def test_above_top_dimension(self):
        assert kawasaki_homology((1, 2), 4) == FinAbGroup.trivial()


class TestProjDegree:
    def test_all_ones(self):
        assert proj_degree((1, 1, 1), 1) == 1

    def test_examples(self):
        assert proj_degree((1, 2), 1) == 2
        assert proj_degree((1, 2, 3), 1) == 6
        assert proj_degree((1, 2, 3), 0) == 1

    def test_permutation_invariance(self):
        assert proj_degree((3, 1, 2), 1) == proj_degree((1, 2, 3), 1)

    def test_monotone_in_k(self):
        w = (1, 2, 2, 4)
        for k in range(len(w) - 1):
            assert (proj_degree(w, k + 1) * max(w)) % proj_degree(w, k) == 0


class TestInclusionDegree:
    def test_full_subset(self):
        assert inclusion_degree((1, 2, 3), (0, 1, 2), 1) == 1

    def test_singleton(self):
        assert inclusion_degree((1, 2), (0,), 0) == 1

    def test_spin_iso_range(self):
        # into the rank l-1 tuple: isomorphisms through homology degree 2l-6
        for ell in (5, 6, 7):
            small = even_spin_weights(ell - 1)
            shared = tuple(range(ell - 2))
            for kk in range(0, ell - 2):
                assert inclusion_degree(small, shared, kk) == 1
        # into the rank l tuple: multiplication by 2 exactly at degree 2l-6
        for ell in (5, 6, 7):
            big = even_spin_weights(ell)
            shared = tuple(range(ell - 2))
            for kk in range(0, ell - 3):
                assert inclusion_degree(big, shared, kk) == 1
            assert inclusion_degree(big, shared, ell - 3) == 2


class TestSpinStability:
    def test_even_table(self):
        assert spin_stability_report(4, "even", 2)["degree"] == 2
        assert spin_stability_report(5, "even", 2)["degree"] == 1
        assert spin_stability_report(5, "even", 4)["degree"] == 2

    def test_odd_table(self):
        assert spin_stability_report(4, "odd", 2)["degree"] == 1
        assert spin_stability_report(4, "odd", 4)["degree"] == 2

    def test_spin5_to_spin7(self):
        report = spin_stability_report(3, "odd", 2)
        assert report["degree"] == 2
        assert "composition" in report["route"]

    def test_zero_groups_flag(self):
        report = spin_stability_report(5, "even", 3)
        assert report["degree"] == 1 and report["zero_groups"]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            spin_stability_report(4, "even", 4)
        with pytest.raises(ValueError):
            spin_stability_report(3, "even", 0)

    def test_weight_tuples_match_root_data(self):
        for ell in (4, 5, 6, 7):
            assert even_spin_weights(ell) == build_root_datum(f"D{ell}").coroot_integers
        for ell in (3, 4, 5, 6):
            assert odd_spin_weights(ell) == build_root_datum(f"B{ell}").coroot_integers


class TestCompositeDegree:
    @pytest.mark.parametrize("name", ["A3", "C4", "B4", "D5", "G2", "F4", "E6", "E7", "E8"])
    def test_equals_lcm_for_all_nodes(self, name):
        datum = build_root_datum(name)
        target = lcm(*datum.coroot_integers)
        for j in range(1, datum.rank + 1):
            assert composite_su2_degree(datum.coroot_integers, j) == target


class TestRepToWps:
    def test_base_point(self):
        datum = build_root_datum("C2")
        geo = alcove_geometry(datum)
        point = rep_to_wps(geo, [Fraction(0), Fraction(0)], [1, 1])
        assert point.coords[0] == pytest.approx(1.0)
        assert all(abs(z) < 1e-15 for z in point.coords[1:])

    def test_interior_identity_phases_real(self):
        datum = build_root_datum("G2")
        geo = alcove_geometry(datum)
        from liecomm.alcove import barycenter
        from liecomm.rootdata import FaceIndex

        x = barycenter(geo, FaceIndex.of(datum, []))
        point = rep_to_wps(geo, x, [1, 1])
        assert all(z.imag == 0 and z.real > 0 for z in point.coords)

    def test_a1_half_point(self):
        datum = build_root_datum("A1")
        geo = alcove_geometry(datum)
        theta = cmath.exp(0.9j)
        point = rep_to_wps(geo, [Fraction(1, 4)], [theta])
        expected = np.array([1, theta]) / np.sqrt(2)
        assert np.allclose(np.array(point.coords), expected)

    def test_barycentric_coordinates_sum(self):
        datum = build_root_datum("F4")
        geo = alcove_geometry(datum)
        from liecomm.alcove import barycenter
        from liecomm.rootdata import FaceIndex

        for nodes in ([], [0], [2], [0, 3]):
            x = barycenter(geo, FaceIndex.of(datum, nodes))
            bary = barycentric_coordinates(geo, x)
            assert sum(bary) == 1
            assert all(b >= 0 for b in bary)
            for i in nodes:
                assert bary[i] == 0


class TestOrbitEqual:
    def test_reflexive(self):
        p = (0.6 + 0j, 0.8j)
        assert orbit_equal((1, 2), p, p)

    def test_global_phase(self):
        lam = cmath.exp(1.23j)
        p = (0.6, 0.8j)
        q = (0.6 * lam, 0.8j * lam)
        assert orbit_equal((1, 1), p, q)

    def test_weighted_sign(self):
        assert orbit_equal((1, 2), (0.6, 0.8), (-0.6, 0.8))
        assert not orbit_equal((1, 1), (0.6, 0.8), (-0.6, 0.8))

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            orbit_equal((1, 1), (1, 0), (1, 0), tol=0)

    def test_weighted_action_is_always_detected(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for weights in [(1, 2), (1, 2, 3), (2, 2, 4), (1, 1, 2, 6)]:
            for _ in range(25):
                z = rng.standard_normal(len(weights)) + 1j * rng.standard_normal(
                    len(weights)
                )
                z /= np.linalg.norm(z)
                lam = cmath.exp(2j * cmath.pi * rng.random())
                acted = z * np.array([lam**w for w in weights])
                assert orbit_equal(weights, tuple(z), tuple(acted))

    def test_distinct_points_rejected(self):
        import numpy as np

        rng = np.random.default_rng(12)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z /= np.linalg.norm(z)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w /= np.linalg.norm(w)
        assert not orbit_equal((1, 2, 3), tuple(z), tuple(w))


class TestChartInvariance:
    @staticmethod
    def _phases(eta):
        return [cmath.exp(2j * cmath.pi * float(c)) for c in eta]

    def test_affine_node_circle_identification(self):
        # with the affine barycentric coordinate zero, multiplying the phases
        # by the lowest-root circle lands in the same weighted orbit
        datum = build_root_datum("G2")
        geo = alcove_geometry(datum)
        from liecomm.alcove import barycenter
        from liecomm.rootdata import FaceIndex

        x = barycenter(geo, FaceIndex.of(datum, [0]))
        lam = cmath.exp(0.77j)
        t = [cmath.exp(0.3j), cmath.exp(1.9j)]
        shifted = [
            t[j] * lam ** datum.coroot_integers[j + 1] for j in range(datum.rank)
        ]
        p = rep_to_wps(geo, x, t)
        q = rep_to_wps(geo, x, shifted)
        assert orbit_equal(p.weights, p, q)

    @pytest.mark.parametrize("name", ["C2", "G2", "A2"])
    def test_weyl_orbit_constancy(self, name):
        # the composite (torus pair) -> alcove reduction -> chart is constant
        # on diagonal Weyl orbits, with the second coordinate transported
        from liecomm.weyl import alcove_reduce, generate

        datum = build_root_datum(name)
        geo = alcove_geometry(datum)
        group = generate(datum)
        r = datum.rank
        xi = [Fraction(3, 7), Fraction(-2, 5)][:r]
        eta = [Fraction(1, 3), Fraction(4, 7)][:r]
        point, w0, _ = alcove_reduce(datum, xi)
        eta0 = [sum(Fraction(w0[i][j]) * eta[j] for j in range(r)) for i in range(r)]
        base = rep_to_wps(geo, point, self._phases(eta0))
        for w in group.matrices[:: max(1, group.order // 6)].tolist():
            xi_w = [sum(Fraction(w[i][j]) * xi[j] for j in range(r)) for i in range(r)]
            eta_w = [sum(Fraction(w[i][j]) * eta[j] for j in range(r)) for i in range(r)]
            point_w, w1, _ = alcove_reduce(datum, xi_w)
            assert point_w == point
            eta1 = [
                sum(Fraction(w1[i][j]) * eta_w[j] for j in range(r)) for i in range(r)
            ]
            moved = rep_to_wps(geo, point_w, self._phases(eta1))
            assert orbit_equal(base.weights, base, moved, tol=1e-6)


class TestSpinStabilityMap:
    def test_standard_inclusion_on_shared_face(self):
        ell = 6
        a = [0.25, 0.25, 0.3, 0.2, 0.0, 0.0]
        t = [cmath.exp(1j * x) for x in (0.3, -0.8, 1.7, 0.2, 2.4)]
        image = spin_stability_map(ell, a, t)
        bary = [0.25, 0.25, 0.3, 0.2]
        phases = t[:3]
        expected = [bary[0]] + [b * p for b, p in zip(bary[1:], phases)] + [0, 0, 0]
        norm = np.linalg.norm(np.abs(np.array(expected, dtype=complex)))
        assert np.allclose(np.array(image.coords), np.array(expected, dtype=complex) / norm)

    def test_seam_branches_agree_up_to_orbit(self):
        ell = 6
        a = [0.1, 0.15, 0.2, 0.05, 0.25, 0.25]
        t = [cmath.exp(1j * x) for x in (0.3, 1.1, -0.7, 0.4, 2.0)]
        plus = spin_stability_map(ell, a, t)
        # force the other branch by nudging the comparison entries across the seam
        eps = 1e-9
        a_minus = a[:4] + [0.25 + eps, 0.25 - eps]
        minus = spin_stability_map(ell, a_minus, t)
        assert orbit_equal(plus.weights, plus, minus, tol=1e-6)

    def test_identification_invariance(self):
        # phases along walls with zero barycentric coordinate do not matter
        ell = 6
        a = [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]
        t1 = [cmath.exp(1j * x) for x in (0.3, 1.1, -0.7, 0.4, 2.0)]
        t2 = list(t1)
        t2[1] = cmath.exp(2.2j)  # node 2 lies on a zero wall
        p1 = spin_stability_map(ell, a, t1)
        p2 = spin_stability_map(ell, a, t2)
        assert orbit_equal(p1.weights, p1, p2)

    def test_origin_vertex_maps_to_base_point(self):
        image = spin_stability_map(5, [1.0, 0, 0, 0, 0], [1, 1, 1, 1])
        assert image.coords[0] == pytest.approx(1.0)
        assert all(abs(z) < 1e-15 for z in image.coords[1:])

    def test_odd_variant_shape(self):
        ell = 5
        a = [0.2, 0.2, 0.2, 0.2, 0.2]
        t = [cmath.exp(1j * x) for x in (0.1, 0.2, 0.3, 0.4)]
        image = spin_stability_map(ell, a, t, parity="odd")
        assert image.weights == odd_spin_weights(ell)
        assert abs(image.coords[-1]) < 1e-15

    def test_outside_simplex_rejected(self):
        with pytest.raises(ValueError):
            spin_stability_map(5, [0.5, 0.5, 0.5, -0.5, 0.0], [1, 1, 1, 1])
