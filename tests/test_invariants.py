from math import comb

import pytest

from liecomm.homology import FinAbGroup
from liecomm.invariants import (
    bredon_e2_fragment,
    h2_extension_semisimple,
    pi2_hom_n,
    pi2_hom_pairs,
    pi4_commutative_classifying,
    spin_pi2_stability,
)
from liecomm.rootdata import build_root_datum, dynkin_index
from liecomm.weyl import generate, molien_poincare


class TestBredonFragment:
    def test_f4_at_3(self):
        assert bredon_e2_fragment("F4", 3, 0) == FinAbGroup.cyclic(3)
        assert bredon_e2_fragment("F4", 3, 2) == FinAbGroup.trivial()

    def test_f4_at_2(self):
        # two coroot integers divisible by 2, so Z/2 in degrees 0 and 2
        assert bredon_e2_fragment("F4", 2, 0) == FinAbGroup.cyclic(2)
        assert bredon_e2_fragment("F4", 2, 2) == FinAbGroup.cyclic(2)
        assert bredon_e2_fragment("F4", 2, 4) == FinAbGroup.trivial()

    def test_exceptional_override(self):
        assert bredon_e2_fragment("E7", 2, 0) == FinAbGroup.cyclic(4)
        assert bredon_e2_fragment("E8", 2, 0) == FinAbGroup.cyclic(4)
        assert bredon_e2_fragment("E8", 2, 1) == FinAbGroup.trivial()
        assert bredon_e2_fragment("E6", 2, 0) == FinAbGroup.cyclic(2)
        with pytest.raises(ValueError):
            bredon_e2_fragment("E8", 2, 2)  # not assembled by the formulas

    def test_odd_degrees_vanish(self):
        for name in ("G2", "F4", "E6", "E7", "Spin(11)"):
            for p in (2, 3):
                assert bredon_e2_fragment(name, p, 1) == FinAbGroup.trivial()

    def test_non_dividing_prime(self):
        assert bredon_e2_fragment("SU(4)", 2, 0) == FinAbGroup.trivial()
        assert bredon_e2_fragment("G2", 5, 0) == FinAbGroup.trivial()

    def test_spin_range(self):
        # D6 has three coroot integers divisible by 2: nonzero through degree 4
        for k, expect in [(0, 2), (2, 2), (4, 2), (6, 1)]:
            frag = bredon_e2_fragment("Spin(12)", 2, k)
            assert frag.order() == expect


class TestPi2Pairs:
    @pytest.mark.parametrize(
        "name,degree",
        [
            ("SU(2)", 1), ("SU(6)", 1), ("Sp(4)", 1), ("Spin(7)", 2), ("Spin(12)", 2),
            ("G2", 2), ("F4", 6), ("E6", 6), ("E7", 12), ("E8", 60),
        ],
    )
    def test_quotient_degrees(self, name, degree):
        report = pi2_hom_pairs(name)
        assert report.group == FinAbGroup.free(1)
        assert report.quotient_degree == degree
        assert report.quotient_degree == dynkin_index(build_root_datum(name))

    def test_breakdown_multiplies(self):
        report = pi2_hom_pairs("E8")
        assert dict(report.prime_breakdown) == {2: 4, 3: 3, 5: 5}

    def test_torsion_free_iff_degree_one_fragments_vanish(self):
        for name in ("SU(3)", "Spin(9)", "E7", "E8", "F4"):
            report = pi2_hom_pairs(name)
            assert report.group.torsion == ()


class TestPi2N:
    def test_su_formula(self):
        assert pi2_hom_n("SU(5)", 3) == FinAbGroup.free(3)
        assert pi2_hom_n("SU(3)", 4) == FinAbGroup.free(6)

    def test_sp_formula(self):
        assert pi2_hom_n("Sp(2)", 3) == FinAbGroup.from_divisors([2], 3)
        assert pi2_hom_n("Sp(1)", 4) == FinAbGroup.from_divisors([2] * 5, 6)

    def test_su2_routes_through_sp1(self):
        assert pi2_hom_n("SU(2)", 3) == pi2_hom_n("Sp(1)", 3)

    def test_n_one_trivial(self):
        assert pi2_hom_n("SU(4)", 1) == FinAbGroup.trivial()
        assert pi2_hom_n("Sp(3)", 1) == FinAbGroup.trivial()

    def test_pairs_case_matches_pairs_theorem(self):
        assert pi2_hom_n("Sp(3)", 2) == FinAbGroup.free(1)
        assert pi2_hom_n("SU(4)", 2) == FinAbGroup.free(1)

    def test_unsupported_type(self):
        with pytest.raises(ValueError):
            pi2_hom_n("G2", 2)


class TestPi2Rank:
    @pytest.mark.parametrize("name", ["A1", "A2", "C2", "G2"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_poincare_coefficient(self, name, n):
        group = generate(build_root_datum(name))
        assert comb(n, 2) == molien_poincare(group, n, 2)[2]

    @pytest.mark.parametrize("name", ["SU(4)", "Sp(2)"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_three_computations_of_the_rank(self, name, n):
        # formula group, abstract rank, and the Molien coefficient all agree
        group = generate(build_root_datum(name))
        rank = comb(n, 2)
        assert pi2_hom_n(name, n).free_rank == rank
        assert molien_poincare(group, n, 2)[2] == rank


class TestExtension:
    def test_so3(self):
        report = h2_extension_semisimple(FinAbGroup.cyclic(2), 1)
        assert report.kernel == FinAbGroup.free(1)
        assert report.quotient == FinAbGroup.cyclic(2)
        assert not report.has_forced_torsion

    def test_pso4n(self):
        report = h2_extension_semisimple(FinAbGroup(0, (2, 2)), 1)
        assert report.quotient == FinAbGroup(0, (2, 2, 2, 2))
        assert report.has_forced_torsion

    def test_trivial_pi1(self):
        report = h2_extension_semisimple(FinAbGroup.trivial(), 3)
        assert report.kernel == FinAbGroup.free(3)
        assert report.quotient == FinAbGroup.trivial()

    def test_infinite_pi1_rejected(self):
        with pytest.raises(ValueError):
            h2_extension_semisimple(FinAbGroup.free(1), 1)


class TestPi4:
    @pytest.mark.parametrize("name", ["SU(2)", "Sp(3)", "Spin(11)", "G2", "E8"])
    def test_values(self, name):
        ecom, bcom = pi4_commutative_classifying(name)
        assert ecom == FinAbGroup.free(1)
        assert bcom == FinAbGroup.free(2)
        assert bcom.free_rank == ecom.free_rank + 1


class TestSpinStability:
    def test_m5_exceptional_route(self):
        report = spin_pi2_stability(5)
        assert report.stable
        assert "exceptional" in report.route

    def test_m6_arithmetic(self):
        report = spin_pi2_stability(6)
        details = dict(report.details)
        assert details["rep_degree"] == 2
        assert details["dynkin_index_lower"] == 1
        assert details["dynkin_index_upper"] == 2
        assert details["composite_hom_degree"] == 1

    def test_m8_arithmetic(self):
        details = dict(spin_pi2_stability(8).details)
        assert details["rep_degree"] == 1
        assert details["composite_hom_degree"] == 1

    def test_range(self):
        assert all(spin_pi2_stability(m) for m in range(5, 17))
        with pytest.raises(ValueError):
            spin_pi2_stability(4)
