import time
from itertools import product
from math import comb, isqrt

import pytest

from liecomm import invariants, rootdata
from liecomm.homology import FinAbGroup, InvariantBreachError, chain_homology
from liecomm.invariants import (
    bredon_e2_fragment,
    h2_extension_semisimple,
    pi2_hom_n,
    pi2_hom_pairs,
    pi4_commutative_classifying,
)
from liecomm.rootdata import LieType, LieTypeError, build_root_datum, dynkin_index
from liecomm.weyl import generate, molien_poincare


class TestBredonFragment:
    def test_f4_at_3(self):
        assert bredon_e2_fragment("F4", 3, 0) == FinAbGroup(0, (3,))
        assert bredon_e2_fragment("F4", 3, 2) == FinAbGroup()

    def test_f4_at_2(self):
        # two coroot integers divisible by 2, so Z/2 in degrees 0 and 2
        assert bredon_e2_fragment("F4", 2, 0) == FinAbGroup(0, (2,))
        assert bredon_e2_fragment("F4", 2, 2) == FinAbGroup(0, (2,))
        assert bredon_e2_fragment("F4", 2, 4) == FinAbGroup()

    def test_exceptional_override(self):
        assert bredon_e2_fragment("E7", 2, 0) == FinAbGroup(0, (4,))
        assert bredon_e2_fragment("E8", 2, 0) == FinAbGroup(0, (4,))
        assert bredon_e2_fragment("E8", 2, 1) == FinAbGroup()
        assert bredon_e2_fragment("E6", 2, 0) == FinAbGroup(0, (2,))
        with pytest.raises(ValueError):
            bredon_e2_fragment("E8", 2, 2)  # not assembled by the formulas

    def test_odd_degrees_vanish(self):
        for name in ("G2", "F4", "E6", "E7", "Spin(11)"):
            for p in (2, 3):
                assert bredon_e2_fragment(name, p, 1) == FinAbGroup()

    def test_non_dividing_prime(self):
        assert bredon_e2_fragment("SU(4)", 2, 0) == FinAbGroup()
        assert bredon_e2_fragment("G2", 5, 0) == FinAbGroup()

    @pytest.mark.parametrize("p", [6, 4, 1, 2.5])
    def test_non_prime_rejected(self, p):
        # E8's coroot integers are divisible by 6 and 4, which are no primes
        with pytest.raises(ValueError, match="p must be a prime"):
            bredon_e2_fragment("E8", p, 0)

    @pytest.mark.parametrize("p", [2**61 - 1, 10**14 + 31])
    def test_large_prime_answers_fast(self, p):
        # trial division to sqrt(p) would take minutes near 2^61
        bredon_e2_fragment("E8", 2, 0)  # the root datum, built once
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            assert bredon_e2_fragment("E8", p, 0) == FinAbGroup()
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.01

    @pytest.mark.parametrize("p", [561, 41041, 3215031751, 318665857834031151167461])
    def test_pseudoprimes_rejected(self, p):
        # two Carmichael numbers, a strong pseudoprime to the bases 2, 3, 5
        # and 7, and psi_12, one to the first 12 prime bases
        with pytest.raises(ValueError, match="p must be a prime"):
            bredon_e2_fragment("E8", p, 0)

    def test_primality_bound_raises(self):
        with pytest.raises(ValueError, match="primality is decided only below"):
            bredon_e2_fragment("E8", invariants._PRIME_BOUND, 0)

    def test_the_bound_is_psi_13(self):
        # psi_13, a strong pseudoprime to all 13 bases, is the first number
        # that Miller-Rabin would call prime wrongly, so it is refused
        psi_13 = 1287836182261 * 2575672364521
        assert invariants._PRIME_BOUND == psi_13 == 3317044064679887385961981
        with pytest.raises(ValueError, match="primality is decided only below"):
            invariants._is_prime(psi_13)

    def test_primality_matches_a_sieve(self):
        n = 20_000
        sieve = [False, False] + [True] * (n - 2)
        for q in range(2, isqrt(n) + 1):
            if sieve[q]:
                sieve[q * q :: q] = [False] * len(sieve[q * q :: q])
        assert [invariants._is_prime(m) for m in range(n)] == sieve

    def test_spin_range(self):
        # D6 has three coroot integers divisible by 2: nonzero through degree 4
        for k, expect in [(0, 2), (2, 2), (4, 2), (6, 1)]:
            frag = bredon_e2_fragment("Spin(12)", 2, k)
            assert frag.order() == expect


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bredon_e2_fragment("F4", 2, -1), "k must be nonnegative"),
        (lambda: pi2_hom_n("SU(4)", 0), "n must be >= 1"),
    ],
    ids=["bredon_e2_fragment", "pi2_hom_n"],
)
def test_degree_below_its_range_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
        assert report.group == FinAbGroup(1)
        assert report.quotient_degree == degree
        assert report.quotient_degree == dynkin_index(build_root_datum(name))

    def test_breakdown_multiplies(self):
        report = pi2_hom_pairs("E8")
        assert dict(report.prime_breakdown) == {2: 4, 3: 3, 5: 5}

    def test_torsion_free_iff_degree_one_fragments_vanish(self):
        for name in ("SU(3)", "Spin(9)", "E7", "E8", "F4"):
            report = pi2_hom_pairs(name)
            assert report.group.torsion == ()

    @pytest.mark.parametrize(
        "name, perturbed, degree, lcm",
        [
            # the coroot-integer lcm off by one
            ("dynkin_index", lambda real, datum: real(datum) + 1, 60, 61),
            # the Z/4 override at p = 2 read as Z/8: the assembly is 120
            (
                "bredon_e2_fragment",
                lambda real, lt, p, k: FinAbGroup(0, (8,)) if p == 2 else real(lt, p, k),
                120,
                60,
            ),
        ],
    )
    def test_disagreement_is_a_breach(self, capsys, monkeypatch, name, perturbed, degree, lcm):
        from liecomm.cli import main

        real = getattr(invariants, name)
        monkeypatch.setattr(invariants, name, lambda *args: perturbed(real, *args))
        message = f"prime assembly {degree} disagrees with the coroot-integer lcm {lcm} for E8"
        with pytest.raises(InvariantBreachError, match=message):
            pi2_hom_pairs("E8")
        assert main(["invariants", "E8"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"liecomm: invariant breach: {message}\n"


class TestPi2N:
    def test_su_formula(self):
        assert pi2_hom_n("SU(5)", 3) == FinAbGroup(3)
        assert pi2_hom_n("SU(3)", 4) == FinAbGroup(6)

    def test_sp_formula(self):
        assert pi2_hom_n("Sp(2)", 3) == FinAbGroup(3, (2,))
        assert pi2_hom_n("Sp(1)", 4) == FinAbGroup(6, (2,) * 5)

    def test_su2_routes_through_sp1(self):
        assert pi2_hom_n("SU(2)", 3) == pi2_hom_n("Sp(1)", 3)

    def test_n_one_trivial(self):
        assert pi2_hom_n("SU(4)", 1) == FinAbGroup()
        assert pi2_hom_n("Sp(3)", 1) == FinAbGroup()

    def test_pairs_case_matches_pairs_theorem(self):
        assert pi2_hom_n("Sp(3)", 2) == FinAbGroup(1)
        assert pi2_hom_n("SU(4)", 2) == FinAbGroup(1)

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
        report = h2_extension_semisimple(FinAbGroup(0, (2,)), 1)
        assert report.kernel == FinAbGroup(1)
        assert report.quotient == FinAbGroup(0, (2,))
        assert not report.has_forced_torsion

    def test_pso4n(self):
        # H_2((Z/2)^4; Z) = (Z/2)^6 by Hopf, and by the resolution oracle below
        report = h2_extension_semisimple(FinAbGroup(0, (2, 2)), 1)
        assert report.quotient == FinAbGroup(0, (2,) * 6)
        assert report.has_forced_torsion

    def test_trivial_pi1(self):
        report = h2_extension_semisimple(FinAbGroup(), 3)
        assert report.kernel == FinAbGroup(3)
        assert report.quotient == FinAbGroup()

    def test_no_simple_factors(self):
        # s = 0 is admitted, with kernel Z^0; s = -1 is refused
        report = h2_extension_semisimple(FinAbGroup(0, (2,)), 0)
        assert report.kernel == FinAbGroup()
        assert report.quotient == FinAbGroup(0, (2,))
        with pytest.raises(ValueError, match="must be nonnegative"):
            h2_extension_semisimple(FinAbGroup(0, (2,)), -1)

    def test_infinite_pi1_rejected(self):
        with pytest.raises(ValueError):
            h2_extension_semisimple(FinAbGroup(1), 1)

    @pytest.mark.parametrize(
        "orders", [(k,) for k in range(2, 10)] + [(2, 2), (2, 4), (3, 3), (2, 2, 2)]
    )
    def test_schur_multiplier_from_resolutions(self, orders):
        # the quotient is H_2 of pi1 x pi1, computed from a free resolution
        h = chain_homology(_resolution_boundaries(orders * 2))
        assert h[1] == FinAbGroup(0, orders * 2)
        assert h[2] == h2_extension_semisimple(FinAbGroup(0, orders), 1).quotient


def _resolution_boundaries(orders):
    """Boundaries d_1, d_2, d_3 of the tensor product, with the Koszul sign, of
    the periodic resolutions Z <-0- Z <-m- Z <-0- Z of Z/m for m in orders,
    truncated at degree 3: its H_0, H_1 and H_2 are those of the product of
    the cyclic groups."""
    basis = [[p for p in product(range(4), repeat=len(orders)) if sum(p) == n] for n in range(4)]
    mats = []
    for n in (1, 2, 3):
        index = {p: i for i, p in enumerate(basis[n - 1])}
        mat = [[0] * len(basis[n]) for _ in basis[n - 1]]
        for col, p in enumerate(basis[n]):
            sign = 1
            for i, (pi, m) in enumerate(zip(p, orders)):
                if pi and pi % 2 == 0:  # d = m from even degrees, 0 from odd
                    mat[index[p[:i] + (pi - 1,) + p[i + 1 :]]][col] = sign * m
                sign *= (-1) ** pi
        mats.append(mat)
    return mats


class TestPi4:
    @pytest.mark.parametrize("name", ["SU(2)", "Sp(3)", "Spin(11)", "G2", "E8"])
    def test_values(self, name):
        ecom, bcom = pi4_commutative_classifying(name)
        assert ecom == FinAbGroup(1)
        assert bcom == FinAbGroup(2)
        assert bcom.free_rank == ecom.free_rank + 1

    def test_validates_without_a_root_datum(self, monkeypatch):
        def refuse(lie_type):
            raise AssertionError("pi4_commutative_classifying built a root datum")

        monkeypatch.setattr(rootdata, "_build", refuse)
        assert pi4_commutative_classifying("E7") == (FinAbGroup(1), FinAbGroup(2))
        assert pi4_commutative_classifying(LieType("B", 3)) == (FinAbGroup(1), FinAbGroup(2))
        for bad in ("Spin(4)", "E9", "X3"):
            with pytest.raises(LieTypeError):
                pi4_commutative_classifying(bad)
