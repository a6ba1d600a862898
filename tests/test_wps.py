import random
from itertools import combinations
from math import gcd, lcm, prod

import pytest

from liecomm import wps
from liecomm.homology import FinAbGroup, InvariantBreachError
from liecomm.rootdata import build_root_datum, dynkin_index
from liecomm.verify import _table_types
from liecomm.wps import (
    inclusion_degree,
    kawasaki_homology,
    proj_degree,
    spin_stability_report,
)


class TestKawasaki:
    def test_projective_line(self):
        assert kawasaki_homology((1, 1), 2) == FinAbGroup(1)

    def test_odd_degrees_vanish(self):
        for k in (1, 3, 5):
            assert kawasaki_homology((1, 2, 3), k) == FinAbGroup()

    def test_above_top_dimension(self):
        assert kawasaki_homology((1, 2), 4) == FinAbGroup()

    @pytest.mark.parametrize(
        "weights, k, rank",
        [
            ((1, 2, 3), 4, 1), ((1, 2, 3), 6, 0), ((1, 1, 2, 3), 6, 1), ((1, 1, 2, 3), 8, 0),
            ((1, 2), 0, 1),
        ],
    )
    def test_top_degree(self, weights, k, rank):
        # Z up to the top degree 2 * dim inclusive, and 0 at 2 * dim + 2
        assert kawasaki_homology(weights, k) == FinAbGroup(rank)


class TestProjDegree:
    def test_all_ones(self):
        assert proj_degree((1, 1, 1), 1) == 1

    def test_examples(self):
        assert proj_degree((1, 2), 1) == 2
        assert proj_degree((1, 2, 3), 1) == 6
        assert proj_degree((1, 2, 3), 0) == 1

    def test_permutation_invariance(self):
        assert proj_degree((3, 1, 2), 1) == proj_degree((1, 2, 3), 1)

    @pytest.mark.parametrize("weights", [(1.5, 2), (1, 2.5, 3), (1, float("inf")), (0, 1), ()])
    def test_non_integral_or_nonpositive_weights_rejected(self, weights):
        # int() would compute with weight 1 in place of 1.5
        with pytest.raises(ValueError, match="weights must be"):
            proj_degree(weights, 0)

    def test_integral_float_weights_accepted(self):
        assert proj_degree((1.0, 2.0, 3.0), 1) == 6

    def test_monotone_in_k(self):
        w = (1, 2, 2, 4)
        for k in range(len(w) - 1):
            assert (proj_degree(w, k + 1) * max(w)) % proj_degree(w, k) == 0

    @staticmethod
    def _subset_lcm(ws, k):
        return lcm(*(prod(sub) // gcd(*sub) for sub in combinations(ws, k + 1)))

    def test_matches_the_subset_lcm(self):
        # the product of the k largest invariant factors of the sum of the
        # Z/w_i, against the lcm over (k+1)-subsets; (1, 1, 2) at k = 2 asks
        # for more factors than its chain (2,) has
        rng = random.Random(7)
        cases = [((1, 1, 2), 2), ((1, 1, 1), 2), ((4, 6, 1), 2), ((12, 18, 8, 27), 3)]
        for _ in range(400):
            n = rng.randint(1, 7)
            ws = tuple(rng.choice((1, 1, 2, 3, 4, 6, 8, 9, 12, 16)) for _ in range(n))
            cases.append((ws, rng.randrange(len(ws))))
        for ws, k in cases:
            assert proj_degree(ws, k) == self._subset_lcm(ws, k), (ws, k)

    def test_no_subsets_enumerated(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the (k+1)-subsets were enumerated")

        monkeypatch.setattr(wps, "combinations", refuse, raising=False)
        assert proj_degree((1,) * 26, 12) == 1
        assert proj_degree((1, 2, 2, 3, 4, 6), 3) == self._subset_lcm((1, 2, 2, 3, 4, 6), 3)


class TestInclusionDegree:
    def test_full_subset(self):
        assert inclusion_degree((1, 2, 3), (0, 1, 2), 1) == 1

    def test_singleton(self):
        assert inclusion_degree((1, 2), (0,), 0) == 1

    @pytest.mark.parametrize("subset", [(0.5, 1), (0, 1.5), (float("nan"),), (3,), ()])
    def test_invalid_subset_rejected(self, subset):
        # int() would read index 0.5 as index 0
        with pytest.raises(ValueError, match="subset must name valid coordinate indices"):
            inclusion_degree((1, 2, 3), subset, 1)

    def test_remainder_is_a_breach(self, monkeypatch):
        # the subspace's degree divides the whole space's for any weights, so
        # only a wrong proj_degree leaves a remainder: CP(1, 2)'s 2 made 4
        real = wps.proj_degree
        monkeypatch.setattr(wps, "proj_degree", lambda ws, k: real(ws, k) + 2 * (len(ws) == 2))
        with pytest.raises(InvariantBreachError, match="inclusion degree is not an integer"):
            inclusion_degree((1, 2, 3), (0, 1), 1)

    def test_spin_iso_range(self):
        # into the rank l-1 tuple: isomorphisms through homology degree 2l-6
        for ell in (5, 6, 7):
            small = build_root_datum(f"D{ell - 1}").coroot_integers
            shared = tuple(range(ell - 2))
            for kk in range(0, ell - 2):
                assert inclusion_degree(small, shared, kk) == 1
        # into the rank l tuple: multiplication by 2 exactly at degree 2l-6
        for ell in (5, 6, 7):
            big = build_root_datum(f"D{ell}").coroot_integers
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

    @pytest.mark.parametrize(
        "ell, parity, threshold", [(4, "even", 2), (5, "even", 4), (4, "odd", 4), (5, "odd", 6)]
    )
    def test_threshold_is_the_last_valid_degree(self, ell, parity, threshold):
        # 2 * ell - 6 (even) and 2 * ell - 4 (odd) are answered, with degree 2;
        # the next even degree is refused
        assert spin_stability_report(ell, parity, threshold)["degree"] == 2
        with pytest.raises(ValueError, match=f"beyond the validated range {threshold}$"):
            spin_stability_report(ell, parity, threshold + 2)

    def test_high_rank_degree(self):
        # C(24, 13) subsets once made this take seconds and hundreds of MB
        assert spin_stability_report(24, "even", 24) == {
            "degree": 1,
            "zero_groups": False,
            "route": "factorization through the shared coordinate subspace",
        }

    @pytest.mark.parametrize("n", range(2, 31))
    def test_closed_form_coroot_integers(self, n):
        # B2 = Spin(5) is the smallest odd member; D2 is no simple type
        if n > 2:
            assert wps._spin_coroot_integers("even", n) == build_root_datum(f"D{n}").coroot_integers
        assert wps._spin_coroot_integers("odd", n) == build_root_datum(f"B{n}").coroot_integers

    def test_no_root_datum_is_imported(self, run_python):
        # the weights have a closed form, so no root closure is needed, not
        # even for rank 400 or the odd rank-3 composition
        code = (
            "import sys, liecomm.wps as w\n"
            "w.spin_stability_report(400, 'even', 2); w.spin_stability_report(3, 'odd', 2)\n"
            "print('liecomm.rootdata' in sys.modules)"
        )
        assert run_python("-c", code).stdout == "False\n"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            spin_stability_report(4, "even", 4)
        with pytest.raises(ValueError):
            spin_stability_report(3, "even", 0)

    @pytest.mark.parametrize("ell, parity", [(4, "even"), (9, "even"), (4, "odd"), (30, "odd")])
    def test_one_inclusion_degree_per_report(self, monkeypatch, ell, parity):
        # the degree is the inclusion of the shared coordinates into rank ell
        # alone: two projection degrees per even k, none for the smaller group
        calls = []
        real = wps.proj_degree
        monkeypatch.setattr(wps, "proj_degree", lambda ws, k: calls.append(ws) or real(ws, k))
        threshold = 2 * ell - 6 if parity == "even" else 2 * ell - 4
        for k in range(0, threshold + 1, 2):
            calls.clear()
            spin_stability_report(ell, parity, k)
            assert len(calls) == 2, k
            assert len(calls[0]) == len(wps._spin_coroot_integers(parity, ell))


class TestCompositeDegree:
    # the composite through any node j equals proj_degree(w, 1), so one check
    # per type covers every node: the H_2 projection degree is the Dynkin index
    @pytest.mark.parametrize("lt", _table_types(), ids=lambda lt: lt.name)
    def test_equals_lcm_for_all_nodes(self, lt):
        datum = build_root_datum(lt)
        assert proj_degree(datum.coroot_integers, 1) == dynkin_index(datum)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: proj_degree((1, 2), 2), "k must lie between 0 and the complex dimension"),
        (lambda: inclusion_degree((1, 2, 3), (0,), 1), "subset too small"),
        (lambda: spin_stability_report(2, "odd", 0), "odd-series stability needs ell >= 3"),
        (lambda: kawasaki_homology((1, 2), -1), "degree must be nonnegative"),
        (lambda: spin_stability_report(4, "mixed", 2), "parity must be 'even' or 'odd'"),
        (lambda: spin_stability_report(4, "even", -2), "homology degree must be nonnegative"),
        (lambda: spin_stability_report(100_001, "odd", 0), "ell must be at most 100000"),
    ],
    ids=[
        "proj_degree", "inclusion_degree", "spin_stability_report",
        "kawasaki_homology", "spin_stability_report-parity", "spin_stability_report-negative-k",
        "spin_stability_report-ell",
    ],
)
def test_argument_one_past_its_range_is_refused(call, message):
    # each refusal is the function's own, not a later error of another kind
    with pytest.raises(ValueError, match=message):
        call()
