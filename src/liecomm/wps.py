"""Weighted projective spaces: homology, map degrees, and spin stability.

CP(w) is the quotient of the unit sphere in C^(r+1) by the circle acting with
positive integer weights w.  Its integral homology is Z in even degrees up to
twice the complex dimension; the projection from ordinary projective space
multiplies the degree-2k generator by an lcm of weight products over
(k+1)-subsets.  Degrees are reported as absolute values throughout.
"""

from __future__ import annotations

from math import lcm, prod
from typing import Sequence

from .homology import FinAbGroup, as_int, exact_quotient


def _weights(weights: Sequence[int]) -> tuple[int, ...]:
    """The weight tuple w of CP(w) as ints, which must be positive."""
    message = "weights must be a nonempty tuple of positive integers"
    ws = tuple(as_int(w, message) for w in weights)
    if not ws or any(w < 1 for w in ws):
        raise ValueError(message)
    return ws


def kawasaki_homology(weights: Sequence[int], k: int) -> FinAbGroup:
    """Integral homology of CP(w) in degree k: Z for even k <= 2*dim, else 0."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k % 2 == 0 and k <= 2 * (len(_weights(weights)) - 1):
        return FinAbGroup(1)
    return FinAbGroup()


def proj_degree(weights: Sequence[int], k: int) -> int:
    """Degree on H_{2k} of the weight-power projection from projective space.

    lcm over (k+1)-subsets S of prod(S) / gcd(S).  A subset S has p-adic
    valuation sum_S v_p - min_S v_p, at most the sum of the k largest v_p(w_i),
    so the degree is the product of the k largest invariant factors of the sum
    of the Z/w_i.
    """
    ws = _weights(weights)
    if not 0 <= k <= len(ws) - 1:
        raise ValueError("k must lie between 0 and the complex dimension")
    chain = FinAbGroup(0, ws).torsion
    return prod(chain[max(0, len(chain) - k) :])


def inclusion_degree(weights: Sequence[int], subset: Sequence[int], k: int) -> int:
    """Degree on H_{2k} of the coordinate-subspace inclusion CP(w_S) -> CP(w).

    The weight-power projections factor through the inclusion, so the degree
    is the quotient of the two projection degrees; the division is exact.
    """
    ws = _weights(weights)
    message = "subset must name valid coordinate indices"
    sub = tuple(sorted(set(as_int(i, message) for i in subset)))
    if not sub or not all(0 <= i < len(ws) for i in sub):
        raise ValueError(message)
    if len(sub) < k + 1:
        raise ValueError("subset too small for homology degree 2k")
    w_s = tuple(ws[i] for i in sub)
    return exact_quotient(
        proj_degree(ws, k), proj_degree(w_s, k), "inclusion degree is not an integer"
    )


# ---------------------------------------------------------------------------
# Spin stability degrees
# ---------------------------------------------------------------------------


# a fixed bound that no option raises: the ell + 1 weights are built as a tuple
MAX_SPIN_RANK = 100_000


def _spin_coroot_integers(parity: str, n: int) -> tuple[int, ...]:
    """The coroot integers of Spin(2n) = D_n (even) or Spin(2n + 1) = B_n (odd): 1 for
    the affine node, then theta-vee's on the simple coroots (Bourbaki, plates IV and II)."""
    if parity == "even":
        return (1, 1) + (2,) * (n - 3) + (1, 1)
    return (1, 1) + (2,) * (n - 2) + (1,)


def spin_stability_report(ell: int, parity: str, k: int) -> dict:
    """Degree of the two-step spin stabilization on H_k of the quotient space.

    parity 'even' compares ranks ell-1 -> ell of the even series (valid for
    ell >= 4, homology degrees k <= 2*ell - 6); parity 'odd' the odd series
    (ell >= 4 direct, k <= 2*ell - 4; ell = 3 via the composition rule).
    Odd homology degrees are isomorphisms of zero groups, reported as degree 1
    with zero_groups set.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if k < 0:
        raise ValueError("homology degree must be nonnegative")
    threshold = 2 * ell - 6 if parity == "even" else 2 * ell - 4
    if parity == "even" and ell < 4:
        raise ValueError("even-series stability needs ell >= 4")
    if parity == "odd" and ell < 3:
        raise ValueError("odd-series stability needs ell >= 3")
    if ell > MAX_SPIN_RANK:
        raise ValueError(
            f"ell must be at most {MAX_SPIN_RANK}, a fixed bound that no option raises"
        )
    if k % 2:
        return {"degree": 1, "zero_groups": True, "route": "odd degrees vanish"}
    if k > threshold:
        raise ValueError(f"homology degree {k} is beyond the validated range {threshold}")
    if parity == "odd" and ell == 3:
        # composition: the rank-3 odd step is sandwiched between even steps
        # whose degrees are known, forcing degree 2 at the threshold
        inner = spin_stability_report(4, "even", k)
        return {
            "degree": inner["degree"],
            "zero_groups": False,
            "route": "composition through the even series",
        }
    shared = range(ell - 2 if parity == "even" else ell - 1)
    return {
        "degree": inclusion_degree(_spin_coroot_integers(parity, ell), shared, k // 2),
        "zero_groups": False,
        "route": "factorization through the shared coordinate subspace",
    }


def spin_pi2_stability(m: int) -> dict:
    """Whether spin stabilization m -> m+1 is a pi_2 isomorphism (m >= 5):
    {"stable", "route", "details"}, details holding the arithmetic by name.

    For m >= 6 the covering even-series composite has degree
    rep_degree * index_lower / index_upper, which must equal 1; m = 5 routes
    through the exceptional isomorphisms with the symplectic/unitary groups.
    Each Dynkin index is the lcm of the closed-form coroot integers.
    """
    if m < 5:
        raise ValueError("stability statement starts at m = 5")
    if m == 5:
        return {
            "stable": True,
            "route": "exceptional isomorphisms (rank-2 symplectic and rank-3 unitary)",
            "details": {
                "dynkin_index_spin5": lcm(*_spin_coroot_integers("odd", 2)),
                "dynkin_index_spin6": lcm(*_spin_coroot_integers("even", 3)),
            },
        }
    ell = (m + 2) // 2
    # first, so that the rank bound is checked before any weight tuple is built
    rep_degree = spin_stability_report(ell, "even", 2)["degree"]
    lower, upper = (lcm(*_spin_coroot_integers("even", n)) for n in (ell - 1, ell))
    composite = exact_quotient(
        rep_degree * lower, upper, "composite degree arithmetic is not integral"
    )
    return {
        "stable": composite == 1,
        "route": "even-series composite degree",
        "details": {
            "ell": ell,
            "rep_degree": rep_degree,
            "dynkin_index_lower": lower,
            "dynkin_index_upper": upper,
            "composite_hom_degree": composite,
        },
    }
