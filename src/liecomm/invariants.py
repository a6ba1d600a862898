"""Top-level invariants: pi_2 of the commuting-pair spaces and their quotients.

pi2_hom_pairs reports the finished group together with a provenance record
stating how the value was produced, because this library is meant to be
audited; h2_extension_semisimple reports the kernel and the quotient of the
degree-2 extension and whether it forces torsion.  The central consistency
law is that the product over primes of the degree-0 fragments equals the lcm
of the coroot integers; pi2_hom_pairs asserts it on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd, prod

from .homology import FinAbGroup, as_int, exact_quotient, require
from .rootdata import LieType, build_root_datum, dynkin_index
from .wps import spin_stability_report


@dataclass(frozen=True)
class Pi2Report:
    """pi_2 of the commuting-pair space with the quotient-map degree."""

    group: FinAbGroup
    quotient_degree: int
    prime_breakdown: tuple[tuple[int, int], ...]
    provenance: str


@dataclass(frozen=True)
class ExtensionReport:
    """The degree-2 homology extension for a semisimple group."""

    kernel: FinAbGroup
    quotient: FinAbGroup
    has_forced_torsion: bool


# Miller-Rabin to the first 13 prime bases is exact below psi_13 (Sorenson and
# Webster, Math. Comp. 86, 2017); 12 bases stop at the composite psi_12 ~ 3.2e23
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above _PRIME_BOUND."""
    if n >= _PRIME_BOUND:
        raise ValueError(f"primality is decided only below {_PRIME_BOUND}")
    if n < 2 or any(n % q == 0 for q in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    # a witnesses that n is composite when a^d != 1 and a^(d 2^i) != -1 for i < s
    return not any(
        pow(a, d, n) != 1 and all(pow(a, d << i, n) != n - 1 for i in range(s))
        for a in _PRIME_BASES
    )


def bredon_e2_fragment(lie_type: LieType | str, p: int, k: int) -> FinAbGroup:
    """The degree-k equivariant fragment at the prime p.

    Z/p in even degrees up to 2*(l-1), where l counts coroot integers
    divisible by p; at p = 2 the two largest exceptional types carry Z/4 in
    degree 0 (and 0 in degree 1) instead.  Any p but an integral prime
    raises ValueError.
    """
    if not _is_prime(p := as_int(p, "p must be a prime")):
        raise ValueError("p must be a prime")
    if k < 0:
        raise ValueError("k must be nonnegative")
    datum = build_root_datum(lie_type)
    ell = sum(1 for n in datum.coroot_integers if n % p == 0)
    if ell == 0:
        return FinAbGroup()
    if k % 2:
        return FinAbGroup()
    is_big_exceptional = datum.lie_type.family == "E" and datum.lie_type.rank >= 7
    if is_big_exceptional and p == 2:
        if k == 0:
            return FinAbGroup(0, (4,))
        raise ValueError(
            "the rank-7/8 exceptional fragments at p=2 are assembled only in degrees 0 and 1"
        )
    return FinAbGroup(0, (p,)) if k <= 2 * (ell - 1) else FinAbGroup()


def pi2_hom_pairs(lie_type: LieType | str) -> Pi2Report:
    """pi_2 of the commuting-pair space of a simply connected simple group.

    The group is Z; the quotient map onto the conjugation quotient multiplies
    by the product of the degree-0 prime fragments, which is asserted to equal
    the lcm of the coroot integers.
    """
    datum = build_root_datum(lie_type)
    # the primes dividing the coroot integers (each at most 6)
    primes = sorted({p for n in datum.coroot_integers for p in range(2, n + 1)
                     if n % p == 0 and _is_prime(p)})
    breakdown = tuple((p, bredon_e2_fragment(datum.lie_type, p, 0).order()) for p in primes)
    degree, index = prod(c for _, c in breakdown), dynkin_index(datum)
    require(
        degree == index,
        f"prime assembly {degree} disagrees with the coroot-integer lcm "
        f"{index} for {datum.lie_type.name}",
    )
    return Pi2Report(
        group=FinAbGroup(1),
        quotient_degree=degree,
        prime_breakdown=breakdown,
        provenance="prime-fragment assembly, cross-checked against the coroot-integer lcm",
    )


def pi2_hom_n(lie_type: LieType | str, n: int) -> FinAbGroup:
    """pi_2 of the commuting-n-tuple space for the unitary/symplectic families.

    Special unitary of rank >= 2: Z^C(n,2).  Compact symplectic (and the
    rank-1 group, which is symplectic of rank 1):
    Z^C(n,2) + (Z/2)^(2^n - 1 - n - C(n,2)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    datum = build_root_datum(lie_type)
    fam, rank = datum.lie_type.family, datum.lie_type.rank
    free = comb(n, 2)
    if fam == "A" and rank >= 2:
        return FinAbGroup(free)
    if fam == "C" or (fam == "A" and rank == 1):
        exponent = 2**n - 1 - n - free
        return FinAbGroup(free, (2,) * exponent)
    raise ValueError(
        "the n-tuple formula covers the special unitary and symplectic families only"
    )


def h2_extension_semisimple(pi1: FinAbGroup, simple_factors: int) -> ExtensionReport:
    """The degree-2 homology extension 0 -> Z^s -> H_2 -> H_2(pi1^2; Z) -> 0.

    pi1 must be finite.  The fundamental group of the commuting-pair space is
    pi1 + pi1, so by Hopf the quotient is its Schur multiplier, the exterior
    square of pi1 + pi1: Z/gcd(o_i, o_j) for each pair i < j of the cyclic
    orders o of pi1 + pi1.  The report flags forced torsion whenever the
    quotient is non-cyclic (the projective-orthogonal phenomenon).
    """
    if simple_factors < 0:
        raise ValueError("the number of simple factors must be nonnegative")
    if not pi1.is_finite:
        raise ValueError("pi1 must be finite for a semisimple group")
    orders = pi1.torsion * 2
    quotient = FinAbGroup(0, tuple(gcd(a, b) for a, b in combinations(orders, 2)))
    return ExtensionReport(
        kernel=FinAbGroup(simple_factors),
        quotient=quotient,
        has_forced_torsion=not quotient.is_cyclic,
    )


def pi4_commutative_classifying(lie_type: LieType | str) -> tuple[FinAbGroup, FinAbGroup]:
    """pi_4 of the commutative total space and classifying space: (Z, Z + Z)."""
    build_root_datum(lie_type)
    return FinAbGroup(1), FinAbGroup(2)


def spin_pi2_stability(m: int) -> dict:
    """Whether spin stabilization m -> m+1 is a pi_2 isomorphism (m >= 5):
    {"stable", "route", "details"}, details holding the arithmetic by name.

    For m >= 6 the covering even-series composite has degree
    rep_degree * index_lower / index_upper, which must equal 1; m = 5 routes
    through the exceptional isomorphisms with the symplectic/unitary groups.
    """
    if m < 5:
        raise ValueError("stability statement starts at m = 5")
    if m == 5:
        return {
            "stable": True,
            "route": "exceptional isomorphisms (rank-2 symplectic and rank-3 unitary)",
            "details": {
                "dynkin_index_spin5": dynkin_index(build_root_datum("Spin(5)")),
                "dynkin_index_spin6": dynkin_index(build_root_datum("Spin(6)")),
            },
        }
    ell = (m + 2) // 2
    rep_degree = spin_stability_report(ell, "even", 2)["degree"]
    lower = dynkin_index(build_root_datum(f"Spin({2 * ell - 2})"))
    upper = dynkin_index(build_root_datum(f"Spin({2 * ell})"))
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
