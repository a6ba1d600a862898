"""Top-level invariants: pi_2 of the commuting-pair spaces and their quotients.

Each operation reports the finished group together with a provenance record
stating how the value was produced (formula evaluation vs. cross-derivation),
because this library is meant to be audited.  The central consistency law is
that the product over primes of the degree-0 fragments equals the lcm of the
coroot integers; pi2_hom_pairs asserts it on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

from .homology import FinAbGroup, InvariantBreachError, _factorint
from .rootdata import LieType, build_root_datum, dynkin_index
from .wps import spin_stability_report


@dataclass(frozen=True)
class Pi2Report:
    """pi_2 of the commuting-pair space with the quotient-map degree."""

    lie_type: LieType
    group: FinAbGroup
    quotient_degree: int
    prime_breakdown: tuple[tuple[int, int], ...]
    provenance: str

    def to_json_dict(self) -> dict:
        return {
            "type": self.lie_type.name,
            "group": {"free_rank": self.group.free_rank, "torsion": list(self.group.torsion)},
            "quotient_degree": self.quotient_degree,
            "prime_breakdown": {str(p): c for p, c in self.prime_breakdown},
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class ExtensionReport:
    """The degree-2 homology extension for a semisimple group."""

    kernel: FinAbGroup
    quotient: FinAbGroup
    simple_factors: int
    has_forced_torsion: bool
    provenance: str


@dataclass(frozen=True)
class SpinStabilityReport:
    """Stability verdict for one spin stabilization step, with the arithmetic."""

    m: int
    stable: bool
    route: str
    details: tuple[tuple[str, int], ...] = ()

    def __bool__(self) -> bool:
        return self.stable


def bredon_e2_fragment(lie_type: LieType | str, p: int, k: int) -> FinAbGroup:
    """The degree-k equivariant fragment at the prime p.

    Z/p in even degrees up to 2*(l-1), where l counts coroot integers
    divisible by p; at p = 2 the two largest exceptional types carry Z/4 in
    degree 0 (and 0 in degree 1) instead.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    datum = build_root_datum(lie_type)
    ell = sum(1 for n in datum.coroot_integers if n % p == 0)
    if ell == 0:
        return FinAbGroup.trivial()
    if k % 2:
        return FinAbGroup.trivial()
    is_big_exceptional = datum.lie_type.family == "E" and datum.lie_type.rank >= 7
    if is_big_exceptional and p == 2:
        if k == 0:
            return FinAbGroup.cyclic(4)
        raise ValueError(
            "the rank-7/8 exceptional fragments at p=2 are assembled only in degrees 0 and 1"
        )
    return FinAbGroup.cyclic(p) if k <= 2 * (ell - 1) else FinAbGroup.trivial()


def pi2_hom_pairs(lie_type: LieType | str) -> Pi2Report:
    """pi_2 of the commuting-pair space of a simply connected simple group.

    The group is Z; the quotient map onto the conjugation quotient multiplies
    by the product of the degree-0 prime fragments, which is asserted to equal
    the lcm of the coroot integers.
    """
    datum = build_root_datum(lie_type)
    primes = sorted({p for n in datum.coroot_integers for p in _factorint(n)})
    torsion_fragments = [bredon_e2_fragment(datum.lie_type, p, 1) for p in primes]
    group = FinAbGroup.free(1)
    for frag in torsion_fragments:
        group = group.direct_sum(frag)
    breakdown = tuple((p, bredon_e2_fragment(datum.lie_type, p, 0).order()) for p in primes)
    degree = prod(c for _, c in breakdown)
    if degree != dynkin_index(datum):
        raise InvariantBreachError(
            f"prime assembly {degree} disagrees with the coroot-integer lcm "
            f"{dynkin_index(datum)} for {datum.lie_type.name}"
        )
    return Pi2Report(
        lie_type=datum.lie_type,
        group=group,
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
        return FinAbGroup.free(free)
    if fam == "C" or (fam == "A" and rank == 1):
        exponent = 2**n - 1 - n - free
        return FinAbGroup.from_divisors([2] * exponent, free)
    raise ValueError(
        "the n-tuple formula covers the special unitary and symplectic families only"
    )


def h2_extension_semisimple(pi1: FinAbGroup, simple_factors: int) -> ExtensionReport:
    """The degree-2 homology extension 0 -> Z^s -> H_2 -> pi1 (x) pi1 -> 0.

    pi1 must be finite; the quotient is the tensor square, assembled through
    gcds of the divisor chains.  The report flags forced torsion whenever the
    quotient is non-cyclic (the projective-orthogonal phenomenon).
    """
    if simple_factors < 0:
        raise ValueError("the number of simple factors must be nonnegative")
    if not pi1.is_finite:
        raise ValueError("pi1 must be finite for a semisimple group")
    quotient = pi1.tensor(pi1)
    return ExtensionReport(
        kernel=FinAbGroup.free(simple_factors),
        quotient=quotient,
        simple_factors=simple_factors,
        has_forced_torsion=not quotient.is_cyclic,
        provenance="tensor-square quotient over a free kernel",
    )


def pi4_commutative_classifying(lie_type: LieType | str) -> tuple[FinAbGroup, FinAbGroup]:
    """pi_4 of the commutative total space and classifying space: (Z, Z + Z)."""
    build_root_datum(lie_type)
    return FinAbGroup.free(1), FinAbGroup.free(2)


def spin_pi2_stability(m: int) -> SpinStabilityReport:
    """Whether spin stabilization m -> m+1 is a pi_2 isomorphism (m >= 5).

    For m >= 6 the covering even-series composite has degree
    rep_degree * index_lower / index_upper, which must equal 1; m = 5 routes
    through the exceptional isomorphisms with the symplectic/unitary groups.
    """
    if m < 5:
        raise ValueError("stability statement starts at m = 5")
    if m == 5:
        return SpinStabilityReport(
            m=m,
            stable=True,
            route="exceptional isomorphisms (rank-2 symplectic and rank-3 unitary)",
            details=(
                ("dynkin_index_spin5", dynkin_index(build_root_datum("Spin(5)"))),
                ("dynkin_index_spin6", dynkin_index(build_root_datum("Spin(6)"))),
            ),
        )
    ell = (m + 2) // 2
    rep_degree = spin_stability_report(ell, "even", 2)["degree"]
    lower = dynkin_index(build_root_datum(f"Spin({2 * ell - 2})"))
    upper = dynkin_index(build_root_datum(f"Spin({2 * ell})"))
    if (rep_degree * lower) % upper:
        raise InvariantBreachError("composite degree arithmetic is not integral")
    composite = rep_degree * lower // upper
    return SpinStabilityReport(
        m=m,
        stable=composite == 1,
        route="even-series composite degree",
        details=(
            ("ell", ell),
            ("rep_degree", rep_degree),
            ("dynkin_index_lower", lower),
            ("dynkin_index_upper", upper),
            ("composite_hom_degree", composite),
        ),
    )
