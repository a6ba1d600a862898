"""Weighted projective spaces: homology, map degrees, and spin stability.

CP(w) is the quotient of the unit sphere in C^(r+1) by the circle acting with
positive integer weights w.  Its integral homology is Z in even degrees up to
twice the complex dimension; the projection from ordinary projective space
multiplies the degree-2k generator by an lcm of weight products over
(k+1)-subsets.  Degrees are reported as absolute values throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from typing import Sequence

import numpy as np

from .alcove import AlcoveGeometry, _alcove_wall_values
from .homology import FinAbGroup, exact_quotient

DEFAULT_ORBIT_TOL = 1e-9


@dataclass(frozen=True)
class WeightedProjectiveSpace:
    """Positive integer weight tuple defining CP(w)."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        ws = tuple(int(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if not ws or any(w < 1 for w in ws):
            raise ValueError("weights must be a nonempty tuple of positive integers")

    @property
    def complex_dim(self) -> int:
        return len(self.weights) - 1


@dataclass(frozen=True)
class WpsPoint:
    """Unit-norm homogeneous coordinates of a point of CP(w)."""

    weights: tuple[int, ...]
    coords: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.coords):
            raise ValueError("weights and coordinates must have equal length")
        norm = math.sqrt(sum(abs(z) ** 2 for z in self.coords))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"coordinates are not unit norm (norm={norm!r})")


def kawasaki_homology(weights: Sequence[int], k: int) -> FinAbGroup:
    """Integral homology of CP(w) in degree k: Z for even k <= 2*dim, else 0."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    wps = WeightedProjectiveSpace(tuple(weights))
    if k % 2 == 0 and k <= 2 * wps.complex_dim:
        return FinAbGroup.free(1)
    return FinAbGroup.trivial()


def proj_degree(weights: Sequence[int], k: int) -> int:
    """Degree on H_{2k} of the weight-power projection from projective space.

    lcm over (k+1)-subsets of (product of the subset / gcd of the subset).
    """
    ws = WeightedProjectiveSpace(tuple(weights)).weights
    if not 0 <= k <= len(ws) - 1:
        raise ValueError("k must lie between 0 and the complex dimension")
    vals = [prod(sub) // gcd(*sub) for sub in combinations(ws, k + 1)]
    return lcm(*vals)


def inclusion_degree(weights: Sequence[int], subset: Sequence[int], k: int) -> int:
    """Degree on H_{2k} of the coordinate-subspace inclusion CP(w_S) -> CP(w).

    The weight-power projections factor through the inclusion, so the degree
    is the quotient of the two projection degrees; the division is exact.
    """
    ws = WeightedProjectiveSpace(tuple(weights)).weights
    sub = tuple(sorted(set(int(i) for i in subset)))
    if not sub or not all(0 <= i < len(ws) for i in sub):
        raise ValueError("subset must name valid coordinate indices")
    if len(sub) < k + 1:
        raise ValueError("subset too small for homology degree 2k")
    w_s = tuple(ws[i] for i in sub)
    return exact_quotient(
        proj_degree(ws, k), proj_degree(w_s, k), "inclusion degree is not an integer"
    )


def composite_su2_degree(weights: Sequence[int], j: int) -> int:
    """Degree on H_2 of CP(1,1) -> CP(1,...,1) -> CP(w) through coordinate j.

    The first map includes coordinates {0, j}; the second is the weight-power
    projection.  The result equals lcm(w) for every j >= 1.
    """
    ws = WeightedProjectiveSpace(tuple(weights)).weights
    if not 1 <= j < len(ws):
        raise ValueError("j must name a non-affine coordinate")
    power_part = proj_degree((ws[0], ws[j]), 1)
    return power_part * inclusion_degree(ws, (0, j), 1)


# ---------------------------------------------------------------------------
# Spin stability degrees
# ---------------------------------------------------------------------------


def even_spin_weights(ell: int) -> tuple[int, ...]:
    """Coroot-integer tuple of the even spin group of rank ell (ell >= 3)."""
    if ell < 3:
        raise ValueError("need ell >= 3")
    return (1, 1) + (2,) * (ell - 3) + (1, 1)


def odd_spin_weights(ell: int) -> tuple[int, ...]:
    """Coroot-integer tuple of the odd spin group of rank ell (ell >= 2)."""
    if ell < 2:
        raise ValueError("need ell >= 2")
    return (1, 1) + (2,) * (ell - 2) + (1,)


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
    kk = k // 2
    if parity == "even":
        big, small = even_spin_weights(ell), even_spin_weights(ell - 1)
        shared = tuple(range(ell - 2))
    else:
        big, small = odd_spin_weights(ell), odd_spin_weights(ell - 1)
        shared = tuple(range(ell - 1))
    deg_big = inclusion_degree(big, shared, kk)
    deg_small = inclusion_degree(small, shared, kk)
    return {
        "degree": exact_quotient(deg_big, deg_small, "stability degree is not an integer"),
        "zero_groups": False,
        "route": "factorization through the shared coordinate subspace",
    }


# ---------------------------------------------------------------------------
# The explicit alcove-to-CP(w) coordinate map
# ---------------------------------------------------------------------------


def barycentric_coordinates(
    geometry: AlcoveGeometry, x: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Barycentric coordinates of an alcove point over (v_0, ..., v_r).

    The coordinate at node j is n_j * (a_j(x) - b_j), with n_0 = 1 and n_j the
    root integers: x's height over wall j in units of v_j's.
    """
    datum = geometry.datum
    vals = _alcove_wall_values(datum, x)
    return tuple(n * v for n, v in zip((1,) + datum.theta, vals))


def rep_to_wps(
    geometry: AlcoveGeometry, x: Sequence[Fraction], t: Sequence[complex]
) -> WpsPoint:
    """The coordinate chart (a_0, a_1 t_1, ..., a_r t_r)/norm into CP(n_vee).

    x is an alcove point in coroot coordinates, t the phases of the second
    torus coordinate along the simple-coroot circles.
    """
    datum = geometry.datum
    if len(t) != datum.rank:
        raise ValueError(f"expected {datum.rank} torus phases")
    phases = [complex(z) for z in t]
    for z in phases:
        if abs(abs(z) - 1.0) > 1e-9:
            raise ValueError("torus phases must have unit modulus")
    bary = barycentric_coordinates(geometry, x)
    coords = [complex(bary[0])] + [float(bary[j]) * phases[j - 1] for j in range(1, datum.rank + 1)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in coords))
    return WpsPoint(datum.coroot_integers, tuple(z / norm for z in coords))


def orbit_equal(
    weights: Sequence[int],
    p: WpsPoint | Sequence[complex],
    q: WpsPoint | Sequence[complex],
    tol: float = DEFAULT_ORBIT_TOL,
) -> bool:
    """Whether two unit coordinate vectors lie on one weighted-circle orbit.

    Solves lambda^w_i = q_i / p_i on a largest-modulus coordinate and tests
    all w_i-th roots; the candidate count is bounded by max(w).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    ws = WeightedProjectiveSpace(tuple(weights)).weights
    pc = np.asarray(p.coords if isinstance(p, WpsPoint) else p, dtype=complex)
    qc = np.asarray(q.coords if isinstance(q, WpsPoint) else q, dtype=complex)
    if pc.shape != (len(ws),) or qc.shape != (len(ws),):
        raise ValueError("points must match the weight tuple length")
    i = int(np.argmax(np.abs(pc)))
    if abs(pc[i]) < 1e-12:
        raise ValueError("all coordinates vanish; not a point of the sphere")
    if abs(abs(qc[i]) - abs(pc[i])) > tol:
        return False
    ratio = qc[i] / pc[i]
    ratio /= abs(ratio)
    w_i = ws[i]
    base = cmath.exp(1j * cmath.phase(ratio) / w_i)
    for k in range(w_i):
        lam = base * cmath.exp(2j * cmath.pi * k / w_i)
        acted = pc * np.array([lam**w for w in ws])
        if float(np.max(np.abs(acted - qc))) < tol:
            return True
    return False


def spin_stability_map(
    ell: int,
    a: Sequence[float],
    t: Sequence[complex],
    parity: str = "even",
) -> WpsPoint:
    """The explicit stabilization map on (alcove barycentrics, torus phases).

    Even case (rank ell-1 into rank ell of the even spin series): barycentric
    image (a_0, ..., a_{l-3}, 2*min(a_{l-2}, a_{l-1}), |diff|/2, |diff|/2) with
    the torus phases rotated by the branch matching min/max; odd case appends
    a zero coordinate and squares the last phase.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if ell < 4:
        raise ValueError("need ell >= 4")
    avals = [float(v) for v in a]
    if len(avals) != ell:
        raise ValueError(f"expected {ell} barycentric coordinates")
    if any(v < -1e-12 for v in avals) or abs(sum(avals) - 1.0) > 1e-9:
        raise ValueError("barycentric coordinates must be a probability vector")
    phases = [complex(z) for z in t]
    if len(phases) != ell - 1:
        raise ValueError(f"expected {ell - 1} torus phases")
    for z in phases:
        if abs(abs(z) - 1.0) > 1e-9:
            raise ValueError("torus phases must have unit modulus")
    if parity == "odd":
        bary = avals + [0.0]
        out_phases = phases[: ell - 2] + [phases[ell - 2] ** 2, phases[ell - 2]]
        weights = odd_spin_weights(ell)
    else:
        d, e = avals[ell - 2], avals[ell - 1]
        bary = avals[: ell - 2] + [2 * min(d, e), abs(e - d) / 2, abs(e - d) / 2]
        if d <= e:
            out_phases = phases[: ell - 3] + [
                phases[ell - 2] * phases[ell - 3],
                phases[ell - 2],
                phases[ell - 2],
            ]
        else:
            out_phases = phases[: ell - 3] + [
                phases[ell - 2] * phases[ell - 3],
                phases[ell - 3],
                phases[ell - 3],
            ]
        weights = even_spin_weights(ell)
    coords = [complex(bary[0])] + [bary[j] * out_phases[j - 1] for j in range(1, len(bary))]
    norm = math.sqrt(sum(abs(z) ** 2 for z in coords))
    return WpsPoint(weights, tuple(z / norm for z in coords))
