"""Numerical realization of the sphere generator and the commutative cocycle.

Unit quaternions (a, b, c, d) model the rank-1 group through the matrix
convention [[a+bi, c+di], [-c+di, a-bi]].  The generator beta lives on the
boundary of the prism P = {(s,t): s <= t in [0,1]^2} x [0,1]; its two
components commute everywhere and project to a degree +-1 map onto the
2-sphere of conjugacy classes.  The same data feeds a commutative cocycle on
the 4-sphere relative to the three-set closed cover
C1 = {x0 <= 0}, C2 = {x0 >= 0, x4 >= 0}, C3 = {x0 >= 0, x4 <= 0}.
Each transition map is a function of (x1, x2, x3) alone: rho_12 and rho_23
extend the two beta components over the unit 3-disk, and rho_13 is their
product, so the cocycle identity and the clutching symmetry hold by
construction.

This is the only module that works in floating point; beta_check and
cocycle_check re-check numerically what does not hold by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .homology import InvariantBreachError, require

SEAM_TOL = 1e-12
DEGREE_RESIDUE_TOL = 1e-3
CONJUGATION_TOL = 1e-9
# how far a point may sit off the prism boundary, the 4-sphere or a cover set
MEMBERSHIP_TOL = 1e-9

_PRISM_CENTROID = np.array([1.0 / 3.0, 2.0 / 3.0, 0.5])
# pole avoided by both beta components (their images keep c >= 0, d = 0)
_EXCLUDED_POLE = np.array([0.0, 0.0, -1.0, 0.0])


class MeshError(RuntimeError):
    """The sampling mesh is too coarse for a reliable degree."""


class CommutatorError(ValueError):
    """Input pair fails to commute within tolerance."""


# ---------------------------------------------------------------------------
# Quaternion arithmetic (vectorized over leading axes)
# ---------------------------------------------------------------------------


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of unit-quaternion arrays with shape (..., 4)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a1, b1, c1, d1 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    a2, b2, c2, d2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ],
        axis=-1,
    )


def qconj(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return p * np.array([1.0, -1.0, -1.0, -1.0])


def qidentity(shape=()) -> np.ndarray:
    out = np.zeros(shape + (4,))
    out[..., 0] = 1.0
    return out


def commutator_distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance of the group commutator [p, q] from the identity."""
    comm = qmul(qmul(p, q), qconj(qmul(q, p)))
    comm = comm - qidentity(comm.shape[:-1])
    return np.linalg.norm(comm, axis=-1)


# ---------------------------------------------------------------------------
# The torus loop, the null homotopy, and beta on the prism boundary
# ---------------------------------------------------------------------------


def gamma(s) -> np.ndarray:
    """The basic torus loop (cos 2*pi*s, sin 2*pi*s, 0, 0)."""
    s = np.asarray(s, dtype=float)
    return np.stack(
        [np.cos(2 * np.pi * s), np.sin(2 * np.pi * s), np.zeros_like(s), np.zeros_like(s)],
        axis=-1,
    )


def null_homotopy_h(s, u) -> np.ndarray:
    """Rotated-latitude null homotopy of gamma, basepoint preserving.

    The loop is slid along latitude circles of radius 1-u inside the d = 0
    subsphere and re-rotated so the basepoint stays at the identity:
    h(s, 0) = gamma(s), h(0, u) = h(1, u) = h(s, 1) = identity.
    """
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    s, u = np.broadcast_arrays(s, u)
    r = 1.0 - u
    z = np.sqrt(np.clip(1.0 - r * r, 0.0, None))
    cos = np.cos(2 * np.pi * s)
    sin = np.sin(2 * np.pi * s)
    return np.stack(
        [r * r * cos + z * z, r * sin, r * z * (1.0 - cos), np.zeros_like(s)],
        axis=-1,
    )


_BOTTOM, _TOP, _WALL_S0, _WALL_DIAG, _WALL_T1 = range(5)
# the (s, t, u) columns each facet's formula reads, as its (a, b) arguments
_FACET_COLUMNS = ((0, 1), (0, 1), (1, 2), (0, 2), (0, 2))


def classify_prism_facet(points: np.ndarray) -> np.ndarray:
    """Facet id for points on the prism boundary (seam points may get either)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    s, t, u = pts[:, 0], pts[:, 1], pts[:, 2]
    dists = np.stack([u, 1.0 - u, s, t - s, 1.0 - t], axis=-1)
    if np.any(dists.min(axis=1) > MEMBERSHIP_TOL):
        raise ValueError("point is not on the prism boundary")
    return np.argmin(dists, axis=1)


def _facet_formula(facet: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the facet-specific beta formula on parameter arrays."""
    if facet == _BOTTOM:
        return gamma(a), gamma(b)
    if facet == _TOP:
        return qidentity(a.shape), qidentity(a.shape)
    if facet == _WALL_S0:
        return qidentity(a.shape), null_homotopy_h(a, b)
    if facet == _WALL_DIAG:
        h = null_homotopy_h(a, b)
        return h, h
    return null_homotopy_h(a, b), qidentity(a.shape)


def beta(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The commuting-pair generator on the prism boundary.

    Bottom face: the torus square (gamma(s), gamma(t)); top face: constant
    identity pair; side walls over the three edges of the base triangle glue
    the null homotopy through the second-factor, diagonal, and first-factor
    inclusions.  The wall over {t = 0} in the triangle {s <= t} is a single
    point, so the third wall is the edge {t = 1}.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    facet = classify_prism_facet(pts)
    cols = pts.T
    first = np.empty((len(pts), 4))
    second = np.empty((len(pts), 4))
    for f, (a, b) in enumerate(_FACET_COLUMNS):
        mask = facet == f
        first[mask], second[mask] = _facet_formula(f, cols[a][mask], cols[b][mask])
    return first, second


# ---------------------------------------------------------------------------
# Projection of a commuting pair to the 2-sphere of conjugacy classes
# ---------------------------------------------------------------------------


def rep_project_su2(
    first: np.ndarray, second: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """Simultaneous diagonalization chart onto the unit 2-sphere.

    Extracts common-axis angles (phi, psi), normalizes phi into [0, pi] (the
    reflection acts by simultaneous negation), and applies the homogeneous
    chart [1 - phi/pi : (phi/pi) e^{i psi}] followed by the standard
    projective-line-to-sphere identification.  Near-central first entries fall
    back to the second entry's axis, which is the continuous extension.
    """
    p = np.atleast_2d(np.asarray(first, dtype=float))
    q = np.atleast_2d(np.asarray(second, dtype=float))
    bad = commutator_distance(p, q)
    if np.any(bad > tol):
        raise CommutatorError(f"pair fails to commute (max residual {bad.max():.3e})")
    vp, vq = p[:, 1:], q[:, 1:]
    np_ = np.linalg.norm(vp, axis=1)
    nq_ = np.linalg.norm(vq, axis=1)
    axis = np.where(
        (np_ > 1e-13)[:, None],
        vp / np.maximum(np_, 1e-300)[:, None],
        np.where(
            (nq_ > 1e-13)[:, None],
            vq / np.maximum(nq_, 1e-300)[:, None],
            np.array([1.0, 0.0, 0.0]),
        ),
    )
    sin_phi = np.sum(vp * axis, axis=1)
    sin_psi = np.sum(vq * axis, axis=1)
    flip = sin_phi < 0
    sin_phi = np.where(flip, -sin_phi, sin_phi)
    sin_psi = np.where(flip, -sin_psi, sin_psi)
    phi = np.arctan2(sin_phi, p[:, 0])
    a1 = phi / np.pi
    a0 = 1.0 - a1
    norm2 = a0 * a0 + a1 * a1 * (q[:, 0] ** 2 + sin_psi**2)
    x = 2.0 * a0 * a1 * q[:, 0] / norm2
    y = 2.0 * a0 * a1 * sin_psi / norm2
    z = (a0 * a0 - a1 * a1 * (q[:, 0] ** 2 + sin_psi**2)) / norm2
    return np.stack([x, y, z], axis=-1)


# ---------------------------------------------------------------------------
# Degree of a sphere-valued map on a triangulated prism boundary
# ---------------------------------------------------------------------------


def triangulate_prism_boundary(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Watertight outward-oriented triangulation of the prism boundary.

    All five facets share the 1/m parameter grid, so seam vertices coincide
    after deduplication and the mesh is closed.
    """
    if m < 2:
        raise ValueError("mesh parameter must be at least 2")
    w = m + 1

    def key(si, ti, ui):
        return (si * w + ti) * w + ui

    # bottom (u=0) and top (u=m) triangle grids over {s <= t}, cell (i, j)
    # j-major: the lower triangle for i < j, then the upper one
    j = np.repeat(np.arange(m), np.arange(1, m + 1))
    i = np.arange(j.size) - j * (j + 1) // 2
    s_idx = np.array([[i, i + 1, i + 1], [i, i + 1, i]]).transpose(2, 0, 1)
    t_idx = np.array([[j, j, j + 1], [j, j + 1, j + 1]]).transpose(2, 0, 1)
    keep = np.stack([i < j, np.ones_like(i, dtype=bool)], axis=-1)
    s_idx, t_idx = s_idx[keep], t_idx[keep]
    emitted = [key(s_idx, t_idx, ui) for ui in (0, m)]
    triangles = list(emitted)
    # side walls: s=0 over t, the diagonal s=t over s, and t=1 over s; per
    # square the corners are visited p00, p10, p01, p11
    a = np.repeat(np.arange(m), m)
    b = np.tile(np.arange(m), m)
    zero = np.zeros_like(a)
    for corner in (lambda x: (zero, x), lambda x: (x, x), lambda x: (x, zero + m)):
        p00, p10 = key(*corner(a), b), key(*corner(a + 1), b)
        p01, p11 = key(*corner(a), b + 1), key(*corner(a + 1), b + 1)
        emitted.append(np.stack([p00, p10, p01, p11], axis=1))
        triangles.append(np.stack([p00, p10, p11, p00, p11, p01], axis=1).reshape(-1, 3))
    # number vertices in the order they are first visited
    keys, first = np.unique(np.concatenate([e.ravel() for e in emitted]), return_index=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    tris = number[np.searchsorted(keys, np.concatenate(triangles))]
    seen = keys[order]
    pts = np.stack([seen // (w * w), seen // w % w, seen % w], axis=1) / m
    # orient every triangle outward (positive determinant against the centroid)
    p0 = pts[tris[:, 0]] - _PRISM_CENTROID
    e1 = pts[tris[:, 1]] - pts[tris[:, 0]]
    e2 = pts[tris[:, 2]] - pts[tris[:, 0]]
    det = np.einsum("ij,ij->i", p0, np.cross(e1, e2))
    flip = det < 0
    tris[flip, 1], tris[flip, 2] = tris[flip, 2].copy(), tris[flip, 1].copy()
    return pts, tris


def degree_to_s2(values: np.ndarray, triangles: np.ndarray) -> tuple[int, float]:
    """Degree of a sphere-valued map from summed signed solid angles.

    values holds the unit image vectors at the mesh vertices; triangles index
    an oriented closed surface.  Returns (degree, rounding residue) and raises
    MeshError when image triangles are too large or the residue exceeds the
    tolerance.
    """
    v = np.asarray(values, dtype=float)
    tris = np.asarray(triangles, dtype=np.int64)
    p0, p1, p2 = v[tris[:, 0]], v[tris[:, 1]], v[tris[:, 2]]
    chords = [
        np.linalg.norm(p1 - p0, axis=1),
        np.linalg.norm(p2 - p1, axis=1),
        np.linalg.norm(p0 - p2, axis=1),
    ]
    if max(float(c.max()) for c in chords) > math.sqrt(2.0) * 0.999:
        raise MeshError("image triangles subtend more than a quarter sphere; refine the mesh")
    numer = np.einsum("ij,ij->i", p0, np.cross(p1, p2))
    denom = (
        1.0
        + np.einsum("ij,ij->i", p0, p1)
        + np.einsum("ij,ij->i", p1, p2)
        + np.einsum("ij,ij->i", p2, p0)
    )
    omega = 2.0 * np.arctan2(numer, denom)
    total = float(omega.sum()) / (4.0 * np.pi)
    degree = round(total)
    residue = abs(total - degree)
    if residue > DEGREE_RESIDUE_TOL:
        raise MeshError(f"degree residue {residue:.3e} exceeds tolerance; refine the mesh")
    return degree, residue


# ---------------------------------------------------------------------------
# The commutative cocycle on the 4-sphere
# ---------------------------------------------------------------------------


def sphere2_to_prism(omega: np.ndarray) -> np.ndarray:
    """Radial projection of unit vectors onto the prism boundary."""
    w = np.atleast_2d(np.asarray(omega, dtype=float))
    # constraints g.x <= h for the prism: s >= 0, t <= 1, s <= t, u in [0, 1]
    gs = np.array(
        [
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0],
        ]
    )
    hs = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
    gw = w @ gs.T
    slack = hs - _PRISM_CENTROID @ gs.T
    with np.errstate(divide="ignore"):
        lam = np.where(gw > 1e-15, slack / gw, np.inf)
    step = lam.min(axis=1)
    return _PRISM_CENTROID + step[:, None] * w


def _rho(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transition maps (rho_12, rho_23) at points (x1, x2, x3) of the 3-disk.

    Both extend a beta component over the disk.  Its image avoids the pole
    (0,0,-1,0), so straight-line contraction toward the antipode followed by
    normalization is defined; the denominator stays above 1/sqrt(2).
    """
    pts = np.atleast_2d(np.asarray(xyz, dtype=float))
    rho = np.linalg.norm(pts, axis=1)
    omega = pts / np.maximum(rho, 1e-300)[:, None]
    pair = beta(sphere2_to_prism(omega))
    for mix in pair:
        # rho * base + (1 - rho) * (0, 0, 1, 0), in place
        mix *= rho[:, None]
        mix[:, 2] += 1.0 - rho
        norms = np.linalg.norm(mix, axis=1)
        require(float(norms.min()) > 0.1, "disk extension hit the excluded pole")
        mix /= norms[:, None]
    return pair


def cocycle_s4(x: np.ndarray, i: int, j: int) -> np.ndarray:
    """Transition function rho_{i,j} of the commutative cocycle at x.

    x must lie in the overlap C_i and C_j of the three-set closed cover; for
    i > j the inverse of rho_{j,i} is returned.
    """
    if i == j or not {i, j} <= {1, 2, 3}:
        raise ValueError("need distinct cover indices from {1, 2, 3}")
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > MEMBERSHIP_TOL):
        raise ValueError("points must lie on the unit 4-sphere")
    east = pts[:, 0] >= -MEMBERSHIP_TOL
    members = {
        1: pts[:, 0] <= MEMBERSHIP_TOL,
        2: east & (pts[:, 4] >= -MEMBERSHIP_TOL),
        3: east & (pts[:, 4] <= MEMBERSHIP_TOL),
    }
    if not (np.all(members[i]) and np.all(members[j])):
        raise ValueError(f"point outside the overlap C{i} and C{j}")
    r12, r23 = _rho(pts[:, 1:4])
    val = {(1, 2): r12, (2, 3): r23, (1, 3): qmul(r12, r23)}[min(i, j), max(i, j)]
    return qconj(val) if i > j else val


def clutching_function(x: np.ndarray) -> np.ndarray:
    """The clutching map rho_12 rho_23 on the equator {x0 = 0}.

    It reads (x1, x2, x3) only, so it is symmetric under x4 -> -x4 by
    construction.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    return qmul(*_rho(pts[:, 1:4]))


# ---------------------------------------------------------------------------
# Verification harnesses
# ---------------------------------------------------------------------------


def _project_generator(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """rep_project_su2 on pairs of beta, where a failure to commute is a breach."""
    try:
        return rep_project_su2(first, second)
    except CommutatorError as exc:
        raise InvariantBreachError(f"the generator's {exc}") from exc


def beta_check(grid: int = 100) -> dict:
    """Residuals for the generator: seams, commutativity, and degree.

    Returns a report with the maximal facet-seam mismatch, the maximal
    commutator distance over a boundary mesh of roughly 4*grid^2 points, and
    the projected degree at mesh sizes grid and 2*grid.
    """
    line = np.linspace(0.0, 1.0, grid + 1)
    zeros = np.zeros_like(line)
    ones = np.ones_like(line)
    seams = [
        # (facet A, params A), (facet B, params B): same geometric segment
        ((_BOTTOM, zeros, line), (_WALL_S0, line, zeros)),
        ((_BOTTOM, line, line), (_WALL_DIAG, line, zeros)),
        ((_BOTTOM, line, ones), (_WALL_T1, line, zeros)),
        ((_TOP, zeros, line), (_WALL_S0, line, ones)),
        ((_TOP, line, line), (_WALL_DIAG, line, ones)),
        ((_TOP, line, ones), (_WALL_T1, line, ones)),
        ((_WALL_S0, zeros, line), (_WALL_DIAG, zeros, line)),
        ((_WALL_S0, ones, line), (_WALL_T1, zeros, line)),
        ((_WALL_DIAG, ones, line), (_WALL_T1, ones, line)),
    ]
    seam_residual = 0.0
    for (fa, a1, a2), (fb, b1, b2) in seams:
        va = _facet_formula(fa, a1, a2)
        vb = _facet_formula(fb, b1, b2)
        for left, right in zip(va, vb):
            seam_residual = max(seam_residual, float(np.abs(left - right).max()))
    pts, tris = triangulate_prism_boundary(grid)
    first, second = beta(pts)
    commutator = float(commutator_distance(first, second).max())
    values = _project_generator(first, second)
    norm_residual = float(np.abs(np.linalg.norm(values, axis=1) - 1.0).max())
    degree, residue = degree_to_s2(values, tris)
    pts2, tris2 = triangulate_prism_boundary(2 * grid)
    degree2, residue2 = degree_to_s2(_project_generator(*beta(pts2)), tris2)
    return {
        "grid": grid,
        "samples": int(len(pts)),
        "seam_residual": seam_residual,
        "max_commutator": commutator,
        "projection_norm_residual": norm_residual,
        "degree": degree,
        "degree_residue": residue,
        "degree_refined": degree2,
        "degree_refined_residue": residue2,
    }


def beta_passed(report: dict) -> bool:
    """The one pass/fail gate on a beta_check report (CLI and acceptance suite)."""
    return (
        max(report["seam_residual"], report["max_commutator"]) < SEAM_TOL
        and report["degree"] in (1, -1)
        and report["degree_refined"] == report["degree"]
        and max(report["degree_residue"], report["degree_refined_residue"]) < DEGREE_RESIDUE_TOL
    )


def _fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic well-spread points on the unit 2-sphere."""
    k = np.arange(n, dtype=float) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + math.sqrt(5.0)) * k
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=-1
    )


def _spread_sample(omega: np.ndarray) -> np.ndarray:
    """At most 512 of the Fibonacci points, strided from pole to pole."""
    return omega[:: max(1, len(omega) // 512)][:512]


def cocycle_check(samples: int = 10_000) -> dict:
    """Residuals for the commutative cocycle on the 4-sphere.

    Checks pairwise commutativity on the triple overlap, agreement of rho_12
    and rho_23 with beta there, conjugation invariance of the projection, and
    the disk-extension denominators.  The cocycle identity and the clutching
    symmetry hold by construction (every transition map reads x1, x2, x3
    only); their residuals are reported as well.
    """
    omega = _fibonacci_sphere(samples)
    triple = np.zeros((samples, 5))
    triple[:, 1:4] = omega
    # one _rho pass for rho_12 and rho_23; rho_13 through the public path,
    # whose sphere and overlap checks cover the same points (x0 = x4 = 0)
    r12, r23 = _rho(omega)
    r13 = cocycle_s4(triple, 1, 3)
    cocycle_residual = float(np.abs(r13 - qmul(r12, r23)).max())
    commute = max(
        float(commutator_distance(r12, r23).max()),
        float(commutator_distance(r12, r13).max()),
        float(commutator_distance(r23, r13).max()),
    )
    first, second = beta(sphere2_to_prism(omega))
    agree = max(float(np.abs(r12 - first).max()), float(np.abs(r23 - second).max()))
    # clutching symmetry on the equator {x0 = 0}
    rng = np.random.default_rng(0)
    equator = rng.standard_normal((samples, 4))
    equator /= np.linalg.norm(equator, axis=1)[:, None]
    pts = np.zeros((samples, 5))
    pts[:, 1:] = equator
    mirrored = pts.copy()
    mirrored[:, 4] = -mirrored[:, 4]
    clutch_residual = float(np.abs(clutching_function(pts) - clutching_function(mirrored)).max())
    pairs_first, pairs_second = beta(sphere2_to_prism(_spread_sample(omega)))
    # denominators of the disk extensions stay away from zero
    min_denominator = math.inf
    for rho in np.linspace(0.0, 1.0, 41):
        for base in (pairs_first[::2], pairs_second[::2]):
            mix = rho * base + (1.0 - rho) * (-_EXCLUDED_POLE)
            min_denominator = min(min_denominator, float(np.linalg.norm(mix, axis=1).min()))
    # conjugation invariance of the projection chart
    conj = rng.standard_normal((len(pairs_first), 4))
    conj /= np.linalg.norm(conj, axis=1)[:, None]
    conj_first = qmul(qmul(conj, pairs_first), qconj(conj))
    conj_second = qmul(qmul(conj, pairs_second), qconj(conj))
    conj_residual = float(
        np.abs(
            _project_generator(pairs_first, pairs_second)
            - rep_project_su2(conj_first, conj_second, tol=1e-6)
        ).max()
    )
    return {
        "samples": samples,
        "cocycle_residual": cocycle_residual,
        "pairwise_commutator": commute,
        "overlap_agreement": agree,
        "clutching_residual": clutch_residual,
        "min_extension_denominator": min_denominator,
        "conjugation_residual": conj_residual,
    }


def cocycle_passed(report: dict) -> bool:
    """The one pass/fail gate on a cocycle_check report (CLI and acceptance suite)."""
    keys = ("cocycle_residual", "pairwise_commutator", "overlap_agreement", "clutching_residual")
    return (
        max(report[key] for key in keys) < SEAM_TOL
        and report["min_extension_denominator"] > 0.1
        and report["conjugation_residual"] < CONJUGATION_TOL
    )
