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

The prism is one table, {g.(s, t, u) <= h} with a row of _FACET_NORMALS
and _FACET_OFFSETS per facet: facet classification, the radial projection,
the facet grids and their orientation read it, and the numbered mesh numbers
each point by its first listing.

Both checks evaluate in blocks of at most _BLOCK rows.  cocycle_check holds
no array longer than a block.  beta_check reads the prism mesh as a stream,
one facet at a time, with the triangles in blocks of about _BLOCK; it holds
one facet's grid points and images, and at full length only one solid angle
per triangle.  A row's value never depends on the other rows of
its block, residual maxima are carried across blocks without dropping a
NaN, and the degree is one sum over all the solid angles, so a report is the
same, to the bit, for every _BLOCK.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .homology import InvariantBreachError, require

SEAM_TOL = 1e-12
DEGREE_RESIDUE_TOL = 1e-3
CONJUGATION_TOL = 1e-9
# how far a point may sit off the prism boundary, the 4-sphere or a cover set
MEMBERSHIP_TOL = 1e-9
# how far a pair of beta may be from commuting before its projection is a breach
_COMMUTE_TOL = 1e-9
# rows evaluated at once by the checks: bounds their temporaries at a few MB
_BLOCK = 4_096

_PRISM_CENTROID = np.array([1.0 / 3.0, 2.0 / 3.0, 0.5])
# pole avoided by both beta components (their images keep c >= 0, d = 0)
_EXCLUDED_POLE = np.array([0.0, 0.0, -1.0, 0.0])


class MeshError(ValueError):
    """The sampling mesh is too coarse for a reliable degree."""


class CommutatorError(ValueError):
    """Input pair fails to commute within tolerance."""


def _blocks(n: int, size: int | None = None):
    """Row slices of at most size rows (default _BLOCK) that cover range(n) in order."""
    size = size or _BLOCK
    return (slice(lo, min(lo + size, n)) for lo in range(0, n, size))


def _cell_blocks(n: int):
    """_blocks over n mesh cells; a cell has up to two triangles, so half as many a block."""
    return _blocks(n, max(1, _BLOCK // 2))


def _worst(acc: float, block: np.ndarray) -> float:
    """The running maximum of a residual over blocks; one NaN makes it NaN."""
    return float(np.maximum(acc, block.max()))


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum of x * y over the short last axis, one column at a time.

    Columns are added left to right, which is how np.sum and np.linalg.norm
    round on rows of three to five entries, without an (N, k) product.
    """
    total = x[..., 0] * y[..., 0]
    for k in range(1, x.shape[-1]):
        total += x[..., k] * y[..., k]
    return total


def _row_norm(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1), column by column."""
    return np.sqrt(_row_dot(x, x))


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
    comm[..., 0] -= 1.0
    return _row_norm(comm)


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
# the prism {g.(s, t, u) <= h}, one row per facet in facet order: u >= 0,
# u <= 1, s >= 0, s <= t and t <= 1, with outward normals g and offsets h
_FACET_NORMALS = np.array([[0, 0, -1], [0, 0, 1], [-1, 0, 0], [1, -1, 0], [0, 1, 0]], dtype=float)
_FACET_OFFSETS = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
# the (s, t, u) columns each facet's formula reads, as its (a, b) arguments
_FACET_COLUMNS = ((0, 1), (0, 1), (1, 2), (0, 2), (0, 2))


def classify_prism_facet(points: np.ndarray) -> np.ndarray:
    """Facet id for points on the prism boundary (seam points may get either)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("point is not on the prism boundary")
    # distances h - g.p to the five facet planes, a row per facet; the first nearest wins
    dist = _FACET_OFFSETS[:, None] - _FACET_NORMALS @ pts.T
    if np.any(dist.min(axis=0) > MEMBERSHIP_TOL):
        raise ValueError("point is not on the prism boundary")
    return np.argmin(dist, axis=0)


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


def rep_project_su2(first: np.ndarray, second: np.ndarray) -> np.ndarray:
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
    if not np.all(bad <= _COMMUTE_TOL):
        raise CommutatorError(f"pair fails to commute (max residual {bad.max():.3e})")
    return _chart(p, q)


def _chart(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """rep_project_su2 on (N, 4) arrays of pairs already known to commute."""
    vp, vq = p[:, 1:], q[:, 1:]
    np_ = _row_norm(vp)
    nq_ = _row_norm(vq)
    axis = np.where(
        (np_ > 1e-13)[:, None],
        vp / np.maximum(np_, 1e-300)[:, None],
        np.where(
            (nq_ > 1e-13)[:, None],
            vq / np.maximum(nq_, 1e-300)[:, None],
            np.array([1.0, 0.0, 0.0]),
        ),
    )
    sin_phi = _row_dot(vp, axis)
    sin_psi = _row_dot(vq, axis)
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


def _square_facet(m: int):
    """A square facet's (a, b) grid points and its triangles, in closed form.

    The cells (i, j) run i-major; each visits its corners p00, p10, p01, p11
    and splits into p00, p10, p11 and p00, p11, p01.  Returns the points in
    the order the cells first visit them, and a generator of triangle blocks,
    about _BLOCK triangles each, whose rows index the points.
    """
    # first visits: rows a = 0 and 1 interleaved along b, then row by row
    a = np.repeat(np.arange(m + 1), m + 1)
    b = np.tile(np.arange(m + 1), m + 1)
    a[: 2 * m + 2] = np.tile([0, 1], m + 1)
    b[: 2 * m + 2] = np.repeat(np.arange(m + 1), 2)

    def index(a, b):
        return np.where(a < 2, 2 * b + a, a * (m + 1) + b)

    def triangles():
        for cells in _cell_blocks(m * m):
            i, j = np.divmod(np.arange(cells.start, cells.stop), m)
            p00, p10, p01, p11 = index(i, j), index(i + 1, j), index(i, j + 1), index(i + 1, j + 1)
            yield np.stack([p00, p10, p11, p00, p11, p01], axis=1).reshape(-1, 3)

    return np.stack([a, b], axis=1), triangles()


def _triangle_facet(m: int):
    """The triangle facet {a <= b}: its grid points and its triangles, in closed form.

    The cells (i, j), i <= j, run j-major; each is the lower triangle
    (i, j), (i+1, j), (i+1, j+1) when i < j, then the upper one (i, j),
    (i+1, j+1), (i, j+1).  Returned as _square_facet returns them.
    """

    def swap01(a, b):
        # a row b >= 1 is first visited at a = 1, then 0, 2, 3, ..., b
        return np.where((a < 2) & (b > 0), 1 - a, a)

    b = np.repeat(np.arange(m + 1), np.arange(1, m + 2))
    a = swap01(np.arange(b.size) - b * (b + 1) // 2, b)
    row = np.repeat(np.arange(m), np.arange(1, m + 1))

    def index(a, b):
        return b * (b + 1) // 2 + swap01(a, b)

    def triangles():
        for cells in _cell_blocks(len(row)):
            j = row[cells]
            i = np.arange(cells.start, cells.stop) - j * (j + 1) // 2
            lower = np.stack([index(i, j), index(i + 1, j), index(i + 1, j + 1)], axis=1)
            upper = np.stack([index(i, j), index(i + 1, j + 1), index(i, j + 1)], axis=1)
            keep = np.stack([i < j, np.ones_like(i, dtype=bool)], axis=1)
            yield np.stack([lower, upper], axis=1)[keep]

    return np.stack([a, b], axis=1), triangles()


def _prism_facets(m: int):
    """The outward-oriented triangulation of the prism boundary on the 1/m grid.

    Yields (points, triangle blocks) for each facet in facet order: the
    facet's grid points as integer (s, t, u) indices, so that a point's
    coordinates are points / m on every facet that holds it, and a generator
    of triangle blocks whose rows index those points.  A seam point is listed
    on each facet it lies on; nothing is numbered across facets.
    """
    for facet, (a, b) in enumerate(_FACET_COLUMNS):
        grid, blocks = (_triangle_facet if facet <= _TOP else _square_facet)(m)
        g, c = _FACET_NORMALS[facet], 3 - a - b
        points = np.zeros((len(grid), 3), dtype=np.int64)
        points[:, a], points[:, b] = grid[:, 0], grid[:, 1]
        # the fixed column solves g.p = m*h in integers; every g[c] is +-1
        points[:, c] = int(g[c]) * (m * int(_FACET_OFFSETS[facet]) - points @ g.astype(np.int64))
        # the grid's triangles turn about e_a x e_b, reversed where that points
        # inward; partial binds this facet's turn before the next facet's is read
        turn = [0, 2, 1] if np.cross(np.eye(3)[a], np.eye(3)[b]) @ g < 0 else [0, 1, 2]
        yield points, map(partial(np.take, indices=turn, axis=1), blocks)


def triangulate_prism_boundary(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Watertight outward-oriented triangulation of the prism boundary.

    The facets of _prism_facets, with each point numbered by its first
    listing, so seam vertices coincide and the mesh is closed.
    """
    if m < 2:
        raise ValueError("mesh parameter must be at least 2")
    facets = list(_prism_facets(m))
    listed = np.concatenate([points for points, _ in facets])
    keys = (listed[:, 0] * (m + 1) + listed[:, 1]) * (m + 1) + listed[:, 2]
    _, first, key_of = np.unique(keys, return_index=True, return_inverse=True)
    # the keys in order of first listing, and each listing's place in that order
    order = np.argsort(first)
    label = np.argsort(order)[key_of]
    starts = np.cumsum([0] + [len(points) for points, _ in facets])
    tris = [label[start + block] for start, (_, blocks) in zip(starts, facets) for block in blocks]
    return listed[first[order]] / m, np.concatenate(tris)


_QUARTER_SPHERE_CHORD = math.sqrt(2.0) * 0.999


def _solid_angles(values: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, bool]:
    """Signed solid angles of the image triangles values[triangles].

    Also returns whether an image triangle has an edge longer than
    _QUARTER_SPHERE_CHORD, which makes the mesh too coarse for a degree.
    """
    p0, p1, p2 = values[triangles[:, 0]], values[triangles[:, 1]], values[triangles[:, 2]]
    too_large = any(
        bool(np.any(_row_norm(head - tail) > _QUARTER_SPHERE_CHORD))
        for head, tail in ((p1, p0), (p2, p1), (p0, p2))
    )
    numer = np.einsum("ij,ij->i", p0, np.cross(p1, p2))
    denom = (
        1.0
        + np.einsum("ij,ij->i", p0, p1)
        + np.einsum("ij,ij->i", p1, p2)
        + np.einsum("ij,ij->i", p2, p0)
    )
    return 2.0 * np.arctan2(numer, denom), too_large


def degree_to_s2(values: np.ndarray, triangles: np.ndarray) -> tuple[int, float]:
    """Degree of a sphere-valued map from summed signed solid angles.

    values holds the unit image vectors at the mesh vertices; triangles index
    an oriented closed surface.  Returns (degree, rounding residue) and raises
    MeshError when image triangles are too large or the residue exceeds the
    tolerance.  The solid angles are computed block by block into one array
    and summed once, so the degree does not depend on the block size.
    """
    v = np.asarray(values, dtype=float)
    tris = np.asarray(triangles, dtype=np.int64)
    omega = np.empty(len(tris))
    too_large = False
    for rows in _blocks(len(tris)):
        omega[rows], coarse = _solid_angles(v, tris[rows])
        too_large |= coarse
    return _degree(omega, too_large)


def _degree(omega: np.ndarray, too_large: bool) -> tuple[int, float]:
    """The degree and rounding residue from all of a mesh's solid angles.

    omega is in mesh order, so it is summed as degree_to_s2 sums it;
    too_large says whether _solid_angles flagged any block.
    """
    if too_large:
        raise MeshError("image triangles subtend more than a quarter sphere; refine the mesh")
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
    # the step from the centroid along w to a facet that w points toward
    # (g.w > 0) is the slack h - g.centroid over g.w
    gw = _FACET_NORMALS @ w.T
    slack = (_FACET_OFFSETS - _FACET_NORMALS @ _PRISM_CENTROID)[:, None]
    step = np.divide(slack, gw, out=np.full_like(gw, np.inf), where=gw > 1e-15).min(axis=0)
    return _PRISM_CENTROID + step[:, None] * w


def _rho(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transition maps (rho_12, rho_23) at points (x1, x2, x3) of the 3-disk.

    Both extend a beta component over the disk.  Its image avoids the pole
    (0,0,-1,0), so straight-line contraction toward the antipode followed by
    normalization is defined; the denominator stays above 1/sqrt(2).
    """
    pts = np.atleast_2d(np.asarray(xyz, dtype=float))
    rho = _row_norm(pts)
    omega = pts / np.maximum(rho, 1e-300)[:, None]
    # at the centre the extension is (0, 0, 1, 0) whatever the base: any direction will do
    omega[rho < 1e-300] = (0.0, 0.0, 1.0)
    pair = beta(sphere2_to_prism(omega))
    for mix in pair:
        # rho * base + (1 - rho) * (0, 0, 1, 0), in place
        mix *= rho[:, None]
        mix[:, 2] += 1.0 - rho
        norms = _row_norm(mix)
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
    norms = _row_norm(pts)
    if not np.all(np.abs(norms - 1.0) <= MEMBERSHIP_TOL):
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


def _require_commuting(worst: float) -> None:
    """beta's components commute; a worst distance above tolerance (or NaN) is a breach."""
    detail = f"the generator's pair fails to commute (max residual {worst:.3e})"
    require(worst <= _COMMUTE_TOL, detail)


def _generator_degree(m: int) -> tuple[int, float, float, int, float]:
    """beta projected to the 2-sphere on the prism mesh of size m, and its degree.

    Returns (mesh points, max commutator, projection norm residual, degree,
    residue).  A pair of beta that fails to commute is a breach, reported
    with the worst distance over the whole mesh.  The mesh is read one facet
    at a time; a seam point gets the same bits on every facet, as its
    coordinates are the same doubles there, so the maxima and the solid
    angles are those of the numbered mesh of triangulate_prism_boundary.
    """
    omega = np.empty(8 * m * m)
    commutator = norm_residual = 0.0
    too_large = False
    done = 0
    for points, blocks in _prism_facets(m):
        images = np.empty((len(points), 3))
        for rows in _blocks(len(points)):
            first, second = beta(points[rows] / m)
            commutator = _worst(commutator, commutator_distance(first, second))
            if commutator <= _COMMUTE_TOL:
                images[rows] = _chart(first, second)
                norm_residual = _worst(norm_residual, np.abs(_row_norm(images[rows]) - 1.0))
        if commutator > _COMMUTE_TOL:
            continue  # raised below, once the worst distance over the mesh is known
        for tris in blocks:
            omega[done : done + len(tris)], coarse = _solid_angles(images, tris)
            too_large |= coarse
            done += len(tris)
    _require_commuting(commutator)
    degree, residue = _degree(omega, too_large)
    return 4 * m * m + 2, commutator, norm_residual, degree, residue


def beta_check(grid: int) -> dict:
    """Residuals for the generator: seams, commutativity, and degree.

    Returns a report with the maximal facet-seam mismatch, the maximal
    commutator distance over a boundary mesh of roughly 4*grid^2 points, and
    the projected degree at mesh sizes grid and 2*grid.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
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
            seam_residual = _worst(seam_residual, np.abs(left - right))
    samples, commutator, norm_residual, degree, residue = _generator_degree(grid)
    *_, degree2, residue2 = _generator_degree(2 * grid)
    return {
        "grid": grid,
        "samples": samples,
        "seam_residual": seam_residual,
        "max_commutator": commutator,
        "projection_norm_residual": norm_residual,
        "degree": degree,
        "degree_residue": residue,
        "degree_refined": degree2,
        "degree_refined_residue": residue2,
    }


_BETA_RESIDUALS = (
    "seam_residual",
    "max_commutator",
    "projection_norm_residual",
    "degree_residue",
    "degree_refined_residue",
)


def beta_passed(report: dict) -> bool:
    """The one pass/fail gate on a beta_check report (CLI and acceptance suite).

    A residual that is not finite fails it.
    """
    return (
        all(math.isfinite(report[key]) for key in _BETA_RESIDUALS)
        and max(report["seam_residual"], report["max_commutator"]) < SEAM_TOL
        and report["degree"] in (1, -1)
        and report["degree_refined"] == report["degree"]
        and max(report["degree_residue"], report["degree_refined_residue"]) < DEGREE_RESIDUE_TOL
    )


def _fibonacci_sphere(n: int, index: np.ndarray | None = None) -> np.ndarray:
    """Deterministic well-spread points on the unit 2-sphere.

    The n-point set, or its points at the given indices (the same values).
    """
    k = (np.arange(n) if index is None else index).astype(float) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + math.sqrt(5.0)) * k
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=-1
    )


def _spread_indices(n: int) -> np.ndarray:
    """At most 512 indices of the n Fibonacci points, strided from pole to pole."""
    return np.arange(0, n, max(1, n // 512))[:512]


def cocycle_check(samples: int) -> dict:
    """Residuals for the commutative cocycle on the 4-sphere.

    Checks pairwise commutativity on the triple overlap, agreement of rho_12
    and rho_23 with beta there, conjugation invariance of the projection, and
    the disk-extension denominators.  Each block of points costs one _rho
    pass on the triple overlap, which gives rho_12 and rho_23, and one
    evaluation of the clutching map on the equator.  The cocycle identity and
    the clutching symmetry hold by construction: rho_13 is the product
    rho_12 rho_23, and every transition map reads x1, x2, x3 only, so a point
    and its mirror under x4 -> -x4 share one evaluation.  Their residuals are
    each computed from that single evaluation, so they read exactly 0 and
    carry a non-finite value into the report.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    cocycle_residual = commute = agree = clutch_residual = 0.0
    # one stream, drawn block by block: the equator draws, then the conjugators
    rng = np.random.default_rng(0)
    for rows in _blocks(samples):
        omega = _fibonacci_sphere(samples, np.arange(rows.start, rows.stop))
        # the triple overlap is {x0 = x4 = 0}: one _rho pass gives rho_12 and
        # rho_23 there, and rho_13 = rho_12 rho_23 is cocycle_s4(., 1, 3)
        r12, r23 = _rho(omega)
        r13 = qmul(r12, r23)
        cocycle_residual = _worst(cocycle_residual, np.abs(r13 - r13))
        for p, q in ((r12, r23), (r12, r13), (r23, r13)):
            commute = _worst(commute, commutator_distance(p, q))
        first, second = beta(sphere2_to_prism(omega))
        agree = _worst(agree, np.abs(r12 - first))
        agree = _worst(agree, np.abs(r23 - second))
        # on the equator {x0 = 0}; the mirror x4 -> -x4 keeps (x1, x2, x3),
        # so one evaluation is the clutching map at a point and its mirror
        equator = rng.standard_normal((len(omega), 4))
        equator /= _row_norm(equator)[:, None]
        pts = np.zeros((len(omega), 5))
        pts[:, 1:] = equator
        clutch = clutching_function(pts)
        clutch_residual = _worst(clutch_residual, np.abs(clutch - clutch))
    spread = _fibonacci_sphere(samples, _spread_indices(samples))
    pairs_first, pairs_second = beta(sphere2_to_prism(spread))
    # denominators of the disk extensions stay away from zero
    min_denominator = math.inf
    for rho in np.linspace(0.0, 1.0, 41):
        for base in (pairs_first[::2], pairs_second[::2]):
            mix = rho * base + (1.0 - rho) * (-_EXCLUDED_POLE)
            min_denominator = float(np.minimum(min_denominator, _row_norm(mix).min()))
    # conjugation invariance of the projection chart; conjugates of commuting pairs commute
    _require_commuting(float(commutator_distance(pairs_first, pairs_second).max()))
    conj = rng.standard_normal((len(pairs_first), 4))
    conj /= _row_norm(conj)[:, None]
    conj_first = qmul(qmul(conj, pairs_first), qconj(conj))
    conj_second = qmul(qmul(conj, pairs_second), qconj(conj))
    conj_residual = float(
        np.abs(_chart(pairs_first, pairs_second) - _chart(conj_first, conj_second)).max()
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


_COCYCLE_RESIDUALS = (
    "cocycle_residual",
    "pairwise_commutator",
    "overlap_agreement",
    "clutching_residual",
    "min_extension_denominator",
    "conjugation_residual",
)


def cocycle_passed(report: dict) -> bool:
    """The one pass/fail gate on a cocycle_check report (CLI and acceptance suite).

    A residual that is not finite fails it.
    """
    keys = ("cocycle_residual", "pairwise_commutator", "overlap_agreement", "clutching_residual")
    return (
        all(math.isfinite(report[key]) for key in _COCYCLE_RESIDUALS)
        and max(report[key] for key in keys) < SEAM_TOL
        and report["min_extension_denominator"] > 0.1
        and report["conjugation_residual"] < CONJUGATION_TOL
    )
