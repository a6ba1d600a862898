import hashlib
import json
import math

import numpy as np
import pytest

from liecomm import geom
from liecomm.geom import (
    CommutatorError,
    MeshError,
    beta,
    beta_check,
    classify_prism_facet,
    clutching_function,
    cocycle_check,
    cocycle_s4,
    commutator_distance,
    degree_to_s2,
    gamma,
    null_homotopy_h,
    qconj,
    qidentity,
    qmul,
    rep_project_su2,
    sphere2_to_prism,
    triangulate_prism_boundary,
)


# References: beta with one inline formula per facet, and the transition maps
# as one disk extension per component, rho_13 through a mirror and a
# retraction.  The library evaluates beta through one facet table and both
# components from one beta evaluation; the two must agree to the bit.


def _reference_beta(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    facet = classify_prism_facet(pts)
    s, t, u = pts[:, 0], pts[:, 1], pts[:, 2]
    first = np.empty((len(pts), 4))
    second = np.empty((len(pts), 4))
    mask = facet == 0  # bottom
    first[mask] = gamma(s[mask])
    second[mask] = gamma(t[mask])
    mask = facet == 1  # top
    first[mask] = qidentity((int(mask.sum()),))
    second[mask] = qidentity((int(mask.sum()),))
    mask = facet == 2  # wall s = 0
    first[mask] = qidentity((int(mask.sum()),))
    second[mask] = null_homotopy_h(t[mask], u[mask])
    mask = facet == 3  # wall s = t
    hval = null_homotopy_h(s[mask], u[mask])
    first[mask] = hval
    second[mask] = hval
    mask = facet == 4  # wall t = 1
    first[mask] = null_homotopy_h(s[mask], u[mask])
    second[mask] = qidentity((int(mask.sum()),))
    return first, second


def _reference_disk_extension(xyz, component):
    pts = np.atleast_2d(np.asarray(xyz, dtype=float))
    rho = np.linalg.norm(pts, axis=1)
    omega = pts / np.maximum(rho, 1e-300)[:, None]
    base = _reference_beta(sphere2_to_prism(omega))[component]
    target = -np.array([0.0, 0.0, -1.0, 0.0])
    mix = rho[:, None] * base + (1.0 - rho)[:, None] * target
    return mix / np.linalg.norm(mix, axis=1)[:, None]


def _reference_retract_to_c23(x):
    out = x.copy()
    out[:, 0] = np.sqrt(np.clip(1.0 - np.sum(x[:, 1:4] ** 2, axis=1), 0.0, None))
    out[:, 4] = 0.0
    return out


def _reference_rho12(x):
    return _reference_disk_extension(x[:, 1:4], 0)


def _reference_rho23(x):
    return _reference_disk_extension(x[:, 1:4], 1)


def _reference_rho13(x):
    mirrored = x.copy()
    mirrored[:, 4] = -mirrored[:, 4]
    return qmul(_reference_rho12(mirrored), _reference_rho23(_reference_retract_to_c23(mirrored)))


def _reference_clutching(x):
    out = np.empty((len(x), 4))
    upper = x[:, 4] >= 0
    sub = x[upper]
    out[upper] = qmul(_reference_rho12(sub), _reference_rho23(_reference_retract_to_c23(sub)))
    out[~upper] = _reference_rho13(x[~upper])
    return out


def _equator_points(n, seed):
    """Seeded points of the equator {x0 = 0} of the 4-sphere, x4 of both signs."""
    equator = np.random.default_rng(seed).standard_normal((n, 4))
    equator /= np.linalg.norm(equator, axis=1)[:, None]
    pts = np.zeros((n, 5))
    pts[:, 1:] = equator
    return pts


class TestAgainstReferences:
    def test_beta_bitwise(self):
        pts, _ = triangulate_prism_boundary(24)
        first, second = beta(pts)
        ref_first, ref_second = _reference_beta(pts)
        assert np.array_equal(first, ref_first) and np.array_equal(second, ref_second)
        # every facet is exercised
        assert set(classify_prism_facet(pts).tolist()) == set(range(5))

    def test_transition_maps_bitwise(self):
        x = _equator_points(200, 11)
        upper, lower = x[x[:, 4] >= 0], x[x[:, 4] <= 0]
        assert len(upper) > 50 and len(lower) > 50
        assert np.array_equal(cocycle_s4(upper, 1, 2), _reference_rho12(upper))
        assert np.array_equal(cocycle_s4(lower, 1, 3), _reference_rho13(lower))
        assert np.array_equal(clutching_function(x), _reference_clutching(x))
        # C2 and C3 meet in {x4 = 0, x0 >= 0}
        rolled = np.abs(np.roll(x, -1, axis=1))
        assert np.array_equal(cocycle_s4(rolled, 2, 3), _reference_rho23(rolled))
        assert np.array_equal(cocycle_s4(rolled, 3, 2), qconj(_reference_rho23(rolled)))

    def test_triple_overlap_bitwise(self):
        omega = geom._fibonacci_sphere(600)
        x = np.zeros((600, 5))
        x[:, 1:4] = omega
        assert np.array_equal(cocycle_s4(x, 1, 3), _reference_rho13(x))
        assert np.array_equal(clutching_function(x), _reference_clutching(x))


class TestColumnKernels:
    # the column-by-column kernels against the numpy reductions they replaced;
    # the arithmetic is the same, so the results must agree to the bit

    @pytest.mark.parametrize("width", [3, 4, 5])
    def test_row_norm(self, width):
        x = np.random.default_rng(width).standard_normal((5000, width))
        assert np.array_equal(geom._row_norm(x), np.linalg.norm(x, axis=1))
        assert np.array_equal(geom._row_dot(x, x[::-1]), np.sum(x * x[::-1], axis=1))

    def test_facet_ties_go_to_the_first_facet(self):
        # mesh vertices lie on seams, where two or three facets tie
        pts, _ = triangulate_prism_boundary(6)
        s, t, u = pts.T
        dists = np.stack([u, 1.0 - u, s, t - s, 1.0 - t], axis=-1)
        assert np.array_equal(classify_prism_facet(pts), np.argmin(dists, axis=1))

    def test_radial_projection(self):
        omega = geom._fibonacci_sphere(3000)
        gs = np.array([[-1, 0, 0], [0, 1, 0], [1, -1, 0], [0, 0, -1], [0, 0, 1]], dtype=float)
        centroid = np.array([1.0 / 3.0, 2.0 / 3.0, 0.5])
        gw = omega @ gs.T
        slack = np.array([0.0, 1.0, 0.0, 0.0, 1.0]) - centroid @ gs.T
        with np.errstate(divide="ignore"):
            lam = np.where(gw > 1e-15, slack / gw, np.inf)
        expected = centroid + lam.min(axis=1)[:, None] * omega
        assert np.array_equal(sphere2_to_prism(omega), expected)


def quaternion_matrix(p: np.ndarray) -> np.ndarray:
    """2x2 complex matrix of a quaternion in the fixed convention."""
    a, b, c, d = (float(x) for x in np.asarray(p, dtype=float))
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


class TestQuaternions:
    def test_matrix_convention_is_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p, q = rng.standard_normal(4), rng.standard_normal(4)
            p /= np.linalg.norm(p)
            q /= np.linalg.norm(q)
            lhs = quaternion_matrix(qmul(p, q))
            rhs = quaternion_matrix(p) @ quaternion_matrix(q)
            assert np.allclose(lhs, rhs)

    def test_conjugate_inverse(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        assert np.allclose(qmul(q, qconj(q)), [1, 0, 0, 0])


class TestGammaAndH:
    def test_gamma_values(self):
        assert np.allclose(gamma(0.0), [1, 0, 0, 0])
        assert np.allclose(gamma(0.5), [-1, 0, 0, 0])
        assert np.allclose(gamma(0.25), [0, 1, 0, 0])

    def test_h_boundary_conditions(self):
        ss = np.linspace(0, 1, 37)
        assert np.allclose(null_homotopy_h(ss, 0.0), gamma(ss), atol=1e-14)
        assert np.allclose(null_homotopy_h(0.37, 1.0), [1, 0, 0, 0], atol=1e-14)
        for u in np.linspace(0, 1, 11):
            assert np.allclose(null_homotopy_h(0.0, u), [1, 0, 0, 0], atol=1e-14)
            assert np.allclose(null_homotopy_h(1.0, u), [1, 0, 0, 0], atol=1e-14)

    def test_h_closed_form_value(self):
        val = null_homotopy_h(0.25, 0.5)
        assert np.allclose(val, [0.75, 0.5, math.sqrt(3) / 4, 0.0], atol=1e-14)
        assert abs(np.linalg.norm(val) - 1.0) < 1e-14

    def test_h_stays_in_d_zero_subsphere(self):
        ss, uu = np.meshgrid(np.linspace(0, 1, 30), np.linspace(0, 1, 30))
        vals = null_homotopy_h(ss.ravel(), uu.ravel())
        assert np.abs(vals[:, 3]).max() == 0.0
        assert np.abs(np.linalg.norm(vals, axis=1) - 1).max() < 1e-14
        assert vals[:, 2].min() >= 0.0  # the c >= 0 half-sphere


class TestBeta:
    def test_bottom_face(self):
        first, second = beta([[0.2, 0.7, 0.0]])
        assert np.allclose(first[0], gamma(0.2))
        assert np.allclose(second[0], gamma(0.7))

    def test_top_face(self):
        first, second = beta([[0.2, 0.7, 1.0]])
        assert np.allclose(first[0], [1, 0, 0, 0])
        assert np.allclose(second[0], [1, 0, 0, 0])

    def test_wall_s0(self):
        first, second = beta([[0.0, 0.4, 0.3]])
        assert np.allclose(first[0], [1, 0, 0, 0])
        assert np.allclose(second[0], null_homotopy_h(0.4, 0.3))

    def test_commutativity_everywhere(self):
        pts, _ = triangulate_prism_boundary(17)
        first, second = beta(pts)
        assert commutator_distance(first, second).max() < 1e-12

    def test_off_boundary_rejected(self):
        with pytest.raises(ValueError):
            beta([[0.2, 0.7, 0.5]])

    @pytest.mark.parametrize("point", [[0.0, math.inf, 0.5], [0.2, 0.7, math.nan]])
    def test_non_finite_rejected(self, point):
        # a NaN passes every distance comparison, and inf nearly lies on t = 1
        with pytest.raises(ValueError, match="point is not on the prism boundary"):
            beta([point])


class TestProjection:
    def test_identity_pair(self):
        out = rep_project_su2([[1, 0, 0, 0]], [[1, 0, 0, 0]])
        assert np.allclose(out[0], [0, 0, 1])

    def test_vertex_pair(self):
        out = rep_project_su2([[-1, 0, 0, 0]], [[1, 0, 0, 0]])
        assert np.allclose(out[0], [0, 0, -1])

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(5)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        p = np.concatenate([[math.cos(0.8)], math.sin(0.8) * axis])
        q = np.concatenate([[math.cos(1.7)], math.sin(1.7) * axis])
        g = rng.standard_normal(4)
        g /= np.linalg.norm(g)
        base = rep_project_su2([p], [q])
        moved = rep_project_su2([qmul(qmul(g, p), qconj(g))], [qmul(qmul(g, q), qconj(g))])
        assert np.abs(base - moved).max() < 1e-9

    def test_noncommuting_rejected(self):
        with pytest.raises(CommutatorError):
            rep_project_su2([[0, 1, 0, 0]], [[0, 0, 1, 0]])

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_non_finite_rejected(self, nan_first):
        pair = [[[math.nan, 0, 0, 0]], [[1, 0, 0, 0]]]
        with pytest.raises(CommutatorError):
            rep_project_su2(*(pair if nan_first else pair[::-1]))


class TestPrismMesh:
    # sha256 of pts.tobytes() + tris.tobytes(), recorded with the per-vertex
    # dict construction the vectorized one replaced
    PINS = {
        2: (18, 32, "1a913607850415fcedb88fadb49a338a2f5b6fe2f31b8b10556e387cb539f877"),
        3: (38, 72, "d25e15d1bdb2527c3df141b45ce5900823dd2d661107887ab30a18f439f82449"),
        100: (40002, 80000, "76e445279d5e6585cd5bb8744459b8e93b1486bff9b950e5b3623776da3556ff"),
        200: (160002, 320000, "aee1cf949633362eb65a11e24082a76f21fc727209e43fbba8bb7b56e4c80c5e"),
    }

    @pytest.mark.parametrize("m", sorted(PINS))
    def test_mesh_pinned(self, m):
        n_pts, n_tris, digest = self.PINS[m]
        pts, tris = triangulate_prism_boundary(m)
        assert pts.shape == (n_pts, 3) and pts.dtype == np.float64
        assert tris.shape == (n_tris, 3) and tris.dtype == np.int64
        assert hashlib.sha256(pts.tobytes() + tris.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("m", [2, 3, 17, 100])
    def test_stream_is_the_numbered_mesh(self, m):
        # the facet stream's triangle corners, in stream order, are the
        # numbered mesh's triangles
        pts, tris = triangulate_prism_boundary(m)
        corners = [
            points[block] / m for points, blocks in geom._prism_facets(m) for block in blocks
        ]
        assert np.array_equal(np.concatenate(corners), pts[tris])

    def test_mesh_is_closed(self):
        # every edge of a closed oriented surface is used once in each direction
        _, tris = triangulate_prism_boundary(5)
        edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        forward = {tuple(e) for e in edges.tolist()}
        assert len(forward) == len(edges)
        assert forward == {(b, a) for a, b in forward}


class TestDegree:
    def test_constant_map(self):
        pts, tris = triangulate_prism_boundary(8)
        values = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
        degree, residue = degree_to_s2(values, tris)
        assert degree == 0 and residue < 1e-12

    def test_radial_projection_has_degree_one(self):
        pts, tris = triangulate_prism_boundary(16)
        centered = pts - np.array([1 / 3, 2 / 3, 0.5])
        values = centered / np.linalg.norm(centered, axis=1)[:, None]
        degree, residue = degree_to_s2(values, tris)
        assert degree == 1 and residue < 1e-9

    def test_projected_generator(self):
        pts, tris = triangulate_prism_boundary(40)
        first, second = beta(pts)
        degree, residue = degree_to_s2(rep_project_su2(first, second), tris)
        assert degree in (1, -1)
        assert residue < 1e-3

    def test_coarse_mesh_rejected(self):
        pts, tris = triangulate_prism_boundary(2)
        first, second = beta(pts)
        with pytest.raises(MeshError):
            degree_to_s2(rep_project_su2(first, second), tris)


class TestCocycle:
    def test_triple_overlap_values(self):
        theta = np.linspace(0, 2 * np.pi, 50, endpoint=False)
        omega = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1)
        x = np.zeros((50, 5))
        x[:, 1:4] = omega
        first, second = beta(sphere2_to_prism(omega))
        assert np.allclose(cocycle_s4(x, 1, 2), first)
        assert np.allclose(cocycle_s4(x, 2, 3), second)
        r13 = cocycle_s4(x, 1, 3)
        assert np.abs(r13 - qmul(first, second)).max() < 1e-12

    def test_inverse_orientation(self):
        x = np.zeros((1, 5))
        x[0, 1] = 1.0
        forward = cocycle_s4(x, 1, 2)
        backward = cocycle_s4(x, 2, 1)
        assert np.allclose(qmul(forward, backward), [[1, 0, 0, 0]])

    def test_outside_overlap_rejected(self):
        x = np.zeros((1, 5))
        x[0, 0] = 1.0  # deep inside C2/C3 but not C1
        with pytest.raises(ValueError):
            cocycle_s4(x, 1, 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="points must lie on the unit 4-sphere"):
            cocycle_s4([[math.nan, 0, 0, 0, 1]], 1, 2)

    def test_centre_of_the_disk(self):
        # (0, 0, 0, 0, +-1) lie over the centre of the 3-disk, where the
        # extension of either component is (0, 0, 1, 0) whatever the base
        north, south = [[0.0, 0, 0, 0, 1]], [[0.0, 0, 0, 0, -1]]
        assert np.array_equal(cocycle_s4(north, 1, 2), [[0.0, 0, 1, 0]])
        assert np.array_equal(cocycle_s4(south, 1, 3), [[-1.0, 0, 0, 0]])
        assert np.array_equal(clutching_function(north + south), [[-1.0, 0, 0, 0]] * 2)

    def test_clutching_symmetry(self):
        rng = np.random.default_rng(3)
        equator = rng.standard_normal((200, 4))
        equator /= np.linalg.norm(equator, axis=1)[:, None]
        pts = np.zeros((200, 5))
        pts[:, 1:] = equator
        mirrored = pts.copy()
        mirrored[:, 4] = -mirrored[:, 4]
        assert np.abs(clutching_function(pts) - clutching_function(mirrored)).max() < 1e-12


class TestReports:
    def test_beta_report_small(self):
        report = beta_check(grid=24)
        assert report["seam_residual"] < 1e-12
        assert report["max_commutator"] < 1e-12
        assert report["degree"] in (1, -1)
        assert report["degree"] == report["degree_refined"]

    @pytest.mark.parametrize("samples", [600, 10_000, 200_000])
    def test_spot_checks_reach_every_facet(self, samples):
        # the conjugation check reads these points, the denominator check every other one
        chosen = geom._fibonacci_sphere(samples, geom._spread_indices(samples))
        assert len(chosen) == 512
        for points in (chosen, chosen[::2]):
            facets = classify_prism_facet(sphere2_to_prism(points))
            assert set(facets.tolist()) == set(range(5))

    def test_cocycle_report_small(self):
        report = cocycle_check(samples=600)
        assert report["cocycle_residual"] < 1e-12
        assert report["pairwise_commutator"] < 1e-12
        assert report["clutching_residual"] < 1e-12
        assert report["min_extension_denominator"] > 0.1
        assert report["conjugation_residual"] < 1e-9

    def test_indexed_fibonacci_points_are_the_same_points(self):
        # blocks and the spread sample evaluate the points at an index range
        full = geom._fibonacci_sphere(1000)
        for index in (np.arange(0, 7), np.arange(513, 1000), geom._spread_indices(1000)):
            assert np.array_equal(geom._fibonacci_sphere(1000, index), full[index])

    @pytest.mark.parametrize("samples", [0, -3])
    def test_cocycle_samples_validated(self, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            cocycle_check(samples)

    @pytest.mark.parametrize("grid", [1, 0, -3])
    def test_beta_grid_validated(self, grid):
        with pytest.raises(ValueError, match="grid must be at least 2"):
            beta_check(grid)


def _digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def default_reports():
    return cocycle_check(601), beta_check(24)


class TestBlocks:
    # sha256 of json.dumps(report, sort_keys=True), recorded with the
    # unblocked evaluation the blocked one replaced
    COCYCLE_601 = "9cd4f939aaa91c89796df2bb7cd35e13a04b761fb531fc4df3db0606c73dd796"
    BETA_24 = "6f582e4cfaffcb1b4ae2138759ca730a05abf6998684a4c1dc8e4d43aaca587c"
    # the benchmark's cocycle-check --samples 200000, 49 blocks, recorded with
    # four _rho passes per block, before rho_13 and the mirrored clutching
    # values were read off the one evaluation
    COCYCLE_200000 = "5403c0eafbf886b677b0c9e21b5b2b72d007457edb9a1d311d9d3510a59fb93f"

    def test_reports_pinned(self, default_reports):
        cocycle, beta_report = default_reports
        assert _digest(cocycle) == self.COCYCLE_601
        assert _digest(beta_report) == self.BETA_24

    def test_benchmark_cocycle_pinned(self):
        assert _digest(cocycle_check(200_000)) == self.COCYCLE_200000

    def test_single_evaluation_identities(self):
        # what cocycle_check reads off one evaluation, to the bit: rho_13 on
        # the triple overlap, and the clutching map at a point and its mirror
        omega = geom._fibonacci_sphere(600)
        x = np.zeros((600, 5))
        x[:, 1:4] = omega
        assert np.array_equal(cocycle_s4(x, 1, 3), qmul(*geom._rho(x[:, 1:4])))
        pts = _equator_points(600, 5)
        mirrored = pts.copy()
        mirrored[:, 4] = -mirrored[:, 4]
        assert np.array_equal(clutching_function(pts), clutching_function(mirrored))

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_reports_do_not_depend_on_block_size(self, default_reports, monkeypatch, block):
        cocycle, beta_report = default_reports
        if block == 1:
            # one row per block costs seconds per thousand mesh points, so the
            # block-1 beta report is the grid-8 one, against its default blocks
            beta_report = beta_check(8)
            assert beta_report["degree"] == -1
        monkeypatch.setattr(geom, "_BLOCK", block)
        assert (cocycle_check(601), beta_check(beta_report["grid"])) == (cocycle, beta_report)

    def test_degree_does_not_depend_on_block_size(self, monkeypatch):
        pts, tris = triangulate_prism_boundary(16)
        values = rep_project_su2(*beta(pts))
        expected = degree_to_s2(values, tris)
        monkeypatch.setattr(geom, "_BLOCK", 5)
        assert degree_to_s2(values, tris) == expected
        again_pts, again_tris = triangulate_prism_boundary(16)
        assert np.array_equal(again_pts, pts) and np.array_equal(again_tris, tris)

    def test_nan_in_one_block_survives(self, monkeypatch):
        # 601 samples in blocks of 64: a NaN in the third block's clutching
        # values must reach the report and fail the gate
        monkeypatch.setattr(geom, "_BLOCK", 64)
        real = geom.clutching_function
        calls = []

        def poisoned(x):
            out = real(x)
            calls.append(len(x))
            if len(calls) == 3:  # one call per block
                out[3, 1] = np.nan
            return out

        monkeypatch.setattr(geom, "clutching_function", poisoned)
        report = cocycle_check(601)
        assert len(calls) == 10
        assert math.isnan(report["clutching_residual"])
        assert all(
            math.isfinite(value) for key, value in report.items() if key != "clutching_residual"
        )
        assert not geom.cocycle_passed(report)


class TestGates:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("key", geom._COCYCLE_RESIDUALS)
    def test_cocycle_gate_fails_closed(self, default_reports, key, bad):
        report = default_reports[0]
        assert geom.cocycle_passed(report)
        assert not geom.cocycle_passed({**report, key: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("key", geom._BETA_RESIDUALS)
    def test_beta_gate_fails_closed(self, default_reports, key, bad):
        report = default_reports[1]
        assert geom.beta_passed(report)
        assert not geom.beta_passed({**report, key: bad})

    def test_every_float_is_gated(self, default_reports):
        cocycle, beta_report = default_reports
        floats = {key for key, value in cocycle.items() if isinstance(value, float)}
        assert floats == set(geom._COCYCLE_RESIDUALS)
        floats = {key for key, value in beta_report.items() if isinstance(value, float)}
        assert floats == set(geom._BETA_RESIDUALS)
