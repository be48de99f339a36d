"""Cluster parameters, point classification, interface detection, validation."""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import (ClusterParams, classify_point, detect_interfaces,
                       equal_volume_standard, load_cluster, perpendicular_pole,
                       recentered, save_cluster, standard_of_curvature,
                       validate_spherical)
from bubblelab import cluster, gallery, measure, sampling
from bubblelab.cluster import (DEFAULT_TIE_TOL, _LEVEL_FUNCTIONAL, InterfaceGraph,
                               cell_values, classify_many, complete_graph,
                               spherical_residuals, stratum_interior, stratum_points,
                               tie_subsphere, trace_vertices)
from bubblelab.simplex import sphere_surface_measure
from reference import (block_directions, masked_wall_sums, random_orthogonal, sampled_interfaces,
                       subsphere_sample, unit_directions, wall_points)


def hemisphere_params():
    c = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    return ClusterParams(2, c, np.zeros(2))


def _unpruned_interface_point(params, i, j, tie_tol):
    """stratum_points of the pair (i, j) without skipping any tie set: every
    subset of at most n other cells is tried, smallest first. Returns (the
    first point or None, the number of traces computed)."""
    c, k = params.quasi_centers, params.curvatures
    others = [m for m in range(params.q) if m not in (i, j)]
    traces = 0
    for size in range(min(params.n, len(others)) + 1):
        for cells in combinations(others, size):
            ties = [j, *cells]
            offs = k[ties] - k[i]
            offs[1:] -= 2.0 * tie_tol
            trace = tie_subsphere(c[ties] - c[i], offs, tie_tol)
            traces += 1
            if trace is None:
                continue
            p0, radius, frame = trace
            if frame.shape[1] > 1:
                slope = frame.T @ _LEVEL_FUNCTIONAL[: params.n + 1]
                frame = -(frame @ slope)[:, None] / np.linalg.norm(slope)
            pts = trace_vertices(p0, radius, frame)
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            hits = np.flatnonzero(stratum_interior(params, (i, j), pts, tie_tol))
            if hits.size:
                return pts[hits[0]], traces
    return None, traces


def _random_cluster(seed):
    """A random affine cluster, often with more cells than n + 2."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    q = int(rng.integers(2, n + 5))
    c = rng.uniform(0.05, 3.0) * rng.standard_normal((q, n + 1))
    return recentered(n, c, rng.uniform(0.0, 2.0) * rng.standard_normal(q))


class TestClassifyPoint:
    def test_equatorial_tie(self):
        params = hemisphere_params()
        assert classify_point(params, [0.0, 0.0, 1.0]).tolist() == [0, 1]

    def test_interior_point(self):
        params = hemisphere_params()
        assert classify_point(params, [-1.0, 0.0, 0.0]).tolist() == [0]

    def test_pole_of_equal_bubble_ties_all(self, equal_bubble_s2):
        # the pole is orthogonal to every quasi-center: all affine values vanish
        idx = classify_point(equal_bubble_s2, [0.0, 0.0, 1.0])
        assert idx.tolist() == [0, 1, 2]

    def test_non_unit_point_rejected(self):
        with pytest.raises(ValueError):
            classify_point(hemisphere_params(), [0.5, 0.0, 0.0])

    def test_ties_have_measure_zero(self, equal_bubble_s2):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((100_000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        values = equal_bubble_s2.affine_values(pts)
        ties = np.sum(np.sort(values, axis=1)[:, 1] - values.min(axis=1) <= 0.0)
        assert ties / 100_000 <= 1e-4

    @given(st.integers(0, 2 ** 31 - 1), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))
    @settings(max_examples=25, deadline=None)
    def test_recentring_invariance(self, seed, shift_scale, kappa_shift):
        rng = np.random.default_rng(seed)
        base = equal_volume_standard(3, 3)
        shift = shift_scale * rng.standard_normal(4)
        sloppy_c = base.quasi_centers + shift
        sloppy_k = base.curvatures + kappa_shift
        renorm = recentered(3, sloppy_c, sloppy_k)
        pts = rng.standard_normal((64, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.array_equal(classify_many(base, pts), classify_many(renorm, pts))


class TestDetectInterfaces:
    def test_equal_bubble_all_pairs(self, equal_bubble_graph):
        assert equal_bubble_graph.pairs() == [(0, 1), (0, 2), (1, 2)]

    def test_hemispheres(self, hemispheres):
        graph = detect_interfaces(hemispheres)
        assert graph.pairs() == [(0, 1)]

    def test_five_cell_cluster_has_exactly_seven_interfaces(self):
        params = gallery.five_cell_meeting_point()
        graph = detect_interfaces(params)
        assert graph.pairs() == [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 4), (3, 4)]

    def test_witnesses_lie_on_walls(self, skew_bubble_s2, skew_bubble_graph):
        for (i, j), w in skew_bubble_graph.witnesses.items():
            wall_value = (skew_bubble_s2.pair_center(i, j) @ w
                          + skew_bubble_s2.pair_curvature(i, j))
            assert abs(wall_value) < 1e-9
            members = classify_point(skew_bubble_s2, w, tie_tol=1e-9)
            assert {i, j}.issubset(members.tolist())

    def test_connected_on_positive_cells(self, equal_bubble_graph):
        assert len(equal_bubble_graph.pairs()) == 3  # every pair of the three cells

    def test_s4_interface_below_sampling_resolution(self):
        # cells 0 and 1 meet only where cell 2 rises above them, a cap of about
        # 6e-13 of their wall sphere with margin 1e-8 = 10 tie_tol
        c = np.zeros((3, 5))
        c[0, 0], c[1, 0], c[2, 1] = 0.5, -0.5, 1.0
        params = recentered(4, c, [0.0, 0.0, -1.0 + 1e-8])
        graph = detect_interfaces(params)
        assert graph.pairs() == [(0, 1), (0, 2), (1, 2)]
        assert (0, 1) not in sampled_interfaces(params, 4096, 0)
        witness = graph.witnesses[(0, 1)]
        assert classify_point(params, witness).tolist() == [0, 1]
        assert abs(params.pair_center(0, 1) @ witness + params.pair_curvature(0, 1)) < 1e-12
        assert stratum_interior(params, (0, 1), witness[None, :], DEFAULT_TIE_TOL)[0]

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_exact_test_covers_sampled_interfaces(self, n, data):
        q = data.draw(st.integers(2, n + 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        c = data.draw(st.floats(0.05, 3.0)) * rng.standard_normal((q, n + 1))
        k = data.draw(st.floats(0.0, 2.0)) * rng.standard_normal(q)
        params = recentered(n, c, k)
        graph = detect_interfaces(params)
        # a sampled interface is found by the exact test too
        for i, j in sampled_interfaces(params, 4096, 0):
            assert graph.nonempty[i, j]
        assert list(graph.witnesses) == graph.pairs()
        for (i, j), point in graph.witnesses.items():
            assert abs(point @ point - 1.0) < 1e-12
            assert abs(params.pair_center(i, j) @ point + params.pair_curvature(i, j)) < 1e-12
            assert stratum_interior(params, (i, j), point[None, :], DEFAULT_TIE_TOL)[0]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_embedded_cube_has_its_twelve_edges(self, n):
        # the six faces +-e_k of a cube: opposite faces tie only where all six
        # cells tie, and there no pair wins, so the pairs are the 12 edges
        c = np.zeros((6, n + 1))
        for k in range(3):
            c[k, k], c[k + 3, k] = -np.sqrt(0.5), np.sqrt(0.5)
        params = recentered(n, c, np.zeros(6))
        graph = detect_interfaces(params)
        assert graph.pairs() == [(i, j) for i, j in combinations(range(6), 2) if j - i != 3]
        assert validate_spherical(params, graph).passed

    def test_stratum_points_are_read_only(self):
        params = gallery.five_cell_meeting_point()
        for cells in [(0, 1), (3, 4), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3, 4)]:
            points = stratum_points(params, cells, DEFAULT_TIE_TOL)
            assert points.shape[1] == 3 and not points.flags.writeable
        assert not any(w.flags.writeable for w in detect_interfaces(params).witnesses.values())

    def test_draws_no_sample_and_reads_no_seed(self, draws):
        for params in (gallery.five_cell_meeting_point(), equal_volume_standard(4, 6)):
            first, second = (detect_interfaces(params, rng_seed=seed) for seed in (0, 91))
            assert draws == []
            assert np.array_equal(first.nonempty, second.nonempty)
            assert list(first.witnesses) == list(second.witnesses) == first.pairs()
            for pair, witness in first.witnesses.items():
                assert witness.tobytes() == second.witnesses[pair].tobytes()

    def test_wall_miss_test_agrees_with_subsphere_frame(self):
        rng = np.random.default_rng(31)
        walls = [(np.zeros(4), 0.0), (np.zeros(3), 0.5)]
        for _ in range(200):  # random walls, most of them cutting S^n
            c = rng.uniform(0.05, 3.0) * rng.standard_normal(rng.integers(3, 8))
            walls.append((c, rng.uniform(-2.0, 2.0) * float(np.linalg.norm(c))))
        for _ in range(50):  # near-tangent walls: |kappa| within a few ulps of |c|
            c = rng.standard_normal(rng.integers(3, 8))
            norm = float(np.sqrt(c @ c))
            for kappa in (norm, -norm, *np.nextafter(norm, [0.0, np.inf]),
                          norm * (1.0 - 1e-15), -norm * (1.0 + 1e-15)):
                walls.append((c, float(kappa)))
        misses = [sampling.wall_misses_sphere(c, kappa) for c, kappa in walls]
        assert misses == [sampling.subsphere_frame(c, kappa) is None for c, kappa in walls]
        assert 0 < sum(misses) < len(misses)

    # seeds whose clusters have pairs where some tie set misses S^n
    @pytest.mark.parametrize("seed", [1001, 1003, 1013, 1017, 1020, 1024, 1025, 1029])
    def test_pruned_search_matches_unpruned_and_skips_supersets(self, seed, monkeypatch):
        params = _random_cluster(seed)
        diffs = {}
        calls = []

        def counted(rows, offs, tol):
            # row 0 is the (i, j) tie; the other rows identify the cells of T
            cells = frozenset(diffs[row.tobytes()] for row in rows[1:])
            out = tie_subsphere(rows, offs, tol)
            calls.append((cells, out is None))
            return out

        monkeypatch.setattr(cluster, "tie_subsphere", counted)
        skipped = 0
        for i in range(params.q):
            rows = params.quasi_centers - params.quasi_centers[i]
            diffs = {row.tobytes(): m for m, row in enumerate(rows)}
            for j in range(i + 1, params.q):
                want, traces = _unpruned_interface_point(params, i, j, DEFAULT_TIE_TOL)
                calls.clear()
                got = stratum_points(params, (i, j), DEFAULT_TIE_TOL)
                got = got[0] if got is not None and len(got) else None
                assert (got is None) == (want is None)
                if got is not None:
                    assert np.array_equal(got, want)
                missed = [cells for cells, was_none in calls if was_none]
                for cells, _ in calls:
                    assert not any(miss < cells for miss in missed)
                skipped += traces - len(calls)
        assert skipped > 0


class TestValidateSpherical:
    def test_equal_bubbles_zero_residual(self):
        for n, q in ((2, 2), (2, 3), (3, 4), (5, 6)):
            params = equal_volume_standard(n, q)
            report = validate_spherical(params)
            assert report.passed
            assert report.max_residual < 1e-12

    def test_affine_cushion_fails_on_touching_pair(self):
        params = gallery.affine_cushion()
        report = validate_spherical(params)
        assert (0, 1) in report.violations
        assert abs(report.violations[(0, 1)] - 3.0) < 1e-12  # |c_01|^2 - 1 = 4 - 1
        assert abs(report.residuals[0, 2]) < 1e-12
        assert abs(report.residuals[1, 2]) < 1e-12

    def test_residual_rotation_invariance(self, skew_bubble_s2):
        rng = np.random.default_rng(5)
        rot = random_orthogonal(3, rng)
        rotated = ClusterParams(2, skew_bubble_s2.quasi_centers @ rot.T,
                                skew_bubble_s2.curvatures)
        assert np.max(np.abs(spherical_residuals(rotated)
                             - spherical_residuals(skew_bubble_s2))) < 1e-12


class TestPerpendicularPole:
    def test_equal_bubble_pole_is_axis(self, equal_bubble_s2):
        pole = perpendicular_pole(equal_bubble_s2)
        assert abs(abs(pole[2]) - 1.0) < 1e-12

    def test_full_dimensional_cluster_has_none(self):
        params = equal_volume_standard(2, 4)  # q - 1 = n + 1
        assert perpendicular_pole(params) is None

    def test_small_q_always_has_pole(self):
        for n, q in ((3, 3), (4, 5), (5, 4)):
            params = equal_volume_standard(n, q)
            pole = perpendicular_pole(params)
            assert pole is not None
            assert np.max(np.abs(params.quasi_centers @ pole)) < 1e-10


class TestIO:
    def test_round_trip(self, tmp_path, skew_bubble_s2):
        path = tmp_path / "cluster.json"
        save_cluster(skew_bubble_s2, path)
        loaded = load_cluster(path)
        assert loaded.n == skew_bubble_s2.n
        assert np.allclose(loaded.quasi_centers, skew_bubble_s2.quasi_centers,
                           atol=1e-15)
        assert np.allclose(loaded.curvatures, skew_bubble_s2.curvatures, atol=1e-15)

    def test_load_normalizes_with_warning(self, tmp_path):
        import json

        payload = {"n": 2, "q": 2,
                   "quasi_centers": [[0.6, 0.0, 0.0], [-0.4, 0.0, 0.0]],
                   "curvatures": [0.1, 0.1], "label": "off-center"}
        path = tmp_path / "off.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning):
            params = load_cluster(path)
        assert abs(params.quasi_centers.sum()) < 1e-12
        assert abs(params.curvatures.sum()) < 1e-12


class TestInvariants:
    def test_sum_conventions_enforced(self):
        with pytest.raises(ValueError):
            ClusterParams(2, np.array([[1.0, 0, 0], [0.5, 0, 0]]), np.zeros(2))
        with pytest.raises(ValueError):
            ClusterParams(2, np.array([[0.5, 0, 0], [-0.5, 0, 0]]),
                          np.array([0.2, 0.0]))


# ---------------------------------------------------------------------------
# Cell-major kernels against the axis-last reference formulas
# ---------------------------------------------------------------------------

TEST_LABEL = 0x7E570000


def reference_labels(params, pts):
    return np.argmin(params.affine_values(pts), axis=-1)


def reference_interior(params, i, j, pts, tie_tol=0.0):
    values = params.affine_values(pts)
    lead = np.minimum(values[:, i], values[:, j])
    others = np.delete(values, [i, j], axis=1)
    if not others.size:
        return np.ones(len(pts), dtype=bool)
    return others.min(axis=1) > lead + tie_tol


def reference_wall_blocks(params, i, j, samples, seed):
    """(points the wall pass weighs, reference interior mask of the points
    subsphere_sample places) of each sampling.row_blocks block of the (i, j)
    wall."""
    frame = sampling.subsphere_frame(params.pair_center(i, j), params.pair_curvature(i, j))
    pts = subsphere_sample(seed, measure._WALL_STREAM, samples, *frame)
    directions = unit_directions(seed, measure._WALL_STREAM, samples, params.n)
    for rows in sampling.row_blocks(samples):
        yield (wall_points(directions[rows], *frame),
               reference_interior(params, i, j, pts[rows]))


def reference_block_sums(params, i, j, samples, seed, weight=None):
    """Per block of the (i, j) wall, (sum, sum of squares) of one weight: its
    values over the hit rows of the reference interior mask, summed in block
    order."""
    out = []
    for pts, inside in reference_wall_blocks(params, i, j, samples, seed):
        contrib = (np.ones(np.count_nonzero(inside)) if weight is None
                   else np.compress(inside, weight(pts)))
        out.append((contrib.sum(), (contrib ** 2).sum()))
    return out


def direction_blocks(seed, label, count, dim):
    """The sampling.row_blocks blocks of unit_sphere's count directions."""
    directions = sampling.unit_sphere(seed, count, dim, label=label)
    return (directions[rows] for rows in sampling.row_blocks(count))


def kernel_mask(wall, blocks, count):
    """The wall kernel's mask of a wall (its _wall_map) over count directions,
    blocks of them, one sampling.row_blocks block at a time, with the hit
    counts it returns checked against the mask."""
    differences = np.empty((len(wall[0]), sampling.BLOCK + 1))
    low, mask = np.empty(sampling.BLOCK + 1), np.empty(count, dtype=bool)
    for rows, directions in zip(sampling.row_blocks(count), blocks):
        hits = measure._hit_mask(wall, directions.T.copy(), differences, low, mask[rows])
        assert hits == np.count_nonzero(mask[rows])
    return mask


def assert_wall_kernel_masks_match(params, seed, count=1 << 16):
    """The wall kernel's mask of each framed wall equals stratum_interior on the
    same directions placed by subsphere_sample, bit for bit."""
    for i, j in combinations(range(params.q), 2):
        frame = sampling.subsphere_frame(params.pair_center(i, j), params.pair_curvature(i, j))
        if frame is None:
            continue
        mask = kernel_mask(measure._wall_map(params, i, j, frame),
                           direction_blocks(seed, TEST_LABEL + 2, count, params.n), count)
        pts = subsphere_sample(seed, TEST_LABEL + 2, count, *frame)
        assert mask.tobytes() == stratum_interior(params, (i, j), pts).tobytes(), (i, j)


def reference_fraction(params, i, j, samples, seed, weight=None):
    """(mean, stderr, wall measure) of one weight over Sigma_ij, from the
    reference block sums reduced pairwise in block order, with no shortcut."""
    _, radius, _ = sampling.subsphere_frame(params.pair_center(i, j),
                                            params.pair_curvature(i, j))
    wall = sphere_surface_measure(params.n - 1) * radius ** (params.n - 1)
    block_sums = reference_block_sums(params, i, j, samples, seed, weight)
    mean = float(sampling.pairwise_sum([np.array([s]) for s, _ in block_sums])[0]) / samples
    second = float(sampling.pairwise_sum([np.array([sq]) for _, sq in block_sums])[0]) / samples
    return mean, np.sqrt(max(second - mean * mean, 0.0) / samples), wall


@st.composite
def random_clusters(draw, duplicate=False):
    """(params, (a, b)): a random affine cluster with n = 2..6, q = 2..n+2.

    With duplicate=True cell b > a gets exactly the parameters of cell a, so
    the two tie at every point.
    """
    n = draw(st.integers(2, 6))
    q = draw(st.integers(2, n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = draw(st.floats(0.05, 3.0)) * rng.standard_normal((q, n + 1))
    k = draw(st.floats(0.0, 2.0)) * rng.standard_normal(q)
    a, b = sorted(rng.choice(q, 2, replace=False).tolist())
    if duplicate:
        c[b], k[b] = c[a], k[a]
    return recentered(n, c, k), (a, b)


def sample_sources(params, pair, seed):
    """2^18 points on S^n and 2^18 on the wall sphere of the pair, if any."""
    n, count = params.n, 32 * sampling.BLOCK
    yield sampling.unit_sphere(seed, count, n + 1, label=TEST_LABEL)
    frame = sampling.subsphere_frame(params.pair_center(*pair), params.pair_curvature(*pair))
    if frame is not None:
        yield subsphere_sample(seed, TEST_LABEL + 1, count, *frame)


class TestCellMajorKernels:
    @given(random_clusters(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_classify_many_matches_argmin(self, cluster, seed):
        params, pair = cluster
        for pts in sample_sources(params, pair, seed):
            assert np.array_equal(cell_values(params, pts), params.affine_values(pts).T)
            labels = classify_many(params, pts)
            assert labels.dtype == np.intp
            assert np.array_equal(labels, reference_labels(params, pts))

    @given(random_clusters(duplicate=True), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_exact_ties_go_to_lower_index(self, cluster, seed):
        params, (a, b) = cluster
        for pts in sample_sources(params, (a, b), seed):
            values = cell_values(params, pts)
            assert np.array_equal(values[a], values[b])
            labels = classify_many(params, pts)
            assert not np.any(labels == b)
            assert np.array_equal(labels, reference_labels(params, pts))

    @given(st.one_of(random_clusters(), random_clusters(duplicate=True)),
           st.integers(0, 2 ** 31 - 1),
           st.sampled_from([0.0, 1e-9, 1e-3, 0.1]))
    @settings(max_examples=15, deadline=None)
    def test_wall_interior_matches_delete_min(self, cluster, seed, tie_tol):
        params, pair = cluster
        i, j = pair
        # with a duplicated cell, the pair of its twin and a third cell has an
        # "other" cell that ties exactly with the lead
        third = [(i, k) for k in range(params.q) if k not in pair][:1]
        for pts in sample_sources(params, pair, seed):
            for ii, jj in [(i, j), (j, i)] + third:
                mask = stratum_interior(params, (ii, jj), pts, tie_tol)
                assert mask.dtype == bool
                assert np.array_equal(mask, reference_interior(params, ii, jj, pts, tie_tol))

    @given(random_clusters(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_interface_fraction_matches_reference(self, cluster, seed):
        params, (i, j) = cluster
        frame = sampling.subsphere_frame(params.pair_center(i, j), params.pair_curvature(i, j))
        if frame is None:
            return
        samples = 32 * sampling.BLOCK + 1000
        one_pair = np.zeros((params.q, params.q), dtype=bool)
        one_pair[i, j] = one_pair[j, i] = True
        norm = sphere_surface_measure(params.n)
        xi = np.linspace(-0.3, 0.3, params.n + 1)
        for weight in (None, lambda pts: 1.0 - pts @ xi):
            wall = (i, j, measure._wall_map(params, i, j, frame), 1.0)
            [([block_sums], _, _)] = measure._wall_slots(
                [(params, [wall])], [weight], sampling.pass_blocks(samples), seed, False)
            assert [tuple(sums[0]) for sums in block_sums] == reference_block_sums(
                params, i, j, samples, seed, weight)
            # the masked sums over every point, misses as zeros, equal to rounding
            for ((total, squares),), (pts, inside) in zip(
                    block_sums, reference_wall_blocks(params, i, j, samples, seed)):
                (masked, masked_squares, scale), = masked_wall_sums(pts, inside, [weight])
                assert abs(total - masked) <= 1e-14 * scale
                assert abs(squares - masked_squares) <= 1e-14 * masked_squares
            mean, stderr, wall = reference_fraction(params, i, j, samples, seed, weight)
            assert measure._wall_moments(block_sums, samples) == [(mean, stderr)]
            ((values, errs),) = measure._pair_integrals(
                params, InterfaceGraph(params.q, one_pair), [weight], "mc", samples, seed)
            assert values == {(i, j): mean * wall / norm}
            assert errs == {(i, j): stderr * wall / norm}

    @given(random_clusters(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_wall_kernel_mask_matches_placed_points(self, cluster, seed):
        # Not drawn from random_clusters(duplicate=True): two identical cells
        # tie exactly at every point, so a wall one of them bounds has a mask
        # that follows rounding, and the kernel's tangent coordinates round
        # otherwise than placed points do.
        params, _ = cluster
        assert_wall_kernel_masks_match(params, seed)

    @given(random_clusters(duplicate=True), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_wall_kernel_mask_with_a_duplicated_cell(self, cluster, seed):
        # cells a and b are identical. A twin of i among the third cells of a
        # wall (i, j) has a zero difference row, so the wall reads empty. A
        # twin of j has the row of j, whose values are 0 up to rounding on the
        # whole wall: the mask is the one without that row, cut by rounding.
        # Every other wall keeps the bit-for-bit match with stratum_interior.
        params, (a, b) = cluster
        count, twin = 1 << 14, {a: b, b: a}

        def blocks():
            return direction_blocks(seed, TEST_LABEL + 5, count, params.n)

        for i, j in permutations(range(params.q), 2):
            frame = sampling.subsphere_frame(params.pair_center(i, j),
                                             params.pair_curvature(i, j))
            if frame is None:
                continue
            slope, offset, affine = wall = measure._wall_map(params, i, j, frame)
            mask = kernel_mask(wall, blocks(), count)
            if twin.get(i, j) != j:
                assert not mask.any(), (i, j)
            elif twin.get(j, i) != i:
                row = [k for k in range(params.q) if k not in (i, j)].index(twin[j])
                pair = [i, j]
                bound = 1e-13 * (1.0 + np.abs(params.quasi_centers[pair]).sum()
                                 + np.abs(params.curvatures[pair]).sum())
                assert np.abs(slope[row]).max() <= bound and abs(offset[row, 0]) <= bound
                free = kernel_mask((np.delete(slope, row, 0), np.delete(offset, row, 0), affine),
                                   blocks(), count)
                assert not np.any(mask & ~free), (i, j)
            else:
                pts = subsphere_sample(seed, TEST_LABEL + 5, count, *frame)
                assert mask.tobytes() == stratum_interior(params, (i, j), pts).tobytes(), (i, j)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_wall_kernel_mask_matches_placed_points_on_seeded_clusters(self, n):
        # every q from 3 to n + 2, with curvatures small enough that most
        # walls meet S^n
        for q in range(3, n + 3):
            rng = np.random.default_rng(100 * n + q)
            params = recentered(n, rng.standard_normal((q, n + 1)),
                                0.3 * rng.standard_normal(q))
            assert_wall_kernel_masks_match(params, q, 32 * sampling.BLOCK)

    @pytest.mark.parametrize("params", [
        gallery.five_cell_meeting_point(), gallery.affine_cushion(), gallery.cross_junction(2),
        gallery.cross_junction(3), gallery.band_stack(), gallery.band_stack(4, (-0.5, 0.1, 0.55)),
        gallery.sectored_cap(4, 0.8)], ids=["five-cell", "cushion", "cross-2", "cross-3",
                                            "bands", "bands-skew", "sectored-cap"])
    def test_wall_kernel_mask_matches_placed_points_on_gallery(self, params):
        assert_wall_kernel_masks_match(params, 7, 32 * sampling.BLOCK)

    def test_subsphere_sample_is_c_ordered_broadcast_formula(self):
        params = standard_of_curvature(4, 3, [0.3, 0.1, -0.4])
        center, radius, frame = sampling.subsphere_frame(params.pair_center(0, 2),
                                                         params.pair_curvature(0, 2))
        pts = subsphere_sample(5, TEST_LABEL, 1000, center, radius, frame)
        w = sampling.unit_sphere(5, 1000, frame.shape[1], label=TEST_LABEL)
        assert pts.flags.c_contiguous
        assert np.array_equal(pts, center[None, :] + radius * (w @ frame.T))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_two_cell_area_shortcut_equals_sampled_value(self, n, draws):
        params = standard_of_curvature(n, 2, [0.35, -0.35])
        samples = 64 * sampling.BLOCK + 17
        areas, errs = measure.interface_areas(params, complete_graph(2), "mc", samples, 11)
        assert draws == []  # no wall point was drawn
        mean, stderr, wall = reference_fraction(params, 0, 1, samples, 11)
        assert (mean, stderr) == (1.0, 0.0)
        norm = sphere_surface_measure(n)
        assert (areas[0, 1], errs[0, 1]) == (mean * wall / norm, stderr * wall / norm)

    def test_two_cell_wall_interior_is_everything(self):
        pts = sampling.unit_sphere(3, 100, 4, label=TEST_LABEL)
        assert stratum_interior(equal_volume_standard(3, 2), (0, 1), pts).all()


class TestUnitDraws:
    def test_returned_directions_are_read_only(self):
        first = sampling.unit_block(0, 9, 0, 5, 3)
        original = first.copy()
        with pytest.raises(ValueError):
            first[0, 0] = 42.0
        again = sampling.unit_block(0, 9, 0, 5, 3)  # drawn afresh
        assert not again.flags.writeable and np.array_equal(again, original)
        assert not np.shares_memory(again, first)
        assert not sampling.unit_sphere(0, 5, 3, label=9).flags.writeable

    def test_draw_at_another_seed_leaves_the_first_seed_unchanged(self):
        first = sampling.unit_block(0, 1, 0, 64, 3)
        other = sampling.unit_block(1, 1, 0, 64, 3)
        again = sampling.unit_block(0, 1, 0, 64, 3)
        assert again.tobytes() == first.tobytes()
        assert first.tobytes() == block_directions(0, 1, 0, 64, 3).tobytes()
        assert other.tobytes() == block_directions(1, 1, 0, 64, 3).tobytes()
        assert not np.array_equal(other, first)

    def test_shorter_draw_is_a_prefix_of_a_longer_one(self):
        # rows are drawn and normed one by one, across block edges too: a
        # block's key does not depend on the pass's length
        longer = sampling.unit_sphere(0, 16 * sampling.BLOCK + 1, 3, label=4)
        for count in (1, 10, 50, sampling.BLOCK + 2, 3 * sampling.BLOCK + 5):
            shorter = sampling.unit_sphere(0, count, 3, label=4)
            assert shorter.tobytes() == longer[:count].tobytes()
            assert not np.shares_memory(shorter, longer)
        block = sampling.unit_block(0, 4, 2, sampling.BLOCK + 1, 3)
        assert block[:50].tobytes() == sampling.unit_block(0, 4, 2, 50, 3).tobytes()

    def test_one_row_tail_is_drawn_by_the_block_before_it(self):
        # row_blocks joins a one-row tail to the block before it, so that
        # block draws one more row from its own key
        count = 3 * sampling.BLOCK + 1
        tail = sampling.unit_sphere(0, count, 3, label=4)[2 * sampling.BLOCK:]
        assert tail.tobytes() == sampling.unit_block(0, 4, 2, sampling.BLOCK + 1, 3).tobytes()
