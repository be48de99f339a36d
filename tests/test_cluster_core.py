"""Cluster parameters, point classification, interface detection, validation."""

from itertools import combinations

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
                               _exact_interface_point, cell_values, classify_many,
                               complete_graph, spherical_residuals, tie_subsphere,
                               trace_vertices, wall_interior)
from bubblelab.simplex import sphere_surface_measure
from reference import random_orthogonal, unit_directions


def hemisphere_params():
    c = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    return ClusterParams(2, c, np.zeros(2))


def _unpruned_interface_point(params, i, j, tie_tol):
    """_exact_interface_point without skipping any tie set: every subset of at
    most n other cells is tried, smallest first. Returns (point or None, the
    number of traces computed)."""
    c, k = params.quasi_centers, params.curvatures
    others = [m for m in range(params.q) if m not in (i, j)]
    traces = 0
    for size in range(min(params.n, len(others)) + 1):
        for cells in combinations(others, size):
            ties = [j, *cells]
            offs = k[ties] - k[i]
            offs[1:] -= 2.0 * tie_tol
            trace = tie_subsphere(c[ties] - c[i], offs)
            traces += 1
            if trace is None:
                continue
            p0, radius, frame = trace
            if frame.shape[1] > 1:
                slope = frame.T @ _LEVEL_FUNCTIONAL[: params.n + 1]
                frame = -(frame @ slope)[:, None] / np.linalg.norm(slope)
            pts = trace_vertices(p0, radius, frame)
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            hits = np.flatnonzero(wall_interior(params, i, j, pts, tie_tol))
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
        graph = detect_interfaces(hemispheres, samples_per_pair=512, rng_seed=0)
        assert graph.pairs() == [(0, 1)]

    def test_five_cell_cluster_has_exactly_seven_interfaces(self):
        params = gallery.five_cell_meeting_point()
        graph = detect_interfaces(params, samples_per_pair=4096, rng_seed=3)
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
        graph = detect_interfaces(params, rng_seed=0)
        assert graph.pairs() == [(0, 1), (0, 2), (1, 2)]
        assert "below the sampling resolution" in graph.diagnostics[(0, 1)]
        witness = graph.witnesses[(0, 1)]
        assert classify_point(params, witness).tolist() == [0, 1]
        assert abs(params.pair_center(0, 1) @ witness + params.pair_curvature(0, 1)) < 1e-12

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_exact_test_covers_sampled_interfaces(self, n, data):
        q = data.draw(st.integers(2, n + 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        c = data.draw(st.floats(0.05, 3.0)) * rng.standard_normal((q, n + 1))
        k = data.draw(st.floats(0.0, 2.0)) * rng.standard_normal(q)
        params = recentered(n, c, k)
        graph = detect_interfaces(params, rng_seed=0)
        for i in range(q):
            for j in range(i + 1, q):
                # a sampled interface is found by the exact test too, and the
                # pairs sampling missed were decided by it
                point = _exact_interface_point(params, i, j, DEFAULT_TIE_TOL)
                assert graph.nonempty[i, j] == (point is not None)
                if point is None:
                    continue
                assert abs(point @ point - 1.0) < 1e-12
                assert abs(params.pair_center(i, j) @ point + params.pair_curvature(i, j)) < 1e-12
                assert wall_interior(params, i, j, point[None, :], DEFAULT_TIE_TOL)[0]

    # seeds whose clusters have pairs where some tie set misses S^n
    @pytest.mark.parametrize("seed", [1001, 1003, 1013, 1017, 1020, 1024, 1025, 1029])
    def test_pruned_search_matches_unpruned_and_skips_supersets(self, seed, monkeypatch):
        params = _random_cluster(seed)
        diffs = {}
        calls = []

        def counted(rows, offs):
            # row 0 is the (i, j) tie; the other rows identify the cells of T
            cells = frozenset(diffs[row.tobytes()] for row in rows[1:])
            out = tie_subsphere(rows, offs)
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
                got = _exact_interface_point(params, i, j, DEFAULT_TIE_TOL)
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


def reference_chunk_sums(params, i, j, samples, seed, weight=None):
    """Per chunk of the (i, j) wall, (sum, sum of squares) of one weight times
    the reference interior mask."""
    frame = sampling.subsphere_frame(params.pair_center(i, j), params.pair_curvature(i, j))
    out = []
    for chunk, count in sampling.chunk_layout(samples):
        pts = sampling.subsphere_chunk(seed, i * params.q + j + 1, chunk, count, *frame)
        inside = reference_interior(params, i, j, pts)
        contrib = inside.astype(float) if weight is None else inside * weight(pts)
        out.append((contrib.sum(), (contrib ** 2).sum()))
    return out


def reference_fraction(params, i, j, samples, seed, weight=None):
    """(mean, stderr, wall measure) of one weight over Sigma_ij, from the
    reference chunk sums reduced pairwise in layout order, with no shortcut."""
    _, radius, _ = sampling.subsphere_frame(params.pair_center(i, j),
                                            params.pair_curvature(i, j))
    wall = sphere_surface_measure(params.n - 1) * radius ** (params.n - 1)
    chunk_sums = reference_chunk_sums(params, i, j, samples, seed, weight)
    sums = [np.array([s]) for s, _ in chunk_sums]
    sq_sums = [np.array([sq]) for _, sq in chunk_sums]
    mean = float(sampling.pairwise_sum(sums)[0]) / samples
    second = float(sampling.pairwise_sum(sq_sums)[0]) / samples
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


def chunk_sources(params, pair, seed):
    """One 2^18-point chunk on S^n and one on the wall sphere of the pair, if any."""
    n = params.n
    yield sampling.unit_chunk(seed, TEST_LABEL, 0, sampling.CHUNK, n + 1)
    frame = sampling.subsphere_frame(params.pair_center(*pair), params.pair_curvature(*pair))
    if frame is not None:
        yield sampling.subsphere_chunk(seed, TEST_LABEL + 1, 0, sampling.CHUNK, *frame)


class TestCellMajorKernels:
    @given(random_clusters(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_classify_many_matches_argmin(self, cluster, seed):
        params, pair = cluster
        for pts in chunk_sources(params, pair, seed):
            assert np.array_equal(cell_values(params, pts), params.affine_values(pts).T)
            labels = classify_many(params, pts)
            assert labels.dtype == np.intp
            assert np.array_equal(labels, reference_labels(params, pts))

    @given(random_clusters(duplicate=True), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_exact_ties_go_to_lower_index(self, cluster, seed):
        params, (a, b) = cluster
        for pts in chunk_sources(params, (a, b), seed):
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
        for pts in chunk_sources(params, pair, seed):
            for ii, jj in [(i, j), (j, i)] + third:
                mask = wall_interior(params, ii, jj, pts, tie_tol)
                assert mask.dtype == bool
                assert np.array_equal(mask, reference_interior(params, ii, jj, pts, tie_tol))

    @given(random_clusters(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_interface_fraction_matches_reference(self, cluster, seed):
        params, (i, j) = cluster
        frame = sampling.subsphere_frame(params.pair_center(i, j), params.pair_curvature(i, j))
        if frame is None:
            return
        samples = sampling.CHUNK + 1000
        one_pair = np.zeros((params.q, params.q), dtype=bool)
        one_pair[i, j] = one_pair[j, i] = True
        norm = sphere_surface_measure(params.n)
        xi = np.linspace(-0.3, 0.3, params.n + 1)
        for weight in (None, lambda pts: 1.0 - pts @ xi):
            chunk_sums = [measure._wall_chunk_sums(params, i, j, frame, seed, chunk, count,
                                                   [weight])
                          for chunk, count in sampling.chunk_layout(samples)]
            assert [sums[0] for sums in chunk_sums] == reference_chunk_sums(
                params, i, j, samples, seed, weight)
            mean, stderr, wall = reference_fraction(params, i, j, samples, seed, weight)
            assert measure._wall_moments(chunk_sums, samples) == [(mean, stderr)]
            (values, errs), = measure._pair_integrals(
                params, InterfaceGraph(params.q, one_pair), [weight], "mc", samples, seed)
            assert values == {(i, j): mean * wall / norm}
            assert errs == {(i, j): stderr * wall / norm}

    def test_subsphere_chunk_is_c_ordered_broadcast_formula(self):
        params = standard_of_curvature(4, 3, [0.3, 0.1, -0.4])
        center, radius, frame = sampling.subsphere_frame(params.pair_center(0, 2),
                                                         params.pair_curvature(0, 2))
        pts = sampling.subsphere_chunk(5, TEST_LABEL, 0, 1000, center, radius, frame)
        w = sampling.unit_chunk(5, TEST_LABEL, 0, 1000, frame.shape[1])
        assert pts.flags.c_contiguous
        assert np.array_equal(pts, center[None, :] + radius * (w @ frame.T))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_two_cell_area_shortcut_equals_sampled_value(self, n, sample_memo):
        params = standard_of_curvature(n, 2, [0.35, -0.35])
        samples = 2 * sampling.CHUNK + 17
        areas, errs = measure.interface_areas(params, complete_graph(2), "mc", samples, 11)
        assert not sample_memo  # no wall point was drawn
        mean, stderr, wall = reference_fraction(params, 0, 1, samples, 11)
        assert (mean, stderr) == (1.0, 0.0)
        norm = sphere_surface_measure(n)
        assert (areas[0, 1], errs[0, 1]) == (mean * wall / norm, stderr * wall / norm)

    def test_two_cell_wall_interior_is_everything(self):
        pts = sampling.unit_sphere(3, 100, 4, label=TEST_LABEL)
        assert wall_interior(equal_volume_standard(3, 2), 0, 1, pts).all()


class TestSampleMemo:
    def test_returned_directions_are_read_only(self, sample_memo):
        first = sampling.unit_sphere(0, 5, 3, label=9)
        original = first.copy()
        with pytest.raises(ValueError):
            first[0, 0] = 42.0
        again = sampling.unit_sphere(0, 5, 3, label=9)  # served from the memo
        assert not again.flags.writeable and np.array_equal(again, original)

    def test_draw_at_another_seed_releases_the_old_entries(self, sample_memo):
        for label in (1, 2):
            sampling.unit_chunk(0, label, 0, 64, 3)
        kept = sampling.unit_chunk(0, 1, 0, 64, 3)
        assert len(sample_memo) == 2 and np.shares_memory(kept, sample_memo[(0, 1, 0, 3)])
        sampling.unit_chunk(1, 1, 0, 64, 3)
        assert list(sample_memo) == [(1, 1, 0, 3)]
        again = sampling.unit_chunk(0, 1, 0, 64, 3)
        assert list(sample_memo) == [(0, 1, 0, 3)]
        assert again.tobytes() == kept.tobytes()

    def test_held_floats_never_exceed_the_budget(self, sample_memo, monkeypatch):
        count, dim = 64, 3
        monkeypatch.setattr(sampling, "UNIT_CACHE_BUDGET", 2 * count * dim + 5)
        draws = [sampling.unit_chunk(0, label, 0, count, dim) for label in (1, 2, 3)]
        assert list(sample_memo) == [(0, 1, 0, dim), (0, 2, 0, dim)]
        # not admitted, but drawn all the same, read-only, and drawn again on request
        assert not draws[2].flags.writeable
        assert draws[2].tobytes() == sampling.unit_chunk(0, 3, 0, count, dim).tobytes()
        # a longer draw releases the short entry and is admitted only if it fits
        sampling.unit_chunk(0, 1, 0, count + 10, dim)
        assert list(sample_memo) == [(0, 2, 0, dim)]
        sampling.unit_chunk(0, 1, 0, count + 1, dim)
        assert list(sample_memo) == [(0, 2, 0, dim), (0, 1, 0, dim)]
        assert sum(a.size for a in sample_memo.values()) <= sampling.UNIT_CACHE_BUDGET

    def test_longer_draw_replaces_and_shorter_gets_a_prefix_view(self, sample_memo):
        short = sampling.unit_chunk(0, 4, 0, 10, 3).copy()
        longer = sampling.unit_chunk(0, 4, 0, 50, 3)
        assert np.array_equal(longer[:10], short)
        assert sample_memo[(0, 4, 0, 3)].shape == (50, 3)
        prefix = sampling.unit_chunk(0, 4, 0, 20, 3)
        assert prefix.shape == (20, 3) and np.shares_memory(prefix, longer)
        assert prefix.tobytes() == unit_directions(0, 4, 0, 20, 3).tobytes()
