"""Monte Carlo and exact measures, weighted Laplacians, backend agreement."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import (build_graph, conformal_step, detect_interfaces, equal_volume_standard,
                       gram_invariance_check, gram_path, measure_exact_s2, measure_mc,
                       normal_moment_operator, perpendicular_pole, recentered,
                       standard_of_curvature, standard_of_volume, weighted_laplacian,
                       weighted_laplacians)
from bubblelab import gallery, measure, sampling, standard
from bubblelab.cluster import (ClusterParams, cell_values, classify_many, complete_graph,
                               least_cell)
from bubblelab.measure import (MeasureError, extract_arcs, interface_areas,
                               measure_cluster, resolve_backend)
from bubblelab.standard import MC_FD_STEP, NewtonConfig, model_profile
from bubblelab.simplex import restrict
from reference import (perimeter_totals, random_orthogonal, rotated, subsphere_chunk,
                       unit_directions)


class TestMeasureMC:
    def test_hemispheres(self, hemispheres):
        graph = detect_interfaces(hemispheres)
        rep = measure_mc(hemispheres, graph, samples=200_000, seed=1)
        assert np.max(np.abs(rep.volumes - 0.5)) < 4 * rep.volume_stderr.max()
        assert abs(rep.areas[0, 1] - 0.5) < 4 * max(rep.area_stderr[0, 1], 1e-12)

    def test_equal_bubble(self, equal_bubble_s2, equal_bubble_graph):
        rep = measure_mc(equal_bubble_s2, equal_bubble_graph, samples=300_000, seed=2)
        assert np.max(np.abs(rep.volumes - 1 / 3)) < 4 * rep.volume_stderr.max()
        assert abs(rep.total_perimeter - 0.75) < 4 * rep.perimeter_stderr

    def test_symmetry_any_dimension(self):
        params = equal_volume_standard(4, 5)
        rep = measure_mc(params, complete_graph(5), samples=200_000, seed=3)
        assert np.max(np.abs(rep.volumes - 0.2)) < 4 * rep.volume_stderr.max()

    def test_total_perimeter_consistency(self, skew_bubble_s2, skew_bubble_graph):
        rep = measure_mc(skew_bubble_s2, skew_bubble_graph, samples=100_000, seed=4)
        assert abs(rep.total_perimeter - np.sum(np.triu(rep.areas, 1))) < 1e-12

    def test_reproducible(self, skew_bubble_s2, skew_bubble_graph):
        a = measure_mc(skew_bubble_s2, skew_bubble_graph, samples=50_000, seed=9)
        b = measure_mc(skew_bubble_s2, skew_bubble_graph, samples=50_000, seed=9)
        assert np.array_equal(a.volumes, b.volumes)
        assert np.array_equal(a.areas, b.areas)

    def test_stderr_scaling(self, skew_bubble_s2, skew_bubble_graph):
        small = measure_mc(skew_bubble_s2, skew_bubble_graph, samples=50_000, seed=5)
        large = measure_mc(skew_bubble_s2, skew_bubble_graph, samples=200_000, seed=6)
        ratio = small.volume_stderr.max() / large.volume_stderr.max()
        assert abs(ratio - 2.0) < 0.4  # halves when samples quadruple

    def test_rejects_nonpositive_samples(self, hemispheres):
        with pytest.raises(ValueError):
            measure_mc(hemispheres, complete_graph(2), samples=0)


def _one_bubble():
    params = standard_of_curvature(3, 3, np.array([0.3, -0.1, -0.2]))
    return params, detect_interfaces(params)


# every public Monte Carlo entry point, called with a sample count
MONTE_CARLO_ENTRY_POINTS = {
    "measure_mc": lambda p, g, m: measure_mc(p, g, m, 1),
    "measure_mc_many": lambda p, g, m: measure.measure_mc_many([(p, g), (p, g)], m, 1),
    "measure_cluster": lambda p, g, m: measure_cluster(p, g, "mc", m, 1),
    "cell_volumes_mc": lambda p, g, m: measure.cell_volumes_mc(p, m, 1),
    "cell_volume_function": lambda p, g, m: measure.cell_volume_function(g, 3, "mc", m, 1)(p),
    "interface_areas": lambda p, g, m: interface_areas(p, g, "mc", m, 1),
    "weighted_laplacians": lambda p, g, m: weighted_laplacians(
        p, g, [None, lambda pts: pts[:, 0]], "mc", m, 1),
    "weighted_laplacian": lambda p, g, m: weighted_laplacian(p, g, None, "mc", m, 1),
    "normal_moment_operator": lambda p, g, m: normal_moment_operator(p, g, "mc", m, 1),
    "gram_invariance_check": lambda p, g, m: gram_invariance_check(p, g, 0.2, 1, m, 1),
    "NewtonConfig.tolerances": lambda p, g, m: NewtonConfig(mc_samples=m).tolerances(3),
    "standard_of_volume": lambda p, g, m: standard_of_volume(
        3, 3, [0.5, 0.3, 0.2], NewtonConfig(mc_samples=m)),
}


class TestSampleCount:
    """With one sample every Monte Carlo standard error is exactly 0, so every
    entry point asks for at least two."""

    @pytest.mark.parametrize("samples", [-3, 0, 1])
    @pytest.mark.parametrize("name", list(MONTE_CARLO_ENTRY_POINTS))
    def test_fewer_than_two_samples_are_rejected(self, name, samples):
        params, graph = _one_bubble()
        with pytest.raises(ValueError, match="^samples must be at least 2$"):
            MONTE_CARLO_ENTRY_POINTS[name](params, graph, samples)

    def test_two_samples_are_measured(self):
        params, graph = _one_bubble()
        report = measure_mc(params, graph, 2, 1)
        assert report.volumes.sum() == 1.0
        assert np.all(np.isfinite(report.area_stderr))


def fresh_shape_kappa(q: int) -> np.ndarray:
    """Sum-zero curvatures of norm 0.4, the size the mc_fresh benchmark draws."""
    v = np.array([0.5, -0.2, 0.1, 0.3, -0.7, 0.4])[:q]
    v = v - v.mean()
    return 0.4 * v / np.linalg.norm(v)


class TestPerimeterStderr:
    """Every wall is placed from one stream of directions, so the pair areas'
    errors are correlated, and perimeter_stderr is the error of the
    per-direction total T(k) = sum_ij |wall_ij| / |S^n| * hit_ij(k)."""

    @pytest.mark.parametrize("n, q", [(2, 4), (3, 5)])
    def test_is_the_spread_of_per_direction_totals(self, n, q):
        params = standard_of_curvature(n, q, fresh_shape_kappa(q))
        graph = detect_interfaces(params)
        samples, seed = sampling.CHUNK + 5000, 21
        rep = measure_mc(params, graph, samples, seed)
        totals = perimeter_totals(params, graph, samples, seed)
        assert len(graph.pairs()) >= q
        assert rep.perimeter_stderr == pytest.approx(totals.std() / math.sqrt(samples),
                                                     rel=1e-12, abs=0.0)
        assert rep.total_perimeter == pytest.approx(totals.mean(), rel=1e-12, abs=0.0)

    def test_gram_path_point(self, sectored_cap_cluster, sectored_cap_graph):
        # at t = 0.3 the pairs (0, 3) and (1, 3) have appeared
        moved = gram_path(sectored_cap_cluster, 0.3)
        clusters = [(sectored_cap_cluster, sectored_cap_graph), (moved, detect_interfaces(moved))]
        samples, seed = sampling.CHUNK + 5000, 22
        for (params, graph), rep in zip(clusters,
                                        measure.measure_mc_many(clusters, samples, seed)):
            totals = perimeter_totals(params, graph, samples, seed)
            assert rep.perimeter_stderr == pytest.approx(totals.std() / math.sqrt(samples),
                                                         rel=1e-12, abs=0.0)

    def test_spread_over_seeds_matches_the_reported_error(self):
        params = standard_of_curvature(3, 5, fresh_shape_kappa(5))
        graph = detect_interfaces(params)
        reports = [measure_mc(params, graph, 20_000, seed) for seed in range(300)]
        spread = np.std([rep.total_perimeter for rep in reports], ddof=1)
        reported = np.mean([rep.perimeter_stderr for rep in reports])
        assert abs(spread / reported - 1.0) <= 0.15
        # the quadrature of the pair errors, which treats them as independent,
        # overstates the spread
        quadrature = np.mean([math.sqrt(np.sum(np.triu(rep.area_stderr, 1) ** 2))
                              for rep in reports])
        assert quadrature > 1.15 * spread

    def test_zero_where_nothing_is_sampled(self, skew_bubble_s2, skew_bubble_graph,
                                           hemispheres, draws):
        assert measure_exact_s2(skew_bubble_s2, skew_bubble_graph).perimeter_stderr == 0.0
        rep = measure_mc(hemispheres, complete_graph(2), 10_000, 3)
        assert rep.perimeter_stderr == 0.0
        assert [args[1] for args in draws] == [measure._VOLUME_STREAM]  # no wall direction

    def test_does_not_depend_on_the_runner(self, monkeypatch, draws):
        # three calls at one address: each draws every volume and wall chunk
        # afresh, once, and all return the same bits
        params = standard_of_curvature(3, 4, fresh_shape_kappa(4))
        graph = detect_interfaces(params)
        samples = 2 * sampling.CHUNK + 5
        got = set()
        serial = lambda tasks: [task() for task in tasks]  # noqa: E731
        last_first = lambda tasks: [task() for task in tasks[::-1]][::-1]  # noqa: E731
        for runner in (sampling.run_tasks, serial, last_first):
            monkeypatch.setattr(sampling, "run_tasks", runner)
            draws.clear()
            rep = measure_mc(params, graph, samples, 7)
            assert sorted(args[1:3] for args in draws) == sorted(
                (label, chunk) for label in (measure._VOLUME_STREAM, measure._WALL_STREAM)
                for chunk, _ in sampling.chunk_layout(samples))
            got.add(b"".join(a.tobytes() for a in (rep.volumes, rep.areas, rep.volume_stderr,
                                                    rep.area_stderr,
                                                    np.array(rep.perimeter_stderr))))
        assert len(got) == 1


class TestMeasureExactS2:
    def test_hemispheres_exact(self, hemispheres):
        graph = detect_interfaces(hemispheres)
        rep = measure_exact_s2(hemispheres, graph)
        assert np.max(np.abs(rep.volumes - 0.5)) < 1e-14
        assert abs(rep.total_perimeter - 0.5) < 1e-14

    def test_equal_bubble_exact(self, equal_bubble_s2, equal_bubble_graph):
        rep = measure_exact_s2(equal_bubble_s2, equal_bubble_graph)
        assert np.max(np.abs(rep.volumes - 1 / 3)) < 1e-13
        for i, j in equal_bubble_graph.pairs():
            assert abs(rep.areas[i, j] - 0.25) < 1e-13

    def test_cap_cluster(self):
        params = standard_of_volume(2, 2, [0.25, 0.75])
        graph = detect_interfaces(params)
        rep = measure_exact_s2(params, graph)
        assert np.max(np.abs(rep.volumes - [0.25, 0.75])) < 1e-9
        assert abs(rep.total_perimeter - math.sqrt(3) / 4) < 1e-9

    def test_band_cluster_with_annulus_cells(self):
        # parallel circles: middle cells are annuli, so loop bookkeeping matters
        params = gallery.band_stack(2, (-0.4, 0.5))
        graph = detect_interfaces(params)
        rep = measure_exact_s2(params, graph)
        # cap heights: volumes ((1-0.4)/2-ish...) from cos t = wall position
        expected = np.array([(1 - 0.4) / 2 - 0.2 + 0.2, 0.0, 0.0])
        v0 = (1.0 - 0.4) / 2.0  # cap below x = -0.4: (1 - cos t)/2 with cos t = -(-0.4)
        v0 = (1.0 + (-0.4)) / 2.0
        v2 = (1.0 - 0.5) / 2.0
        v1 = 1.0 - v0 - v2
        assert np.max(np.abs(rep.volumes - [v0, v1, v2])) < 1e-12

    def test_five_cell_cluster_volumes_sum(self):
        params = gallery.five_cell_meeting_point()
        graph = detect_interfaces(params)
        rep = measure_exact_s2(params, graph)
        assert abs(rep.volumes.sum() - 1.0) < 1e-9
        assert np.all(rep.volumes > 0)

    def test_rejects_higher_dimensions(self):
        params = equal_volume_standard(3, 3)
        with pytest.raises(MeasureError):
            measure_exact_s2(params, complete_graph(3))

    def test_q4_full_dimensional(self):
        params = standard_of_curvature(2, 4, np.array([0.2, -0.1, 0.05, -0.15]))
        graph = detect_interfaces(params)
        assert len(graph.pairs()) == 6
        rep = measure_exact_s2(params, graph)
        assert abs(rep.volumes.sum() - 1.0) < 1e-9


def assert_exact_matches_mc(params, graph, samples, seed):
    """Exact volumes and areas within 5 sigma of Monte Carlo, its standard error
    floored at 1/samples."""
    exact = measure_exact_s2(params, graph)
    mc = measure_mc(params, graph, samples, seed)
    floor = 1.0 / samples
    assert np.all(np.abs(exact.volumes - mc.volumes) < 5.0 * np.maximum(mc.volume_stderr, floor))
    assert np.all(np.abs(exact.areas - mc.areas) < 5.0 * np.maximum(mc.area_stderr, floor))


class TestCrossBackend:
    def test_agreement_on_random_clusters(self):
        rng = np.random.default_rng(12)
        for trial in range(4):
            q = 3 if trial % 2 == 0 else 4
            kappa = 0.45 * rng.standard_normal(q)
            params = standard_of_curvature(2, q, kappa - kappa.mean())
            graph = detect_interfaces(params)
            exact = measure_exact_s2(params, graph)
            mc = measure_mc(params, graph, samples=200_000, seed=100 + trial)
            assert np.max(np.abs(mc.volumes - exact.volumes)
                          / np.maximum(mc.volume_stderr, 1e-9)) < 4.5
            for i, j in graph.pairs():
                assert (abs(mc.areas[i, j] - exact.areas[i, j])
                        < 4.5 * max(mc.area_stderr[i, j], 1e-9))

    @pytest.mark.parametrize("t", [0.0, 0.05, 0.5, 1.0])
    def test_stepped_band_stacks(self, t):
        # conformal images of an S^2 band stack: on each wall circle the third
        # cell lies wholly on the far side, g_k > 0 all round, which must not
        # read as "the third cell wins everywhere"
        base = gallery.band_stack(2, (-0.3, 0.4))
        params = conformal_step(base, perpendicular_pole(base), t)
        graph = detect_interfaces(params)
        assert graph.pairs() == [(0, 1), (1, 2)]
        assert_exact_matches_mc(params, graph, 400_000, seed=31)
        assert len(build_graph(params, graph).arcs) == 2

    def test_random_affine_clusters(self):
        # affine S^2 clusters drawn like mc_cases, nearly all of them not
        # compatible: their arcs' geodesic curvature is not kappa_ij, and a third
        # cell may miss a wall circle. The exact backend matches Monte Carlo on
        # every one of them.
        rng = np.random.default_rng(21)
        for k in range(12):
            q = int(rng.integers(3, 6))
            c = rng.uniform(0.05, 3.0) * rng.standard_normal((q, 3))
            params = recentered(2, c, rng.uniform(0.0, 2.0) * rng.standard_normal(q))
            graph = detect_interfaces(params)
            assert_exact_matches_mc(params, graph, 200_000, seed=k)

    def test_prism_with_a_disconnected_cell(self):
        # cell 0 is {|y|, |z| < 0.1}: two disks about +-e_x, which no single
        # boundary loop bounds
        c = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                      [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        params = recentered(2, c, np.array([0.0, 0.1, 0.1, 0.1, 0.1]))
        graph = detect_interfaces(params)
        assert_exact_matches_mc(params, graph, 1_000_000, seed=41)
        volumes = measure_exact_s2(params, graph).volumes
        assert np.ptp(volumes[1:]) < 1e-12

    @pytest.mark.parametrize("kappa, drops", [([0.3, 0.1, -0.4], 3),
                                              ([0.2, -0.1, 0.05, -0.15], 1)])
    def test_dropped_arc_raises(self, monkeypatch, kappa, drops):
        # an open boundary makes a cell's Stokes sum depend on the puncture
        params = standard_of_curvature(2, len(kappa), np.array(kappa))
        graph = detect_interfaces(params)
        arcs = extract_arcs(params, graph)
        assert not any(arc.closed for arc in arcs)
        for dropped in range(drops):
            kept = arcs[:dropped] + arcs[dropped + 1:]
            monkeypatch.setattr(measure, "extract_arcs", lambda params, graph: kept)
            with pytest.raises(MeasureError):
                measure_exact_s2(params, graph)

    def test_orthogonal_invariance_exact(self, skew_bubble_s2):
        turned = rotated(skew_bubble_s2, random_orthogonal(3, np.random.default_rng(8)))
        g1 = detect_interfaces(skew_bubble_s2)
        g2 = detect_interfaces(turned)
        r1 = measure_exact_s2(skew_bubble_s2, g1)
        r2 = measure_exact_s2(turned, g2)
        assert np.max(np.abs(r1.volumes - r2.volumes)) < 1e-10
        assert np.max(np.abs(r1.areas - r2.areas)) < 1e-10


class TestWeightedLaplacian:
    def test_unit_weight_equal_bubble(self, equal_bubble_s2, equal_bubble_graph):
        lap = weighted_laplacian(equal_bubble_s2, equal_bubble_graph,
                                 lambda pts: np.ones(len(pts)), backend="exact")
        expected = 0.25 * (3.0 * np.eye(3) - np.ones((3, 3)))
        assert np.max(np.abs(lap.matrix - expected)) < 1e-12
        on_e = restrict(lap.matrix)
        assert np.max(np.abs(on_e - 0.75 * np.eye(2))) < 1e-12

    def test_meridian_second_moment(self, equal_bubble_s2, equal_bubble_graph):
        pole = np.array([0.0, 0.0, 1.0])
        lap = weighted_laplacian(equal_bubble_s2, equal_bubble_graph,
                                 lambda pts: (pts @ pole) ** 2, backend="exact")
        # per meridian: (1/4pi) integral_0^pi cos^2 = 1/8
        expected = (1.0 / 8.0) * (3.0 * np.eye(3) - np.ones((3, 3)))
        assert np.max(np.abs(lap.matrix - expected)) < 1e-12

    def test_odd_weight_vanishes_on_perpendicular(self, skew_bubble_s2,
                                                  skew_bubble_graph):
        pole = np.array([0.0, 0.0, 1.0])
        lap = weighted_laplacian(skew_bubble_s2, skew_bubble_graph,
                                 lambda pts: pts @ pole, backend="exact")
        assert np.max(np.abs(lap.matrix)) < 1e-12

    def test_annihilates_constants(self, skew_bubble_s2, skew_bubble_graph):
        lap = weighted_laplacian(skew_bubble_s2, skew_bubble_graph,
                                 lambda pts: 1.0 + pts[:, 0] ** 2, backend="exact")
        assert np.max(np.abs(lap.matrix @ np.ones(3))) < 1e-15

    def test_mc_matches_exact(self, skew_bubble_s2, skew_bubble_graph):
        weight = lambda pts: 1.0 - 0.3 * pts[:, 2] ** 2
        exact = weighted_laplacian(skew_bubble_s2, skew_bubble_graph, weight,
                                   backend="exact")
        mc = weighted_laplacian(skew_bubble_s2, skew_bubble_graph, weight,
                                backend="mc", samples=200_000, seed=13)
        for i, j in skew_bubble_graph.pairs():
            assert (abs(mc.matrix[i, j] - exact.matrix[i, j])
                    < 4.5 * max(mc.entry_stderr[i, j], 1e-9))


def weight_pool(xi):
    """Pointwise weights of the kinds the operators integrate; None is the constant 1."""
    return [None,
            lambda pts: np.ones(len(pts)),
            lambda pts: pts[:, 0],
            lambda pts: 1.0 - pts @ xi,
            lambda pts: (pts @ xi) ** 2]


def assert_same_bits(multi, singles):
    assert len(multi) == len(singles)
    for got, want in zip(multi, singles):
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.entry_stderr.tobytes() == want.entry_stderr.tobytes()


def singles_of(params, graph, weights, **kwargs):
    return [weighted_laplacian(params, graph, w, **kwargs) for w in weights]


@st.composite
def mc_cases(draw):
    """(params, weights, samples): a random affine cluster with n = 2..5,
    q = 2..n+2, and one to four weights, any of which may be None."""
    n = draw(st.integers(2, 5))
    q = draw(st.integers(2, n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = draw(st.floats(0.05, 3.0)) * rng.standard_normal((q, n + 1))
    k = draw(st.floats(0.0, 2.0)) * rng.standard_normal(q)
    pool = weight_pool(0.4 * rng.standard_normal(n + 1))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))
    samples = draw(st.sampled_from([999, sampling.CHUNK + 999]))
    return recentered(n, c, k), [pool[p] for p in picks], samples


class TestWeightedLaplacians:
    """The one-pass integrator against one weighted_laplacian call per weight."""

    @given(mc_cases(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_mc_matches_single_calls(self, case, seed):
        params, weights, samples = case
        graph = complete_graph(params.q)
        multi = weighted_laplacians(params, graph, weights, backend="mc",
                                    samples=samples, seed=seed)
        assert_same_bits(multi, singles_of(params, graph, weights,
                                           backend="mc", samples=samples, seed=seed))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("picks", [[0], [0, 0], [0, 3], [2, 0, 4]])
    def test_two_cells_with_and_without_constant_weights(self, n, picks):
        # all-None lists take the q = 2 shortcut; mixed lists sample every point
        params = standard_of_curvature(n, 2, np.array([0.3, -0.3]))
        graph = complete_graph(2)
        weights = [weight_pool(np.linspace(-0.3, 0.3, n + 1))[p] for p in picks]
        multi = weighted_laplacians(params, graph, weights, backend="mc",
                                    samples=sampling.CHUNK + 999, seed=n)
        assert_same_bits(multi, singles_of(params, graph, weights, backend="mc",
                                           samples=sampling.CHUNK + 999, seed=n))

    @given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(1, 4), min_size=1, max_size=4))
    @settings(max_examples=10, deadline=None)
    def test_exact_matches_single_calls(self, q, rng_seed, picks):
        rng = np.random.default_rng(rng_seed)
        kappa = 0.5 * rng.standard_normal(q)
        params = standard_of_curvature(2, q, kappa - kappa.mean())
        graph = detect_interfaces(params)
        weights = [weight_pool(0.4 * rng.standard_normal(3))[p] for p in picks]
        multi = weighted_laplacians(params, graph, weights, backend="exact")
        assert_same_bits(multi, singles_of(params, graph, weights, backend="exact"))

    def test_weights_see_read_only_points(self, skew_bubble_s2, skew_bubble_graph):
        def scribble(pts):
            pts[:, 0] = 0.0
            return pts[:, 1]

        for backend in ("exact", "mc"):
            with pytest.raises(ValueError, match="read-only"):
                weighted_laplacians(skew_bubble_s2, skew_bubble_graph,
                                    [lambda pts: pts[:, 0], scribble],
                                    backend=backend, samples=1000)

    def test_single_weight_is_first_of_many(self, skew_bubble_s2, skew_bubble_graph):
        laps = weighted_laplacians(skew_bubble_s2, skew_bubble_graph,
                                   [lambda pts: pts[:, 0], lambda pts: pts[:, 1]])
        single = weighted_laplacian(skew_bubble_s2, skew_bubble_graph,
                                    lambda pts: pts[:, 0])
        assert single.matrix.tobytes() == laps[0].matrix.tobytes()


class TestResolveBackend:
    def test_auto_is_exact_only_on_s2(self):
        assert resolve_backend("auto", 2) == "exact"
        assert [resolve_backend("auto", n) for n in (3, 4, 6)] == ["mc"] * 3
        assert resolve_backend("mc", 2) == "mc"
        assert resolve_backend("exact", 2) == "exact"
        with pytest.raises(ValueError, match="n = 3"):
            resolve_backend("exact", 3)

    def test_unknown_backend_rejected(self, skew_bubble_s2, skew_bubble_graph):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("MC", 3)
        with pytest.raises(ValueError, match="unknown backend"):
            weighted_laplacian(skew_bubble_s2, skew_bubble_graph,
                               lambda pts: np.ones(len(pts)), backend="arcs")


def assert_same_report(got, want):
    for field in ("volumes", "areas", "volume_stderr", "area_stderr"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert got.backend == want.backend


class TestMeasureCluster:
    """measure_cluster is measure_exact_s2 or measure_mc, bit for bit."""

    def test_s2_backends(self, skew_bubble_s2, skew_bubble_graph):
        exact = measure_exact_s2(skew_bubble_s2, skew_bubble_graph)
        mc = measure_mc(skew_bubble_s2, skew_bubble_graph, samples=30_000, seed=3)
        for backend, want in (("auto", exact), ("exact", exact), ("mc", mc)):
            got = measure_cluster(skew_bubble_s2, skew_bubble_graph, backend,
                                  samples=30_000, seed=3)
            assert_same_report(got, want)

    def test_s3_auto_is_monte_carlo(self):
        params = standard_of_curvature(3, 4, np.array([0.2, -0.1, 0.05, -0.15]))
        graph = complete_graph(4)
        assert_same_report(measure_cluster(params, graph, samples=20_000, seed=8),
                           measure_mc(params, graph, samples=20_000, seed=8))

    def test_unknown_backend_rejected(self, skew_bubble_s2, skew_bubble_graph):
        with pytest.raises(ValueError, match="unknown backend"):
            measure_cluster(skew_bubble_s2, skew_bubble_graph, "arcs")

    def test_exact_rejected_off_s2_before_measuring(self, monkeypatch):
        bands = gallery.band_stack()

        def measured(*args, **kwargs):
            raise AssertionError("measured before the backend was checked")

        monkeypatch.setattr(measure, "measure_exact_s2", measured)
        monkeypatch.setattr(measure, "cell_volumes_mc", measured)
        monkeypatch.setattr(measure, "measure_mc", measured)
        monkeypatch.setattr(measure, "VolumeTracker", measured)
        with pytest.raises(ValueError, match="n = 4"):
            measure_cluster(bands, complete_graph(bands.q), "exact")
        with pytest.raises(ValueError, match="n = 4"):
            measure.cell_volume_function(complete_graph(bands.q), bands.n, "exact")

    def test_empty_pairs_are_positive_zero(self, band_cluster, band_graph):
        rep = measure_mc(band_cluster, band_graph, samples=20_000, seed=1)
        empty = ~band_graph.nonempty & ~np.eye(band_cluster.q, dtype=bool)
        assert empty.any()
        assert not np.signbit(rep.areas).any()
        assert not np.signbit(rep.area_stderr).any()

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_exact_unit_laplacian_is_arc_length(self, q):
        # weight None integrates 1 on the exact backend too: the arc lengths
        kappa = np.linspace(-0.4, 0.4, q)
        params = standard_of_curvature(2, q, kappa - kappa.mean())
        graph = detect_interfaces(params)
        areas = measure_exact_s2(params, graph).areas
        lap = weighted_laplacian(params, graph, None, backend="exact")
        for i, j in graph.pairs():
            assert lap.pair_weight(i, j) == areas[i, j]
        assert interface_areas(params, graph, "exact")[0].tobytes() == areas.tobytes()

    def test_volume_newton_integrates_no_wall(self, monkeypatch):
        def no_walls(*args, **kwargs):
            raise AssertionError("a wall was integrated")

        # every Monte Carlo wall integration, measure_mc's and its q = 2
        # shortcut included, runs through _wall_pass
        monkeypatch.setattr(measure, "_wall_pass", no_walls)
        cfg = NewtonConfig(mc_samples=100_000, mc_seed=2)
        standard_of_volume(3, 2, [0.4, 0.6], cfg)

    def test_mc_areas_are_the_unit_pair_weights(self):
        params = standard_of_curvature(3, 3, np.array([0.2, -0.05, -0.15]))
        graph = complete_graph(3)
        areas, errs = interface_areas(params, graph, "mc", 10_000, 4)
        rep = measure_mc(params, graph, 10_000, 4)
        assert areas.tobytes() == rep.areas.tobytes()
        assert errs.tobytes() == rep.area_stderr.tobytes()
        lap = weighted_laplacian(params, graph, None, backend="mc", samples=10_000, seed=4)
        for i, j in graph.pairs():
            assert lap.pair_weight(i, j) == areas[i, j]

    def test_profile_perimeter_classifies_no_volume_sample(self, monkeypatch):
        in_perimeter, perimeters, volume_calls = [], [], []
        real_areas, real_volumes = standard.interface_areas, measure._cell_volumes_mc

        def areas(*args):
            in_perimeter.append(True)
            perimeters.append(args)
            try:
                return real_areas(*args)
            finally:
                in_perimeter.pop()

        def volumes(*args):
            assert not in_perimeter, "a perimeter evaluation drew volume samples"
            volume_calls.append(True)
            return real_volumes(*args)

        monkeypatch.setattr(standard, "interface_areas", areas)
        monkeypatch.setattr(measure, "_cell_volumes_mc", volumes)
        cfg = NewtonConfig(backend="mc", mc_samples=1_000_000, mc_seed=3)
        model_profile(3, 2, [0.45, 0.55], fd_step_grad=1e-2, fd_step_hess=5e-2, cfg=cfg)
        assert len(perimeters) == 5  # the center and two steps each way
        assert volume_calls


class TestNewtonTolerances:
    def test_monte_carlo_floors_tolerance_and_step(self):
        cfg = NewtonConfig(tol=1e-11)
        assert cfg.tolerances(2) == (1e-11, None)  # analytic Jacobian on exact volumes
        assert cfg.tolerances(3) == (cfg.mc_tol, MC_FD_STEP)
        assert NewtonConfig(backend="mc").tolerances(2) == (cfg.mc_tol, MC_FD_STEP)

    def test_monte_carlo_tolerance_floored_by_sample_resolution(self):
        # two steps of the empirical volume map, 1/samples each, once above mc_tol
        assert NewtonConfig(mc_samples=300_000).tolerances(3) == (2 / 300_000, MC_FD_STEP)
        assert NewtonConfig(mc_samples=1_000_000).tolerances(3)[0] == NewtonConfig().mc_tol
        assert NewtonConfig(mc_samples=300_000).tolerances(2) == (1e-10, None)

    @pytest.mark.parametrize("cfg", [
        NewtonConfig(tol=math.nan), NewtonConfig(tol=-1.0), NewtonConfig(tol=0.0),
        NewtonConfig(tol=math.inf), NewtonConfig(tol=math.nan, backend="mc"),
        NewtonConfig(backend="mc", mc_tol=math.nan), NewtonConfig(backend="mc", mc_tol=-1.0)],
        ids=["nan", "negative", "zero", "inf", "nan-mc", "mc_tol-nan", "mc_tol-negative"])
    def test_rejects_tolerances_that_are_not_positive_and_finite(self, cfg):
        # NaN fails every comparison, which would switch the convergence test off
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            standard_of_volume(2, 3, [0.5, 0.3, 0.2], cfg)


class TestPositiveDefiniteness:
    def test_unit_laplacian_positive(self, equal_bubble_s2, equal_bubble_graph):
        lap = weighted_laplacian(equal_bubble_s2, equal_bubble_graph,
                                 lambda pts: np.ones(len(pts)), backend="exact")
        assert np.linalg.eigvalsh(restrict(lap.matrix)).min() > 0.7

    def test_cut_graph_is_singular(self):
        # weights supported on a disconnected graph: indicator of the cut in kernel
        m = np.zeros((4, 4))
        for i, j, w in ((0, 1, 1.0), (2, 3, 2.0)):
            m[i, i] += w
            m[j, j] += w
            m[i, j] -= w
            m[j, i] -= w
        assert abs(np.linalg.eigvalsh(restrict(m))[0]) < 1e-12

    def test_absolute_height_weight_positive(self, skew_bubble_s2, skew_bubble_graph):
        pole = np.array([0.0, 0.0, 1.0])
        lap = weighted_laplacian(skew_bubble_s2, skew_bubble_graph,
                                 lambda pts: np.abs(pts @ pole), backend="exact")
        w = np.linalg.eigvalsh(restrict(lap.matrix))
        assert w.min() > 1e-11 * max(1.0, float(np.abs(w).max()))


class TestArcExtraction:
    def test_lune_arcs(self, equal_bubble_s2, equal_bubble_graph):
        arcs = extract_arcs(equal_bubble_s2, equal_bubble_graph)
        assert len(arcs) == 3
        for arc in arcs:
            assert abs(arc.length - math.pi) < 1e-12
            assert abs(arc.radius - 1.0) < 1e-14

    def test_full_circle_for_cap(self):
        params = standard_of_volume(2, 2, [0.3, 0.7])
        arcs = extract_arcs(params, complete_graph(2))
        assert len(arcs) == 1
        assert arcs[0].full_circle

    def test_cross_is_np_cross_bit_for_bit(self):
        rng = np.random.default_rng(7)
        scales = 10.0 ** rng.uniform(-12, 12, size=(2000, 2, 3))
        vecs = rng.standard_normal((2000, 2, 3)) * scales
        vecs[::7, 0, rng.integers(3)] = 0.0
        for a, b in vecs:
            assert np.array_equal(measure._cross(a, b), np.cross(a, b))
        rows = vecs.reshape(200, 10, 2, 3)
        assert np.array_equal(measure._cross(rows[:, :, 0], rows[:, :, 1]),
                              np.cross(rows[:, :, 0], rows[:, :, 1]))

    def test_arc_ends_are_the_arc_points(self, skew_bubble_s2, skew_bubble_graph):
        for arc in extract_arcs(skew_bubble_s2, skew_bubble_graph):
            first, last = arc.ends
            assert np.array_equal(first, arc.point(arc.t0))
            assert np.array_equal(last, arc.point(arc.t1))
            # each end is computed once per arc and read-only
            assert arc.ends[0] is first and arc.ends[1] is last
            assert not (first.flags.writeable or last.flags.writeable)


# ---------------------------------------------------------------------------
# Incremental volumes and the draw path
# ---------------------------------------------------------------------------

@st.composite
def affine_parts(draw):
    """(n, quasi-centers, curvatures, rng) of a random affine cluster, n = 2..5, q = 2..n+2."""
    n = draw(st.integers(2, 5))
    q = draw(st.integers(2, n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = draw(st.floats(0.05, 3.0)) * rng.standard_normal((q, n + 1))
    k = draw(st.floats(0.0, 2.0)) * rng.standard_normal(q)
    return n, c, k, rng


def random_affine_clusters():
    return affine_parts().map(lambda parts: recentered(*parts[:3]))


@st.composite
def affine_s2_clusters(draw):
    """(params, rng): a random affine S^2 cluster with q = 3..5, drawn like mc_cases."""
    q = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = draw(st.floats(0.05, 3.0)) * rng.standard_normal((q, 3))
    k = draw(st.floats(0.0, 2.0)) * rng.standard_normal(q)
    return recentered(2, c, k), rng


@st.composite
def tracked_clusters(draw):
    """(base, later): a random affine cluster and perturbations of it at scales
    0 and 1e-14 to 1e-1. With a duplicated cell, two cells tie exactly on a
    whole region, before and, if the perturbation keeps them equal, after.
    The base may have quasi-center entries in its leading columns only, as a
    standard bubble has, and a perturbation may keep that or not."""
    n, c, k, rng = draw(affine_parts())
    q = len(k)
    width = draw(st.integers(1, n + 1))
    c[:, width:] = 0.0
    a, b = sorted(rng.choice(q, 2, replace=False).tolist())
    duplicate = draw(st.booleans())
    if duplicate:
        c[b], k[b] = c[a], k[a]
    later = []
    for scale in draw(st.lists(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6, 1e-3, 1e-2, 1e-1]),
                               min_size=1, max_size=3)):
        dc, dk = scale * rng.standard_normal(c.shape), scale * rng.standard_normal(q)
        if draw(st.booleans()):
            dc[:, width:] = 0.0
        if duplicate and draw(st.booleans()):
            dc[b], dk[b] = dc[a], dk[a]
        later.append(recentered(n, c + dc, k + dk))
    return recentered(n, c, k), later


@st.composite
def rolling_paths(draw):
    """A walk over a tracked_clusters family: steps between any two of its members,
    so scales from 0 to 1e-1 mix, the walk returns to earlier parameter vectors, and
    duplicated cells tie exactly."""
    base, later = draw(tracked_clusters())
    family = [base, *later]
    walk = draw(st.lists(st.integers(0, len(later)), min_size=2, max_size=6))
    return [base] + [family[k] for k in walk]


class TestExactInvariance:
    """measure_exact_s2 depends on neither the frame nor the labels of the cells."""

    @given(affine_s2_clusters())
    @settings(max_examples=100, deadline=None)
    def test_turns_and_relabellings(self, case):
        # a turn moves the cells against the Stokes sum's fixed punctures and
        # reparametrizes every arc; a relabelling reorders cells and pairs
        params, rng = case
        q, graph = params.q, complete_graph(params.q)
        base = measure_exact_s2(params, graph)
        perm = rng.permutation(q)
        relabelled = ClusterParams(2, params.quasi_centers[perm], params.curvatures[perm])
        for moved, order in ((rotated(params, random_orthogonal(3, rng)), np.arange(q)),
                             (relabelled, perm)):
            report = measure_exact_s2(moved, graph)
            assert np.max(np.abs(report.volumes - base.volumes[order])) <= 1e-13
            assert np.max(np.abs(report.areas - base.areas[np.ix_(order, order)])) <= 1e-13


class TestVolumeTracker:
    @given(tracked_clusters(), st.sampled_from([5_000, sampling.CHUNK + 1_234]),
           st.integers(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_counts_and_labels_equal_a_full_pass(self, cluster, samples, seed):
        base, later = cluster
        q = base.q
        tracker = measure.VolumeTracker(samples, seed)
        for params in [base, *later]:
            # the reference changes in place, so the snapshot copies its arrays
            references = {chunk: (ref_params, labels.copy(), gaps.copy(), offset)
                          for chunk, (ref_params, labels, gaps, _, offset)
                          in tracker._references.items()}
            got = tracker.volumes(params)
            want = measure.cell_volumes_mc(params, samples, seed)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            for chunk, count in sampling.chunk_layout(samples):
                pts = sampling.draw_unit_chunk(seed, measure._VOLUME_STREAM, chunk, count,
                                               base.n + 1)
                labels = classify_many(params, pts)
                if chunk in references:
                    # the limit: a point whose stored gap exceeds it keeps its label
                    ref_params, ref_labels, gaps, offset = references[chunk]
                    limit = np.nextafter(offset + measure._label_bound(ref_params, params),
                                         np.inf)
                    keep = gaps > limit
                    assert np.array_equal(labels[keep], ref_labels[keep])
                ref_params, ref_labels, gaps, counts, _ = tracker._references[chunk]
                assert ref_labels.dtype == np.uint8 and gaps.dtype == np.float64
                assert np.array_equal(ref_labels, classify_many(ref_params, pts))
                assert np.array_equal(counts, np.bincount(ref_labels, minlength=q))
        chunks = len(sampling.chunk_layout(samples))
        assert tracker.full + tracker.incremental == chunks * (1 + len(later))

    @given(rolling_paths(), st.sampled_from([5_000, sampling.CHUNK + 1_234]), st.integers(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_rolled_reference_keeps_the_invariant(self, path, samples, seed):
        # each evaluation becomes its chunk's reference: its labels are the full
        # pass's, each stored gap less the offset is at most the gap computed at
        # the reference, and a roll advances the offset by at least the bound.
        # The invariant bounds exact differences, so the computed gap may lie
        # below it by the values' rounding, which the bound for unchanged
        # parameters covers (a one-point subset rounds unlike the full chunk)
        tracker = measure.VolumeTracker(samples, seed)
        offsets = {}
        for previous, params in zip([None, *path], path):
            got = tracker.volumes(params)
            want = measure.cell_volumes_mc(params, samples, seed)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            rounding = measure._label_bound(params, params)
            for chunk, count in sampling.chunk_layout(samples):
                pts = sampling.draw_unit_chunk(seed, measure._VOLUME_STREAM, chunk, count,
                                               params.n + 1)
                ref_params, labels, gaps, counts, offset = tracker._references[chunk]
                assert ref_params is params
                want_labels, want_gaps = classify_many(params, pts, gaps=True)
                assert np.array_equal(labels, want_labels)
                assert np.array_equal(counts, np.bincount(want_labels, minlength=params.q))
                assert np.all(gaps - offset <= want_gaps * (1.0 + 1e-12) + rounding)
                if offset:  # rolled: the limit is rounded up, exactly
                    advance = Fraction(offset) - Fraction(offsets[chunk])
                    assert advance >= Fraction(measure._label_bound(previous, params))
                offsets[chunk] = offset

    @given(random_affine_clusters(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_subset_labels_equal_the_full_chunk(self, params, seed):
        pts = sampling.draw_unit_chunk(seed, measure._VOLUME_STREAM, 0, 5_000, params.n + 1)
        labels = classify_many(params, pts)
        values = cell_values(params, pts)
        ordered = np.sort(values, axis=0)
        full, gaps = least_cell(values, gaps=True)
        assert np.array_equal(full, labels)
        assert gaps.tobytes() == (ordered[1] - ordered[0]).tobytes()
        rng = np.random.default_rng(seed)
        for size in (1, 2, 7, 1_000):
            subset = np.sort(rng.choice(len(pts), size, replace=False))
            assert np.array_equal(least_cell(cell_values(params, pts[subset])), labels[subset])

    def test_unchanged_parameters_reclassify_only_tied_points(self):
        samples, seed = sampling.CHUNK + 1_000, 5
        params = standard_of_curvature(3, 3, np.array([0.2, -0.05, -0.15]))
        tracker = measure.VolumeTracker(samples, seed)
        first = tracker.volumes(params)
        assert (tracker.full, tracker.incremental) == (2, 0)
        # after a full pass the offset is 0, so the limit is the bound rounded up
        limit = np.nextafter(measure._label_bound(params, params), np.inf)
        tied = sum(int(np.count_nonzero(gaps <= limit))
                   for _, _, gaps, _, _ in tracker._references.values())
        again = tracker.volumes(params)
        assert (tracker.full, tracker.incremental, tracker.reclassified) == (2, 2, tied)
        assert again[0].tobytes() == first[0].tobytes()
        # a duplicated cell ties exactly on its whole region (a sixth of S^3,
        # so the chunks stay below the full-classification share): tied labels
        # rest on the chunk's own rounding, so each chunk is classified in full
        c = np.vstack([params.quasi_centers, params.quasi_centers[0]])
        twin = recentered(3, c, np.append(params.curvatures, params.curvatures[0]))
        tracker = measure.VolumeTracker(samples, seed)
        tracker.volumes(twin)
        for _, _, gaps, _, _ in tracker._references.values():
            ties = np.count_nonzero(gaps == 0.0)
            assert 0 < ties <= measure.FULL_CLASSIFY_SHARE * gaps.size
        again = tracker.volumes(twin)
        assert (tracker.full, tracker.incremental) == (4, 0)
        assert again[0].tobytes() == measure.cell_volumes_mc(twin, samples, seed)[0].tobytes()

    def test_draws_each_chunk_once_and_keeps_it_read_only(self, draws):
        # a standard bubble of 3 cells has quasi-center entries in columns 0
        # and 1 only, so the tracker keeps those two of each point's four
        samples, seed = 2 * sampling.CHUNK + 7, 8
        tracker = measure.VolumeTracker(samples, seed)
        base = np.array([0.2, -0.05, -0.15])
        for step in (0.0, 1e-6, 2e-6, 0.0, 0.3):  # the last step classifies in full
            params = standard_of_curvature(3, 3, base * (1.0 + step))
            got = tracker.volumes(params)
            assert got[0].tobytes() == measure.cell_volumes_mc(params, samples, seed)[0].tobytes()
        volume_draws = [args for args in draws if args[:2] == (seed, measure._VOLUME_STREAM)]
        # the oracle draws every chunk at each of its five calls, the tracker
        # once: neither a widening nor a rounding fallback draws one again
        layout = sampling.chunk_layout(samples)
        assert len(volume_draws) == 6 * len(layout)
        assert tracker.full > len(layout) and tracker.incremental > 0
        assert sorted(tracker._points) == [chunk for chunk, _ in layout]
        for chunk, count in layout:
            pts = tracker._points[chunk]
            assert pts.shape == (count, 2) and not pts.flags.writeable
            want = unit_directions(seed, measure._VOLUME_STREAM, chunk, count, 4)[:, :2]
            assert pts.tobytes() == want.tobytes()

    def test_computes_the_bounds_once_per_evaluation(self, monkeypatch):
        # after an evaluation every chunk's reference holds its parameters, so
        # each later evaluation bounds its step from them once, and its own
        # rounding once, whatever the chunk count
        calls = []
        bound = measure._label_bound
        monkeypatch.setattr(measure, "_label_bound",
                            lambda ref, cur: calls.append((ref, cur)) or bound(ref, cur))
        samples, seed = 3 * sampling.CHUNK, 8
        tracker = measure.VolumeTracker(samples, seed)
        base = np.array([0.2, -0.05, -0.15])
        path = [standard_of_curvature(3, 3, base * (1.0 + step)) for step in (0.0, 1e-6, 2e-6)]
        for params in path:
            got = tracker.volumes(params)
            assert got[0].tobytes() == measure.cell_volumes_mc(params, samples, seed)[0].tobytes()
        assert (tracker.full, tracker.incremental) == (3, 6)
        want = [(path[0], path[1]), (path[1], path[1]), (path[1], path[2]), (path[2], path[2])]
        assert len(calls) == len(want)
        assert all(ref is want_ref and cur is want_cur
                   for (ref, cur), (want_ref, want_cur) in zip(calls, want))

    def test_trackers_at_one_seed_keep_their_own_points(self, draws):
        # no draw outlives its tracker: a second tracker at the same address
        # draws its chunks again and shares no memory with the first
        samples, seed = 5_000, 9
        params = standard_of_curvature(3, 3, np.array([0.2, -0.05, -0.15]))
        first, second = measure.VolumeTracker(samples, seed), measure.VolumeTracker(samples, seed)
        got = [tracker.volumes(params)[0].tobytes() for tracker in (first, second)]
        assert got[0] == got[1]
        assert len(draws) == 2 * len(sampling.chunk_layout(samples))
        for chunk in first._points:
            assert first._points[chunk].tobytes() == second._points[chunk].tobytes()
            assert not np.shares_memory(first._points[chunk], second._points[chunk])

    def test_near_share_above_threshold_classifies_in_full(self, draws):
        samples, seed = 20_000, 6
        params = standard_of_curvature(3, 3, np.array([0.2, -0.05, -0.15]))
        tracker = measure.VolumeTracker(samples, seed)
        tracker.volumes(params)
        small = standard_of_curvature(3, 3, np.array([0.2 + 1e-4, -0.05, -0.15 - 1e-4]))
        tracker.volumes(small)
        assert (tracker.full, tracker.incremental) == (1, 1)
        assert 0 < tracker.reclassified <= measure.FULL_CLASSIFY_SHARE * samples
        # a large step puts most points within the bound
        large = standard_of_curvature(3, 3, np.array([0.6, -0.3, -0.3]))
        got = tracker.volumes(large)
        assert (tracker.full, tracker.incremental) == (2, 1)
        assert tracker._references[0][0] is large
        assert got[0].tobytes() == measure.cell_volumes_mc(large, samples, seed)[0].tobytes()
        # from the kept columns: only the first evaluation and the oracle drew
        assert len(draws) == 2

    @staticmethod
    def _recorded(monkeypatch):
        """(tracker, params, volumes) of every tracker evaluation the test makes."""
        calls = []
        volumes = measure.VolumeTracker.volumes

        def recorded(tracker, params):
            calls.append((tracker, params, volumes(tracker, params)))
            return calls[-1][2]

        monkeypatch.setattr(measure.VolumeTracker, "volumes", recorded)
        return calls

    @pytest.mark.parametrize("solve", ["standard_of_volume", "model_profile"])
    def test_solve_paths_equal_fresh_passes(self, solve, monkeypatch):
        calls = self._recorded(monkeypatch)
        cfg = NewtonConfig(backend="mc", mc_samples=sampling.CHUNK + 40_000, mc_seed=11)
        if solve == "standard_of_volume":
            standard_of_volume(3, 3, [0.3, 0.45, 0.25], cfg)
        else:
            model_profile(3, 2, [0.45, 0.55], fd_step_grad=1e-2, fd_step_hess=5e-2, cfg=cfg)
        trackers = {id(tracker): tracker for tracker, _, _ in calls}
        assert len(calls) > 5 and sum(t.incremental for t in trackers.values()) > 0
        for tracker, params, got in calls:
            want = measure.cell_volumes_mc(params, cfg.mc_samples, cfg.mc_seed)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            # the profile's clusters have entries in column 0 only
            assert all(pts.shape[1] == (2 if solve == "standard_of_volume" else 1)
                       for pts in tracker._points.values())

    def test_widening_draws_the_chunks_again(self, draws):
        # a turned copy of a standard bubble has entries in every column: the
        # tracker then draws each chunk again and keeps all four coordinates
        samples, seed = sampling.CHUNK + 3_000, 12
        params = standard_of_curvature(3, 3, np.array([0.2, -0.05, -0.15]))
        turned = rotated(params, random_orthogonal(4, np.random.default_rng(5)))
        layout = sampling.chunk_layout(samples)
        tracker = measure.VolumeTracker(samples, seed)
        for at, width, drawn in ((params, 2, 1), (turned, 4, 2), (params, 4, 2), (turned, 4, 2)):
            got = tracker.volumes(at)
            want = measure.cell_volumes_mc(at, samples, seed)
            assert got[0].tobytes() == want[0].tobytes()
            del draws[-len(layout):]  # the oracle's draws
            assert len(draws) == drawn * len(layout)
            for chunk, count in layout:
                pts = tracker._points[chunk]
                want_pts = unit_directions(seed, measure._VOLUME_STREAM, chunk, count, 4)
                assert pts.tobytes() == want_pts[:, :width].tobytes()
        # each step is large: every evaluation classifies every chunk in full
        assert tracker.full == 4 * len(layout)

    def test_rounding_fallback_draws_the_chunk_again(self, monkeypatch, draws):
        # with a bound for unchanged parameters that no gap exceeds, neither
        # an incremental step nor a full pass over the kept columns may keep a
        # label: each chunk is drawn again and classified on all coordinates
        bound = measure._label_bound
        monkeypatch.setattr(measure, "_label_bound",
                            lambda ref, cur: 1e300 if ref is cur else bound(ref, cur))
        samples, seed = sampling.CHUNK + 100_000, 13
        layout = sampling.chunk_layout(samples)
        base = np.array([0.2, -0.05, -0.15])
        tracker = measure.VolumeTracker(samples, seed)
        # a small step (a few points near) and a large one (most points near)
        for step in (0.0, 1e-3, 0.3):
            params = standard_of_curvature(3, 3, base * (1.0 + step))
            got = tracker.volumes(params)
            want = measure.cell_volumes_mc(params, samples, seed)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        assert (tracker.full, tracker.incremental) == (3 * len(layout), 0)
        # the tracker drew each chunk at each evaluation, as the oracle did
        assert len(draws) == 6 * len(layout)

    def test_rejects_another_shape_before_any_work(self, draws):
        params = standard_of_curvature(3, 3, np.array([0.2, -0.05, -0.15]))
        tracker = measure.VolumeTracker(5_000, 3)
        tracker.volumes(params)
        drawn = len(draws)
        for other, shape in ((standard_of_curvature(3, 4, np.array([0.1, -0.1, 0.2, -0.2])),
                              r"\(4, 4\)"),
                             (standard_of_curvature(2, 3, np.array([0.2, -0.05, -0.15])),
                              r"\(3, 3\)")):
            with pytest.raises(ValueError, match=r"\(3, 4\).*" + shape):
                tracker.volumes(other)
        assert len(draws) == drawn and (tracker.full, tracker.incremental) == (1, 0)

    def test_solve_holds_its_kept_columns_labels_and_gaps(self):
        # standard_of_volume(3, 3) keeps s = 2 columns: 8s + 9 bytes a point,
        # beside the scratch of the chunk tasks running at once
        samples = 2_000_000
        cfg = NewtonConfig(backend="mc", mc_samples=samples, mc_seed=3)
        # the modules a first call imports are not the solve's
        standard_of_volume(3, 3, [0.3, 0.45, 0.25], NewtonConfig(backend="mc",
                                                                   mc_samples=100_000))
        tasks = min(len(sampling.chunk_layout(samples)), sampling.usable_cores())
        budget = samples * (8 * 2 + 9) + tasks * (2 << 20)
        tracemalloc.start()
        try:
            standard_of_volume(3, 3, [0.3, 0.45, 0.25], cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget, (peak, budget)


class TestDrawPath:
    @pytest.mark.parametrize("dim", range(2, 8))
    def test_unit_rows_equal_the_norm_formula(self, dim):
        for count in (1, 7, 1_000, sampling.CHUNK):
            want = unit_directions(3, 77, 1, count, dim)
            assert sampling.draw_unit_chunk(3, 77, 1, count, dim).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", range(8, 13))
    def test_unit_rows_are_unit_beyond_dimension_seven(self, dim):
        rows = sampling.draw_unit_chunk(3, 77, 1, 10_000, dim)
        assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("n", range(2, 9))
    def test_subsphere_points_equal_the_transposed_product(self, n):
        params = standard_of_curvature(n, 3, np.array([0.3, -0.1, -0.2]))
        center, radius, frame = sampling.subsphere_frame(params.pair_center(0, 1),
                                                         params.pair_curvature(0, 1))
        for count in (1, 7, 1_000, sampling.CHUNK):
            want = sampling.draw_unit_chunk(4, 78, 0, count, n) @ frame.T
            want *= radius
            want += center
            got = subsphere_chunk(4, 78, 0, count, center, radius, frame)
            assert got.tobytes() == want.tobytes()


class TestWallPassMemory:
    @pytest.mark.parametrize("weighted", [False, True], ids=["area", "weighted"])
    def test_one_chunk_allocates_less_than_its_placed_points(self, weighted):
        # the pass draws the chunk's wall directions one block at a time,
        # classifies each block in every wall's own coordinates and places
        # only its hits: a pass over one chunk, its draws included, holds less
        # than that chunk's points placed in R^(n+1) would take. The area-only
        # pass is measure_mc's (with the perimeter's totals), the weighted one
        # the operators'.
        n, count = 3, sampling.CHUNK
        params = standard_of_curvature(n, 5, fresh_shape_kappa(5))
        graph = detect_interfaces(params)
        xi = np.linspace(-0.3, 0.3, n + 1)
        weights = [None] + ([lambda pts: 1.0 - pts @ xi] + [lambda pts, a=a: pts[:, a]
                                                             for a in range(n + 1)]
                            if weighted else [])
        tracemalloc.start()
        try:
            measure._wall_pass([(params, graph)], weights, count, 5, perimeter=not weighted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < count * (n + 1) * 8


class TestPassMemory:
    """Each Monte Carlo pass draws, classifies and integrates a chunk one BLOCK
    at a time, so a chunk task holds no chunk of points: at most one array of
    CHUNK floats (the perimeter's per-direction totals) and its blocks, which
    2 MiB covers. The tasks run on min(tasks, usable_cores()) threads."""

    @pytest.mark.parametrize("name", ["measure_mc", "normal_moment_operator"])
    def test_peak_is_one_chunk_of_floats_per_running_task(self, name):
        n, q = 3, 5
        params = standard_of_curvature(n, q, fresh_shape_kappa(q))
        graph = detect_interfaces(params)
        samples = 2 * sampling.CHUNK
        passes = {"measure_mc": lambda count: measure_mc(params, graph, count, 5),
                  "normal_moment_operator": lambda count: normal_moment_operator(
                      params, graph, "mc", count, 5)}
        tasks = len(sampling.chunk_layout(samples))
        budget = min(tasks, sampling.usable_cores()) * (sampling.CHUNK * 8 + (2 << 20))
        passes[name](1000)  # the modules a first call imports are not the pass's
        tracemalloc.start()
        try:
            passes[name](samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget, (peak, budget)
