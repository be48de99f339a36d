"""Monte Carlo and exact measures, weighted Laplacians, backend agreement."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import (build_graph, conformal_step, detect_interfaces, equal_volume_standard,
                       measure_exact_s2, measure_mc, perpendicular_pole, recentered,
                       standard_of_curvature, standard_of_volume, weighted_laplacian,
                       weighted_laplacians)
from bubblelab import gallery, measure, sampling, standard
from bubblelab.cluster import (ClusterParams, cell_values, classify_many, complete_graph,
                               least_cell)
from bubblelab.measure import (MeasureError, extract_arcs, interface_areas,
                               measure_cluster, resolve_backend)
from bubblelab.standard import MC_FD_STEP, NewtonConfig, model_profile
from bubblelab.simplex import restrict
from reference import random_orthogonal, rotated, unit_directions


class TestMeasureMC:
    def test_hemispheres(self, hemispheres):
        graph = detect_interfaces(hemispheres, rng_seed=0)
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


class TestMeasureExactS2:
    def test_hemispheres_exact(self, hemispheres):
        graph = detect_interfaces(hemispheres, rng_seed=0)
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
        graph = detect_interfaces(params, rng_seed=0)
        rep = measure_exact_s2(params, graph)
        assert np.max(np.abs(rep.volumes - [0.25, 0.75])) < 1e-9
        assert abs(rep.total_perimeter - math.sqrt(3) / 4) < 1e-9

    def test_band_cluster_with_annulus_cells(self):
        # parallel circles: middle cells are annuli, so loop bookkeeping matters
        params = gallery.band_stack(2, (-0.4, 0.5))
        graph = detect_interfaces(params, rng_seed=0)
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
        graph = detect_interfaces(params, samples_per_pair=4096, rng_seed=3)
        rep = measure_exact_s2(params, graph)
        assert abs(rep.volumes.sum() - 1.0) < 1e-9
        assert np.all(rep.volumes > 0)

    def test_rejects_higher_dimensions(self):
        params = equal_volume_standard(3, 3)
        with pytest.raises(MeasureError):
            measure_exact_s2(params, complete_graph(3))

    def test_q4_full_dimensional(self):
        params = standard_of_curvature(2, 4, np.array([0.2, -0.1, 0.05, -0.15]))
        graph = detect_interfaces(params, rng_seed=1)
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
            graph = detect_interfaces(params, rng_seed=trial)
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
        graph = detect_interfaces(params, rng_seed=0)
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
            graph = detect_interfaces(params, rng_seed=k)
            assert_exact_matches_mc(params, graph, 200_000, seed=k)

    def test_prism_with_a_disconnected_cell(self):
        # cell 0 is {|y|, |z| < 0.1}: two disks about +-e_x, which no single
        # boundary loop bounds
        c = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                      [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        params = recentered(2, c, np.array([0.0, 0.1, 0.1, 0.1, 0.1]))
        graph = detect_interfaces(params, rng_seed=0)
        assert_exact_matches_mc(params, graph, 1_000_000, seed=41)
        volumes = measure_exact_s2(params, graph).volumes
        assert np.ptp(volumes[1:]) < 1e-12

    @pytest.mark.parametrize("kappa, drops", [([0.3, 0.1, -0.4], 3),
                                              ([0.2, -0.1, 0.05, -0.15], 1)])
    def test_dropped_arc_raises(self, monkeypatch, kappa, drops):
        # an open boundary makes a cell's Stokes sum depend on the puncture
        params = standard_of_curvature(2, len(kappa), np.array(kappa))
        graph = detect_interfaces(params, rng_seed=0)
        arcs = extract_arcs(params, graph)
        assert not any(arc.closed for arc in arcs)
        for dropped in range(drops):
            kept = arcs[:dropped] + arcs[dropped + 1:]
            monkeypatch.setattr(measure, "extract_arcs", lambda params, graph: kept)
            with pytest.raises(MeasureError):
                measure_exact_s2(params, graph)

    def test_orthogonal_invariance_exact(self, skew_bubble_s2):
        turned = rotated(skew_bubble_s2, random_orthogonal(3, np.random.default_rng(8)))
        g1 = detect_interfaces(skew_bubble_s2, rng_seed=2)
        g2 = detect_interfaces(turned, rng_seed=2)
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
        graph = detect_interfaces(params, rng_seed=rng_seed % 1000)
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
        graph = detect_interfaces(params, rng_seed=q)
        areas = measure_exact_s2(params, graph).areas
        lap = weighted_laplacian(params, graph, None, backend="exact")
        for i, j in graph.pairs():
            assert lap.pair_weight(i, j) == areas[i, j]
        assert interface_areas(params, graph, "exact")[0].tobytes() == areas.tobytes()

    def test_volume_newton_integrates_no_wall(self, monkeypatch):
        def no_walls(*args, **kwargs):
            raise AssertionError("a wall was integrated")

        # every wall integration, Monte Carlo or exact, and its q = 2 shortcut
        # runs through _pair_integrals
        monkeypatch.setattr(measure, "_pair_integrals", no_walls)
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
    whole region, before and, if the perturbation keeps them equal, after."""
    n, c, k, rng = draw(affine_parts())
    q = len(k)
    a, b = sorted(rng.choice(q, 2, replace=False).tolist())
    duplicate = draw(st.booleans())
    if duplicate:
        c[b], k[b] = c[a], k[a]
    later = []
    for scale in draw(st.lists(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6, 1e-3, 1e-2, 1e-1]),
                               min_size=1, max_size=3)):
        dc, dk = scale * rng.standard_normal(c.shape), scale * rng.standard_normal(q)
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
                pts = sampling.unit_chunk(seed, measure._VOLUME_STREAM, chunk, count, base.n + 1)
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
                pts = sampling.unit_chunk(seed, measure._VOLUME_STREAM, chunk, count,
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
        pts = sampling.unit_chunk(seed, measure._VOLUME_STREAM, 0, 5_000, params.n + 1)
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

    def test_near_share_above_threshold_classifies_in_full(self):
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


class TestDrawPath:
    @pytest.mark.parametrize("dim", range(2, 8))
    def test_unit_rows_equal_the_norm_formula(self, dim):
        for count in (1, 7, 1_000, sampling.CHUNK):
            want = unit_directions(3, 77, 1, count, dim)
            assert sampling.unit_chunk(3, 77, 1, count, dim).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", range(8, 13))
    def test_unit_rows_are_unit_beyond_dimension_seven(self, dim):
        rows = sampling.unit_chunk(3, 77, 1, 10_000, dim)
        assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("n", range(2, 9))
    def test_subsphere_points_equal_the_transposed_product(self, n):
        params = standard_of_curvature(n, 3, np.array([0.3, -0.1, -0.2]))
        center, radius, frame = sampling.subsphere_frame(params.pair_center(0, 1),
                                                         params.pair_curvature(0, 1))
        for count in (1, 7, 1_000, sampling.CHUNK):
            want = sampling.unit_chunk(4, 78, 0, count, n) @ frame.T
            want *= radius
            want += center
            got = sampling.subsphere_chunk(4, 78, 0, count, center, radius, frame)
            assert got.tobytes() == want.tobytes()

    def test_memo_entry_holds_exactly_the_rows_drawn(self, sample_memo):
        count = sampling.CHUNK // 2 + 1  # more than half a chunk, short of a whole one
        first = sampling.unit_chunk(0, 5, 0, count, 3)
        entry = sample_memo[(0, 5, 0, 3)]
        assert entry.shape == (count, 3)
        shorter = sampling.unit_chunk(0, 5, 0, 10, 3)
        assert np.shares_memory(shorter, entry)
        assert np.array_equal(shorter, first[:10])
        assert list(sample_memo) == [(0, 5, 0, 3)]
