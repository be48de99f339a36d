"""Conformal steps, compatibility detection, linearized equations, Gram paths."""

import math

import numpy as np
import pytest

from bubblelab import (conformal_step, detect_interfaces,
                       gram_invariance_check, gram_path, lse_solve, pcf_detect,
                       perpendicular_pole, standard_of_volume, validate_spherical)
from bubblelab import gallery, measure, sampling
from bubblelab.deform import gram_eigenvalue_floor
from bubblelab.simplex import sum_zero_projector
from reference import lse_residual, validate_along_path


class TestConformalStep:
    def test_identity_at_zero(self, skew_bubble_s2):
        pole = perpendicular_pole(skew_bubble_s2)
        out = conformal_step(skew_bubble_s2, pole, 0.0)
        assert np.allclose(out.quasi_centers, skew_bubble_s2.quasi_centers)

    def test_flat_cluster_is_fixed(self, equal_bubble_s2):
        pole = perpendicular_pole(equal_bubble_s2)
        out = conformal_step(equal_bubble_s2, pole, 1.3)
        assert np.allclose(out.quasi_centers, equal_bubble_s2.quasi_centers)
        assert np.allclose(out.curvatures, equal_bubble_s2.curvatures)

    def test_cap_closed_form(self):
        params = standard_of_volume(2, 2, [0.25, 0.75])
        pole = perpendicular_pole(params)
        out = conformal_step(params, pole, 1.0)
        k01 = params.pair_curvature(0, 1)
        assert abs(out.pair_curvature(0, 1) - k01 * math.cosh(1.0)) < 1e-12
        xi = math.cosh(1.0) / math.sinh(1.0) * pole
        assert abs(out.pair_center(0, 1) @ xi + out.pair_curvature(0, 1)) < 1e-12

    def test_group_property(self, skew_bubble_s2):
        pole = perpendicular_pole(skew_bubble_s2)
        two_steps = conformal_step(conformal_step(skew_bubble_s2, pole, 0.3),
                                   pole, 0.4)
        direct = conformal_step(skew_bubble_s2, pole, 0.7)
        assert np.allclose(two_steps.quasi_centers, direct.quasi_centers, atol=1e-12)
        assert np.allclose(two_steps.curvatures, direct.curvatures, atol=1e-12)

    def test_requires_perpendicular_pole(self, skew_bubble_s2):
        with pytest.raises(ValueError):
            conformal_step(skew_bubble_s2, np.array([1.0, 0.0, 0.0]), 0.5)

    def test_result_stays_spherical(self, skew_bubble_s2):
        pole = perpendicular_pole(skew_bubble_s2)
        out = conformal_step(skew_bubble_s2, pole, 0.8)
        graph = detect_interfaces(out)
        assert validate_spherical(out, graph).passed


class TestPcfDetect:
    def test_flat_cluster(self, equal_bubble_s2):
        rep = pcf_detect(equal_bubble_s2)
        assert rep.pcf and rep.conformally_flat
        assert np.max(np.abs(rep.xi)) < 1e-12

    def test_standard_bubble_always_compatible(self, skew_bubble_s2):
        rep = pcf_detect(skew_bubble_s2)
        assert rep.pcf
        assert rep.residual < 1e-12

    def test_band_cluster_is_not(self, band_cluster):
        assert not pcf_detect(band_cluster).pcf

    @pytest.mark.parametrize("t", [0.3, -0.3, 1.0, -1.0, 0.7])
    def test_conformal_step_parameter_recovered(self, band_cluster, t):
        pole = perpendicular_pole(band_cluster)
        stepped = conformal_step(band_cluster, pole, t)
        rep = pcf_detect(stepped)
        assert rep.pcf and rep.residual < 1e-8
        expected = math.cosh(t) / math.sinh(t)
        parallel = rep.xi @ pole
        assert abs(abs(parallel) - np.linalg.norm(rep.xi)) < 1e-6  # xi parallel to pole
        assert abs(parallel - expected) < 1e-6


class TestLseSolve:
    def test_pcf_closed_form_residual_zero(self, skew_bubble_s2, skew_bubble_graph):
        rng = np.random.default_rng(0)
        xi = pcf_detect(skew_bubble_s2).xi
        for _ in range(20):
            a = rng.standard_normal(3)
            a -= a.mean()
            closed = -np.outer(a, xi)
            assert lse_residual(skew_bubble_s2, skew_bubble_graph, closed, a) < 1e-10
            sol = lse_solve(skew_bubble_s2, skew_bubble_graph, a)
            assert sol.residual < 1e-10

    def test_quasi_center_image_solution(self, band_cluster, band_graph):
        theta = np.array([0.4, -0.2, 0.7, 0.1, -0.3])
        a = band_cluster.quasi_centers @ theta
        closed = np.outer(band_cluster.curvatures, theta)
        assert lse_residual(band_cluster, band_graph, closed, a) < 1e-12
        assert lse_solve(band_cluster, band_graph, a).residual < 1e-10

    def test_zero_input(self, skew_bubble_s2, skew_bubble_graph):
        sol = lse_solve(skew_bubble_s2, skew_bubble_graph, np.zeros(3))
        assert np.max(np.abs(sol.delta_centers)) < 1e-12
        assert np.max(np.abs(sol.delta_centers.sum(axis=0))) < 1e-12

    def test_solution_sums_to_zero(self, band_cluster, band_graph):
        a = np.array([0.5, -0.1, -0.2, -0.2])
        sol = lse_solve(band_cluster, band_graph, a)
        assert np.max(np.abs(sol.delta_centers.sum(axis=0))) < 1e-10


class TestGramPath:
    def test_standard_bubble_path_constant(self, skew_bubble_s2):
        for t in (0.0, 0.3, 1.0):
            out = gram_path(skew_bubble_s2, t)
            assert np.max(np.abs(out.quasi_centers @ out.quasi_centers.T
                                 - skew_bubble_s2.quasi_centers
                                 @ skew_bubble_s2.quasi_centers.T)) < 1e-10

    def test_identity_at_zero(self, sectored_cap_cluster):
        out = gram_path(sectored_cap_cluster, 0.0)
        assert np.max(np.abs(out.quasi_centers
                             - sectored_cap_cluster.quasi_centers)) < 1e-10

    def test_endpoint_reaches_standard_gram(self, sectored_cap_cluster):
        out = gram_path(sectored_cap_cluster, 1.0)
        q = out.q
        target = (0.5 * sum_zero_projector(q)
                  + np.outer(out.curvatures, out.curvatures))
        assert np.max(np.abs(out.quasi_centers @ out.quasi_centers.T - target)) < 1e-10

    def test_residuals_preserved_on_base_pairs(self, sectored_cap_cluster,
                                               sectored_cap_graph):
        worst = validate_along_path(sectored_cap_cluster, sectored_cap_graph,
                                    np.linspace(0, 1, 6))
        assert worst < 1e-10

    def test_eigenvalue_floor(self, sectored_cap_cluster):
        for t in (0.05, 0.2, 0.5, 1.0):
            assert gram_eigenvalue_floor(sectored_cap_cluster, t) >= t / 2 - 1e-9

    def test_curvatures_unchanged(self, band_cluster):
        out = gram_path(band_cluster, 0.6)
        assert np.allclose(out.curvatures, band_cluster.curvatures)

    def test_rank_becomes_full(self, band_cluster):
        out = gram_path(band_cluster, 0.4)
        assert np.linalg.matrix_rank(out.quasi_centers, tol=1e-8) == band_cluster.q - 1

    def test_rejects_out_of_range(self, band_cluster):
        with pytest.raises(ValueError):
            gram_path(band_cluster, 1.5)

    def test_rejects_more_cells_than_n_plus_2(self):
        five = gallery.five_cell_meeting_point()  # q = 5 on S^2
        with pytest.raises(ValueError, match=r"q <= n \+ 2.*q=5, n=2"):
            gram_path(five, 0.3)


class TestGramInvariance:
    def test_equal_bubble_constant(self, equal_bubble_s2, equal_bubble_graph):
        rep = gram_invariance_check(equal_bubble_s2, equal_bubble_graph,
                                    t_max=0.8, steps=3, samples=50_000, seed=5)
        assert rep.volume_deviation < 1e-12
        assert rep.perimeter_deviation < 1e-12

    def test_lower_dimensional_plateau_cluster(self, sectored_cap_cluster,
                                               sectored_cap_graph):
        rep = gram_invariance_check(sectored_cap_cluster, sectored_cap_graph,
                                    t_max=0.4, steps=4, samples=200_000, seed=6)
        assert rep.invariant_within_tolerance

    def test_fails_when_only_t0_is_compared(self):
        # pair (0, 2) appears at t = 0.1, so t = 0 would be compared with itself
        bands = gallery.band_stack(2, (0.2, 0.6))
        rep = gram_invariance_check(bands, detect_interfaces(bands))
        assert rep.first_new_interface_t == pytest.approx(0.1)
        assert rep.new_interface_pair == (0, 2)
        assert rep.times_compared == 1
        assert rep.volume_deviation == rep.perimeter_deviation == 0.0
        assert not rep.invariant_within_tolerance

    def test_compares_every_time_when_no_interface_appears(self, equal_bubble_s2,
                                                           equal_bubble_graph):
        rep = gram_invariance_check(equal_bubble_s2, equal_bubble_graph, t_max=0.8, steps=3)
        assert rep.first_new_interface_t is None and rep.new_interface_pair is None
        assert rep.times_compared == 4
        assert rep.invariant_within_tolerance

    def test_a_single_grid_time_shows_no_invariance(self, equal_bubble_s2,
                                                    equal_bubble_graph):
        rep = gram_invariance_check(equal_bubble_s2, equal_bubble_graph, steps=0)
        assert rep.times.tolist() == [0.0]
        assert rep.times_compared == 1
        assert rep.volume_deviation == rep.perimeter_deviation == 0.0
        assert not rep.invariant_within_tolerance

    @pytest.mark.parametrize("steps", [-1, -2])
    def test_rejects_negative_steps(self, equal_bubble_s2, equal_bubble_graph, steps):
        with pytest.raises(ValueError, match="steps must be non-negative"):
            gram_invariance_check(equal_bubble_s2, equal_bubble_graph, steps=steps)


class TestMeasurePath:
    """measure_path measures a Monte Carlo path in one pass over each sample block."""

    def test_one_pass_equals_measure_mc_at_each_time(self, draws, sectored_cap_cluster,
                                                     sectored_cap_graph):
        samples, seed = 32 * sampling.BLOCK + 1000, 13
        rep = gram_invariance_check(sectored_cap_cluster, sectored_cap_graph, t_max=0.5,
                                    steps=5, samples=samples, seed=seed)
        addresses = sorted(args[1:3] for args in draws)  # (stream label, block index)
        # pairs (0, 3) and (1, 3) appear at t = 0.3, so the path's graphs differ
        graphs = [sectored_cap_graph] + [detect_interfaces(gram_path(sectored_cap_cluster,
                                                                     float(t)))
                                         for t in rep.times[1:]]
        assert rep.first_new_interface_t == pytest.approx(0.3)
        assert rep.new_interface_pair == (0, 3)
        assert rep.times_compared == 3  # t = 0, 0.1 and 0.2
        union = sorted({pair for graph in graphs for pair in graph.pairs()})
        assert {(0, 3), (1, 3)} <= set(union) - set(sectored_cap_graph.pairs())
        # every (label, block) is drawn once: one volume stream and one wall
        # stream for every pair of every time
        layout = sampling.row_blocks(samples)
        labels = [measure._VOLUME_STREAM, measure._WALL_STREAM]
        assert addresses == sorted((label, b) for label in labels for b in range(len(layout)))
        # measure_mc is the one-cluster pass, so the oracle is the volumes and
        # the areas measured apart
        for t, graph, got in zip(rep.times, graphs, rep.reports):
            params = gram_path(sectored_cap_cluster, float(t))
            volumes, volume_stderr = measure.cell_volumes_mc(params, samples, seed)
            areas, area_stderr = measure.interface_areas(params, graph, "mc", samples, seed)
            want = {"volumes": volumes, "areas": areas, "volume_stderr": volume_stderr,
                    "area_stderr": area_stderr}
            for name, array in want.items():
                assert getattr(got, name).tobytes() == array.tobytes(), (t, name)
            assert got.backend == {"kind": "monte_carlo", "seed": seed, "samples": samples}

    def test_s2_path_stays_exact(self, monkeypatch, skew_bubble_s2, skew_bubble_graph):
        draws = []
        monkeypatch.setattr(sampling, "unit_block", lambda *args: draws.append(args))
        rep = gram_invariance_check(skew_bubble_s2, skew_bubble_graph, t_max=0.5, steps=2,
                                    samples=10_000, seed=3)
        assert [r.backend for r in rep.reports] == [{"kind": "exact_s2"}] * 3
        assert draws == []

    def test_one_pass_needs_one_shape(self, sectored_cap_cluster, sectored_cap_graph,
                                      skew_bubble_s2, skew_bubble_graph):
        with pytest.raises(ValueError, match="share n and q"):
            measure.measure_mc_many([(sectored_cap_cluster, sectored_cap_graph),
                                     (skew_bubble_s2, skew_bubble_graph)], 1000, 0)
