"""Quasi-center / normal-moment / conformal-to-volume operators and identities."""

import math

import numpy as np
import pytest

from bubblelab import (check_product_identity,
                       conformal_step, conformal_to_volume_pcf,
                       conformal_to_volume_relaxed, detect_interfaces,
                       locality_probe, measure_exact_s2, measure_mc,
                       normal_moment_operator, pcf_detect, perpendicular_pole,
                       quasi_center_operator, standard_of_curvature,
                       trace_identity_residual)
from bubblelab import gallery, measure, operators, sampling
from bubblelab.measure import measure_mc as _measure_mc
from bubblelab.operators import SimplexOperator, trace_identity_allowance
from bubblelab.simplex import restrict, sum_zero_projector
from reference import random_orthogonal, rotated


class TestQuasiCenterOperator:
    def test_rows_are_centers(self, skew_bubble_s2):
        op = quasi_center_operator(skew_bubble_s2)
        assert np.array_equal(op.matrix, skew_bubble_s2.quasi_centers)

    def test_equal_bubble_gram(self, equal_bubble_s2):
        op = quasi_center_operator(equal_bubble_s2)
        assert np.max(np.abs(op.matrix @ op.matrix.T
                             - 0.5 * sum_zero_projector(3))) < 1e-13

    def test_annihilated_by_pole(self, skew_bubble_s2):
        pole = perpendicular_pole(skew_bubble_s2)
        assert np.max(np.abs(quasi_center_operator(skew_bubble_s2).matrix @ pole)) < 1e-12


class TestNormalMomentOperator:
    def test_equal_bubble_closed_form(self, equal_bubble_s2, equal_bubble_graph):
        # flat walls: normals constant, so N = sum areas e_ij (x) c_ij = (3/4) C
        n_op = normal_moment_operator(equal_bubble_s2, equal_bubble_graph,
                                      backend="exact")
        assert np.max(np.abs(n_op.matrix
                             - 0.75 * equal_bubble_s2.quasi_centers)) < 1e-12

    def test_pole_column_vanishes_on_perpendicular(self, skew_bubble_s2,
                                                   skew_bubble_graph):
        n_op = normal_moment_operator(skew_bubble_s2, skew_bubble_graph,
                                      backend="exact")
        pole = perpendicular_pole(skew_bubble_s2)
        assert np.max(np.abs(n_op.matrix @ pole)) < 1e-12

    def test_cross_backend_agreement_on_cap(self, skew_bubble_s2, skew_bubble_graph,
                                            monkeypatch):
        from bubblelab import standard_of_volume

        params = standard_of_volume(2, 2, [0.25, 0.75])
        graph = detect_interfaces(params)
        exact = normal_moment_operator(params, graph, backend="exact")
        mc = normal_moment_operator(params, graph, backend="mc",
                                    samples=300_000, seed=3)
        assert np.all(np.abs(mc.matrix - exact.matrix)
                      <= 4.5 * np.maximum(mc.entry_stderr, 1e-9))
        # the plain-area weight None gives the areas of the constant weight 1
        # bit for bit, on both backends
        plain = {backend: normal_moment_operator(skew_bubble_s2, skew_bubble_graph,
                                                 backend=backend, samples=300_000, seed=3)
                 for backend in ("exact", "mc")}
        laplacians = operators.weighted_laplacians

        def ones_for_none(params, graph, weights, **kwargs):
            ones = [(lambda pts: np.ones(len(pts))) if weight is None else weight
                    for weight in weights]
            return laplacians(params, graph, ones, **kwargs)

        monkeypatch.setattr(operators, "weighted_laplacians", ones_for_none)
        for backend, n_op in plain.items():
            ones = normal_moment_operator(skew_bubble_s2, skew_bubble_graph,
                                          backend=backend, samples=300_000, seed=3)
            assert np.array_equal(n_op.matrix, ones.matrix), backend
            assert np.array_equal(n_op.entry_stderr, ones.entry_stderr), backend

    def test_one_wall_pass_per_pair(self, draws):
        # area and n+1 moments of every pair are reduced over one draw of each
        # wall block
        params = standard_of_curvature(3, 4, np.array([0.2, -0.1, 0.05, -0.15]))
        graph = detect_interfaces(params)
        assert len(graph.pairs()) == 6
        samples = 32 * sampling.BLOCK + 500
        normal_moment_operator(params, graph, backend="mc", samples=samples, seed=5)
        calls = [args[1:3] for args in draws]  # (stream label, block index)
        # each wall block is drawn once per call, whatever the pair count
        assert len(calls) == len(sampling.row_blocks(samples))
        assert len(set(calls)) == len(calls)
        assert {label for label, _ in calls} == {measure._WALL_STREAM}


class TestConformalToVolume:
    def test_flat_cluster_gives_unit_laplacian(self, equal_bubble_s2,
                                               equal_bubble_graph):
        f_op = conformal_to_volume_pcf(equal_bubble_s2, equal_bubble_graph,
                                       np.zeros(3), backend="exact")
        assert np.max(np.abs(restrict(f_op.matrix) - 0.75 * np.eye(2))) < 1e-12

    def test_conformally_flat_positive_definite(self, skew_bubble_s2,
                                                skew_bubble_graph):
        rep = pcf_detect(skew_bubble_s2)
        assert rep.conformally_flat
        f_op = conformal_to_volume_pcf(skew_bubble_s2, skew_bubble_graph, rep.xi,
                                       backend="exact")
        assert np.linalg.eigvalsh(restrict(f_op.matrix)).min() > 0

    def test_matches_relaxed_on_perpendicular_pcf(self, skew_bubble_s2,
                                                  skew_bubble_graph):
        rep = pcf_detect(skew_bubble_s2)
        pole = perpendicular_pole(skew_bubble_s2)
        f_op = conformal_to_volume_pcf(skew_bubble_s2, skew_bubble_graph, rep.xi,
                                       backend="exact")
        f0 = conformal_to_volume_relaxed(skew_bubble_s2, skew_bubble_graph, pole,
                                         backend="exact")
        assert np.max(np.abs(f_op.matrix - f0.matrix)) < 1e-12

    def test_rejects_bad_xi(self, skew_bubble_s2, skew_bubble_graph):
        with pytest.raises(ValueError):
            conformal_to_volume_pcf(skew_bubble_s2, skew_bubble_graph,
                                    np.array([5.0, 0.0, 0.0]), backend="exact")

    def test_relaxed_meridian_value(self, equal_bubble_s2, equal_bubble_graph):
        pole = np.array([0.0, 0.0, 1.0])
        f0 = conformal_to_volume_relaxed(equal_bubble_s2, equal_bubble_graph,
                                         pole, backend="exact")
        assert np.max(np.abs(restrict(f0.matrix) - 0.75 * np.eye(2))) < 1e-12
        assert np.max(np.abs(f0.matrix @ np.ones(3))) < 1e-15

    def test_relaxed_requires_perpendicular(self, skew_bubble_s2, skew_bubble_graph):
        with pytest.raises(ValueError):
            conformal_to_volume_relaxed(skew_bubble_s2, skew_bubble_graph,
                                        np.array([1.0, 0.0, 0.0]), backend="exact")

    def test_flow_family_converges_to_relaxed(self, band_cluster, band_graph):
        pole = perpendicular_pole(band_cluster)
        f0 = conformal_to_volume_relaxed(band_cluster, band_graph, pole,
                                         backend="mc", samples=2_000_000, seed=4)
        prev = prev_err = None
        for t in (0.2, 0.1, 0.05):
            stepped = conformal_step(band_cluster, pole, t)
            graph_t = detect_interfaces(stepped)
            xi = math.cosh(t) / math.sinh(t) * pole
            f_t = conformal_to_volume_pcf(stepped, graph_t, xi, backend="mc",
                                          samples=2_000_000, seed=4)
            gap = np.max(np.abs(f_t.matrix - f0.matrix))
            # the weight 1 - <p, xi> grows like coth t, and so does the noise of
            # F_t: the gap may not rise by more than 5 sigma of both gaps' errors
            err = math.hypot(np.max(f0.entry_stderr), np.max(f_t.entry_stderr))
            if prev is not None:
                assert gap < prev + 5 * math.hypot(err, prev_err)
            prev, prev_err = gap, err
        assert prev < 0.01


class TestIdentities:
    def test_product_identity_equal_bubble(self, equal_bubble_s2, equal_bubble_graph):
        f_op = conformal_to_volume_pcf(equal_bubble_s2, equal_bubble_graph,
                                       np.zeros(3), backend="exact")
        c_op = quasi_center_operator(equal_bubble_s2)
        n_op = normal_moment_operator(equal_bubble_s2, equal_bubble_graph,
                                      backend="exact")
        meas = measure_exact_s2(equal_bubble_s2, equal_bubble_graph)
        ident = check_product_identity(f_op, c_op, n_op, meas.total_perimeter)
        assert ident.product_residual < 1e-12
        assert ident.trace_residual < 1e-12

    def test_product_identity_general_pcf(self, skew_bubble_s2, skew_bubble_graph):
        rep = pcf_detect(skew_bubble_s2)
        f_op = conformal_to_volume_pcf(skew_bubble_s2, skew_bubble_graph, rep.xi,
                                       backend="exact")
        c_op = quasi_center_operator(skew_bubble_s2)
        n_op = normal_moment_operator(skew_bubble_s2, skew_bubble_graph,
                                      backend="exact")
        meas = measure_exact_s2(skew_bubble_s2, skew_bubble_graph)
        ident = check_product_identity(f_op, c_op, n_op, meas.total_perimeter)
        assert ident.product_residual < 1e-12
        assert ident.trace_residual < 1e-12

    def test_zero_operator_sanity(self, equal_bubble_s2, equal_bubble_graph):
        zero = SimplexOperator(np.zeros((3, 3)))
        c_op = quasi_center_operator(equal_bubble_s2)
        n_op = normal_moment_operator(equal_bubble_s2, equal_bubble_graph,
                                      backend="exact")
        ident = check_product_identity(zero, c_op, n_op, 0.75)
        assert abs(ident.product_residual - np.max(np.abs(n_op.matrix))) < 1e-14

    def test_trace_identity_equal_bubble(self, equal_bubble_s2, equal_bubble_graph):
        f_op = conformal_to_volume_pcf(equal_bubble_s2, equal_bubble_graph,
                                       np.zeros(3), backend="exact")
        assert abs(trace_identity_residual(f_op, np.zeros(3), 0.75)) < 1e-13

    def test_trace_identity_along_flow(self, skew_bubble_s2):
        pole = perpendicular_pole(skew_bubble_s2)
        for t in (0.1, 0.5, 1.0):
            stepped = conformal_step(skew_bubble_s2, pole, t)
            graph = detect_interfaces(stepped)
            xi = math.cosh(t) / math.sinh(t) * pole
            f_op = conformal_to_volume_pcf(stepped, graph, xi, backend="exact")
            meas = measure_exact_s2(stepped, graph)
            assert abs(trace_identity_residual(
                f_op, stepped.curvatures, meas.total_perimeter)) < 1e-12

    def test_trace_identity_relaxed_on_bands(self, band_cluster, band_graph):
        pole = perpendicular_pole(band_cluster)
        f0 = conformal_to_volume_relaxed(band_cluster, band_graph, pole,
                                         backend="mc", samples=1_000_000, seed=6)
        meas = _measure_mc(band_cluster, band_graph, samples=1_000_000, seed=6)
        residual = trace_identity_residual(f0, band_cluster.curvatures,
                                           meas.total_perimeter)
        allowed = trace_identity_allowance(f0, band_cluster.curvatures,
                                           meas.perimeter_stderr, sigma=4.5)
        assert abs(residual) <= allowed


class TestLocality:
    def test_pcf_cluster_local(self):
        params = gallery.sectored_cap(4, 0.8)
        graph = detect_interfaces(params)
        pole = perpendicular_pole(params)
        stepped = conformal_step(params, pole, 0.3)
        graph_t = detect_interfaces(stepped)
        xi = math.cosh(0.3) / math.sinh(0.3) * pole
        f_op = conformal_to_volume_pcf(stepped, graph_t, xi, backend="mc",
                                       samples=400_000, seed=2)
        probe = locality_probe(f_op, graph_t)
        assert probe.empty_pairs  # the cap does not touch two of the sectors
        assert probe.max_empty_pair_weight < 1e-12

    def test_vacuous_on_complete_graph(self, equal_bubble_s2, equal_bubble_graph):
        f_op = conformal_to_volume_pcf(equal_bubble_s2, equal_bubble_graph,
                                       np.zeros(3), backend="exact")
        probe = locality_probe(f_op, equal_bubble_graph)
        assert probe.empty_pairs == []
        assert probe.max_empty_pair_weight == 0.0

    def test_synthetic_violation_detected(self, band_cluster, band_graph):
        q = band_cluster.q
        ident = SimplexOperator(sum_zero_projector(q))
        probe = locality_probe(ident, band_graph)
        assert probe.max_empty_pair_weight > 0.1


class TestEquivariance:
    def test_permutation_conjugates_operators(self, skew_bubble_s2):
        perm = [2, 0, 1]
        relabeled = standard_of_curvature(2, 3, skew_bubble_s2.curvatures[perm])
        g1 = detect_interfaces(skew_bubble_s2)
        g2 = detect_interfaces(relabeled)
        f1 = conformal_to_volume_pcf(skew_bubble_s2, g1,
                                     pcf_detect(skew_bubble_s2).xi, backend="exact")
        f2 = conformal_to_volume_pcf(relabeled, g2, pcf_detect(relabeled).xi,
                                     backend="exact")
        p = np.eye(3)[perm]
        assert np.max(np.abs(p.T @ f2.matrix @ p - f1.matrix)) < 1e-10

    def test_rotation_leaves_f_invariant(self, skew_bubble_s2):
        rot = random_orthogonal(3, np.random.default_rng(5))
        turned = rotated(skew_bubble_s2, rot)
        g1 = detect_interfaces(skew_bubble_s2)
        g2 = detect_interfaces(turned)
        f1 = conformal_to_volume_pcf(skew_bubble_s2, g1,
                                     pcf_detect(skew_bubble_s2).xi, backend="exact")
        f2 = conformal_to_volume_pcf(turned, g2, pcf_detect(turned).xi,
                                     backend="exact")
        assert np.max(np.abs(f1.matrix - f2.matrix)) < 1e-10
        c1 = quasi_center_operator(skew_bubble_s2).matrix
        c2 = quasi_center_operator(turned).matrix
        assert np.max(np.abs(c2 - c1 @ rot.T)) < 1e-12

    def test_symmetry_and_annihilation(self, skew_bubble_s2, skew_bubble_graph):
        f_op = conformal_to_volume_pcf(skew_bubble_s2, skew_bubble_graph,
                                       pcf_detect(skew_bubble_s2).xi,
                                       backend="exact")
        assert np.max(np.abs(f_op.matrix - f_op.matrix.T)) < 1e-12
        assert np.max(np.abs(f_op.matrix @ np.ones(3))) < 1e-15


class TestMonteCarloConvergence:
    def test_residuals_shrink_with_samples(self, skew_bubble_s2, skew_bubble_graph):
        rep = pcf_detect(skew_bubble_s2)
        exact = conformal_to_volume_pcf(skew_bubble_s2, skew_bubble_graph, rep.xi,
                                        backend="exact")
        errors = []
        for samples in (40_000, 160_000, 640_000):
            mc = conformal_to_volume_pcf(skew_bubble_s2, skew_bubble_graph, rep.xi,
                                         backend="mc", samples=samples, seed=8)
            errors.append(np.max(np.abs(mc.matrix - exact.matrix)))
        # quadrupling samples should roughly halve the error (within slack)
        assert errors[2] < errors[0]
        assert errors[2] < 0.55 * errors[0] + 1e-4
