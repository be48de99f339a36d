"""Standard bubbles, Moebius maps, prescribed volumes, model profile."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import (NewtonConfig, apply_mobius, complete_graph,
                       detect_interfaces, equal_volume_standard, measure_exact_s2,
                       mobius_point_flow, model_profile, pde_residual,
                       perpendicular_pole, standard_of_curvature,
                       standard_of_volume, validate_spherical)
from bubblelab import measure, sampling, standard
from bubblelab.cluster import spherical_residuals
from bubblelab.simplex import sum_zero_basis, sum_zero_projector
from bubblelab.standard import gradient_vs_curvature
from reference import (exact_volume_jacobian, fd_volume_newton, mobius_conformal_factor,
                       random_orthogonal, rotated)


def random_kappa(q, rng, scale=0.5):
    k = scale * rng.standard_normal(q)
    return k - k.mean()


class TestEqualVolumeStandard:
    def test_hemispheres(self):
        params = equal_volume_standard(2, 2)
        assert abs(np.linalg.norm(params.pair_center(0, 1)) - 1.0) < 1e-14
        assert np.all(params.curvatures == 0.0)

    def test_three_lunes(self, equal_bubble_s2, equal_bubble_graph):
        report = measure_exact_s2(equal_bubble_s2, equal_bubble_graph)
        assert np.max(np.abs(report.volumes - 1.0 / 3.0)) < 1e-13
        assert abs(report.total_perimeter - 0.75) < 1e-13

    def test_gram_identity_all_admissible(self):
        for n in range(2, 6):
            for q in range(2, n + 3):
                params = equal_volume_standard(n, q)
                gram = params.quasi_centers @ params.quasi_centers.T
                assert np.max(np.abs(gram - 0.5 * sum_zero_projector(q))) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            equal_volume_standard(2, 5)


class TestMobiusPointFlow:
    def test_identity_at_zero(self):
        p = np.array([0.6, 0.8, 0.0])
        assert np.allclose(mobius_point_flow(p, [0, 0, 1], 0.0), p)

    def test_pole_is_fixed(self):
        pole = np.array([0.0, 0.0, 1.0])
        assert np.allclose(mobius_point_flow(pole, pole, 1.7), pole)

    def test_orthogonal_point_moves_by_tanh(self):
        p = np.array([1.0, 0.0, 0.0])
        pole = np.array([0.0, 0.0, 1.0])
        out = mobius_point_flow(p, pole, math.log(2.0))
        assert abs(out @ pole - 3.0 / 5.0) < 1e-14  # tanh(ln 2) = 3/5
        assert abs(np.linalg.norm(out) - 1.0) < 1e-14

    @given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_group_law(self, s, t, seed):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        pole = np.array([0.0, 0.0, 1.0])
        once = mobius_point_flow(mobius_point_flow(p, pole, s), pole, t)
        direct = mobius_point_flow(p, pole, s + t)
        assert np.max(np.abs(once - direct)) < 1e-10

    def test_conformal_factor_formula(self):
        rng = np.random.default_rng(1)
        p = rng.standard_normal(4)
        p /= np.linalg.norm(p)
        pole = np.zeros(4)
        pole[3] = 1.0
        t = 0.73
        assert abs(mobius_conformal_factor(p, pole, t)
                   - 1.0 / (math.cosh(t) + (p @ pole) * math.sinh(t))) < 1e-15


class TestApplyMobius:
    def test_identity_at_zero(self, skew_bubble_s2):
        out = apply_mobius(skew_bubble_s2, [0, 0, 1], 0.0)
        assert np.allclose(out.quasi_centers, skew_bubble_s2.quasi_centers)
        assert np.allclose(out.curvatures, skew_bubble_s2.curvatures)

    def test_perpendicular_curvatures_scale_by_cosh(self, skew_bubble_s2):
        pole = perpendicular_pole(skew_bubble_s2)
        out = apply_mobius(skew_bubble_s2, pole, 0.9)
        assert np.allclose(out.curvatures,
                           skew_bubble_s2.curvatures * math.cosh(0.9), atol=1e-14)

    def test_non_unit_pole_rejected(self, skew_bubble_s2):
        with pytest.raises(ValueError):
            apply_mobius(skew_bubble_s2, [0.0, 0.0, 2.0], 0.1)

    def test_residuals_preserved_under_random_flows(self, skew_bubble_s2):
        rng = np.random.default_rng(7)
        base = spherical_residuals(skew_bubble_s2)
        for _ in range(100):
            theta = rng.standard_normal(3)
            theta /= np.linalg.norm(theta)
            t = rng.uniform(-1.0, 1.0)
            out = apply_mobius(skew_bubble_s2, theta, t)
            assert np.max(np.abs(spherical_residuals(out) - base)) < 1e-10

    def test_composition(self, skew_bubble_s2):
        pole = perpendicular_pole(skew_bubble_s2)
        a = apply_mobius(apply_mobius(skew_bubble_s2, pole, 0.4), pole, 0.3)
        b = apply_mobius(skew_bubble_s2, pole, 0.7)
        assert np.allclose(a.quasi_centers, b.quasi_centers, atol=1e-12)

    def test_volumes_match_pushforward_weights(self, hemispheres):
        # V(Phi_t(cell)) equals the Jacobian-weighted count of flowed samples
        pole = np.array([0.0, 1.0, 0.0])  # orthogonal to the hemisphere centers
        t = 1.0
        flowed = apply_mobius(hemispheres, pole, t)
        graph = detect_interfaces(flowed, samples_per_pair=512, rng_seed=0)
        exact = measure_exact_s2(flowed, graph)
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((400_000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        weights = mobius_conformal_factor(pts, pole, t) ** 2  # n = 2
        cells = np.argmin(hemispheres.affine_values(pts), axis=1)
        est = np.array([weights[cells == i].sum() for i in range(2)]) / len(pts)
        assert np.max(np.abs(est - exact.volumes)) < 4.0 * 1.5 / math.sqrt(len(pts))


class TestStandardOfCurvature:
    def test_zero_kappa_matches_equal_volume(self):
        a = standard_of_curvature(3, 4, np.zeros(4))
        gram_a = a.quasi_centers @ a.quasi_centers.T
        b = equal_volume_standard(3, 4)
        gram_b = b.quasi_centers @ b.quasi_centers.T
        assert np.max(np.abs(gram_a - gram_b)) < 1e-12

    def test_full_gram_identity_random(self):
        rng = np.random.default_rng(2)
        for n, q in ((2, 3), (3, 4), (4, 5), (5, 6), (4, 6)):
            kappa = random_kappa(q, rng)
            params = standard_of_curvature(n, q, kappa)
            target = 0.5 * sum_zero_projector(q) + np.outer(kappa, kappa)
            gram = params.quasi_centers @ params.quasi_centers.T
            assert np.max(np.abs(gram - target)) < 1e-10
            assert validate_spherical(params).passed

    def test_single_pair_identity(self):
        k = 0.35
        params = standard_of_curvature(3, 2, np.array([k, -k]))
        assert abs(np.linalg.norm(params.pair_center(0, 1)) ** 2
                   - (1.0 + 4.0 * k * k)) < 1e-12

    def test_measures_invariant_under_embedding_rotation(self):
        rng = np.random.default_rng(4)
        kappa = random_kappa(3, rng)
        params = standard_of_curvature(2, 3, kappa)
        turned = rotated(params, random_orthogonal(3, rng))
        g1 = detect_interfaces(params, rng_seed=1)
        g2 = detect_interfaces(turned, rng_seed=1)
        r1 = measure_exact_s2(params, g1)
        r2 = measure_exact_s2(turned, g2)
        assert np.max(np.abs(np.sort(r1.volumes) - np.sort(r2.volumes))) < 1e-10
        assert abs(r1.total_perimeter - r2.total_perimeter) < 1e-10


class TestStandardOfVolume:
    def test_equal_volumes_give_zero_kappa(self):
        params = standard_of_volume(2, 3, [1 / 3, 1 / 3, 1 / 3])
        assert np.max(np.abs(params.curvatures)) < 1e-8

    def test_quarter_cap_curvature(self):
        # cos t = 1 - 2 v = 1/2, so kappa_01 = cot t = 1/sqrt(3)
        params = standard_of_volume(2, 2, [0.25, 0.75])
        assert abs(params.pair_curvature(0, 1) - 1.0 / math.sqrt(3.0)) < 1e-9

    def test_permutation_equivariance(self):
        v = [0.5, 0.3, 0.2]
        direct = standard_of_volume(2, 3, v)
        perm = standard_of_volume(2, 3, [v[1], v[2], v[0]])
        expected = direct.curvatures[[1, 2, 0]]
        assert np.max(np.abs(perm.curvatures - expected)) < 1e-8

    def test_realizes_target_volumes(self):
        target = np.array([0.2, 0.45, 0.35])
        params = standard_of_volume(2, 3, target)
        rep = measure_exact_s2(params, complete_graph(3))
        assert np.max(np.abs(rep.volumes - target)) < 1e-9

    @pytest.mark.parametrize("volumes", [[0.5, 0.5, 0.0], [math.nan, 0.5, 0.5],
                                         [0.5, 0.5], [0.7, 0.7, -0.4]])
    def test_rejects_bad_volumes(self, volumes):
        # NaN fails every comparison, so it must be caught before Newton sees it
        with pytest.raises(ValueError, match="volumes must be positive and sum to 1"):
            standard_of_volume(2, 3, volumes)


class TestExactVolumeJacobian:
    """The exact Newton's Jacobian, from the first variation of volume."""

    @staticmethod
    def residual(q, y):
        basis = sum_zero_basis(q)
        params = standard_of_curvature(2, q, basis @ y)
        return basis.T @ measure_exact_s2(params, complete_graph(q)).volumes

    @pytest.mark.parametrize("volumes", [[0.3, 0.7], [0.05, 0.95], [0.2, 0.45, 0.35],
                                         [0.05, 0.55, 0.4], [0.25, 0.2, 0.3, 0.25],
                                         [0.3, 0.05, 0.25, 0.4]])
    def test_matches_central_differences(self, volumes):
        q = len(volumes)
        y = sum_zero_basis(q).T @ standard_of_volume(2, q, volumes).curvatures
        step = 1e-5
        central = np.column_stack([
            (self.residual(q, y + step * e) - self.residual(q, y - step * e)) / (2 * step)
            for e in np.eye(q - 1)])
        assert np.max(np.abs(exact_volume_jacobian(2, q, y) - central)) <= 1e-8

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_solves_match_finite_difference_newton(self, q):
        rng = np.random.default_rng(40 + q)
        basis = sum_zero_basis(q)
        volume_of = measure.cell_volume_function(complete_graph(q), 2, "exact")
        for v in [np.full(q, 1.0 / q)] + [0.05 + (1 - 0.05 * q) * rng.dirichlet(np.ones(q))
                                          for _ in range(4)]:
            y, _, res = fd_volume_newton(2, q, v, NewtonConfig().tol, volume_of)
            assert res <= NewtonConfig().tol
            solved = standard_of_volume(2, q, v)
            assert np.max(np.abs(solved.curvatures - basis @ y)) <= 1e-12

    def test_q4_solve_makes_half_the_volume_evaluations(self, monkeypatch):
        # an exact volume evaluation extracts the arcs of its point once, and
        # the analytic Jacobian extracts none
        calls = []
        extract = measure.extract_arcs

        def counted(params, graph):
            calls.append(params)
            return extract(params, graph)

        monkeypatch.setattr(measure, "extract_arcs", counted)
        v = np.array([0.1, 0.2, 0.3, 0.4])
        volume_of = measure.cell_volume_function(complete_graph(4), 2, "exact")
        fd_volume_newton(2, 4, v, NewtonConfig().tol, volume_of)
        before = len(calls)
        calls.clear()
        standard_of_volume(2, 4, v)
        assert 0 < len(calls) <= before / 2

    @pytest.mark.parametrize("solve", [
        lambda: standard_of_volume(2, 4, [0.1, 0.2, 0.3, 0.4]),
        lambda: model_profile(2, 3, [0.4, 0.35, 0.25])], ids=["standard_of_volume", "profile"])
    def test_one_extraction_per_parameter_vector(self, monkeypatch, solve):
        # the Jacobian, the grid solves' starts at the center and the profile's
        # perimeters reuse the arcs of the residual at the same point
        keys = []
        extract = measure.extract_arcs

        def counted(params, graph):
            keys.append(params.quasi_centers.tobytes() + params.curvatures.tobytes())
            return extract(params, graph)

        monkeypatch.setattr(measure, "extract_arcs", counted)
        solve()
        assert keys and len(keys) == len(set(keys))

    @pytest.mark.parametrize("solve", [
        lambda: standard_of_volume(2, 4, [0.1, 0.2, 0.3, 0.4]),
        lambda: model_profile(2, 3, [0.4, 0.35, 0.25])], ids=["standard_of_volume", "profile"])
    def test_one_standard_bubble_per_curvature_vector(self, monkeypatch, solve):
        # a solve carries each point's bubble to its Jacobian, its result and
        # the profile's perimeters, and the grid solves start at the center
        # point without building it again
        keys = []
        build = standard.standard_of_curvature

        def counted(n, q, kappa):
            keys.append(np.asarray(kappa, dtype=float).tobytes())
            return build(n, q, kappa)

        monkeypatch.setattr(standard, "standard_of_curvature", counted)
        solve()
        assert keys and len(keys) == len(set(keys))


class TestNewtonStall:
    def test_stall_at_a_fresh_jacobian_ends_the_solve(self):
        # On a piecewise-constant volume map, as Monte Carlo volumes are, the
        # line search stalls where no step lowers the residual. A Jacobian
        # rebuilt at the y it was built at is the same, so the solve stops
        # there, with the result the solve that rebuilds it twice returns.
        exact = measure.cell_volume_function(complete_graph(3), 2, "exact")
        calls = {"new": 0, "old": 0}

        def stepped(key):
            def volume_of(params):
                calls[key] += 1
                return np.round(exact(params), 4)
            return volume_of

        cfg = NewtonConfig(backend="mc")
        tol, fd_step = cfg.tolerances(2)
        v = np.array([0.55473, 0.2, 0.24527])  # off the 1e-4 grid of the map
        (y, _, _, jac), res = standard._volume_newton(2, 3, v, cfg, stepped("new"))
        want_y, want_jac, want_res = fd_volume_newton(2, 3, v, tol, stepped("old"),
                                                      fd_step=fd_step)
        assert res > tol  # it stalled
        assert np.array_equal(y, want_y) and np.array_equal(jac, want_jac)
        assert res == want_res
        assert calls["new"] < calls["old"]


class TestModelProfile:
    def test_single_bubble_closed_form(self):
        cfg = NewtonConfig(tol=1e-11)
        for v in (0.5, 0.25, 0.4):
            point = model_profile(2, 2, [v, 1 - v], cfg=cfg)
            assert abs(point.value - math.sqrt(v * (1 - v))) < 1e-10

    def test_equal_double_bubble_value(self):
        point = model_profile(2, 3, [1 / 3, 1 / 3, 1 / 3], cfg=NewtonConfig(tol=1e-11))
        assert abs(point.value - 0.75) < 1e-10
        assert np.max(np.abs(point.grad)) < 1e-5  # symmetry: gradient vanishes

    def test_gradient_matches_curvature(self):
        point = model_profile(2, 3, [0.5, 0.3, 0.2], fd_step_hess=2e-3,
                              cfg=NewtonConfig(tol=1e-11))
        assert gradient_vs_curvature(point) < 1e-3

    def test_symmetry_under_permutation(self):
        cfg = NewtonConfig(tol=1e-11)
        a = model_profile(2, 3, [0.5, 0.3, 0.2], cfg=cfg)
        b = model_profile(2, 3, [0.2, 0.5, 0.3], cfg=cfg)
        assert abs(a.value - b.value) < 1e-9

    def test_pde_residual_exact_backend(self):
        cfg = NewtonConfig(tol=1e-11)
        for n, q, v in ((2, 2, [0.5, 0.5]), (2, 2, [0.25, 0.75]),
                        (2, 3, [0.45, 0.3, 0.25])):
            point = model_profile(n, q, v, fd_step_grad=1e-3, fd_step_hess=2e-3,
                                  cfg=cfg)
            assert abs(pde_residual(point)) < 1e-4

    @pytest.mark.parametrize("volumes", [[0.7, 0.7], [math.nan, 0.5], [0.5, 0.3, 0.2]])
    def test_rejects_bad_volumes(self, volumes):
        # [0.7, 0.7] would otherwise be solved at its sum-zero projection [0.5, 0.5]
        with pytest.raises(ValueError, match="volumes must be positive and sum to 1"):
            model_profile(2, 2, volumes)

    def test_fd_step_guard(self):
        with pytest.raises(ValueError):
            model_profile(2, 2, [0.02, 0.98], fd_step_hess=0.1)

    @pytest.mark.parametrize("volumes, grad, hess, match", [
        ([0.4, 0.6], 0.0, 2e-2, "positive and finite"),
        ([0.4, 0.6], 1e-3, 0.0, "positive and finite"),
        ([0.4, 0.6], 1e-3, -1e-3, "positive and finite"),
        ([0.4, 0.6], 1e-3, -0.5, "positive and finite"),
        ([0.4, 0.6], math.nan, 2e-2, "positive and finite"),
        ([0.4, 0.6], 1e-3, math.inf, "positive and finite"),
        # the gradient step alone would take v - step below 0
        ([0.1, 0.9], 0.2, 1e-3, "too large"),
    ], ids=["grad-zero", "hess-zero", "hess-negative", "hess-negative-large", "grad-nan",
            "hess-inf", "grad-too-large"])
    def test_rejects_degenerate_steps(self, volumes, grad, hess, match):
        with pytest.raises(ValueError, match=match):
            model_profile(2, 2, volumes, fd_step_grad=grad, fd_step_hess=hess)


class TestVolumeTrackerScope:
    """Monte Carlo volume solves hold one VolumeTracker for the length of a call."""

    def test_no_tracker_outlives_its_call(self, monkeypatch):
        made = []

        class Recorded(measure.VolumeTracker):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(measure, "VolumeTracker", Recorded)
        names = {module: set(vars(module)) for module in (measure, standard, sampling)}
        cfg = NewtonConfig(backend="mc", mc_samples=300_000, mc_seed=4)
        standard_of_volume(3, 3, [0.5, 0.3, 0.2], cfg)
        assert len(made) == 1 and made[0]() is None
        model_profile(3, 2, [0.45, 0.55], fd_step_grad=1e-2, fd_step_hess=5e-2, cfg=cfg)
        # the center solve and every grid solve shared one tracker, released on return
        assert len(made) == 2 and made[1]() is None
        standard_of_volume(2, 3, [0.5, 0.3, 0.2])
        model_profile(2, 2, [0.4, 0.6], cfg=NewtonConfig(tol=1e-11))
        assert len(made) == 2  # none on the exact backend
        assert {module: set(vars(module)) for module in names} == names

    def test_profile_measures_its_center_once(self, monkeypatch):
        # the value(0) solve and every grid solve start at the center solve's
        # last point, whose volumes they take without measuring it again
        keys = []
        volumes = measure.VolumeTracker.volumes

        def counted(self, params):
            keys.append(params.quasi_centers.tobytes() + params.curvatures.tobytes())
            return volumes(self, params)

        monkeypatch.setattr(measure.VolumeTracker, "volumes", counted)
        cfg = NewtonConfig(backend="mc", mc_samples=300_000, mc_seed=4)
        point = model_profile(3, 2, [0.45, 0.55], fd_step_grad=1e-2, fd_step_hess=5e-2, cfg=cfg)
        center = standard_of_curvature(3, 2, point.kappa)
        assert keys.count(center.quasi_centers.tobytes() + center.curvatures.tobytes()) == 1

    def test_tracked_solve_equals_untracked_solve(self, monkeypatch):
        cfg = NewtonConfig(backend="mc", mc_samples=300_000, mc_seed=9)
        tracked = standard_of_volume(3, 3, [0.4, 0.35, 0.25], cfg)
        monkeypatch.setattr(standard, "cell_volume_function", lambda graph, n, backend, samples,
                            seed: lambda params: measure.cell_volumes_mc(params, samples, seed)[0])
        plain = standard_of_volume(3, 3, [0.4, 0.35, 0.25], cfg)
        assert tracked.curvatures.tobytes() == plain.curvatures.tobytes()
        assert tracked.quasi_centers.tobytes() == plain.quasi_centers.tobytes()

    def test_tracked_profile_equals_untracked_profile(self, monkeypatch):
        # the grid solves step furthest from the tracker's reference
        cfg = NewtonConfig(backend="mc", mc_samples=300_000, mc_seed=9)
        args = (3, 2, [0.45, 0.55])
        steps = {"fd_step_grad": 1e-2, "fd_step_hess": 5e-2, "cfg": cfg}
        tracked = model_profile(*args, **steps)
        monkeypatch.setattr(standard, "cell_volume_function", lambda graph, n, backend, samples,
                            seed: lambda params: measure.cell_volumes_mc(params, samples, seed)[0])
        plain = model_profile(*args, **steps)
        for name in ("value", "kappa", "grad", "hessian"):
            got, want = np.asarray(getattr(tracked, name)), np.asarray(getattr(plain, name))
            assert got.tobytes() == want.tobytes(), name
