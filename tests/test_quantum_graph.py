"""Discrete second-variation operator on S^2 boundary networks."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bubblelab import (apply_mobius, assemble_jacobi, build_graph, conformal_jacobi_solve,
                       conformal_to_volume_pcf, detect_interfaces,
                       eigen_count_positive, equal_volume_standard, pcf_detect,
                       perpendicular_pole, recentered, standard_of_curvature,
                       standard_of_volume, volume_derivative)
from bubblelab.cluster import complete_graph
from bubblelab.measure import measure_exact_s2
from bubblelab import quantum_graph
from bubblelab.quantum_graph import (POLE_GUARD, ArcPencil, GraphBuildError, SpectrumError,
                                     arc_grids, field_from_pointwise, kernel_tolerance,
                                     piecewise_constant_field, pole_modes, strong_residual)
from bubblelab.suites import _random_sum_zero
from reference import (arpack_top_eigenvalues, dense_top_eigenvalues, eigendecomposition,
                       kirchhoff_residual, lanczos_near_kernel, ldl_count_above, ldl_inertia,
                       reduced_pencil, remove_kernel_component, robin_residual, sparse_pencil)


@pytest.fixture(scope="module")
def double_bubble():
    params = standard_of_curvature(2, 3, np.array([0.3, 0.1, -0.4]))
    graph = detect_interfaces(params, samples_per_pair=2048, rng_seed=0)
    return params, graph, build_graph(params, graph)


@pytest.fixture(scope="module")
def double_system(double_bubble):
    _, _, qgraph = double_bubble
    return assemble_jacobi(qgraph, 0.01)


def _reference_assembly(graph, h):
    """(form, mass, constraint basis) by a per-interval loop: the assembly
    reference.sparse_pencil must reproduce bit for bit."""
    counts, offsets, cyclic, steps = [], [], [], []
    total = 0
    for arc in graph.arcs:
        closed = arc.full_circle or arc.t1 - arc.t0 >= 2.0 * math.pi - 1e-12
        m = int(math.ceil(arc.length / h))
        offsets.append(total)
        counts.append(m if closed else m + 1)
        cyclic.append(closed)
        steps.append(arc.length / m)
        total += counts[-1]
    rows, cols, a_vals, m_vals = [], [], [], []

    def add(r, c, a, m):
        rows.append(r)
        cols.append(c)
        a_vals.append(a)
        m_vals.append(m)

    for ai, arc in enumerate(graph.arcs):
        step = steps[ai]
        pot = 1.0 + arc.kappa ** 2
        m_intervals = counts[ai] if cyclic[ai] else counts[ai] - 1
        k_diag, k_off = 1.0 / step, -1.0 / step
        m_diag, m_off = step / 3.0, step / 6.0
        for e in range(m_intervals):
            n0 = offsets[ai] + e
            n1 = offsets[ai] + ((e + 1) % counts[ai] if cyclic[ai] else e + 1)
            add(n0, n0, k_diag - pot * m_diag, m_diag)
            add(n1, n1, k_diag - pot * m_diag, m_diag)
            add(n0, n1, k_off - pot * m_off, m_off)
            add(n1, n0, k_off - pot * m_off, m_off)
    size = total
    form = sp.coo_matrix((a_vals, (rows, cols)), shape=(size, size)).tocsr()
    mass = sp.coo_matrix((m_vals, (rows, cols)), shape=(size, size)).tocsr()
    vert_rows, vert_vals = [], []
    for vertex in graph.vertices:
        for ve in vertex.ends:
            vert_rows.append(offsets[ve.arc_index]
                             + (0 if ve.end == 0 else counts[ve.arc_index] - 1))
            vert_vals.append(-ve.robin)
    if vert_rows:
        form = form + sp.coo_matrix((vert_vals, (vert_rows, vert_rows)),
                                    shape=(size, size)).tocsr()
    form = form / quantum_graph.NORM_S2
    mass = mass / quantum_graph.NORM_S2
    dependent = {}
    for vertex in graph.vertices:
        nodes = [offsets[ve.arc_index] + (0 if ve.end == 0 else counts[ve.arc_index] - 1)
                 for ve in vertex.ends]
        signs = [ve.sign for ve in vertex.ends]
        dependent[nodes[-1]] = [(nodes[k], -signs[k] / signs[-1]) for k in range(2)]
    free = [d for d in range(size) if d not in dependent]
    col_of = {d: c for c, d in enumerate(free)}
    z_rows, z_cols, z_vals = [], [], []
    for d in free:
        z_rows.append(d)
        z_cols.append(col_of[d])
        z_vals.append(1.0)
    for d, combo in dependent.items():
        for src, coeff in combo:
            z_rows.append(d)
            z_cols.append(col_of[src])
            z_vals.append(coeff)
    z = sp.coo_matrix((z_vals, (z_rows, z_cols)), shape=(size, len(free))).tocsr()
    return form, mass, z


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def non_spherical_cluster():
    rng = np.random.default_rng(0)
    return recentered(2, rng.standard_normal((3, 3)), 0.5 * rng.standard_normal(3))


class TestBuildGraph:
    def test_equal_bubble_network(self, equal_bubble_s2, equal_bubble_graph):
        qg = build_graph(equal_bubble_s2, equal_bubble_graph)
        assert len(qg.arcs) == 3
        assert len(qg.vertices) == 2
        for arc in qg.arcs:
            assert abs(arc.length - math.pi) < 1e-12
            assert abs(arc.kappa) < 1e-12
        for vertex in qg.vertices:
            assert len(vertex.ends) == 3
            assert vertex.cells == (0, 1, 2)

    def test_arc_lengths_match_exact_measure(self, double_bubble):
        params, graph, qg = double_bubble
        rep = measure_exact_s2(params, graph)
        for i, j in graph.pairs():
            total = sum(a.length for a in qg.arcs if (a.i, a.j) == (i, j))
            assert abs(total / (4 * math.pi) - rep.areas[i, j]) < 1e-12

    def test_cap_is_single_closed_circle(self):
        params = standard_of_volume(2, 2, [0.3, 0.7])
        qg = build_graph(params, complete_graph(2))
        assert len(qg.arcs) == 1
        assert len(qg.vertices) == 0
        assert qg.arcs[0].full_circle

    def test_rejects_higher_dimension(self):
        params = equal_volume_standard(3, 3)
        with pytest.raises(GraphBuildError):
            build_graph(params, complete_graph(3))

    def test_rejects_quadruple_junction(self):
        from bubblelab import gallery

        cross = gallery.cross_junction(2)
        graph = detect_interfaces(cross, rng_seed=1)
        with pytest.raises(GraphBuildError):
            build_graph(cross, graph)

    def test_rejects_non_spherical_cluster(self):
        # an affine q = 3 cluster whose walls violate |c_ij|^2 = 1 + kappa_ij^2
        # is not stationary: no Jacobi index is defined for it
        params = non_spherical_cluster()
        graph = detect_interfaces(params, rng_seed=0)
        assert graph.pairs() == [(0, 1), (0, 2), (1, 2)]
        with pytest.raises(GraphBuildError, match="not spherical"):
            build_graph(params, graph)

    def test_robin_coefficients(self, double_bubble):
        params, _, qg = double_bubble
        k = params.curvatures
        for vertex in qg.vertices:
            u, v, w = vertex.cells
            for ve in vertex.ends:
                arc = qg.arcs[ve.arc_index]
                third = next(c for c in vertex.cells if c not in (arc.i, arc.j))
                expected = (k[arc.i] + k[arc.j] - 2 * k[third]) / math.sqrt(3.0)
                assert abs(ve.robin - expected) < 1e-12


class TestAssembly:
    def test_reduced_matrices_symmetric(self, double_system):
        a_r, m_r = reduced_pencil(double_system)
        assert abs(a_r - a_r.T).max() < 1e-14
        assert abs(m_r - m_r.T).max() < 1e-14

    def test_rejects_coarse_grid(self, double_bubble):
        _, _, qg = double_bubble
        with pytest.raises(ValueError):
            assemble_jacobi(qg, 1.0)

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
    def test_rejects_spacing_that_is_not_finite_and_positive(self, double_bubble, h):
        _, _, qg = double_bubble
        with pytest.raises(ValueError, match="finite and positive"):
            assemble_jacobi(qg, h)

    def test_constraint_basis_satisfies_kirchhoff(self, double_system):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(double_system.reduced_size)
        x = double_system.expand(y)
        assert kirchhoff_residual(double_system, x) < 1e-12
        assert np.array_equal(x, sparse_pencil(double_system)[2] @ y)

    @pytest.mark.parametrize("kappa", [None, [0.3, 0.1, -0.4], [0.35, 0.05, -0.15, -0.25]],
                             ids=["cap", "q3", "q4"])
    def test_matches_per_interval_loop_bit_for_bit(self, kappa):
        if kappa is None:  # one full circle: the cyclic branch, no vertex
            params, graph = standard_of_volume(2, 2, [0.3, 0.7]), complete_graph(2)
        else:
            params = standard_of_curvature(2, len(kappa), np.array(kappa))
            graph = detect_interfaces(params, rng_seed=0)
        qgraph = build_graph(params, graph)
        assert qgraph.arcs[0].full_circle == (kappa is None)
        for system in (assemble_jacobi(qgraph, 4e-3), assemble_jacobi(qgraph, 2e-3)):
            want = _reference_assembly(qgraph, system.h)
            for got, ref in zip(sparse_pencil(system), want):
                _assert_same_csr(got, ref)

    @pytest.mark.parametrize("kappa", [None, [0.3, 0.1, -0.4], [0.35, 0.05, -0.15, -0.25]],
                             ids=["cap", "q3", "q4"])
    def test_stencils_apply_the_sparse_pencil(self, kappa):
        # A, M, Z and Z^T applied matrix-free against the assembled matrices,
        # on vectors and on blocks of columns
        if kappa is None:
            params, graph = standard_of_volume(2, 2, [0.3, 0.7]), complete_graph(2)
        else:
            params = standard_of_curvature(2, len(kappa), np.array(kappa))
            graph = detect_interfaces(params, rng_seed=0)
        system = assemble_jacobi(build_graph(params, graph), 4e-3)
        form, mass, z = sparse_pencil(system)
        a_r, m_r = reduced_pencil(system)
        rng = np.random.default_rng(1)
        for shape in ((), (3,)):
            x = rng.standard_normal((system.size,) + shape)
            y = rng.standard_normal((system.reduced_size,) + shape)
            for got, want in ((system.apply_form(x), form @ x), (system.apply_mass(x), mass @ x),
                              (system.reduced_form(y), a_r @ y),
                              (system.reduced_mass(y), m_r @ y)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
            assert np.array_equal(system.expand(y), z @ y)
            assert np.max(np.abs(system.restrict(x) - z.T @ x)) < 1e-14 * np.max(np.abs(x))

class TestCircleSpectrum:
    def test_eigenvalues_one_minus_m_squared(self, hemispheres):
        graph = detect_interfaces(hemispheres, rng_seed=0)
        system = assemble_jacobi(build_graph(hemispheres, graph), 1e-3)
        report = eigen_count_positive(system, k_top=16)
        assert report.count_positive == 1
        assert report.converged
        lam = np.sort(report.eigenvalues)[::-1][:9]
        target = [1.0, 0.0, 0.0, -3.0, -3.0, -8.0, -8.0, -15.0, -15.0]
        assert np.max(np.abs(lam - target)) < 1e-4

    def test_cap_spectrum_scales_with_curvature(self):
        # circle of curvature k: eigenvalues (1 + k^2)(1 - m^2)
        params = standard_of_volume(2, 2, [0.25, 0.75])
        k2 = params.pair_curvature(0, 1) ** 2
        system = assemble_jacobi(build_graph(params, complete_graph(2)), 2e-3)
        report = eigen_count_positive(system, k_top=8)
        lam = np.sort(report.eigenvalues)[::-1][:5]
        target = (1 + k2) * np.array([1.0, 0.0, 0.0, -3.0, -3.0])
        assert np.max(np.abs(lam - target)) < 5e-4

    def test_h_refinement_second_order(self, hemispheres):
        graph = detect_interfaces(hemispheres, rng_seed=0)
        qg = build_graph(hemispheres, graph)
        errors = []
        for h in (4e-3, 2e-3):
            system = assemble_jacobi(qg, h)
            lam = np.sort(eigen_count_positive(system, k_top=10).eigenvalues)[::-1]
            errors.append(abs(lam[3] - (-3.0)))
        assert errors[1] < 0.3 * errors[0]


class TestInertia:
    """The sparse LDL^T inertia oracle of the count tests, reference.ldl_inertia."""

    def test_off_diagonal_pivot_falls_back_to_dense(self):
        # SuperLU pivots off the diagonal here (perm_r != perm_c), and its raw
        # U diagonal has 3 positive entries; the true inertia is 2
        k = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
        assert ldl_inertia(k) == (2, "dense_ldl")

    @pytest.mark.parametrize("matrix", [np.diag([1.0, 0.0, -1.0]), np.ones((2, 2))],
                             ids=["diagonal", "rank_one"])
    def test_singular_matrix_falls_back_to_dense(self, matrix):
        # SuperLU raises "Factor is exactly singular" on these
        assert ldl_inertia(sp.csr_matrix(matrix)) == (1, "dense_ldl")

    def test_agrees_with_dense_eigh(self):
        rng = np.random.default_rng(0)
        methods = set()
        for trial in range(12):
            n = int(rng.integers(3, 12))
            a = sp.random(n, n, density=0.4, random_state=rng)
            a = (a + a.T).toarray()
            if trial % 2:  # hollow matrices force off-diagonal pivots
                np.fill_diagonal(a, 0.0)
                m, cut = np.eye(n), 0.0
            else:
                b = rng.standard_normal((n, n))
                m, cut = b @ b.T + n * np.eye(n), float(rng.uniform(-0.5, 0.5))
            lam = scipy.linalg.eigh(-a, m, eigvals_only=True)
            count, method = ldl_inertia(sp.csr_matrix(-a - cut * m))
            assert count == int(np.sum(lam > cut))
            methods.add(method)
        assert methods == {"sparse_ldl", "dense_ldl"}


class TestDoubleBubbleSpectrum:
    def test_exactly_two_positive(self, double_system):
        report = eigen_count_positive(double_system)
        assert report.count_positive == 2
        assert report.converged

    def test_counts_match_dense_reference(self, double_system):
        report = eigen_count_positive(double_system)
        assert report.method in ("closed_form", "mode_sum")
        lam = eigendecomposition(double_system)[0]
        cut = kernel_tolerance(double_system)
        assert report.count_positive == int(np.sum(lam > cut))
        assert report.kernel_dim == int(np.sum(np.abs(lam) <= cut))
        top = np.sort(lam)[::-1][:report.eigenvalues.size]
        assert np.max(np.abs(report.eigenvalues - top)) < 1e-9

    def test_top_eigenvalues_must_agree_with_inertia(self, double_system, monkeypatch):
        monkeypatch.setattr(quantum_graph, "_top_eigenvalues",
                            lambda *args: -np.ones(16))
        with pytest.raises(SpectrumError):
            eigen_count_positive(double_system)

    def test_count_does_not_saturate_at_k_top(self):
        params = equal_volume_standard(2, 4)
        graph = detect_interfaces(params, rng_seed=0)
        system = assemble_jacobi(build_graph(params, graph), 2e-3)
        assert system.reduced_size > 5000
        report = eigen_count_positive(system, k_top=1)
        assert report.count_positive == 3
        assert report.converged
        assert report.eigenvalues.size == 1

    def test_each_shift_factored_once(self, double_bubble, monkeypatch):
        # the counts at -cut and +cut, the kernel and the top eigenvalues come
        # from one ArcPencil at h, the h/2 count from one at h/2; the near-kernel
        # and the matched solve share the cut counts and the one condensed
        # solver, form_solver, and nothing is assembled
        _, _, qgraph = double_bubble
        system = assemble_jacobi(qgraph, 0.01)
        solvers, pencils = [], []
        solver, pencil = quantum_graph.CondensedForm, quantum_graph.ArcPencil

        class CountedSolver(solver):
            def __init__(self, system):
                solvers.append(system.reduced_size)
                super().__init__(system)

        class CountedPencil(pencil):
            def __init__(self, graph, h):
                pencils.append(h)
                super().__init__(graph, h)

        def forbidden(*args, **kwargs):
            raise AssertionError("eigen_count_positive must not call this")

        monkeypatch.setattr(quantum_graph, "CondensedForm", CountedSolver)
        monkeypatch.setattr(quantum_graph, "ArcPencil", CountedPencil)
        monkeypatch.setattr(quantum_graph, "assemble_jacobi", forbidden)
        report = eigen_count_positive(system)
        solve = conformal_jacobi_solve(system, np.array([0.5, 0.2, -0.7]))
        assert solvers == [system.reduced_size]
        assert sorted(pencils) == [system.h / 2.0, system.h]
        assert system.form_solver is system.form_solver
        assert system.cut_counts is system.cut_counts
        assert solve.kernel_dim == report.kernel_dim
        cut = kernel_tolerance(system)
        monkeypatch.undo()
        assert (system.pencil.count_above(cut) == report.count_positive
                == ldl_count_above(system, cut))

    def test_kernel_contains_skew_fields(self, double_system):
        report = eigen_count_positive(double_system)
        assert report.kernel_dim >= 2

    def test_index_two_across_volume_triples(self):
        for volumes in ([0.5, 0.3, 0.2], [0.25, 0.35, 0.4]):
            params = standard_of_volume(2, 3, volumes)
            graph = detect_interfaces(params, rng_seed=2)
            system = assemble_jacobi(build_graph(params, graph), 0.01)
            report = eigen_count_positive(system)
            assert report.count_positive == 2
            assert report.converged


class TestKnownFields:
    def test_skew_field_in_kernel(self, double_bubble, double_system):
        params, _, _ = double_bubble
        pole = perpendicular_pole(params)
        a = np.array([0.7, -0.2, -0.5])
        resids = []
        for h in (0.01, 0.005):
            system = assemble_jacobi(double_system.graph, h)
            skew = field_from_pointwise(
                system, lambda arc, pts: (a[arc.i] - a[arc.j]) * (pts @ pole))
            resids.append(strong_residual(system, skew))
        assert resids[0] < 1e-3
        assert resids[1] < 0.3 * resids[0]

    def test_skew_field_volume_derivative_vanishes(self, double_bubble, double_system):
        params, _, _ = double_bubble
        pole = perpendicular_pole(params)
        a = np.array([0.7, -0.2, -0.5])
        skew = field_from_pointwise(
            double_system, lambda arc, pts: (a[arc.i] - a[arc.j]) * (pts @ pole))
        assert np.max(np.abs(volume_derivative(double_system, skew))) < 1e-6

    def test_mobius_field_action(self, double_bubble, double_system):
        params, _, _ = double_bubble
        theta = np.array([0.3, -0.8, 0.5])

        def mobius_normal(arc, pts):
            normal = params.pair_center(arc.i, arc.j) + \
                params.pair_curvature(arc.i, arc.j) * pts
            return normal @ theta

        resids = []
        for h in (0.01, 0.005):
            system = assemble_jacobi(double_system.graph, h)
            field = field_from_pointwise(system, mobius_normal)
            resids.append(strong_residual(
                system, field,
                rhs=lambda arc: float(params.pair_center(arc.i, arc.j) @ theta)))
            assert kirchhoff_residual(system, field) < 1e-12
        assert resids[1] < 0.3 * resids[0]

    def test_mobius_field_satisfies_robin(self, double_bubble):
        params, _, qg = double_bubble
        theta = np.array([-0.4, 0.9, 0.2])
        spreads = []
        for h in (0.01, 0.005):
            system = assemble_jacobi(qg, h)
            field = field_from_pointwise(
                system,
                lambda arc, pts: (params.pair_center(arc.i, arc.j)
                                  + params.pair_curvature(arc.i, arc.j) * pts) @ theta)
            spreads.append(robin_residual(system, field))
        assert spreads[1] < 0.5 * spreads[0] + 1e-10


class TestVolumeDerivative:
    def test_piecewise_constant_matches_unit_laplacian(self, double_bubble,
                                                       double_system):
        params, graph, _ = double_bubble
        from bubblelab import weighted_laplacian

        lap = weighted_laplacian(params, graph, lambda pts: np.ones(len(pts)),
                                 backend="exact")
        a = np.array([0.4, 0.1, -0.5])
        field = piecewise_constant_field(double_system, a)
        dv = volume_derivative(double_system, field)
        assert np.max(np.abs(dv - lap.matrix @ a)) < 1e-6

    def test_zero_field(self, double_system):
        assert np.max(np.abs(volume_derivative(
            double_system, np.zeros(double_system.size)))) == 0.0


class TestConformalJacobiSolve:
    def test_matches_dense_eigendecomposition(self, double_system):
        a = np.array([0.7, -0.2, -0.5])
        solve = conformal_jacobi_solve(double_system, a)
        # reference: expand in all eigenpairs, drop the kernel ones
        lam, vec = eigendecomposition(double_system)
        _, mass, z = sparse_pencil(double_system)
        rhs = z.T @ (-(mass @ piecewise_constant_field(double_system, a)))
        coeffs = vec.T @ rhs
        keep = np.abs(lam) > kernel_tolerance(double_system)
        reference = z @ (vec[:, keep] @ (-coeffs[keep] / lam[keep]))
        assert solve.kernel_dim == int(np.sum(~keep))
        assert np.max(np.abs(solve.field - reference)) < 1e-9
        assert abs(solve.removed_rhs_fraction - np.linalg.norm(coeffs[~keep])
                   / np.linalg.norm(coeffs)) < 1e-9

    def test_near_kernel_is_mass_orthonormal_and_read_only(self, double_system):
        tol = kernel_tolerance(double_system)
        kernel = double_system.near_kernel
        a_r, m_r = reduced_pencil(double_system)
        assert kernel.shape[1] == eigen_count_positive(double_system).kernel_dim
        assert np.max(np.abs(kernel.T @ (m_r @ kernel) - np.eye(kernel.shape[1]))) < 1e-10
        assert np.max(np.abs(a_r @ kernel)) < tol
        assert double_system.near_kernel is kernel
        with pytest.raises(ValueError):
            kernel[0, 0] = 1.0

    @pytest.mark.parametrize("kappa", [None, (0.2, -0.1, 0.05, -0.15)], ids=["double", "q4"])
    def test_near_kernel_spans_the_lanczos_kernel(self, double_system, kappa):
        if kappa is None:
            system = double_system
        else:
            params = standard_of_curvature(2, 4, np.array(kappa))
            system = assemble_jacobi(build_graph(params, detect_interfaces(params, rng_seed=1)),
                                     4e-3)
        kernel = system.near_kernel
        reference = lanczos_near_kernel(system)
        m_r = reduced_pencil(system)[1]
        assert kernel.shape == reference.shape and kernel.shape[1] > 0
        assert np.max(np.abs(kernel.T @ (m_r @ kernel) - np.eye(kernel.shape[1]))) < 1e-12
        # cosines of the M_r-principal angles between the two kernels
        cosines = np.linalg.svd(kernel.T @ (m_r @ reference), compute_uv=False)
        assert np.max(np.abs(cosines - 1.0)) < 1e-10

    def test_near_kernel_must_agree_with_inertia(self, double_bubble, monkeypatch):
        # a count that puts one more eigenvalue within the tolerance than the pencil has
        system = assemble_jacobi(double_bubble[2], 0.01)
        above, above_minus = system.cut_counts
        monkeypatch.setattr(system, "cut_counts", (above - 1, above_minus))
        with pytest.raises(SpectrumError, match="inertia puts"):
            system.near_kernel

    def test_reproduces_compatible_closed_form(self, double_bubble, double_system):
        params, graph, _ = double_bubble
        xi = pcf_detect(params).xi
        a = np.array([0.7, -0.2, -0.5])
        solve = conformal_jacobi_solve(double_system, a)
        closed = field_from_pointwise(
            double_system,
            lambda arc, pts: (a[arc.i] - a[arc.j]) * (1.0 - pts @ xi))
        diff = remove_kernel_component(double_system, solve.field - closed)
        assert np.max(np.abs(diff)) < 5e-5

    def test_volume_column_matches_operator(self, double_bubble, double_system):
        params, graph, _ = double_bubble
        xi = pcf_detect(params).xi
        f_op = conformal_to_volume_pcf(params, graph, xi, backend="exact")
        a = np.array([0.7, -0.2, -0.5])
        solve = conformal_jacobi_solve(double_system, a)
        assert np.max(np.abs(f_op.matrix @ a - solve.volume_column)) < 1e-5

    def test_zero_parameter_gives_kernel(self, double_system):
        solve = conformal_jacobi_solve(double_system, np.zeros(3))
        assert np.max(np.abs(solve.volume_column)) < 1e-9
        assert np.max(np.abs(solve.field)) < 1e-9

    def test_index_form_pairing(self, double_bubble, double_system):
        # Q(f^a) = -(n-1) a . (volume column of f^a) for matched solutions
        a = np.array([0.5, 0.2, -0.7])
        solve = conformal_jacobi_solve(double_system, a)
        q_val = solve.field @ (sparse_pencil(double_system)[0] @ solve.field)
        assert abs(q_val + a @ solve.volume_column) < 1e-6

    def test_eigenvectors_satisfy_vertex_conditions(self, double_system):
        lam, vec = eigendecomposition(double_system)
        x = double_system.expand(vec[:, -1])  # top eigenvalue
        assert kirchhoff_residual(double_system, x) < 1e-10
        fine = assemble_jacobi(double_system.graph, double_system.h / 2)
        lam_f, vec_f = eigendecomposition(fine)
        x_f = fine.expand(vec_f[:, -1])
        assert robin_residual(fine, x_f / np.abs(x_f).max()) < \
            2 * robin_residual(double_system, x / np.abs(x).max()) + 1e-8


def _solve_graphs():
    """The graphs the condensed solve is checked on: the spectrum_index double
    bubbles, the first of which (kappa = 0) has every arc within POLE_GUARD of
    a Dirichlet value at c = 0, the bench-like q = 3 and q = 4 bubbles, a
    Moebius image (t = 0.3) of the q = 4 one, and the great circle."""
    q4 = standard_of_curvature(2, 4, np.array([0.25, 0.08, -0.12, -0.21]))
    mobius = apply_mobius(q4, np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98), 0.3)
    graphs = [build_graph(params, detect_interfaces(params, rng_seed=seed))
              for params, seed in _spectrum_index_clusters()]
    graphs += [_graph_of(name) for name in ("bench_q3", "bench_q4")]
    graphs.append(build_graph(mobius, detect_interfaces(mobius, rng_seed=0)))
    return graphs + [_graph_of("hemispheres")]


class TestCondensedForm:
    """JacobiSystem.form_solver against the sparse LU of the assembled A_r."""

    @pytest.fixture(scope="class")
    def systems(self):
        return [assemble_jacobi(qgraph, 4e-3) for qgraph in _solve_graphs()]

    def test_guarded_arc_keeps_its_mode(self, systems):
        # the flat double bubble: every arc takes the sine-mode path
        arcs = systems[0].pencil.arcs
        assert pole_modes(arcs.phase(np.zeros(1))[2], arcs.intervals)[0].all()

    def test_matches_sparse_lu_off_the_kernel(self, systems):
        # A_r is within O(h^2) of singular on the Jacobi fields, so two stable
        # solvers agree there only to cond(A_r) eps; off the kernel they agree
        # to rounding. The right-hand sides have their kernel share taken out,
        # as in conformal_jacobi_solve, and so do the solutions.
        for system in systems:
            a_r, m_r = reduced_pencil(system)
            kernel = system.near_kernel
            rhs = np.random.default_rng(2).standard_normal((system.reduced_size, 3))
            rhs -= m_r @ (kernel @ (kernel.T @ rhs))
            got, want = (y - kernel @ (kernel.T @ (m_r @ y))
                         for y in (system.form_solver.solve(rhs), spla.splu(a_r.tocsc()).solve(rhs)))
            err = np.sqrt(np.sum((got - want) * (m_r @ (got - want)), axis=0))
            norm = np.sqrt(np.sum(want * (m_r @ want), axis=0))
            assert np.max(err / norm) < 1e-9
            # a vector is solved as a one-column block
            one = system.form_solver.solve(rhs[:, 1])
            assert np.array_equal(one, system.form_solver.solve(rhs[:, 1:2])[:, 0])

    def test_backward_stable(self, systems):
        # on any right-hand side, kernel share included, the residual is at
        # rounding level relative to |A_r| |y|
        for system in systems:
            a_r, _ = reduced_pencil(system)
            rhs = np.random.default_rng(3).standard_normal(system.reduced_size)
            y = system.form_solver.solve(rhs)
            scale = abs(a_r).sum(axis=1).max() * np.max(np.abs(y))
            assert np.max(np.abs(a_r @ y - rhs)) < 1e-14 * scale

    def test_near_kernel_spans_the_lanczos_kernel(self, systems):
        for system in systems:
            kernel = system.near_kernel
            reference = lanczos_near_kernel(system)
            m_r = reduced_pencil(system)[1]
            assert kernel.shape == reference.shape and kernel.shape[1] > 0
            cosines = np.linalg.svd(kernel.T @ (m_r @ reference), compute_uv=False)
            assert np.max(np.abs(cosines - 1.0)) < 1e-10


def _spectrum_index_clusters(seed: int = 6):
    """The three double bubbles of suites.suite_spectrum_index, with its draws,
    and the rng seed of each one's interface detection."""
    rng = np.random.default_rng(seed)
    out = []
    for idx, scale in enumerate((0.0, 0.35, 0.6)):
        kappa = _random_sum_zero(3, rng, scale) if scale else np.zeros(3)
        _random_sum_zero(3, rng, 1.0)  # the suite's conformal parameter
        rng.standard_normal(3)  # and its Mobius direction
        out.append((standard_of_curvature(2, 3, kappa), seed + idx))
    return out


def _graph_of(name):
    if name == "hemispheres":
        params = equal_volume_standard(2, 2)
    elif name == "cap":
        params = standard_of_volume(2, 2, [0.25, 0.75])
        return build_graph(params, complete_graph(2))
    elif name.startswith("equal"):
        params = equal_volume_standard(2, int(name[-1]))
    elif name == "flat_q3":
        params = standard_of_curvature(2, 3, np.zeros(3))
    elif name == "bench_q3":
        params = standard_of_curvature(2, 3, np.array([0.21, -0.05, -0.16]))
    else:  # bench_q4
        params = standard_of_curvature(2, 4, np.array([0.25, 0.08, -0.12, -0.21]))
    return build_graph(params, detect_interfaces(params, rng_seed=0))


class TestArcPencil:
    @pytest.mark.parametrize("h", [1e-2, 4e-3])
    @pytest.mark.parametrize("name", ["hemispheres", "cap", "equal_q3", "equal_q4", "flat_q3",
                                      "bench_q3", "bench_q4"])
    def test_top_eigenvalues_match_arpack_and_dense(self, name, h):
        qgraph = _graph_of(name)
        system = assemble_jacobi(qgraph, h)
        k_top = min(16, system.reduced_size - 2)
        lam = quantum_graph._top_eigenvalues(ArcPencil(qgraph, h), k_top)
        assert lam.size == k_top and np.all(np.diff(lam) <= 0.0)
        assert np.max(np.abs(lam - arpack_top_eigenvalues(system, 16))) < 1e-10
        assert np.max(np.abs(lam - dense_top_eigenvalues(system, k_top))) < 1e-9

    @pytest.mark.parametrize("q", [3, 4])
    def test_count_next_to_eigenvalues_matches_dense(self, q):
        # on equal-volume bubbles many eigenvalues are arc Dirichlet values,
        # where the closed form alone loses its digits
        params = equal_volume_standard(2, q)
        qgraph = build_graph(params, detect_interfaces(params, rng_seed=0))
        system = assemble_jacobi(qgraph, 1e-2)
        lam = eigendecomposition(system)[0][::-1]
        pencil = ArcPencil(qgraph, 1e-2)
        shifts = [shift for value in lam[:12] for gap in (1e-9, 1e-8, 1e-7, 1e-6)
                  for shift in value + np.array([gap, -gap]) * max(1.0, abs(value))]
        for shift in shifts:
            assert pencil.count_above(shift) == int(np.sum(lam > shift))
        # some of them were counted by mode sums
        margin = pole_modes(pencil.arcs.phase(shifts)[2], pencil.arcs.intervals)[1]
        assert margin.min() < POLE_GUARD

    def test_counts_match_ldl_on_spectrum_index_clusters(self):
        # the cut counts against the LDL^T oracle at h and h/2, on the
        # suite's double bubbles, the bench-like q = 3 and q = 4 bubbles, the
        # equal-volume q = 4 bubble and a Moebius image of a q = 4 bubble; at
        # h = 1e-2 also against the dense eigenvalues
        q4 = standard_of_curvature(2, 4, np.array([0.25, 0.08, -0.12, -0.21]))
        mobius = apply_mobius(q4, np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98), 0.3)
        qgraphs = [build_graph(params, detect_interfaces(params, rng_seed=seed))
                   for params, seed in _spectrum_index_clusters()]
        qgraphs += [_graph_of(name) for name in ("bench_q3", "bench_q4", "equal_q4")]
        qgraphs.append(build_graph(mobius, detect_interfaces(mobius, rng_seed=0)))
        for qgraph in qgraphs:
            for h in (4e-3, 2e-3, 1e-2):
                system = assemble_jacobi(qgraph, h)
                cut = kernel_tolerance(system)
                counts = list(system.cut_counts)
                assert counts == [ldl_count_above(system, value) for value in (cut, -cut)]
                if system.h == 1e-2:
                    lam = eigendecomposition(system)[0]
                    assert counts == [int(np.sum(lam > cut)), int(np.sum(lam > -cut))]

    @pytest.mark.parametrize("h", [1e-2, 4e-3])
    def test_grid_is_the_assembled_one(self, h):
        qgraph = _graph_of("bench_q4")
        system = assemble_jacobi(qgraph, h)
        arcs = ArcPencil(qgraph, h).arcs
        opened = [ai for ai, arc in enumerate(qgraph.arcs) if not arc.closed]
        assert arcs.intervals.tolist() == [system.counts[ai] - 1 for ai in opened]
        assert arcs.steps.tolist() == [system.steps[ai] for ai in opened]
        assert [g[1] for g in arc_grids(qgraph, h)] == system.steps

    def test_cyclic_values_are_the_circle_spectrum(self, hemispheres):
        qgraph = build_graph(hemispheres, detect_interfaces(hemispheres, rng_seed=0))
        system = assemble_jacobi(qgraph, 1e-2)
        arcs = ArcPencil(qgraph, 1e-2).arcs
        lam = eigendecomposition(system)[0]
        assert arcs.intervals.size == 0
        assert np.max(np.abs(arcs.cyclic_values - lam)) < 1e-8 * np.max(np.abs(lam))

    def test_report_does_not_depend_on_earlier_queries(self, double_bubble):
        # a count next to an arc Dirichlet value and an eigenvalue search leave
        # the pencil as they found it, and the report is that of a fresh system
        qgraph = double_bubble[2]
        fresh = eigen_count_positive(assemble_jacobi(qgraph, 4e-3))
        system = assemble_jacobi(qgraph, 4e-3)
        pencil = system.pencil
        # the pencil's own state and that of its arc model
        state = [vars(pencil), vars(pencil.arcs)]
        before = [{name: np.copy(value) for name, value in part.items()} for part in state]
        pole = pencil.arcs.dirichlet_values(1)[0][0]
        pencil.count_above(pole + 1e-9)
        quantum_graph._top_eigenvalues(pencil, 16)
        for part, old in zip(state, before):
            assert part.keys() == old.keys()
            for name, value in part.items():
                assert np.array_equal(value, old[name]), name
        queried = eigen_count_positive(system)
        assert np.array_equal(queried.eigenvalues, fresh.eigenvalues)
        assert replace(queried, eigenvalues=None) == replace(fresh, eigenvalues=None)

    @pytest.mark.parametrize("h", [1e-2, 4e-3])
    def test_pole_margin_agrees_with_method(self, h):
        # a count shift within POLE_GUARD of a pole is counted by mode sums, and
        # pole_margin is taken over the count shifts only
        qgraphs = [build_graph(params, detect_interfaces(params, rng_seed=seed))
                   for params, seed in _spectrum_index_clusters()]
        qgraphs += [_graph_of(name) for name in ("bench_q3", "bench_q4", "equal_q3",
                                                 "hemispheres")]
        summed = []
        for qgraph in qgraphs:
            report = eigen_count_positive(assemble_jacobi(qgraph, h))
            summed.append("mode_sum" in (report.method, report.refined_method))
            assert summed[-1] == (report.pole_margin < POLE_GUARD)
        assert any(summed) and not all(summed)

    def test_report_says_how_it_was_obtained(self, double_system, hemispheres):
        report = eigen_count_positive(double_system)
        assert report.method == report.refined_method == "closed_form"
        assert POLE_GUARD <= report.pole_margin < 0.5
        assert not hasattr(report, "eigenvalue_method")
        circle = assemble_jacobi(build_graph(hemispheres, detect_interfaces(
            hemispheres, rng_seed=0)), 1e-2)
        report = eigen_count_positive(circle)
        assert report.pole_margin == math.inf and report.method == "closed_form"
        # the h/2 cut of the equal-volume bubble sits on an arc Dirichlet value
        params = equal_volume_standard(2, 3)
        equal = assemble_jacobi(build_graph(params, detect_interfaces(params, rng_seed=0)),
                                1e-2)
        report = eigen_count_positive(equal)
        assert report.refined_method == "mode_sum" and report.pole_margin < POLE_GUARD
        assert report.counts_at_resolutions == (2, 2)
