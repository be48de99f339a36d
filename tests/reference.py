"""Reference computations the tests check the package against.

None of these is called by the package itself: each is a slower, independent
or more literal form of something the package computes, kept here as an
oracle.
"""

import math
from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bubblelab import sampling
from bubblelab.cluster import (ClusterParams, InterfaceGraph, cell_values, complete_graph,
                               validate_spherical)
from bubblelab.deform import gram_path
from bubblelab.measure import ArcVolumes
from bubblelab.plateau import (SINGULAR_TIE_TOL, PlateauCertificate, _stratum_points,
                               blowup_at, plateau_at)
from bubblelab.quantum_graph import NORM_S2, SpectrumError, dependent_trace, kernel_tolerance
from bubblelab.simplex import sum_zero_basis
from bubblelab.standard import (JACOBIAN_REUSE, MAX_HALVINGS, MAX_ITER, _volume_jacobian,
                                standard_of_curvature)


def sparse_pencil(system) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """(A, M, Z) of a JacobiSystem as sparse matrices: the form, the mass and the
    basis of the Kirchhoff-constraint subspace, assembled interval by interval
    from coo entries. JacobiSystem applies the same matrices by stencils."""
    arcs = system.graph.arcs
    offsets, counts, steps = system.offsets, system.counts, system.steps
    size = system.size

    # interval e of an arc joins nodes n0, n1 and contributes the entries
    # (n0, n0), (n1, n1), (n0, n1), (n1, n0), in that order
    rows, cols, a_vals, m_vals = [], [], [], []
    for ai, arc in enumerate(arcs):
        step = steps[ai]
        pot = 1.0 + arc.kappa ** 2
        m_intervals = counts[ai] if arc.closed else counts[ai] - 1
        k_diag, k_off = 1.0 / step, -1.0 / step
        m_diag, m_off = step / 3.0, step / 6.0
        e = np.arange(m_intervals)
        n0 = offsets[ai] + e
        n1 = offsets[ai] + ((e + 1) % counts[ai] if arc.closed else e + 1)
        rows.append(np.stack([n0, n1, n0, n1], axis=1).ravel())
        cols.append(np.stack([n0, n1, n1, n0], axis=1).ravel())
        a_diag, a_off = k_diag - pot * m_diag, k_off - pot * m_off
        a_vals.append(np.tile([a_diag, a_diag, a_off, a_off], m_intervals))
        m_vals.append(np.tile([m_diag, m_diag, m_off, m_off], m_intervals))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    form = sp.coo_matrix((np.concatenate(a_vals), (rows, cols)), shape=(size, size)).tocsr()
    mass = sp.coo_matrix((np.concatenate(m_vals), (rows, cols)), shape=(size, size)).tocsr()

    # the node of each arc end at each vertex
    vertex_nodes = [[offsets[ve.arc_index] + (0 if ve.end == 0 else counts[ve.arc_index] - 1)
                     for ve in vertex.ends] for vertex in system.graph.vertices]

    # Robin vertex terms enter the form with a minus sign
    vert_rows = [node for nodes in vertex_nodes for node in nodes]
    vert_vals = [-ve.robin for vertex in system.graph.vertices for ve in vertex.ends]
    if vert_rows:
        form = form + sp.coo_matrix((vert_vals, (vert_rows, vert_rows)),
                                    shape=(size, size)).tocsr()
    form = form / NORM_S2
    mass = mass / NORM_S2

    # eliminate the dependent trace at each vertex (the free dofs are the
    # columns of Z, in order; a dependent dof's row combines the other two)
    dep_rows, src_nodes, coeffs = [], [], []
    for vertex, nodes in zip(system.graph.vertices, vertex_nodes):
        dep_rows += [nodes[-1]] * 2
        src_nodes += nodes[:2]
        coeffs += dependent_trace(vertex)
    dep_rows = np.array(dep_rows, dtype=np.intp)
    free = np.ones(size, dtype=bool)
    free[dep_rows] = False
    free_rows = np.flatnonzero(free)
    col_of = np.cumsum(free) - 1
    z_rows = np.concatenate([free_rows, dep_rows])
    z_cols = np.concatenate([np.arange(free_rows.size), col_of[src_nodes]])
    z_vals = np.concatenate([np.ones(free_rows.size), np.array(coeffs, dtype=float)])
    z = sp.coo_matrix((z_vals, (z_rows, z_cols)), shape=(size, free_rows.size)).tocsr()
    return form, mass, z


def reduced_pencil(system) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The reduced pencil (A_r, M_r) = (Z^T A Z, Z^T M Z) of sparse_pencil(system)."""
    form, mass, z = sparse_pencil(system)
    return (z.T @ form @ z).tocsr(), (z.T @ mass @ z).tocsr()


def eigendecomposition(system) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a JacobiSystem's reduced pencil (dense reference)."""
    a_r, m_r = reduced_pencil(system)
    return scipy.linalg.eigh(-a_r.toarray(), m_r.toarray())


def ldl_inertia(matrix: sp.spmatrix) -> tuple[int, str]:
    """Number of positive eigenvalues of a symmetric sparse matrix (Sylvester's law).

    SuperLU with a symmetric fill-reducing ordering and diagonal pivoting gives
    P K P^T = L U with U = D L^T, so the positive entries of diag(U) = D count
    the positive eigenvalues. Returns (count, method). The guard
    perm_r == perm_c confirms that no off-diagonal pivot was taken; when it
    trips, the count comes from a dense Bunch-Kaufman LDL^T instead, whose
    block-diagonal D (1x1 and 2x2 blocks) is tridiagonal, and the method is
    "dense_ldl". A matrix SuperLU finds exactly singular takes the same path.

    The sparse count is unreliable within about 1e-6 relative of an
    eigenvalue, even when the guard passes: at the 192 shifts
    lambda_i +- {1e-9, 1e-8, 1e-7, 1e-6} max(1, |lambda_i|) around the top 12
    eigenvalues of the equal-volume q = 3 and q = 4 bubbles at h = 1e-2, it
    was wrong at 15 (tiny pivots whose sign is noise), where the dense count
    and ArcPencil were right at all 192. Use it only at shifts well away from
    the spectrum, such as the kernel cuts.
    """
    try:
        lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        lu = None
    if lu is not None and np.array_equal(lu.perm_r, lu.perm_c):
        return int(np.count_nonzero(lu.U.diagonal() > 0.0)), "sparse_ldl"
    _, d, _ = scipy.linalg.ldl(matrix.toarray())
    blocks = scipy.linalg.eigvalsh_tridiagonal(np.diagonal(d).copy(), np.diagonal(d, -1).copy())
    return int(np.count_nonzero(blocks > 0.0)), "dense_ldl"


def ldl_count_above(system, value: float) -> int:
    """ArcPencil.count_above by ldl_inertia of the assembled -A_r - value M_r."""
    a_r, m_r = reduced_pencil(system)
    return ldl_inertia(-a_r - value * m_r)[0]


def dense_top_eigenvalues(system, k_top: int) -> np.ndarray:
    """The k_top largest eigenvalues of a JacobiSystem's reduced pencil,
    descending, by a dense generalized eigensolver (dense reference)."""
    a_r, m_r = reduced_pencil(system)
    n = system.reduced_size
    return scipy.linalg.eigh(-a_r.toarray(), m_r.toarray(), eigvals_only=True,
                             subset_by_index=[n - k_top, n - 1])[::-1]


def arpack_top_eigenvalues(system, k_top: int) -> np.ndarray:
    """The k_top largest eigenvalues of a JacobiSystem's reduced pencil, descending,
    by one shift-invert Lanczos run from a fixed start vector (ARPACK)."""
    a_r, m_r = reduced_pencil(system)
    kappa_max = max(abs(a.kappa) for a in system.graph.arcs)
    sigma = 1.0 + kappa_max ** 2 + 3.0
    lam = spla.eigsh(-a_r.tocsc(), k=min(k_top, system.reduced_size - 2),
                     M=m_r.tocsc(), sigma=sigma, which="LM",
                     v0=np.ones(system.reduced_size), return_eigenvectors=False)
    return np.sort(lam)[::-1]


def unit_directions(seed: int, label: int, chunk: int, count: int, dim: int) -> np.ndarray:
    """sampling.unit_chunk drawn afresh: Philox normals over np.linalg.norm."""
    arr = sampling.stream(seed, label, chunk).standard_normal((count, dim))
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def subsphere_points(seed: int, label: int, chunk: int, count: int,
                     center: np.ndarray, radius: float, frame: np.ndarray) -> np.ndarray:
    """sampling.subsphere_chunk drawn afresh, by the broadcast formula."""
    w = unit_directions(seed, label, chunk, count, frame.shape[1])
    return center[None, :] + radius * (w @ frame.T)


def kirchhoff_residual(system, x: np.ndarray) -> float:
    worst = 0.0
    for vertex in system.graph.vertices:
        total = 0.0
        for ve in vertex.ends:
            node = system.offsets[ve.arc_index] + (
                0 if ve.end == 0 else system.counts[ve.arc_index] - 1)
            total += ve.sign * x[node]
        worst = max(worst, abs(total))
    return worst


def robin_residual(system, x: np.ndarray) -> float:
    """Max spread of the matched Robin quantity across the ends of each vertex.

    Outward derivatives are recovered by one-sided second-order differences of
    the nodal values, so the residual of a smooth compatible field is O(h^2).
    """
    worst = 0.0
    for vertex in system.graph.vertices:
        values = []
        for ve in vertex.ends:
            ai = ve.arc_index
            off, cnt, step = system.offsets[ai], system.counts[ai], system.steps[ai]
            vals = x[off:off + cnt]
            if ve.end == 0:
                trace = vals[0]
                outward = -(-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * step)
            else:
                trace = vals[-1]
                outward = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * step)
            values.append(ve.sign * (outward - ve.robin * trace))
        worst = max(worst, max(values) - min(values))
    return worst


def remove_kernel_component(system, x: np.ndarray) -> np.ndarray:
    """Project the discrete Jacobi-field components out of a constrained field.

    Useful when comparing a computed solution with a closed form that may
    differ by kernel elements.
    """
    _, mass, z = sparse_pencil(system)
    kernel = system.near_kernel
    y = spla.spsolve((z.T @ z).tocsc(), z.T @ x)
    m_r = (z.T @ mass @ z).tocsr()
    proj = kernel @ (kernel.T @ (m_r @ y))
    return z @ (y - proj)


def lse_residual(params: ClusterParams, graph: InterfaceGraph,
                 delta_centers: np.ndarray, a) -> float:
    """Max violation of the linearized compatibility equations by a candidate."""
    a = np.asarray(a, dtype=float)
    worst = 0.0
    for i, j in graph.pairs():
        dc = delta_centers[i] - delta_centers[j]
        worst = max(worst, abs(float(params.pair_center(i, j) @ dc)
                               - params.pair_curvature(i, j) * (a[i] - a[j])))
    return worst


def validate_along_path(params: ClusterParams, graph: InterfaceGraph,
                        times) -> float:
    """Worst compatibility residual over nonempty pairs along the Gram path."""
    worst = 0.0
    for t in times:
        rep = validate_spherical(gram_path(params, float(t)), graph)
        worst = max(worst, rep.max_residual)
    return worst


def mobius_conformal_factor(p, pole, t: float):
    p = np.asarray(p, dtype=float)
    pole = np.asarray(pole, dtype=float)
    return 1.0 / (math.cosh(t) + (p @ pole) * math.sinh(t))


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian sample."""
    a = rng.standard_normal((dim, dim))
    qmat, r = np.linalg.qr(a)
    return qmat * np.sign(np.diag(r))


def rotated(params: ClusterParams, rot: np.ndarray) -> ClusterParams:
    """The cluster moved by the orthogonal map rot: c_i -> rot c_i, curvatures kept."""
    return ClusterParams(params.n, params.quasi_centers @ rot.T, params.curvatures,
                         params.label)


def exact_volume_jacobian(n: int, q: int, y: np.ndarray) -> np.ndarray:
    """The exact volume Newton's Jacobian at y on arcs extracted for this call
    alone; the solve itself takes the arcs of its residual at y."""
    params = standard_of_curvature(n, q, sum_zero_basis(q) @ y)
    return _volume_jacobian(y, params, ArcVolumes(complete_graph(q)))


def fd_volume_newton(n: int, q: int, v_target: np.ndarray, tol: float, volume_of,
                     fd_step: float = 1e-5) -> tuple[np.ndarray, np.ndarray, float]:
    """standard._volume_newton with a central-difference Jacobian of step fd_step.

    The exact backend's Newton before its Jacobian came from the first
    variation of volume: the same damped steps, Jacobian reuse and halvings.
    Returns (y, jacobian, residual_inf).
    """
    basis = sum_zero_basis(q)

    def residual(yy: np.ndarray) -> np.ndarray:
        return basis.T @ (volume_of(standard_of_curvature(n, q, basis @ yy)) - v_target)

    def build_jacobian(yy: np.ndarray) -> np.ndarray:
        jac = np.empty((q - 1, q - 1))
        for k in range(q - 1):
            step = np.zeros(q - 1)
            step[k] = fd_step
            jac[:, k] = (residual(yy + step) - residual(yy - step)) / (2 * fd_step)
        return jac

    y = np.zeros(q - 1)
    r = residual(y)
    jac = None
    jac_age = 0
    rebuilds_after_stall = 0
    for _ in range(MAX_ITER):
        if np.linalg.norm(r, np.inf) <= tol:
            return y, (jac if jac is not None else build_jacobian(y)), \
                float(np.linalg.norm(r, np.inf))
        if jac is None or jac_age >= JACOBIAN_REUSE:
            jac = build_jacobian(y)
            jac_age = 0
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            delta = -np.linalg.lstsq(jac, r, rcond=None)[0]
        scale = 1.0
        base_norm = np.linalg.norm(r)
        for _ in range(MAX_HALVINGS):
            r_try = residual(y + scale * delta)
            if np.linalg.norm(r_try) < base_norm:
                y = y + scale * delta
                r = r_try
                jac_age += 1
                break
            scale *= 0.5
        else:
            if rebuilds_after_stall >= 2:
                break
            rebuilds_after_stall += 1
            jac = build_jacobian(y)
            jac_age = 0
    return y, (jac if jac is not None else build_jacobian(y)), \
        float(np.linalg.norm(r, np.inf))


def lanczos_near_kernel(system) -> np.ndarray:
    """JacobiSystem.near_kernel by one shift-invert Lanczos run at 0.

    The kernel dimension is the difference of the system's cut_counts; the
    Lanczos operator solves with a sparse LU of the assembled A_r.
    """
    kernel_tol = kernel_tolerance(system)
    above, above_minus = system.cut_counts
    dim = above_minus - above
    if not dim:
        return np.zeros((system.reduced_size, 0))
    a_r, m_r = reduced_pencil(system)
    lu = spla.splu(a_r.tocsc())
    op = spla.LinearOperator(lu.shape, matvec=lambda b: -lu.solve(b), dtype=float)
    lam, vec = spla.eigsh(-a_r.tocsc(), k=dim, M=m_r.tocsc(), sigma=0.0, OPinv=op,
                          which="LM", v0=np.ones(system.reduced_size))
    if np.max(np.abs(lam)) > kernel_tol:
        raise SpectrumError(f"Lanczos found eigenvalues {lam} nearest 0, but the count puts "
                            f"{dim} within {kernel_tol:g}")
    return vec


def per_point_certificate(params: ClusterParams, graph: InterfaceGraph,
                          sample_budget: int = 2000, seed: int = 0) -> PlateauCertificate:
    """plateau.certify_plateau with every candidate, two-cell or not, run through
    blowup_at and plateau_at one point at a time."""
    q = params.q
    candidates = [np.asarray(graph.witnesses[pair]) for pair in graph.pairs()
                  if pair in graph.witnesses]
    subsets = [cells for order in range(2, min(q, params.n + 2) + 1)
               for cells in combinations(range(q), order)
               if order > 2 or graph.nonempty[cells[0], cells[1]]]
    per_subset = max(3, sample_budget // max(len(subsets), 1))
    for index, cells in enumerate(subsets):
        pts = _stratum_points(params, cells, seed, index, per_subset)
        values = cell_values(params, pts)
        low = values.min(axis=0) + SINGULAR_TIE_TOL
        candidates.extend(pts[np.all(values[list(cells)] <= low, axis=0)])
    unique: dict[tuple, np.ndarray] = {}
    for p in candidates:
        unique[tuple(np.round(p, 6))] = p
    worst, failures, junctions = [], [], []
    best_fail_rank = None
    for p in unique.values():
        cone = blowup_at(params, p, tie_tol=SINGULAR_TIE_TOL)
        if len(cone.incidence) < 2:
            continue
        diag = plateau_at(cone)
        entry = {"point": p, "incidence": cone.incidence.tolist(),
                 "affine_rank": cone.affine_rank, "gram_residual": diag.gram_residual,
                 "is_plateau": diag.is_plateau}
        if len(cone.incidence) >= 3:
            junctions.append(entry)
        if not diag.is_plateau:
            failures.append(entry)
            if best_fail_rank is None or cone.affine_rank < best_fail_rank:
                best_fail_rank = cone.affine_rank
        worst.append(entry)
    worst.sort(key=lambda e: (e["is_plateau"], -e["gram_residual"]))
    level = min(params.n, q - 1) if best_fail_rank is None else max(best_fail_rank - 1, 0)
    return PlateauCertificate(level, worst[:10], len(unique), len(junctions),
                              best_fail_rank is None, failures, junctions)
