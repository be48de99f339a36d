"""Second-variation (Jacobi) operator on the boundary network of an S^2 cluster.

The boundary is a metric graph of circular arcs joined at triple points. On
each arc of curvature kappa the operator is f'' + (1 + kappa^2) f; at each
vertex the oriented traces sum to zero (Kirchhoff-Dirichlet) and the outward
derivatives satisfy a matched Robin condition whose coefficient comes from the
two opposite curvatures. The discretization is Galerkin with piecewise-linear
elements: the index form (including the Robin vertex terms, which enter as
natural boundary terms) and the mass matrix are assembled exactly, and the
trace constraint is eliminated by a sparse congruence, so the reduced pencil
is symmetric to machine precision and eigenvalues converge at second order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cluster import ClusterParams, InterfaceGraph, classify_point
from .measure import Arc, extract_arcs

SQRT3 = math.sqrt(3.0)
NORM_S2 = 4.0 * math.pi
VERTEX_TOL = 1e-7
KERNEL_FLOOR = 1e-6
KERNEL_STEPS = 3  # block inverse iteration steps of JacobiSystem.near_kernel


class GraphBuildError(RuntimeError):
    pass


@dataclass
class VertexEnd:
    """One arc end incident to a vertex.

    sign converts the arc's canonical field f_ij (i < j) to the cyclic
    orientation at the vertex; robin is the matched-derivative coefficient
    (kappa_i + kappa_j - 2 kappa_k) / sqrt(3) for third cell k.
    """

    arc_index: int
    end: int  # 0 = arc start (t0), 1 = arc end (t1)
    sign: float
    robin: float


@dataclass
class Vertex:
    point: np.ndarray
    cells: tuple[int, int, int]
    ends: list[VertexEnd]


@dataclass
class QuantumGraph:
    params: ClusterParams
    arcs: list[Arc]
    vertices: list[Vertex]

    @property
    def q(self) -> int:
        return self.params.q


def build_graph(params: ClusterParams, graph: InterfaceGraph) -> QuantumGraph:
    """Extract arcs and triple points of an S^2 cluster into a metric graph.

    Every junction must be a genuine triple point (three incident arc ends,
    three distinct cells, confirmed by point classification); anything else is
    a structured error since the vertex conditions are only defined there.
    """
    if params.n != 2:
        raise GraphBuildError("the boundary-network operator is only built on S^2")
    arcs = extract_arcs(params, graph)
    if not arcs:
        raise GraphBuildError("cluster has no interfaces")
    ends: list[tuple[int, int, np.ndarray]] = []
    for idx, arc in enumerate(arcs):
        if arc.closed:
            continue
        ends.append((idx, 0, arc.ends[0]))
        ends.append((idx, 1, arc.ends[1]))

    clusters: list[list[tuple[int, int, np.ndarray]]] = []
    for item in ends:
        for group in clusters:
            if np.linalg.norm(group[0][2] - item[2]) < VERTEX_TOL:
                group.append(item)
                break
        else:
            clusters.append([item])

    kappa = params.curvatures
    vertices = []
    for group in clusters:
        if len(group) != 3:
            raise GraphBuildError(
                f"junction at {group[0][2]} has {len(group)} incident arc ends; "
                "only certified triple points are supported")
        point = np.mean([g[2] for g in group], axis=0)
        point /= np.linalg.norm(point)
        cells = sorted({c for (ai, _, _) in group for c in (arcs[ai].i, arcs[ai].j)})
        if len(cells) != 3:
            raise GraphBuildError(f"junction at {point} does not join three distinct cells")
        u, v, w = cells
        expected = {(u, v), (v, w), (u, w)}
        got = {(arcs[ai].i, arcs[ai].j) for (ai, _, _) in group}
        if got != expected:
            raise GraphBuildError(f"junction at {point} has pairs {got}, expected {expected}")
        incidence = classify_point(params, point, tie_tol=VERTEX_TOL)
        if not set(cells).issubset(set(int(c) for c in incidence)):
            raise GraphBuildError(f"junction at {point} failed point-classification check")
        vertex_ends = []
        for ai, end, _ in group:
            i, j = arcs[ai].i, arcs[ai].j
            k = next(c for c in cells if c not in (i, j))
            robin = (kappa[i] + kappa[j] - 2.0 * kappa[k]) / SQRT3
            sign = -1.0 if (i, j) == (u, w) else 1.0
            vertex_ends.append(VertexEnd(ai, end, sign, robin))
        vertices.append(Vertex(point, (u, v, w), vertex_ends))
    return QuantumGraph(params, arcs, vertices)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass
class JacobiSystem:
    """Assembled discrete pencil: form matrix A (the index form), mass M, and
    the sparse basis Z of the Kirchhoff-constraint subspace.

    Eigenvalues of the operator are the lam solving A x = -lam M x over the
    constrained subspace, i.e. the pencil (-Z^T A Z, Z^T M Z).
    """

    graph: QuantumGraph
    h: float
    offsets: list[int]
    counts: list[int]
    cyclic: list[bool]
    steps: list[float]
    form: sp.csr_matrix
    mass: sp.csr_matrix
    constraint_basis: sp.csr_matrix
    _reduced: tuple[sp.csr_matrix, sp.csr_matrix] | None = field(default=None, repr=False)
    _form_lu: spla.SuperLU | None = field(default=None, repr=False)
    _kernel: np.ndarray | None = field(default=None, repr=False)
    _counts: dict[float, tuple[int, str]] = field(default_factory=dict, repr=False)
    _refined: JacobiSystem | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.form.shape[0]

    @property
    def reduced_size(self) -> int:
        return self.constraint_basis.shape[1]

    def arc_values(self, x: np.ndarray, arc_index: int) -> np.ndarray:
        off, cnt = self.offsets[arc_index], self.counts[arc_index]
        return x[off:off + cnt]

    def arc_points(self, arc_index: int) -> np.ndarray:
        arc = self.graph.arcs[arc_index]
        cnt = self.counts[arc_index]
        m = cnt if self.cyclic[arc_index] else cnt - 1
        ts = arc.t0 + (arc.t1 - arc.t0) * np.arange(cnt) / m
        return arc.point(ts)

    def reduced(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """The reduced pencil (Z^T A Z, Z^T M Z) (cached; callers must not modify it)."""
        if self._reduced is None:
            z = self.constraint_basis
            self._reduced = (z.T @ self.form @ z).tocsr(), (z.T @ self.mass @ z).tocsr()
        return self._reduced

    def form_factor(self) -> spla.SuperLU:
        """Sparse LU factorization of the reduced form A_r (cached)."""
        if self._form_lu is None:
            self._form_lu = spla.splu(self.reduced()[0].tocsc())
        return self._form_lu

    def count_above(self, value: float) -> tuple[int, str]:
        """(number of eigenvalues lam > value, inertia method), cached per value.

        The count is the positive inertia of -A_r - value M_r, so each shift
        is factored once however many callers ask for it.
        """
        if value not in self._counts:
            a_r, m_r = self.reduced()
            self._counts[value] = positive_inertia(-a_r - value * m_r)
        return self._counts[value]

    def refined(self) -> JacobiSystem:
        """The same graph assembled at grid spacing h/2 (cached)."""
        if self._refined is None:
            self._refined = assemble_jacobi(self.graph, self.h / 2.0)
        return self._refined

    def near_kernel(self) -> np.ndarray:
        """M_r-orthonormal eigenvectors with |lam| <= kernel_tolerance(self), as
        columns (cached, read-only).

        Their number m is the inertia difference at -tol and +tol, counts that
        eigen_count_positive has usually cached already. The vectors come from
        KERNEL_STEPS steps of block inverse iteration X <- A_r^-1 M_r X with
        form_factor(), from a fixed block of m + 2 columns orthonormalized
        after each step, and one Rayleigh-Ritz step on the pencil: the m Ritz
        pairs of least |lam|. Each step shrinks the error of the kernel
        subspace by |lam_m| / |lam_(m+3)|, which is O(h^2) where the kernel
        eigenvalues lie within O(h^2) of 0 and the next at O(1). A Ritz value
        outside the tolerance is a SpectrumError.
        """
        if self._kernel is None:
            kernel_tol = kernel_tolerance(self)
            dim = self.count_above(-kernel_tol)[0] - self.count_above(kernel_tol)[0]
            vec = np.zeros((self.reduced_size, 0))
            if dim:
                a_r, m_r = self.reduced()
                lu = self.form_factor()
                block = np.random.default_rng(0).standard_normal(
                    (self.reduced_size, min(dim + 2, self.reduced_size)))
                for _ in range(KERNEL_STEPS):
                    block = np.linalg.qr(lu.solve(m_r @ block))[0]
                # an M_r-orthonormal basis of the block, then Rayleigh-Ritz on -A_r
                mass, frame = np.linalg.eigh(block.T @ (m_r @ block))
                block = block @ (frame / np.sqrt(mass))
                lam, ritz = np.linalg.eigh(block.T @ -(a_r @ block))
                keep = np.sort(np.argsort(np.abs(lam), kind="stable")[:dim])
                lam, vec = lam[keep], block @ ritz[:, keep]
                if np.max(np.abs(lam)) > kernel_tol:
                    raise SpectrumError(
                        f"inverse iteration found eigenvalues {lam} nearest 0, but inertia "
                        f"puts {dim} within {kernel_tol:g}")
            vec.flags.writeable = False
            self._kernel = vec
        return self._kernel


def assemble_jacobi(graph: QuantumGraph, h: float) -> JacobiSystem:
    """Piecewise-linear Galerkin assembly at target grid spacing h.

    Each arc gets a uniform grid with at least 16 intervals (coarser h is an
    error, as is an h that is not finite and positive); vertex-free circle
    interfaces are discretized cyclically.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"grid spacing h must be finite and positive, got {h!r}")
    arcs = graph.arcs
    offsets, counts, cyclic, steps = [], [], [], []
    total = 0
    for arc in arcs:
        m = int(math.ceil(arc.length / h))
        if m < 16:
            raise ValueError(
                f"h = {h:g} gives only {m} intervals on an arc of length "
                f"{arc.length:g}; need at least 16")
        offsets.append(total)
        counts.append(m if arc.closed else m + 1)
        cyclic.append(arc.closed)
        steps.append(arc.length / m)
        total += counts[-1]

    # interval e of an arc joins nodes n0, n1 and contributes the entries
    # (n0, n0), (n1, n1), (n0, n1), (n1, n0), in that order
    rows, cols, a_vals, m_vals = [], [], [], []
    for ai, arc in enumerate(arcs):
        step = steps[ai]
        pot = 1.0 + arc.kappa ** 2
        m_intervals = counts[ai] if cyclic[ai] else counts[ai] - 1
        k_diag, k_off = 1.0 / step, -1.0 / step
        m_diag, m_off = step / 3.0, step / 6.0
        e = np.arange(m_intervals)
        n0 = offsets[ai] + e
        n1 = offsets[ai] + ((e + 1) % counts[ai] if cyclic[ai] else e + 1)
        rows.append(np.stack([n0, n1, n0, n1], axis=1).ravel())
        cols.append(np.stack([n0, n1, n1, n0], axis=1).ravel())
        a_diag, a_off = k_diag - pot * m_diag, k_off - pot * m_off
        a_vals.append(np.tile([a_diag, a_diag, a_off, a_off], m_intervals))
        m_vals.append(np.tile([m_diag, m_diag, m_off, m_off], m_intervals))

    size = total
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    form = sp.coo_matrix((np.concatenate(a_vals), (rows, cols)), shape=(size, size)).tocsr()
    mass = sp.coo_matrix((np.concatenate(m_vals), (rows, cols)), shape=(size, size)).tocsr()

    # the node of each arc end at each vertex
    vertex_nodes = [[offsets[ve.arc_index] + (0 if ve.end == 0 else counts[ve.arc_index] - 1)
                     for ve in vertex.ends] for vertex in graph.vertices]

    # Robin vertex terms enter the form with a minus sign
    vert_rows = [node for nodes in vertex_nodes for node in nodes]
    vert_vals = [-ve.robin for vertex in graph.vertices for ve in vertex.ends]
    if vert_rows:
        form = form + sp.coo_matrix((vert_vals, (vert_rows, vert_rows)),
                                    shape=(size, size)).tocsr()

    form = form / NORM_S2
    mass = mass / NORM_S2

    # eliminate one endpoint dof per vertex: sum of signed traces vanishes
    # (the free dofs are the columns of Z, in order; a dependent dof's row
    # combines the other two traces at its vertex)
    dep_rows, src_nodes, coeffs = [], [], []
    for vertex, nodes in zip(graph.vertices, vertex_nodes):
        signs = [ve.sign for ve in vertex.ends]
        dep_rows += [nodes[-1]] * 2
        src_nodes += nodes[:2]
        coeffs += [-signs[k] / signs[-1] for k in range(2)]
    dep_rows = np.array(dep_rows, dtype=np.intp)
    free = np.ones(size, dtype=bool)
    free[dep_rows] = False
    free_rows = np.flatnonzero(free)
    col_of = np.cumsum(free) - 1
    z_rows = np.concatenate([free_rows, dep_rows])
    z_cols = np.concatenate([np.arange(free_rows.size), col_of[src_nodes]])
    z_vals = np.concatenate([np.ones(free_rows.size), np.array(coeffs, dtype=float)])
    z = sp.coo_matrix((z_vals, (z_rows, z_cols)), shape=(size, free_rows.size)).tocsr()
    return JacobiSystem(graph, h, offsets, counts, cyclic, steps, form, mass, z)


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

def field_from_pointwise(system: JacobiSystem, fn) -> np.ndarray:
    """Node vector of a field given pointwise: fn(arc, points) -> values of f_ij."""
    x = np.zeros(system.size)
    for ai, arc in enumerate(system.graph.arcs):
        off, cnt = system.offsets[ai], system.counts[ai]
        x[off:off + cnt] = fn(arc, system.arc_points(ai))
    return x


def piecewise_constant_field(system: JacobiSystem, a) -> np.ndarray:
    """Node vector with value a_i - a_j on each (i, j) arc."""
    a = np.asarray(a, dtype=float)
    return field_from_pointwise(system, lambda arc, pts: a[arc.i] - a[arc.j])


def strong_residual(system: JacobiSystem, x: np.ndarray, rhs=None) -> float:
    """Max interior residual of f'' + (1 + kappa^2) f - rhs by 3-point stencils.

    rhs maps an arc to a constant or nodal array; None means 0. Vertex rows are
    excluded (they carry the natural boundary conditions instead).
    """
    worst = 0.0
    for ai, arc in enumerate(system.graph.arcs):
        off, cnt, step = system.offsets[ai], system.counts[ai], system.steps[ai]
        vals = x[off:off + cnt]
        pot = 1.0 + arc.kappa ** 2
        target = 0.0 if rhs is None else rhs(arc)
        if system.cyclic[ai]:
            second = (np.roll(vals, 1) - 2.0 * vals + np.roll(vals, -1)) / step ** 2
            res = second + pot * vals - target
        else:
            second = (vals[:-2] - 2.0 * vals[1:-1] + vals[2:]) / step ** 2
            inner_target = target if np.isscalar(target) else target[1:-1]
            res = second + pot * vals[1:-1] - inner_target
        if res.size:
            worst = max(worst, float(np.max(np.abs(res))))
    return worst


def volume_derivative(system: JacobiSystem, x: np.ndarray) -> np.ndarray:
    """First variation of the cell volumes under a scalar field (normalized).

    Trapezoid quadrature of f over each arc, accumulated into the sum-zero
    pairing: component i gains, component j loses.
    """
    out = np.zeros(system.graph.q)
    for ai, arc in enumerate(system.graph.arcs):
        vals = system.arc_values(x, ai)
        step = system.steps[ai]
        if system.cyclic[ai]:
            integral = step * float(vals.sum())
        else:
            integral = step * (float(vals.sum()) - 0.5 * (vals[0] + vals[-1]))
        out[arc.i] += integral / NORM_S2
        out[arc.j] -= integral / NORM_S2
    return out


# ---------------------------------------------------------------------------
# Eigenvalues and solves
# ---------------------------------------------------------------------------

class SpectrumError(RuntimeError):
    pass


def positive_inertia(matrix: sp.spmatrix) -> tuple[int, str]:
    """Number of positive eigenvalues of a symmetric sparse matrix (Sylvester's law).

    SuperLU with a symmetric fill-reducing ordering and diagonal pivoting gives
    P K P^T = L U with U = D L^T, so the positive entries of diag(U) = D count
    the positive eigenvalues. Returns (count, method). The guard
    perm_r == perm_c confirms that no off-diagonal pivot was taken; when it
    trips, the count comes from a dense Bunch-Kaufman LDL^T instead, whose
    block-diagonal D (1x1 and 2x2 blocks) is tridiagonal, and the method is
    "dense_ldl".
    """
    lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    if np.array_equal(lu.perm_r, lu.perm_c):
        return int(np.count_nonzero(lu.U.diagonal() > 0.0)), "sparse_ldl"
    _, d, _ = scipy.linalg.ldl(matrix.toarray())
    blocks = scipy.linalg.eigvalsh_tridiagonal(np.diagonal(d).copy(), np.diagonal(d, -1).copy())
    return int(np.count_nonzero(blocks > 0.0)), "dense_ldl"


def kernel_tolerance(system: JacobiSystem) -> float:
    """Discretization-aware zero-mode threshold: exact kernel eigenvalues land
    within O(h^2) of zero, so anything below ~50 h^2, floored at KERNEL_FLOOR,
    is treated as kernel."""
    return max(KERNEL_FLOOR, 50.0 * system.h ** 2)


@dataclass
class SpectrumReport:
    count_positive: int
    eigenvalues: np.ndarray  # the top k_top eigenvalues, descending
    kernel_dim: int
    converged: bool
    counts_at_resolutions: tuple[int, int]
    method: str  # "sparse_ldl", or "dense_ldl" if any inertia guard tripped


def _top_eigenvalues(system: JacobiSystem, k_top: int) -> np.ndarray:
    """The k_top largest eigenvalues, descending, by one shift-invert Lanczos
    run from a fixed start vector (so reruns give identical bits)."""
    a_r, m_r = system.reduced()
    kappa_max = max(abs(a.kappa) for a in system.graph.arcs)
    sigma = 1.0 + kappa_max ** 2 + 3.0
    lam = spla.eigsh(-a_r.tocsc(), k=min(k_top, system.reduced_size - 2),
                     M=m_r.tocsc(), sigma=sigma, which="LM",
                     v0=np.ones(system.reduced_size), return_eigenvectors=False)
    return np.sort(lam)[::-1]


def eigen_count_positive(system: JacobiSystem, k_top: int = 16) -> SpectrumReport:
    """Count positive eigenvalues by Sylvester inertia, with an h/2 refinement check.

    With cut = kernel_tolerance(system), count_positive is the number of
    eigenvalues above cut, i.e. the positive inertia of -A_r - cut M_r;
    kernel_dim is the number in (-cut, cut], the difference of the inertias
    at -cut and +cut. Both are exact for the discrete pencil at any size. The
    count must agree with that of the h/2 refinement, cut at its own kernel
    tolerance; disagreement is reported as converged=False. k_top only sets
    how many of the largest eigenvalues are reported; when they reach below
    the kernel, the number of them above cut must equal count_positive.
    """
    cut = kernel_tolerance(system)
    count, method_plus = system.count_above(cut)
    above_minus, method_minus = system.count_above(-cut)
    kernel = above_minus - count

    fine = system.refined()
    count_fine, method_fine = fine.count_above(kernel_tolerance(fine))
    methods = {method_plus, method_minus, method_fine}
    method = "dense_ldl" if "dense_ldl" in methods else "sparse_ldl"

    lam = _top_eigenvalues(system, k_top)
    above_cut = int(np.count_nonzero(lam > cut))
    if lam.size > count + kernel and above_cut != count:
        raise SpectrumError(f"{above_cut} of the top {lam.size} eigenvalues exceed "
                            f"{cut:g}, but the inertia count is {count}")
    return SpectrumReport(count, lam, kernel, count == count_fine, (count, count_fine),
                          method)


@dataclass
class ConformalSolveReport:
    field: np.ndarray
    volume_column: np.ndarray
    kernel_dim: int
    removed_rhs_fraction: float
    conformal_parameter: np.ndarray


def conformal_jacobi_solve(system: JacobiSystem, a) -> ConformalSolveReport:
    """Solve the vertex-matched problem L f = (n-1) a_ij per arc; return f and its volume column.

    The near-kernel eigenvectors V0 (discrete Jacobi fields, |lam| <=
    kernel_tolerance(system), M_r-orthonormal) are projected out of the
    right-hand side, the reduced system is solved with a sparse LU of A_r, and
    V0 is projected out of the solution. The removed fraction
    |V0^T rhs| / sqrt(rhs^T M_r^-1 rhs) is reported. The volume column of the
    returned field is one column of the discrete conformal-to-volume operator.
    """
    a = np.asarray(a, dtype=float)
    a = a - a.mean()
    n_minus_1 = float(system.graph.params.n - 1)
    g = piecewise_constant_field(system, a)
    rhs_full = -n_minus_1 * (system.mass @ g)
    z = system.constraint_basis
    rhs = z.T @ rhs_full
    m_r = system.reduced()[1].tocsc()
    kernel = system.near_kernel()
    # with -A v_k = lam_k M v_k and V^T M V = Id, rhs = M V c for c = V^T rhs
    coeffs = kernel.T @ rhs
    total = math.sqrt(max(float(rhs @ spla.spsolve(m_r, rhs)), 0.0))
    removed = float(np.linalg.norm(coeffs) / max(total, 1e-300))
    y = system.form_factor().solve(rhs - m_r @ (kernel @ coeffs))
    y -= kernel @ (kernel.T @ (m_r @ y))
    x = z @ y
    return ConformalSolveReport(x, volume_derivative(system, x), kernel.shape[1], removed, a)
