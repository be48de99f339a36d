"""Second-variation (Jacobi) operator on the boundary network of an S^2 cluster.

The boundary is a metric graph of circular arcs joined at triple points. On
each arc of curvature kappa the operator is f'' + (1 + kappa^2) f; at each
vertex the oriented traces sum to zero (Kirchhoff-Dirichlet) and the outward
derivatives satisfy a matched Robin condition whose coefficient comes from the
two opposite curvatures. The discretization is Galerkin with piecewise-linear
elements: the index form (including the Robin vertex terms, which enter as
natural boundary terms) and the mass matrix are exact, and the trace
constraint is eliminated by a congruence, so the reduced pencil is symmetric
and eigenvalues converge at second order. Nothing is assembled: JacobiSystem
applies the matrices by per-arc stencils.

Each arc's grid is uniform, so its block of the pencil is Toeplitz and has
closed-form modes, all in one arc model, ToeplitzArcs. Over it, the vertex
engine condenses every arc onto its ends: ArcPencil counts and locates the
eigenvalues from a small vertex matrix (eigen_count_positive reads the one of
the system's grid and another at h/2), and CondensedForm solves with the
reduced form at c = 0 for the near-kernel vectors and the matched solve. Only
spherical clusters (validate_spherical) get a graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .cluster import ClusterParams, InterfaceGraph, classify_point, validate_spherical
from .measure import Arc, extract_arcs

SQRT3 = math.sqrt(3.0)
NORM_S2 = 4.0 * math.pi
VERTEX_TOL = 1e-7
KERNEL_FLOOR = 1e-6
KERNEL_STEPS = 3  # block inverse iteration steps of JacobiSystem.near_kernel
MIN_INTERVALS = 16  # fewest grid intervals on an arc
POLE_GUARD = 0.05  # mode spacings from a pole within which ArcPencil sums modes one by one
POLE_MERGE = 1e-9  # relative gap below which arc Dirichlet values share a bracket
ROOT_STEPS = 100  # batched evaluations before the eigenvalue search gives up
EIGEN_XTOL = 1e-12  # relative bracket width at which an eigenvalue is settled
NEWTON_STOP = 1e-10  # relative Newton step at which an eigenvalue is settled
SLOPE_STEP = 1e-7  # relative step of the difference quotient of G(c)


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
    """Extract arcs and triple points of a spherical S^2 cluster into a metric graph.

    A vertex is the arc ends whose labels (Arc.end_cells) give one cell triple
    a < b < d and whose points p give one sign of <(c_b - c_a) x (c_d - c_a), p>,
    which tells the two triple points of a triple apart. It must be a genuine
    triple point (one end of each of the three pairs, all within VERTEX_TOL,
    confirmed by point classification); an end closed by two cells at once, or
    anything else, is a structured error since the vertex conditions are only
    defined there.
    """
    if params.n != 2:
        raise GraphBuildError("the boundary-network operator is only built on S^2")
    spherical = validate_spherical(params, graph)
    if not spherical.passed:
        raise GraphBuildError(f"interfaces {sorted(spherical.violations)} violate |c_ij|^2 = "
                              "1 + kappa_ij^2: the cluster is not spherical (not stationary)")
    arcs = extract_arcs(params, graph)
    if not arcs:
        raise GraphBuildError("cluster has no interfaces")
    centers, kappa = params.quasi_centers, params.curvatures
    groups: dict[tuple, list[tuple]] = {}  # (a, b, d, side) -> [(arc, end, point, label)]
    for idx, arc in enumerate(arcs):
        if arc.closed:
            continue
        for end, (point, closers) in enumerate(zip(arc.ends, arc.end_cells)):
            if len(closers) != 1:
                raise GraphBuildError(f"arc end at {point} is closed by cells {closers} at "
                                      "once; only certified triple points are supported")
            a, b, d = sorted((arc.i, arc.j) + closers)
            side = np.dot(np.cross(centers[b] - centers[a], centers[d] - centers[a]), point) > 0.0
            groups.setdefault((a, b, d, side), []).append((idx, end, point, closers[0]))
    vertices = []
    for (u, v, w, _), group in groups.items():
        pairs = sorted((arcs[ai].i, arcs[ai].j) for ai, *_ in group)
        spread = max(np.linalg.norm(group[0][2] - g[2]) for g in group)
        if pairs != [(u, v), (u, w), (v, w)] or spread >= VERTEX_TOL:
            raise GraphBuildError(f"junction at {group[0][2]} of cells {(u, v, w)} has arc ends "
                                  f"of pairs {pairs}, {spread:.1e} apart; only certified "
                                  "triple points are supported")
        point = np.mean([g[2] for g in group], axis=0)
        point /= np.linalg.norm(point)
        if not {u, v, w} <= {int(c) for c in classify_point(params, point, tie_tol=VERTEX_TOL)}:
            raise GraphBuildError(f"junction at {point} failed point-classification check")
        vertex_ends = []
        for ai, end, _, k in group:  # k, the end's label, is the third cell
            i, j = arcs[ai].i, arcs[ai].j
            robin = (kappa[i] + kappa[j] - 2.0 * kappa[k]) / SQRT3
            vertex_ends.append(VertexEnd(ai, end, -1.0 if (i, j) == (u, w) else 1.0, robin))
        vertices.append(Vertex(point, (u, v, w), vertex_ends))
    return QuantumGraph(params, arcs, vertices)


def dependent_trace(vertex: Vertex) -> list[float]:
    """[c_1, c_2] with f_3 = c_1 f_1 + c_2 f_2, c_k = -s_k / s_3: the vertex's signed
    traces s_k f_k sum to zero, and its last end's trace is the dependent one
    (in assemble_jacobi's basis and in ArcPencil's)."""
    *free, last = (ve.sign for ve in vertex.ends)
    return [-sign / last for sign in free]


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass
class JacobiSystem:
    """The discrete pencil on the grids of arc_grids(graph, h), matrix-free.

    A node vector holds each arc's grid values at offsets[a]:offsets[a] +
    counts[a]. The form matrix A (the index form) and the mass M act on node
    vectors by per-arc three-point stencils; the basis Z of the
    Kirchhoff-constraint subspace maps a reduced vector, the values at every
    node but the dependent end at each vertex (dependent_trace), to a node
    vector. Eigenvalues of the operator are the lam solving A x = -lam M x over
    the constrained subspace, i.e. the pencil (-A_r, M_r) with A_r = Z^T A Z
    and M_r = Z^T M Z. The properties derived from it are computed on first use
    and kept; callers must not modify them.
    """

    graph: QuantumGraph
    h: float
    offsets: list[int]
    counts: list[int]
    steps: list[float]

    @property
    def size(self) -> int:
        return self.offsets[-1] + self.counts[-1]

    @property
    def reduced_size(self) -> int:
        return self.size - len(self.graph.vertices)

    def arc_values(self, x: np.ndarray, arc_index: int) -> np.ndarray:
        off, cnt = self.offsets[arc_index], self.counts[arc_index]
        return x[off:off + cnt]

    def arc_points(self, arc_index: int) -> np.ndarray:
        arc, cnt = self.graph.arcs[arc_index], self.counts[arc_index]
        m = cnt if arc.closed else cnt - 1
        return arc.point(arc.t0 + (arc.t1 - arc.t0) * np.arange(cnt) / m)

    @cached_property
    def trace_rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ends, coeffs, columns): the node of each arc end at each vertex, shape
        (vertices, 3) in vertex.ends order, whose last column holds the dependent
        traces; their dependent_trace coefficients, shape (vertices, 2); and the
        reduced index of each node, -1 at a dependent end."""
        ends = np.array([[self.offsets[ve.arc_index] + (0 if ve.end == 0 else
                                                        self.counts[ve.arc_index] - 1)
                          for ve in vertex.ends] for vertex in self.graph.vertices],
                        dtype=np.intp).reshape(-1, 3)
        coeffs = np.array([dependent_trace(v) for v in self.graph.vertices]).reshape(-1, 2)
        free = np.ones(self.size, dtype=bool)
        free[ends[:, 2]] = False
        return ends, coeffs, np.where(free, np.cumsum(free) - 1, -1)

    def expand(self, y: np.ndarray) -> np.ndarray:
        """Z y: the node vector (or columns) of reduced vectors."""
        ends, coeffs, columns = self.trace_rule
        coeffs = coeffs.reshape(coeffs.shape + (1,) * (y.ndim - 1))
        sources = columns[ends[:, :2]]
        x = np.empty((self.size,) + y.shape[1:])
        x[columns >= 0] = y
        x[ends[:, 2]] = coeffs[:, 0] * y[sources[:, 0]] + coeffs[:, 1] * y[sources[:, 1]]
        return x

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """Z^T x of node vectors (or columns)."""
        ends, coeffs, columns = self.trace_rule
        coeffs = coeffs.reshape(coeffs.shape + (1,) * (x.ndim - 1))
        y = x[columns >= 0]
        for k in range(2):  # the sources of all vertices are distinct
            y[columns[ends[:, k]]] += coeffs[:, k] * x[ends[:, 2]]
        return y

    def apply_form(self, x: np.ndarray) -> np.ndarray:
        """A x of node vectors (or columns)."""
        out = self._stencils(x, form=True)
        ends = self.trace_rule[0].ravel()
        robin = np.array([ve.robin for v in self.graph.vertices for ve in v.ends])
        out[ends] -= robin.reshape(robin.shape + (1,) * (x.ndim - 1)) * x[ends]
        return out / NORM_S2

    def apply_mass(self, x: np.ndarray) -> np.ndarray:
        """M x of node vectors (or columns)."""
        return self._stencils(x, form=False) / NORM_S2

    def _stencils(self, x: np.ndarray, form: bool) -> np.ndarray:
        """Each arc's three-point stencil of A (without the Robin terms and the
        1/4pi) or of M: every interval adds d to its two diagonal entries and o
        to its two off-diagonal ones, cyclically on a vertex-free circle."""
        out = np.empty_like(x)
        for ai, arc in enumerate(self.graph.arcs):
            step = self.steps[ai]
            if form:
                pot = 1.0 + arc.kappa ** 2
                d, o = 1.0 / step - pot * step / 3.0, -1.0 / step - pot * step / 6.0
            else:
                d, o = step / 3.0, step / 6.0
            v, w = self.arc_values(x, ai), self.arc_values(out, ai)
            if arc.closed:
                w[:] = 2.0 * d * v + o * (np.roll(v, 1, axis=0) + np.roll(v, -1, axis=0))
            else:
                w[1:-1] = 2.0 * d * v[1:-1] + o * (v[:-2] + v[2:])
                w[0] = d * v[0] + o * v[1]
                w[-1] = d * v[-1] + o * v[-2]
        return out

    def reduced_form(self, y: np.ndarray) -> np.ndarray:
        """A_r y of reduced vectors (or columns)."""
        return self.restrict(self.apply_form(self.expand(y)))

    def reduced_mass(self, y: np.ndarray) -> np.ndarray:
        """M_r y of reduced vectors (or columns)."""
        return self.restrict(self.apply_mass(self.expand(y)))

    @cached_property
    def pencil(self) -> ArcPencil:
        """The same pencil condensed in closed form: ArcPencil(graph, h)."""
        return ArcPencil(self.graph, self.h)

    @cached_property
    def form_solver(self) -> CondensedForm:
        """A_r^-1 by the condensation of the pencil at c = 0."""
        return CondensedForm(self)

    @cached_property
    def cut_counts(self) -> tuple[int, int]:
        """The numbers of eigenvalues above +kernel_tolerance and above -kernel_tolerance."""
        cut = kernel_tolerance(self)
        return self.pencil.count_above(cut), self.pencil.count_above(-cut)

    @cached_property
    def near_kernel(self) -> np.ndarray:
        """M_r-orthonormal eigenvectors with |lam| <= kernel_tolerance(self), as
        columns (read-only).

        Their number m is the difference of cut_counts. The vectors come from
        KERNEL_STEPS steps of block inverse iteration X <- A_r^-1 M_r X with
        form_solver, from a fixed block of m + 2 columns orthonormalized
        after each step, and one Rayleigh-Ritz step on the pencil: the m Ritz
        pairs of least |lam|. Each step shrinks the error of the kernel
        subspace by |lam_m| / |lam_(m+3)|, which is O(h^2) where the kernel
        eigenvalues lie within O(h^2) of 0 and the next at O(1). A Ritz value
        outside the tolerance is a SpectrumError.
        """
        kernel_tol = kernel_tolerance(self)
        dim = self.cut_counts[1] - self.cut_counts[0]
        vec = np.zeros((self.reduced_size, 0))
        if dim:
            solve = self.form_solver.solve
            block = np.random.default_rng(0).standard_normal(
                (self.reduced_size, min(dim + 2, self.reduced_size)))
            for _ in range(KERNEL_STEPS):
                block = np.linalg.qr(solve(self.reduced_mass(block)))[0]
            # an M_r-orthonormal basis of the block, then Rayleigh-Ritz on -A_r
            mass, frame = np.linalg.eigh(block.T @ self.reduced_mass(block))
            block = block @ (frame / np.sqrt(mass))
            lam, ritz = np.linalg.eigh(block.T @ -self.reduced_form(block))
            keep = np.sort(np.argsort(np.abs(lam), kind="stable")[:dim])
            lam, vec = lam[keep], block @ ritz[:, keep]
            if np.max(np.abs(lam)) > kernel_tol:
                raise SpectrumError(
                    f"inverse iteration found eigenvalues {lam} nearest 0, but inertia "
                    f"puts {dim} within {kernel_tol:g}")
        vec.flags.writeable = False
        return vec


def arc_grids(graph: QuantumGraph, h: float) -> list[tuple[int, float]]:
    """(intervals, step) of each arc's uniform grid at target spacing h.

    An arc of length l gets ceil(l / h) intervals; fewer than MIN_INTERVALS on
    any arc is an error, as is an h that is not finite and positive.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"grid spacing h must be finite and positive, got {h!r}")
    grids = []
    for arc in graph.arcs:
        m = int(math.ceil(arc.length / h))
        if m < MIN_INTERVALS:
            raise ValueError(
                f"h = {h:g} gives only {m} intervals on an arc of length "
                f"{arc.length:g}; need at least {MIN_INTERVALS}")
        grids.append((m, arc.length / m))
    return grids


def assemble_jacobi(graph: QuantumGraph, h: float) -> JacobiSystem:
    """Piecewise-linear Galerkin pencil on the grids of arc_grids(graph, h).

    Vertex-free circle interfaces are discretized cyclically. Nothing is
    assembled: the system applies its matrices by stencils.
    """
    grids = arc_grids(graph, h)
    counts = [m if arc.closed else m + 1 for arc, (m, _) in zip(graph.arcs, grids)]
    return JacobiSystem(graph, h, list(accumulate([0] + counts[:-1])), counts,
                        [step for _, step in grids])


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

def field_from_pointwise(system: JacobiSystem, fn) -> np.ndarray:
    """Node vector of a field given pointwise: fn(arc, points) -> values of f_ij."""
    x = np.zeros(system.size)
    for ai, arc in enumerate(system.graph.arcs):
        system.arc_values(x, ai)[:] = fn(arc, system.arc_points(ai))
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
        vals, step = system.arc_values(x, ai), system.steps[ai]
        pot = 1.0 + arc.kappa ** 2
        target = 0.0 if rhs is None else rhs(arc)
        if arc.closed:
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
        integral = step * (float(vals.sum()) - (0.0 if arc.closed else 0.5 * (vals[0] + vals[-1])))
        out[arc.i] += integral / NORM_S2
        out[arc.j] -= integral / NORM_S2
    return out


# ---------------------------------------------------------------------------
# Eigenvalues and solves
# ---------------------------------------------------------------------------

class SpectrumError(RuntimeError):
    pass


def kernel_tolerance(system: JacobiSystem) -> float:
    """Discretization-aware zero-mode threshold: exact kernel eigenvalues land
    within O(h^2) of zero, so anything below ~50 h^2, floored at KERNEL_FLOOR,
    is treated as kernel."""
    return max(KERNEL_FLOOR, 50.0 * system.h ** 2)


class ToeplitzArcs:
    """The closed forms of the arcs' P1 interiors in the pencil of
    assemble_jacobi(graph, h), as arrays over the open arcs.

    At a shift c the pencil is K(c) = -A - c M without the factor 1/4pi. On an
    open arc with m intervals of step s and potential p = 1 + kappa^2, set
    mu = p - c, a = -2/s + 2 mu s/3 and b = 1/s + mu s/6: the interior block T
    is Toeplitz(a, b), with modes sin(j k pi/m) of values
    t_j = mu s - 4 b sin^2(j pi/2m), j < m, zero at the Dirichlet values, and
    end couplings w_j [1, (-1)^(j+1)], w_j = b sqrt(2/m) sin(j pi/m); each end
    node carries a/2. A circle's block is circulant, of values
    mu s - 4 b sin^2(j pi/m). Eliminating every mode leaves the end block
    b sin(theta)/sin(m theta) [[-cos m theta, 1], [1, -cos m theta]],
    cos(theta) = -a/2b (sinh and cosh above p), and the modes below
    x = m theta/pi have t_j > 0. Within POLE_GUARD mode spacings of a pole (x
    an integer) an arc keeps that mode explicit at unit mass (t_j/s, w_j/sqrt(s))
    and sums the others one by one (pole_modes); these two keep their own order
    of operations, to which counts and eigenvalues are pinned bit for bit. At
    c = 0, T^-1 is the Green's function -sin(min(i, j) theta)
    sin((m - max(i, j)) theta) / (b sin(theta) sin(m theta)) and end values
    extend by (e_0 sin((m - i) theta) + e_m sin(i theta)) / sin(m theta), or
    an arc keeping a mode explicit is solved in its sine modes; that data is
    built on first use and kept.
    """

    def __init__(self, graph: QuantumGraph, h: float):
        grids = arc_grids(graph, h)
        self.max_potential = max(1.0 + arc.kappa ** 2 for arc in graph.arcs)
        circles = [self._zeros(1.0 + arc.kappa ** 2, step, np.arange(m) / m)
                   for arc, (m, step) in zip(graph.arcs, grids) if arc.closed]
        self.cyclic_values = np.sort(np.concatenate([c for c, _ in circles] + [np.zeros(0)]))
        # each circle's Fourier values at c = 0, j <= m/2
        self.circle_values = [(c * mass)[:c.size // 2 + 1] for c, mass in circles]
        opened = [ai for ai, arc in enumerate(graph.arcs) if not arc.closed]
        self.intervals = np.array([grids[ai][0] for ai in opened], dtype=np.intp)
        self.steps = np.array([grids[ai][1] for ai in opened], dtype=float)
        self.potentials = np.array([1.0 + graph.arcs[ai].kappa ** 2 for ai in opened])
        # over modes i = 1..m-1 of each arc, padded to the longest arc:
        # sin^2(i pi/2m) and the coupling weight (2/m) sin^2(i pi/m)
        i = np.arange(1, max(self.intervals, default=1))
        m = self.intervals[:, None]
        self._sin2 = np.where(i < m, np.sin(0.5 * math.pi * i / m) ** 2, 0.5)
        self._weight = np.where(i < m, (2.0 / m) * np.sin(math.pi * i / m) ** 2, 0.0)
        self._parity = np.where(i % 2 == 1, 1.0, -1.0)  # (-1)^(i+1)

    @staticmethod
    def _zeros(potential: float, step: float, fraction: np.ndarray) -> tuple[np.ndarray, ...]:
        """(c_j, m_j): the zeros c_j of mu s - 4 b sin^2(pi fraction), Dirichlet (j/2m) or
        circulant (j/m), and masses s (1 - 2 sin^2(pi fraction)/3): at c, m_j (c_j - c)."""
        sin2 = np.sin(math.pi * fraction) ** 2
        scale = 1.0 - 2.0 * sin2 / 3.0
        return potential - 4.0 * sin2 / (step ** 2 * scale), step * scale

    def dirichlet_values(self, count: int) -> list[np.ndarray]:
        """The largest count Dirichlet values of each open arc (the poles of its end
        block), descending: entry j - 1 is the shift at which t_j vanishes."""
        return [self._zeros(p, s, np.arange(1, min(m, count + 1)) / (2.0 * m))[0]
                for m, s, p in zip(self.intervals, self.steps, self.potentials)]

    def phase(self, shifts: np.ndarray) -> tuple[np.ndarray, ...]:
        """(mu, b, x, theta) of each open arc at each shift, shape (shifts, arcs),
        where x = m theta/pi: the arc's modes j < x have t_j > 0, x = j at its j-th
        Dirichlet value, and x = 0 at and above the potential."""
        mu = self.potentials - np.asarray(shifts, dtype=float)[:, None]
        b = 1.0 / self.steps + mu * self.steps / 6.0
        u = mu * self.steps / (4.0 * b)  # sin^2(theta / 2)
        if not (b.min() > 0.0 and u.max() < 1.0):
            raise SpectrumError(f"shifts {np.ravel(shifts)} lie outside the range of the "
                                "closed form")
        x = self.intervals * (2.0 / math.pi) * np.arcsin(np.sqrt(np.maximum(u, 0.0)))
        return mu, b, x, (math.pi / self.intervals) * x

    def _modes(self, arcs, mu, b, modes) -> tuple[np.ndarray, ...]:
        """(value, coupling, parity) of modes j of these arcs at unit mass, entry by
        entry: t_j / s, w_j / sqrt(s) and (-1)^(j+1)."""
        m, s = self.intervals[arcs], self.steps[arcs]
        half = (0.5 * math.pi / m) * modes
        return (mu - 4.0 * (b / s) * np.sin(half) ** 2,
                b * np.sqrt(2.0 / (m * s)) * np.sin(2.0 * half), 1.0 - 2.0 * (modes % 2 == 0))

    def end_blocks(self, shifts: np.ndarray, modes: np.ndarray | None = None
                   ) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
        """(blocks, explicit, eliminated) at each shift: each open arc's end block
        (diagonal, off-diagonal, its explicit mode's couplings to its start and end
        and that mode's value; shape (shifts, arcs) each), whether it keeps a mode
        explicit, and the eliminated modes with t_j > 0. modes[s, a] > 0 keeps
        that mode, 0 none; by default pole_modes', whose arcs sum the rest one by one."""
        m, s = self.intervals, self.steps
        mu, b, x, theta = self.phase(shifts)
        guarded = pole_modes(x, m)[0]
        if modes is None:
            modes = guarded
        explicit = modes > 0
        mode = np.maximum(modes, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            # every mode eliminated: b [[-ratio_cos, ratio], [ratio, -ratio_cos]]
            ratio = np.sin(theta) / np.sin(m * theta)
            ratio_cos = ratio * np.cos(m * theta)
            if mu.min() <= 0.0:  # at or above the potential: sinh and cosh
                eta = 2.0 * np.arcsinh(np.sqrt(np.maximum(-mu * s / (4.0 * b), 0.0)))
                decay = np.exp(-m * eta)
                sinh = np.sinh(eta) / (1.0 - decay ** 2)
                ratio = np.where(mu > 0.0, ratio, np.where(mu < 0.0, 2.0 * sinh * decay, 1.0 / m))
                ratio_cos = np.where(mu > 0.0, ratio_cos,
                                     np.where(mu < 0.0, sinh * (1.0 + decay ** 2), 1.0 / m))
            value, coupling, parity = self._modes(slice(None), mu, b, mode)
            coupling = explicit * coupling
            pole = coupling ** 2 / value
        diag = pole - b * ratio_cos
        off = parity * pole + b * ratio
        near = np.nonzero(explicit & (guarded == mode))
        if near[0].size:
            diag[near], off[near] = self._mode_sums(near[1], mu[near], b[near],
                                                    mode[near].astype(np.intp))
        below = np.where(explicit, mode, np.minimum(np.maximum(np.ceil(x), 1.0), m)) - 1.0
        return ((diag, off, coupling, parity * coupling, value), explicit,
                below.sum(axis=1).astype(np.intp))

    def _mode_sums(self, arcs: np.ndarray, mu: np.ndarray, b: np.ndarray,
                   modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) of the end blocks of arcs with every mode but
        modes eliminated, summed mode by mode: a/2 - sum w_i^2 / t_i and
        -sum (-1)^(i+1) w_i^2 / t_i over i != mode, entry by entry of
        (arcs, mu, b, modes)."""
        s = self.steps[arcs]
        values = (mu * s)[:, None] - 4.0 * b[:, None] * self._sin2[arcs]
        values[np.arange(arcs.size), modes - 1] = np.inf
        terms = (b ** 2)[:, None] * self._weight[arcs] / values
        return -1.0 / s + mu * s / 3.0 - terms.sum(axis=1), -(terms @ self._parity)

    @cached_property
    def _at_zero(self) -> list[tuple]:
        """Each open arc's interior at c = 0: (b, h_0, h_m, phi, data), the harmonic
        extensions of unit end values and phi None, data (sin((m - j) theta), sin(j theta),
        factor) on the Green's function, or phi_j/sqrt(s), 1/t_i (0 at j) on sine modes."""
        mu, b, x, theta = (v[0] for v in self.phase(np.zeros(1)))
        out = []
        for k, (m, own) in enumerate(zip(self.intervals, pole_modes(x, self.intervals)[0])):
            j = np.arange(1, m)
            if own:
                value, coupling, parity = self._modes(k, mu[k], b[k], j)
                inverse, root = 1.0 / value, math.sqrt(self.steps[k])
                inverse[j == own] = 0.0
                ends = -_sine_transform(inverse * coupling * np.stack([j ** 0, parity])) / root
                out.append((b[k], *ends, _sine_transform(1.0 * (j == own)) / root,
                            inverse / root ** 2))
            else:
                sines, inv_sin_m = np.sin(theta[k] * j), 1.0 / math.sin(m * theta[k])
                out.append((b[k], sines[::-1] * inv_sin_m, sines * inv_sin_m, None,
                            (sines[::-1], sines, -inv_sin_m / (b[k] * math.sin(theta[k])))))
        return out

    def eliminate(self, loads: list[np.ndarray]) -> tuple[list, np.ndarray, np.ndarray, list]:
        """(parts, start, stop, explicit) at c = 0 for interior loads (columns, m - 1):
        the solutions with ends at 0 and no explicit-mode share, their pulls -b part
        on the start and end nodes, shape (columns, arcs), and explicit modes' loads."""
        parts, pulls, explicit = [], [], []
        for (b, _, _, phi, data), v in zip(self._at_zero, loads):
            if phi is None:  # the Green's function by cumulative sums
                rev, sines, green = data
                after = np.cumsum((rev * v)[:, ::-1], axis=1)[:, ::-1] - rev * v
                parts.append(green * (rev * np.cumsum(sines * v, axis=1) + sines * after))
            else:
                parts.append(_sine_transform(_sine_transform(v) * data))
                explicit.append(v @ phi)
            pulls.append(-b * parts[-1][:, [0, -1]])
        return (parts, *np.transpose(pulls, (2, 1, 0)), explicit)

    def extend(self, parts: list, start: np.ndarray, stop: np.ndarray,
               modes: np.ndarray) -> list[np.ndarray]:
        """Each open arc's interior field at c = 0 from its part, end values start[:, k]
        and stop[:, k], and, where it keeps one, its explicit mode's value in modes."""
        modes = iter(modes.T)
        return [part + start[:, k, None] * h0 + stop[:, k, None] * h1
                + (0.0 if phi is None else next(modes)[:, None] * phi)
                for k, ((_, h0, h1, phi, _), part) in enumerate(zip(self._at_zero, parts))]


class ArcPencil:
    """The reduced pencil of assemble_jacobi(graph, h) condensed onto the arc
    ends with no matrix assembled: the vertex engine over the closed forms of
    arcs, a ToeplitzArcs. The vertex matrix G(c) is the end blocks and Robin
    terms congruent by the end rows of the trace-constraint basis (2 per
    vertex), bordered by a row per explicit mode. By Haynsworth inertia
    additivity the count above c is the eliminated positive modes plus the
    positive inertia of G(c). Every query is a pure function of its arguments.
    """

    def __init__(self, graph: QuantumGraph, h: float):
        self.h = h
        self.arcs = ToeplitzArcs(graph, h)
        opened = [ai for ai, arc in enumerate(graph.arcs) if not arc.closed]

        # end slot 3 v + k is the k-th end at vertex v; the last one per vertex
        # is the dependent trace
        position = {ai: k for k, ai in enumerate(opened)}
        arcs, slots = len(opened), 3 * len(graph.vertices)
        self._vertex_dofs = 2 * len(graph.vertices)
        start, stop = np.zeros(arcs, np.intp), np.zeros(arcs, np.intp)
        robin = np.zeros(slots)
        basis = np.zeros((slots + arcs, self._vertex_dofs + arcs))
        for v, vertex in enumerate(graph.vertices):
            for k, ve in enumerate(vertex.ends):
                (start if ve.end == 0 else stop)[position[ve.arc_index]] = 3 * v + k
                robin[3 * v + k] = ve.robin
            basis[3 * v:3 * v + 2, 2 * v:2 * v + 2] = np.eye(2)
            basis[3 * v + 2, 2 * v:2 * v + 2] = dependent_trace(vertex)
        basis[slots:, self._vertex_dofs:] = np.eye(arcs)
        # G(c) = fixed + coefficients(c) @ shapes: per arc, its end block's
        # diagonal and off-diagonal, its mode's two couplings and its mode's value
        head, tail, own = basis[start], basis[stop], basis[slots:]
        # each open arc's two end values in the vertex dofs
        self.end_rows = head[:, :self._vertex_dofs], tail[:, :self._vertex_dofs]

        def pair(x, y):
            return np.einsum("ai,aj->aij", x, y) + np.einsum("ai,aj->aji", x, y)

        shapes = np.stack([pair(head, head) / 2 + pair(tail, tail) / 2, pair(head, tail),
                           pair(own, head), pair(own, tail), pair(own, own) / 2])
        self._shapes = shapes.reshape(5 * arcs, basis.shape[1] ** 2)
        self._fixed = ((basis[:slots].T * robin) @ basis[:slots]).ravel()

    def vertex_matrices(self, shifts: np.ndarray, modes: np.ndarray | None = None
                        ) -> tuple[np.ndarray, ...]:
        """(g, explicit, eliminated): each shift's vertex matrix G(c) over the vertex
        dofs and one explicit-mode row per open arc, shape (shifts, dofs + arcs,
        dofs + arcs), and end_blocks' explicit and eliminated with these modes."""
        blocks, explicit, eliminated = self.arcs.end_blocks(shifts, modes)
        size = self._vertex_dofs + explicit.shape[1]
        g = (np.concatenate(blocks, axis=1) @ self._shapes + self._fixed).reshape(-1, size, size)
        return g, explicit, eliminated

    def vertex_spectra(self, shifts: np.ndarray, modes: np.ndarray | None = None,
                       slopes: bool = False) -> tuple[np.ndarray, ...]:
        """(sigma, eliminated[, slope]): the eigenvalues of each shift's vertex
        matrix G(c) (vertex_matrices, with these modes), descending and padded
        with -inf, and the number of eliminated modes with t_j > 0, so that the
        count above c is eliminated + #(sigma > 0). With slopes, also each
        eigenvalue's derivative in c, v^T G'(c) v for its eigenvector v, with
        G' by a difference of SLOPE_STEP max(1, |c|).
        """
        shifts = np.asarray(shifts, dtype=float)
        count = shifts.size
        if slopes:
            step = SLOPE_STEP * np.maximum(1.0, np.abs(shifts))
            shifts = np.concatenate([shifts, shifts - step])
            modes = np.concatenate([modes, modes])
        g, explicit, eliminated = self.vertex_matrices(shifts, modes)
        size = g.shape[1]

        # drop the rows of eliminated arcs, grouping shifts by what is left
        kept = explicit[:count].sum(axis=1)
        order = self._vertex_dofs + np.argsort(~explicit[:count], axis=1, kind="stable")
        sigma = np.full((count, size), -np.inf)
        slope = np.zeros((count, size))
        for width in set(kept.tolist()):
            rows = np.flatnonzero(kept == width)
            keep = np.concatenate([rows[:, None] * 0 + np.arange(self._vertex_dofs),
                                   order[rows, :width]], axis=1)
            sub = g[rows[:, None, None], keep[:, :, None], keep[:, None, :]]
            if not slopes:
                sigma[rows, :keep.shape[1]] = np.linalg.eigvalsh(sub)[:, ::-1]
                continue
            values, vectors = np.linalg.eigh(sub)
            sigma[rows, :keep.shape[1]] = values[:, ::-1]
            back = g[count + rows[:, None, None], keep[:, :, None], keep[:, None, :]]
            change = np.einsum("sij,sik,skj->sj", vectors, sub - back, vectors)
            slope[rows, :keep.shape[1]] = change[:, ::-1] / step[rows, None]
        return (sigma, eliminated[:count], slope) if slopes else (sigma, eliminated[:count])

    def count_above(self, value: float) -> int:
        """Number of eigenvalues of the pencil above value."""
        count = np.count_nonzero(self.arcs.cyclic_values > value)
        if self.arcs.intervals.size:
            sigma, eliminated = self.vertex_spectra(np.array([value]))
            count += eliminated[0] + np.count_nonzero(sigma > 0.0)
        return int(count)


def pole_modes(x: np.ndarray, intervals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(modes, margin) of arcs with these interval counts at phases x (ToeplitzArcs.phase).

    margin, the pole margin, is the distance in mode spacings from x to the
    nearest integer j in [1, m - 1], the arc's nearest Dirichlet value. Within
    POLE_GUARD of it the closed form loses its digits, so mode j stays explicit
    and the others are summed one by one: modes is j there, else 0.
    """
    nearest = np.minimum(np.maximum(np.rint(x), 1.0), intervals - 1.0)
    margin = np.abs(x - nearest)
    return nearest * (margin < POLE_GUARD), margin


class CondensedForm:
    """A_r^-1 of a JacobiSystem, with nothing factored but the vertex matrix G(0)
    of its ArcPencil: solve eliminates the interiors onto the arc ends
    (ToeplitzArcs.eliminate), solves G(0) and extends the ends back
    (ToeplitzArcs.extend); a circle's circulant block by its Fourier values."""

    def __init__(self, system: JacobiSystem):
        pencil = system.pencil
        self._arcs = pencil.arcs
        ends, _, columns = system.trace_rule
        self.size = system.reduced_size
        # the reduced index of each vertex dof, 2 v + k for end k of vertex v
        self._vertex_columns = columns[ends[:, :2]].ravel()
        self._circles = [(columns[system.offsets[ai]], system.counts[ai])
                         for ai, arc in enumerate(system.graph.arcs) if arc.closed]
        # the reduced index of each open arc's first interior node
        self._firsts = [columns[system.offsets[ai] + 1]
                        for ai, arc in enumerate(system.graph.arcs) if not arc.closed]
        if not self._firsts:
            return
        g, explicit, _ = pencil.vertex_matrices(np.zeros(1))
        self._head, self._tail = pencil.end_rows
        self._dofs = dofs = self._head.shape[1]
        kept = np.concatenate([np.arange(dofs), dofs + np.flatnonzero(explicit[0])])
        self._matrix = g[0][np.ix_(kept, kept)]

    def solve(self, r: np.ndarray) -> np.ndarray:
        """A_r^-1 r for a reduced vector or columns."""
        load = np.ascontiguousarray(-NORM_S2 * np.asarray(r, dtype=float).reshape(self.size, -1).T)
        y = np.empty_like(load)
        for (first, m), values in zip(self._circles, self._arcs.circle_values):
            block = slice(first, first + m)
            y[:, block] = np.fft.irfft(np.fft.rfft(load[:, block]) / values, n=m)
        if not self._firsts:
            return y.T.reshape(np.shape(r))
        parts, start, stop, explicit = self._arcs.eliminate(
            [load[:, first:first + m - 1] for first, m in zip(self._firsts, self._arcs.intervals)])
        rhs = load[:, self._vertex_columns] + start @ self._head + stop @ self._tail
        u = np.linalg.solve(self._matrix, np.concatenate([rhs] + [e[:, None] for e in explicit],
                                                         axis=1).T).T
        y[:, self._vertex_columns] = ends = u[:, :self._dofs]
        fields = self._arcs.extend(parts, ends @ self._head.T, ends @ self._tail.T,
                                   u[:, self._dofs:])
        for first, field in zip(self._firsts, fields):
            y[:, first:first + field.shape[1]] = field
        return y.T.reshape(np.shape(r))


def _sine_transform(v: np.ndarray) -> np.ndarray:
    """The orthonormal DST-I along the last axis, sqrt(2/m) sum_j v_j sin(pi j k/m)
    for k = 1..m-1 with m - 1 = v.shape[-1], by a real FFT of the odd extension;
    it is its own inverse."""
    m = v.shape[-1] + 1
    ext = np.zeros(v.shape[:-1] + (2 * m,))
    ext[..., 1:m] = v
    ext[..., m + 1:] = -v[..., ::-1]
    return np.fft.rfft(ext)[..., 1:m].imag * -math.sqrt(0.5 / m)


@dataclass
class SpectrumReport:
    """Eigenvalue count of a JacobiSystem and how each number was obtained.

    Every number comes from the closed-form condensation ArcPencil of the
    system's graph: count_positive, kernel_dim and the top eigenvalues (by
    safeguarded Newton steps, _top_eigenvalues) from the one at the system's
    h, the h/2 count behind converged from another at h/2. method says how
    the counts at +-kernel_tolerance were obtained, and refined_method how the
    h/2 count was: "mode_sum" when a count shift lay within POLE_GUARD mode
    spacings of an arc Dirichlet value, so that the eliminated modes were
    summed one by one, else "closed_form". pole_margin is the smallest
    distance, in mode spacings, from those three count shifts to an arc
    Dirichlet value (pole_modes; inf when every arc is a vertex-free circle),
    so it is below POLE_GUARD exactly when a method is "mode_sum".
    """

    count_positive: int
    eigenvalues: np.ndarray  # the top k_top eigenvalues, descending
    kernel_dim: int
    converged: bool
    counts_at_resolutions: tuple[int, int]
    method: str
    refined_method: str
    pole_margin: float


def _count_method(pencil: ArcPencil, shifts: list[float]) -> tuple[str, float]:
    """(method, pole margin) of pencil.count_above at these shifts: "mode_sum"
    where pole_modes keeps a mode explicit at any of them, else "closed_form",
    and their smallest pole margin (inf with no open arc)."""
    if not pencil.arcs.intervals.size:
        return "closed_form", math.inf
    modes, margin = pole_modes(pencil.arcs.phase(shifts)[2], pencil.arcs.intervals)
    return "mode_sum" if modes.any() else "closed_form", float(margin.min())


def _top_eigenvalues(pencil: ArcPencil, k_top: int) -> np.ndarray:
    """The k_top largest eigenvalues of the pencil, descending.

    Cyclic arcs give theirs in closed form. The others are the zeros of the
    vertex matrix's eigenvalues. The arc Dirichlet values, grouped where they
    coincide to POLE_MERGE, split the line into brackets of one group each,
    from an upper bound down to the group holding the k_top-th largest value:
    by interlacing, the k_top-th eigenvalue lies above it. In a bracket, an
    arc whose Dirichlet value lies in it or within POLE_GUARD mode spacings
    keeps that mode explicit throughout (its other values lie half a spacing
    away or more), so G(c) is analytic there and its eigenvalues all decrease
    with c. The eigenvalue of rank i lies in the bracket whose end counts
    enclose i, as the zero of G's eigenvalue of rank i - eliminated. All
    zeros are found together by Newton steps on that eigenvalue (its slope
    from its eigenvector), safeguarded by the bracket: a step that would
    leave it is replaced by the bracket's secant point at first and by its
    midpoint later. A zero is settled when its Newton step is below
    NEWTON_STOP max(1, |c|) or its bracket below EIGEN_XTOL max(1, |c|).
    """
    arcs = pencil.arcs
    lam = arcs.cyclic_values[::-1][:k_top]
    if not arcs.intervals.size or not k_top:
        return lam
    # every value down to the group below the k_top-th largest lies within the
    # first k_top + arcs of its arc, since a group holds one value per arc
    poles = arcs.dirichlet_values(k_top + arcs.intervals.size + 1)
    flat = np.sort(np.concatenate(poles))[::-1]
    breaks = np.flatnonzero(flat[:-1] - flat[1:]
                            > POLE_MERGE * np.maximum(1.0, np.abs(flat[1:])))
    last = int(np.searchsorted(breaks, k_top - 1))
    if last == breaks.size:
        raise ValueError(f"k_top = {k_top} reaches below the arcs' Dirichlet values")
    lows = 0.5 * (flat[breaks[:last + 1]] + flat[breaks[:last + 1] + 1])
    # an arc keeps explicit in a bracket the mode j with
    # x_hi - POLE_GUARD < j < x_lo + POLE_GUARD (x = 0 at the top bracket's
    # upper end); upper and lower count the modes below those bounds
    x_lo = arcs.phase(lows)[2]
    x_hi = np.concatenate([np.zeros((1, len(poles))), x_lo[:-1]])
    upper = np.clip(np.floor(x_hi - POLE_GUARD), 0, arcs.intervals - 1).astype(np.intp)
    lower = np.clip(np.ceil(x_lo + POLE_GUARD) - 1, 0, arcs.intervals - 1).astype(np.intp)
    if np.any(lower - upper > 1):
        raise SpectrumError("two Dirichlet values of one arc fall in one bracket")
    modes = np.where(lower > upper, lower, 0)

    # one evaluation gives the counts at the bracket ends and G's eigenvalues
    # there; the candidate upper bounds lie above every potential, in bracket 0
    tops = arcs.max_potential + 4.0 ** np.arange(4)
    tops = tops[tops < np.min(arcs.potentials + 6.0 / arcs.steps ** 2)]
    bracket_of = np.concatenate([np.zeros(tops.size, np.intp), np.arange(lows.size),
                                 np.arange(1, lows.size)])
    sigma, eliminated = pencil.vertex_spectra(np.concatenate([tops, lows, lows[:-1]]),
                                              modes[bracket_of])
    above = eliminated + np.count_nonzero(sigma > 0.0, axis=1)
    bound = np.flatnonzero(above[:tops.size] == 0)
    if not bound.size:
        raise SpectrumError("no upper bound on the spectrum within the closed form's range")
    counts = np.maximum.accumulate(above[tops.size:tops.size + lows.size])
    if counts[-1] < k_top:
        raise SpectrumError(f"{counts[-1]} eigenvalues above {lows[-1]:g}, below which "
                            f"interlacing puts at least {k_top}")

    rank = np.arange(1, k_top + 1)
    bracket = np.searchsorted(counts, rank)
    mode = modes[bracket]
    lo, hi = lows[bracket], np.where(bracket == 0, tops[bound[0]], lows[bracket - 1])

    def column(elim, ranks):  # the column of G's eigenvalue of rank i - eliminated
        return np.clip(ranks - elim - 1, 0, sigma.shape[1] - 1)

    lo_row = tops.size + bracket
    hi_row = np.where(bracket == 0, bound[0], tops.size + lows.size + bracket - 1)
    f_lo = sigma[lo_row, column(eliminated[lo_row], rank)]
    f_hi = sigma[hi_row, column(eliminated[hi_row], rank)]
    newton = np.full(k_top, np.nan)
    settled = np.zeros(k_top, dtype=bool)
    for _ in range(ROOT_STEPS):
        idx = np.flatnonzero(~settled & (f_lo > 0.0) & (f_hi < 0.0)
                             & (hi - lo > EIGEN_XTOL * np.maximum(1.0, np.abs(lo))))
        if not idx.size:
            break
        # the Newton step if it stays inside the bracket; else, first the
        # bracket's secant point, later its midpoint
        c = (lo[idx] * f_hi[idx] - hi[idx] * f_lo[idx]) / (f_hi[idx] - f_lo[idx])
        c = np.where(np.isnan(newton[idx]), c, 0.5 * (lo[idx] + hi[idx]))
        c = np.where((newton[idx] > lo[idx]) & (newton[idx] < hi[idx]), newton[idx], c)
        c = np.where((c > lo[idx]) & (c < hi[idx]), c, 0.5 * (lo[idx] + hi[idx]))
        sig, elim, dsig = pencil.vertex_spectra(c, mode[idx], slopes=True)
        col = column(elim, rank[idx])
        own = np.arange(idx.size)
        val = sig[own, col]
        up, down = idx[val >= 0.0], idx[val <= 0.0]
        lo[up], f_lo[up] = c[val >= 0.0], val[val >= 0.0]
        hi[down], f_hi[down] = c[val <= 0.0], val[val <= 0.0]
        # a Newton step below NEWTON_STOP settles the zero: the steps converge
        # quadratically, so it is far nearer the zero than the step
        with np.errstate(divide="ignore", invalid="ignore"):
            newton[idx] = c - val / dsig[own, col]
        settled[idx] = np.abs(newton[idx] - c) <= NEWTON_STOP * np.maximum(1.0, np.abs(c))
    else:
        raise SpectrumError(f"the search for eigenvalues did not converge in {ROOT_STEPS} steps")
    network = np.where(settled, newton,
                       np.where(f_lo <= 0.0, lo, np.where(f_hi >= 0.0, hi, 0.5 * (lo + hi))))
    return np.sort(np.concatenate([lam, network]))[::-1][:k_top]


def eigen_count_positive(system: JacobiSystem, k_top: int = 16) -> SpectrumReport:
    """Count positive eigenvalues of the pencil, with an h/2 refinement check.

    With cut = kernel_tolerance(system), count_positive is the number of
    eigenvalues above cut and kernel_dim the number in (-cut, cut], both
    from system.cut_counts, that is from the system's ArcPencil. Both are
    exact for the discrete pencil at any size. The count must agree with
    that of the h/2 grid, cut at its own kernel tolerance and counted by
    another ArcPencil without assembling it; disagreement is reported as
    converged=False. k_top only sets how many of the largest eigenvalues are
    reported, found on the system's ArcPencil; when they reach below the
    kernel, the number of them above cut must equal count_positive.
    """
    cut = kernel_tolerance(system)
    count, above_minus = system.cut_counts
    kernel = above_minus - count
    pencil = system.pencil
    method, margin = _count_method(pencil, [cut, -cut])

    fine = ArcPencil(system.graph, system.h / 2.0)
    fine_cut = kernel_tolerance(fine)
    count_fine = fine.count_above(fine_cut)
    refined_method, fine_margin = _count_method(fine, [fine_cut])

    lam = _top_eigenvalues(pencil, min(k_top, system.reduced_size - 2))
    above_cut = int(np.count_nonzero(lam > cut))
    if lam.size > count + kernel and above_cut != count:
        raise SpectrumError(f"{above_cut} of the top {lam.size} eigenvalues exceed "
                            f"{cut:g}, but the count above it is {count}")
    return SpectrumReport(count, lam, kernel, count == count_fine, (count, count_fine),
                          method, refined_method, min(margin, fine_margin))


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
    right-hand side, the reduced system is solved by system.form_solver, and
    V0 is projected out of the solution. The removed fraction
    |V0^T rhs| / sqrt(rhs^T M_r^-1 rhs) is reported. The piecewise-constant
    field g of a satisfies the trace constraint, g = Z g_r, so
    rhs = -(n-1) M_r g_r and the denominator is (n-1) sqrt(g^T M g), with no
    solve. The volume column of the returned field is one column of the
    discrete conformal-to-volume operator.
    """
    a = np.asarray(a, dtype=float)
    a = a - a.mean()
    n_minus_1 = float(system.graph.params.n - 1)
    g = piecewise_constant_field(system, a)
    mass_g = system.apply_mass(g)
    rhs = system.restrict(-n_minus_1 * mass_g)
    kernel = system.near_kernel
    # with -A v_k = lam_k M v_k and V^T M V = Id, rhs = M V c for c = V^T rhs
    coeffs = kernel.T @ rhs
    total = n_minus_1 * math.sqrt(max(float(g @ mass_g), 0.0))
    removed = float(np.linalg.norm(coeffs) / max(total, 1e-300))
    y = system.form_solver.solve(rhs - system.reduced_mass(kernel @ coeffs))
    y -= kernel @ (kernel.T @ system.reduced_mass(y))
    x = system.expand(y)
    return ConformalSolveReport(x, volume_derivative(system, x), kernel.shape[1], removed, a)
