"""Spherical Voronoi clusters on S^n: parameters, point classification, interfaces.

A cluster is generated by quasi-center vectors c_i in R^(n+1) and curvature
scalars kappa_i; cell i is the set where <c_i, p> + kappa_i is minimal. The
compatibility constraint |c_i - c_j|^2 = 1 + (kappa_i - kappa_j)^2 on pairs
with a nonempty interface makes the cluster spherical (walls are geodesic
spheres of curvature kappa_ij with quasi-center c_ij).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from . import sampling
from .simplex import SUM_TOL, project_sum_zero

DEFAULT_TIE_TOL = 1e-9
SPHERICAL_TOL = 1e-9
RANK_CUTOFF = 1e-7
# the exact interface test's linear functional: no entry is zero, as cos(k) != 0
_LEVEL_FUNCTIONAL = np.cos(np.arange(1.0, 65.0))
_LEVEL_FUNCTIONAL.setflags(write=False)


@dataclass(frozen=True)
class ClusterParams:
    """Generating parameters of an affine/spherical Voronoi cluster on S^n.

    quasi_centers has shape (q, n+1) with rows summing to zero; curvatures has
    shape (q,) and sums to zero. Both conventions are enforced at construction.
    """

    n: int
    quasi_centers: np.ndarray
    curvatures: np.ndarray
    label: str = ""

    def __post_init__(self):
        c = np.array(self.quasi_centers, dtype=float)
        k = np.array(self.curvatures, dtype=float)
        if c.ndim != 2 or c.shape[1] != self.n + 1:
            raise ValueError(f"quasi_centers must have shape (q, {self.n + 1})")
        if k.shape != (c.shape[0],):
            raise ValueError("curvatures must have one entry per cell")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(k))):
            raise ValueError("parameters must be finite")
        if c.shape[0] < 2:
            raise ValueError("need at least two cells")
        if np.max(np.abs(c.sum(axis=0))) > SUM_TOL * max(1.0, np.abs(c).max()):
            raise ValueError("quasi-centers must sum to zero (use recentered())")
        if abs(k.sum()) > SUM_TOL * max(1.0, np.abs(k).max()):
            raise ValueError("curvatures must sum to zero (use recentered())")
        c.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "quasi_centers", c)
        object.__setattr__(self, "curvatures", k)

    @property
    def q(self) -> int:
        return self.quasi_centers.shape[0]

    def affine_values(self, points: np.ndarray) -> np.ndarray:
        """<c_i, p> + kappa_i for each cell, shape (..., q)."""
        p = np.asarray(points, dtype=float)
        return p @ self.quasi_centers.T + self.curvatures

    def pair_center(self, i: int, j: int) -> np.ndarray:
        return self.quasi_centers[i] - self.quasi_centers[j]

    def pair_curvature(self, i: int, j: int) -> float:
        return float(self.curvatures[i] - self.curvatures[j])

    def with_label(self, label: str) -> "ClusterParams":
        return ClusterParams(self.n, self.quasi_centers, self.curvatures, label)


def recentered(n: int, quasi_centers, curvatures, label: str = "",
               warn_above: float | None = None) -> ClusterParams:
    """Build ClusterParams after normalizing both sum conventions.

    If warn_above is set and the applied correction exceeds it, a warning is
    emitted (used by the JSON loader).
    """
    c = np.array(quasi_centers, dtype=float)
    k = np.array(curvatures, dtype=float)
    c_shift = np.max(np.abs(c.mean(axis=0)))
    k_shift = abs(k.mean())
    if warn_above is not None and max(c_shift, k_shift) > warn_above:
        warnings.warn(
            f"cluster parameters violated the sum conventions by "
            f"{max(c_shift, k_shift):.3e}; normalizing", RuntimeWarning)
    return ClusterParams(n, c - c.mean(axis=0), project_sum_zero(k), label)


@dataclass
class InterfaceGraph:
    """Which pairs (i, j) carry a nonempty interface, with a witness point on each."""

    q: int
    nonempty: np.ndarray
    witnesses: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    diagnostics: dict[tuple[int, int], str] = field(default_factory=dict)

    def __post_init__(self):
        m = np.array(self.nonempty, dtype=bool)
        if m.shape != (self.q, self.q) or not np.array_equal(m, m.T) or m.diagonal().any():
            raise ValueError("nonempty must be symmetric with empty diagonal")
        self.nonempty = m

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.q) for j in range(i + 1, self.q)
                if self.nonempty[i, j]]


def complete_graph(q: int) -> InterfaceGraph:
    m = ~np.eye(q, dtype=bool)
    return InterfaceGraph(q, m)


def classify_point(params: ClusterParams, p, tie_tol: float = DEFAULT_TIE_TOL) -> np.ndarray:
    """Indices of cells whose affine value is within tie_tol of the minimum at p.

    A single index means p is interior to that cell; two or more mean p lies on
    the (tie_tol-thickened) boundary. p must be a unit vector.
    """
    p = np.asarray(p, dtype=float)
    if abs(p @ p - 1.0) > 2e-12:
        raise ValueError(f"point is not on the unit sphere: |p|^2 = {p @ p!r}")
    values = params.affine_values(p)
    return np.flatnonzero(values <= values.min() + tie_tol)


def cell_values(params: ClusterParams, points: np.ndarray) -> np.ndarray:
    """<c_i, p> + kappa_i laid out cell-major: shape (q, m) for m points.

    Bit for bit the transpose of params.affine_values(points); each cell's
    values form one contiguous row, so per-cell reductions run over rows
    rather than along a short last axis.
    """
    values = params.quasi_centers @ np.asarray(points, dtype=float).T
    values += params.curvatures[:, None]
    return values


def classify_many(params: ClusterParams, points: np.ndarray, gaps: bool = False):
    """Index of the cell with the least affine value, for each row of points.

    least_cell over cell_values, one block of sampling.row_blocks at a time,
    bit for bit the whole-array result. With gaps, also returns least_cell's
    gaps.
    """
    m = len(points)
    labels = np.empty(m, dtype=np.intp)
    second = np.empty(m) if gaps else None
    for rows in sampling.row_blocks(m):
        if gaps:
            labels[rows], second[rows] = least_cell(cell_values(params, points[rows]), gaps=True)
        else:
            labels[rows] = least_cell(cell_values(params, points[rows]))
    return (labels, second) if gaps else labels


def least_cell(values: np.ndarray, gaps: bool = False):
    """Row index of the least entry in each column of cell-major values.

    A running minimum over the rows, which it overwrites; the strict < gives a
    tie to the lowest index, as np.argmin would. Parameters are finite and
    points are unit vectors, so no value is NaN. With gaps, also returns each
    column's second-least minus least value as computed (0 at a tie).
    """
    q, m = values.shape
    if q == 2 and not gaps:
        return (values[1] < values[0]).astype(np.intp)
    best = values[0]
    labels = np.zeros(m, dtype=np.intp)
    lower = np.empty(m, dtype=bool)
    second = None
    for k in range(1, q):
        np.less(values[k], best, out=lower)
        np.putmask(labels, lower, k)
        if gaps:
            upper = np.maximum(best, values[k])
            second = upper if second is None else np.minimum(second, upper, out=second)
        np.minimum(best, values[k], out=best)
    if not gaps:
        return labels
    second -= best
    return labels, second


def stratum_interior(params: ClusterParams, cells: tuple[int, ...], points: np.ndarray,
                     tie_tol: float = 0.0) -> np.ndarray:
    """Mask of the points at which no other cell reaches the least of the cells'
    affine values plus tie_tol.

    stratum_mask of the cell_values of one block of sampling.row_blocks at a
    time; with no other cell every point is interior.
    """
    if len(cells) == params.q:
        return np.ones(len(points), dtype=bool)
    inside = np.empty(len(points), dtype=bool)
    for rows in sampling.row_blocks(len(points)):
        stratum_mask(cell_values(params, points[rows]), cells, tie_tol, inside[rows])
    return inside


def stratum_mask(values: np.ndarray, cells: tuple[int, ...], tie_tol: float,
                 out: np.ndarray) -> None:
    """Write stratum_interior's mask to out, from cell-major values (cell_values),
    which it overwrites.

    A running minimum over the rows of the other cells; with no other cell
    every point is interior.
    """
    others = [k for k in range(len(values)) if k not in cells]
    if not others:
        out[...] = True
        return
    lead = np.minimum.reduce(values[list(cells)])
    if tie_tol:
        lead += tie_tol
    low = values[others[0]]
    for k in others[1:]:
        np.minimum(low, values[k], out=low)
    np.greater(low, lead, out=out)


def spherical_residuals(params: ClusterParams) -> np.ndarray:
    """|c_ij|^2 - 1 - kappa_ij^2 for every pair, as a symmetric (q, q) array."""
    c = params.quasi_centers
    k = params.curvatures
    g = c @ c.T
    d2 = np.diag(g)[:, None] + np.diag(g)[None, :] - 2.0 * g
    dk = k[:, None] - k[None, :]
    res = d2 - 1.0 - dk ** 2
    np.fill_diagonal(res, 0.0)
    return res


def tie_subsphere(rows: np.ndarray, offs: np.ndarray, tol: float) -> tuple | None:
    """Trace on S^n of {p : rows @ p + offs = 0}: the subsphere p0 + radius N S^(dim N - 1).

    p0 is the min-norm solution and N the null space of the rows, from one SVD
    with rank cutoff RANK_CUTOFF. None when the ties are inconsistent or miss
    S^n, to tol.
    """
    u, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > RANK_CUTOFF * (s[0] or 1.0)))
    p0 = -vt[:rank].T @ ((u[:, :rank].T @ offs) / s[:rank])
    frame = vt[rank:].T
    r2 = 1.0 - p0 @ p0
    if (np.max(np.abs(rows @ p0 + offs)) > tol or r2 < -tol
            or (frame.shape[1] == 0 and r2 > tol)):
        return None
    return p0, np.sqrt(max(r2, 0.0)), frame


def trace_vertices(p0: np.ndarray, radius: float, frame: np.ndarray) -> np.ndarray:
    """p0 +- radius N for a trace with one null direction N; p0 once with none."""
    pts = p0 + radius * np.outer([1.0, -1.0], frame.sum(axis=1))
    return pts if frame.shape[1] else pts[:1]


def _ties_hold(rows: np.ndarray, offs: np.ndarray, p0: np.ndarray, own: int) -> bool:
    """Whether the first own ties of rows @ p + offs = 0 hold at its
    least-squares point p0 to the rounding of the solve: 256 eps times
    |rows| |p0| + |offs| in max norms, which no square underflows, and at
    least the smallest normal float, below which rounding is absolute."""
    finfo = np.finfo(float)
    scale = np.abs(rows).sum(axis=1).max() * np.abs(p0).max() + np.abs(offs).max()
    residual = np.abs(rows[:own] @ p0 + offs[:own])
    return bool(np.max(residual, initial=0.0) <= 256.0 * finfo.eps * max(scale, finfo.tiny))


def stratum_points(params: ClusterParams, cells: tuple[int, ...],
                   tie_tol: float) -> np.ndarray | None:
    """Points of the stratum of the sorted cells: where their affine values tie
    and stratum_interior accepts at tie_tol. None if their tie set misses S^n.

    With i = cells[0], if {h_s = h_i for s in cells, h_k >= h_i + 2 tie_tol for
    every other k} meets S^n, a fixed linear functional attains its minimum
    there at the minimum on the trace of the active tie set, and a row basis
    of those ties leaves at most n other cells. So sets of at most n other
    cells are tried, smallest first, each with the vertices of its trace or
    the functional's extremes on it (the minimizer first). The accepted
    vertices of the first trace that has one are returned, read-only; an
    empty (0, n + 1) array if none has. A trace counts only where its ties
    hold to tie_tol, the margin its points are then checked at, and the ties
    of the cells themselves to rounding (_ties_hold): a least-squares trace
    that spreads an inconsistency over them would put a stratum of the cells
    at a larger junction, which is the larger set's. A set containing one
    whose trace missed S^n, or whose ties failed that test, is skipped: its
    ties add rows, so its trace lies in the smaller one's and misses S^n too.
    """
    c, k = params.quasi_centers, params.curvatures
    i, ties = cells[0], list(cells[1:])
    others = [m for m in range(params.q) if m not in cells]
    missed: list[int] = []  # bit masks of the other-cell sets whose trace missed S^n
    found = np.empty((0, params.n + 1))
    for extra in chain.from_iterable(combinations(others, size)
                                     for size in range(min(params.n, len(others)) + 1)):
        mask = sum(1 << m for m in extra)
        if any(mask & miss == miss for miss in missed):
            continue
        rows = ties + list(extra)
        diffs, offs = c[rows] - c[i], k[rows] - k[i]
        offs[len(ties):] -= 2.0 * tie_tol
        trace = tie_subsphere(diffs, offs, tie_tol)
        if trace is not None and not _ties_hold(diffs, offs, trace[0], len(ties)):
            trace = None
        if trace is None:
            if not extra:
                return None
            missed.append(mask)
            continue
        p0, radius, frame = trace
        if frame.shape[1] > 1:  # the minimizer first, then the maximizer
            slope = frame.T @ _LEVEL_FUNCTIONAL[: params.n + 1]
            frame = -(frame @ slope)[:, None] / np.linalg.norm(slope)
        pts = trace_vertices(p0, radius, frame)
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        found = pts[stratum_interior(params, cells, pts, tie_tol)]
        if len(found):
            break
    found.setflags(write=False)
    return found


def detect_interfaces(params: ClusterParams, *, rng_seed: int = 0) -> InterfaceGraph:
    """Decide which pairs carry an interface, with a witness point for each.

    Every pair is decided by the exact tie test, stratum_points, whose first
    point is the pair's witness; nothing is sampled. Walls that miss
    the sphere get a diagnostic, and so do nonempty pairs that violate the
    compatibility constraint. rng_seed selects nothing: it remains only
    because the benchmark workloads under bench/ still pass it.
    """
    q = params.q
    nonempty = np.zeros((q, q), dtype=bool)
    witnesses: dict[tuple[int, int], np.ndarray] = {}
    diagnostics: dict[tuple[int, int], str] = {}
    residuals = spherical_residuals(params)
    for i in range(q):
        for j in range(i + 1, q):
            if sampling.wall_misses_sphere(params.pair_center(i, j),
                                           params.pair_curvature(i, j)):
                diagnostics[(i, j)] = "degenerate wall: hyperplane misses S^n"
                continue
            points = stratum_points(params, (i, j), DEFAULT_TIE_TOL)
            if points is None or not len(points):
                continue
            nonempty[i, j] = nonempty[j, i] = True
            witnesses[(i, j)] = points[0]
            if abs(residuals[i, j]) > SPHERICAL_TOL:
                diagnostics[(i, j)] = (
                    f"nonempty interface violates |c_ij|^2 = 1 + kappa_ij^2 "
                    f"(residual {residuals[i, j]:.3e}): affine, not spherical Voronoi")
    return InterfaceGraph(q, nonempty, witnesses, diagnostics)


@dataclass
class SphericalReport:
    """Outcome of the compatibility check on nonempty pairs."""

    passed: bool
    max_residual: float
    violations: dict[tuple[int, int], float]
    residuals: np.ndarray


def validate_spherical(params: ClusterParams, graph: InterfaceGraph | None = None,
                       tol: float = SPHERICAL_TOL) -> SphericalReport:
    """Check |c_ij|^2 = 1 + kappa_ij^2 on every nonempty pair (all pairs if graph is None)."""
    residuals = spherical_residuals(params)
    q = params.q
    pairs = (graph.pairs() if graph is not None
             else [(i, j) for i in range(q) for j in range(i + 1, q)])
    violations = {(i, j): float(residuals[i, j]) for (i, j) in pairs
                  if abs(residuals[i, j]) > tol}
    max_res = max((abs(residuals[i, j]) for (i, j) in pairs), default=0.0)
    return SphericalReport(not violations, float(max_res), violations, residuals)


def perpendicular_pole(params: ClusterParams) -> np.ndarray | None:
    """A unit vector orthogonal to every quasi-center, or None if none exists.

    Computed as a null direction of the quasi-center matrix by singular value
    thresholding (at 1e-9 of the largest); clusters with q <= n+1 always have
    one. The sign is fixed by making the last nonzero component positive.
    """
    _, s, vt = np.linalg.svd(params.quasi_centers, full_matrices=True)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    # singular values descend, so the last right singular vector is null if any is
    if vt.shape[0] <= s.size and s[-1] > 1e-9 * scale:
        return None
    pole = vt[-1]
    nz = np.flatnonzero(np.abs(pole) > 1e-12)
    if nz.size and pole[nz[-1]] < 0:
        pole = -pole
    return pole / np.linalg.norm(pole)


def save_cluster(params: ClusterParams, path) -> None:
    payload = {
        "n": params.n,
        "q": params.q,
        "quasi_centers": params.quasi_centers.tolist(),
        "curvatures": params.curvatures.tolist(),
        "label": params.label,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_cluster(path) -> ClusterParams:
    """Load a cluster JSON file, normalizing the sum conventions (warn above 1e-9).

    A file that cannot be read, is not JSON text, is not an object with the
    four cluster keys, or whose entries do not make a cluster raises a
    ValueError that names it.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cluster file {path} cannot be read: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cluster file {path} is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"cluster file {path} holds a {type(payload).__name__}, "
                         f"not a JSON object")
    missing = [key for key in ("n", "q", "quasi_centers", "curvatures") if key not in payload]
    if missing:
        raise ValueError(f"cluster file {path} lacks {', '.join(missing)}")
    try:
        params = recentered(int(payload["n"]), payload["quasi_centers"],
                            payload["curvatures"], payload.get("label", ""),
                            warn_above=1e-9)
        q = int(payload["q"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"cluster file {path}: {exc}") from exc
    if params.q != q:
        raise ValueError(f"cluster file {path}: cell count does not match quasi_centers")
    return params
