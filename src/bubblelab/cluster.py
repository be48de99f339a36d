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
from itertools import combinations

import numpy as np

from . import sampling
from .simplex import SUM_TOL, project_sum_zero

DEFAULT_TIE_TOL = 1e-9
SPHERICAL_TOL = 1e-9
RANK_CUTOFF = 1e-7
SINGULAR_TIE_TOL = 1e-7
# the exact interface test's linear functional: no entry is zero, as cos(k) != 0
_LEVEL_FUNCTIONAL = np.cos(np.arange(1.0, 65.0))


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
    """Which pairs (i, j) carry a nonempty interface, with sample witnesses."""

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


def wall_interior(params: ClusterParams, i: int, j: int, points: np.ndarray,
                  tie_tol: float = 0.0) -> np.ndarray:
    """Mask of the points at which no third cell reaches min(h_i, h_j) + tie_tol.

    h_k is the affine value of cell k. A running minimum over the cell-major
    rows of the other cells, one block of sampling.row_blocks at a time; with
    two cells every point is interior.
    """
    if params.q == 2:
        return np.ones(len(points), dtype=bool)
    others = [k for k in range(params.q) if k not in (i, j)]
    inside = np.empty(len(points), dtype=bool)
    for rows in sampling.row_blocks(len(points)):
        values = cell_values(params, points[rows])
        lead = np.minimum(values[i], values[j])
        if tie_tol:
            lead += tie_tol
        low = values[others[0]]
        for k in others[1:]:
            np.minimum(low, values[k], out=low)
        np.greater(low, lead, out=inside[rows])
    return inside


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


def tie_subsphere(rows: np.ndarray, offs: np.ndarray) -> tuple | None:
    """Trace on S^n of {p : rows @ p + offs = 0}: the subsphere p0 + radius N S^(dim N - 1).

    p0 is the min-norm solution and N the null space of the rows, from one SVD
    with rank cutoff RANK_CUTOFF. None when the ties are inconsistent or miss
    S^n, to SINGULAR_TIE_TOL.
    """
    u, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > RANK_CUTOFF * (s[0] or 1.0)))
    p0 = -vt[:rank].T @ ((u[:, :rank].T @ offs) / s[:rank])
    frame = vt[rank:].T
    r2 = 1.0 - p0 @ p0
    if (np.max(np.abs(rows @ p0 + offs)) > SINGULAR_TIE_TOL or r2 < -SINGULAR_TIE_TOL
            or (frame.shape[1] == 0 and r2 > SINGULAR_TIE_TOL)):
        return None
    return p0, np.sqrt(max(r2, 0.0)), frame


def trace_vertices(p0: np.ndarray, radius: float, frame: np.ndarray) -> np.ndarray:
    """p0 +- radius N for a trace with one null direction N; p0 twice with none."""
    return p0 + radius * np.outer([1.0, -1.0], frame.sum(axis=1))


def _exact_interface_point(params: ClusterParams, i: int, j: int,
                           tie_tol: float) -> np.ndarray | None:
    """A point of the (i, j) wall that wall_interior accepts, or None if there is none.

    If {h_i = h_j, h_k >= h_i + 2 tie_tol for all other k} meets S^n, a fixed
    linear functional attains its minimum there at the minimum on the trace
    of the active tie set, and a row basis of those ties leaves at most n
    other cells. So subsets of at most n cells are tried, smallest first,
    each with the vertices of its trace or the functional's extremes on it.
    A set containing one whose trace missed S^n is skipped: its ties add rows,
    so its trace lies in the smaller one's and misses S^n too.
    """
    c, k = params.quasi_centers, params.curvatures
    others = [m for m in range(params.q) if m not in (i, j)]
    missed: list[int] = []  # bit masks of the cell sets whose trace missed S^n
    for size in range(min(params.n, len(others)) + 1):
        for cells in combinations(others, size):
            mask = sum(1 << m for m in cells)
            if any(mask & miss == miss for miss in missed):
                continue
            ties = [j, *cells]
            offs = k[ties] - k[i]
            offs[1:] -= 2.0 * tie_tol
            trace = tie_subsphere(c[ties] - c[i], offs)
            if trace is None:
                missed.append(mask)
                continue
            p0, radius, frame = trace
            if frame.shape[1] > 1:  # the minimizer first, then the maximizer
                slope = frame.T @ _LEVEL_FUNCTIONAL[: params.n + 1]
                frame = -(frame @ slope)[:, None] / np.linalg.norm(slope)
            pts = trace_vertices(p0, radius, frame)
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            hits = np.flatnonzero(wall_interior(params, i, j, pts, tie_tol))
            if hits.size:
                return pts[hits[0]]
    return None


def detect_interfaces(params: ClusterParams, samples_per_pair: int = 4096,
                      rng_seed: int = 0, tie_tol: float = DEFAULT_TIE_TOL) -> InterfaceGraph:
    """Decide which pairs carry an interface, with a witness point for each.

    Each wall sphere S_ij (the cut of S^n by <c_ij, x> + kappa_ij = 0) is
    sampled uniformly, and the first sample classified to exactly {i, j} is
    the witness; a pair with no sampled hit is decided exactly by
    _exact_interface_point. Walls that miss the sphere get a diagnostic.
    """
    if samples_per_pair <= 0:
        raise ValueError("samples_per_pair must be positive")
    q = params.q
    nonempty = np.zeros((q, q), dtype=bool)
    witnesses: dict[tuple[int, int], np.ndarray] = {}
    diagnostics: dict[tuple[int, int], str] = {}
    residuals = spherical_residuals(params)
    for i in range(q):
        for j in range(i + 1, q):
            frame = sampling.subsphere_frame(params.pair_center(i, j),
                                             params.pair_curvature(i, j))
            if frame is None:
                diagnostics[(i, j)] = "degenerate wall: hyperplane misses S^n"
                continue
            witness, notes = None, []
            for chunk, count in sampling.chunk_layout(samples_per_pair):
                pts = sampling.subsphere_chunk(rng_seed, i * q + j + 1, chunk, count, *frame)
                hits = np.flatnonzero(wall_interior(params, i, j, pts, tie_tol))
                if hits.size:
                    witness = pts[hits[0]] / np.linalg.norm(pts[hits[0]])
                    break
            if witness is None:
                witness = _exact_interface_point(params, i, j, tie_tol)
                if witness is None:
                    continue
                notes.append("below the sampling resolution: found by the exact test")
            nonempty[i, j] = nonempty[j, i] = True
            witnesses[(i, j)] = witness
            if abs(residuals[i, j]) > SPHERICAL_TOL:
                notes.append(f"nonempty interface violates |c_ij|^2 = 1 + kappa_ij^2 "
                             f"(residual {residuals[i, j]:.3e}): affine, not spherical Voronoi")
            if notes:
                diagnostics[(i, j)] = "; ".join(notes)
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
    """Load a cluster JSON file, normalizing the sum conventions (warn above 1e-9)."""
    with open(path) as fh:
        payload = json.load(fh)
    params = recentered(int(payload["n"]), payload["quasi_centers"],
                        payload["curvatures"], payload.get("label", ""),
                        warn_above=1e-9)
    if params.q != int(payload["q"]):
        raise ValueError("cell count in file does not match quasi_centers")
    return params
