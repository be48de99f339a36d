"""Cell volumes, interface areas and weighted interface moments.

Two backends: Monte Carlo on S^n (uniform sphere sampling plus exact
parametrization of the wall spheres) and, on S^2, exact circular-arc
extraction with Gauss-Bonnet cell areas. All quantities are reported in the
normalized measure (volume of S^n is 1, interface measure divided by |S^n|);
raw values are available behind the `raw` helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import sampling
from .cluster import (SPHERICAL_TOL, ClusterParams, InterfaceGraph, classify_many,
                      spherical_residuals, wall_interior)
from .simplex import pair_weight_matrix, sphere_surface_measure

TWO_PI = 2.0 * math.pi


class MeasureError(RuntimeError):
    pass


@dataclass
class MeasureReport:
    """Normalized volumes, interface areas and their error estimates."""

    volumes: np.ndarray
    areas: np.ndarray
    volume_stderr: np.ndarray
    area_stderr: np.ndarray
    backend: dict

    @property
    def total_perimeter(self) -> float:
        return float(np.sum(np.triu(self.areas, 1)))

    @property
    def perimeter_stderr(self) -> float:
        return float(np.sqrt(np.sum(np.triu(self.area_stderr, 1) ** 2)))

    def raw_volumes(self, n: int) -> np.ndarray:
        return self.volumes * sphere_surface_measure(n)

    def raw_areas(self, n: int) -> np.ndarray:
        return self.areas * sphere_surface_measure(n)


@dataclass
class WeightedLaplacian:
    """Discrete weighted Laplacian sum_{i<j} A^ij e_ij (x) e_ij on E^(q-1)."""

    matrix: np.ndarray
    entry_stderr: np.ndarray | None = None

    def pair_weight(self, i: int, j: int) -> float:
        return float(-self.matrix[i, j])


def resolve_backend(backend: str, n: int) -> str:
    """The backend that runs for a requested one on S^n: "exact" or "mc".

    "auto" picks the exact arc backend on S^2 and Monte Carlo otherwise;
    "exact" on any other S^n is rejected here, before any work is done.
    """
    if backend == "auto":
        return "exact" if n == 2 else "mc"
    if backend not in ("exact", "mc"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "exact" and n != 2:
        raise ValueError(f"the exact backend needs n = 2, got n = {n}")
    return backend


def measure_cluster(params: ClusterParams, graph: InterfaceGraph, backend: str = "auto",
                    samples: int = 1_000_000, seed: int = 0) -> MeasureReport:
    """Volumes and interface areas on the backend that runs for `backend` on S^n.

    This is where a backend name becomes a measuring function: "exact" runs
    measure_exact_s2 (S^2 only), "mc" runs measure_mc with the given samples
    and seed, and "auto" resolves as in resolve_backend.
    """
    if resolve_backend(backend, params.n) == "exact":
        return measure_exact_s2(params, graph)
    return measure_mc(params, graph, samples=samples, seed=seed)


def cell_volume_function(graph: InterfaceGraph, n: int, backend: str = "auto",
                         samples: int = 1_000_000, seed: int = 0):
    """params -> the volumes of measure_cluster on S^n, for the evaluations of one call.

    No wall is integrated. On Monte Carlo the function holds one
    VolumeTracker, released with it, so an evaluation near an earlier one
    reclassifies only the sample points it can move.
    """
    if resolve_backend(backend, n) == "exact":
        return lambda params: measure_exact_s2(params, graph).volumes
    tracker = VolumeTracker(samples, seed)
    return lambda params: tracker.volumes(params)[0]


# ---------------------------------------------------------------------------
# Monte Carlo backend
# ---------------------------------------------------------------------------

_VOLUME_STREAM = 0x5E11


def cell_volumes_mc(params: ClusterParams, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized cell volumes by uniform sampling of S^n, with binomial stderr."""
    return _cell_volumes_mc(params, samples, seed, _classified_counts)


def _classified_counts(chunk: int, params: ClusterParams, pts: np.ndarray) -> np.ndarray:
    return np.bincount(classify_many(params, pts), minlength=params.q)


def _cell_volumes_mc(params: ClusterParams, samples: int, seed: int,
                     chunk_counts) -> tuple[np.ndarray, np.ndarray]:
    """cell_volumes_mc with each chunk's integer cell counts from chunk_counts(chunk, params, pts).

    Each chunk is drawn and counted by a task of sampling.run_tasks, so
    chunk_counts may run on a worker thread.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")

    def task(chunk: int, count: int) -> np.ndarray:
        pts = sampling.unit_chunk(seed, _VOLUME_STREAM, chunk, count, params.n + 1)
        return chunk_counts(chunk, params, pts)

    counts = sampling.run_tasks([partial(task, chunk, count)
                                 for chunk, count in sampling.chunk_layout(samples)])
    total = sampling.pairwise_sum([c.astype(float) for c in counts])
    frac = total / samples
    stderr = np.sqrt(np.clip(frac * (1.0 - frac), 0.0, None) / samples)
    return frac, stderr


# A chunk is classified in full, and becomes the reference, when more than this
# share of its points lies within the bound. It sets speed only, never a result.
FULL_CLASSIFY_SHARE = 0.25


def _label_bound(ref: ClusterParams, cur: ClusterParams) -> float:
    """delta of VolumeTracker: no computed gap above it can change a label from ref to cur."""
    d = ref.n + 1
    g = (d + 2) * 2.0 ** -53
    g /= 1.0 - g

    def error(params: ClusterParams) -> np.ndarray:
        return g * (np.linalg.norm(params.quasi_centers, axis=1) * (1.0 + g)
                    + np.abs(params.curvatures))

    step = (np.linalg.norm(cur.quasi_centers - ref.quasi_centers, axis=1) * (1.0 + g)
            + np.abs(cur.curvatures - ref.curvatures))
    return 2.0 * float(np.max(step + error(ref) + error(cur))) * (1.0 + 1e-9)


class VolumeTracker:
    """cell_volumes_mc at one (samples, seed), reclassifying only the points a change can move.

    For each volume chunk it keeps the last full classification (the
    reference): its parameters, each point's label in the smallest integer
    type that holds q, each point's gap (second-least minus least affine value,
    as computed) and the cell counts. A later evaluation reclassifies, with the
    same classify_many code, only the points whose reference gap
    is at most delta (ties included), and takes the counts as
    counts - bincount(old labels) + bincount(new labels). Counts are integers,
    so the volumes equal cell_volumes_mc's bit for bit.

    Why a larger gap keeps its label. With d = n+1, u = 2^-53 and
    g = (d+2)u / (1 - (d+2)u), each computed value <c_k, p> + kappa_k is a
    sum of d+1 products, the last one exact. Higham's bound for such a sum, in
    any order and with or without fused multiply-adds, puts it within
    g (|c_k| |p| + |kappa_k|) of the exact value, and a unit direction
    normalized in floating point has |p| <= 1 + g. So the error is at most
    e_k = g (|c_k| (1+g) + |kappa_k|). Between the reference parameters and
    the new ones, the exact value of cell k moves by at most
    D_k = |c'_k - c_k| (1+g) + |kappa'_k - kappa_k|. If l is the reference
    label and G the exact difference of the computed second-least and least
    values, then for every k != l the new computed values satisfy
    h'_k - h'_l >= G - 2 max_j (D_j + e_j + e'_j). The stored gap is G rounded
    once, at most G (1+u), so a gap above
    delta = 2 max_j (D_j + e_j + e'_j) (1 + 1e-9) leaves l the strict least
    cell, which the running minimum then returns.

    A reclassified point's label is used only when its new gap also exceeds
    delta for unchanged parameters, 4 max_j e'_j (1 + 1e-9), beyond which no
    rounding of the full chunk can give another label: a product over a
    subset of points may round differently (a single point runs a
    matrix-vector kernel). Otherwise, and when more than FULL_CLASSIFY_SHARE
    of the chunk lies within delta, the chunk is classified in full and
    becomes the new reference.

    A tracker holds about 9 bytes per volume point, so it is meant to live
    for one call. full, incremental and reclassified count chunk
    classifications in full, incremental chunk evaluations and the points
    they reclassified. Chunks run on worker threads, each reading and
    replacing only its own chunk's reference; the calling thread tallies the
    counters.
    """

    def __init__(self, samples: int, seed: int):
        self.samples, self.seed = samples, seed
        self._references: dict[int, tuple] = {}
        self.full = self.incremental = self.reclassified = 0

    def volumes(self, params: ClusterParams) -> tuple[np.ndarray, np.ndarray]:
        """cell_volumes_mc(params, samples, seed), bit for bit."""
        moved = {}  # chunk -> points reclassified, or None for a full classification

        def chunk_counts(chunk: int, params: ClusterParams, pts: np.ndarray) -> np.ndarray:
            counts, moved[chunk] = self._chunk_counts(chunk, params, pts)
            return counts

        result = _cell_volumes_mc(params, self.samples, self.seed, chunk_counts)
        for points in moved.values():
            if points is None:
                self.full += 1
            else:
                self.incremental += 1
                self.reclassified += points
        return result

    def _chunk_counts(self, chunk: int, params: ClusterParams, pts: np.ndarray):
        """(counts, points reclassified or None) of one chunk.

        A full classification replaces the chunk's reference as soon as it is
        made; each chunk's task reads and writes only its own reference.
        """
        q = params.q
        reference = self._references.get(chunk)
        if reference is not None:
            ref_params, labels, gaps, counts = reference
            near = np.flatnonzero(gaps <= _label_bound(ref_params, params))
            if near.size <= FULL_CLASSIFY_SHARE * gaps.size:
                moved, moved_gaps = classify_many(params, pts[near], gaps=True)
                if np.all(moved_gaps > _label_bound(params, params)):
                    return (counts - np.bincount(labels[near], minlength=q)
                            + np.bincount(moved, minlength=q)), near.size
        labels, gaps = classify_many(params, pts, gaps=True)
        counts = np.bincount(labels, minlength=q)
        self._references[chunk] = (params, labels.astype(np.min_scalar_type(q - 1)), gaps, counts)
        return counts, None


def _wall_chunk_sums(params: ClusterParams, i: int, j: int, frame, seed: int, chunk: int,
                     count: int, weights) -> list[tuple[float, float]]:
    """Per weight, (sum, sum of squares) over one chunk of the (i, j) wall sphere.

    frame is the wall's subsphere_frame. The chunk's points are drawn and
    classified once, and each weight, times the mask of Sigma_ij, is summed
    over all of them; a weight None integrates the constant 1, so both of its
    sums are the hits. Each weight is evaluated one sampling.row_blocks block
    at a time, so that a product in it stays on this thread; the points handed
    to the weights are read-only.
    """
    pts = sampling.subsphere_chunk(seed, i * params.q + j + 1, chunk, count, *frame)
    pts.setflags(write=False)
    inside = wall_interior(params, i, j, pts)
    hits = float(np.count_nonzero(inside))
    sums = []
    values = np.empty(len(pts))
    for weight in weights:
        if weight is None:
            sums.append((hits, hits))
        else:
            for block in sampling.row_blocks(len(pts)):
                values[block] = weight(pts[block])
            contrib = inside * values
            sums.append((contrib.sum(), (contrib ** 2).sum()))
    return sums


def measure_mc(params: ClusterParams, graph: InterfaceGraph, samples: int = 1_000_000,
               seed: int = 0) -> MeasureReport:
    """Monte Carlo volumes and interface areas with propagated binomial errors."""
    volumes, vol_err = cell_volumes_mc(params, samples, seed)
    areas, area_err = interface_areas(params, graph, "mc", samples, seed)
    return MeasureReport(volumes, areas, vol_err, area_err,
                         {"kind": "monte_carlo", "seed": seed, "samples": samples})


# ---------------------------------------------------------------------------
# Exact S^2 backend: circular-arc extraction and Gauss-Bonnet
# ---------------------------------------------------------------------------

VERTEX_MATCH_TOL = 1e-7
MIN_ARC_ANGLE = 1e-9


@dataclass
class Arc:
    """One maximal sub-arc of the wall circle S_ij belonging to Sigma_ij.

    The circle is parametrized p(t) = center + radius (u cos t + v sin t) with
    (u, v, c_ij/|c_ij|) right-handed, so traversal with increasing t keeps cell
    j on the left. full_circle marks a vertex-free interface.
    """

    i: int
    j: int
    center: np.ndarray
    radius: float
    u: np.ndarray
    v: np.ndarray
    t0: float
    t1: float
    kappa: float
    full_circle: bool

    @property
    def length(self) -> float:
        return self.radius * (self.t1 - self.t0)

    @property
    def closed(self) -> bool:
        """No vertex on the arc: a full circle, or an interval of length 2pi to 1e-12."""
        return self.full_circle or self.t1 - self.t0 >= TWO_PI - 1e-12

    def point(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return (self.center + self.radius * (np.multiply.outer(np.cos(t), self.u)
                                             + np.multiply.outer(np.sin(t), self.v)))

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(point(t0), point(t1)), computed on first use and read-only."""
        first, last = self.point(self.t0), self.point(self.t1)
        first.setflags(write=False)
        last.setflags(write=False)
        return first, last

    def tangent(self, t: float) -> np.ndarray:
        return -self.u * math.sin(t) + self.v * math.cos(t)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors, bit for bit: each component is the difference
    of two separate products, as np.cross forms it."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _circle_frame(params: ClusterParams, i: int, j: int):
    frame = sampling.subsphere_frame(params.pair_center(i, j), params.pair_curvature(i, j))
    if frame is None:
        return None
    center, radius, basis = frame
    u, v = basis[:, 0], basis[:, 1]
    w = params.pair_center(i, j)
    w = w / np.linalg.norm(w)
    if np.dot(_cross(u, v), w) < 0:
        v = -v
    return center, radius, u, v


def _feasible_intervals(params: ClusterParams, i: int, j: int, center, radius, u, v):
    """Sub-intervals of [0, 2pi) on the wall circle where no third cell wins."""
    q = params.q
    others = [k for k in range(q) if k not in (i, j)]
    if not others:
        return [(0.0, TWO_PI)], True
    c = params.quasi_centers
    kap = params.curvatures
    coeffs = []
    for k in others:
        d = c[k] - c[i]
        coeffs.append((radius * float(d @ u), radius * float(d @ v),
                       float(d @ center) + kap[k] - kap[i]))

    roots = []
    for a, b, d0 in coeffs:
        amp = math.hypot(a, b)
        if amp < 1e-15:
            if d0 < 0.0:
                return [], False  # cell k beats the pair on the whole circle
            continue
        x = -d0 / amp
        if abs(x) <= 1.0:
            phi = math.atan2(b, a)
            delta = math.acos(max(-1.0, min(1.0, x)))
            roots.extend(((phi + delta) % TWO_PI, (phi - delta) % TWO_PI))
        elif x > 1.0:
            return [], False  # g_k < 0 everywhere; x < -1 means g_k > 0 everywhere

    def all_nonneg(t: float) -> bool:
        return all(a * math.cos(t) + b * math.sin(t) + d0 >= 0.0 for a, b, d0 in coeffs)

    if not roots:
        return ([(0.0, TWO_PI)], True) if all_nonneg(0.0) else ([], False)

    roots = sorted(set(roots))
    raw = []
    for idx, t0 in enumerate(roots):
        t1 = roots[(idx + 1) % len(roots)]
        if idx == len(roots) - 1:
            t1 += TWO_PI
        if t1 - t0 < MIN_ARC_ANGLE:
            continue
        if all_nonneg(0.5 * (t0 + t1)):
            raw.append((t0, t1))
    # adjacent feasible intervals share a root only at tangential (degenerate)
    # contacts; merge them so no spurious vertex is reported there
    intervals: list[tuple[float, float]] = []
    for iv in raw:
        if intervals and abs(iv[0] - intervals[-1][1]) < MIN_ARC_ANGLE:
            intervals[-1] = (intervals[-1][0], iv[1])
        else:
            intervals.append(iv)
    if len(intervals) >= 2:
        first, last = intervals[0], intervals[-1]
        if abs((last[1] % TWO_PI) - first[0]) < MIN_ARC_ANGLE:
            intervals = intervals[1:-1] + [(last[0], last[1] + (first[1] - first[0]))]
    return intervals, False


def extract_arcs(params: ClusterParams, graph: InterfaceGraph) -> list[Arc]:
    """All interface arcs of an S^2 cluster in closed form."""
    if params.n != 2:
        raise MeasureError("exact arc extraction requires n = 2")
    arcs = []
    for i, j in graph.pairs():
        frame = _circle_frame(params, i, j)
        if frame is None:
            continue
        center, radius, u, v = frame
        intervals, full = _feasible_intervals(params, i, j, center, radius, u, v)
        for t0, t1 in intervals:
            arcs.append(Arc(i, j, center, radius, u, v, t0, t1,
                            params.pair_curvature(i, j), full))
    return arcs


@dataclass
class _DirectedArc:
    arc: Arc
    reversed: bool  # True when traversed with decreasing t (cell i on the left)

    @property
    def start(self) -> np.ndarray:
        return self.arc.ends[1 if self.reversed else 0]

    @property
    def end(self) -> np.ndarray:
        return self.arc.ends[0 if self.reversed else 1]

    def tangent_out(self) -> np.ndarray:
        t = self.arc.t1 if self.reversed else self.arc.t0
        sign = -1.0 if self.reversed else 1.0
        return sign * self.arc.tangent(t)

    def tangent_in(self) -> np.ndarray:
        t = self.arc.t0 if self.reversed else self.arc.t1
        sign = -1.0 if self.reversed else 1.0
        return sign * self.arc.tangent(t)

    def geodesic_curvature(self, curvatures: np.ndarray) -> float:
        # curvature w.r.t. the outward normal of the cell kept on the left:
        # traversal with increasing t keeps cell j on the left, whose outward
        # normal is n_ji of curvature -kappa_ij (-curvatures[i, j] off compatible pairs)
        kappa = float(curvatures[self.arc.i, self.arc.j])
        return kappa if self.reversed else -kappa


def _geodesic_curvatures(params: ClusterParams) -> np.ndarray:
    """The geodesic curvature kappa_ij / sqrt(|c_ij|^2 - kappa_ij^2) of every wall
    circle, shape (q, q). It is kappa_ij where the pair is compatible,
    |c_ij|^2 = 1 + kappa_ij^2, and is taken as kappa_ij exactly where that
    holds within SPHERICAL_TOL, so spherical clusters keep their bits."""
    residuals = spherical_residuals(params)
    kappa = params.curvatures[:, None] - params.curvatures[None, :]
    with np.errstate(invalid="ignore"):
        return np.where(np.abs(residuals) <= SPHERICAL_TOL, kappa,
                        kappa / np.sqrt(1.0 + residuals))


def _cell_loops(cell: int, directed: list[_DirectedArc]) -> list[list[_DirectedArc]]:
    """Group the directed boundary arcs of one cell into closed loops."""
    loops = []
    unused = list(directed)
    while unused:
        walk = [unused.pop(0)]
        if walk[0].arc.full_circle:
            loops.append(walk)
            continue
        while True:
            tail = walk[-1].end
            best, best_dist = None, VERTEX_MATCH_TOL
            for cand in unused:
                dist = float(np.linalg.norm(cand.start - tail))
                if dist < best_dist:
                    best, best_dist = cand, dist
            if best is None:
                if float(np.linalg.norm(walk[0].start - tail)) < VERTEX_MATCH_TOL:
                    break
                raise MeasureError(
                    f"cell {cell}: boundary loop failed to close (dangling arc end)")
            unused.remove(best)
            walk.append(best)
            if float(np.linalg.norm(walk[0].start - walk[-1].end)) < VERTEX_MATCH_TOL:
                break
        loops.append(walk)
    return loops


def _loop_disk_area(loop: list[_DirectedArc], curvatures: np.ndarray) -> float:
    """Gauss-Bonnet area of the region left of a single closed loop (disk case), with
    the wall circles' geodesic curvatures (_geodesic_curvatures)."""
    total_kg = sum(d.geodesic_curvature(curvatures) * d.arc.length for d in loop)
    turning = 0.0
    if not (len(loop) == 1 and loop[0].arc.full_circle):
        for idx, d in enumerate(loop):
            nxt = loop[(idx + 1) % len(loop)]
            p = d.end
            t_in, t_out = d.tangent_in(), nxt.tangent_out()
            turning += math.atan2(float(p @ _cross(t_in, t_out)),
                                  float(t_in @ t_out))
    return TWO_PI - total_kg - turning


def measure_exact_s2(params: ClusterParams, graph: InterfaceGraph) -> MeasureReport:
    """Exact volumes and areas for an S^2 cluster via arcs and Gauss-Bonnet.

    Cells are assumed connected (loops of one cell bound a common region);
    disconnected cells make the area checks below fail with a structured
    error. Vertex-free interfaces (full circles) are handled, including
    annulus-type cells. Off compatible pairs an arc's geodesic curvature is
    not kappa_ij (_geodesic_curvatures).
    """
    q = params.q
    arcs = extract_arcs(params, graph)
    curvatures = _geodesic_curvatures(params)
    areas_raw = np.zeros((q, q))
    for arc in arcs:
        areas_raw[arc.i, arc.j] += arc.length
        areas_raw[arc.j, arc.i] += arc.length

    volumes_raw = np.zeros(q)
    for cell in range(q):
        directed = [_DirectedArc(a, reversed=(a.i == cell))
                    for a in arcs if cell in (a.i, a.j)]
        if not directed:
            probe = params.affine_values(np.eye(3)[0])
            volumes_raw[cell] = 2.0 * TWO_PI if int(np.argmin(probe)) == cell else 0.0
            continue
        loops = _cell_loops(cell, directed)
        area = (sum(_loop_disk_area(loop, curvatures) for loop in loops)
                - 2.0 * TWO_PI * (len(loops) - 1))
        if not -1e-8 <= area <= 2.0 * TWO_PI + 1e-8:
            raise MeasureError(
                f"cell {cell}: Gauss-Bonnet area {area:.6f} outside [0, 4pi] "
                f"(disconnected cell or degenerate boundary)")
        volumes_raw[cell] = max(area, 0.0)

    total = volumes_raw.sum()
    if abs(total - 2.0 * TWO_PI) > 1e-7:
        raise MeasureError(f"cell areas sum to {total:.8f}, expected 4pi")
    norm = 2.0 * TWO_PI
    zeros = np.zeros_like(areas_raw)
    return MeasureReport(volumes_raw / norm, areas_raw / norm,
                         np.zeros(q), zeros, {"kind": "exact_s2"})


# ---------------------------------------------------------------------------
# Weighted Laplacians
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _arc_integrals(arc: Arc, weights) -> list[float]:
    """Integrals of smooth pointwise weights over one arc (Gauss-Legendre).

    A weight None integrates the constant 1: the arc length, in closed form.
    """
    mid, half = 0.5 * (arc.t0 + arc.t1), 0.5 * (arc.t1 - arc.t0)
    pts = arc.point(mid + half * _GL_NODES)
    pts.setflags(write=False)
    return [arc.length if weight is None
            else float(np.sum(weight(pts) * _GL_WEIGHTS) * half * arc.radius)
            for weight in weights]


def _pair_integrals(params: ClusterParams, graph: InterfaceGraph, weights, backend: str,
                    samples: int, seed: int) -> list[tuple[dict, dict]]:
    """Per weight, ({pair: normalized integral over Sigma_ij}, {pair: stderr}).

    Each weight maps an (m, n+1) array of points to m values; None integrates
    the constant 1 (plain area). All weights are integrated in one pass: the
    arcs are extracted once (backend "exact", n = 2 only; a pair with no arc
    is left out), or each chunk of wall samples is drawn and classified once.
    On Monte Carlo the (pair, chunk) tasks of every pair run through
    sampling.run_tasks, so the weights may run on worker threads; each
    weight's mean over a wall is a pairwise sum of its chunk sums in layout
    order, and its stderr the binomial one of those samples.
    """
    values: list[dict[tuple[int, int], float]] = [{} for _ in weights]
    errs: list[dict[tuple[int, int], float]] = [{} for _ in weights]
    norm = sphere_surface_measure(params.n)
    if resolve_backend(backend, params.n) == "exact":
        for arc in extract_arcs(params, graph):
            key = (arc.i, arc.j)
            for w_values, integral in zip(values, _arc_integrals(arc, weights)):
                w_values[key] = w_values.get(key, 0.0) + integral / norm
        errs = [{k: 0.0 for k in w_values} for w_values in values]
    else:
        if samples <= 0:
            raise ValueError("samples must be positive")
        layout = sampling.chunk_layout(samples)
        # no third cell: every sample is a hit, and each sampled mean is exactly 1
        all_hits = params.q == 2 and all(weight is None for weight in weights)
        walls, tasks = [], []
        for i, j in graph.pairs():
            frame = sampling.subsphere_frame(params.pair_center(i, j),
                                             params.pair_curvature(i, j))
            walls.append((i, j, frame))
            if frame is not None and not all_hits:
                tasks += [partial(_wall_chunk_sums, params, i, j, frame, seed, chunk, count,
                                  weights) for chunk, count in layout]
        chunk_sums = iter(sampling.run_tasks(tasks))
        for i, j, frame in walls:
            if frame is None:  # the hyperplane misses S^n: no wall to integrate over
                moments, wall = [(0.0, 0.0)] * len(weights), 0.0
            else:
                wall = sphere_surface_measure(params.n - 1) * frame[1] ** (params.n - 1)
                moments = ([(1.0, 0.0)] * len(weights) if all_hits else
                           _wall_moments([next(chunk_sums) for _ in layout], samples))
            for w_values, w_errs, (mean, stderr) in zip(values, errs, moments):
                w_values[(i, j)] = mean * wall / norm
                w_errs[(i, j)] = stderr * wall / norm
    return list(zip(values, errs))


def _wall_moments(chunk_sums: list, samples: int) -> list[tuple[float, float]]:
    """Per weight, (mean, stderr) over a wall from its _wall_chunk_sums in layout order."""
    out = []
    for w_sums in zip(*chunk_sums):
        mean = float(sampling.pairwise_sum([s for s, _ in w_sums])) / samples
        second = float(sampling.pairwise_sum([sq for _, sq in w_sums])) / samples
        var = max(second - mean * mean, 0.0)
        out.append((mean, math.sqrt(var / samples)))
    return out


def _symmetric(q: int, pair_values: dict[tuple[int, int], float]) -> np.ndarray:
    """q x q matrix with the given entries at (i, j) and (j, i), +0.0 elsewhere."""
    m = np.zeros((q, q))
    for (i, j), value in pair_values.items():
        m[i, j] = m[j, i] = value
    return m


def interface_areas(params: ClusterParams, graph: InterfaceGraph, backend: str = "auto",
                    samples: int = 1_000_000, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Normalized interface areas and their stderr: the pair weights of L_None.

    No volume sample is drawn.
    """
    (areas, errs), = _pair_integrals(params, graph, [None], backend, samples, seed)
    return _symmetric(params.q, areas), _symmetric(params.q, errs)


def weighted_laplacians(params: ClusterParams, graph: InterfaceGraph, weights,
                        backend: str = "auto", samples: int = 1_000_000,
                        seed: int = 0) -> list[WeightedLaplacian]:
    """L_f for each weight f, with A^ij the integral of f over Sigma_ij.

    All weights are integrated in one pass over the same points (see
    _pair_integrals); "auto" picks exact on S^2 and Monte Carlo otherwise.
    Each result equals the single-weight weighted_laplacian bit for bit. On
    Monte Carlo the weights may run on worker threads, so they must be pure.
    """
    q = params.q
    return [WeightedLaplacian(pair_weight_matrix(q, values), _symmetric(q, errs))
            for values, errs in _pair_integrals(params, graph, weights, backend, samples, seed)]


def weighted_laplacian(params: ClusterParams, graph: InterfaceGraph, weight,
                       backend: str = "auto", samples: int = 1_000_000,
                       seed: int = 0) -> WeightedLaplacian:
    """L_f with A^ij the integral of a pointwise weight over Sigma_ij; see weighted_laplacians."""
    return weighted_laplacians(params, graph, [weight], backend=backend, samples=samples,
                               seed=seed)[0]
