"""Cell volumes, interface areas and weighted interface moments.

Two backends: Monte Carlo on S^n (uniform sphere sampling plus exact
parametrization of the wall spheres) and, on S^2, exact circular-arc
extraction with cell areas by Stokes' theorem, one signed sum over the
arcs. All quantities are reported in the normalized measure (volume of S^n
is 1, interface measure divided by |S^n|); raw values are available behind
the `raw` helpers.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import sampling
from .cluster import ClusterParams, InterfaceGraph, cell_values, classify_many, least_cell
from .simplex import pair_weight_matrix, sphere_surface_measure

TWO_PI = 2.0 * math.pi


class MeasureError(RuntimeError):
    pass


@dataclass
class MeasureReport:
    """Normalized volumes, interface areas and their error estimates.

    perimeter_stderr is the standard error of total_perimeter, 0 on the exact
    backend. On Monte Carlo every wall is placed from one stream of
    directions, so the pair areas' errors are correlated: it is the standard
    error of the per-direction total T(k) = sum over the pairs of
    |wall_ij| / |S^n| * hit_ij(k), whose mean is the perimeter, and not the
    quadrature of area_stderr.
    """

    volumes: np.ndarray
    areas: np.ndarray
    volume_stderr: np.ndarray
    area_stderr: np.ndarray
    perimeter_stderr: float
    backend: dict

    @property
    def total_perimeter(self) -> float:
        return float(np.sum(np.triu(self.areas, 1)))

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

    No wall is integrated. On exact volumes it is an ArcVolumes, which keeps each
    point's arcs; on Monte Carlo it holds one VolumeTracker, released with it, which
    draws each volume chunk once and keeps the coordinates its clusters use, so an
    evaluation near the one before it reclassifies only the points its step can move.
    """
    if resolve_backend(backend, n) == "exact":
        return ArcVolumes(graph)
    tracker = VolumeTracker(samples, seed)
    return lambda params: tracker.volumes(params)[0]


# ---------------------------------------------------------------------------
# Monte Carlo backend
# ---------------------------------------------------------------------------

_VOLUME_STREAM = 0x5E11
# Every wall of every cluster in one call is placed from the directions of
# this one stream: the walls on S^n are all (n-1)-spheres, so one unit
# direction in R^n gives a point on each.
_WALL_STREAM = 0xA11


def cell_volumes_mc(params: ClusterParams, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized cell volumes by uniform sampling of S^n, with binomial stderr.

    Each volume chunk is drawn afresh and classified one block at a time."""

    def chunk_counts(chunk: int, count: int) -> np.ndarray:
        return _volume_counts([params], seed, chunk, count)[0]

    return _cell_volumes_mc(samples, chunk_counts)


def _volume_counts(all_params: list[ClusterParams], seed: int, chunk: int,
                   count: int) -> list[np.ndarray]:
    """The integer cell counts of each of all_params (sharing n and q) over one
    volume chunk, whose blocks are classified against each as they are drawn."""
    n, q = all_params[0].n, all_params[0].q
    counts = [np.zeros(q, dtype=np.intp) for _ in all_params]
    for block in sampling.unit_blocks(seed, _VOLUME_STREAM, chunk, count, n + 1):
        for total, params in zip(counts, all_params):
            total += np.bincount(classify_many(params, block), minlength=q)
    return counts


def _cell_volumes_mc(samples: int, chunk_counts) -> tuple[np.ndarray, np.ndarray]:
    """Normalized volumes and binomial stderr from chunk_counts(chunk, count), the
    integer cell counts of each volume chunk of the layout of samples.

    Each chunk is counted by a task of sampling.run_tasks, so chunk_counts may
    run on a worker thread.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    counts = sampling.run_tasks([partial(chunk_counts, chunk, count)
                                 for chunk, count in sampling.chunk_layout(samples)])
    return _volume_fractions(counts, samples)


def _volume_fractions(counts: list[np.ndarray], samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized volumes and binomial stderr from each chunk's cell counts in layout order."""
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


def _used_columns(params: ClusterParams) -> int:
    """One more than the last column with a nonzero quasi-center entry, and at least 1."""
    used = np.flatnonzero(np.any(params.quasi_centers != 0.0, axis=0))
    return int(used[-1]) + 1 if used.size else 1


def _leading(params: ClusterParams, width: int) -> ClusterParams:
    """params on the first width coordinates, whose values at a point's first
    width coordinates are exactly params' values at the point when every
    quasi-center entry beyond them is 0."""
    if width == params.n + 1:
        return params
    return ClusterParams(width - 1, params.quasi_centers[:, :width], params.curvatures)


def _classify_blocks(params: ClusterParams, blocks, labels: np.ndarray, gaps: np.ndarray,
                     bound: float | None = None, keep: np.ndarray | None = None):
    """The cell counts of blocks, the rows of one sampling.row_blocks(len(labels))
    slice in turn, whose least_cell labels and gaps it writes into labels and gaps.

    keep takes each block's first keep.shape[1] columns. With a bound, stops
    and returns None at the first block with a gap at most the bound.
    """
    counts = np.zeros(params.q, dtype=np.intp)
    for rows, block in zip(sampling.row_blocks(len(labels)), blocks):
        block_labels, gaps[rows] = least_cell(cell_values(params, block), gaps=True)
        if bound is not None and not np.all(gaps[rows] > bound):
            return None
        labels[rows] = block_labels
        counts += np.bincount(block_labels, minlength=params.q)
        if keep is not None:
            keep[rows] = block[:, :keep.shape[1]]
    return counts


class VolumeTracker:
    """cell_volumes_mc at one (samples, seed), reclassifying only the points a change can move.

    The tracker's width s is one more than the last column in which any
    cluster it evaluated has a nonzero quasi-center entry (a standard bubble
    of q cells has s = q - 1). Each volume chunk is drawn on its first
    evaluation, one sampling.unit_blocks block at a time, and each block is
    classified on all n+1 coordinates as it is drawn, as cell_volumes_mc
    classifies it; of the points the tracker keeps, read-only, only the first
    s coordinates. Beside them it keeps the chunk's reference: the parameters
    P of the chunk's last evaluation, each point's label l in the smallest
    integer type that holds q, each point's stored gap s_p, the cell counts
    and one offset o. A full classification stores the computed gaps
    (second-least minus least affine value) with o = 0. A later evaluation at
    P' reclassifies, from the kept coordinates, only the near points,
    s_p <= limit with limit = o + delta rounded up, and takes the counts as
    counts - bincount(old labels) + bincount(new labels). Counts are integers,
    so the volumes equal cell_volumes_mc's bit for bit. The evaluation then
    becomes the reference in place: P', the near points' new labels, their
    fresh gaps plus limit rounded down, and o' = limit. A point that is not
    near is not written.

    The rounding terms. With d = n+1, u = 2^-53 and
    g = (d+2)u / (1 - (d+2)u), each computed value <c_k, p> + kappa_k is a
    sum of d+1 products, the last one exact. Higham's bound for such a sum, in
    any order and with or without fused multiply-adds, puts it within
    g (|c_k| |p| + |kappa_k|) of the exact value h_k, and a unit direction
    normalized in floating point has |p| <= 1 + g. So the error is at most
    e_k = g (|c_k| (1+g) + |kappa_k|) at P (e'_k at P'). The entries of c_k
    beyond the first s are 0, so a product over the kept coordinates has the
    same exact value h_k, and as a sum of fewer products a rounding bound no
    larger: e_k bounds it too. From P to P' the exact value of cell k moves
    by at most D_k = |c'_k - c_k| (1+g) + |kappa'_k - kappa_k|, and
    delta = 2 max_j (D_j + e_j + e'_j) (1 + 1e-9).

    The invariant. For every point with label l and every k != l,
    h_k - h_l >= (s_p - o) / (1+u) - (e_k + e_l) at P.
    A full classification makes it true: the computed values put l least, so
    h_k - h_l >= G - (e_k + e_l), where G is the exact difference of the
    computed second-least and least values, and the stored gap is G rounded
    once, at most G (1+u). The same holds for a reclassified point at P',
    whose stored gap minus o' is at most its fresh gap.

    Why a point that is not near keeps its label, and the invariant. Its
    s_p > limit >= o + delta. At P' the exact values give, by the old bound
    and then the move,
    h'_k - h'_l >= (s_p - o) / (1+u) - (e_k + e_l) - D_k - D_l,
    and the computed values lose e'_k + e'_l more, which leaves them above
    delta / (1+u) - 2 max_j (D_j + e_j + e'_j) > 0 (as u < 1e-9): l is the
    strict least computed cell, which the running minimum returns. And since
    (o' - o) / (1+u) >= delta / (1+u) covers
    (e_k + e_l) + D_k + D_l - (e'_k + e'_l), that bound on h'_k - h'_l is at
    least (s_p - o') / (1+u) - (e'_k + e'_l): the invariant at P' with the
    same s_p.

    A reclassified point's label is used only when its new gap also exceeds
    delta for unchanged parameters, 4 max_j e'_j (1 + 1e-9), beyond which no
    rounding of the full chunk on all coordinates can give another label: a
    product over a subset of points or of coordinates may round differently
    (a single point runs a matrix-vector kernel). When more than
    FULL_CLASSIFY_SHARE of the chunk lies within the limit, the whole chunk
    is reclassified from the kept coordinates, under the same test, and
    becomes the new reference with o = 0; with s = n+1 the kept points are
    the drawn blocks, which round as cell_volumes_mc's do, and need no test.
    When a gap fails the test, or the evaluation widens s, the chunk is drawn
    again and classified on all coordinates as on its first evaluation.

    A tracker holds 8s + 9 bytes per volume point (its kept coordinates, a
    label and a gap), about 50 MB at 2M points for q = 3 on S^3, so it is
    meant to live for one call. Every evaluation must share the first one's
    n and q. full, incremental and reclassified count chunk classifications
    in full (from the kept coordinates or drawn again), incremental chunk
    evaluations and the points they reclassified. Chunks run on worker
    threads, each drawing, reading and replacing only its own chunk's points
    and reference; the calling thread tallies the counters.
    """

    def __init__(self, samples: int, seed: int):
        self.samples, self.seed = samples, seed
        self._shape: tuple[int, int] | None = None  # (q, n+1) of every evaluation
        self._width = 0  # s: the coordinates kept per point
        self._points: dict[int, np.ndarray] = {}
        self._references: dict[int, tuple] = {}
        self.full = self.incremental = self.reclassified = 0

    def volumes(self, params: ClusterParams) -> tuple[np.ndarray, np.ndarray]:
        """cell_volumes_mc(params, samples, seed), bit for bit."""
        shape = params.quasi_centers.shape
        if self._shape is None:
            self._shape = shape
        elif shape != self._shape:
            raise ValueError(f"the tracker measures quasi-centers of shape {self._shape} "
                             f"(q, n + 1), got {shape}")
        self._width = max(self._width, _used_columns(params))
        kept = _leading(params, self._width)
        moved = {}  # chunk -> points reclassified, or None for a full classification
        # the bounds depend on the parameters alone, and after an evaluation every
        # chunk's reference holds its parameters: each is computed once per call
        references = {id(ref[0]): ref[0] for ref in self._references.values()}
        bounds = {key: _label_bound(ref, params) for key, ref in references.items()}
        unchanged = _label_bound(params, params) if bounds else None

        def chunk_counts(chunk: int, count: int) -> np.ndarray:
            counts, moved[chunk] = self._chunk_counts(chunk, count, params, kept, bounds,
                                                      unchanged)
            return counts

        result = _cell_volumes_mc(self.samples, chunk_counts)
        for points in moved.values():
            if points is None:
                self.full += 1
            else:
                self.incremental += 1
                self.reclassified += points
        return result

    def _chunk_counts(self, chunk: int, count: int, params: ClusterParams,
                      kept: ClusterParams, bounds: dict, unchanged: float | None):
        """(counts, points reclassified or None) of one chunk of count points.

        kept is params on the tracker's width, bounds maps the id of each
        reference's parameters to their _label_bound to params, and unchanged
        is _label_bound(params, params). Every evaluation becomes the chunk's
        reference as soon as it is made; each chunk's task reads and writes
        only its own points and reference.
        """
        q, reference = params.q, self._references.get(chunk)
        if reference is None:
            labels, gaps = np.empty(count, dtype=np.min_scalar_type(q - 1)), np.empty(count)
        else:
            ref_params, labels, gaps, counts, offset = reference
            pts = self._points[chunk]
            if pts.shape[1] == kept.n + 1:
                limit = np.nextafter(offset + bounds[id(ref_params)], np.inf)
                near = gaps <= limit
                if np.count_nonzero(near) <= FULL_CLASSIFY_SHARE * gaps.size:
                    near = np.flatnonzero(near)
                    moved, moved_gaps = classify_many(kept, np.take(pts, near, axis=0),
                                                      gaps=True)
                    if np.all(moved_gaps > unchanged):
                        counts = (counts - np.bincount(np.take(labels, near), minlength=q)
                                  + np.bincount(moved, minlength=q))
                        labels[near] = moved
                        gaps[near] = np.nextafter(moved_gaps + limit, -np.inf)
                        self._references[chunk] = (params, labels, gaps, counts, limit)
                        return counts, near.size
                else:
                    blocks = (pts[rows] for rows in sampling.row_blocks(count))
                    counts = _classify_blocks(kept, blocks, labels, gaps,
                                              None if kept is params else unchanged)
                    if counts is not None:
                        self._references[chunk] = (params, labels, gaps, counts, 0.0)
                        return counts, None
        # a first evaluation, a widening or a rounding fallback
        keep = None
        if reference is None or pts.shape[1] != kept.n + 1:
            keep = np.empty((count, kept.n + 1))
        blocks = sampling.unit_blocks(self.seed, _VOLUME_STREAM, chunk, count, params.n + 1)
        counts = _classify_blocks(params, blocks, labels, gaps, keep=keep)
        if keep is not None:
            keep.setflags(write=False)
            self._points[chunk] = keep
        self._references[chunk] = (params, labels, gaps, counts, 0.0)
        return counts, None


def _wall_map(params: ClusterParams, i: int, j: int, frame) -> tuple:
    """(slope, offset, affine) of the (i, j) wall with subsphere_frame frame =
    (center, r, T), made once per wall. slope and offset hold the difference
    rows of the q - 2 cells k other than i and j, in cell order: at the wall
    point center + r T w of a unit direction w in R^n, slope @ w + offset are
    the differences h_k - h_i of the cells' affine values, taken from
    c_k - c_i and kappa_k - kappa_i. The point itself is (w, 1) @ affine, one
    product for the stacked rows r T^T and center."""
    center, radius, tangent = frame
    others = [k for k in range(params.q) if k not in (i, j)]
    rows = params.quasi_centers[others] - params.quasi_centers[i]
    # affine is C-ordered, as the points it places are: the bits of products
    # that weight callbacks take, such as pts @ xi, depend on the memory layout
    return (radius * (rows @ tangent),
            (rows @ center + (params.curvatures[others] - params.curvatures[i]))[:, None],
            np.vstack([radius * tangent.T, center]))


def _hit_mask(wall: tuple, columns: np.ndarray, differences: np.ndarray, low: np.ndarray,
              mask: np.ndarray) -> int:
    """The hits of one block of directions on a wall sphere, whose mask of
    Sigma_ij is written to mask.

    wall is the wall's _wall_map, and columns the transpose of one
    sampling.row_blocks block of unit directions in R^n, each row contiguous:
    copied once per block, it takes a third off each product, whose bits it
    keeps. One product into differences, a scratch of at least q - 2 rows of
    the block's length, gives each third cell's difference h_k - h_i at the
    block's wall points; a point is a hit where their least (into low, one
    scratch row) is above 0. No point is placed to classify it, and a wall
    with no third cell is all hits.

    The mask equals cluster.stratum_interior's of the pair on the same wall
    points, placed center + radius * frame @ w one row block at a time, bit
    for bit wherever no third cell is within rounding of the pair, which
    property tests check on random, seeded and gallery clusters. The
    exception is a cluster with two identical cells. A twin of cell i has a
    zero difference row, so the wall reads empty, where stratum_interior follows
    rounding. A twin of j ties with the pair exactly on the whole wall, so
    its row is 0 up to rounding and both masks follow rounding there.
    """
    slope, offset, _ = wall
    if not len(slope):
        mask.fill(True)
        return mask.size
    values = differences[: len(slope), : columns.shape[1]]
    np.matmul(slope, columns, out=values)
    values += offset
    np.greater(np.minimum.reduce(values, axis=0, out=low[: columns.shape[1]]), 0.0, out=mask)
    return int(np.count_nonzero(mask))


def _place_hits(affine: np.ndarray, lifted: np.ndarray, mask: np.ndarray, hits: int,
                gathered: np.ndarray, placed: np.ndarray) -> None:
    """Place a block's hits (mask) on a wall in the first rows of placed: the
    rows (w, 1) of lifted at the hits, times the wall's affine map. A single
    hit of a longer block is placed beside a copy of itself, in the next row,
    so that no product has a single row unless the block does."""
    run = 2 if hits == 1 and len(lifted) > 1 else hits
    lifted.compress(mask, axis=0, out=gathered[:hits])
    if run > hits:
        gathered[1] = gathered[0]
    np.matmul(gathered[:run], affine, out=placed[:run])


class _WallChunk:
    """The scratch and the per-block sums of one chunk task of _wall_pass.

    The scratch is made once, for blocks of at most BLOCK + 1 rows. block()
    is the per-block kernel: it classifies one block of directions on every
    wall of every cluster, places and weighs the hits and adds to the
    perimeter totals. sums() is the chunk's result.
    """

    def __init__(self, sampled: list[tuple[ClusterParams, list[tuple]]], weights, count: int,
                 perimeter: bool):
        n = sampled[0][0].n
        longest = sampling.BLOCK + 1
        self.sampled, self.weights = sampled, weights
        self.layout = sampling.row_blocks(count)
        self.evaluated = np.array([k for k, weight in enumerate(weights) if weight is not None],
                                  dtype=np.intp)
        self.plain = [k for k, weight in enumerate(weights) if weight is None]
        # a run and the copy of a last single hit
        room = longest + 1 if self.evaluated.size else 0
        self.differences = np.empty((max(params.q for params, _ in sampled) - 2, longest))
        self.low = np.empty(longest)
        self.cols = np.empty((n, longest))  # each block's directions as columns, for _hit_mask
        self.masks = np.empty((max(len(walls) for _, walls in sampled), longest), dtype=bool)
        self.term = np.empty(longest) if perimeter else None
        # each block's rows (w, 1)
        self.lift = np.ones((longest if self.evaluated.size else 0, n + 1))
        self.gathered, self.placed = np.empty((room, n + 1)), np.empty((room, n + 1))
        self.values = np.empty((2, self.evaluated.size, room))  # the weights' values, squared
        # each sampled wall's (sum, sum of squares) per block and weight, and its
        # hits per block
        self.block_sums = [[np.zeros((len(self.layout), len(weights), 2)) for _ in walls]
                           for _, walls in sampled]
        self.block_hits = [np.empty((len(walls), len(self.layout))) for _, walls in sampled]
        self.totals = [np.empty(count) if perimeter and walls else None
                       for _, walls in sampled]
        self.shares = [[share for *_, share in walls] for _, walls in sampled]

    def weigh(self, run: int, waiting: list, rows: int) -> None:
        """Weigh the run placed hits of the walls waiting, (sums, start, hits)."""
        if run == 1 and rows > 1:  # the copy _place_hits placed beside it
            run = 2
        pts, values, evaluated = self.placed[:run], self.values, self.evaluated
        pts.setflags(write=False)
        for row, k in zip(values[0], evaluated):
            row[:run] = self.weights[k](pts)
        np.multiply(values[0, :, :run], values[0, :, :run], out=values[1, :, :run])
        for sums, start, hits in waiting:
            # each row summed as one contiguous run, as contrib.sum() would
            sums[evaluated] = np.add.reduce(values[:, :, start: start + hits], axis=2).T

    def block(self, b: int, rows: slice, directions: np.ndarray) -> None:
        """Classify block b of the layout, directions, on every wall of every
        cluster, and place, weigh and total its hits."""
        size = rows.stop - rows.start
        fits = sampling.BLOCK + 1 if size > 1 else 1
        weighed = self.evaluated.size
        columns = self.cols[:, :size]
        np.copyto(columns, directions.T)
        if weighed:
            lifted = self.lift[:size]
            lifted[:, :directions.shape[1]] = directions
        for (_, walls), wall_sums, hit_counts, total, share in zip(
                self.sampled, self.block_sums, self.block_hits, self.totals, self.shares):
            waiting, run = [], 0
            for m, (_, _, wall, _) in enumerate(walls):
                mask = self.masks[m, :size]
                hits = hit_counts[m, b] = _hit_mask(wall, columns, self.differences, self.low,
                                                    mask)
                if not (weighed and hits):
                    continue
                if run + hits > fits:
                    self.weigh(run, waiting, size)
                    waiting, run = [], 0
                _place_hits(wall[2], lifted, mask, hits, self.gathered[run:], self.placed[run:])
                waiting.append((wall_sums[m][b], run, hits))
                run += hits
            if waiting:
                self.weigh(run, waiting, size)
            if total is not None:
                block_total, term = total[rows], self.term[:size]
                block_total.fill(0.0)
                for mask, wall_share in zip(self.masks, share):
                    # a masked add (where=mask) takes about five times as long
                    block_total += np.multiply(mask[:size], wall_share, out=term)

    def sums(self) -> list[tuple[list, np.ndarray | None]]:
        """The chunk's result, as _wall_chunk returns it."""
        for wall_sums, hit_counts in zip(self.block_sums, self.block_hits):
            for sums, hits in zip(wall_sums, hit_counts):
                sums[:, self.plain] = hits[:, None, None]
        return [([sampling.pairwise_sum(list(sums)) for sums in wall_sums],
                 None if total is None else
                 np.array([[total.sum(), np.multiply(total, total, out=total).sum()]]))
                for wall_sums, total in zip(self.block_sums, self.totals)]


def _wall_chunk(sampled: list[tuple[ClusterParams, list[tuple]]], weights, blocks,
                count: int, perimeter: bool, lock) -> list[tuple[list, np.ndarray | None]]:
    """Per cluster, (per sampled wall, each weight's (sum, sum of squares)
    over one chunk as a (weights, 2) array; the (1, 2) array of the sums of T
    and T^2 over the chunk if `perimeter` is set, else None).

    sampled holds each cluster's params and its sampled walls
    (i, j, _wall_map, |wall_ij| / |S^n|); blocks yields the chunk's count unit
    directions in R^n one sampling.row_blocks block at a time, as
    sampling.unit_blocks does. Each block is drawn outside lock, the pass's
    lock, and then, holding it, classified on every wall of every cluster
    (_hit_mask), its hits placed and weighed and its perimeter totals added
    (_WallChunk.block), before the next is drawn. So the draws of a pass's
    chunk tasks run at the same time, and its blocks are classified one at
    a time: each makes a few dozen numpy calls of a few microseconds, which
    gain nothing from a second thread and would trade the interpreter lock
    between them.

    Only the hits are placed (_place_hits), wall after wall, and each weight
    is called on the placed hits of a cluster's walls in one block, handed
    over read-only in runs of at most BLOCK + 1 rows: a run is weighed when
    the next wall's hits would not fit. So a product in a weight stays on
    this thread, and no run has a single row unless the block does (a single
    hit is weighed beside a copy of itself). Each weight's values at a wall's
    hits in a block are summed in block order, then squared and summed, and a
    wall's chunk sums are the sampling.pairwise_sum of its per-block sums in
    block order. A weight None integrates the constant 1, so both of its sums
    are the hits; with no weight but None no point is gathered at all.

    With `perimeter` set each cluster keeps its per-direction totals
    T(k) = sum over its walls of |wall_ij| / |S^n| * hit_ij(k), added wall
    after wall for each block, and sums them and their squares over the whole
    chunk.
    """
    chunk = _WallChunk(sampled, weights, count, perimeter)
    for b, (rows, directions) in enumerate(zip(chunk.layout, blocks)):
        with lock:
            chunk.block(b, rows, directions)
    return chunk.sums()


def _wall_frames(params: ClusterParams, graph: InterfaceGraph) -> list[tuple]:
    """(i, j, subsphere_frame of the wall) for each pair of graph; None where the
    hyperplane misses S^n."""
    return [(i, j, sampling.subsphere_frame(params.pair_center(i, j),
                                            params.pair_curvature(i, j)))
            for i, j in graph.pairs()]


def _wall_measure(n: int, frame) -> float:
    """Unnormalized measure of the wall (n-1)-sphere with the given subsphere_frame."""
    return sphere_surface_measure(n - 1) * frame[1] ** (n - 1)


def _wall_pass(clusters: list[tuple[ClusterParams, InterfaceGraph]], weights, samples: int,
               seed: int, perimeter: bool) -> list[tuple[list[tuple[dict, dict]], float | None]]:
    """Per (params, graph), (_wall_integrals of its walls, the standard error of
    its perimeter if `perimeter` is set, else None), from one pass over the
    chunks of wall directions.

    The clusters share n. Each chunk of unit directions in R^n is drawn once,
    afresh, one block at a time, by sampling.unit_blocks(seed, _WALL_STREAM,
    chunk, count, n), in a task of sampling.run_tasks, which runs _wall_chunk
    on it: block-major, each block gives one point on every wall of every
    cluster, classified in that wall's own coordinates from its difference
    rows (_wall_map), and only the wall's hits are placed and weighed. The
    pass makes one lock for its call and hands it to its tasks: they draw
    their blocks at the same time and classify them one at a time, so no
    lock outlives the call and two passes never wait on each other. No task
    holds a chunk of directions or points. A weight's chunk sum is the
    pairwise sum of its per-block sums in block order, and its mean over a
    wall the pairwise sum of the chunk sums in layout order. A wall that
    misses S^n has no frame and integrates to zero. With `perimeter` set the
    chunk sums of the per-direction totals T and T^2 reduce pairwise in
    layout order, like a weight's, and the perimeter's standard error is
    sqrt(var(T) / samples). With two cells and no weight but None every
    direction is a hit on the one wall: that cluster's walls are not
    sampled, each mean is exactly 1 and both errors are 0. With no wall to
    sample nothing is drawn.
    """
    n = clusters[0][0].n
    norm = sphere_surface_measure(n)
    only_area = all(weight is None for weight in weights)
    walls = [_wall_frames(params, graph) for params, graph in clusters]
    # each cluster's params and (i, j, _wall_map, |wall_ij| / |S^n|) of each wall
    # that is sampled
    sampled = [(params, [] if params.q == 2 and only_area else
                [(i, j, _wall_map(params, i, j, frame), _wall_measure(n, frame) / norm)
                 for i, j, frame in cluster_walls if frame is not None])
               for (params, _), cluster_walls in zip(clusters, walls)]

    lock = threading.Lock()  # this pass's: its blocks are classified one at a time

    def task(chunk: int, count: int) -> list[tuple[list, np.ndarray | None]]:
        blocks = sampling.unit_blocks(seed, _WALL_STREAM, chunk, count, n)
        return _wall_chunk(sampled, weights, blocks, count, perimeter, lock)

    layout = sampling.chunk_layout(samples)
    drawn = sampling.run_tasks([partial(task, chunk, count) for chunk, count in layout]
                               if any(cluster_walls for _, cluster_walls in sampled) else [])
    out = []
    for k, ((params, _), cluster_walls) in enumerate(zip(clusters, walls)):
        perimeter_err = 0.0 if perimeter else None
        sampled_walls = sampled[k][1]
        if not sampled_walls:  # every sample is a hit, or no wall has a frame to read sums for
            sums = None
        else:
            sums = {(i, j): [chunk[k][0][m] for chunk in drawn]
                    for m, (i, j, _, _) in enumerate(sampled_walls)}
            if perimeter:
                (_, perimeter_err), = _wall_moments([chunk[k][1] for chunk in drawn],
                                                    samples)
        out.append((_wall_integrals(params, cluster_walls, len(weights), samples, sums),
                    perimeter_err))
    return out


def measure_mc(params: ClusterParams, graph: InterfaceGraph, samples: int = 1_000_000,
               seed: int = 0) -> MeasureReport:
    """Monte Carlo volumes and interface areas with their standard errors: the
    one-cluster measure_mc_many, so each sample is drawn afresh."""
    return measure_mc_many([(params, graph)], samples, seed)[0]


def measure_mc_many(clusters: list[tuple[ClusterParams, InterfaceGraph]], samples: int,
                    seed: int) -> list[MeasureReport]:
    """Monte Carlo volumes and interface areas of each (params, graph), with their
    standard errors, in one pass over each sample chunk.

    The clusters share n and q, as the points of a deformation path do. Each
    volume chunk is drawn once, afresh, one block at a time, and each block is
    classified against every cluster as soon as it is drawn; each chunk of
    wall directions is drawn the same way, and each block integrated over
    every wall of every cluster (_wall_pass). So each cluster's volumes
    and errors equal cell_volumes_mc's, and its areas and errors
    interface_areas', bit for bit, and its perimeter's error is the joint one
    of the walls' shared directions (see MeasureReport). With two cells no
    wall direction is drawn.
    """
    if not clusters:
        return []
    if samples < 2:
        raise ValueError("samples must be at least 2")
    n, q = clusters[0][0].n, clusters[0][0].q
    if any(params.n != n or params.q != q for params, _ in clusters):
        raise ValueError("the clusters of one pass must share n and q")

    counts = sampling.run_tasks([partial(_volume_counts, [params for params, _ in clusters],
                                         seed, chunk, count)
                                 for chunk, count in sampling.chunk_layout(samples)])
    walls = _wall_pass(clusters, [None], samples, seed, perimeter=True)
    reports = []
    for k, (((areas, errs),), perimeter_err) in enumerate(walls):
        volumes, vol_err = _volume_fractions([c[k] for c in counts], samples)
        reports.append(MeasureReport(volumes, _symmetric(q, areas), vol_err, _symmetric(q, errs),
                                     perimeter_err,
                                     {"kind": "monte_carlo", "seed": seed, "samples": samples}))
    return reports


# ---------------------------------------------------------------------------
# Exact S^2 backend: circular-arc extraction and Stokes sums
# ---------------------------------------------------------------------------

MIN_ARC_ANGLE = 1e-9


@dataclass
class Arc:
    """One maximal sub-arc of the wall circle S_ij belonging to Sigma_ij.

    The circle is parametrized p(t) = center + radius (u cos t + v sin t) with
    (u, v, c_ij/|c_ij|) right-handed, so traversal with increasing t keeps cell
    j on the left. end_cells holds the third cells whose roots end the arc at t0
    and at t1: one at a triple point, none on a full circle (a vertex-free
    interface). Arcs are shared, so their arrays are read-only.
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
    end_cells: tuple[tuple[int, ...], tuple[int, ...]]

    @property
    def full_circle(self) -> bool:
        return not any(self.end_cells)

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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross along the last axis, bit for bit: each component is the
    difference of two separate products, as np.cross forms it."""
    return (a.take((1, 2, 0), -1) * b.take((2, 0, 1), -1)
            - a.take((2, 0, 1), -1) * b.take((1, 2, 0), -1))


def _circle_frame(params: ClusterParams, i: int, j: int):
    frame = sampling.subsphere_frame(params.pair_center(i, j), params.pair_curvature(i, j))
    if frame is None:
        return None
    center, radius, basis = frame
    u, v = basis[:, 0], basis[:, 1]
    if np.dot(_cross(u, v), params.pair_center(i, j)) < 0:  # u x v = +-c_ij/|c_ij|
        v = -v
    for array in (center, u, v):
        array.setflags(write=False)
    return center, radius, u, v


def _feasible_intervals(params: ClusterParams, i: int, j: int, center, radius, u, v):
    """Sub-intervals (t0, t1, cells0, cells1) of [0, 2pi) on the wall circle where no third
    cell wins; cells0 and cells1 hold the cells with a root within MIN_ARC_ANGLE of each end."""
    others = [k for k in range(params.q) if k not in (i, j)]
    c, kap = params.quasi_centers, params.curvatures
    coeffs = []
    for k in others:
        d = c[k] - c[i]
        coeffs.append((radius * float(d @ u), radius * float(d @ v),
                       float(d @ center) + kap[k] - kap[i]))

    roots = []
    for k, (a, b, d0) in zip(others, coeffs):
        amp = math.hypot(a, b)
        if amp < 1e-15:
            if d0 < 0.0:
                return []  # cell k beats the pair on the whole circle
            continue
        x = -d0 / amp
        if abs(x) <= 1.0:
            phi = math.atan2(b, a)
            delta = math.acos(max(-1.0, min(1.0, x)))
            roots.extend((((phi + delta) % TWO_PI, k), ((phi - delta) % TWO_PI, k)))
        elif x > 1.0:
            return []  # g_k < 0 everywhere; x < -1 means g_k > 0 everywhere

    def all_nonneg(t: float) -> bool:
        return all(a * math.cos(t) + b * math.sin(t) + d0 >= 0.0 for a, b, d0 in coeffs)

    def enders(t: float) -> tuple[int, ...]:  # the cells with a root within MIN_ARC_ANGLE
        return tuple(sorted({k for r, k in roots
                             if abs((r - t + math.pi) % TWO_PI - math.pi) < MIN_ARC_ANGLE}))

    if not roots:
        return [(0.0, TWO_PI, (), ())] if all_nonneg(0.0) else []

    roots = sorted(set(roots))  # a root two cells share stays twice, 0 apart
    raw = []
    for idx, (t0, _) in enumerate(roots):  # the last interval wraps round to the first root
        t1 = roots[(idx + 1) % len(roots)][0] + (TWO_PI if idx == len(roots) - 1 else 0.0)
        if t1 - t0 < MIN_ARC_ANGLE:
            continue
        if all_nonneg(0.5 * (t0 + t1)):
            raw.append((t0, t1, enders(t0), enders(t1)))
    # adjacent feasible intervals share a root only at tangential (degenerate)
    # contacts; merge them so no spurious vertex is reported there
    intervals: list[tuple] = []
    for iv in raw:
        if intervals and abs(iv[0] - intervals[-1][1]) < MIN_ARC_ANGLE:
            intervals[-1] = (intervals[-1][0], iv[1], intervals[-1][2], iv[3])
        else:
            intervals.append(iv)
    if len(intervals) >= 2:
        first, last = intervals[0], intervals[-1]
        if abs((last[1] % TWO_PI) - first[0]) < MIN_ARC_ANGLE:
            intervals = intervals[1:-1] + [(last[0], last[1] + (first[1] - first[0]),
                                            last[2], first[3])]
    return intervals


def extract_arcs(params: ClusterParams, graph: InterfaceGraph) -> list[Arc]:
    """All interface arcs of an S^2 cluster in closed form, each labelled with the
    third cells whose roots end it (Arc.end_cells): the vertex data of build_graph."""
    if params.n != 2:
        raise MeasureError("exact arc extraction requires n = 2")
    arcs = []
    for i, j in graph.pairs():
        frame = _circle_frame(params, i, j)
        if frame is None:
            continue
        for t0, t1, *end_cells in _feasible_intervals(params, i, j, *frame):
            arcs.append(Arc(i, j, *frame, t0, t1, params.pair_curvature(i, j), tuple(end_cells)))
    return arcs


def _turned_fibonacci(count: int) -> np.ndarray:
    """count unit vectors of a Fibonacci lattice about e_z, turned by one radian
    about e_x and then about e_y, off the axes and coordinate planes."""
    k = np.arange(count) + 0.5
    z, phi = 1.0 - 2.0 * k / count, math.pi * (3.0 - math.sqrt(5.0)) * k
    x, y = np.sqrt(1.0 - z * z) * np.cos(phi), np.sqrt(1.0 - z * z) * np.sin(phi)
    c, s = math.cos(1.0), math.sin(1.0)
    y, z = c * y - s * z, s * y + c * z
    return np.column_stack([c * x + s * z, y, c * z - s * x])


# Candidate punctures of the Stokes sum, generic so that no symmetry of a cluster
# gives two of them equal sums about an open boundary, as the axes can.
PUNCTURES = _turned_fibonacci(20)
PUNCTURES.setflags(write=False)
PUNCTURE_TOL = 1e-9


_dot = partial(np.einsum, "...i,...i->...")  # dot products along the last axis


def _arc_fluxes(arcs: list[Arc], punctures: np.ndarray) -> np.ndarray:
    """F_a of every arc for each puncture a, shape (punctures, arcs): the integral
    along the arc, t increasing, of a primitive of the area form on S^2 minus a.

    Each of four equal t-pieces (p, p') adds the triangle T(-a, p, p') and the
    segment between chord and arc: the sector s dt (1 - s h) about the near
    pole s w less T(s w, p, p'), with w = u x v, h = <w, center> and s = +1 if
    h >= 0 else -1. T(x, y, z) = 2 atan2(det[x, y, z], 1 + x.y + y.z + z.x) is
    the signed area of a geodesic triangle (Van Oosterom & Strackee, IEEE
    Trans. Biomed. Eng. 30, 1983); all of them are evaluated in one array pass.
    """
    m, count = len(arcs), len(punctures)
    t0, t1, radius = np.array([(a.t0, a.t1, a.radius) for a in arcs]).reshape(m, 3).T
    center, u, v = (np.array([getattr(a, name) for a in arcs]).reshape(m, 3)
                    for name in ("center", "u", "v"))
    t = t0[:, None] + (t1 - t0)[:, None] * (np.arange(5) / 4.0)
    pts = center[:, None] + radius[:, None, None] * (np.cos(t)[..., None] * u[:, None]
                                                     + np.sin(t)[..., None] * v[:, None])
    y, z = pts[:, :-1], pts[:, 1:]
    w = _cross(u, v)
    h = _dot(w, center)
    s = np.where(h >= 0.0, 1.0, -1.0)
    poles = np.empty((count + 1, m, 1, 3))
    poles[:count], poles[count] = -punctures[:, None, None], (s[:, None] * w)[:, None]
    triangles = 2.0 * np.arctan2(_dot(poles, _cross(y, z)),
                                 1.0 + _dot(poles, y) + _dot(y, z) + _dot(z, poles))
    areas = triangles.sum(axis=2)
    return areas[:count] + (s * (t1 - t0) * (1.0 - s * h) - areas[count])


def measure_exact_s2(params: ClusterParams, graph: InterfaceGraph) -> MeasureReport:
    """Exact volumes and areas for an S^2 cluster: arc lengths, and cell areas
    by Stokes' theorem on S^2 minus a puncture a.

    A cell's area is 4pi [a in cell] plus the sum of +F_a over the arcs where
    it is cell j (on the left) and -F_a where it is cell i (_arc_fluxes). No
    loop is walked, so cells may be disconnected. a is the PUNCTURES entry
    with the largest gap between its least and second-least affine values,
    and the runner-up gives a second sum: a cell whose two sums differ by more
    than PUNCTURE_TOL (an open boundary) or whose area is outside [0, 4pi]
    raises MeasureError.
    """
    return ArcVolumes(graph).report(params)


class ArcVolumes:
    """params -> the volumes of measure_exact_s2 on one graph, for the evaluations of
    one call: each parameter vector's arcs are extracted once and kept while the
    object lives, and its report, pair integrals and areas all come from them."""

    def __init__(self, graph: InterfaceGraph):
        self.graph, self._arcs = graph, {}

    def arcs(self, params: ClusterParams) -> list[Arc]:
        key = params.quasi_centers.tobytes() + params.curvatures.tobytes()
        if key not in self._arcs:
            self._arcs[key] = extract_arcs(params, self.graph)
        return self._arcs[key]

    def __call__(self, params: ClusterParams) -> np.ndarray:
        return self.report(params).volumes

    def report(self, params: ClusterParams) -> MeasureReport:
        """measure_exact_s2(params, graph) on the kept arcs."""
        q, arcs = params.q, self.arcs(params)
        areas_raw = np.zeros((q, q))
        sides = np.zeros((len(arcs), q))
        for k, arc in enumerate(arcs):
            areas_raw[arc.i, arc.j] += arc.length
            areas_raw[arc.j, arc.i] += arc.length
            sides[k, arc.i], sides[k, arc.j] = -1.0, 1.0
        values = params.affine_values(PUNCTURES)
        least = np.sort(values, axis=1)
        chosen = np.argsort(least[:, 0] - least[:, 1], kind="stable")[:2]
        area, other = _arc_fluxes(arcs, PUNCTURES[chosen]) @ sides
        area[np.argmin(values[chosen[0]])] += 2.0 * TWO_PI
        other[np.argmin(values[chosen[1]])] += 2.0 * TWO_PI
        for cell in range(q):
            if abs(area[cell] - other[cell]) > PUNCTURE_TOL:
                raise MeasureError(f"cell {cell}: area {area[cell]:.6f} depends on the puncture "
                                   f"({other[cell]:.6f} at the other): its boundary is not closed")
            if not -1e-8 <= area[cell] <= 2.0 * TWO_PI + 1e-8:
                raise MeasureError(f"cell {cell}: Stokes area {area[cell]:.6f} outside "
                                   f"[0, 4pi] (degenerate boundary)")
        norm = 2.0 * TWO_PI
        return MeasureReport(np.maximum(area, 0.0) / norm, areas_raw / norm,
                             np.zeros(q), np.zeros_like(areas_raw), 0.0, {"kind": "exact_s2"})

    def pair_integrals(self, params: ClusterParams, weights) -> list[tuple[dict, dict]]:
        """The integrals of _pair_integrals(params, graph, weights, "exact") on the kept arcs."""
        values: list[dict[tuple[int, int], float]] = [{} for _ in weights]
        norm = sphere_surface_measure(2)
        for arc in self.arcs(params):
            key = (arc.i, arc.j)
            for w_values, integral in zip(values, _arc_integrals(arc, weights)):
                w_values[key] = w_values.get(key, 0.0) + integral / norm
        return [(w_values, {k: 0.0 for k in w_values}) for w_values in values]

    def areas(self, params: ClusterParams) -> np.ndarray:
        """interface_areas(params, graph, "exact")[0] on the kept arcs."""
        return _symmetric(params.q, self.pair_integrals(params, [None])[0][0])


# ---------------------------------------------------------------------------
# Weighted Laplacians
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)


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
    is left out), or each chunk of wall directions is drawn once, afresh, one
    block at a time, and every wall is classified on each block in its own
    coordinates, with only the block's hits placed and weighed (_wall_pass).
    On Monte Carlo the chunk tasks run through sampling.run_tasks, so the
    weights may run on worker threads, one block at a time under the pass's
    lock; a weight's chunk sum is the pairwise sum of its per-block sums over
    the wall's hits in block order, its mean over a wall is a pairwise sum of
    those chunk sums in layout order, and its stderr the binomial one of
    those samples. The walls share their
    directions, so the pair errors are correlated; the perimeter's joint error
    is measure_mc's.
    """
    if resolve_backend(backend, params.n) == "exact":
        return ArcVolumes(graph).pair_integrals(params, weights)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    return _wall_pass([(params, graph)], weights, samples, seed, perimeter=False)[0][0]


def _wall_integrals(params: ClusterParams, walls: list[tuple], weight_count: int,
                    samples: int, sums: dict | None) -> list[tuple[dict, dict]]:
    """Per weight, ({pair: normalized integral}, {pair: stderr}) over the walls (i, j, frame).

    sums holds each framed wall's _wall_chunk sums in layout order; None
    means that every sample is a hit. A wall whose frame is None (its
    hyperplane misses S^n) integrates to zero.
    """
    values: list[dict[tuple[int, int], float]] = [{} for _ in range(weight_count)]
    errs: list[dict[tuple[int, int], float]] = [{} for _ in range(weight_count)]
    norm = sphere_surface_measure(params.n)
    for i, j, frame in walls:
        if frame is None:
            moments, wall = [(0.0, 0.0)] * weight_count, 0.0
        else:
            wall = _wall_measure(params.n, frame)
            moments = ([(1.0, 0.0)] * weight_count if sums is None else
                       _wall_moments(sums[(i, j)], samples))
        for w_values, w_errs, (mean, stderr) in zip(values, errs, moments):
            w_values[(i, j)] = mean * wall / norm
            w_errs[(i, j)] = stderr * wall / norm
    return list(zip(values, errs))


def _wall_moments(chunk_sums: list[np.ndarray], samples: int) -> list[tuple[float, float]]:
    """Per weight, (mean, stderr) over a wall from its chunk sums, (weights, 2)
    arrays of (sum, sum of squares) reduced pairwise in layout order."""
    out = []
    for total, squares in sampling.pairwise_sum(chunk_sums):
        mean = float(total) / samples
        second = float(squares) / samples
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
    ((areas, errs),) = _pair_integrals(params, graph, [None], backend, samples, seed)
    return _symmetric(params.q, areas), _symmetric(params.q, errs)


def weighted_laplacians(params: ClusterParams, graph: InterfaceGraph, weights,
                        backend: str = "auto", samples: int = 1_000_000,
                        seed: int = 0) -> list[WeightedLaplacian]:
    """L_f for each weight f, with A^ij the integral of f over Sigma_ij.

    All weights are integrated in one pass over the same points (see
    _pair_integrals); "auto" picks exact on S^2 and Monte Carlo otherwise.
    Each result equals the single-weight weighted_laplacian bit for bit. On
    Monte Carlo a weight sees only the wall points that lie on the interface:
    the hits of one block on one or more walls at a time, in read-only runs of
    at most sampling.BLOCK + 1 rows (a single hit is weighed beside a copy of
    itself). It may run on worker threads, one block at a time under the
    pass's lock, so it must be pure and act on each row alone.
    """
    q = params.q
    integrals = _pair_integrals(params, graph, weights, backend, samples, seed)
    return [WeightedLaplacian(pair_weight_matrix(q, values), _symmetric(q, errs))
            for values, errs in integrals]


def weighted_laplacian(params: ClusterParams, graph: InterfaceGraph, weight,
                       backend: str = "auto", samples: int = 1_000_000,
                       seed: int = 0) -> WeightedLaplacian:
    """L_f with A^ij the integral of a pointwise weight over Sigma_ij; see weighted_laplacians."""
    return weighted_laplacians(params, graph, [weight], backend, samples, seed)[0]
