"""Blow-up cone analysis at boundary points and Plateau certification.

At a point p the cluster blows up to a conical partition whose walls are the
projected quasi-centers, centered over the incidence set. The cluster is
Plateau at p when those centered normals span a space of dimension one less
than the incidence count, equivalently when they form a centered regular
unit-simplex (the 120-degree law and its higher analogues).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import sampling
from .cluster import (RANK_CUTOFF, SINGULAR_TIE_TOL, ClusterParams, InterfaceGraph,
                      cell_values, classify_point, tie_subsphere, trace_vertices)
from .deform import pcf_detect
from .simplex import sum_zero_projector

_STRATUM_STREAM = 0xB10


@dataclass
class BlowUpCone:
    point: np.ndarray
    incidence: np.ndarray
    centered_normals: np.ndarray  # rows tangent to the sphere at point, summing to 0
    affine_rank: int


def blowup_at(params: ClusterParams, p, tie_tol: float = 1e-9) -> BlowUpCone:
    """Incidence set, centered tangent normals and their affine rank at p."""
    p = np.asarray(p, dtype=float)
    incidence = classify_point(params, p, tie_tol)
    proj = params.quasi_centers[incidence] - np.outer(
        params.quasi_centers[incidence] @ p, p)
    centered = proj - proj.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    scale = svals[0] if svals.size and svals[0] > 0 else 1.0
    rank = int(np.sum(svals > RANK_CUTOFF * scale))
    return BlowUpCone(p, incidence, centered, rank)


@dataclass
class PlateauDiagnostics:
    is_plateau: bool
    rank_test: bool
    gram_residual: float
    affine_rank: int
    incidence_size: int


def plateau_at(cone: BlowUpCone) -> PlateauDiagnostics:
    """Check the regular-simplex condition of the blow-up cone.

    Two equivalent tests are run: affine rank equals incidence size minus one,
    and the Gram matrix of the centered normals equals half the sum-zero
    projector of the incidence set, to 1e-7 in every entry.
    """
    m = len(cone.incidence)
    if m < 2:
        raise ValueError("plateau test needs at least two incident cells")
    gram = cone.centered_normals @ cone.centered_normals.T
    residual = float(np.max(np.abs(gram - 0.5 * sum_zero_projector(m))))
    rank_ok = cone.affine_rank == m - 1
    return PlateauDiagnostics(rank_ok and residual <= 1e-7, rank_ok, residual,
                              cone.affine_rank, m)


def _triple_normals(params: ClusterParams, p, tie_tol: float) -> list[np.ndarray]:
    """Unit normals of the interfaces (u, v), (v, w), (w, u) at a triple point of u < v < w."""
    p = np.asarray(p, dtype=float)
    incidence = classify_point(params, p, tie_tol)
    if len(incidence) != 3:
        raise ValueError(f"not a triple point: incidence {incidence}")
    u, v, w = (int(c) for c in incidence)
    normals = []
    for i, j in ((u, v), (v, w), (w, u)):
        nrm = params.pair_center(i, j) + params.pair_curvature(i, j) * p
        normals.append(nrm / np.linalg.norm(nrm))
    return normals


def triple_point_angles(params: ClusterParams, p, tie_tol: float = 1e-9) -> np.ndarray:
    """Pairwise angles (degrees) between the three interface normals at a triple point."""
    normals = _triple_normals(params, p, tie_tol)
    angles = []
    for a, b in combinations(range(3), 2):
        cosang = float(np.clip(normals[a] @ normals[b], -1.0, 1.0))
        angles.append(np.degrees(np.arccos(cosang)))
    return np.array(angles)


def boundary_normal_sum(params: ClusterParams, p, tie_tol: float = 1e-9) -> float:
    """Norm of the cyclic sum of interface normals at a triple point (0 at 120 degrees)."""
    total = np.zeros(params.n + 1)
    for nrm in _triple_normals(params, p, tie_tol):
        total += nrm
    return float(np.linalg.norm(total))


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def _stratum_points(params: ClusterParams, cells: tuple[int, ...], seed: int,
                    index: int, count: int) -> np.ndarray:
    """Unit points at which the given cells' affine values tie.

    The tie set's trace on S^n is the round subsphere of tie_subsphere. A point
    or a pair of points is returned exactly, a larger trace as count uniform
    samples at the (seed, stratum stream, index) address, and none when the
    ties are inconsistent or the subspace misses S^n.
    """
    rows = params.quasi_centers[list(cells[1:])] - params.quasi_centers[cells[0]]
    offs = params.curvatures[list(cells[1:])] - params.curvatures[cells[0]]
    trace = tie_subsphere(rows, offs)
    if trace is None:
        return np.empty((0, params.n + 1))
    p0, radius, frame = trace
    if frame.shape[1] <= 1:
        pts = trace_vertices(p0, radius, frame)
    else:
        pts = sampling.subsphere_chunk(seed, _STRATUM_STREAM, index, count, p0, radius, frame)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@dataclass
class PlateauCertificate:
    plateau_up_to: int
    worst_points: list[dict]
    points_examined: int
    multi_points_found: int
    fully_plateau: bool
    failures: list[dict] = field(default_factory=list)
    junction_points: list[dict] = field(default_factory=list)


def certify_plateau(params: ClusterParams, graph: InterfaceGraph,
                    sample_budget: int = 2000, seed: int = 0) -> PlateauCertificate:
    """Examine the singular strata and certify the largest safe Plateau level.

    Candidate points are the interface witnesses plus the stratum points of
    every pairwise (where the graph has an interface), triple and higher tie
    set at which all of its cells are incident; sample_budget (at least 1)
    is shared among the strata, each of which gets at least 3 points. The
    deduplicated candidates are classified in one cell_values pass, with
    classify_point's unit-norm check and incidence rule. Every two-cell
    point is settled in one vectorized pass (_two_cell_cones), and only
    junctions, with three or more incident cells, go through blowup_at and
    plateau_at. Returns the largest level l such that every examined point
    whose normals span at most l dimensions passed the regular-simplex test;
    points failing it are counterexamples.
    """
    if sample_budget < 1:
        raise ValueError(f"sample_budget must be at least 1, got {sample_budget}")
    q = params.q
    candidates: list[np.ndarray] = []

    for i, j in graph.pairs():
        if (i, j) in graph.witnesses:
            candidates.append(np.asarray(graph.witnesses[(i, j)]))

    max_order = min(q, params.n + 2)
    subsets: list[tuple[int, ...]] = []
    for order in range(2, max_order + 1):
        for cells in combinations(range(q), order):
            # only strata whose pairs are plausibly adjacent are worth probing
            if order == 2 and not graph.nonempty[cells[0], cells[1]]:
                continue
            subsets.append(cells)
    seeds_per_subset = max(3, sample_budget // max(len(subsets), 1))
    for index, cells in enumerate(subsets):
        pts = _stratum_points(params, cells, seed, index, seeds_per_subset)
        # the incidence rule of classify_point, for all points at once
        values = cell_values(params, pts)
        low = values.min(axis=0) + SINGULAR_TIE_TOL
        candidates.extend(pts[np.all(values[list(cells)] <= low, axis=0)])

    # deduplicate by rounding
    unique: dict[tuple, np.ndarray] = {}
    for p in candidates:
        unique[tuple(np.round(p, 6))] = p
    examined = list(unique.values())
    points = np.array(examined).reshape(len(examined), params.n + 1)
    norms = np.einsum("ij,ij->i", points, points)
    off_sphere = np.flatnonzero(np.abs(norms - 1.0) > 2e-12)
    if off_sphere.size:
        raise ValueError(f"point is not on the unit sphere: |p|^2 = {norms[off_sphere[0]]!r}")
    values = cell_values(params, points)
    incident = values <= values.min(axis=0) + SINGULAR_TIE_TOL
    sizes = incident.sum(axis=0)
    two_cell = _two_cell_cones(params, points[sizes == 2], incident[:, sizes == 2])

    worst: list[dict] = []
    failures: list[dict] = []
    junctions: list[dict] = []
    best_fail_rank = None
    for p, size in zip(examined, sizes.tolist()):
        if size < 2:
            continue
        if size == 2:
            incidence, rank, residual, is_plateau = next(two_cell)
        else:
            cone = blowup_at(params, p, tie_tol=SINGULAR_TIE_TOL)
            diag = plateau_at(cone)
            incidence, rank, residual, is_plateau = (cone.incidence.tolist(), cone.affine_rank,
                                                     diag.gram_residual, diag.is_plateau)
        entry = {"point": p, "incidence": incidence, "affine_rank": rank,
                 "gram_residual": residual, "is_plateau": is_plateau}
        if len(incidence) >= 3:
            junctions.append(entry)
        if not is_plateau:
            failures.append(entry)
            if best_fail_rank is None or rank < best_fail_rank:
                best_fail_rank = rank
        worst.append(entry)
    worst.sort(key=lambda e: (e["is_plateau"], -e["gram_residual"]))
    level = (min(params.n, q - 1) if best_fail_rank is None
             else max(best_fail_rank - 1, 0))
    fully = best_fail_rank is None
    return PlateauCertificate(level, worst[:10], len(unique), len(junctions),
                              fully, failures, junctions)


def _two_cell_cones(params: ClusterParams, points: np.ndarray, incident: np.ndarray):
    """Iterator of (incidence, affine_rank, gram_residual, is_plateau), as blowup_at
    and plateau_at give them, at points incident to exactly two cells.

    incident is the (q, m) incidence mask of the m points. At a point p on
    the (i, j) wall the centered normals are +-d/2 with d = c_ij - <c_ij, p> p,
    so the affine rank is 1 if d != 0 and 0 otherwise, and the Gram matrix
    differs from half the sum-zero projector by |d|^2/4 - 1/4 in every entry.
    """
    cells = np.nonzero(incident.T)[1].reshape(-1, 2)
    c_ij = params.quasi_centers[cells[:, 0]] - params.quasi_centers[cells[:, 1]]
    d = c_ij - np.einsum("ij,ij->i", c_ij, points)[:, None] * points
    ranks = np.any(d != 0.0, axis=1).astype(int)
    residuals = np.abs(0.25 * np.einsum("ij,ij->i", d, d) - 0.25)
    passed = (ranks == 1) & (residuals <= 1e-7)
    return zip(cells.tolist(), ranks.tolist(), residuals.tolist(), passed.tolist())


@dataclass
class Q3Classification:
    verdict: str  # "plateau" | "pcf" | "both" | "neither"
    consistent: bool
    note: str = ""


def classify_q3(params: ClusterParams, certificate: PlateauCertificate) -> Q3Classification:
    """Combine Plateau and compatibility certificates.

    When the cluster is certified Plateau down to level q-3, at least one of
    {fully Plateau, pseudo conformally flat} must hold; a numerical 'neither'
    outcome is flagged for tolerance investigation rather than trusted.
    """
    pcf = pcf_detect(params)
    plateau = certificate.fully_plateau
    if plateau and pcf.pcf:
        verdict = "both"
    elif plateau:
        verdict = "plateau"
    elif pcf.pcf:
        verdict = "pcf"
    else:
        verdict = "neither"
    q3_certified = certificate.plateau_up_to >= params.q - 3
    consistent = not (q3_certified and verdict == "neither")
    note = "" if consistent else (
        "certified (q-3)-Plateau but neither fully Plateau nor compatible: "
        "investigate tolerances")
    return Q3Classification(verdict, consistent, note)
