"""Blow-up cone analysis at boundary points and Plateau certification.

At a point p the cluster blows up to a conical partition whose walls are the
projected quasi-centers, centered over the incidence set. The cluster is
Plateau at p when those centered normals span a space of dimension one less
than the incidence count, equivalently when they form a centered regular
unit-simplex (the 120-degree law and its higher analogues). On a stratum,
where a fixed subset of cells ties, the Gram matrix of those normals is the
same at every point, so certify_plateau checks each stratum once, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .cluster import (DEFAULT_TIE_TOL, RANK_CUTOFF, ClusterParams, InterfaceGraph,
                      classify_point, stratum_points)
from .deform import pcf_detect
from .simplex import sum_zero_projector


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
    return BlowUpCone(p, incidence, centered,
                      _affine_rank(np.linalg.svd(centered, compute_uv=False)))


def _affine_rank(svals: np.ndarray) -> int:
    """How many singular values exceed RANK_CUTOFF times the largest (or 1 if that is 0)."""
    return int(np.sum(svals > RANK_CUTOFF * (svals.max(initial=0.0) or 1.0)))


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
    residual, is_plateau = _simplex_test(cone.centered_normals @ cone.centered_normals.T,
                                         cone.affine_rank)
    return PlateauDiagnostics(is_plateau, cone.affine_rank == m - 1, residual,
                              cone.affine_rank, m)


def _simplex_test(gram: np.ndarray, rank: int) -> tuple[float, bool]:
    """The largest entry of |gram - P/2|, P the sum-zero projector, and whether
    it is at most 1e-7 with rank one less than the cell count."""
    m = len(gram)
    residual = float(np.max(np.abs(gram - 0.5 * sum_zero_projector(m))))
    return residual, rank == m - 1 and residual <= 1e-7


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

@dataclass
class PlateauCertificate:
    plateau_up_to: int
    worst_points: list[dict]
    points_examined: int  # nonempty strata
    multi_points_found: int  # witnesses of strata of three or more cells
    fully_plateau: bool
    failures: list[dict] = field(default_factory=list)
    junction_points: list[dict] = field(default_factory=list)


def certify_plateau(params: ClusterParams, graph: InterfaceGraph,
                    sample_budget: int = 2000, seed: int = 0) -> PlateauCertificate:
    """Examine every singular stratum exactly and certify the largest safe Plateau level.

    The stratum of a cell subset S is where the cells of S tie and no other
    cell comes within DEFAULT_TIE_TOL of them. Subsets of order 2 to q are
    enumerated. A pair's witness is the graph's; a pair the graph marks
    nonempty without one, and every larger subset, is searched by
    cluster.stratum_points, whose points become its witnesses. A subset
    containing one whose tie set missed S^n is skipped.

    A stratum's verdict needs no point. On the tie set of S,
    <c_i, p> + kappa_i = lambda(p) for every i in S, so with |p| = 1 the
    projected normals c_i - <c_i, p> p have the Gram matrix
    C_S C_S^T - (lambda 1 - kappa_S)(lambda 1 - kappa_S)^T. The centering
    projector P_S = Id - 11^T/|S| kills 1, so the centered normals have the
    Gram matrix P_S (C_S C_S^T - kappa_S kappa_S^T) P_S, the same at every
    point of the stratum. Its rank, with blowup_at's cutoff, and plateau_at's
    regular-simplex test give the verdict, which every witness of the
    stratum reports. points_examined counts the nonempty strata and
    multi_points_found the witnesses of strata of three or more cells.
    Returns the largest level l such that every stratum whose normals span
    at most l dimensions passed the regular-simplex test; the witnesses of
    strata failing it are counterexamples.

    sample_budget and seed select nothing: they remain only because the
    benchmark workloads under bench/ still pass them.
    """
    q = params.q
    worst: list[dict] = []
    failures: list[dict] = []
    junctions: list[dict] = []
    strata = 0
    best_fail_rank = None
    missed: list[int] = []  # bit masks of the subsets whose tie set missed S^n
    for order in range(2, q + 1):
        for cells in combinations(range(q), order):
            mask = sum(1 << m for m in cells)
            if any(mask & miss == miss for miss in missed):
                continue
            if cells in graph.witnesses:
                points = [graph.witnesses[cells]]
            elif order == 2 and not graph.nonempty[cells]:
                continue
            else:
                points = stratum_points(params, cells, DEFAULT_TIE_TOL)
                if points is None:
                    missed.append(mask)
                    continue
            if not len(points):
                continue
            strata += 1
            sel = list(cells)
            proj = sum_zero_projector(order)
            c, k = params.quasi_centers[sel], params.curvatures[sel]
            gram = proj @ (c @ c.T - np.outer(k, k)) @ proj
            # the centered normals' singular values are the square roots of
            # the Gram eigenvalues, which rounding may leave slightly negative
            rank = _affine_rank(np.sqrt(np.abs(np.linalg.eigvalsh(gram))))
            residual, is_plateau = _simplex_test(gram, rank)
            for p in points:
                entry = {"point": p, "incidence": sel, "affine_rank": rank,
                         "gram_residual": residual, "is_plateau": is_plateau}
                if order >= 3:
                    junctions.append(entry)
                if not is_plateau:
                    failures.append(entry)
                    if best_fail_rank is None or rank < best_fail_rank:
                        best_fail_rank = rank
                worst.append(entry)
    worst.sort(key=lambda e: (e["is_plateau"], -e["gram_residual"]))
    level = (min(params.n, q - 1) if best_fail_rank is None
             else max(best_fail_rank - 1, 0))
    return PlateauCertificate(level, worst[:10], strata, len(junctions),
                              best_fail_rank is None, failures, junctions)


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
