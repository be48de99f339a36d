"""Explicit volume/perimeter-preserving deformations and compatibility detection.

Two deformation families: the conformal flow toward a pole (closed-form
parameter evolution, produces PCF clusters), and the Gram-matrix interpolation
toward the standard Gram Id/2 + kappa kappa^T, which makes a Plateau cluster
full-dimensional without changing volumes or total perimeter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterParams, InterfaceGraph, detect_interfaces, recentered
from .measure import MeasureReport, measure_exact_s2, measure_mc_many, resolve_backend
from .simplex import (psd_sqrtm, sum_zero_basis, sum_zero_projector)
from .standard import apply_mobius

PCF_TOL = 1e-8


def conformal_step(params: ClusterParams, pole, t: float) -> ClusterParams:
    """Flow a cluster along the conformal field of its pole for time t.

    For a perpendicular cluster (<c_i, pole> = 0) the parameter evolution
    collapses to kappa_i(t) = kappa_i cosh t, c_i(t) = c_i - kappa_i sinh(t)
    pole, and the result is PCF with xi = coth(t) pole for t != 0. Iterates of
    the step stay in the flow family of the perpendicular start (pole
    components proportional to the curvatures), and steps compose additively
    in t there; anything outside that family is a domain error.
    """
    pole = np.asarray(pole, dtype=float)
    along = params.quasi_centers @ pole
    kappa = params.curvatures
    family_residual = float(np.max(np.abs(np.outer(along, kappa)
                                          - np.outer(kappa, along))))
    if family_residual > 1e-9 * max(1.0, float(np.abs(along).max())):
        raise ValueError(
            "pole is not orthogonal to the quasi-centers (nor is the cluster "
            "a flow iterate of a perpendicular one)")
    return apply_mobius(params, pole, t)


@dataclass
class PcfReport:
    xi: np.ndarray
    residual: float
    pcf: bool
    conformally_flat: bool


def pcf_detect(params: ClusterParams, tol: float = PCF_TOL) -> PcfReport:
    """Minimal-norm solve of <c_i, xi> = -kappa_i over xi.

    The cluster is pseudo conformally flat when the max residual is below tol,
    and conformally flat when additionally |xi| < 1.
    """
    xi, *_ = np.linalg.lstsq(params.quasi_centers, -params.curvatures, rcond=None)
    residual = float(np.max(np.abs(params.quasi_centers @ xi + params.curvatures)))
    pcf = residual <= tol
    return PcfReport(xi, residual, pcf, pcf and float(np.linalg.norm(xi)) < 1.0)


@dataclass
class LseSolution:
    delta_centers: np.ndarray
    delta_kappa: np.ndarray
    residual: float


def lse_solve(params: ClusterParams, graph: InterfaceGraph, a) -> LseSolution:
    """Minimum-norm solution of the linearized compatibility equations.

    Solves <c_ij, dc_i - dc_j> = kappa_ij a_ij over all nonempty pairs for
    center variations dc_i constrained to sum to zero. On a PCF cluster with
    parameter xi, dc_i = -a_i xi is an exact solution, so the residual is 0.
    """
    a = np.asarray(a, dtype=float)
    q, dim = params.q, params.n + 1
    basis = sum_zero_basis(q)
    pairs = graph.pairs()
    rows = np.zeros((len(pairs), (q - 1) * dim))
    rhs = np.zeros(len(pairs))
    for row, (i, j) in enumerate(pairs):
        cij = params.pair_center(i, j)
        rows[row] = np.kron(basis[i] - basis[j], cij)
        rhs[row] = params.pair_curvature(i, j) * (a[i] - a[j])
    y, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    delta = basis @ y.reshape(q - 1, dim)
    residual = float(np.max(np.abs(rows @ y - rhs))) if pairs else 0.0
    return LseSolution(delta, a, residual)


# ---------------------------------------------------------------------------
# Gram perturbation
# ---------------------------------------------------------------------------

def _row_orthonormal_factor(params: ClusterParams) -> np.ndarray:
    """U with sqrt(C C^T) U = C and U U^T the sum-zero projector.

    Built from the SVD of C; for rank-deficient quasi-centers the missing rows
    are completed by pairing leftover sum-zero directions with leftover
    ambient directions, which is the freedom the factorization leaves.
    """
    c = params.quasi_centers
    q, dim = c.shape
    w, s, vt = np.linalg.svd(c, full_matrices=True)
    rank = int(np.sum(s > 1e-11 * (s[0] if s.size else 1.0)))
    u = w[:, :rank] @ vt[:rank]
    if rank < q - 1:
        # complete within E^(q-1): sum-zero left directions not already used
        ones = np.ones((q, 1)) / np.sqrt(q)
        used = np.column_stack([w[:, :rank], ones])
        leftover_left = np.linalg.svd(used, full_matrices=True)[0][:, rank + 1:]
        leftover_right = np.linalg.svd(vt[:rank], full_matrices=True)[2][rank:] \
            if rank else np.eye(dim)
        extra = leftover_left @ leftover_right[: q - 1 - rank]
        u = u + extra
    return u


def _gram_at(params: ClusterParams, t: float) -> np.ndarray:
    """G_t = (1-t) C C^T + t (Id/2 + kappa kappa^T), with Id/2 taken on the sum-zero subspace."""
    c = params.quasi_centers
    kappa = params.curvatures
    return ((1.0 - t) * (c @ c.T)
            + t * (0.5 * sum_zero_projector(params.q) + np.outer(kappa, kappa)))


def gram_path(params: ClusterParams, t: float) -> ClusterParams:
    """Interpolate the Gram matrix toward the standard one and refactor.

    G_t = (1-t) C C^T + t (Id/2 + kappa kappa^T) is positive definite on the
    sum-zero subspace for t in (0, 1]; the new quasi-center matrix is
    sqrt(G_t) U with the row-orthonormal U recovered from C, so t = 0 returns
    the original parameters. Curvatures are unchanged.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    q = params.q
    if q > params.n + 2:
        raise ValueError(f"the Gram path needs q <= n + 2, got q={q}, n={params.n}")
    c_t = psd_sqrtm(_gram_at(params, t)) @ _row_orthonormal_factor(params)
    return recentered(params.n, c_t, params.curvatures,
                      params.label and f"{params.label}-gram{t:g}")


def gram_eigenvalue_floor(params: ClusterParams, t: float) -> float:
    """Smallest eigenvalue of G_t on the sum-zero subspace (>= t/2 in theory)."""
    basis = sum_zero_basis(params.q)
    return float(np.linalg.eigvalsh(basis.T @ _gram_at(params, t) @ basis).min())


@dataclass
class GramInvarianceReport:
    """Deviations from the t = 0 measures over the times_compared grid times
    before the first new interface, t = 0 included.

    With fewer than two times compared nothing was compared with t = 0, so
    the deviations are 0 by construction and invariance is not shown.
    """

    times: np.ndarray
    volume_deviation: float
    perimeter_deviation: float
    allowed_deviation: float
    first_new_interface_t: float | None
    new_interface_pair: tuple[int, int] | None
    times_compared: int
    reports: list[MeasureReport]

    @property
    def invariant_within_tolerance(self) -> bool:
        return (self.times_compared >= 2
                and self.volume_deviation <= self.allowed_deviation
                and self.perimeter_deviation <= self.allowed_deviation)


def measure_path(path: list[ClusterParams], times, graph: InterfaceGraph,
                 samples: int, seed: int) -> list[tuple[InterfaceGraph, MeasureReport]]:
    """(interfaces, measures) of each point of a deformation path.

    Interfaces can appear along a path, so every point but the one at t = 0,
    which keeps graph, is measured against its own, decided first by
    detect_interfaces. On S^2 each point is measured exactly
    (measure_exact_s2); otherwise all points are measured by Monte Carlo in
    one pass (measure_mc_many), bit for bit as measure_mc would measure each
    one. The points share the seed, so their differences are measured with
    common random numbers: each volume chunk and each chunk of the one wall
    stream is drawn once, afresh, and integrated against every point (every
    wall of every point for a wall chunk), and no draw outlives the pass.
    Each report's perimeter_stderr is the joint error of its walls.
    """
    graphs = [graph if t == 0.0 else detect_interfaces(step_params)
              for t, step_params in zip(times, path)]
    clusters = list(zip(path, graphs))
    if path and resolve_backend("auto", path[0].n) == "exact":
        reports = [measure_exact_s2(params, step_graph) for params, step_graph in clusters]
    else:
        reports = measure_mc_many(clusters, samples, seed)
    return list(zip(graphs, reports))


def gram_invariance_check(params: ClusterParams, graph: InterfaceGraph,
                          t_max: float = 0.5, steps: int = 5,
                          samples: int = 400_000, seed: int = 7) -> GramInvarianceReport:
    """Measure volumes and perimeter along the Gram path (measure_path).

    Reports the worst deviation from the t = 0 values over the times of the
    grid of steps + 1 times before the first one at which a previously empty
    pair acquires an interface (the guarantees only hold before that), that
    time, and how many times were compared.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    times = np.linspace(0.0, t_max, steps + 1)
    path = [gram_path(params, float(t)) for t in times]
    measured = measure_path(path, times, graph, samples, seed)
    base_pairs = set(graph.pairs())
    new = [(float(t), pair) for t, (step_graph, _) in zip(times, measured)
           for pair in step_graph.pairs() if pair not in base_pairs]
    first_new, new_pair = new[0] if new else (None, None)
    reports = [report for _, report in measured]
    base = reports[0]
    upto = len(times) if first_new is None else int(np.searchsorted(times, first_new))
    vol_dev = max(float(np.max(np.abs(r.volumes - base.volumes))) for r in reports[:upto])
    per_dev = max(abs(r.total_perimeter - base.total_perimeter) for r in reports[:upto])
    stderr = max(max(float(r.volume_stderr.max()), r.perimeter_stderr)
                 for r in reports[:upto])
    allowed = max(4.0 * stderr * np.sqrt(2.0), 1e-12)
    return GramInvarianceReport(times, vol_dev, per_dev, allowed, first_new,
                                new_pair, upto, reports)
