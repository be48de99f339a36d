"""Quasi-center, normal-moment and conformal-to-volume operators with their identities.

The conformal-to-volume operator maps a per-cell parameter a to the first
variation of cell volumes along the matched field solving the second-variation
equation with right side (n-1)a. On compatible (PCF) clusters it has the
closed form L_{1 - <p, xi>}; on perpendicular clusters its relaxation is
n L_{<p,N>^2}, the limit of the conformal flow family. Both satisfy the trace
identity tr(F (Id/2 + kappa kappa^T)) = total perimeter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterParams, InterfaceGraph
from .measure import weighted_laplacian, weighted_laplacians
from .simplex import pair_decomposition, sum_zero_projector


@dataclass
class SimplexOperator:
    """Symmetric operator on E^(q-1) stored as a q x q matrix annihilating 1."""

    matrix: np.ndarray
    entry_stderr: np.ndarray | None = None

    @property
    def q(self) -> int:
        return self.matrix.shape[0]


@dataclass
class AmbientToSimplexOperator:
    """Operator R^(n+1) -> E^(q-1) stored as a q x (n+1) matrix with zero column sums."""

    matrix: np.ndarray
    entry_stderr: np.ndarray | None = None


def quasi_center_operator(params: ClusterParams) -> AmbientToSimplexOperator:
    """The matrix whose rows are the quasi-centers."""
    return AmbientToSimplexOperator(params.quasi_centers.copy())


def normal_moment_operator(params: ClusterParams, graph: InterfaceGraph,
                           backend: str = "auto", samples: int = 1_000_000,
                           seed: int = 0) -> AmbientToSimplexOperator:
    """Integrated interface normals: sum over pairs of e_ij (x) (c_ij + kappa_ij p).

    Its action on a direction theta is the first variation of cell volumes
    under the conformal field of theta. Assembled from interface areas and
    first moments, integrated in one pass over each interface; exact arc
    quadrature on S^2, Monte Carlo otherwise.
    """
    q, dim = params.q, params.n + 1
    out = np.zeros((q, dim))
    err = np.zeros((q, dim))
    area, *moments = weighted_laplacians(
        params, graph,
        [None] + [lambda pts, ax=axis: pts[:, ax] for axis in range(dim)],
        backend=backend, samples=samples, seed=seed)
    for i in range(q):
        for j in range(i + 1, q):
            a_ij = area.pair_weight(i, j)
            cij = params.pair_center(i, j)
            kij = params.pair_curvature(i, j)
            contrib = cij * a_ij + kij * np.array(
                [moments[axis].pair_weight(i, j) for axis in range(dim)])
            out[i] += contrib
            out[j] -= contrib
            if area.entry_stderr is not None:
                e = (np.abs(cij) * area.entry_stderr[i, j]
                     + abs(kij) * np.array([moments[axis].entry_stderr[i, j]
                                            for axis in range(dim)]))
                err[i] += e
                err[j] += e
    return AmbientToSimplexOperator(out, err)


def conformal_to_volume_pcf(params: ClusterParams, graph: InterfaceGraph,
                            xi, backend: str = "auto", samples: int = 1_000_000,
                            seed: int = 0) -> SimplexOperator:
    """Closed-form conformal-to-volume operator on a compatible cluster.

    With <c_i, xi> + kappa_i = 0 the matched fields are a_ij (1 - <p, xi>), so
    the operator is the weighted Laplacian of 1 - <p, xi>; it is positive
    definite whenever |xi| < 1 and the adjacency graph connects all cells.
    """
    xi = np.asarray(xi, dtype=float)
    residual = float(np.max(np.abs(params.quasi_centers @ xi + params.curvatures)))
    if residual > 1e-6:
        raise ValueError(f"xi is not a compatibility parameter (residual {residual:.3e})")
    lap = weighted_laplacian(params, graph, lambda pts: 1.0 - pts @ xi,
                             backend=backend, samples=samples, seed=seed)
    return SimplexOperator(lap.matrix, lap.entry_stderr)


def conformal_to_volume_relaxed(params: ClusterParams, graph: InterfaceGraph,
                                pole, backend: str = "auto",
                                samples: int = 1_000_000, seed: int = 0) -> SimplexOperator:
    """Relaxed operator n L_{<p,N>^2} of a perpendicular cluster with pole N.

    This is the limit of the compatible operators along the conformal flow
    toward the pole; positive definite when all cells are nonempty.
    """
    pole = np.asarray(pole, dtype=float)
    if np.max(np.abs(params.quasi_centers @ pole)) > 1e-8:
        raise ValueError("cluster is not perpendicular to the given pole")
    lap = weighted_laplacian(params, graph, lambda pts: (pts @ pole) ** 2,
                             backend=backend, samples=samples, seed=seed)
    n = params.n
    err = None if lap.entry_stderr is None else n * lap.entry_stderr
    return SimplexOperator(n * lap.matrix, err)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

@dataclass
class ProductIdentityResiduals:
    product_residual: float     # max-norm of F C - N
    trace_residual: float       # |tr(F C C^T) - perimeter|
    allowed_product: float
    allowed_trace: float


def check_product_identity(f_op: SimplexOperator, c_op: AmbientToSimplexOperator,
                           n_op: AmbientToSimplexOperator,
                           perimeter: float, perimeter_stderr: float = 0.0,
                           sigma: float = 4.0) -> ProductIdentityResiduals:
    """Residuals of F C = N and tr(F C C^T) = total perimeter.

    Allowed bands combine the Monte Carlo errors of the integral-backed
    factors at the given sigma level; exact backends give zero bands and the
    caller should compare against an absolute tolerance instead.
    """
    fc = f_op.matrix @ c_op.matrix
    prod_res = float(np.max(np.abs(fc - n_op.matrix)))
    trace_res = abs(float(np.trace(f_op.matrix @ c_op.matrix @ c_op.matrix.T)) - perimeter)
    # error propagation in pair form: F = sum w_ij e_ij (x) e_ij gives
    # F C = sum w_ij e_ij (x) c_ij and tr(F C C^T) = sum w_ij |c_ij|^2, so the
    # pair-weight errors (off-diagonal entry errors) carry all the noise
    f_err = f_op.entry_stderr if f_op.entry_stderr is not None else np.zeros_like(f_op.matrix)
    n_err = n_op.entry_stderr if n_op.entry_stderr is not None else np.zeros_like(n_op.matrix)
    q = f_op.q
    c = c_op.matrix
    row_budget = np.zeros(q)
    trace_budget = 0.0
    for i in range(q):
        for j in range(i + 1, q):
            cij = float(np.abs(c[i] - c[j]).max())
            row_budget[i] += f_err[i, j] * cij
            row_budget[j] += f_err[i, j] * cij
            trace_budget += f_err[i, j] * float((c[i] - c[j]) @ (c[i] - c[j]))
    allowed_prod = sigma * float(row_budget.max() + np.abs(n_err).max())
    allowed_trace = sigma * (trace_budget + perimeter_stderr)
    return ProductIdentityResiduals(prod_res, trace_res, allowed_prod, allowed_trace)


def trace_identity_residual(f_op: SimplexOperator, kappa, perimeter: float) -> float:
    """tr(F (Id/2 + kappa kappa^T)) - perimeter, restricted to the sum-zero subspace.

    Since F annihilates the constant vector the restriction equals the full
    trace against Id/2 replaced by half the sum-zero projector.
    """
    kappa = np.asarray(kappa, dtype=float)
    q = f_op.q
    target = 0.5 * sum_zero_projector(q) + np.outer(kappa, kappa)
    return float(np.trace(f_op.matrix @ target) - perimeter)


def trace_identity_allowance(f_op: SimplexOperator, kappa,
                             perimeter_stderr: float = 0.0, sigma: float = 4.0) -> float:
    """Error budget for the trace identity: in pair form the trace is
    sum w_ij (1 + kappa_ij^2), so pair-weight errors scale by 1 + kappa_ij^2."""
    kappa = np.asarray(kappa, dtype=float)
    if f_op.entry_stderr is None:
        return sigma * perimeter_stderr
    q = f_op.q
    budget = sum(f_op.entry_stderr[i, j] * (1.0 + (kappa[i] - kappa[j]) ** 2)
                 for i in range(q) for j in range(i + 1, q))
    return sigma * (float(budget) + perimeter_stderr)


@dataclass
class LocalityReport:
    max_empty_pair_weight: float
    empty_pairs: list[tuple[int, int]]
    weights: dict


def locality_probe(f_op: SimplexOperator, graph: InterfaceGraph) -> LocalityReport:
    """Decompose F into pair weights and report the largest weight on an empty pair.

    The decomposition of a symmetric operator annihilating 1 into the e_ij
    basis is unique (off-diagonal entries), so a nonzero weight on an empty
    pair measures a genuine locality violation, not a basis artifact.
    """
    weights = pair_decomposition(f_op.matrix)
    empty = [(i, j) for (i, j) in weights if not graph.nonempty[i, j]]
    worst = max((abs(weights[p]) for p in empty), default=0.0)
    return LocalityReport(worst, empty, weights)
