"""Reference computations the tests check the package against.

None of these is called by the package itself: each is a slower, independent
or more literal form of something the package computes, kept here as an
oracle.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from bubblelab import sampling
from bubblelab.cluster import ClusterParams, InterfaceGraph, validate_spherical
from bubblelab.deform import gram_path


def eigendecomposition(system) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a JacobiSystem's reduced pencil (dense reference)."""
    a_r, m_r = system.reduced()
    return scipy.linalg.eigh(-a_r.toarray(), m_r.toarray())


def unit_directions(seed: int, label: int, chunk: int, count: int, dim: int) -> np.ndarray:
    """sampling.unit_chunk drawn afresh: Philox normals over np.linalg.norm."""
    arr = sampling.stream(seed, label, chunk).standard_normal((count, dim))
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def subsphere_points(seed: int, label: int, chunk: int, count: int,
                     center: np.ndarray, radius: float, frame: np.ndarray) -> np.ndarray:
    """sampling.subsphere_chunk drawn afresh, by the broadcast formula."""
    w = unit_directions(seed, label, chunk, count, frame.shape[1])
    return center[None, :] + radius * (w @ frame.T)


def kirchhoff_residual(system, x: np.ndarray) -> float:
    worst = 0.0
    for vertex in system.graph.vertices:
        total = 0.0
        for ve in vertex.ends:
            node = system.offsets[ve.arc_index] + (
                0 if ve.end == 0 else system.counts[ve.arc_index] - 1)
            total += ve.sign * x[node]
        worst = max(worst, abs(total))
    return worst


def robin_residual(system, x: np.ndarray) -> float:
    """Max spread of the matched Robin quantity across the ends of each vertex.

    Outward derivatives are recovered by one-sided second-order differences of
    the nodal values, so the residual of a smooth compatible field is O(h^2).
    """
    worst = 0.0
    for vertex in system.graph.vertices:
        values = []
        for ve in vertex.ends:
            ai = ve.arc_index
            off, cnt, step = system.offsets[ai], system.counts[ai], system.steps[ai]
            vals = x[off:off + cnt]
            if ve.end == 0:
                trace = vals[0]
                outward = -(-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * step)
            else:
                trace = vals[-1]
                outward = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * step)
            values.append(ve.sign * (outward - ve.robin * trace))
        worst = max(worst, max(values) - min(values))
    return worst


def remove_kernel_component(system, x: np.ndarray) -> np.ndarray:
    """Project the discrete Jacobi-field components out of a constrained field.

    Useful when comparing a computed solution with a closed form that may
    differ by kernel elements.
    """
    z = system.constraint_basis
    kernel = system.near_kernel()
    y = spla.spsolve((z.T @ z).tocsc(), z.T @ x)
    m_r = system.reduced()[1]
    proj = kernel @ (kernel.T @ (m_r @ y))
    return z @ (y - proj)


def lse_residual(params: ClusterParams, graph: InterfaceGraph,
                 delta_centers: np.ndarray, a) -> float:
    """Max violation of the linearized compatibility equations by a candidate."""
    a = np.asarray(a, dtype=float)
    worst = 0.0
    for i, j in graph.pairs():
        dc = delta_centers[i] - delta_centers[j]
        worst = max(worst, abs(float(params.pair_center(i, j) @ dc)
                               - params.pair_curvature(i, j) * (a[i] - a[j])))
    return worst


def validate_along_path(params: ClusterParams, graph: InterfaceGraph,
                        times) -> float:
    """Worst compatibility residual over nonempty pairs along the Gram path."""
    worst = 0.0
    for t in times:
        rep = validate_spherical(gram_path(params, float(t)), graph)
        worst = max(worst, rep.max_residual)
    return worst


def mobius_conformal_factor(p, pole, t: float):
    p = np.asarray(p, dtype=float)
    pole = np.asarray(pole, dtype=float)
    return 1.0 / (math.cosh(t) + (p @ pole) * math.sinh(t))


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian sample."""
    a = rng.standard_normal((dim, dim))
    qmat, r = np.linalg.qr(a)
    return qmat * np.sign(np.diag(r))


def rotated(params: ClusterParams, rot: np.ndarray) -> ClusterParams:
    """The cluster moved by the orthogonal map rot: c_i -> rot c_i, curvatures kept."""
    return ClusterParams(params.n, params.quasi_centers @ rot.T, params.curvatures,
                         params.label)
