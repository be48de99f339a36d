"""Linear algebra on the sum-zero subspace E^(q-1) of R^q and small matrix helpers."""

from __future__ import annotations

import math

import numpy as np

SUM_TOL = 1e-12


def e_ij(q: int, i: int, j: int) -> np.ndarray:
    """Difference vector e_i - e_j in R^q."""
    v = np.zeros(q)
    v[i] = 1.0
    v[j] = -1.0
    return v


def sum_zero_basis(q: int) -> np.ndarray:
    """Orthonormal basis of E^(q-1) = {x in R^q : sum x = 0}, as columns of a q x (q-1) matrix.

    Built by Gram-Schmidt on the chain e_01, e_12, ..., e_{q-2,q-1}, so the
    basis is deterministic and the first column is (1,-1,0,..)/sqrt(2).
    """
    cols = []
    for k in range(q - 1):
        v = e_ij(q, k, k + 1)
        for u in cols:
            v = v - np.dot(u, v) * u
        v = v / np.linalg.norm(v)
        cols.append(v)
    return np.column_stack(cols)


def project_sum_zero(x: np.ndarray) -> np.ndarray:
    """Remove the mean along the last axis (orthogonal projection onto E^(q-1))."""
    x = np.asarray(x, dtype=float)
    return x - x.mean(axis=-1, keepdims=True)


def sum_zero_projector(q: int) -> np.ndarray:
    """The q x q orthogonal projector Id - (1/q) 11^T onto E^(q-1).

    Also serves as the matrix of Id_{E^(q-1)} acting on R^q.
    """
    return np.eye(q) - np.full((q, q), 1.0 / q)


def pair_weight_matrix(q: int, weights: dict[tuple[int, int], float]) -> np.ndarray:
    """Assemble sum_{i<j} w_ij e_ij (x) e_ij as a q x q matrix.

    Row sums vanish by construction, so the result annihilates the constant
    vector exactly.
    """
    m = np.zeros((q, q))
    for (i, j), w in weights.items():
        m[i, i] += w
        m[j, j] += w
        m[i, j] -= w
        m[j, i] -= w
    return m


def pair_decomposition(m: np.ndarray) -> dict[tuple[int, int], float]:
    """Invert pair_weight_matrix for a symmetric matrix annihilating 1 (to 1e-9).

    The off-diagonal entries determine the weights uniquely: w_ij = -m[i, j].
    """
    m = np.asarray(m, dtype=float)
    q = m.shape[0]
    if not np.allclose(m, m.T, atol=1e-9):
        raise ValueError("matrix is not symmetric")
    if np.max(np.abs(m @ np.ones(q))) > 1e-9 * max(1.0, np.abs(m).max()):
        raise ValueError("matrix does not annihilate the constant vector")
    return {(i, j): -m[i, j] for i in range(q) for j in range(i + 1, q)}


def restrict(m: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Restrict a q x q operator to E^(q-1): B^T m B for an orthonormal basis B."""
    q = m.shape[0]
    b = sum_zero_basis(q) if basis is None else basis
    return b.T @ m @ b


def psd_sqrtm(g: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues within 1e-12 (relative) of 0 are floored to exactly 0, so
    rank-deficient Gram matrices do not leak O(sqrt(eps)) noise into the root;
    anything below -1e-12 raises.
    """
    g = np.asarray(g, dtype=float)
    w, v = np.linalg.eigh(0.5 * (g + g.T))
    scale = max(1.0, abs(w.max())) if w.size else 1.0
    if w.min() < -1e-12 * scale:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():.3e}")
    w = np.where(w > 1e-12 * scale, w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def sphere_surface_measure(k: int) -> float:
    """Surface measure |S^k| of the unit k-sphere, from the Gamma closed form."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def orthonormal_complement(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Columns spanning the orthogonal complement of the rows of `vectors` in R^dim
    (singular values below 1e-10 times the largest count as zero)."""
    a = np.atleast_2d(np.asarray(vectors, dtype=float))
    if a.size == 0:
        return np.eye(dim)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
    return vt[rank:].T

