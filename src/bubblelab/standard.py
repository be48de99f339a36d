"""Standard bubbles: construction, Moebius transformations, model profile.

Standard q-cell bubbles on S^n are exactly the spherical Voronoi clusters with
C C^T = Id/2 + kappa kappa^T on the sum-zero subspace; they exist for every
curvature vector and every interior volume vector, uniquely up to rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import ClusterParams, complete_graph, recentered
from .measure import cell_volume_function, interface_areas, resolve_backend
from .simplex import pair_weight_matrix, psd_sqrtm, sum_zero_basis, sum_zero_projector


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def equal_volume_standard(n: int, q: int) -> ClusterParams:
    """Equal-volume standard bubble: regular unit-edge simplex quasi-centers, flat walls.

    The q quasi-centers are the vertices of a centered regular simplex with
    |c_i - c_j| = 1, placed in coordinates 0..q-2 of R^(n+1); all curvatures
    vanish and every compatibility residual is zero by construction.
    """
    _check_range(n, q)
    basis = sum_zero_basis(q)
    c = np.zeros((q, n + 1))
    c[:, : q - 1] = basis / math.sqrt(2.0)
    return ClusterParams(n, c - c.mean(axis=0), np.zeros(q),
                         label=f"standard-equal-n{n}-q{q}")


def standard_of_curvature(n: int, q: int, kappa) -> ClusterParams:
    """Standard bubble with the prescribed curvature vector.

    Solves C C^T = Id/2 + kappa kappa^T by a symmetric square root on the
    sum-zero subspace, embedded in coordinates 0..q-2 of R^(n+1). The right
    side is positive definite there, so the construction never fails.
    """
    _check_range(n, q)
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (q,) or abs(kappa.sum()) > 1e-9 * max(1.0, np.abs(kappa).max()):
        raise ValueError("kappa must be a length-q vector summing to zero")
    basis = sum_zero_basis(q)
    root = psd_sqrtm(_root_argument(basis, kappa))
    c = np.zeros((q, n + 1))
    c[:, : q - 1] = basis @ root
    return recentered(n, c, kappa, label=f"standard-n{n}-q{q}")


def _root_argument(basis: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """B^T (Id/2 + kappa kappa^T) B for the sum-zero basis B, whose root gives C."""
    gram = 0.5 * sum_zero_projector(len(kappa)) + np.outer(kappa, kappa)
    return basis.T @ gram @ basis


def _check_range(n: int, q: int) -> None:
    if not 2 <= q <= n + 2:
        raise ValueError(f"need 2 <= q <= n + 2, got q={q}, n={n}")


def _check_volumes(q: int, volumes) -> np.ndarray:
    """volumes as q finite positive floats summing to 1, or a ValueError."""
    v = np.asarray(volumes, dtype=float)
    if (v.shape != (q,) or not np.all(np.isfinite(v)) or not np.all(v > 0)
            or abs(v.sum() - 1.0) > 1e-9):
        raise ValueError("volumes must be positive and sum to 1")
    return v


# ---------------------------------------------------------------------------
# Moebius transformations
# ---------------------------------------------------------------------------

def mobius_point_flow(p, pole, t: float) -> np.ndarray:
    """Closed-form flow of a point along the conformal field theta - <theta,p>p.

    Supports a trailing batch of points (shape (..., n+1)). The conformal
    factor at p is 1 / (cosh t + <pole, p> sinh t).
    """
    p = np.asarray(p, dtype=float)
    pole = np.asarray(pole, dtype=float)
    if abs(pole @ pole - 1.0) > 1e-12:
        raise ValueError("pole must be a unit vector")
    a = (p @ pole)[..., None]
    return ((p - a * pole + (a * math.cosh(t) + math.sinh(t)) * pole)
            / (math.cosh(t) + a * math.sinh(t)))


def apply_mobius(params: ClusterParams, pole, t: float) -> ClusterParams:
    """Transform cluster parameters under the Moebius flow along theta - <theta,N>N.

    For the flow of unit pole N over time t the parameters evolve as
        kappa_i(t) = kappa_i cosh t - <c_i, N> sinh t,
        c_i(t) = c_i - <c_i,N> N + (<c_i,N> cosh t - kappa_i sinh t) N,
    which keeps the cluster spherical Voronoi with the same nonempty pairs'
    residuals.
    """
    pole = np.asarray(pole, dtype=float)
    if abs(pole @ pole - 1.0) > 1e-12:
        raise ValueError("flow direction must be a unit vector; rescale time instead")
    t = float(t)
    a = params.quasi_centers @ pole
    k_new = params.curvatures * math.cosh(t) - a * math.sinh(t)
    c_new = (params.quasi_centers - np.outer(a, pole)
             + np.outer(a * math.cosh(t) - params.curvatures * math.sinh(t), pole))
    return recentered(params.n, c_new, k_new, params.label)


# ---------------------------------------------------------------------------
# Prescribed volumes: damped Newton on the curvature vector
# ---------------------------------------------------------------------------

# iteration cap, steps per Jacobian, halvings, Jacobian step on Monte Carlo volumes
MAX_ITER = 60
JACOBIAN_REUSE = 3
MAX_HALVINGS = 25
MC_FD_STEP = 2e-4


@dataclass
class NewtonConfig:
    tol: float = 1e-10
    backend: str = "auto"      # exact on S^2, Monte Carlo otherwise
    mc_samples: int = 2_000_000
    mc_seed: int = 20240901
    # With a fixed seed the empirical volume map is deterministic, so Newton
    # converges to its root far below the statistical error; a loose tolerance
    # here would break the common-random-number cancellation in finite
    # differences of the profile.
    mc_tol: float = 3e-6

    def tolerances(self, n: int) -> tuple[float, float | None]:
        """(tol, fd_step) on S^n: fd_step is None on exact volumes, whose Jacobian
        is analytic; on Monte Carlo volumes it is MC_FD_STEP, and tol is floored.

        The floor is mc_tol, or two steps of the empirical volume map (steps of
        1/mc_samples) if larger. tol and mc_tol must be positive and finite.
        """
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if resolve_backend(self.backend, n) == "exact":
            return self.tol, None
        if self.mc_samples <= 0:
            raise ValueError("samples must be positive")
        if not 0 < self.mc_tol < math.inf:
            raise ValueError(f"mc_tol must be positive and finite, got {self.mc_tol}")
        return max(self.tol, self.mc_tol, 2.0 / self.mc_samples), MC_FD_STEP


class NewtonError(RuntimeError):
    def __init__(self, message: str, last_kappa: np.ndarray, residual: float):
        super().__init__(message)
        self.last_kappa, self.residual = last_kappa, residual


def _volume_jacobian(y: np.ndarray, params: ClusterParams, volume_of) -> np.ndarray:
    """Jacobian of y -> B^T V(standard_of_curvature(B y)) at y, whose bubble is params.

    B is the sum-zero basis, and V the volumes of measure_exact_s2 by volume_of,
    a measure.ArcVolumes, whose arcs kept for params give the Laplacians below.

    From the first variation of volume: cell i changes by minus the integral
    of the normal speed of its walls, and with |c_ij|^2 = 1 + kappa_ij^2 the
    speed on Sigma_ij is <dc_i - dc_j, p> + dkappa_i - dkappa_j. With the pair
    areas A_ij and first moments M_ij of one weighted_laplacians pass,
        dV_i = -sum_j (<dc_i - dc_j, M_ij> + (dkappa_i - dkappa_j) A_ij),
    that is dV = -(L_1 dkappa + sum_m L_(p_m) dc_m). The quasi-centers are B R
    for R the square root of S = Id/2 + y y^T, so dc = B dR with, for
    S = W diag(lam) W^T (Daleckii-Krein),
        dR = W [(W^T dS W)_ab / (sqrt(lam_a) + sqrt(lam_b))] W^T.
    """
    q = params.q
    basis = sum_zero_basis(q)
    # C has nonzero coordinates 0..q-2 only, so only their moments are needed
    laps = [pair_weight_matrix(q, values) for values, _ in volume_of.pair_integrals(
        params, [None] + [lambda pts, ax=axis: pts[:, ax] for axis in range(q - 1)])]
    lam, w = np.linalg.eigh(_root_argument(basis, basis @ y))
    roots = np.sqrt(lam)
    # W^T dS W for dS = e_k y^T + y e_k^T is a_k b^T + b a_k^T, a_k = W^T e_k, b = W^T y
    b = w.T @ y
    inner = w[:, :, None] * b[None, None, :]
    inner = (inner + inner.transpose(0, 2, 1)) / (roots[:, None] + roots[None, :])
    d_centers = basis @ (w @ inner @ w.T)         # d_centers[k] = B dR_k, shape (q, q-1)
    d_volumes = laps[0] @ basis + sum(laps[1 + m] @ d_centers[:, :, m].T
                                      for m in range(q - 1))
    return -basis.T @ d_volumes


def _volume_newton(n: int, q: int, v_target: np.ndarray, cfg: NewtonConfig, volume_of,
                   start: tuple | None = None) -> tuple[tuple, float]:
    """Damped Newton for V(kappa(y)) = v in sum-zero coordinates.

    volume_of maps parameters to cell volumes (measure.cell_volume_function).
    The Jacobian is _volume_jacobian on exact volumes, one weighted-Laplacian
    pass over the arcs volume_of extracted for the residual at the same y, and
    central differences with step MC_FD_STEP on Monte Carlo volumes. A Newton
    point is (y, its standard bubble, its volumes, the Jacobian held there).
    A solve starts at start, evaluating nothing there, or at y = 0; it returns
    (last point, residual_inf), and nearby solves from one start share its Jacobian.
    """
    basis = sum_zero_basis(q)
    tol, fd_step = cfg.tolerances(n)

    def evaluate(yy: np.ndarray) -> tuple:
        params = standard_of_curvature(n, q, basis @ yy)
        return yy, params, volume_of(params)

    def residual(volumes: np.ndarray) -> np.ndarray:
        return basis.T @ (volumes - v_target)

    def build_jacobian(yy: np.ndarray, params: ClusterParams) -> np.ndarray:
        if fd_step is None:
            return _volume_jacobian(yy, params, volume_of)
        jac = np.empty((q - 1, q - 1))
        for k in range(q - 1):
            step = np.zeros(q - 1)
            step[k] = fd_step
            jac[:, k] = (residual(evaluate(yy + step)[2])
                         - residual(evaluate(yy - step)[2])) / (2 * fd_step)
        return jac

    y, params, volumes, jac = start if start is not None else (*evaluate(np.zeros(q - 1)), None)
    r = residual(volumes)
    jac_age, rebuilds_after_stall, fresh = 0, 0, False  # fresh: jac was built at this y
    for _ in range(MAX_ITER):
        if np.linalg.norm(r, np.inf) <= tol:
            break
        if jac is None or jac_age >= JACOBIAN_REUSE:
            jac, jac_age, fresh = build_jacobian(y, params), 0, True
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            delta = -np.linalg.lstsq(jac, r, rcond=None)[0]
        scale, base_norm = 1.0, np.linalg.norm(r)
        for _ in range(MAX_HALVINGS):
            trial = evaluate(y + scale * delta)
            r_try = residual(trial[2])
            if np.linalg.norm(r_try) < base_norm:
                (y, params, volumes), r, jac_age, fresh = trial, r_try, jac_age + 1, False
                break
            scale *= 0.5
        else:
            # line search stalled: rebuild the Jacobian, at most twice, then
            # give up. Both Jacobians are deterministic functions of y, so a
            # rebuild at the y it was built at would repeat this round exactly.
            if rebuilds_after_stall >= 2 or fresh:
                break
            rebuilds_after_stall += 1
            jac, jac_age, fresh = build_jacobian(y, params), 0, True
    jac = jac if jac is not None else build_jacobian(y, params)
    return (y, params, volumes, jac), float(np.linalg.norm(r, np.inf))


def standard_of_volume(n: int, q: int, volumes, cfg: NewtonConfig | None = None) -> ClusterParams:
    """Standard bubble with the prescribed cell volumes.

    Damped Newton on the curvature vector in sum-zero coordinates,
    backtracking by halving on the volume residual, with a Jacobian reused
    across a few steps: on exact volumes it is _volume_jacobian, the first
    variation of volume on the arcs of the residual at the same point, and on
    Monte Carlo volumes central differences. Monte Carlo volume evaluations share one
    seed so the objective is a fixed (piecewise smooth) function of kappa and
    Newton can converge to its root far below the statistical error; they go
    through one measure.VolumeTracker, which lives for this call and
    reclassifies only the sample points a step can move.
    """
    cfg = cfg or NewtonConfig()
    _check_range(n, q)
    v_target = _check_volumes(q, volumes)
    tol, _ = cfg.tolerances(n)
    volume_of = cell_volume_function(complete_graph(q), n, cfg.backend, cfg.mc_samples, cfg.mc_seed)
    (y, params, _, _), res = _volume_newton(n, q, v_target, cfg, volume_of)
    if res > 3 * tol:
        raise NewtonError(f"volume Newton did not converge: residual {res:.3e}",
                          sum_zero_basis(q) @ y, res)
    return params.with_label(f"standard-volume-n{n}-q{q}")


# ---------------------------------------------------------------------------
# Model isoperimetric profile
# ---------------------------------------------------------------------------

@dataclass
class ModelProfilePoint:
    """Value, realizing curvature, gradient and Hessian of the model profile at v.

    grad and hessian live in the sum-zero coordinates given by
    sum_zero_basis(q); the realizing bubble's (n-1) kappa equals grad up to
    finite-difference noise.
    """

    volumes: np.ndarray
    value: float
    kappa: np.ndarray
    grad: np.ndarray
    hessian: np.ndarray
    basis: np.ndarray
    n: int
    q: int


def model_profile(n: int, q: int, volumes, fd_step_grad: float = 1e-3,
                  fd_step_hess: float = 2e-2, cfg: NewtonConfig | None = None) -> ModelProfilePoint:
    """Least perimeter at prescribed volumes, with finite-difference derivatives.

    Central differences along an orthonormal sum-zero basis; all evaluations
    share the Monte Carlo seed (common random numbers), so the dominant noise
    cancels in the differences, and the center and grid solves share one
    measure.VolumeTracker for the length of the call. Steps must be positive
    and keep v +- perturbations interior.
    """
    cfg = cfg or NewtonConfig()
    v = _check_volumes(q, volumes)
    basis = sum_zero_basis(q)
    if not (0 < fd_step_grad < math.inf and 0 < fd_step_hess < math.inf):
        raise ValueError("fd steps must be positive and finite")
    if max(fd_step_grad, 2 * fd_step_hess) * np.abs(basis).max() >= min(v.min(), (1 - v).min()):
        raise ValueError("fd step too large for this volume vector")
    tol, fd_step = cfg.tolerances(n)
    graph = complete_graph(q)

    # center solve cold, every grid solve from its last point, all on one volume function
    volume_of = cell_volume_function(graph, n, cfg.backend, cfg.mc_samples, cfg.mc_seed)
    start, res = _volume_newton(n, q, v, cfg, volume_of)
    if res > 3 * tol:
        raise NewtonError("volume Newton did not converge at the profile center",
                          basis @ start[0], res)

    def value(dv: np.ndarray) -> float:
        (y, params, _, _), r = _volume_newton(n, q, v + dv, cfg, volume_of, start)
        if r > 3 * tol:
            raise NewtonError("volume Newton did not converge at a grid point", basis @ y, r)
        # the perimeter from the areas alone: no volume sample, or the residual's arcs
        areas = volume_of.areas(params) if fd_step is None else interface_areas(
            params, graph, cfg.backend, cfg.mc_samples, cfg.mc_seed)[0]
        return float(np.sum(np.triu(areas, 1)))

    center = value(np.zeros(q))
    dim = q - 1
    grad = np.array([(value(fd_step_grad * e) - value(-fd_step_grad * e)) / (2 * fd_step_grad)
                     for e in basis.T])
    hess = np.empty((dim, dim))
    h = fd_step_hess
    for k, e in enumerate(basis.T):
        hess[k, k] = (value(h * e) - 2 * center + value(-h * e)) / h ** 2
    for k in range(dim):
        for m in range(k + 1, dim):
            ek, em = basis[:, k], basis[:, m]
            hess[k, m] = hess[m, k] = (
                value(h * (ek + em)) - value(h * (ek - em))
                - value(h * (em - ek)) + value(-h * (ek + em))) / (4 * h ** 2)
    return ModelProfilePoint(v, center, basis @ start[0], grad, 0.5 * (hess + hess.T), basis, n, q)


def pde_residual(point: ModelProfilePoint) -> float:
    """Residual of the fully nonlinear elliptic PDE satisfied by the model profile.

    tr((-H)^(-1) (Id + 2/(n-1)^2 g g^T)) - 2/(n-1) I, operators restricted to
    the sum-zero subspace. Requires the finite-difference Hessian to be
    negative definite; raises with eigenvalue diagnostics otherwise.
    """
    n = point.n
    neg_h = -point.hessian
    w = np.linalg.eigvalsh(neg_h)
    if w.min() <= 0:
        raise ValueError(
            f"Hessian is not negative definite (eigenvalues of -H: {w}); "
            "finite-difference noise too large")
    g = point.grad
    m = np.eye(point.q - 1) + (2.0 / (n - 1) ** 2) * np.outer(g, g)
    return float(np.trace(np.linalg.solve(neg_h, m)) - 2.0 / (n - 1) * point.value)


def gradient_vs_curvature(point: ModelProfilePoint) -> float:
    """Max deviation between the profile gradient and (n-1) kappa (stationarity)."""
    expected = point.basis.T @ ((point.n - 1) * point.kappa)
    return float(np.max(np.abs(point.grad - expected)))
