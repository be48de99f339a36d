"""Named verification suites: each runs a bundle of identity checks and
returns a machine-readable report with one pass/fail entry per criterion.

Monte Carlo criteria use a soft band: deviations inside [3 sigma, 5 sigma] are
warnings, beyond 5 sigma failures. Exact-backend criteria use the absolute
tolerances stated with each check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import __version__, gallery
from .cluster import (ClusterParams, InterfaceGraph, detect_interfaces, perpendicular_pole,
                      validate_spherical)
from .deform import conformal_step, gram_eigenvalue_floor, gram_invariance_check, pcf_detect
from .measure import measure_cluster, measure_exact_s2, measure_mc, resolve_backend
from .operators import (check_product_identity, conformal_to_volume_pcf,
                        conformal_to_volume_relaxed, normal_moment_operator,
                        quasi_center_operator, trace_identity_allowance,
                        trace_identity_residual)
from .plateau import boundary_normal_sum, certify_plateau, triple_point_angles
from .quantum_graph import (assemble_jacobi, build_graph, eigen_count_positive,
                            field_from_pointwise, strong_residual)
from .simplex import restrict, sum_zero_projector
from .standard import (NewtonConfig, equal_volume_standard, gradient_vs_curvature,
                       model_profile, pde_residual, standard_of_curvature)

@dataclass
class Criterion:
    name: str
    value: float
    tolerance: float
    passed: bool
    warning: bool = False
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "tolerance": self.tolerance,
                "passed": bool(self.passed), "warning": bool(self.warning),
                "detail": self.detail}


@dataclass
class SuiteReport:
    suite: str
    criteria: list[Criterion] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def check(self, name: str, value: float, tolerance: float, detail: str = "") -> None:
        self.criteria.append(Criterion(name, float(value), float(tolerance),
                                       abs(value) <= tolerance, detail=detail))

    def check_mc(self, name: str, value: float, sigma: float, detail: str = "") -> None:
        """Soft band for stochastic criteria: warn in [3s, 5s], fail above 5s."""
        sigma = max(sigma, 1e-15)
        ok = abs(value) <= 5.0 * sigma
        warn = 3.0 * sigma < abs(value) <= 5.0 * sigma
        self.criteria.append(Criterion(name, float(value), float(4.0 * sigma),
                                       ok, warn, detail))

    def check_flag(self, name: str, flag: bool, detail: str = "") -> None:
        self.criteria.append(Criterion(name, 0.0 if flag else 1.0, 0.5, bool(flag),
                                       detail=detail))

    def as_dict(self) -> dict:
        return {"schema_version": 1, "version": __version__, "suite": self.suite,
                "passed": bool(self.passed), "config": self.config,
                "criteria": [c.as_dict() for c in self.criteria]}


def _random_sum_zero(q: int, rng: np.random.Generator, scale: float = 0.6) -> np.ndarray:
    k = rng.standard_normal(q) * scale
    return k - k.mean()


# ---------------------------------------------------------------------------
# 1. Standard-bubble characterization
# ---------------------------------------------------------------------------

def suite_standard_char(seed: int = 1) -> SuiteReport:
    rep = SuiteReport("standard_char", config={"seed": seed})
    rng = np.random.default_rng(seed)
    for n, q in ((2, 3), (3, 4), (4, 5), (5, 6)):
        worst_gram = 0.0
        all_pairs_found = True
        for _ in range(10):
            kappa = _random_sum_zero(q, rng)
            params = standard_of_curvature(n, q, kappa)
            target = 0.5 * sum_zero_projector(q) + np.outer(kappa, kappa)
            gram_res = float(np.max(np.abs(
                params.quasi_centers @ params.quasi_centers.T - target)))
            worst_gram = max(worst_gram, gram_res)
            graph = detect_interfaces(params)
            if len(graph.pairs()) != q * (q - 1) // 2:
                all_pairs_found = False
        rep.check(f"gram_identity_n{n}_q{q}", worst_gram, 1e-10,
                  "max |C C^T - Id/2 - kk^T| over 10 random curvature vectors")
        rep.check_flag(f"all_interfaces_n{n}_q{q}", all_pairs_found,
                       f"all {q * (q - 1) // 2} interfaces detected nonempty")
    return rep


# ---------------------------------------------------------------------------
# 2. Measure oracles agree
# ---------------------------------------------------------------------------

def _random_s2_clusters(seed: int) -> list[ClusterParams]:
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(10):
        q = 2 + trial % 3
        out.append(standard_of_curvature(2, q, _random_sum_zero(q, rng, 0.5)))
    return out


def _worst_pull(params: ClusterParams, graph: InterfaceGraph, samples: int,
                seed: int) -> float:
    """Worst |MC - exact| / stderr over the volumes and interface areas."""
    exact = measure_exact_s2(params, graph)
    mc = measure_mc(params, graph, samples=samples, seed=seed)
    pulls = [np.max(np.abs(mc.volumes - exact.volumes)
                    / np.maximum(mc.volume_stderr, 1e-12))]
    for i, j in graph.pairs():
        pulls.append(abs(mc.areas[i, j] - exact.areas[i, j])
                     / max(mc.area_stderr[i, j], 1e-12))
    return float(np.max(pulls))


def suite_measure_oracles(seed: int = 2, samples: int = 1_000_000) -> SuiteReport:
    rep = SuiteReport("measure_oracles", config={"seed": seed, "samples": samples})
    worst_pull = 0.0
    for idx, params in enumerate(_random_s2_clusters(seed)):
        graph = detect_interfaces(params)
        worst_pull = max(worst_pull, _worst_pull(params, graph, samples, seed + 1000 + idx))
    rep.check_mc("cross_backend_worst_pull_sigma", worst_pull, 1.0,
                 "worst |MC - exact| / stderr over 10 clusters, volumes and areas")

    eq = equal_volume_standard(2, 3)
    graph = detect_interfaces(eq)
    exact = measure_exact_s2(eq, graph)
    rep.check("equal_bubble_volumes_exact",
              float(np.max(np.abs(exact.volumes - 1.0 / 3.0))), 1e-12)
    rep.check("equal_bubble_perimeter_exact", exact.total_perimeter - 0.75, 1e-12)
    mc = measure_mc(eq, graph, samples=samples, seed=seed + 5000)
    rep.check_mc("equal_bubble_volumes_mc",
                 float(np.max(np.abs(mc.volumes - 1.0 / 3.0))),
                 float(np.max(mc.volume_stderr)))
    rep.check_mc("equal_bubble_perimeter_mc", mc.total_perimeter - 0.75,
                 mc.perimeter_stderr)

    # a conformal image of a band stack: each wall circle misses the third cell
    bands = gallery.band_stack(2, (-0.3, 0.4))
    stepped = conformal_step(bands, perpendicular_pole(bands), 0.5)
    rep.check_mc("stepped_band_stack_pull_sigma",
                 _worst_pull(stepped, detect_interfaces(stepped), samples,
                             seed + 6000), 1.0,
                 "worst |MC - exact| / stderr on the stepped band stack at t = 0.5, "
                 "volumes and areas")
    return rep


# ---------------------------------------------------------------------------
# 3. Model-profile PDE
# ---------------------------------------------------------------------------

def suite_profile_pde(seed: int = 3, mc_samples: int = 6_000_000) -> SuiteReport:
    rep = SuiteReport("profile_pde", config={"seed": seed, "mc_samples": mc_samples})
    volume_sets = {
        (2, 2): [[0.5, 0.5], [0.25, 0.75], [0.37, 0.63], [0.6, 0.4], [0.15, 0.85]],
        (3, 2): [[0.5, 0.5], [0.3, 0.7], [0.42, 0.58], [0.65, 0.35], [0.2, 0.8]],
        (3, 3): [[1 / 3, 1 / 3, 1 / 3], [0.45, 0.35, 0.2], [0.3, 0.28, 0.42],
                 [0.5, 0.3, 0.2], [0.25, 0.4, 0.35]],
    }
    for (n, q), vs in volume_sets.items():
        exact = resolve_backend("auto", n) == "exact"
        cfg = NewtonConfig(tol=1e-11, mc_samples=mc_samples, mc_seed=seed)
        fd_h = 2e-3 if exact else 5e-2
        fd_g = 1e-3 if exact else 1e-2
        worst_grad = worst_pde = 0.0
        for v in vs:
            point = model_profile(n, q, v, fd_step_grad=fd_g, fd_step_hess=fd_h, cfg=cfg)
            worst_grad = max(worst_grad, gradient_vs_curvature(point))
            worst_pde = max(worst_pde, abs(pde_residual(point)))
        rep.check(f"grad_vs_curvature_n{n}_q{q}", worst_grad, 1e-2)
        rep.check(f"pde_residual_n{n}_q{q}", worst_pde, 1e-4 if exact else 5e-2)
    closed_worst = 0.0
    cfg2 = NewtonConfig(tol=1e-11)
    for v in (0.5, 0.25, 0.37, 0.6):
        point = model_profile(2, 2, [v, 1 - v], cfg=cfg2)
        closed_worst = max(closed_worst, abs(point.value - math.sqrt(v * (1 - v))))
    rep.check("closed_form_n2_q2", closed_worst, 1e-10,
              "profile value vs sqrt(v(1-v)) on the exact backend")
    return rep


# ---------------------------------------------------------------------------
# 4. Operator identities (trace suite)
# ---------------------------------------------------------------------------

def _pcf_cluster_pool(seed: int) -> list[tuple[ClusterParams, np.ndarray]]:
    """(cluster, xi) pairs: standard bubbles plus conformal-flow outputs."""
    rng = np.random.default_rng(seed)
    pool = []
    for q in (2, 3, 3, 4):
        params = standard_of_curvature(2, q, _random_sum_zero(q, rng, 0.4))
        pool.append((params, pcf_detect(params).xi))
    base3 = standard_of_curvature(2, 3, _random_sum_zero(3, rng, 0.4))
    pole3 = perpendicular_pole(base3)
    bands = gallery.band_stack(4, (-0.5, 0.1, 0.55))
    pole_b = perpendicular_pole(bands)
    for t in (0.1, 0.5, 1.0):
        stepped = conformal_step(base3, pole3, t)
        pool.append((stepped, math.cosh(t) / math.sinh(t) * pole3))
        stepped_b = conformal_step(bands, pole_b, t)
        pool.append((stepped_b, math.cosh(t) / math.sinh(t) * pole_b))
    return pool


def suite_trace(seed: int = 4, samples: int = 400_000) -> SuiteReport:
    rep = SuiteReport("trace", config={"seed": seed, "samples": samples})
    worst_prod_pull = worst_trace_pull = 0.0
    for idx, (params, xi) in enumerate(_pcf_cluster_pool(seed)):
        backend = resolve_backend("auto", params.n)
        graph = detect_interfaces(params)
        f_op = conformal_to_volume_pcf(params, graph, xi, backend=backend,
                                       samples=samples, seed=seed + idx)
        c_op = quasi_center_operator(params)
        n_op = normal_moment_operator(params, graph, backend=backend,
                                      samples=samples, seed=seed + idx)
        meas = measure_cluster(params, graph, backend, samples, seed + idx)
        ident = check_product_identity(f_op, c_op, n_op, meas.total_perimeter,
                                       meas.perimeter_stderr, sigma=1.0)
        tr = trace_identity_residual(f_op, params.curvatures, meas.total_perimeter)
        if backend == "exact":
            allowed_prod = allowed_trace = allowed_tr = 1e-10
        else:
            allowed_prod = max(ident.allowed_product, 1e-12)
            allowed_trace = max(ident.allowed_trace, 1e-12)
            allowed_tr = max(trace_identity_allowance(f_op, params.curvatures,
                                                      meas.perimeter_stderr, sigma=1.0), 1e-12)
        worst_prod_pull = max(worst_prod_pull, ident.product_residual / allowed_prod,
                              ident.trace_residual / allowed_trace)
        worst_trace_pull = max(worst_trace_pull, abs(tr) / allowed_tr)
    rep.check_mc("product_identity_worst_pull", worst_prod_pull, 1.0,
                 "FC = N and tr(F C C^T) = perimeter, units of 1 sigma (1e-10 exact)")
    rep.check_mc("trace_identity_worst_pull", worst_trace_pull, 1.0,
                 "tr(F (Id/2 + kk^T)) = perimeter, units of 1 sigma (1e-10 exact)")

    # relaxed operator on perpendicular clusters
    bands = gallery.band_stack(4, (-0.5, 0.1, 0.55))
    graph_b = detect_interfaces(bands)
    pole_b = perpendicular_pole(bands)
    f0 = conformal_to_volume_relaxed(bands, graph_b, pole_b, backend="mc",
                                     samples=samples, seed=seed)
    meas_b = measure_mc(bands, graph_b, samples=samples, seed=seed)
    tr0 = trace_identity_residual(f0, bands.curvatures, meas_b.total_perimeter)
    allowed0 = trace_identity_allowance(f0, bands.curvatures,
                                        meas_b.perimeter_stderr, sigma=1.0)
    rep.check_mc("relaxed_trace_identity_pull", tr0 / max(allowed0, 1e-12), 1.0)
    eig = np.linalg.eigvalsh(restrict(f0.matrix))
    sigma_eig = float(np.linalg.norm(f0.entry_stderr))
    rep.check_flag("relaxed_positive_definite", bool(eig.min() > 5.0 * sigma_eig),
                   f"min eigenvalue {eig.min():.4f} vs 5 sigma {5 * sigma_eig:.4f}")
    return rep


# ---------------------------------------------------------------------------
# 5. Conformal limit
# ---------------------------------------------------------------------------

def suite_conformal_limit(seed: int = 5, samples: int = 6_000_000) -> SuiteReport:
    rep = SuiteReport("conformal_limit", config={"seed": seed, "samples": samples})
    bands = gallery.band_stack(4, (-0.6, 0.2, 0.7))
    graph = detect_interfaces(bands)
    pole = perpendicular_pole(bands)
    rep.check_flag("base_not_pcf", not pcf_detect(bands).pcf,
                   "the flow limit is taken at a non-compatible cluster")
    f0 = conformal_to_volume_relaxed(bands, graph, pole, backend="mc",
                                     samples=samples, seed=seed)
    ts = (0.2, 0.1, 0.05)
    norms, errs = [], []
    err_sq = float(np.max(f0.entry_stderr)) ** 2
    for t in ts:
        stepped = conformal_step(bands, pole, t)
        graph_t = detect_interfaces(stepped)
        xi = math.cosh(t) / math.sinh(t) * pole
        f_t = conformal_to_volume_pcf(stepped, graph_t, xi, backend="mc",
                                      samples=samples, seed=seed)
        norms.append(float(np.max(np.abs(f_t.matrix - f0.matrix))))
        err_sq = max(err_sq, float(np.max(f0.entry_stderr)) ** 2
                     + float(np.max(f_t.entry_stderr)) ** 2)
        errs.append(math.hypot(float(np.max(f0.entry_stderr)),
                               float(np.max(f_t.entry_stderr))))
    # the noise of F_t grows like coth t, so each rise of |F_t - F0| is weighed
    # against the errors of both its norms; a fall is never a failure
    rise_pull = max(max((later - earlier) / math.hypot(err_earlier, err_later), 0.0)
                    for earlier, later, err_earlier, err_later
                    in zip(norms, norms[1:], errs, errs[1:]))
    rep.check_mc("norm_decreases_monotonically", rise_pull, 1.0,
                 f"|F_t - F0| = {[round(v, 6) for v in norms]}, sigma "
                 f"{[round(v, 6) for v in errs]}; worst rise in units of 1 sigma")
    slope, intercept = np.polyfit(ts, norms, 1)
    # intercept weights for this design are (-0.5, 0.5, 1.0): norm ~ 1.2247
    sigma_intercept = math.sqrt(err_sq) * 1.2247
    rep.check_mc("extrapolated_limit_at_zero", intercept, sigma_intercept,
                 f"linear fit of |F_t - F0| over t = {ts}")
    return rep


# ---------------------------------------------------------------------------
# 6. Spectral index on S^2
# ---------------------------------------------------------------------------

def suite_spectrum_index(seed: int = 6, h: float = 4e-3) -> SuiteReport:
    rep = SuiteReport("spectrum_index", config={"seed": seed, "h": h})
    rng = np.random.default_rng(seed)
    for idx, kappa_scale in enumerate((0.0, 0.35, 0.6)):
        kappa = _random_sum_zero(3, rng, kappa_scale) if kappa_scale else np.zeros(3)
        params = standard_of_curvature(2, 3, kappa)
        graph = detect_interfaces(params)
        qgraph = build_graph(params, graph)
        system = assemble_jacobi(qgraph, h)
        spectrum = eigen_count_positive(system)
        rep.check_flag(f"double_bubble_{idx}_index_2",
                       spectrum.count_positive == 2 and spectrum.converged,
                       f"counts at (h, h/2): {spectrum.counts_at_resolutions}")
        rep.check_flag(f"double_bubble_{idx}_kernel_ge_2", spectrum.kernel_dim >= 2,
                       f"kernel dimension {spectrum.kernel_dim} (skew fields)")

        pole = perpendicular_pole(params)
        a = _random_sum_zero(3, rng, 1.0)
        fine = assemble_jacobi(qgraph, h / 2.0)
        resids = []
        for sys_ in (system, fine):
            skew = field_from_pointwise(
                sys_, lambda arc, pts: (a[arc.i] - a[arc.j]) * (pts @ pole))
            resids.append(strong_residual(sys_, skew))
        rep.check_flag(f"skew_kernel_residual_{idx}_order_h2",
                       resids[0] < 1.0 and resids[1] < 0.35 * resids[0] + 1e-12,
                       f"residuals at (h, h/2): {resids[0]:.2e}, {resids[1]:.2e}")
        theta = rng.standard_normal(3)
        resids_m = []
        for sys_ in (system, fine):
            mob = field_from_pointwise(
                sys_, lambda arc, pts: (params.pair_center(arc.i, arc.j)
                                        + params.pair_curvature(arc.i, arc.j) * pts) @ theta)
            resids_m.append(strong_residual(
                sys_, mob, rhs=lambda arc: float(params.pair_center(arc.i, arc.j) @ theta)))
        rep.check_flag(f"mobius_residual_{idx}_order_h2",
                       resids_m[1] < 0.35 * resids_m[0] + 1e-12,
                       f"residuals at (h, h/2): {resids_m[0]:.2e}, {resids_m[1]:.2e}")

    # single great circle: spectrum 1 - m^2
    hemis = equal_volume_standard(2, 2)
    graph2 = detect_interfaces(hemis)
    system2 = assemble_jacobi(build_graph(hemis, graph2), 1e-3)
    spec2 = eigen_count_positive(system2, k_top=16)
    lam = np.sort(spec2.eigenvalues)[::-1][:9]
    target = np.array(sorted([1.0 - m * m for m in range(5) for _ in range(1 if m == 0 else 2)],
                             reverse=True))[:9]
    rep.check("circle_spectrum_vs_fourier", float(np.max(np.abs(lam - target))), 1e-4,
              "top eigenvalues vs 1 - m^2 at h = 1e-3")
    rep.check_flag("circle_index_1", spec2.count_positive == 1,
                   f"counts {spec2.counts_at_resolutions}")
    return rep


# ---------------------------------------------------------------------------
# 7. Gram invariance
# ---------------------------------------------------------------------------

def suite_gram_invariance(seed: int = 7, samples: int = 500_000) -> SuiteReport:
    rep = SuiteReport("gram_invariance", config={"seed": seed, "samples": samples})
    cap = gallery.sectored_cap(4, 0.8)
    graph = detect_interfaces(cap)
    rep.check_flag("cluster_is_spherical", validate_spherical(cap, graph).passed)
    cert = certify_plateau(cap, graph)
    rep.check_flag("cluster_certified_plateau", cert.fully_plateau,
                   f"{cert.multi_points_found} junction points on "
                   f"{cert.points_examined} strata examined")
    rep.check_flag("cluster_lower_dimensional",
                   perpendicular_pole(cap) is not None
                   and np.linalg.matrix_rank(cap.quasi_centers, tol=1e-9) < cap.q - 1)
    inv = gram_invariance_check(cap, graph, t_max=0.5, steps=5, samples=samples,
                                seed=seed)
    rep.check_mc("volume_deviation_along_path", inv.volume_deviation,
                 inv.allowed_deviation / 4.0,
                 f"first new interface at t = {inv.first_new_interface_t}")
    rep.check_mc("perimeter_deviation_along_path", inv.perimeter_deviation,
                 inv.allowed_deviation / 4.0)
    rep.check_flag("times_compared", inv.times_compared >= 2,
                   f"{inv.times_compared} grid times before the first new interface, "
                   f"t = 0 included")
    floor_ok = all(gram_eigenvalue_floor(cap, t) >= t / 2.0 - 1e-9
                   for t in (0.1, 0.3, 0.5, 0.75, 1.0))
    rep.check_flag("gram_eigenvalue_floor", floor_ok,
                   "min eigenvalue of G_t >= t/2 on the sum-zero subspace")
    return rep


# ---------------------------------------------------------------------------
# 8. Plateau geometry
# ---------------------------------------------------------------------------

def suite_plateau_geometry(seed: int = 8) -> SuiteReport:
    rep = SuiteReport("plateau_geometry", config={"seed": seed})
    rng = np.random.default_rng(seed)
    worst_sum = worst_angle = 0.0
    for q, scale in ((3, 0.0), (3, 0.4), (4, 0.3)):
        kappa = _random_sum_zero(q, rng, scale) if scale else np.zeros(q)
        params = standard_of_curvature(2, q, kappa)
        graph = detect_interfaces(params)
        cert = certify_plateau(params, graph)
        rep.check_flag(f"standard_q{q}_scale{scale}_plateau", cert.fully_plateau)
        for entry in cert.junction_points:
            if len(entry["incidence"]) == 3:
                point = entry["point"]
                worst_sum = max(worst_sum, boundary_normal_sum(params, point,
                                                               tie_tol=1e-7))
                angles = triple_point_angles(params, point, tie_tol=1e-7)
                worst_angle = max(worst_angle, float(np.max(np.abs(angles - 120.0))))
    rep.check("triple_point_normal_sums", worst_sum, 1e-9)
    rep.check("triple_point_angles_vs_120_degrees", worst_angle, 1e-6)

    cross = gallery.cross_junction(2)
    graph_x = detect_interfaces(cross)
    cert_x = certify_plateau(cross, graph_x)
    rep.check_flag("cross_junction_flagged_not_2_plateau",
                   (not cert_x.fully_plateau) and cert_x.plateau_up_to < 2
                   and len(cert_x.failures) > 0,
                   f"certified level {cert_x.plateau_up_to}, "
                   f"{len(cert_x.failures)} counterexamples")
    return rep


_RUNNERS = MappingProxyType({
    "standard_char": suite_standard_char,
    "measure_oracles": suite_measure_oracles,
    "profile_pde": suite_profile_pde,
    "trace": suite_trace,
    "conformal_limit": suite_conformal_limit,
    "spectrum_index": suite_spectrum_index,
    "gram_invariance": suite_gram_invariance,
    "plateau_geometry": suite_plateau_geometry,
})
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, **kwargs) -> SuiteReport:
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    return _RUNNERS[name](**kwargs)
