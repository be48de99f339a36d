"""The three benchmark workloads: input generation, one op, its checks and digest.

Each workload is a closed loop with one client: one op at a time, the next
one only after the previous has finished and been checked. Op k draws its
inputs and its Monte Carlo seed from (workload seed, k), so no two ops share
a Philox sample address; the package's sample cache helps only where the
package itself reuses an address inside an op.

- s2_spectrum: the exact S^2 verification path (spectrum CLI, spectrum_index
  and plateau_geometry suites). Almost all of an op is quantum_graph eigen
  counting; there is almost no Monte Carlo sampling.
- mc_fresh: Monte Carlo measurement at fresh sample addresses (measure and
  operators CLI, measure_oracles and trace suites). Every sample is drawn and
  classified once per address, and normal_moment_operator passes over the
  same wall points n + 2 times.
- mc_crn: the common-random-number solve path (profile CLI, profile_pde and
  gram_invariance suites). Dozens of evaluations reuse the same addresses, so
  classification dominates and the cache is hit again and again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import bubblelab as bl
from bubblelab import gallery, measure, sampling, standard
from bubblelab.simplex import sphere_surface_measure


class CheckFailed(RuntimeError):
    """An op's result failed its correctness check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload and probe. FULL is the benchmark; TINY
    only exercises the same code paths quickly, for the smoke tests."""

    h: float                    # s2_spectrum Jacobi grid spacing
    plateau_budget: int         # s2_spectrum certify_plateau sample budget
    measure_samples: int        # mc_fresh measure_mc samples
    operator_samples: int       # mc_fresh operator samples
    profile_samples: int        # mc_crn model_profile samples
    volume_samples: int         # mc_crn standard_of_volume samples
    gram_samples: int           # mc_crn gram_invariance_check samples
    probe_points: int           # sampling and classification probes
    probe_h: tuple[float, float]  # eigen-count probes
    probe_budget: int           # certify_plateau probe


FULL = Sizes(h=4e-3, plateau_budget=400, measure_samples=1_000_000,
             operator_samples=400_000, profile_samples=1_000_000,
             volume_samples=2_000_000, gram_samples=500_000,
             probe_points=1 << 18, probe_h=(4e-3, 2e-3), probe_budget=400)
TINY = Sizes(h=2e-2, plateau_budget=60, measure_samples=40_000,
             operator_samples=20_000, profile_samples=1_000_000,
             volume_samples=200_000, gram_samples=50_000,
             probe_points=1 << 12, probe_h=(4e-2, 2e-2), probe_budget=60)


@dataclass
class OpResult:
    digest: list    # deterministic outputs, hashed into the op's digest
    counts: dict    # computed from arguments and results


def digest_of(values) -> str:
    """Hash of the exact bytes of a list of numbers and arrays."""
    h = hashlib.sha256()
    for value in values:
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:20]


def op_seed(seed: int, k: int) -> int:
    """Monte Carlo seed of op k: a 63-bit hash of (workload seed, k)."""
    return int(np.random.SeedSequence([seed, k, 1]).generate_state(1, np.uint64)[0] >> 1)


def op_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k, 0])


def strata(rng: np.random.Generator, m: int, low: float, high: float) -> np.ndarray:
    """m uniform draws on [low, high], one in each of m equal strata, shuffled.

    Every run then covers the whole range, so runs at different seeds carry
    comparable work."""
    return low + (high - low) * (rng.permutation(m) + rng.random(m)) / m


def unit_sum_zero(rng: np.random.Generator, q: int) -> np.ndarray:
    d = rng.standard_normal(q)
    d -= d.mean()
    return d / np.linalg.norm(d)


def interior_volumes(rng: np.random.Generator, q: int, floor: float) -> np.ndarray:
    """Volume vector summing to 1 with every entry at least floor."""
    return floor + (1.0 - q * floor) * rng.dirichlet(np.full(q, 2.0))


# ---------------------------------------------------------------------------
# s2_spectrum
# ---------------------------------------------------------------------------

def s2_inputs(seed: int, n_ops: int) -> list[dict]:
    run = np.random.default_rng(seed)
    qs = [3 + k % 2 for k in range(n_ops)]
    scales = {q: iter(strata(run, qs.count(q), 0.1, 0.5)) for q in set(qs)}
    out = []
    for k, q in enumerate(qs):
        rng = op_rng(seed, k)
        out.append({"label": f"q{q}", "q": q,
                    "kappa": next(scales[q]) * unit_sum_zero(rng, q),
                    "a": rng.standard_normal(q),
                    "volumes": interior_volumes(rng, q, 0.1),
                    "seed": op_seed(seed, k)})
    return out


def s2_op(inp: dict, call, sizes: Sizes) -> OpResult:
    q, seed = inp["q"], inp["seed"]
    params = call("standard.standard_of_curvature", bl.standard_of_curvature, 2, q, inp["kappa"])
    graph = call("cluster.detect_interfaces", bl.detect_interfaces, params, rng_seed=seed)
    exact = call("measure.measure_exact_s2", bl.measure_exact_s2, params, graph)
    check(abs(exact.volumes.sum() - 1.0) <= 1e-12,
          f"exact volumes sum to {exact.volumes.sum()!r}")
    qgraph = call("quantum_graph.build_graph", bl.build_graph, params, graph)
    system = call("quantum_graph.assemble_jacobi", bl.assemble_jacobi, qgraph, sizes.h)
    spectrum = call("quantum_graph.eigen_count_positive", bl.eigen_count_positive, system)
    check(spectrum.count_positive == q - 1 and spectrum.converged,
          f"eigen counts {spectrum.counts_at_resolutions}, expected {q - 1} at both")
    solve = call("quantum_graph.conformal_jacobi_solve", bl.conformal_jacobi_solve,
                 system, inp["a"])
    check(bool(np.all(np.isfinite(solve.volume_column))), "non-finite conformal solve")
    cert = call("plateau.certify_plateau", bl.certify_plateau, params, graph,
                sample_budget=sizes.plateau_budget, seed=seed)
    check(cert.fully_plateau, f"certified Plateau only up to {cert.plateau_up_to}")
    target = inp["volumes"]
    solved = call("standard.standard_of_volume_exact", bl.standard_of_volume, 2, q, target)
    full = call("cluster.complete_graph", bl.complete_graph, q)
    reached = call("measure.measure_exact_s2", bl.measure_exact_s2, solved, full)
    check(float(np.max(np.abs(reached.volumes - target))) <= 1e-9,
          f"Newton volumes miss the target by {np.max(np.abs(reached.volumes - target)):.3e}")
    return OpResult(
        [exact.volumes, exact.areas, spectrum.count_positive, spectrum.kernel_dim,
         spectrum.counts_at_resolutions, spectrum.converged, system.reduced_size,
         cert.plateau_up_to, cert.points_examined, cert.multi_points_found,
         reached.volumes, solved.curvatures],
        {"cluster.interfaces_found": len(graph.pairs()),
         "quantum_graph.reduced_dofs": system.reduced_size,
         "plateau.points_examined": cert.points_examined})


# ---------------------------------------------------------------------------
# mc_fresh
# ---------------------------------------------------------------------------

FRESH_SHAPES = ((2, 3), (2, 4), (3, 5))
FRESH_KAPPA = 0.4
SIGMA = 5.0


def fresh_inputs(seed: int, n_ops: int) -> list[dict]:
    out = []
    for k in range(n_ops):
        n, q = FRESH_SHAPES[k % len(FRESH_SHAPES)]
        rng = op_rng(seed, k)
        out.append({"label": f"n{n}q{q}", "n": n, "q": q,
                    "kappa": FRESH_KAPPA * unit_sum_zero(rng, q), "seed": op_seed(seed, k)})
    return out


def wall_hits(params, graph, report, samples: int) -> int:
    """Wall samples that fell inside their interface, recovered from the areas.

    measure_mc draws `samples` points on each wall sphere and reports
    area = (hits / samples) * |wall sphere| / |S^n|."""
    n = params.n
    hits = 0
    for i, j in graph.pairs():
        _, radius, _ = sampling.subsphere_frame(params.pair_center(i, j),
                                                params.pair_curvature(i, j))
        wall = sphere_surface_measure(n - 1) * radius ** (n - 1)
        hits += round(report.areas[i, j] * sphere_surface_measure(n) / wall * samples)
    return hits


def fresh_op(inp: dict, call, sizes: Sizes) -> OpResult:
    n, q, seed = inp["n"], inp["q"], inp["seed"]
    samples, op_samples = sizes.measure_samples, sizes.operator_samples
    params = call("standard.standard_of_curvature", bl.standard_of_curvature, n, q, inp["kappa"])
    graph = call("cluster.detect_interfaces", bl.detect_interfaces, params, rng_seed=seed)
    mc = call("measure.measure_mc", bl.measure_mc, params, graph, samples=samples, seed=seed)
    n_op = call("operators.normal_moment_operator", bl.normal_moment_operator, params, graph,
                backend="mc", samples=op_samples, seed=seed)
    xi = call("deform.pcf_detect", bl.pcf_detect, params).xi
    f_op = call("operators.conformal_to_volume_pcf", bl.conformal_to_volume_pcf, params,
                graph, xi, backend="mc", samples=op_samples, seed=seed)
    c_op = call("operators.quasi_center_operator", bl.quasi_center_operator, params)
    ident = call("operators.check_product_identity", bl.check_product_identity, f_op, c_op,
                 n_op, mc.total_perimeter, mc.perimeter_stderr, sigma=SIGMA)
    check(ident.product_residual <= ident.allowed_product,
          f"F C = N residual {ident.product_residual:.3e} > {ident.allowed_product:.3e}")
    check(ident.trace_residual <= ident.allowed_trace,
          f"trace residual {ident.trace_residual:.3e} > {ident.allowed_trace:.3e}")
    if n == 2:
        exact = call("measure.measure_exact_s2", bl.measure_exact_s2, params, graph)
        pull = np.abs(mc.volumes - exact.volumes) / np.maximum(mc.volume_stderr, 1e-300)
        check(float(pull.max()) <= SIGMA, f"MC volumes {pull.max():.2f} sigma from exact")
    pairs = len(graph.pairs())
    return OpResult(
        [mc.volumes, mc.areas, n_op.matrix, f_op.matrix, pairs],
        {"cluster.interfaces_found": pairs,
         "measure.mc_points": samples * (1 + pairs),
         "operators.mc_points": op_samples * pairs * (n + 3),  # area, n+1 moments, F
         "measure.wall_hits": wall_hits(params, graph, mc, samples),
         "measure.wall_draws": samples * pairs})


# ---------------------------------------------------------------------------
# mc_crn
# ---------------------------------------------------------------------------

CRN_KINDS = ("model_profile", "standard_of_volume", "gram_invariance")


def crn_inputs(seed: int, n_ops: int) -> list[dict]:
    run = np.random.default_rng(seed)
    kinds = [CRN_KINDS[k % len(CRN_KINDS)] for k in range(n_ops)]
    # At 1M samples the spread of pde_residual grows toward the ends of the
    # volume range (sigma about 0.016 near 0.2 or 0.8, 0.007 near 0.5), where
    # its 5e-2 bound would fail about one correct op in 500.
    splits = iter(strata(run, kinds.count("model_profile"), 0.4, 0.6))
    out = []
    for k, kind in enumerate(kinds):
        rng = op_rng(seed, k)
        inp = {"label": kind, "kind": kind, "seed": op_seed(seed, k)}
        if kind == "model_profile":
            a = next(splits)
            inp["volumes"] = np.array([a, 1.0 - a])
        elif kind == "standard_of_volume":
            inp["volumes"] = interior_volumes(rng, 3, 0.2)
        out.append(inp)
    return out


def crn_op(inp: dict, call, sizes: Sizes) -> OpResult:
    kind, seed = inp["kind"], inp["seed"]
    if kind == "model_profile":
        cfg = standard.NewtonConfig(backend="mc", mc_samples=sizes.profile_samples,
                                    mc_seed=seed)
        point = call("standard.model_profile_mc", bl.model_profile, 3, 2, inp["volumes"],
                     fd_step_grad=1e-2, fd_step_hess=5e-2, cfg=cfg)
        grad_dev = call("standard.gradient_vs_curvature", standard.gradient_vs_curvature, point)
        residual = call("standard.pde_residual", bl.pde_residual, point)
        check(grad_dev <= 1e-2, f"gradient vs curvature {grad_dev:.3e} > 1e-2")
        check(abs(residual) <= 5e-2, f"PDE residual {residual:.3e} beyond 5e-2")
        return OpResult([point.value, point.kappa, point.grad, point.hessian], {})
    if kind == "standard_of_volume":
        cfg = standard.NewtonConfig(backend="mc", mc_samples=sizes.volume_samples,
                                    mc_seed=seed)
        target = inp["volumes"]
        params = call("standard.standard_of_volume_mc", bl.standard_of_volume, 3, 3, target,
                      cfg=cfg)
        volumes, _ = call("measure.cell_volumes_mc", measure.cell_volumes_mc, params,
                          cfg.mc_samples, cfg.mc_seed)
        miss = float(np.max(np.abs(volumes - target)))
        check(miss <= 3 * cfg.mc_tol, f"Newton volumes miss the target by {miss:.3e}")
        return OpResult([volumes, params.curvatures], {})
    cap = call("gallery.sectored_cap", gallery.sectored_cap, 4, 0.8)
    graph = call("cluster.detect_interfaces", bl.detect_interfaces, cap, rng_seed=seed)
    report = call("deform.gram_invariance_check", bl.gram_invariance_check, cap, graph,
                  t_max=0.5, steps=5, samples=sizes.gram_samples, seed=seed)
    check(report.invariant_within_tolerance,
          f"Gram path deviations {report.volume_deviation:.3e}, "
          f"{report.perimeter_deviation:.3e} > {report.allowed_deviation:.3e}")
    values = [r.volumes for r in report.reports] + [r.areas for r in report.reports]
    return OpResult(values + [len(graph.pairs()), report.first_new_interface_t or -1.0],
                    {"cluster.interfaces_found": len(graph.pairs())})


@dataclass(frozen=True)
class Workload:
    cycle: int          # ops per cycle of op kinds
    nominal_op_s: float  # mean op wall time on the reference machine
    make_inputs: object
    run_op: object

    def op_count(self, seconds: float) -> int:
        """Whole cycles that take about `seconds` on the reference machine.

        The count depends only on `seconds`, never on measured speed, so a
        faster program runs the same ops in less time."""
        cycles = max(1, round(seconds / (self.cycle * self.nominal_op_s)))
        return cycles * self.cycle


WORKLOADS = {
    "s2_spectrum": Workload(2, 4.2, s2_inputs, s2_op),
    "mc_fresh": Workload(3, 2.9, fresh_inputs, fresh_op),
    "mc_crn": Workload(3, 2.4, crn_inputs, crn_op),
}

# Spans whose busy share, calls and errors are per-layer metrics; the
# other public calls an op makes are traced too but are cheap.
LAYER_SPANS = (
    "cluster.detect_interfaces",
    "measure.measure_exact_s2",
    "measure.measure_mc",
    "operators.normal_moment_operator",
    "operators.conformal_to_volume_pcf",
    "standard.standard_of_volume_exact",
    "standard.standard_of_volume_mc",
    "standard.model_profile_mc",
    "deform.gram_invariance_check",
    "plateau.certify_plateau",
    "quantum_graph.build_graph",
    "quantum_graph.assemble_jacobi",
    "quantum_graph.eigen_count_positive",
    "quantum_graph.conformal_jacobi_solve",
)

COUNTS = ("measure.mc_points", "operators.mc_points", "quantum_graph.reduced_dofs",
          "plateau.points_examined", "cluster.interfaces_found")
