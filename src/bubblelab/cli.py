"""Command-line front end: construction, measurement, deformation, spectra, suites.

Every report embeds the package version, the seed and sample counts of
whatever it draws, and tolerances, and contains no timestamps, so rerunning
a command with an identical configuration reproduces the output byte for
byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import traceback

import numpy as np

from . import __version__, gallery, suites
from .cluster import (detect_interfaces, load_cluster, perpendicular_pole,
                      save_cluster, validate_spherical)
from .deform import (conformal_step, gram_invariance_check, gram_path, measure_path,
                     pcf_detect)
from .measure import MeasureError, measure_cluster
from .operators import (check_product_identity, conformal_to_volume_pcf,
                        conformal_to_volume_relaxed, locality_probe,
                        normal_moment_operator, quasi_center_operator,
                        trace_identity_residual)
from .plateau import certify_plateau, classify_q3
from .quantum_graph import (GraphBuildError, SpectrumError, assemble_jacobi, build_graph,
                            eigen_count_positive)
from .standard import (NewtonConfig, NewtonError, equal_volume_standard,
                       gradient_vs_curvature, model_profile, pde_residual,
                       standard_of_curvature, standard_of_volume)

SCHEMA_VERSION = 1
EXIT_ERROR = 3


def _base_report(args, **extra) -> dict:
    cfg = {"command": args.command, "version": __version__,
           "schema_version": SCHEMA_VERSION}
    for key in ("seed", "samples", "h", "backend", "steps", "t"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    cfg.update(extra)
    return cfg


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonify) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def cmd_standard(args) -> int:
    if args.gallery:
        builders = {"bands": gallery.band_stack, "sectored-cap": gallery.sectored_cap,
                    "cross": gallery.cross_junction,
                    "five-cell": gallery.five_cell_meeting_point}
        params = builders[args.gallery]()
    elif args.volumes is not None:
        volumes = _parse_floats(args.volumes)
        cfg = NewtonConfig(backend="auto", mc_samples=args.samples, mc_seed=args.seed)
        params = standard_of_volume(args.n, args.q, volumes / volumes.sum(), cfg)
    elif args.kappa is not None:
        kappa = _parse_floats(args.kappa)
        params = standard_of_curvature(args.n, args.q, kappa - kappa.mean())
    else:
        params = equal_volume_standard(args.n, args.q)
    save_cluster(params, args.out)
    print(f"wrote {args.out} (n={params.n}, q={params.q})")
    return 0


def cmd_measure(args) -> int:
    params = load_cluster(args.cluster)
    graph = detect_interfaces(params)
    report = measure_cluster(params, graph, args.backend, args.samples, args.seed)
    validation = validate_spherical(params, graph)
    payload = _base_report(args, cluster=params.label,
                           spherical=validation.passed,
                           volumes=report.volumes, areas=report.areas,
                           volume_stderr=report.volume_stderr,
                           area_stderr=report.area_stderr,
                           total_perimeter=report.total_perimeter,
                           perimeter_stderr=report.perimeter_stderr,
                           backend_used=report.backend)
    if args.raw:
        payload["raw_volumes"] = report.raw_volumes(params.n)
        payload["raw_areas"] = report.raw_areas(params.n)
    _emit(payload, args.out)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "area", "stderr"])
            for i, j in graph.pairs():
                writer.writerow([i, j, report.areas[i, j], report.area_stderr[i, j]])
    return 0


def cmd_deform(args) -> int:
    if args.steps < 0:
        raise ValueError(f"steps must be non-negative, got {args.steps}")
    params = load_cluster(args.cluster)
    times = np.linspace(0.0, args.t, args.steps + 1)
    path = []
    if args.mode == "conformal":
        pole = (_parse_floats(args.pole) if args.pole
                else perpendicular_pole(params))
        if pole is None:
            print("cluster is not perpendicular: no flow pole exists", file=sys.stderr)
            return 2
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(pole))
        # checked before dividing; a NaN norm fails both comparisons
        if pole.shape != (params.n + 1,) or not 0.0 < norm < math.inf:
            raise ValueError(f"pole {args.pole} must be {params.n + 1} numbers "
                             f"with a finite nonzero norm")
        pole = pole / norm
        for t in times:
            path.append(conformal_step(params, pole, float(t)))
    else:
        for t in times:
            path.append(gram_path(params, float(t)))
    payload = _base_report(args, mode=args.mode, times=times,
                           clusters=[{"quasi_centers": p.quasi_centers,
                                      "curvatures": p.curvatures} for p in path])
    # the t = 0 interfaces are needed only to measure the path
    invariance = args.check_invariance and args.mode == "gram"
    graph = detect_interfaces(params) if invariance or args.report else None
    inv = None
    if invariance:
        inv = gram_invariance_check(params, graph, t_max=args.t, steps=args.steps,
                                    samples=args.samples, seed=args.seed)
        payload["invariance"] = {
            "volume_deviation": inv.volume_deviation,
            "perimeter_deviation": inv.perimeter_deviation,
            "allowed_deviation": inv.allowed_deviation,
            "first_new_interface_t": inv.first_new_interface_t,
            "times_compared": inv.times_compared,
            "within_tolerance": inv.invariant_within_tolerance}
    _emit(payload, args.out)
    if args.report:
        # the invariance check measured this very path already
        reports = (inv.reports if inv is not None else
                   [rep for _, rep in measure_path(path, times, graph, args.samples, args.seed)])
        with open(args.report, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"v{i}" for i in range(params.q)] + ["perimeter"])
            for t, rep in zip(times, reports):
                writer.writerow([t] + list(rep.volumes) + [rep.total_perimeter])
    return 0


def cmd_operators(args) -> int:
    params = load_cluster(args.cluster)
    graph = detect_interfaces(params)
    checks = args.checks.split(",")
    payload = _base_report(args, cluster=params.label, checks=checks)
    pcf = pcf_detect(params)
    payload["pcf"] = {"residual": pcf.residual, "pcf": pcf.pcf,
                      "conformally_flat": pcf.conformally_flat, "xi": pcf.xi}
    if not pcf.pcf:
        payload["note"] = ("cluster is not pseudo conformally flat: the "
                           "conformal-to-volume operator has no closed form here; "
                           "only the relaxed operator is reported")
    meas = measure_cluster(params, graph, args.backend, args.samples, args.seed)
    f_op = None
    if pcf.pcf:
        f_op = conformal_to_volume_pcf(params, graph, pcf.xi, backend=args.backend,
                                       samples=args.samples, seed=args.seed)
        payload["conformal_to_volume"] = f_op.matrix
    pole = perpendicular_pole(params)
    if pole is not None:
        f0 = conformal_to_volume_relaxed(params, graph, pole, backend=args.backend,
                                         samples=args.samples, seed=args.seed)
        payload["conformal_to_volume_relaxed"] = f0.matrix
        if f_op is None:
            f_op = f0
    if f_op is not None and "fc_n" in checks:
        c_op = quasi_center_operator(params)
        n_op = normal_moment_operator(params, graph, backend=args.backend,
                                      samples=args.samples, seed=args.seed)
        ident = check_product_identity(f_op, c_op, n_op, meas.total_perimeter,
                                       meas.perimeter_stderr)
        payload["fc_n"] = {"product_residual": ident.product_residual,
                           "trace_residual": ident.trace_residual,
                           "allowed_product": ident.allowed_product,
                           "allowed_trace": ident.allowed_trace}
    if f_op is not None and "trace" in checks:
        payload["trace"] = trace_identity_residual(f_op, params.curvatures,
                                                   meas.total_perimeter)
    if f_op is not None and "locality" in checks:
        probe = locality_probe(f_op, graph)
        payload["locality"] = {"max_empty_pair_weight": probe.max_empty_pair_weight,
                               "empty_pairs": probe.empty_pairs}
    _emit(payload, args.out)
    return 0


def cmd_plateau(args) -> int:
    params = load_cluster(args.cluster)
    graph = detect_interfaces(params)
    cert = certify_plateau(params, graph)
    verdict = classify_q3(params, cert)
    payload = _base_report(args, cluster=params.label,
                           plateau_up_to=cert.plateau_up_to,
                           fully_plateau=cert.fully_plateau,
                           points_examined=cert.points_examined,
                           multi_points_found=cert.multi_points_found,
                           failures=cert.failures,
                           worst_points=cert.worst_points,
                           classification=verdict.verdict,
                           consistent=verdict.consistent, note=verdict.note)
    _emit(payload, args.out)
    return 0


def cmd_spectrum(args) -> int:
    params = load_cluster(args.cluster)
    graph = detect_interfaces(params)
    system = assemble_jacobi(build_graph(params, graph), args.h)
    spec = eigen_count_positive(system, k_top=24)
    payload = _base_report(args, cluster=params.label,
                           count_positive=spec.count_positive,
                           kernel_dim=spec.kernel_dim,
                           converged=spec.converged,
                           counts_at_resolutions=list(spec.counts_at_resolutions),
                           method=spec.method,
                           refined_method=spec.refined_method,
                           # null when every arc is a vertex-free circle (margin inf)
                           pole_margin=(spec.pole_margin if math.isfinite(spec.pole_margin)
                                        else None),
                           eigenvalues=spec.eigenvalues)
    _emit(payload, args.out)
    return 0


def cmd_profile(args) -> int:
    # tol applies on the exact backend (S^2); Monte Carlo floors it (NewtonConfig.tolerances)
    cfg = NewtonConfig(tol=1e-11, mc_samples=args.samples, mc_seed=args.seed)
    rows = []
    rng = np.random.default_rng(args.seed)
    for _ in range(args.grid):
        v = rng.dirichlet(np.full(args.q, 4.0))
        if v.min() < 0.08:
            v = (v + 0.1) / (1.0 + 0.1 * args.q)
        point = model_profile(args.n, args.q, v, cfg=cfg)
        rows.append(list(v) + [point.value, gradient_vs_curvature(point),
                               pde_residual(point)])
    header = [f"v{i}" for i in range(args.q)] + ["value", "grad_vs_curvature",
                                                 "pde_residual"]
    if args.report == "csv":
        target = open(args.out, "w", newline="") if args.out else sys.stdout
        writer = csv.writer(target)
        writer.writerow(header)
        writer.writerows(rows)
        if args.out:
            target.close()
    else:
        _emit(_base_report(args, rows=rows, columns=header), args.out)
    return 0


def cmd_suite(args) -> int:
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    report = suites.run_suite(args.name, **kwargs)
    _emit(report.as_dict(), args.out)
    for crit in report.criteria:
        status = "PASS" if crit.passed else "FAIL"
        if crit.warning:
            status = "WARN"
        print(f"[{status}] {report.suite}:{crit.name} value={crit.value:.3e} "
              f"tol={crit.tolerance:.3e}")
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubblelab",
        description="spherical Voronoi multi-bubble construction and verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)  # shared by the report commands
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--out")

    p = sub.add_parser("standard", help="construct a standard bubble or gallery cluster")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--volumes", help="comma-separated target volumes")
    p.add_argument("--kappa", help="comma-separated curvature vector")
    p.add_argument("--gallery", choices=["bands", "sectored-cap", "cross", "five-cell"])
    p.add_argument("--samples", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_standard)

    p = sub.add_parser("measure", parents=[report], help="volumes and interface areas")
    p.add_argument("cluster")
    p.add_argument("--backend", choices=["auto", "mc", "exact"], default="auto")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--csv", help="also write the areas table as CSV")
    p.add_argument("--raw", action="store_true",
                   help="also report unnormalized Hausdorff measures")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("deform", parents=[report], help="conformal or Gram deformation path")
    p.add_argument("cluster")
    p.add_argument("--mode", choices=["conformal", "gram"], required=True)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--pole", help="comma-separated flow pole (default: detected)")
    p.add_argument("--check-invariance", action="store_true")
    p.add_argument("--samples", type=int, default=400_000)
    p.add_argument("--report", help="CSV of measures along the path")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("operators", parents=[report], help="operator identities on a cluster")
    p.add_argument("cluster")
    p.add_argument("--checks", default="fc_n,trace,locality")
    p.add_argument("--backend", choices=["auto", "mc", "exact"], default="auto")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.set_defaults(func=cmd_operators)

    p = sub.add_parser("plateau", help="exact Plateau certification of the strata")
    p.add_argument("cluster")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plateau)

    p = sub.add_parser("spectrum", help="second-variation spectrum on S^2")
    p.add_argument("cluster")
    p.add_argument("--out")
    p.add_argument("--h", type=float, default=4e-3)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("profile", parents=[report], help="model isoperimetric profile samples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--report", choices=["csv", "json"], default="csv")
    p.add_argument("--samples", type=int, default=4_000_000)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("suite", help="run a named verification suite")
    p.add_argument("name", choices=list(suites.SUITE_NAMES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a package error (a ValueError only if bubblelab raised it)
    becomes its JSON report plus "error", on stdout for `standard`, and EXIT_ERROR."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MeasureError, GraphBuildError, NewtonError, SpectrumError, ValueError) as exc:
        frame = list(traceback.walk_tb(exc.__traceback__))[-1][0]
        if isinstance(exc, ValueError) and frame.f_globals.get("__package__") != __package__:
            raise
        _emit(_base_report(args, error={"type": type(exc).__name__, "message": str(exc)}),
              None if args.command == "standard" else args.out)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
