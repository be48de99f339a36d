"""Fixed-size layer probes, run after the ops of a traced run.

They use sample addresses that no op uses (PROBE_LABEL is not a label the
package draws from, and every op seed is a hash of (workload seed, k)), so
what they time is the same whatever the workload did before them.
"""

from __future__ import annotations

import statistics
import time

import bubblelab as bl
from bubblelab import cluster, sampling

PROBE_SEED = 0x5EED
PROBE_LABEL = 0xBE7C0000
REPEATS = 5
SKEW_KAPPA = (0.3, 0.1, -0.4)
DIMS = (3, 4, 5)
SHAPES = ((2, 3), (3, 3), (4, 5))
H_TAGS = ("h4e-3", "h2e-3")

PROBE_UNITS = {
    **{f"sampling.unit_sphere.cold_ns_per_point.d{d}": "ns/point" for d in DIMS},
    "sampling.unit_sphere.repeat_ns_per_point.d3": "ns/point",
    **{f"cluster.classify_many.ns_per_point.n{n}q{q}": "ns/point" for n, q in SHAPES},
    **{f"quantum_graph.eigen_count_positive.probe_s.{tag}": "s" for tag in H_TAGS},
    "plateau.certify_plateau.probe_s.b400": "s",
}


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def run_probes(sizes) -> dict[str, float]:
    """Probe name -> value, in the unit PROBE_UNITS gives."""
    out: dict[str, float] = {}
    points = sizes.probe_points

    for dim in DIMS:
        cold = [_timed(sampling.unit_sphere, PROBE_SEED + rep, points, dim,
                       label=PROBE_LABEL + dim) for rep in range(REPEATS)]
        out[f"sampling.unit_sphere.cold_ns_per_point.d{dim}"] = (
            statistics.median(cold) / points * 1e9)
    # the same address again: what common-random-number callers get today
    repeat = [_timed(sampling.unit_sphere, PROBE_SEED, points, 3, label=PROBE_LABEL + 3)
              for _ in range(REPEATS)]
    out["sampling.unit_sphere.repeat_ns_per_point.d3"] = (
        statistics.median(repeat) / points * 1e9)

    for n, q in SHAPES:
        params = bl.equal_volume_standard(n, q)
        pts = sampling.unit_sphere(PROBE_SEED, points, n + 1, label=PROBE_LABEL + 16 + n)
        times = [_timed(cluster.classify_many, params, pts) for _ in range(REPEATS)]
        out[f"cluster.classify_many.ns_per_point.n{n}q{q}"] = (
            statistics.median(times) / points * 1e9)

    skew = bl.standard_of_curvature(2, 3, SKEW_KAPPA)
    qgraph = bl.build_graph(skew, bl.detect_interfaces(skew, rng_seed=PROBE_SEED))
    for h, tag in zip(sizes.probe_h, H_TAGS):
        system = bl.assemble_jacobi(qgraph, h)
        out[f"quantum_graph.eigen_count_positive.probe_s.{tag}"] = (
            _timed(bl.eigen_count_positive, system))

    double = bl.equal_volume_standard(2, 3)
    graph = bl.detect_interfaces(double, rng_seed=PROBE_SEED)
    times = [_timed(bl.certify_plateau, double, graph, sample_budget=sizes.probe_budget,
                    seed=PROBE_SEED) for _ in range(REPEATS)]
    out["plateau.certify_plateau.probe_s.b400"] = statistics.median(times)
    return out
