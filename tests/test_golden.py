"""Golden digests of Monte Carlo and S^2 spectrum results: a change that claims
to keep them bit for bit is checked here, not by hand.

Each case is a small Monte Carlo computation or a set of S^2 Jacobi spectra
and solves; its digest is a SHA-256 of the dtype, shape and bytes of its
outputs. The recorded digests were produced by

    PYTHONPATH=src python tests/test_golden.py

at commit 5079b82 for the Monte Carlo cases, at commit 3d89102 for the
spectrum cases, at commit a9af9b2 for measure_exact_s2 and on the code of
commit 25a1940 for standard_of_volume_exact and build_graph, before the vertices
came from arc-end labels (numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31,
x86-64); near_kernel_and_solve was re-recorded when the condensed solve took
its per-arc closed forms from ToeplitzArcs, which moved its last bits, and
measure_mc, normal_moment_operator and conformal_to_volume_pcf when every
wall came to be placed from one stream of directions (measure._WALL_STREAM)
instead of one stream per pair, which moved every wall sample; the volume
cases kept their bits. normal_moment_operator and conformal_to_volume_pcf
were re-recorded again when the wall kernel came to sum each weight over the
interface's points alone, in chunk order, instead of over every point times
the mask: the same terms in another order, which moved their entries by at
most 6.0e-16 of each matrix's largest entry. Both were re-recorded once
more when each chunk came to be integrated one sampling.BLOCK at a time, a
weight's chunk sum becoming the pairwise sum of its per-block sums in block
order, and each wall point the product of (w, 1) with the wall's affine map:
the same terms in another order, from points that round otherwise, which
moved normal_moment_operator's matrix by at most 1.8e-19 of its largest entry
(3.4e-16 of the entry) and its entry errors by at most 8.9e-17 of their
largest, and conformal_to_volume_pcf's entry errors by at most 6.0e-16 of
their largest; its matrix kept its bits. model_profile was re-recorded
when a Monte Carlo Newton step that moves no sample point came to grow
instead of halving: its grid solve at v - h had stalled after 58 volume
evaluations at a residual of 3.5e-6 and now converges in 8 to 5.1e-7, which
moved the gradient from 0.11016 to 0.11021. The bits depend on the numpy
build and its BLAS, so the cases skip under any other numpy version. A
change that means to move these bits must re-record them with the same
command and say why.
"""

import hashlib
import math

import numpy as np
import pytest

from bubblelab import (NewtonConfig, apply_mobius, assemble_jacobi, build_graph,
                       complete_graph, conformal_step, conformal_to_volume_pcf,
                       detect_interfaces, eigen_count_positive, equal_volume_standard,
                       gallery, measure_exact_s2, measure_mc, model_profile,
                       normal_moment_operator, pcf_detect, perpendicular_pole,
                       recentered, standard_of_curvature, standard_of_volume)
from bubblelab.measure import cell_volumes_mc

NUMPY_VERSION = "2.4.6"

# 300k and 700k samples end in a short chunk (2^18 points per chunk)
GOLDEN = {
    "cell_volumes_mc": "3fc904543a323e398b8a",
    "measure_mc": "33ea950b89aae0f65b8b",
    "normal_moment_operator": "b6a9508329a6116a8daa",
    "conformal_to_volume_pcf": "d6bd7c41beec23260111",
    "standard_of_volume": "28bf625818e90a9de4cb",
    "model_profile": "3b5096dc2c39974ca59e",
    "eigen_count_positive": "b5b2ed0ac680e79ad274",
    "near_kernel_and_solve": "2672278395fc3857c279",
    "measure_exact_s2": "cb43914de30ccb4b0d10",
    "standard_of_volume_exact": "f59cf4757e9ddd4c64d2",
    "build_graph": "026894545622f6537a14",
}


def digest(values) -> str:
    h = hashlib.sha256()
    for value in values:
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:20]


def _s3_bubble():
    return standard_of_curvature(3, 3, np.array([0.25, -0.05, -0.2]))


def case_cell_volumes_mc():
    out = []
    for n, q, kappa in ((2, 3, [0.3, 0.1, -0.4]), (3, 4, [0.2, -0.1, 0.05, -0.15]),
                        (4, 2, [0.1, -0.1])):
        out.extend(cell_volumes_mc(standard_of_curvature(n, q, np.array(kappa)),
                                   300_000, 11))
    return out


def case_measure_mc():
    params = _s3_bubble()
    rep = measure_mc(params, detect_interfaces(params), 100_000, 12)
    return [rep.volumes, rep.areas, rep.volume_stderr, rep.area_stderr]


def case_normal_moment_operator():
    params = _s3_bubble()
    op = normal_moment_operator(params, complete_graph(3), "mc", 50_000, 13)
    return [op.matrix, op.entry_stderr]


def case_conformal_to_volume_pcf():
    params = _s3_bubble()
    op = conformal_to_volume_pcf(params, complete_graph(3), pcf_detect(params).xi,
                                 "mc", 50_000, 14)
    return [op.matrix, op.entry_stderr]


def case_standard_of_volume():
    cfg = NewtonConfig(backend="mc", mc_samples=700_000, mc_seed=15)
    params = standard_of_volume(3, 3, [0.5, 0.3, 0.2], cfg)
    return [params.quasi_centers, params.curvatures]


def case_model_profile():
    cfg = NewtonConfig(backend="mc", mc_samples=700_000, mc_seed=16)
    point = model_profile(3, 2, [0.45, 0.55], fd_step_grad=1e-2, fd_step_hess=5e-2, cfg=cfg)
    return [point.value, point.kappa, point.grad, point.hessian]


def _spectrum_graphs():
    """Quantum graphs of the bench-like q = 3 and q = 4 bubbles, the
    equal-volume q = 3 bubble (its h/2 cut lies next to an arc Dirichlet
    value), a Moebius image of the q = 4 one and the great circle."""
    q4 = standard_of_curvature(2, 4, np.array([0.25, 0.08, -0.12, -0.21]))
    clusters = [standard_of_curvature(2, 3, np.array([0.21, -0.05, -0.16])), q4,
                equal_volume_standard(2, 3),
                apply_mobius(q4, np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98), 0.3),
                equal_volume_standard(2, 2)]
    return [build_graph(params, detect_interfaces(params)) for params in clusters]


def _spectrum_systems():
    """Jacobi systems at h = 4e-3 of the _spectrum_graphs."""
    return [assemble_jacobi(qgraph, 4e-3) for qgraph in _spectrum_graphs()]


def case_eigen_count_positive():
    out = []
    for system in _spectrum_systems():
        rep = eigen_count_positive(system)
        out.extend([rep.count_positive, rep.eigenvalues, rep.kernel_dim, rep.converged,
                    rep.counts_at_resolutions, rep.method, rep.refined_method,
                    rep.pole_margin])
    return out


def case_near_kernel_and_solve():
    out = []
    for system in _spectrum_systems():
        rhs = np.random.default_rng(17).standard_normal((system.reduced_size, 2))
        out.extend([system.near_kernel, system.form_solver.solve(rhs)])
    return out


def case_measure_exact_s2():
    """Exact volumes and areas of the bench-like q = 3 and q = 4 bubbles, the
    equal-volume q = 3 bubble, a stepped band stack, the prism (a cell in two
    pieces) and a random affine cluster."""
    bands = gallery.band_stack(2, (-0.3, 0.4))
    prism = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                      [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    rng = np.random.default_rng(18)
    clusters = [standard_of_curvature(2, 3, np.array([0.21, -0.05, -0.16])),
                standard_of_curvature(2, 4, np.array([0.25, 0.08, -0.12, -0.21])),
                equal_volume_standard(2, 3),
                conformal_step(bands, perpendicular_pole(bands), 0.5),
                recentered(2, prism, np.array([0.0, 0.1, 0.1, 0.1, 0.1])),
                recentered(2, 1.5 * rng.standard_normal((4, 3)), rng.standard_normal(4))]
    out = []
    for params in clusters:
        rep = measure_exact_s2(params, detect_interfaces(params))
        out.extend([rep.volumes, rep.areas])
    return out


def case_standard_of_volume_exact():
    """Solved curvatures of bench-like q = 3 and q = 4 targets on the exact
    backend: the exact volume Newton with its analytic Jacobian."""
    return [standard_of_volume(2, len(v), v, NewtonConfig(backend="exact")).curvatures
            for v in ([0.5, 0.3, 0.2], [0.15, 0.6, 0.25], [0.1, 0.2, 0.3, 0.4],
                      [0.3, 0.25, 0.15, 0.3])]


def case_build_graph():
    """Each vertex's point and cells and each end's (arc_index, end, sign, robin)
    of the _spectrum_graphs."""
    out = []
    for qgraph in _spectrum_graphs():
        for vertex in qgraph.vertices:
            out.extend([vertex.point, np.array(vertex.cells)])
            out.extend(np.array([ve.arc_index, ve.end, ve.sign, ve.robin])
                       for ve in vertex.ends)
    return out


CASES = {name: globals()[f"case_{name}"] for name in GOLDEN}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded under numpy {NUMPY_VERSION}, "
                           f"running {np.__version__}")
@pytest.mark.parametrize("name", list(GOLDEN))
def test_digest_matches_record(name):
    assert digest(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name, case in CASES.items():
        print(f'    "{name}": "{digest(case())}",')
