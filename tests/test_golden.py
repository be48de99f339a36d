"""Golden digests of Monte Carlo and S^2 spectrum results: a change that claims
to keep them bit for bit is checked here, not by hand.

Each case is a small Monte Carlo computation or a set of S^2 Jacobi spectra
and solves; its digest is a SHA-256 of the dtype, shape and bytes of its
outputs. The recorded digests were produced by

    PYTHONPATH=src python tests/test_golden.py

at commit 5079b82 for the Monte Carlo cases and at commit 3d89102 for the
spectrum cases (numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31, x86-64);
near_kernel_and_solve was re-recorded when the condensed solve took its
per-arc closed forms from ToeplitzArcs, which moved its last bits. The
bits depend on the numpy build and its BLAS, so the cases skip under any other
numpy version. A change that means to move these bits must re-record them
with the same command and say why.
"""

import hashlib
import math

import numpy as np
import pytest

from bubblelab import (NewtonConfig, apply_mobius, assemble_jacobi, build_graph,
                       complete_graph, conformal_to_volume_pcf, detect_interfaces,
                       eigen_count_positive, equal_volume_standard, measure_mc,
                       model_profile, normal_moment_operator, pcf_detect,
                       standard_of_curvature, standard_of_volume)
from bubblelab.measure import cell_volumes_mc

NUMPY_VERSION = "2.4.6"

# 300k and 700k samples end in a short chunk (2^18 points per chunk)
GOLDEN = {
    "cell_volumes_mc": "3fc904543a323e398b8a",
    "measure_mc": "68c3df96d9c71cf6e8ba",
    "normal_moment_operator": "97ce0f022b5a1d399f7d",
    "conformal_to_volume_pcf": "7f592cf1e2cd7d00dcc1",
    "standard_of_volume": "28bf625818e90a9de4cb",
    "model_profile": "00f6caf72f015f21db8a",
    "eigen_count_positive": "b5b2ed0ac680e79ad274",
    "near_kernel_and_solve": "2672278395fc3857c279",
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
    rep = measure_mc(params, detect_interfaces(params, rng_seed=12), 100_000, 12)
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


def _spectrum_systems():
    """Jacobi systems at h = 4e-3 of the bench-like q = 3 and q = 4 bubbles, the
    equal-volume q = 3 bubble (its h/2 cut lies next to an arc Dirichlet
    value), a Moebius image of the q = 4 one and the great circle."""
    q4 = standard_of_curvature(2, 4, np.array([0.25, 0.08, -0.12, -0.21]))
    clusters = [standard_of_curvature(2, 3, np.array([0.21, -0.05, -0.16])), q4,
                equal_volume_standard(2, 3),
                apply_mobius(q4, np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98), 0.3),
                equal_volume_standard(2, 2)]
    return [assemble_jacobi(build_graph(params, detect_interfaces(params, rng_seed=0)), 4e-3)
            for params in clusters]


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
