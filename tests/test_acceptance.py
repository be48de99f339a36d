"""Acceptance gate: every top-level criterion at its stated tolerance.

Each test runs one named verification suite, prints a pass/fail line per
criterion, and asserts the whole bundle. Stated runtime envelopes are asserted
as well (they are generous; typical runs use a fraction of them).
"""

import time

import pytest

from bubblelab import suites


def _run(name: str, limit_seconds: float, **kwargs):
    start = time.time()
    report = suites.run_suite(name, **kwargs)
    elapsed = time.time() - start
    for crit in report.criteria:
        status = "PASS" if crit.passed else "FAIL"
        if crit.warning:
            status = "WARN"
        print(f"[{status}] {name}:{crit.name} value={crit.value:.3e} "
              f"tol={crit.tolerance:.3e} {crit.detail}")
    print(f"[{'PASS' if elapsed < limit_seconds else 'FAIL'}] {name}:runtime "
          f"{elapsed:.1f}s < {limit_seconds:.0f}s")
    failed = [c.name for c in report.criteria if not c.passed]
    assert not failed, f"{name}: failed criteria {failed}"
    assert elapsed < limit_seconds, f"{name}: runtime {elapsed:.1f}s over budget"
    return report


def test_criterion_1_standard_bubble_characterization():
    # CC^T = Id/2 + kk^T to 1e-10 and all interfaces nonempty, (n,q) up to (5,6)
    _run("standard_char", 60.0)


def test_criterion_2_measure_oracles_agree():
    # |MC - exact| within 4 stderr at 1e6 samples; lune values exact
    _run("measure_oracles", 120.0)


@pytest.mark.slow
def test_criterion_3_model_profile_pde():
    # gradient = (n-1) kappa to 1e-2; PDE residual 5e-2 (1e-4 exact on S^2);
    # closed form sqrt(v(1-v)) to 1e-10
    _run("profile_pde", 600.0)


def test_criterion_4_operator_identities():
    # FC = N, trace identities within 4 stderr on ten compatible clusters;
    # relaxed operator positive definite at 5 sigma
    _run("trace", 300.0)


@pytest.mark.slow
def test_criterion_5_conformal_limit():
    # |F_t - F0| decreases monotonically over t = 0.2, 0.1, 0.05 and
    # extrapolates to noise at t = 0
    _run("conformal_limit", 300.0)


def test_criterion_6_spectral_index():
    # positive eigencount q-1 = 2 at two resolutions, O(h^2) kernel and
    # conformal-field residuals, circle spectrum 1 - m^2 to 1e-4
    _run("spectrum_index", 300.0)


def test_criterion_7_gram_invariance():
    # volumes and perimeter constant along the Gram path within 4 stderr,
    # eigenvalue floor t/2 on the interpolated Gram matrix
    _run("gram_invariance", 600.0)


def test_criterion_8_plateau_geometry():
    # normal sums below 1e-9 and 120-degree angles to 1e-6 degrees at certified
    # triple points; the cross-junction cluster flagged not 2-Plateau
    _run("plateau_geometry", 120.0)
