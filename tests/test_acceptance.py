"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each criterion is measured against its stated tolerance; the summary block
at the end of the pytest run lists the lines.  Most criteria delegate to the
verification suites, which hold the per-check thresholds; the completeness
criterion runs the transform round trip directly.
"""

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from radialspec import (
    domain_test_function,
    eval_radial,
    forward,
    inverse,
    make_extension_spec,
)
from radialspec.transform import radial_rule
from radialspec.verify import run_suites


def _suite_gate(number, title, suite, extra=""):
    results = run_suites([suite], seed=0)
    passed = all(r.passed for r in results)
    worst = max(
        (r.measured / r.threshold for r in results if r.threshold > 0), default=0.0
    )
    detail = f"worst measured/threshold = {worst:.2e}"
    if extra:
        detail += f"; {extra}"
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"{status}  criterion {number:2d}: {title} ({detail})")
    if not passed:
        for r in results:
            if not r.passed:
                ACCEPTANCE_LINES.append(
                    f"      failed check {r.suite}/{r.name}: "
                    f"{r.measured:.3e} > {r.threshold:.1e}"
                )
    assert passed, f"criterion {number} failed: {title}"
    return results


def test_criterion_01_rayleigh_identity():
    _suite_gate(1, "sixth-order factorization identity <= 1e-10, 100 random cases", "rayleigh")


def test_criterion_02_boundary_form_symmetricity():
    _suite_gate(
        2,
        "boundary form vanishes on domain jets <= 1e-10; all mutations detected",
        "boundary_form",
    )


def test_criterion_03_coefficient_oracle():
    results = _suite_gate(
        3,
        "closed-form resolvent coefficients match linear-system oracle <= 1e-9",
        "coefficients",
    )
    # the corrected table is canonical; the superseded printed entries are
    # carried as an errata record, which the suite reports in its detail
    assert any("errata" in r.detail for r in results)


def test_criterion_04_wronskians():
    _suite_gate(4, "Wronskian closed forms, r-independent over {0.5, 1, 7} <= 1e-10", "wronskian")


def test_criterion_05_resolvent_kernel():
    _suite_gate(
        5,
        "kernel symmetry <= 1e-12, FD residual <= 1e-6, jump -1 +- 1e-6, apply <= 1e-5",
        "kernel",
    )


def test_criterion_06_bound_states():
    _suite_gate(
        6,
        "bound states at kappa=-1: pole exact, norm 1 +- 1e-8, residual <= 1e-10",
        "bound_state",
    )


def test_criterion_07_continuous_spectrum():
    _suite_gate(
        7,
        "density identity <= 1e-8, realness <= 1e-12, eigen-residual <= 1e-10",
        "continuous",
    )


@pytest.mark.parametrize(
    "l,xi,kappa",
    [(1, 1, 0.7), (1, 2, -0.8), (2, 1, 1.2), (2, 2, 0.5), (1, 2, 0.0), (2, 2, 0.0)],
    # xi=2, kappa=0: c(lambda) tends to a nonzero constant as lambda -> 0 (the
    # zero-energy resonance), so the spectral rule must reach down to 0
    ids=["l1x1", "l1x2-bound", "l2x1", "l2x2", "l1x2-resonance", "l2x2-resonance"],
)
def test_criterion_08_completeness(l, xi, kappa):
    spec = make_extension_spec(l, xi, kappa)
    grid = np.linspace(0.05, 20.0, 300)
    rn, rw = radial_rule(60.0)
    worst_rt, worst_pv = 0.0, 0.0
    for index in range(5):
        f = domain_test_function(spec, index)
        coeffs = forward(spec, f, r_max=60.0)
        if kappa < 0:
            assert coeffs.c_discrete is not None
        rec = inverse(spec, coeffs, grid)
        ref = np.real(eval_radial(f, grid))
        err = np.linalg.norm(rec.values - ref) / np.linalg.norm(ref)
        worst_rt = max(worst_rt, err)
        norm2 = float(np.sum(rw * np.real(eval_radial(f, rn)) ** 2))
        total = float(np.sum(coeffs.lam_weights * coeffs.c**2))
        if coeffs.c_discrete is not None:
            total += coeffs.c_discrete**2
        worst_pv = max(worst_pv, abs(norm2 - total) / norm2)
    passed = worst_rt <= 1e-4 and worst_pv <= 1e-3
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(
        f"{status}  criterion  8: completeness l={l} xi={xi} kappa={kappa} "
        f"(round trip {worst_rt:.2e} <= 1e-4, Parseval {worst_pv:.2e} <= 1e-3, 5 functions)"
    )
    assert passed


def test_criterion_09_limit_extensions():
    _suite_gate(
        9,
        "free limit exact <= 1e-12, shared extension <= 1e-10, monotone approach",
        "limits",
    )


def test_criterion_10_orthogonality():
    _suite_gate(
        10, "bound state orthogonal to continuum <= 1e-6, five lambdas", "orthogonality"
    )
