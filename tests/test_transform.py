import numpy as np
import pytest
import scipy.linalg

from radialspec import (
    FunctionDomainError,
    GridError,
    InvalidInput,
    apply_function,
    apply_resolvent,
    bound_state,
    domain_test_function,
    eval_radial,
    forward,
    inverse,
    make_extension_spec,
    parseval_check,
)
from radialspec.transform import SampledFunction, SpectralCoefficients, fd_apply

R_GRID = np.linspace(0.05, 20.0, 300)


def test_sampled_function_validation():
    with pytest.raises(InvalidInput):
        SampledFunction(np.array([1.0, 0.5]), np.array([1.0, 2.0]))
    with pytest.raises(InvalidInput):
        SampledFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(InvalidInput):
        SampledFunction(np.array([0.5, 1.0]), np.array([1.0]))
    f = SampledFunction(np.array([0.5, 1.0, 1.5]), np.array([1.0, 2.0, 1.0]))
    assert f(1.0) == 2.0
    assert f(3.0) == 0.0  # compact support past the grid


def test_forward_of_bound_state_concentrates_on_discrete_term():
    spec = make_extension_spec(1, 1, -1.0)
    b = bound_state(spec)
    coeffs = forward(spec, b.v)
    assert abs(coeffs.c_discrete - 1.0) < 1e-6
    # continuous part carries (almost) no mass
    mass = float(np.sum(coeffs.lam_weights * coeffs.c**2))
    assert mass < 1e-6


def test_forward_zero_function():
    spec = make_extension_spec(2, 1, 0.3)
    coeffs = forward(spec, lambda r: np.zeros_like(np.asarray(r)), r_max=20.0)
    assert np.max(np.abs(coeffs.c)) == 0.0


def test_inverse_zero_coefficients():
    spec = make_extension_spec(1, 2, 0.3)
    lam = np.linspace(0.1, 2.0, 5)
    out = inverse(spec, SpectralCoefficients(lam, np.ones(5), np.zeros(5)), R_GRID)
    assert np.max(np.abs(out.values)) == 0.0


@pytest.mark.parametrize(
    "l,xi,kappa",
    [(1, 1, 0.7), (1, 2, -0.8), (2, 1, 1.2), (2, 2, 0.5), (2, 2, "inf")],
)
def test_round_trip_and_parseval(l, xi, kappa):
    spec = make_extension_spec(l, xi, kappa)
    f = domain_test_function(spec)
    rec = inverse(spec, forward(spec, f), R_GRID)
    ref = np.real(eval_radial(f, R_GRID))
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(rec.values - ref)) < 1e-4 * scale
    assert parseval_check(spec, f) < 1e-3


def test_round_trip_needs_discrete_term():
    # dropping the bound-state channel must leave a visible deficit
    spec = make_extension_spec(1, 1, -1.0)
    f = domain_test_function(spec)
    coeffs = forward(spec, f)
    assert coeffs.c_discrete is not None
    stripped = SpectralCoefficients(coeffs.lam_grid, coeffs.lam_weights, coeffs.c)
    rec = inverse(spec, stripped, R_GRID)
    ref = np.real(eval_radial(f, R_GRID))
    deficit = np.max(np.abs(rec.values - ref)) / np.max(np.abs(ref))
    assert deficit > 1e-3


def test_apply_identity_map_is_round_trip():
    spec = make_extension_spec(2, 1, 0.4)
    f = domain_test_function(spec)
    out = apply_function(spec, lambda x: 1.0, f, r_grid=R_GRID)
    ref = np.real(eval_radial(f, R_GRID))
    assert np.max(np.abs(out.values - ref)) < 1e-4 * np.max(np.abs(ref))


@pytest.mark.parametrize("l,xi", [(1, 1), (2, 2)])
def test_apply_operator_matches_finite_differences(l, xi):
    spec = make_extension_spec(l, xi, 0.8)
    f = domain_test_function(spec)
    grid = np.arange(0.12, 14.0, 0.12)
    out = apply_function(spec, lambda x: x, f, r_grid=grid, lam_max=24.0)
    sampled = SampledFunction(grid, np.real(eval_radial(f, grid)))
    probes = [grid[20], grid[40], grid[60]]
    scale = max(abs(fd_apply(l, sampled, r)) for r in probes)
    for r in probes:
        i = int(round((r - grid[0]) / 0.12))
        assert abs(out.values[i] - fd_apply(l, sampled, r)) < 1e-3 * scale


def test_apply_sqrt_rejected_with_negative_spectrum():
    spec = make_extension_spec(1, 1, -1.0)
    f = domain_test_function(spec)
    with pytest.raises(FunctionDomainError):
        apply_function(spec, np.sqrt, f)


def test_apply_resolvent_map_matches_kernel_route():
    spec = make_extension_spec(1, 1, 0.7)
    z = 1.0 * np.exp(1j * np.pi / 6)
    f = domain_test_function(spec)
    grid = np.linspace(0.3, 8.0, 20)
    via_spectrum = apply_function(
        spec, lambda x: 1.0 / (x - z**6), f, r_grid=grid, lam_max=24.0
    )
    via_kernel = apply_resolvent(spec, z, lambda s: np.real(eval_radial(f, s)), grid)
    scale = np.max(np.abs(via_kernel))
    assert np.max(np.abs(via_spectrum.values - np.real(via_kernel))) < 1e-4 * scale


def test_parseval_zero_function():
    spec = make_extension_spec(1, 2, 0.0)
    assert parseval_check(spec, lambda r: np.zeros_like(np.asarray(r)), r_max=10.0) == 0.0


def test_fd_apply_grid_errors():
    g = np.arange(0.1, 5.0, 0.1)
    f = SampledFunction(g, np.exp(-g))
    with pytest.raises(GridError):
        fd_apply(1, f, 0.15)  # off-node
    with pytest.raises(GridError):
        fd_apply(1, f, g[2])  # stencil falls off the edge
    bad = SampledFunction(np.geomspace(0.1, 5.0, 50), np.ones(50))
    with pytest.raises(GridError):
        fd_apply(1, bad, 1.0)


def test_fd_apply_single_exponential():
    # D_l e^{chi r} is an exact eigenfunction of the sixth-order form: T^3 f = -chi^6 f
    from radialspec import ExponentialSum, RadialFunction

    chi = -0.8
    f = RadialFunction(ExponentialSum([1.0], [chi]), 2)
    g = np.arange(0.12, 10.0, 0.12)
    s = SampledFunction(g, np.real(eval_radial(f, g)))
    r0 = g[30]
    want = -(chi**6) * float(np.real(eval_radial(f, r0)))
    assert abs(fd_apply(2, s, r0) - want) < 1e-4 * (1.0 + abs(want))


def test_fd_apply_zero():
    g = np.arange(0.1, 5.0, 0.1)
    f = SampledFunction(g, np.zeros_like(g))
    assert fd_apply(1, f, g[25]) == 0.0


def test_domain_test_function_properties():
    from radialspec import check_membership, jet_at_origin
    from radialspec.rayleigh import t3_termwise

    for l, xi, kappa in ((1, 1, 0.7), (2, 2, -0.9)):
        spec = make_extension_spec(l, xi, kappa)
        for index in (0, 1, 2):
            f = domain_test_function(spec, index)
            # the quintic condition row is worse conditioned, hence the looser tol
            ok, _ = check_membership(spec, jet_at_origin(f), tol=1e-8)
            assert ok
            ok, _ = check_membership(spec, jet_at_origin(t3_termwise(f)), tol=1e-8)
            assert ok
    with pytest.raises(InvalidInput):
        domain_test_function(make_extension_spec(1, 1, 0.0), -1)


def test_domain_test_function_null_space_matches_scipy():
    # the amplitudes are the same null-space vectors scipy.linalg.null_space gives
    from radialspec.boundary import condition_rows

    for l, xi in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for kappa in (0.0, 0.7, -1.3, 2.5) + (("inf",) if l == 2 else ()):
            spec = make_extension_spec(l, xi, kappa)
            nrows = len(condition_rows(spec, np.array([-1.0, -2.0]), include_automatic=True))
            for base_rate in (0.4, 0.6, 1.5, 3.0):
                for index in range(5):
                    rates = -(base_rate + 0.35 * np.arange(2 * nrows + 2) + 0.11 * index)
                    rows = condition_rows(spec, rates, include_automatic=True)
                    a = np.vstack(rows + [row * -(rates**6) for row in rows]).real
                    ref = scipy.linalg.null_space(a)
                    f = domain_test_function(spec, index, base_rate)
                    assert np.array_equal(f.base.amplitudes, ref[:, index % ref.shape[1]])
