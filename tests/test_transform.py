import warnings

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
    continuous_eigenfunction,
    domain_test_function,
    eval_radial,
    forward,
    inverse,
    make_extension_spec,
    parseval_check,
)
from radialspec import spectrum, transform
from radialspec.core import ExponentialSum, RadialFunction
from radialspec.transform import (
    DEFAULT_LAMBDA_MAX,
    SampledFunction,
    SpectralCoefficients,
    fd_apply,
    radial_rule,
    spectral_rule,
)

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


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_sampled_function_rejects_nonfinite(bad):
    with pytest.raises(InvalidInput, match="finite"):
        SampledFunction(np.array([0.5, bad, 1.5]), np.array([1.0, 2.0, 1.0]))
    with pytest.raises(InvalidInput, match="finite"):
        SampledFunction(np.array([0.5, 1.0, 1.5]), np.array([1.0, bad, 1.0]))
    with pytest.raises(InvalidInput, match="finite"):
        SampledFunction(np.array([0.5, 1.0, 1.5]), np.array([1.0, complex(bad, 0.0), 1.0]))


# well-formed coefficients on a three-node grid, and one malformed field
# each, for an extension with a bound state unless kappa says otherwise
GOOD_COEFFS = dict(
    lam_grid=np.array([0.5, 1.0, 1.5]),
    lam_weights=np.full(3, 0.5),
    c=np.array([1.0, -0.5, 0.25]),
)
MALFORMED_COEFFS = {
    "c_broadcasting_length_one": dict(c=np.array([1.0])),
    "c_one_short": dict(c=np.array([1.0, -0.5])),
    "c_complex": dict(c=np.array([1.0, -0.5j, 0.25])),
    "c_nonfinite": dict(c=np.array([1.0, np.nan, 0.25])),
    "lam_grid_2d": dict(lam_grid=np.array([[0.5, 1.0, 1.5]])),
    "lam_weights_one_long": dict(lam_weights=np.full(4, 0.5)),
    "all_empty": dict(lam_grid=np.array([]), lam_weights=np.array([]), c=np.array([])),
    "c_discrete_complex": dict(c_discrete=1.0 + 1.0j),
    "c_discrete_without_bound_state": dict(c_discrete=1.0, kappa=0.7),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COEFFS))
def test_inverse_rejects_malformed_coefficients(monkeypatch, case):
    def no_basis(*args):
        raise AssertionError("basis evaluated before the coefficients were checked")

    monkeypatch.setattr(transform, "_basis_rmatvec", no_basis)
    fields = {**GOOD_COEFFS, **MALFORMED_COEFFS[case]}
    spec = make_extension_spec(1, 1, fields.pop("kappa", -1.0))
    with pytest.raises(InvalidInput):
        inverse(spec, SpectralCoefficients(**fields), R_GRID)


@pytest.mark.parametrize(
    "grid",
    (
        np.array([0.1, np.nan, 2.0]),
        np.array([0.1, 1.0, np.inf]),
        np.array([0.0, 1.0, 2.0]),
        np.array([-1.0, 1.0, 2.0]),
        np.array([0.1, 2.0, 1.0]),
        np.array([0.1, 1.0, 1.0]),
        np.array([1.0]),
        np.ones((2, 2)),
    ),
)
def test_inverse_rejects_bad_grid_before_evaluating(monkeypatch, grid):
    def no_basis(*args):
        raise AssertionError("basis evaluated before the grid was checked")

    monkeypatch.setattr(transform, "_basis_rmatvec", no_basis)
    spec = make_extension_spec(1, 1, -1.0)
    coeffs = SpectralCoefficients(np.array([0.5, 1.0]), np.ones(2), np.ones(2), 1.0)
    with pytest.raises(InvalidInput):
        inverse(spec, coeffs, grid)


CUTOFF_CASES = (
    {"r_max": np.nan},
    {"r_max": np.inf},
    {"r_max": 0.0},
    {"r_max": -5.0},
    {"lam_max": -1.0},
    {"lam_max": 0.0},
    {"lam_max": transform.DEFAULT_LAMBDA_MIN},
    {"lam_max": 3.0 * transform.DEFAULT_LAMBDA_MIN},
    {"lam_max": np.nan},
    {"lam_max": np.inf},
)


def test_smallest_accepted_lam_max():
    spec = make_extension_spec(1, 1, 0.7)
    coeffs = forward(spec, domain_test_function(spec), r_max=10.0, lam_max=0.0041)
    assert coeffs.lam_grid[0] > 0
    assert coeffs.lam_grid[-1] < 0.0041 and np.all(np.diff(coeffs.lam_grid) > 0)


@pytest.mark.parametrize("r_max,lam_max", ((10.0, 2.1), (1.0, 2.1), (70.6, 8.0)))
def test_spectral_rule_last_panel_keeps_the_remainder(r_max, lam_max):
    # where (lam_max - 0.5) / w lands on an integer, as when w = (lam_max - 0.5) / 4,
    # the last panel is the remainder up to lam_max, neither empty nor a sliver
    lam, lw = spectral_rule(r_max, lam_max)
    width = min(2.0 * np.pi / r_max, (lam_max - 0.5) / 4.0)
    last = np.sum(lw[-24:])
    assert 1e-9 * width < last <= (1.0 + 1e-9) * width
    assert np.all(np.diff(lam) > 0) and lam[-1] < lam_max


@pytest.mark.parametrize("kwargs", CUTOFF_CASES)
def test_bad_cutoffs_rejected(kwargs):
    spec = make_extension_spec(1, 1, 0.7)
    f = domain_test_function(spec)
    calls = [
        lambda: forward(spec, f, **kwargs),
        lambda: apply_function(spec, lambda x: x, f, **kwargs),
    ]
    if "lam_max" not in kwargs:
        calls.append(lambda: parseval_check(spec, f, **kwargs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InvalidInput, match="r_max|lam_max"):
                call()


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


@pytest.mark.parametrize("kappa", (0.01, -0.01))
def test_small_kappa_needs_the_geometric_lambda_panels(kappa):
    # for small |kappa| the phase of p(lambda) = lambda^5 + 2 e^{5 i pi/6} kappa^5
    # turns within lambda of order |kappa|, which the geometric panels below
    # the join resolve.  On the CLI round-trip grid these read 2.6e-9 and
    # 4.1e-12 (kappa 0.01) and 5.5e-10 and 9e-16 (kappa -0.01); panels of
    # width 2 pi / r_max from lambda = 0 alone give 1.6e-2 and 6.4e-3, and
    # 1.1e-5 and 4.5e-6
    spec = make_extension_spec(2, 2, kappa)
    f = domain_test_function(spec, 0, 0.6)
    grid = np.linspace(0.05, 30.0, 500)
    ref = np.real(eval_radial(f, grid))
    rec = inverse(spec, forward(spec, f), grid)
    assert np.linalg.norm(rec.values - ref) <= 1e-6 * np.linalg.norm(ref)
    assert parseval_check(spec, f) <= 1e-9


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


# ------------------------------------------------ the remembered Parseval defect
# forward remembers the defect of the last RadialFunction it projected;
# parseval_check on the same f and cutoffs returns it without projecting.

MEMO_R_MAX = 20.9


def _counted_projections(monkeypatch):
    calls = []
    project = transform._project

    def counted(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(transform, "_project", counted)
    return calls


def _cold_defect(spec, f, r_max):
    transform._last_defect[0] = (None, None)
    return parseval_check(spec, f, r_max=r_max)


def _memo_case():
    spec = make_extension_spec(1, 2, -0.8)
    return spec, domain_test_function(spec, 2, 1.5)


@pytest.mark.parametrize("r_max", (None, MEMO_R_MAX))
def test_parseval_check_after_forward_does_not_project(monkeypatch, r_max):
    spec, f = _memo_case()
    cold = _cold_defect(spec, f, r_max)
    calls = _counted_projections(monkeypatch)
    coeffs = forward(spec, f, r_max=r_max)
    assert parseval_check(spec, f, r_max=r_max) == cold == coeffs.parseval_defect
    assert len(calls) == 1
    # forward itself always projects, and returns fresh writeable arrays
    again = forward(spec, f, r_max=r_max)
    assert len(calls) == 2
    assert again.c is not coeffs.c and again.c.flags.writeable
    assert np.array_equal(again.c, coeffs.c)


def test_parseval_check_at_a_given_lam_max_does_not_project(monkeypatch):
    spec, f = _memo_case()
    calls = _counted_projections(monkeypatch)
    coeffs = forward(spec, f, lam_max=24.0)
    assert parseval_check(spec, f, lam_max=24.0) == coeffs.parseval_defect
    assert len(calls) == 1
    # the default lam_max is another grid, so it projects again
    parseval_check(spec, f)
    assert len(calls) == 2


def _changed(f, index):
    amps = f.base.amplitudes.copy()
    amps[index] = complex(np.nextafter(amps[index].real, np.inf), amps[index].imag)
    return RadialFunction(ExponentialSum(amps, f.base.rates), f.l, f.scale)


@pytest.mark.parametrize("change", ("amplitude", "scale", "r_max", "lam_max", "kappa"))
def test_parseval_check_projects_a_changed_input(monkeypatch, change):
    spec, f = _memo_case()
    lam_max = 12.0 if change == "lam_max" else DEFAULT_LAMBDA_MAX
    check = {
        "amplitude": (spec, _changed(f, 1), MEMO_R_MAX),
        "scale": (spec, f.rescaled(1.5), MEMO_R_MAX),
        "r_max": (spec, f, 21.0),
        "lam_max": (spec, f, MEMO_R_MAX),
        "kappa": (make_extension_spec(1, 2, -0.7), f, MEMO_R_MAX),
    }[change]
    cold = _cold_defect(*check)
    calls = _counted_projections(monkeypatch)
    forward(spec, f, r_max=MEMO_R_MAX, lam_max=lam_max)
    assert parseval_check(*check) == cold
    assert len(calls) == 2


def test_parseval_check_projects_samples_and_callables(monkeypatch):
    spec, f = _memo_case()
    grid = np.linspace(0.01, MEMO_R_MAX, 400)
    sampled = SampledFunction(grid, np.real(eval_radial(f, grid)))
    plain = lambda r: np.real(eval_radial(f, r))
    calls = _counted_projections(monkeypatch)
    forward(spec, f, r_max=MEMO_R_MAX)
    for g in (sampled, plain):
        coeffs = forward(spec, g, r_max=MEMO_R_MAX)
        assert parseval_check(spec, g, r_max=MEMO_R_MAX) == coeffs.parseval_defect
    assert len(calls) == 5


def test_parseval_check_ignores_changes_to_returned_coefficients():
    spec, f = _memo_case()
    coeffs = forward(spec, f, r_max=MEMO_R_MAX)
    defect = coeffs.parseval_defect
    coeffs.c[:] = 0.0
    assert parseval_check(spec, f, r_max=MEMO_R_MAX) == defect
    assert _cold_defect(spec, f, MEMO_R_MAX) == defect


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


# ------------------------------------------------ the per-lambda loop as oracle
# The transform as it was written before the basis was evaluated in blocks: one
# eigenfunction object and one eval_radial call per lambda node.


def _loop_forward(spec, f, r_max, lam_max=DEFAULT_LAMBDA_MAX):
    rn, rw = radial_rule(r_max)
    fv = np.real(eval_radial(f, rn)) * rw
    lam, lw = spectral_rule(r_max, lam_max)
    c = np.empty(lam.shape)
    for i, la in enumerate(lam):
        u = continuous_eigenfunction(spec, la).u
        c[i] = float(np.real(np.sum(eval_radial(u, rn) * fv)))
    b = bound_state(spec)
    cd = None if b is None else float(np.real(np.sum(eval_radial(b.v, rn) * fv)))
    return SpectralCoefficients(lam, lw, c, cd)


def _loop_inverse(spec, coeffs, r_grid):
    acc = np.zeros(r_grid.shape)
    for la, w, ci in zip(coeffs.lam_grid, coeffs.lam_weights, coeffs.c):
        acc += w * ci * np.real(eval_radial(continuous_eigenfunction(spec, la).u, r_grid))
    if coeffs.c_discrete is not None:
        acc += coeffs.c_discrete * np.real(eval_radial(bound_state(spec).v, r_grid))
    return acc


def _loop_parseval(spec, f, r_max):
    rn, rw = radial_rule(r_max)
    norm2 = float(np.sum(rw * np.real(eval_radial(f, rn)) ** 2))
    coeffs = _loop_forward(spec, f, r_max)
    total = float(np.sum(coeffs.lam_weights * coeffs.c**2))
    if coeffs.c_discrete is not None:
        total += coeffs.c_discrete**2
    return abs(norm2 - total) / norm2


def _loop_apply(spec, phi, f, r_grid, r_max, lam_max):
    coeffs = _loop_forward(spec, f, r_max, lam_max)
    mapped = np.real(np.array([phi(la**6) for la in coeffs.lam_grid]) * coeffs.c)
    out = _loop_inverse(
        spec, SpectralCoefficients(coeffs.lam_grid, coeffs.lam_weights, mapped), r_grid
    )
    if coeffs.c_discrete is not None:
        b = bound_state(spec)
        out = out + np.real(coeffs.c_discrete * phi(b.energy) * eval_radial(b.v, r_grid))
    return out


def _rel(got, ref):
    return float(np.max(np.abs(np.asarray(got) - ref)) / np.max(np.abs(ref)))


ORACLE_CASES = ((1, 1, 0.7), (1, 2, -0.8), (2, 1, "inf"), (2, 2, 0.0), (2, 2, -1.1))


@pytest.mark.parametrize("l,xi,kappa", ORACLE_CASES)
def test_blocked_transform_matches_loop(l, xi, kappa):
    spec = make_extension_spec(l, xi, kappa)
    f = domain_test_function(spec, 2, 1.5)
    r_max = 20.9
    coeffs = forward(spec, f, r_max=r_max)
    ref = _loop_forward(spec, f, r_max)
    assert np.array_equal(coeffs.lam_grid, ref.lam_grid)
    assert _rel(coeffs.c, ref.c) <= 1e-12
    assert (coeffs.c_discrete is None) == (ref.c_discrete is None)
    if ref.c_discrete is not None:
        assert abs(coeffs.c_discrete - ref.c_discrete) <= 1e-12 * abs(ref.c_discrete)
    rec = inverse(spec, coeffs, R_GRID)
    assert _rel(rec.values, _loop_inverse(spec, coeffs, R_GRID)) <= 1e-12
    # both defects are relative to ||f||^2, so this bounds the change in
    # int c^2 + c_d^2 relative to ||f||^2
    assert abs(parseval_check(spec, f, r_max=r_max) - _loop_parseval(spec, f, r_max)) <= 1e-12


def test_blocked_transform_matches_loop_across_r_tiles():
    # more radial points than one tile holds: forward sums c(lambda) over the
    # r tiles, inverse fills the grid tile by tile
    spec = make_extension_spec(2, 2, -1.1)
    f = domain_test_function(spec, 0, 0.6)
    grid = np.linspace(0.05, 40.0, 1500)
    tile = spectrum._BLOCK_BYTES // 32 // spectrum._MIN_ROWS
    assert radial_rule(45.0)[0].size > tile and grid.size > tile
    coeffs = forward(spec, f, r_max=45.0, lam_max=1.0)
    assert _rel(coeffs.c, _loop_forward(spec, f, 45.0, 1.0).c) <= 1e-12
    assert _rel(inverse(spec, coeffs, grid).values, _loop_inverse(spec, coeffs, grid)) <= 1e-12


@pytest.mark.parametrize("l,xi,kappa", ((2, 1, 0.4), (1, 1, -1.0)))
def test_blocked_apply_function_matches_loop(l, xi, kappa):
    spec = make_extension_spec(l, xi, kappa)
    f = domain_test_function(spec, 4, 3.0)
    grid = np.linspace(0.05, 8.0, 60)
    phi = lambda x: 1.0 / (2.0 + x)
    out = apply_function(spec, phi, f, r_grid=grid, r_max=12.0, lam_max=10.0)
    assert _rel(out.values, _loop_apply(spec, phi, f, grid, 12.0, 10.0)) <= 1e-12


def test_transform_builds_no_per_lambda_eigenfunctions(monkeypatch):
    # forward and inverse evaluate the basis in blocks; building one
    # eigenfunction object per lambda node is the loop they replace
    def per_lambda(*args):
        raise AssertionError("continuous_eigenfunction called per lambda node")

    monkeypatch.setattr(spectrum, "continuous_eigenfunction", per_lambda)
    monkeypatch.setattr(transform, "continuous_eigenfunction", per_lambda, raising=False)
    spec = make_extension_spec(1, 2, -0.8)
    f = domain_test_function(spec, 0, 3.0)
    coeffs = forward(spec, f, r_max=10.0, lam_max=2.0)
    rec = inverse(spec, coeffs, np.linspace(0.1, 5.0, 20))
    assert np.all(np.isfinite(coeffs.c)) and np.all(np.isfinite(rec.values))


def test_forward_factors_most_of_the_basis(monkeypatch):
    # the factored sums must carry the shared panels: a slip in detecting them
    # falls back to the tiles everywhere, with the same values and no error.
    # Count the (lambda, r) pairs the tiles evaluate on the benchmark's
    # largest grid (r_max 70.6), through the pair exponentials and the origin
    # series; the factors E and D of the factored sums are counted apart and
    # left out.  About a fifth stay on the tiles in a slot-0 forward, and
    # about a quarter in its 500-point inverse on (0.05, 30)
    pairs, near, factored = [], [], []

    def exponentials(theta, tilt):
        pairs.append(theta.size)
        return pair_exponentials(theta, tilt)

    def series(r, coefs):
        near.append(coefs.shape[0] * r.size)
        pairs.append(near[-1])
        return eval_series(r, coefs)

    def tiles(self, tilt, r):
        for cols, e, d in factor_tiles(self, tilt, r):
            factored.append(e[0].size + d[0].size)
            yield cols, e, d

    pair_exponentials, eval_series = spectrum._pair_exponentials, spectrum._eval_series
    factor_tiles = spectrum._SharedPanels.tiles
    monkeypatch.setattr(spectrum, "_pair_exponentials", exponentials)
    monkeypatch.setattr(spectrum, "_eval_series", series)
    monkeypatch.setattr(spectrum._SharedPanels, "tiles", tiles)
    # the basis evaluates its pairs with _pair_exponentials alone
    assert not hasattr(spectrum, "_eval_terms")
    spec = make_extension_spec(2, 2, 0.0)
    f = domain_test_function(spec, 1, 0.4)
    coeffs = forward(spec, f)
    n_r = radial_rule(transform._default_r_max(f))[0].size
    assert n_r == 1704
    # the counters see the basis: the series pairs go through _eval_series
    assert sum(near) > 0
    assert 0 < sum(factored) < sum(pairs)
    assert sum(pairs) - sum(factored) <= coeffs.lam_grid.size * n_r / 5
    pairs.clear()
    near.clear()
    factored.clear()
    inverse(spec, coeffs, np.linspace(0.05, 30.0, 500))
    assert sum(near) > 0
    assert 0 < sum(factored) < sum(pairs)
    assert sum(pairs) - sum(factored) <= coeffs.lam_grid.size * 500 * 3 / 10
