import numpy as np
import pytest

from radialspec import (
    DomainError,
    InvalidInput,
    PoleError,
    SectorError,
    apply_resolvent,
    check_membership,
    coefficients_closed_form,
    coefficients_oracle,
    domain_test_function,
    eval_radial,
    h_solution,
    jet_at_origin,
    kernel,
    make_extension_spec,
    pole_location,
    wronskian,
    wronskian_numeric,
)
from radialspec.rayleigh import t3_termwise
from radialspec.resolvent import (
    PRINTED_TABLE_ERRATA,
    _kernel_setup,
    basis_d,
    basis_g,
    cross_relation_residuals,
    g_rate,
    validate_sector,
)

ALL_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
Z_SAMPLES = (1.0 * np.exp(0.3j), 0.7 * np.exp(1j * np.pi / 3 * 0.8), 2.1 * np.exp(0.05j))


def _phase(x):
    return np.exp(1j * np.pi * x)


def test_validate_sector():
    validate_sector(np.exp(1j * np.pi / 6))
    with pytest.raises(SectorError):
        validate_sector(1.0)
    with pytest.raises(SectorError):
        validate_sector(1j)
    with pytest.raises(SectorError):
        validate_sector(0.0)
    validate_sector(1.0, allow_boundary=True)
    validate_sector(np.exp(1j * np.pi / 3), allow_boundary=True)


def test_basis_solves_second_order_equation():
    # g_k satisfies f'' = (L/r^2 - e^{2 pi i k/3} z^2) f; check via the sixth power
    z = 0.9 * np.exp(0.4j)
    for l in (1, 2):
        for k in range(3):
            g = basis_g(l, z, k)
            r = np.linspace(0.5, 4.0, 9)
            lhs = eval_radial(t3_termwise(g), r)
            rhs = z**6 * eval_radial(g, r)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_basis_decay_and_growth():
    z = np.exp(0.3j)
    for k in range(3):
        g = basis_g(1, z, k)
        d = basis_d(1, z, k)
        assert np.real(g.base.rates[0]) < 0
        assert np.real(d.base.rates[0]) > 0
    with pytest.raises(InvalidInput):
        basis_g(1, z, 3)


@pytest.mark.parametrize("z", Z_SAMPLES)
@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("r", [0.5, 1.0, 7.0])
def test_wronskian_closed_form(z, l, k, r):
    w = wronskian(l, z, k)
    wn = wronskian_numeric(l, z, k, r)
    assert abs(w - wn) < 1e-10 * abs(w)


def test_wronskian_anchor_values():
    assert abs(wronskian(1, 1.0, 0) + 2j) < 1e-15
    assert abs(wronskian(2, 1.0, 1) - 2j * _phase(2 / 3)) < 1e-15


def test_coefficients_kappa_zero_first_family():
    z = np.exp(0.25j)
    c = coefficients_closed_form(make_extension_spec(1, 1, 0.0), z)
    assert abs(c.alpha[0] + 1.0) < 1e-14
    assert np.max(np.abs(c.beta)) < 1e-14
    assert np.max(np.abs(c.gamma)) < 1e-14


def test_coefficients_anchor_12():
    kappa, z = 0.8, np.exp(0.25j)
    c = coefficients_closed_form(make_extension_spec(2, 1, kappa), z)
    p = 2.0 * z + 3.0 * _phase(1 / 6) * kappa
    assert abs(c.alpha[1] - 3.0 * _phase(7 / 6) * kappa / p) < 1e-14


@pytest.mark.parametrize("l,xi", ALL_PAIRS)
@pytest.mark.parametrize("kappa", [0.0, 1.1, -0.7, "inf"])
@pytest.mark.parametrize("z", Z_SAMPLES)
def test_closed_form_matches_oracle(l, xi, kappa, z):
    if kappa == "inf" and l == 1:
        return
    spec = make_extension_spec(l, xi, kappa)
    c = coefficients_closed_form(spec, z)
    o = coefficients_oracle(spec, z)
    for a, b in ((c.alpha, o.alpha), (c.beta, o.beta), (c.gamma, o.gamma)):
        assert np.max(np.abs(a - b)) < 1e-9 * (1.0 + np.max(np.abs(b)))


def test_errata_record_disagrees_with_oracle():
    assert len(PRINTED_TABLE_ERRATA) == 5
    from radialspec.resolvent import CLOSED_TABLE

    names = ("alpha", "beta", "gamma")
    for ((xi, l), k, name), printed in PRINTED_TABLE_ERRATA.items():
        frozen = CLOSED_TABLE[(xi, l)][k][names.index(name)]
        assert printed != frozen


@pytest.mark.parametrize("l,xi", ALL_PAIRS)
@pytest.mark.parametrize("z", Z_SAMPLES)
def test_cross_relations(l, xi, z):
    spec = make_extension_spec(l, xi, 0.9)
    assert np.max(cross_relation_residuals(spec, z)) < 1e-10


@pytest.mark.parametrize("l,xi", ALL_PAIRS)
def test_h_solution_membership_and_equation(l, xi):
    z = 0.8 * np.exp(0.35j)
    spec = make_extension_spec(l, xi, 1.3)
    for k in range(3):
        h = h_solution(spec, z, k)
        ok, _ = check_membership(spec, jet_at_origin(h))
        assert ok
        r = np.linspace(0.4, 3.0, 9)
        lhs = eval_radial(t3_termwise(h), r)
        rhs = z**6 * eval_radial(h, r)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(1.0 + np.abs(rhs))


def test_kernel_symmetry_and_split():
    z = 1.1 * np.exp(0.3j)
    spec = make_extension_spec(2, 1, -0.6)
    a = kernel(spec, z, 0.7, 2.3)
    b = kernel(spec, z, 2.3, 0.7)
    assert a.total == b.total
    assert abs(a.total - (a.R0 + a.R1 + a.R2 + a.Rg)) < 1e-15 * abs(a.total)


def test_kernel_rejects_bad_points():
    spec = make_extension_spec(1, 1, 0.0)
    with pytest.raises(DomainError):
        kernel(spec, np.exp(0.3j), 0.0, 1.0)


def test_pole_location_and_error():
    spec = make_extension_spec(1, 1, -1.0)
    zp = pole_location(spec)
    assert abs(zp - (2.0 / 3.0) * _phase(1 / 6)) < 1e-14
    with pytest.raises(PoleError) as exc:
        kernel(spec, zp, 1.0, 2.0)
    assert abs(exc.value.pole - zp) < 1e-14
    assert pole_location(make_extension_spec(1, 1, 1.0)) is None
    assert pole_location(make_extension_spec(2, 2, "inf")) is None


def test_kernel_bounded_near_pole():
    # |R| * |z - z_p| stays bounded approaching the simple pole
    spec = make_extension_spec(2, 1, -0.5)
    zp = pole_location(spec)
    vals = []
    for eps in (1e-2, 1e-3, 1e-4):
        z = zp * (1.0 + eps)
        vals.append(abs(kernel(spec, z, 1.0, 2.0).total) * abs(z - zp))
    assert max(vals) / min(vals) < 1.2


def test_apply_resolvent_zero_function():
    spec = make_extension_spec(1, 2, 0.4)
    z = np.exp(0.3j)
    out = apply_resolvent(spec, z, lambda s: np.zeros_like(s), np.array([0.5, 1.5]))
    assert np.max(np.abs(out)) == 0.0


def test_apply_resolvent_matches_kernel_quadrature():
    # independent check at one point against direct kernel integration
    from radialspec.quadrature import panel_rule

    spec = make_extension_spec(1, 1, 0.7)
    z = 0.9 * np.exp(0.4j)
    f = lambda s: np.exp(-s) * s**2
    r0 = 1.3
    x, w = panel_rule(0.0, 45.0, 160)
    direct = np.sum(w * np.array([kernel(spec, z, r0, si).total for si in x]) * f(x))
    fast = apply_resolvent(spec, z, f, r0)
    assert abs(fast - direct) < 1e-8 * (1.0 + abs(direct))


def test_g_rate_sector_geometry():
    z = np.exp(0.2j)
    for k in range(3):
        assert np.real(g_rate(z, k)) < 0


# ------------------------------------------------ separable apply_resolvent

SPECS = [
    (l, xi, kappa)
    for l, xi in ALL_PAIRS
    for kappa in (0.8, 0.0, -1.0) + (("inf",) if l == 2 else ())
]
Z_APPLY = 0.9 * np.exp(1j * np.pi / 7)


def _loop_apply_resolvent(spec, z, f, r, r_max=None):
    """The per-point quadrature apply_resolvent replaced, kept as the oracle:
    fresh Gauss panels over (0, r_i) and (r_i, r_max) for every output point,
    8 of them per unit of r whatever z is."""
    from radialspec.quadrature import panel_rule

    rr = np.atleast_1d(np.asarray(r, np.float64))
    if r_max is None:
        r_max = 40.0 / min(-np.real(g_rate(z, k)) for k in range(3))
    out = np.zeros(rr.shape, np.complex128)
    for k in range(3):
        ck = _phase(2 * k / 3) / (3.0 * z**4 * wronskian(spec.l, z, k))
        gk = basis_g(spec.l, z, k)
        hk = h_solution(spec, z, k)
        for i, ri in enumerate(rr):
            x1, w1 = panel_rule(0.0, ri, max(8, int(np.ceil(ri * 8))))
            inner = np.sum(w1 * eval_radial(hk, x1) * f(x1))
            x2, w2 = panel_rule(ri, r_max, max(8, int(np.ceil((r_max - ri) * 8))))
            tail = np.sum(w2 * eval_radial(gk, x2) * f(x2))
            out[i] += ck * (eval_radial(gk, ri) * inner + eval_radial(hk, ri) * tail)
    return out


def _real_test_function(spec, index=1):
    f = domain_test_function(spec, index)
    return lambda s: np.real(eval_radial(f, s))


# the panel width follows |z| + 24, while the oracle keeps 8 panels per unit
@pytest.mark.parametrize(
    "z", [Z_APPLY, 0.3 * np.exp(1j * np.pi / 7), 3.0 * np.exp(1j * np.pi / 7)], ids=["z0.9", "z0.3", "z3"]
)
@pytest.mark.parametrize("l,xi,kappa", SPECS)
def test_apply_resolvent_matches_per_point_loop(l, xi, kappa, z):
    spec = make_extension_spec(l, xi, kappa)
    f = _real_test_function(spec)
    # unsorted, with a repeat, one point below r_switch of h_k
    r = np.array([1.3, 0.4, 2.0, 0.4, 5.5, 0.05])
    got = apply_resolvent(spec, z, f, r)
    ref = _loop_apply_resolvent(spec, z, f, r)
    assert got.shape == r.shape
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
    assert got[1] == got[3]
    one = apply_resolvent(spec, z, f, 2.0)
    assert np.isscalar(one)
    assert abs(one - ref[2]) <= 1e-11 * np.max(np.abs(ref))


def test_apply_resolvent_samples_f_once():
    spec = make_extension_spec(2, 1, 0.8)
    f = _real_test_function(spec)
    calls = []

    def counted(s):
        calls.append(np.size(s))
        return f(s)

    apply_resolvent(spec, Z_APPLY, counted, np.linspace(0.5, 6.0, 40))
    assert len(calls) == 1


def test_apply_resolvent_large_r_is_finite():
    # d_k and h_k grow like e^{0.35 r}: the unscaled products overflow at r ~ 2000
    from radialspec.quadrature import panel_rule

    spec = make_extension_spec(2, 2, 0.8)
    f = lambda s: np.exp(-0.125 * (s - 1500.0) ** 2)
    r = np.array([1497.0, 1500.0, 1503.0])
    got = apply_resolvent(spec, Z_APPLY, f, r, r_max=2500.0)
    assert np.all(np.isfinite(got))
    for ri, ui in zip(r, got):
        direct = 0.0
        for a, b in ((1470.0, ri), (ri, 1530.0)):
            x, w = panel_rule(a, b, 60)
            direct += np.sum(w * kernel(spec, Z_APPLY, ri, x).total * f(x))
        assert abs(ui - direct) <= 1e-9 * abs(direct)


def _mp_kernel(spec, z, r, s):
    """The closed form of kernel() in 50-digit arithmetic, unscaled."""
    import mpmath as mp
    c = coefficients_closed_form(spec, z)
    with mp.workdps(50):
        lo, hi = mp.mpf(min(r, s)), mp.mpf(max(r, s))

        def dl(chi, x):
            p = chi - 1 / x if spec.l == 1 else chi**2 - 3 * chi / x + 3 / x**2
            return p * mp.exp(chi * x)

        total = 0
        for k in range(3):
            ck = mp.mpc(_phase(2 * k / 3) / (3.0 * z**4 * wronskian(spec.l, z, k)))
            chi = [mp.mpc(g_rate(z, (k + m) % 3)) for m in range(3)]
            h = dl(-chi[0], lo) + sum(
                mp.mpc(coef[k]) * dl(chi[m], lo)
                for m, coef in enumerate((c.alpha, c.beta, c.gamma))
            )
            total += ck * h * dl(chi[0], hi)
        return complex(total)


@pytest.mark.parametrize("l,xi,kappa", [(1, 1, 0.8), (1, 2, -1.0), (2, 1, 0.0), (2, 2, "inf")])
def test_kernel_large_r_matches_mpmath(l, xi, kappa):
    spec = make_extension_spec(l, xi, kappa)
    kv = kernel(spec, Z_APPLY, 900.0, 901.0)
    assert np.isfinite(kv.total)
    ref = _mp_kernel(spec, Z_APPLY, 900.0, 901.0)
    assert abs(kv.total - ref) <= 1e-10 * abs(ref)


# every (l, xi) family with kappa > 0, = 0, < 0, and infinity where l = 2
BROADCAST_SPECS = [
    (l, xi, kappa)
    for l, xi in ALL_PAIRS
    for kappa in (0.8, 0.0, -0.6, "inf")
    if l == 2 or kappa != "inf"
]
# z near both sector edges and inside it; the two closed-boundary z that
# spectrum passes with allow_boundary=True, arg z = 0 and arg z = pi/3
BROADCAST_Z = [
    (1.1 * np.exp(0.3j), False),
    (0.8 * np.exp(1e-4j), False),
    (1.3 * np.exp(1j * (np.pi / 3 - 1e-4)), False),
    (complex(0.9), True),
    (0.9 * np.exp(1j * np.pi / 3), True),
]
# a scalar r or s as each type a caller may pass
SCALAR_TYPES = (float, np.float64, np.array)


@pytest.mark.parametrize("l,xi,kappa", BROADCAST_SPECS)
def test_kernel_broadcast_equals_scalar_calls(l, xi, kappa):
    spec = make_extension_spec(l, xi, kappa)
    names = ("total", "R0", "R1", "R2", "Rg")
    grid = np.linspace(0.1, 6.0, 7)
    for z, allow_boundary in BROADCAST_Z:
        kv = kernel(spec, z, grid[:, None], grid[None, :], allow_boundary)
        assert kv.total.shape == (7, 7)
        row = kernel(spec, z, grid, 1.7, allow_boundary)
        for i, r in enumerate(grid):
            # j = i is r == s; the grid's transpose covers the swapped pair
            for j, s in enumerate(grid):
                one = kernel(spec, z, float(r), float(s), allow_boundary)
                swapped = kernel(spec, z, float(s), float(r), allow_boundary)
                for name in names:
                    assert type(getattr(one, name)) is complex
                    assert getattr(one, name) == getattr(kv, name)[i, j]
                    assert getattr(swapped, name) == getattr(kv, name)[j, i]
                    assert getattr(swapped, name) == getattr(one, name)
            assert kernel(spec, z, float(r), 1.7, allow_boundary).total == row.total[i]
        for make in SCALAR_TYPES:
            one = kernel(spec, z, make(grid[2]), make(grid[5]), allow_boundary)
            for name in names:
                assert type(getattr(one, name)) is complex
                assert getattr(one, name) == getattr(kv, name)[2, 5]
        # integer points, also as a 0-d integer array
        ints = np.array([2.0, 3.0])
        kv = kernel(spec, z, ints[:, None], ints[None, :], allow_boundary)
        for make in SCALAR_TYPES + (int,):
            one = kernel(spec, z, make(2), make(3), allow_boundary)
            for name in names:
                assert type(getattr(one, name)) is complex
                assert getattr(one, name) == getattr(kv, name)[0, 1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0])
def test_kernel_rejects_nonfinite_points(bad):
    spec = make_extension_spec(2, 1, 0.5)
    z = np.exp(0.3j)
    for make in SCALAR_TYPES:
        # a bad r or a bad s, each beside a good point below and above it
        for good in (0.5, 2.0):
            with pytest.raises(DomainError):
                kernel(spec, z, make(bad), make(good))
            with pytest.raises(DomainError):
                kernel(spec, z, make(good), make(bad))
    with pytest.raises(DomainError):
        kernel(spec, z, 1.0, np.array([0.5, bad]))
    with pytest.raises(DomainError):
        kernel(spec, z, np.array([0.5, bad]), 1.0)


@pytest.mark.parametrize(
    "kwargs,error",
    [
        ({"r": np.array([0.5, np.nan])}, DomainError),
        ({"r": np.inf}, DomainError),
        ({"r_max": np.nan}, DomainError),
        ({"r_max": 2.0}, DomainError),
        ({"r_max": 1.5}, DomainError),
    ],
)
def test_apply_resolvent_rejects_bad_input(kwargs, error):
    spec = make_extension_spec(1, 1, 0.7)
    args = {"r": np.array([0.5, 2.0]), **kwargs}
    calls = []
    with pytest.raises(error):
        apply_resolvent(spec, np.exp(0.3j), lambda s: calls.append(s) or np.exp(-s), **args)
    assert calls == []


# ------------------------------------ cancellation factor and the (spec, z) set-up

CANCELLATION_CASES = [(2, 1, 0.3), (2, 1, 1.2), (2, 2, "inf"), (1, 1, 0.7), (1, 2, -0.8), (2, 2, 0.5)]
CANCELLATION_POINTS = [(0.1, 0.1), (0.2, 0.25), (0.5, 0.6), (1.0, 2.0), (3.0, 5.0)]


@pytest.mark.parametrize("l,xi,kappa", CANCELLATION_CASES)
def test_kernel_cancellation_bounds_the_error(l, xi, kappa):
    spec = make_extension_spec(l, xi, kappa)
    eps = np.finfo(np.float64).eps
    for r, s in CANCELLATION_POINTS:
        kv = kernel(spec, Z_APPLY, r, s)
        ref = _mp_kernel(spec, Z_APPLY, r, s)
        assert abs(kv.total - ref) <= 2 * eps * kv.cancellation * abs(ref)
    assert kernel(spec, Z_APPLY, 3.0, 5.0).cancellation < 2


def test_kernel_cancellation_flags_the_origin_elementwise():
    spec = make_extension_spec(2, 1, 0.3)
    near = kernel(spec, Z_APPLY, 0.1, 0.1).cancellation
    far = kernel(spec, Z_APPLY, 3.0, 5.0).cancellation
    assert near > 1e10
    both = kernel(spec, Z_APPLY, np.array([0.1, 3.0]), np.array([0.1, 5.0])).cancellation
    assert both.shape == (2,)
    assert both == pytest.approx([near, far], rel=1e-15)


def test_setup_caches_are_bounded():
    from radialspec import resolvent

    assert 0 < _kernel_setup.cache_info().maxsize <= 64
    # the (spec, z) set-up is the module's one cache
    cached = [
        v for v in vars(resolvent).values()
        if hasattr(v, "cache_info") and v.__module__ == resolvent.__name__
    ]
    assert cached == [_kernel_setup]


def test_kernel_grid_builds_the_setup_once():
    spec = make_extension_spec(2, 2, 0.5)
    z = 1.05 * np.exp(0.45j)
    grid = np.linspace(0.2, 4.0, 20)

    def misses_of_a_grid():
        before = _kernel_setup.cache_info().misses
        for r in grid:
            for s in grid:
                kernel(spec, z, float(r), float(s))
        return [_kernel_setup.cache_info().misses - before]

    assert misses_of_a_grid() == [1]
    assert misses_of_a_grid() == [0]


def _setup_values(spec, z):
    """Bytes of everything built from the (spec, z) set-up."""
    f = _real_test_function(spec)
    r = np.array([0.3, 1.1, 2.5])
    c = coefficients_closed_form(spec, z)
    grid = kernel(spec, z, r[:, None], r[None, :])
    one = kernel(spec, z, 0.7, 1.9)
    return [
        c.alpha.tobytes(), c.beta.tobytes(), c.gamma.tobytes(), complex(c.p),
        *(getattr(grid, name).tobytes() for name in ("total", "R0", "R1", "R2", "Rg")),
        one.total, one.R0, one.R1, one.R2, one.Rg,
        apply_resolvent(spec, z, f, r).tobytes(),
    ]


def _cold_values(spec, z):
    _kernel_setup.cache_clear()
    return _setup_values(spec, z)


def test_cached_setup_equals_a_cold_build_per_z_type():
    spec = make_extension_spec(2, 1, -0.6)
    z = 0.95 * np.exp(0.7j)
    cold = {t: _cold_values(spec, t(z)) for t in (complex, np.complex128)}
    # the two types round z**pw differently, so they must not share an entry
    assert cold[complex] != cold[np.complex128]
    _cold_values(spec, complex(z))
    for t in (complex, np.complex128, complex):
        assert _setup_values(spec, t(z)) == cold[t]


def test_setup_errors_are_raised_on_every_call():
    spec = make_extension_spec(1, 1, -1.0)
    zp = pole_location(spec)
    calls = []
    for _ in range(2):
        with pytest.raises(PoleError):
            coefficients_closed_form(spec, zp)
        with pytest.raises(PoleError):
            kernel(spec, zp, 1.0, 2.0)
        # apply_resolvent's set-up lookup comes first: the pole is reported
        # before the bad r, and f is never sampled
        with pytest.raises(PoleError):
            apply_resolvent(spec, zp, lambda s: calls.append(s) or np.exp(-s), np.nan)
        with pytest.raises(SectorError):
            kernel(spec, 1j, 1.0, 2.0)
        with pytest.raises(DomainError):
            kernel(spec, np.exp(0.3j), 0.0, 1.0)
    assert calls == []


def test_coefficient_injection_reaches_a_warm_cache():
    from radialspec.resolvent import set_coefficient_injection

    spec = make_extension_spec(2, 1, 0.8)
    z = 0.85 * np.exp(0.5j)
    f = _real_test_function(spec)
    r = np.array([0.3, 1.1, 2.5])

    def values():
        return (
            coefficients_closed_form(spec, z),
            kernel(spec, z, 0.7, 1.9),
            apply_resolvent(spec, z, f, r).tobytes(),
        )

    clean = values()
    set_coefficient_injection(((spec.xi, spec.l), 0, "alpha"))
    try:
        flipped = values()
    finally:
        set_coefficient_injection(None)
    assert flipped[0].alpha[0] == -clean[0].alpha[0]
    assert flipped[0].beta.tobytes() == clean[0].beta.tobytes()
    assert flipped[1].total != clean[1].total
    assert flipped[2] != clean[2]
    restored = values()
    assert restored[0].alpha.tobytes() == clean[0].alpha.tobytes()
    assert restored[1] == clean[1]
    assert restored[2] == clean[2]


def test_cached_coefficients_are_read_only():
    # the oracle's tables are read-only too, as every CoefficientSet's are
    for tables in (coefficients_closed_form, coefficients_oracle):
        c = tables(make_extension_spec(1, 2, 0.4), np.exp(0.3j))
        for values in (c.alpha, c.beta, c.gamma):
            with pytest.raises(ValueError):
                values[0] = 0.0


# ------------------------------------------------ far factor and memory


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("z", Z_SAMPLES + (Z_APPLY,))
def test_far_factor_equals_the_shifted_closed_form_bit_for_bit(l, z):
    # G_k = g_k e^{-chi_k r} on the Gauss nodes that apply_resolvent
    # integrates over at its default r_max and density: taken as a Horner
    # pass over the set-up's P_g rows, as apply_resolvent takes them, without
    # the e^{0 r} pass, it must not move a value
    from radialspec.quadrature import panel_rule
    from radialspec.rayleigh import _eval_split, _horner_inv

    rates, polys, _, _ = _kernel_setup(make_extension_spec(l, 1, 0.5), z, False)
    chis, polys = rates[:3, 0], polys[:3, 0]
    r_max = 40.0 / min(-chi.real for chi in chis)
    x = panel_rule(0.0, r_max, int(np.ceil(8 * r_max)))[0]
    for k, chi in enumerate(chis):
        gk = basis_g(l, z, k)
        assert np.array_equal(_horner_inv(polys[k], 1.0 / x), _eval_split(gk, x, 0, -chi))


@pytest.mark.parametrize(
    "l,xi,kappa,z,index",
    [(1, 1, 0.5, 1.15 * np.exp(0.15j), 1), (2, 1, -1.0, 0.7 * np.exp(0.25j), 0)],
)
def test_apply_resolvent_memory_is_bounded(l, xi, kappa, z, index):
    # 13 outputs at the default r_max (about 230, 6k nodes): f's samples and
    # the per-term arrays are O(n), and no (n x terms) temporary is whole-grid
    import tracemalloc

    spec = make_extension_spec(l, xi, kappa)
    f = _real_test_function(spec, index)
    r = 1.2 + 0.15 * np.arange(-6.0, 7.0)
    nodes = []
    apply_resolvent(spec, z, lambda s: nodes.append(np.size(s)) or f(s), r)
    # every segment between outputs gets ceil(len / w) 24-node panels of
    # width w = 24 / (|z| + 24), at least one
    r_max = 40.0 / min(-np.real(g_rate(z, k)) for k in range(3))
    lengths = np.diff(np.concatenate(([0.0], r, [r_max])))
    assert nodes == [24 * np.sum(np.maximum(1, np.ceil(lengths / (24.0 / (abs(z) + 24.0)))))]
    tracemalloc.start()
    try:
        apply_resolvent(spec, z, f, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("z", Z_SAMPLES)
def test_kernel_rows_equal_term_data_bit_for_bit(l, z):
    # kernel and eval_radial(basis_g(...)) build D_l e^{+-chi r}'s polynomial
    # factors through one numpy path, so they round alike
    from radialspec.rayleigh import term_data

    rows = _kernel_setup(make_extension_spec(l, 1, 0.5), z, False)[1][:6, 0]
    for k in range(3):
        assert np.array_equal(rows[k], term_data(basis_g(l, z, k))[1][0])
        assert np.array_equal(rows[3 + k], term_data(basis_d(l, z, k))[1][0])


def test_apply_resolvent_factors_its_exponentials(monkeypatch):
    # 13 outputs with r_max = 2000 (about 50k nodes): the segment sums
    # take one complex exponential per panel and per Gauss offset of a
    # segment, not one per node and k.  Counted: the factors, and every
    # term of the closed forms of h_k (inner nodes and outputs) and g_k
    from radialspec import resolvent

    counts, nodes = [], []
    exponentials, eval_split = resolvent._exponentials, resolvent._eval_split

    def counted_exponentials(chis, d):
        counts.append(np.size(chis) * np.size(d))
        return exponentials(chis, d)

    def counted_eval_split(fn, r, order, shift=0.0):
        counts.append(len(fn.base) * np.size(r))
        return eval_split(fn, r, order, shift)

    monkeypatch.setattr(resolvent, "_exponentials", counted_exponentials)
    monkeypatch.setattr(resolvent, "_eval_split", counted_eval_split)
    spec = make_extension_spec(1, 1, 0.5)
    z = 1.15 * np.exp(0.15j)
    f = _real_test_function(spec, 1)
    r = 1.2 + 0.15 * np.arange(-6.0, 7.0)
    got = apply_resolvent(spec, z, lambda s: nodes.append(np.size(s)) or f(s), r, r_max=2000.0)
    n_quad = nodes[0]
    assert n_quad > 40_000
    assert 0 < sum(counts) < 3 * n_quad / 5
    ref = _loop_apply_resolvent(spec, z, f, r[::4], r_max=2000.0)
    assert np.max(np.abs(got[::4] - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_apply_resolvent_is_linear_over_a_complex_f():
    # a complex f takes its real and imaginary rows apart through the tails
    spec = make_extension_spec(2, 2, 0.8)
    f = _real_test_function(spec, 0)
    g = _real_test_function(spec, 2)
    r = np.array([0.3, 1.1, 4.0])
    both = apply_resolvent(spec, Z_APPLY, lambda s: f(s) + 1j * g(s), r)
    parts = apply_resolvent(spec, Z_APPLY, f, r) + 1j * apply_resolvent(spec, Z_APPLY, g, r)
    assert np.max(np.abs(both - parts)) <= 1e-14 * np.max(np.abs(parts))


def test_apply_resolvent_at_the_pole_never_samples_f():
    spec = make_extension_spec(1, 1, -1.0)
    calls = []
    with pytest.raises(PoleError):
        apply_resolvent(spec, pole_location(spec), lambda s: calls.append(s) or s, [0.5, 1.0])
    assert calls == []
