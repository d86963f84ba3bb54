import tracemalloc

import numpy as np
import pytest
import sympy as sp

from radialspec import (
    DomainError,
    continuous_eigenfunction,
    make_extension_spec,
    RadialFunction,
    ExponentialSum,
    SingularityError,
    Unsupported,
    derivative,
    dl_exponential,
    domain_test_function,
    eval_radial,
    jet_at_origin,
    monomial_coefficient,
    origin_series,
    verify_rayleigh,
)
from radialspec.rayleigh import (
    MAX_SERIES_ORDER,
    SERIES_ORDER,
    _BLOCK_BYTES,
    _eval_series,
    _eval_terms,
    asymptotic_check,
    r_switch,
    t3_apply_analytic,
    t3_coefficients,
    t3_termwise,
    term_data,
)


def _symbolic_dl(l):
    # the defining cascade r^{l+1} (1/r d/dr)^l (w/r), as a sympy operator
    r = sp.symbols("r", positive=True)

    def apply(w):
        expr = w / r
        for _ in range(l):
            expr = sp.diff(expr, r) / r
        return sp.simplify(r ** (l + 1) * expr)

    return r, apply


@pytest.mark.parametrize("l", [1, 2])
def test_exponential_closed_form_matches_symbolic_oracle(l):
    r, dl = _symbolic_dl(l)
    chi = sp.Rational(3, 7) + sp.I * sp.Rational(2, 5)
    sym = dl(sp.exp(chi * r))
    for rv in (0.3, 1.0, 4.5):
        expected = complex(sym.subs(r, rv).evalf(20))
        assert abs(dl_exponential(l, complex(chi), rv) - expected) < 1e-12


@pytest.mark.parametrize("l", [1, 2])
def test_t3_expansion_matches_symbolic_oracle(l):
    # the frozen variable-coefficient form of (-d^2/dr^2 + L/r^2)^3
    r = sp.symbols("r", positive=True)
    f = sp.Function("f")
    big_l = l * (l + 1)
    t = lambda u: -sp.diff(u, r, 2) + big_l / r**2 * u
    expanded = sp.expand(t(t(t(f(r)))).doit())
    rebuilt = sum(
        const * r ** (-pw) * sp.diff(f(r), r, order)
        for order, pw, const in t3_coefficients(l)
    )
    assert sp.simplify(expanded - rebuilt) == 0


def test_monomial_coefficient_values():
    assert monomial_coefficient(1, 1) == 0.0
    assert monomial_coefficient(1, 0) == -1.0
    assert monomial_coefficient(2, 2) == -1.0
    assert monomial_coefficient(2, 3) == 0.0


def test_dl_exponential_point_values():
    assert abs(dl_exponential(1, 1.0, 1.0)) < 1e-15
    assert abs(dl_exponential(1, 0.0, 2.0) - (-0.5)) < 1e-15
    assert abs(dl_exponential(2, 0.0, 1.0) - 3.0) < 1e-15


def test_dl_exponential_requires_positive_r():
    with pytest.raises(DomainError):
        dl_exponential(1, 1.0, 0.0)
    with pytest.raises(DomainError):
        dl_exponential(2, 1.0, -1.0)


def test_eval_zero_function():
    f = RadialFunction(ExponentialSum([1.0, -1.0], [0.5, 0.5]), 1)
    assert eval_radial(f, 2.0) == 0.0


def test_eval_at_origin_regular_vs_singular():
    reg = RadialFunction(ExponentialSum([1.0, -1.0], [1.0, -1.0]), 1)
    val = eval_radial(reg, 0.0)
    assert np.isfinite(val)
    sing = RadialFunction(ExponentialSum([1.0], [1.0]), 1)
    with pytest.raises(SingularityError):
        eval_radial(sing, 0.0)


def test_series_closed_form_agreement_band():
    f = RadialFunction(ExponentialSum([1.0, -1.0], [1.3j, -0.8]), 2)
    rs = r_switch(f)
    band = np.linspace(0.6 * rs, 1.8 * rs, 25)
    closed = np.array([np.sum(
        f.scale * f.base.amplitudes * np.array(
            [dl_exponential(2, c, r) for c in f.base.rates])) for r in band])
    assert np.max(np.abs(eval_radial(f, band) - closed)) < 1e-10 * (
        1.0 + np.max(np.abs(closed))
    )


def test_origin_series_modulo_gap():
    # powers congruent to 6-l mod 6 vanish for the six-fold exponent sets
    for l in (1, 2):
        rot = np.exp(1j * np.pi / 3)
        chis = 0.9 * rot ** np.arange(6)
        amps = np.exp(0.3j * np.arange(6))
        amps[0] -= np.sum(amps)
        f = RadialFunction(ExponentialSum(amps, chis), l)
        s = origin_series(f, 16)
        scale = np.max(np.abs(s.coefficients))
        for j in range(17):
            if (j % 6) == (6 - l) % 6:
                assert abs(s.coefficients[j]) < 1e-12 * scale


def test_origin_series_eval_keeps_shape_at_every_order():
    f = RadialFunction(ExponentialSum([1.0, -1.0], [1.1, -0.4]), 2)
    r = np.array([[0.1, 0.2, 0.3], [0.05, 0.15, 0.25]])
    for order in (0, 1, 16):
        s = origin_series(f, order)
        want = sum(s.coefficients[m] * r**m for m in range(order + 1))
        got = s.eval(r)
        assert got.shape == r.shape
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    assert s.eval(0.2) == complex(s.eval(np.array([0.2]))[0])


def _horner(r, coefs):
    """sum_m coefs[..., m] r**m by Horner's rule, one row per leading index."""
    acc = np.zeros(np.shape(coefs)[:-1] + r.shape, np.result_type(coefs, r))
    for c in np.moveaxis(coefs, -1, 0)[::-1]:
        acc = acc * r + np.asarray(c)[..., None]
    return acc


@pytest.mark.parametrize("order", range(MAX_SERIES_ORDER + 1))
def test_eval_series_matches_horner(order):
    # the origin series of continuous eigenfunctions, complex as OriginSeries
    # and real in rows as the basis tiles take them, plus a row with a nonzero
    # constant term, on r from 0 to the smallest r_switch
    spec = make_extension_spec(2, 2, -1.3)
    us = [continuous_eigenfunction(spec, lam).u for lam in (0.3, 1.7, 6.0)]
    r = np.linspace(0.0, min(r_switch(u) for u in us), 41)
    series = [origin_series(u, order) for u in us]
    decay = (0.5 / r[-1]) ** np.arange(order + 1)
    rows = np.vstack(
        [s.coefficients.real for s in series]
        + [np.random.default_rng(order).standard_normal(order + 1) * decay]
    )
    cases = [(s.eval(r), s.coefficients) for s in series]
    cases.append((_eval_series(r, rows), rows))
    for got, coefs in cases:
        # relative to sum_m |c_m| r^m, the size of the terms Horner adds
        scale = _horner(r, np.abs(coefs))
        assert got.shape == np.shape(coefs)[:-1] + r.shape
        assert np.all(got[..., 0] == coefs[..., 0])
        assert np.all(np.abs(got - _horner(r, coefs)) <= 1e-14 * scale)


def test_origin_series_rejects_nonregular():
    f = RadialFunction(ExponentialSum([1.0], [1.0]), 1)
    with pytest.raises(SingularityError):
        origin_series(f)


def test_origin_series_order_cap():
    f = RadialFunction(ExponentialSum([1.0, -1.0], [1.0, -1.0]), 1)
    with pytest.raises(Unsupported):
        origin_series(f, 25)


def test_jet_matches_series():
    f = RadialFunction(ExponentialSum([1.0, -1.0], [1.1, -0.4]), 2)
    j = jet_at_origin(f)
    s = origin_series(f, 5)
    import math

    for k in range(6):
        assert abs(j[k] - math.factorial(k) * s.coefficients[k]) < 1e-14


def test_derivative_against_symbolic():
    r, dl = _symbolic_dl(1)
    chi = 1.0
    f = RadialFunction(ExponentialSum([1.0], [chi]), 1)
    sym = sp.diff(dl(sp.exp(chi * r)), r)
    assert abs(derivative(f, 1.0, 1) - complex(sym.subs(r, 1).evalf(20))) < 1e-12
    assert abs(derivative(f, 1.0, 1) - np.e) < 1e-12


def test_derivative_order_limits():
    f = RadialFunction(ExponentialSum([1.0], [-1.0]), 1)
    assert derivative(f, 1.0, 0) == eval_radial(f, 1.0)
    with pytest.raises(Unsupported):
        derivative(f, 1.0, 7)


@pytest.mark.parametrize(
    "r",
    [np.nan, np.inf, -np.inf, [1.0, np.nan], [np.inf, 0.5],
     [[0.2, 3.0], [-np.inf, 1.0]], [0.5, -1e-300]],
    ids=["nan", "inf", "-inf", "array-nan", "array-inf", "2d-neg-inf", "negative"],
)
def test_eval_and_derivative_reject_r_outside_the_domain(r):
    # a regular base, so r = 0 is allowed and only the bad point fails
    f = RadialFunction(ExponentialSum([1.0, -1.0], [1.3j, -0.8]), 2)
    for call in (lambda: eval_radial(f, r), lambda: derivative(f, r, 0)):
        with pytest.raises(DomainError, match="finite r >= 0"):
            call()
    for order in (1, 3, 6):
        with pytest.raises(DomainError, match="finite r > 0"):
            derivative(f, r, order)


def test_derivative_rejects_zero_and_empty_r_keeps_its_shape():
    f = RadialFunction(ExponentialSum([1.0, -1.0], [1.3j, -0.8]), 2)
    with pytest.raises(DomainError):
        derivative(f, [0.0, 1.0], 2)
    for order in (0, 2):
        got = derivative(f, np.empty((0, 3)), order)
        assert got.shape == (0, 3) and got.dtype == np.complex128


def test_derivative_near_origin_series_path():
    f = RadialFunction(ExponentialSum([1.0, -1.0], [2.0, -2.0]), 1)
    rs = r_switch(f)
    h = 1e-6
    r0 = 0.5 * rs
    fd = (eval_radial(f, r0 + h) - eval_radial(f, r0 - h)) / (2 * h)
    assert abs(derivative(f, r0, 1) - fd) < 1e-7 * (1 + abs(fd))


def test_rayleigh_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        l = int(rng.integers(1, 3))
        chi = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        r = float(rng.uniform(0.1, 10.0))
        assert verify_rayleigh(l, chi, r) < 1e-10


def test_rayleigh_identity_constant():
    assert verify_rayleigh(1, 0.0, 1.0) < 1e-10


def test_linearity():
    rng = np.random.default_rng(5)
    f = RadialFunction(ExponentialSum([1.0, -0.5], [-1.0, -2.0]), 1)
    g = RadialFunction(ExponentialSum([0.3], [-0.7]), 1)
    a, b = 1.7, -0.9
    r = rng.uniform(0.1, 5.0, 20)
    lhs = eval_radial(a * f + b * g, r)
    rhs = a * eval_radial(f, r) + b * eval_radial(g, r)
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(1 + np.abs(rhs))


def test_asymptotic_check_decay_law():
    f = RadialFunction(ExponentialSum([1.0], [-1.0]), 1)
    assert asymptotic_check(f, 100.0) < 2e-2
    r1, r2 = 40.0, 80.0
    ratio = asymptotic_check(f, r2) / asymptotic_check(f, r1)
    assert abs(ratio - 0.5) < 0.2 * 0.5


def test_t3_termwise_matches_expanded_operator():
    f = RadialFunction(ExponentialSum([1.0, -1.0], [1.2j, -0.9]), 2)
    r = np.linspace(0.4, 3.0, 11)
    lhs = eval_radial(t3_termwise(f), r)
    rhs = t3_apply_analytic(f, r)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(1 + np.abs(lhs))


# ------------------------------------------------ tiles and the real path


def _untiled_eval_terms(r, rates, polys):
    """The closed-form evaluator without tiles: whole-grid (terms x points)
    temporaries in the per-point order of the tiles (Horner in 1/r per term,
    times the exponential, then a sum over the terms in term order), kept as
    the reference the tiles must reproduce bit for bit.

    The exponential is named: as an unnamed temporary of 256 KiB or more,
    numpy's temporary elision computes the product in place as exp * q, and
    its SIMD complex multiply rounds exp * q and q * exp differently, so the
    values of the untiled product would depend on the size of the grid."""
    inv = 1.0 / r
    npow = polys.shape[-1]
    shape = rates.shape + r.shape
    q = np.broadcast_to(polys[..., None, npow - 1], shape).copy()
    for j in range(npow - 2, -1, -1):
        q = q * inv + polys[..., None, j]
    e = np.exp(rates[..., None] * r)
    terms = q * e
    out = terms[..., 0, :]
    for k in range(1, rates.shape[-1]):
        out = out + terms[..., k, :]
    return out


def _points_by_terms_eval(r, rates, polys):
    """The evaluator's former layout, whole-grid (points x terms), summed by
    np.sum along the terms: for 8 or more terms numpy adds them pairwise,
    not in term order, so its values differ from the tiles' at rounding
    level, within 4 eps times the sum of the terms' moduli."""
    inv = 1.0 / r[:, None]
    q = polys[..., None, :, -1]
    for j in range(polys.shape[-1] - 2, -1, -1):
        q = q * inv + polys[..., None, :, j]
    e = np.exp(r[:, None] * rates[..., None, :])
    terms = q * e
    return np.sum(terms, axis=-1), np.sum(np.abs(terms), axis=-1)


# (leading axes, terms K, coefficients P); K = 1 with no leading axes is
# the dl_exponential path
TERM_SHAPES = [((), 8, 3), ((), 1, 2), ((3,), 4, 2), ((2, 2), 3, 5)]


@pytest.mark.parametrize("lead,nterms,npow", TERM_SHAPES)
@pytest.mark.parametrize("tiles", ["tile-1", "tile", "tile+1", "3tile+5"])
def test_tiled_eval_terms_equals_untiled_bit_for_bit(lead, nterms, npow, tiles):
    rng = np.random.default_rng(len(lead) + nterms)
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rates = cplx(*lead, nterms) - 2.0
    polys = cplx(*lead, nterms, npow)
    tile = _BLOCK_BYTES // (16 * rates.size)
    n = {"tile-1": tile - 1, "tile": tile, "tile+1": tile + 1, "3tile+5": 3 * tile + 5}[tiles]
    r = np.sort(rng.uniform(0.05, 12.0, n))
    got = _eval_terms(r, rates, polys)
    assert got.shape == lead + (n,)
    assert np.array_equal(got, _untiled_eval_terms(r, rates, polys))
    old, size = _points_by_terms_eval(r, rates, polys)
    assert np.all(np.abs(got - old) <= 4.0 * np.finfo(float).eps * size)


def _kappa_classes(l):
    return (0.7, 0.0, -1.2) + (("inf",) if l == 2 else ())


@pytest.mark.parametrize(
    "l,xi,kappa",
    [(l, xi, k) for l in (1, 2) for xi in (1, 2) for k in _kappa_classes(l)],
)
def test_domain_test_function_runs_in_real_arithmetic(l, xi, kappa):
    f = domain_test_function(make_extension_spec(l, xi, kappa))
    rates, polys = term_data(f)
    assert rates.dtype == polys.dtype == np.float64
    r = np.linspace(0.0 if f.regular_at_origin else 0.01, 40.0, 600).reshape(20, 30)
    got = eval_radial(f, r)
    assert got.dtype == np.complex128 and got.shape == r.shape
    assert np.all(got.imag == 0.0)
    one = eval_radial(f, 1.3)
    assert type(one) is complex and one.imag == 0.0
    # the closed form, against the same sum in complex arithmetic, relative
    # to the size of its terms
    far = r.ravel() > (r_switch(f) if f.regular_at_origin else 0.0)
    x = r.ravel()[far]
    ref = _eval_terms(x, rates.astype(complex), polys.astype(complex))
    powers = (1.0 / x[:, None, None]) ** np.arange(polys.shape[-1])
    terms = np.sum(polys * powers, axis=-1) * np.exp(x[:, None] * rates)
    bound = 4.0 * np.finfo(float).eps * np.sum(np.abs(terms), axis=-1)
    assert np.all(np.abs(got.ravel()[far] - ref) <= bound)


def test_complex_rate_or_scale_takes_the_complex_path():
    spec = make_extension_spec(2, 1, 0.7)
    f = domain_test_function(spec)
    # above every r_switch, so eval_radial is the closed form alone
    r = np.linspace(1.0, 20.0, 50)
    mixed = f + RadialFunction(ExponentialSum([1e-3], [-1.0 + 0.5j]), 2)
    for g in (f.rescaled(1j), mixed, continuous_eigenfunction(spec, 0.9).u):
        rates, polys = term_data(g)
        assert rates.dtype == polys.dtype == np.complex128
        got = eval_radial(g, r)
        assert np.array_equal(got, _untiled_eval_terms(r, rates, polys))
        old, size = _points_by_terms_eval(r, rates, polys)
        assert np.all(np.abs(got - old) <= 4.0 * np.finfo(float).eps * size)


def test_eval_radial_memory_is_bounded_by_the_tiles():
    # the 45k nodes apply_resolvent samples f on at its default r_max for
    # |z| = 1.15, arg z = 0.15; whole-grid complex temporaries took 18.9 MB
    f = domain_test_function(make_extension_spec(2, 1, 0.3))
    r = np.linspace(0.01, 235.0, 45_000)
    eval_radial(f, r[:10])
    tracemalloc.start()
    try:
        eval_radial(f, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


# ------------------------------------------------ the evaluation set-up


def _setup_cases():
    """Real and complex closed forms, regular and not."""
    test_f = domain_test_function(make_extension_spec(2, 1, 0.7))
    return [
        pytest.param(test_f, id="test-function"),
        pytest.param(test_f.rescaled(0.3 + 0.7j), id="rescaled"),
        pytest.param(
            continuous_eigenfunction(make_extension_spec(1, 2, -1.3), 0.9).u, id="eigenfunction"
        ),
        pytest.param(
            RadialFunction(ExponentialSum([1.0, 0.5], [-1.0 + 2.0j, -0.3]), 1), id="nonregular"
        ),
    ]


def _cold(f):
    return RadialFunction(f.base, f.l, f.scale)


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("f", _setup_cases())
def test_warm_setup_equals_a_cold_copy_bit_for_bit(f):
    from radialspec.rayleigh import _eval_split

    rs = r_switch(f)
    below, above = 0.4 * rs, 2.5 * rs + 0.3
    grids = {
        "straddle": np.linspace(0.1 * rs, 4.0 * rs + 1.0, 37),
        "below": np.linspace(0.05 * rs, rs, 9).reshape(3, 3),
        "above": np.linspace(1.5 * rs + 0.01, 12.0, 20),
    }
    points = [below, above, rs, *grids.values()]
    calls = [lambda g, x, d=d: derivative(g, x, d) for d in range(7)]
    calls += [lambda g, x: _eval_split(g, np.asarray(x, np.float64), 2, -0.4 + 0.9j)]
    calls += [lambda g, x: _eval_split(g, np.asarray(x, np.float64), 0, 0.3j)]
    warm = _cold(f)
    for call in calls:
        for x in points:
            call(warm, x)
    assert "_setup" in warm.__dict__
    for call in calls:
        for x in points:
            got, want = call(warm, x), call(_cold(f), x)
            assert type(got) is type(want)
            assert _bits(got) == _bits(want)
    if f.regular_at_origin:
        # SERIES_ORDER + 1 and + 6 are also the truncations of the
        # derivatives' series, which the warm object has built first
        for order in (0, 5, SERIES_ORDER, SERIES_ORDER + 1, SERIES_ORDER + 6, MAX_SERIES_ORDER):
            assert _bits(origin_series(warm, order).coefficients) == _bits(
                origin_series(_cold(f), order).coefficients
            )
        assert _bits(jet_at_origin(warm).d) == _bits(jet_at_origin(_cold(f)).d)
        assert _bits(eval_radial(warm, 0.0)) == _bits(eval_radial(_cold(f), 0.0))


@pytest.mark.parametrize("f", _setup_cases()[:3])
def test_each_side_of_r_switch_takes_its_own_form(f):
    # at or below r_switch the origin series, above it the closed form, for
    # grids on one side (no masks) and for a grid across it, bit for bit
    rs = r_switch(f)
    below = np.array([0.0, 0.3 * rs, rs])
    above = np.array([np.nextafter(rs, np.inf), 1.7 * rs, 6.0])
    series = origin_series(f).eval
    rates, polys = term_data(f)
    closed = lambda x: _eval_terms(x, rates, polys).astype(complex)
    assert _bits(eval_radial(f, rs)) == _bits(series(rs))
    assert _bits(eval_radial(f, below)) == _bits(series(below))
    assert _bits(eval_radial(f, above)) == _bits(closed(above))
    both = eval_radial(f, np.concatenate([below, above]))
    assert _bits(both[:3]) == _bits(series(below))
    assert _bits(both[3:]) == _bits(closed(above))


def test_setup_builds_each_part_once(monkeypatch):
    from radialspec import core, rayleigh

    counts, orders = {}, []

    def counted(module, name, note=lambda *args: None):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            note(*args)
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    f = _cold(domain_test_function(make_extension_spec(1, 1, 0.5)))
    counted(rayleigh, "term_data")
    counted(rayleigh, "r_switch")
    counted(core, "check_regularity")
    counted(rayleigh, "_series_coefficients", lambda l, a, chi, order: orders.append(order))
    rs = rayleigh.r_switch(f)
    counts.clear()
    r = np.array([0.3 * rs, 0.9 * rs, 1.1 * rs, 5.0])
    for _ in range(3):
        eval_radial(f, r)
        eval_radial(f, 0.5 * rs)
        eval_radial(f, 4.0)
        for d in range(1, 7):
            derivative(f, r, d)
            derivative(f, 0.5 * rs, d)
        jet_at_origin(f)
        origin_series(f)
    once = {"term_data": 1, "r_switch": 1, "check_regularity": 1}
    assert counts == {**once, "_series_coefficients": 8}
    # SERIES_ORDER + d for each derivative order d (order 0 is SERIES_ORDER
    # itself, which origin_series(f) shares), and the jet's order 5
    assert sorted(orders) == [5] + [SERIES_ORDER + d for d in range(7)]
    # a fresh object with the same fields builds its own
    eval_radial(_cold(f), 4.0)
    assert counts["term_data"] == 2


def test_cached_arrays_cannot_change_a_later_evaluation():
    from radialspec.rayleigh import _setup

    f = _cold(domain_test_function(make_extension_spec(2, 2, -1.2)).rescaled(1.0 - 0.5j))
    rs = r_switch(f)
    r = np.array([0.3 * rs, 0.8 * rs, 2.0 * rs, 3.0])
    before = [_bits(derivative(f, r, d)) for d in range(7)]
    series = origin_series(f).coefficients
    with pytest.raises(ValueError):
        series[0] = 1.0
    setup = _setup(f)
    cached = [series, origin_series(f, 5).coefficients]
    for d in range(7):
        n = min(MAX_SERIES_ORDER, SERIES_ORDER + d)
        cached += [*setup.closed_form(f, d), setup.series(f, n, d)]
    for a in cached:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    assert [_bits(derivative(f, r, d)) for d in range(7)] == before


def test_threads_sharing_a_cold_setup_read_the_same_bits():
    import sys
    import threading

    base = domain_test_function(make_extension_spec(2, 2, 0.7)).rescaled(0.5 - 1j)
    rs = r_switch(base)
    r = np.array([0.2 * rs, 0.9 * rs, 1.4 * rs, 4.0])
    calls = [(x, d) for d in range(7) for x in (r, 0.5 * rs, 3.0)]
    want = [_bits(derivative(_cold(base), x, d)) for x, d in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            f, got = _cold(base), {}

            def work(i, f=f, got=got):
                got[i] = [_bits(derivative(f, x, d)) for x, d in calls[i:] + calls[:i]]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            for i in range(4):
                assert got[i] == want[i:] + want[:i]
    finally:
        sys.setswitchinterval(interval)


def test_setup_leaves_equality_and_repr_alone():
    import dataclasses

    f = RadialFunction(ExponentialSum([2.0], [-1.5 + 0.5j]), 2, 0.5j)
    cold = _cold(f)
    eval_radial(f, [0.5, 2.0])
    derivative(f, 1.0, 3)
    assert f.__dict__.keys() > cold.__dict__.keys()
    assert f == cold and repr(f) == repr(cold)
    assert [x.name for x in dataclasses.fields(f)] == ["base", "l", "scale"]
    assert dataclasses.astuple(f) == dataclasses.astuple(cold)
