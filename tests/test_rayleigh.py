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
    eval_radial,
    jet_at_origin,
    monomial_coefficient,
    origin_series,
    verify_rayleigh,
)
from radialspec.rayleigh import (
    MAX_SERIES_ORDER,
    _eval_series,
    asymptotic_check,
    r_switch,
    t3_apply_analytic,
    t3_coefficients,
    t3_termwise,
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
