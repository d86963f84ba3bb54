"""The Rayleigh-type operator D_l on exponential sums.

D_l w = r^{l+1} (1/r d/dr)^l (w/r).  On an exponential e^{chi r} it acts as
multiplication by a polynomial in 1/r; on a monomial r^k it acts as
multiplication by (k-2l+1)(k-2l+3)...(k-1) and a shift r^k -> r^{k-l}.
The key identity (checked by verify_rayleigh) is

    T_l D_l w = -D_l w'',   T_l = -d^2/dr^2 + l(l+1)/r^2,

so the sixth-order operator T_l^3 acts termwise on D_l e^{chi r} as
multiplication by -chi^6.

Evaluation is cancellation-safe: below r_switch the closed form loses digits
to the near-cancelling 1/r poles, so regular functions switch to an origin
Taylor series there, evaluated as one product of its coefficients with the
powers of r.

What evaluation needs from f alone (r_switch, the closed form's rates and
polynomials per derivative order, the series coefficients per order) is
built once per RadialFunction, on first use, and kept read-only on it, so a
repeated scalar call pays only for its arithmetic.  A grid on one side of
r_switch runs its form without masks.

The closed form runs in tiles of r laid out as (terms x points), so every
ufunc loops over the points and the temporaries stay within _BLOCK_BYTES
whatever the grid size; each point is computed in the same order in any tile
(Horner in 1/r per term, times the exponential, then a sum over the terms in
term order), so tiling moves no value.  A sum whose rates and
polynomial coefficients all have an exactly zero imaginary part runs in real
arithmetic; eval_radial and derivative still return complex values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .core import ExponentialSum, Jet6, RadialFunction, VALID_L
from .errors import DomainError, InvalidSpec, SingularityError, Unsupported

SERIES_ORDER = 16
MAX_SERIES_ORDER = 24
# r_switch = SWITCH_SCALE / max_k |chi_k|
SWITCH_SCALE = 0.5
# bytes of one complex temporary of a tile, here and in the transform basis
_BLOCK_BYTES = 1 << 19


def monomial_coefficient(l: int, k: int) -> float:
    """Factor in D_l r^k = (k-2l+1)(k-2l+3)...(k-1) r^{k-l}."""
    if l not in VALID_L:
        raise InvalidSpec(f"l={l} not supported")
    if k < 0:
        raise DomainError("monomial power must be nonnegative")
    out = 1.0
    for i in range(l):
        out *= k - 1 - 2 * i
    return out


def exponential_poly(l: int, chi) -> np.ndarray:
    """Coefficients p_j with D_l e^{chi r} = (sum_j p_j r^{-j}) e^{chi r}.

    For an array chi the coefficients run along a new trailing axis j.
    """
    if l == 1:
        cols = (chi, -1.0)
    elif l == 2:
        cols = (chi * chi, -3.0 * chi, 3.0)
    else:
        raise InvalidSpec(f"l={l} not supported")
    out = np.empty(np.shape(chi) + (len(cols),), np.complex128)
    for j, c in enumerate(cols):
        out[..., j] = c
    return out


def dl_exponential(l: int, chi: complex, r) -> complex:
    """D_l e^{chi r} at r > 0 via the closed form."""
    r = np.asarray(r, np.float64)
    if np.any(r <= 0.0):
        raise DomainError("dl_exponential requires r > 0")
    polys = exponential_poly(l, chi)[None]
    return _shaped_like(r, _eval_terms(r.ravel(), np.array([chi]), polys))


@dataclass(frozen=True)
class OriginSeries:
    """Taylor coefficients of a D_l image around r = 0, powers 0..truncation_order."""

    coefficients: np.ndarray
    truncation_order: int

    def eval(self, r):
        r = np.asarray(r, np.float64)
        return _shaped_like(r, _eval_series(r.ravel(), self.coefficients))


def origin_series(f: RadialFunction, order: int = SERIES_ORDER) -> OriginSeries:
    """Taylor expansion of f around r = 0; only defined for regular bases.
    Its coefficients are f's read-only set-up array."""
    if not f.regular_at_origin:
        raise SingularityError("origin_series requires a base regular at the origin")
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise Unsupported(f"series order must be in 0..{MAX_SERIES_ORDER}")
    return OriginSeries(_setup(f).series(f, order), order)


def _series_coefficients(l: int, a, chi, order: int):
    """Taylor coefficients, powers 0..order, of sum_k D_l a[..., k] e^{chi[..., k] r};
    leading axes of a and chi give one row of coefficients each."""
    return np.array(
        [
            monomial_coefficient(l, m) / factorial(m) * (a * chi**m).sum(axis=-1)
            for m in range(l, order + l + 1)
        ],
        np.complex128,
    ).T


def jet_at_origin(f: RadialFunction) -> Jet6:
    """Derivatives of orders 0..5 at the origin (regular bases only)."""
    s = origin_series(f, 5)
    return Jet6(s.coefficients * [factorial(j) for j in range(6)])


def r_switch(f: RadialFunction) -> float:
    """Crossover radius below which the closed form cancels badly."""
    top = float(np.max(np.abs(f.base.rates)))
    return SWITCH_SCALE / top if top > 0.0 else 0.0


def term_data(f: RadialFunction):
    """(rates, polys) arrays for the closed-form evaluator: float64 when every
    rate and coefficient has an exactly zero imaginary part, else complex128."""
    rates = f.base.rates
    polys = (f.scale * f.base.amplitudes)[:, None] * exponential_poly(f.l, rates)
    if rates.imag.any() or polys.imag.any():
        return rates, polys
    return rates.real.copy(), polys.real.copy()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Setup:
    """One RadialFunction's evaluation set-up, kept on it by _setup as
    SampledFunction keeps its spline.  Each part is built on first use and is
    read-only: written once, with the same value from any thread."""

    __slots__ = ("switch", "_far", "_series")

    def __init__(self, f: RadialFunction):
        self.switch = r_switch(f)
        self._far, self._series = {}, {}

    def closed_form(self, f: RadialFunction, order: int):
        data = self._far.get(order)
        if data is None:
            if order:
                rates, polys = self.closed_form(f, order - 1)
                polys = _differentiate_polys(rates, polys)
            else:
                rates, polys = term_data(f)
            data = self._far[order] = _frozen(rates), _frozen(polys)
        return data

    def series(self, f: RadialFunction, n: int, order: int = 0) -> np.ndarray:
        """Coefficients of f's derivative of the given order, from f's series to power n."""
        c = self._series.get((n, order))
        if c is None:
            if order:
                c = self.series(f, n)
                c = [c[m] * factorial(m) / factorial(m - order) for m in range(order, n + 1)]
                c = np.array(c, np.complex128)
            else:
                c = _series_coefficients(f.l, f.scale * f.base.amplitudes, f.base.rates, n)
            c = self._series[n, order] = _frozen(c)
        return c

    def far(self, f: RadialFunction, x, order: int, shift: complex):
        """f's derivative of the given order times e^{shift x} at a 1-d x, by
        the closed form (see _eval_split)."""
        rates, polys = self.closed_form(f, order)
        return _eval_terms(x, rates + shift if shift else rates, polys)

    def near(self, f: RadialFunction, x, order: int, shift: complex):
        """The same by the origin series."""
        n = min(MAX_SERIES_ORDER, SERIES_ORDER + order)
        out = _eval_series(x, self.series(f, n, order))
        if shift:
            out *= np.exp(shift * x)
        return out


def _setup(f: RadialFunction) -> _Setup:
    """f's evaluation set-up, stored beside its fields on first use."""
    setup = f.__dict__.get("_setup")
    if setup is None:
        setup = _Setup(f)
        object.__setattr__(f, "_setup", setup)
    return setup


def _horner_inv(polys, inv):
    """sum_j polys[..., j] * inv**j (j = 0..P-1, P >= 2) by Horner's rule,
    in one buffer.  inv must be real: each complex product is then
    (a + bi) c, which rounds the same in place or out of place, where a
    complex-by-complex product may not."""
    q = polys[..., -1] * inv
    for j in range(polys.shape[-1] - 2, 0, -1):
        q += polys[..., j]
        q *= inv
    q += polys[..., 0]
    return q


def _eval_terms(r, rates, polys):
    """sum_k (sum_j polys[..., k, j] / r**j) * exp(rates[..., k] * r) at each point
    of a 1-d r.  Leading axes of rates (..., K) and polys (..., K, P) give one
    row of values each.  Runs in tiles of r whose complex (..., K, points)
    temporaries stay within _BLOCK_BYTES; real rates and polys give real
    values."""
    out = np.empty(rates.shape[:-1] + r.shape, np.result_type(rates, polys))
    points = max(1, _BLOCK_BYTES // (16 * rates.size))
    for first in range(0, r.size, points):
        tile = slice(first, first + points)
        out[..., tile] = _eval_tile(r[tile], rates, polys)
    return out


def _eval_tile(tile, rates, polys):
    """_eval_terms on one tile of r, laid out as (..., terms, points) so that
    every ufunc loops over the points; its temporaries die on return.

    Both factors of the product are named, so numpy never elides it into an
    unnamed temporary of 256 KiB or more: that would compute exp * q in
    place, which its SIMD complex multiply rounds differently from q * exp.
    The terms are added one by one in term order: np.sum would add them
    pairwise when a one-point tile makes the terms its inner loop."""
    q = _horner_inv(polys[..., None, :], 1.0 / tile)
    e = rates[..., None] * tile
    terms = q * np.exp(e, out=e)
    out = terms[..., 0, :]
    for k in range(1, terms.shape[-2]):
        out += terms[..., k, :]
    return out


def _eval_series(r, coefs):
    """sum_m coefs[..., m] * r**m at each point of a 1-d r, as one product of
    the coefficients with the powers r**m.  Leading axes of coefs give one row
    of values each; real coefs give real values."""
    return coefs @ np.vander(r, coefs.shape[-1], increasing=True).T


def _shaped_like(r: np.ndarray, out: np.ndarray):
    """Values computed on r.ravel(), as a complex for scalar r, else as
    complex128 in r's shape."""
    return complex(out[0]) if r.ndim == 0 else out.reshape(r.shape).astype(complex, copy=False)


def _differentiate_polys(rates, polys):
    """One d/dr applied to sum_k (poly_k in 1/r) e^{rate_k r}, same representation."""
    n, m = polys.shape
    out = np.zeros((n, m + 1), np.result_type(rates, polys))
    for k in range(n):
        out[k, :m] += rates[k] * polys[k]
        for j in range(m):
            out[k, j + 1] += -j * polys[k, j]
    return out


def _span(r: np.ndarray):
    """(min, max) of r as floats, NaN if r holds one; (inf, -inf) if r is empty."""
    if r.ndim == 0:
        x = float(r)
        return x, x
    return (float(r.min()), float(r.max())) if r.size else (np.inf, -np.inf)


def _eval_split(f: RadialFunction, r: np.ndarray, order: int, shift: complex = 0.0):
    """Derivative of the given order at validated float64 r: the closed form
    above r_switch(f), the origin series at or below it (regular bases only).

    A nonzero shift returns the derivative times e^{shift r}: the closed form
    runs on the rates + shift, so a growing term scaled by a decaying shift
    stays bounded, and the series is multiplied by e^{shift r}."""
    return _eval_spanned(f, r, *_span(r), order, shift)


def _eval_spanned(f: RadialFunction, r, lo: float, hi: float, order: int, shift: complex):
    """_eval_split on r with min lo and max hi: points all on one side of
    r_switch(f) skip the masks."""
    setup = _setup(f)
    rr = r.ravel()
    if not f.regular_at_origin or lo > setup.switch:
        out = setup.far(f, rr, order, shift)
    elif hi <= setup.switch:
        out = setup.near(f, rr, order, shift)
    else:
        near = rr <= setup.switch
        out = np.empty(rr.shape, np.complex128)
        out[~near] = setup.far(f, rr[~near], order, shift)
        out[near] = setup.near(f, rr[near], order, shift)
    return _shaped_like(r, out)


def eval_radial(f: RadialFunction, r):
    """Evaluate f at r (scalar or array); r = 0 allowed for regular bases."""
    rr = np.asarray(r, np.float64)
    lo, hi = _span(rr)
    # NaN fails every comparison, so this rejects NaN, +-inf and r < 0
    if not (0.0 <= lo and hi < np.inf):
        raise DomainError("eval_radial requires finite r >= 0")
    if lo == 0.0 and not f.regular_at_origin:
        raise SingularityError("r = 0 evaluation of a non-regular function")
    return _eval_spanned(f, rr, lo, hi, 0, 0.0)


def derivative(f: RadialFunction, r, order: int = 1):
    """Analytic derivative of the given order (0..6) at finite r > 0."""
    if not 0 <= order <= 6:
        raise Unsupported("derivative order must be in 0..6")
    if order == 0:
        return eval_radial(f, r)
    rr = np.asarray(r, np.float64)
    lo, hi = _span(rr)
    # NaN fails every comparison, so this rejects NaN, +-inf and r <= 0
    if not (0.0 < lo and hi < np.inf):
        raise DomainError("derivative requires finite r > 0")
    return _eval_spanned(f, rr, lo, hi, order, 0.0)


def verify_rayleigh(l: int, chi: complex, r: float) -> float:
    """Relative residual of T_l D_l e^{chi r} = -D_l(chi^2 e^{chi r}) at r."""
    f = RadialFunction(ExponentialSum([1.0], [chi]), l)
    big_l = l * (l + 1)
    lhs = -derivative(f, r, 2) + big_l / float(r) ** 2 * eval_radial(f, r)
    rhs = -(chi**2) * eval_radial(f, r)
    return abs(lhs - rhs) / (1.0 + abs(eval_radial(f, r)))


def asymptotic_check(f: RadialFunction, r: float) -> float:
    """Relative deviation from the leading large-r form sum_k a_k chi_k^l e^{chi_k r}."""
    val = eval_radial(f, r)
    lead = f.scale * np.sum(
        f.base.amplitudes * f.base.rates**f.l * np.exp(f.base.rates * r)
    )
    denom = abs(val)
    if denom == 0.0:
        return 0.0
    return abs(val - lead) / denom


def t3_termwise(f: RadialFunction) -> RadialFunction:
    """T_l^3 f computed exactly: each exponent chi contributes the factor -chi^6."""
    amps = -f.base.rates**6 * f.base.amplitudes
    return RadialFunction(ExponentialSum(amps, f.base.rates), f.l, f.scale)


def t3_coefficients(l: int):
    """Variable coefficients c_j(r) with T_l^3 f = sum_j c_j(r) f^{(j)}(r).

    Returns a list of (derivative order, power of 1/r, constant) triples.
    """
    if l not in VALID_L:
        raise InvalidSpec(f"l={l} not supported")
    big_l = l * (l + 1)
    return [
        (6, 0, -1.0),
        (4, 2, 3.0 * big_l),
        (3, 3, -12.0 * big_l),
        (2, 4, 3.0 * big_l * (14.0 - big_l)),
        (1, 5, 12.0 * big_l * (big_l - 8.0)),
        (0, 6, big_l * (big_l**2 - 26.0 * big_l + 120.0)),
    ]


def t3_apply_analytic(f: RadialFunction, r):
    """T_l^3 f via the expanded variable-coefficient form and exact derivatives."""
    rr = np.asarray(r, np.float64)
    if np.any(rr <= 0.0):
        raise DomainError("t3_apply_analytic requires r > 0")
    out = 0.0
    for order, pw, const in t3_coefficients(f.l):
        out = out + const / rr**pw * derivative(f, r, order)
    return out
