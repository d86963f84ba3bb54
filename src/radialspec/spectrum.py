"""Discrete and continuous spectrum of the extensions.

For kappa < 0 the resolvent denominator p(z) has one zero in the sector,
giving a single bound state with energy z_p^6 < 0 and a normalized real
eigenfunction built from three decaying exponentials.  For lambda > 0 the
jump of the resolvent across the continuous spectrum is the rank-one density
P_lambda(r, s) = u(r) u(s) with a real four-exponential eigenfunction u.

The closed forms here were reconciled against the resolvent-difference
identity (the defining property of the density); in particular the fourth
amplitude of the xi=2 eigenfunctions is the conjugate partner of the third,
and the phase branch is e^{i phi} = p(lambda)/|p(lambda)| taken continuously,
not a square root of p/conj(p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExponentialSum, ExtensionSpec, RadialFunction, _phase
from .errors import DomainError, InternalInconsistency
from .rayleigh import (
    SERIES_ORDER,
    SWITCH_SCALE,
    _eval_series,
    _eval_terms,
    _series_coefficients,
    dl_exponential,
    eval_radial,
    exponential_poly,
    t3_termwise,
)
from .resolvent import POLE_SCALE, kernel, pole_location

_SQRT2PI = np.sqrt(2.0 * np.pi)
# fixed scan used only to pick the overall sign of an eigenfunction
_SIGN_SCAN = np.linspace(0.25, 6.0, 24)
# tiles of the continuous basis: bytes of one complex temporary, and the
# fewest lambda rows, which share their set-up (terms, series, sign)
_BLOCK_BYTES = 1 << 19
_MIN_ROWS = 16


@dataclass(frozen=True)
class BoundState:
    """The kappa < 0 bound state: pole, energy z_p^6, normalized eigenfunction."""

    z_p: complex
    energy: float
    v: RadialFunction


def bound_state(spec: ExtensionSpec):
    """The bound state of the extension, or None when kappa >= 0 or infinite."""
    z_p = pole_location(spec)
    if z_p is None:
        return None
    kappa = spec.kappa.value
    c = POLE_SCALE[(spec.xi, spec.l)]
    energy = -((c * kappa) ** 6)
    rates = c * kappa * np.array([1.0, _phase(-1 / 3), _phase(1 / 3)])
    if spec.xi == 1:
        amps = np.array([1.0, _phase(-2 / 3), _phase(2 / 3)])
    else:
        amps = np.array([np.sqrt(3.0), -_phase(-1 / 6), -_phase(1 / 6)])
    if (spec.xi, spec.l) == (1, 1):
        norm = np.sqrt(-3.0 / (2.0 * kappa))
    elif (spec.xi, spec.l) == (1, 2):
        norm = np.sqrt(-8.0 / (27.0 * kappa**3))
    elif (spec.xi, spec.l) == (2, 1):
        norm = np.sqrt(-1.0 / (2.0 * kappa))
    else:
        norm = np.sqrt(-1.0 / (5.0 * 2.0 ** (3.0 / 5.0) * kappa**3))
    v = RadialFunction(ExponentialSum(amps, rates), spec.l, norm)
    return BoundState(z_p, float(energy), v)


def eigen_residual_discrete(b: BoundState, npoints: int = 40) -> float:
    """Max relative residual of T^3 v = energy * v on a log-spaced grid."""
    r = np.geomspace(0.05 / abs(b.z_p), 8.0 / abs(b.z_p), npoints)
    v = eval_radial(b.v, r)
    lhs = eval_radial(t3_termwise(b.v), r)
    return float(np.max(np.abs(lhs - b.energy * v) / (abs(b.energy) * np.abs(v) + 1e-300)))


@dataclass(frozen=True)
class ContinuousEigenfunction:
    """One real eigenfunction of the continuous spectrum at lambda."""

    lam: float
    spec: ExtensionSpec
    phase: float
    u: RadialFunction


def _eigenfunction_terms(spec: ExtensionSpec, lam):
    """(prefactor, amplitudes, rates, p) of the closed form, projective in kappa.

    Written elementwise in lambda: a float gives a scalar prefactor and p and
    four amplitudes and rates; an array of n lambdas gives shapes (n,), (n, 4),
    (n, 4) and (n,).  Terms (0, 1) and (2, 3) of prefactor * amplitudes are
    complex-conjugate pairs with conjugate rates, which makes u real.
    """
    num, den = spec.kappa.num, spec.kappa.den
    xi, l = spec.xi, spec.l
    if (xi, l) == (1, 1):
        p = 3.0 * lam * den + 2.0 * _phase(1 / 6) * num
        eiphi = p / abs(p)
        amps = [
            1.0 / eiphi,
            -eiphi,
            (2.0 * num / abs(p)) * _phase(1 / 6),
            -(2.0 * num / abs(p)) * _phase(-1 / 6),
        ]
        rates = [1j * lam, -1j * lam, -_phase(-1 / 6) * lam, -_phase(1 / 6) * lam]
        pref = 1j / (_SQRT2PI * lam)
    elif (xi, l) == (1, 2):
        p = 2.0 * lam * den + 3.0 * _phase(1 / 6) * num
        eiphi = p / abs(p)
        amps = [
            _phase(1 / 6) / eiphi,
            -_phase(-1 / 6) * eiphi,
            (2.0 * lam * den / abs(p)) * _phase(-1 / 6),
            -(2.0 * lam * den / abs(p)) * _phase(1 / 6),
        ]
        rates = [1j * lam, -1j * lam, -_phase(1 / 6) * lam, -_phase(-1 / 6) * lam]
        pref = 1j / (_SQRT2PI * lam**2)
    elif (xi, l) == (2, 1):
        p = lam * den + 2.0 * _phase(1 / 6) * num
        eiphi = p / abs(p)
        c3 = -2.0 * (num + _phase(1 / 6) * lam * den) * _phase(1 / 6) / abs(p)
        amps = [1.0 / eiphi, eiphi, c3, np.conj(c3)]
        rates = [1j * lam, -1j * lam, -_phase(-1 / 6) * lam, -_phase(1 / 6) * lam]
        pref = 1.0 / (_SQRT2PI * lam)
    else:
        n5, d5 = num**5, den**5
        p = lam**5 * d5 + 2.0 * _phase(5 / 6) * n5
        if np.any(abs(p) <= 1e-13 * (abs(lam**5 * d5) + 2.0 * abs(n5))):
            raise InternalInconsistency("p(lambda) vanished for real kappa")
        eiphi = p / abs(p)
        c3 = -2.0 * (lam**5 * d5 - _phase(1 / 6) * n5) / abs(p)
        amps = [1.0 / eiphi, -eiphi, c3, -np.conj(c3)]
        rates = [1j * lam, -1j * lam, -_phase(-1 / 6) * lam, -_phase(1 / 6) * lam]
        pref = 1j / (_SQRT2PI * lam**2)
    return pref, np.stack(amps, axis=-1), np.stack(rates, axis=-1), p


def _canonical_signs(vals):
    """+-1 per row of real values on _SIGN_SCAN: the sign of the first value
    whose magnitude exceeds 5% of the row's largest."""
    mags = np.abs(vals)
    first = np.argmax(mags > 0.05 * np.max(mags, axis=-1, keepdims=True), axis=-1)
    lead = np.take_along_axis(vals, first[..., None], axis=-1)[..., 0]
    return np.where(lead < 0, -1.0, 1.0)


def continuous_eigenfunction(spec: ExtensionSpec, lam: float) -> ContinuousEigenfunction:
    """Real continuous-spectrum eigenfunction at lambda > 0, sign-canonicalized."""
    if not (np.isfinite(lam) and lam > 0):
        raise DomainError("lambda must be finite and positive")
    pref, amps, rates, p = _eigenfunction_terms(spec, lam)
    u = RadialFunction(ExponentialSum(amps, rates), spec.l, pref)
    if _canonical_signs(np.real(eval_radial(u, _SIGN_SCAN))) < 0:
        u = u.rescaled(-1.0)
    return ContinuousEigenfunction(float(lam), spec, float(np.angle(p)), u)


def _split_rows(r, radii, pair, polys, coefs):
    """Rows of real values at sorted r >= 0 with eval_radial's split: row b
    is the closed form 2 Re sum_k (sum_j polys[b, k, 0, j] r^-j) e^{pair[b, k, 0] r}
    above radii[b], and the origin series with real coefs[b] at or below it."""
    split = np.searchsorted(r, radii, side="right")
    lo, hi = int(split.min()), int(split.max())
    out = np.empty((radii.size, r.size))
    if lo < r.size:
        terms = _eval_terms(r[lo:], pair, polys).real
        out[:, lo:] = 2.0 * terms.sum(axis=1)
    if hi > 0:
        near = _eval_series(r[:hi], coefs)
        out[:, :lo] = near[:, :lo]
        band = np.arange(lo, hi) < split[:, None]
        out[:, lo:hi] = np.where(band, near[:, lo:], out[:, lo:hi])
    return out


def _basis_blocks(spec: ExtensionSpec, lam, r):
    """Yield (rows, cols, U) over tiles of the continuous basis, with
    U[i, j] = u^{lam[rows][i]}(r[cols][j]) at sorted r >= 0: the values of
    continuous_eigenfunction(spec, lambda).u, real and with its sign.

    A tile keeps each complex temporary within _BLOCK_BYTES, and spans all
    of r when that still leaves _MIN_ROWS lambdas, so memory stays bounded
    whatever the grid sizes.  u is real and its terms come in the conjugate
    pairs (0, 1) and (2, 3), so the closed form evaluates terms 0 and 2 and
    doubles the real part (each term as its own single-term row, which keeps
    the term axis out of numpy's inner loops); the origin series keeps the
    real part of its coefficients.
    """
    lam = np.asarray(lam, np.float64)
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise DomainError("lambda must be finite and positive")
    # two complex closed-form terms per (lambda, r) pair
    pairs = _BLOCK_BYTES // (2 * 16)
    height = max(_MIN_ROWS, pairs // r.size)
    width = pairs // height
    for start in range(0, lam.size, height):
        rows = slice(start, start + height)
        pref, amps, rates, _ = _eigenfunction_terms(spec, lam[rows])
        a = pref[:, None] * amps
        pair = rates[:, ::2, None]
        terms = (
            SWITCH_SCALE / np.max(np.abs(rates), axis=-1),
            pair,
            a[:, ::2, None, None] * exponential_poly(spec.l, pair),
            _series_coefficients(spec.l, a, rates, SERIES_ORDER).real,
        )
        signs = _canonical_signs(_split_rows(_SIGN_SCAN, *terms))[:, None]
        for first in range(0, r.size, width):
            cols = slice(first, first + width)
            yield rows, cols, signs * _split_rows(r[cols], *terms)


def realness_residual(e: ContinuousEigenfunction, npoints: int = 60) -> float:
    r = np.linspace(0.05, 12.0, npoints) / max(e.lam, 1.0)
    vals = eval_radial(e.u, r)
    return float(np.max(np.abs(vals.imag)) / max(np.max(np.abs(vals)), 1e-300))


def eigen_residual_continuous(e: ContinuousEigenfunction, npoints: int = 40) -> float:
    """Max relative residual of T^3 u = lambda^6 u on a log-spaced grid."""
    r = np.geomspace(0.05 / e.lam, 10.0 / e.lam, npoints)
    lhs = eval_radial(t3_termwise(e.u), r)
    rhs = e.lam**6 * eval_radial(e.u, r)
    scale = e.lam**6 * np.abs(eval_radial(e.u, r)) + 1e-300
    return float(np.max(np.abs(lhs - rhs) / scale))


def spectral_density(spec: ExtensionSpec, lam: float, r: float, s: float) -> float:
    """P_lambda(r, s) = u(r) u(s)."""
    u = continuous_eigenfunction(spec, lam).u
    ur, us = np.real(eval_radial(u, np.array([r, s], np.float64)))
    return float(ur * us)


def resolvent_difference_density(
    spec: ExtensionSpec, lam: float, r: float, s: float
) -> complex:
    """(6 lam^5 / 2 pi i) (R(r,s; lam) - R(r,s; e^{i pi/3} lam)), the jump across the cut."""
    if lam <= 0:
        raise DomainError("lambda must be positive")
    d = (
        kernel(spec, complex(lam), r, s, allow_boundary=True).total
        - kernel(spec, _phase(1 / 3) * lam, r, s, allow_boundary=True).total
    )
    return 6.0 * lam**5 / (2j * np.pi) * d


def asymptotic_density(l: int, lam: float, r) -> float:
    """Reference free eigenfunction sqrt(2/pi) lam^{-l} D_l sin(lam r)."""
    if lam <= 0:
        raise DomainError("lambda must be positive")
    val = (
        dl_exponential(l, 1j * lam, r) - dl_exponential(l, -1j * lam, r)
    ) / 2j
    return np.sqrt(2.0 / np.pi) * lam ** (-l) * np.real(val)
