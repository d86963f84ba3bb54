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

On a lambda grid and an r grid the continuous basis U[i, j] = u^{lambda_i}(r_j)
comes in memory-bounded tiles (_basis_blocks), and the transform's two
contractions c = U x and f = y U never form it (_basis_matvec,
_basis_rmatvec).  On Gauss panels of equal width, node lambda = a_p + delta_j
+ eps splits e^{rho lambda r} into a factor per panel, a factor per shared
node offset, and 1 + rho eps r for the few-ulp residue eps of the node
placement, so beyond r = 4 / (the panels' smallest node) each power r^-b of the
D_l polynomial is one matrix product over r.  That part costs
O((n_panels + 24) n_r) exponentials plus the products, against
O(n_lambda n_r) for the tiles, which keep the other panels and smaller radii.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExponentialSum, ExtensionSpec, RadialFunction, _phase
from .errors import DomainError, InternalInconsistency
from .quadrature import GAUSS_ORDER
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


def _checked_lambda(lam) -> np.ndarray:
    lam = np.asarray(lam, np.float64)
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise DomainError("lambda must be finite and positive")
    return lam


# two complex closed-form terms per (lambda, r) pair of a tile
_TILE_PAIRS = _BLOCK_BYTES // (2 * 16)


def _row_blocks(spec: ExtensionSpec, lam, ncols: int):
    """Yield (rows, terms, signs) over blocks of lambda rows: the closed-form
    terms and origin series that _split_rows evaluates, and the canonical sign
    of each row (shape (n, 1)).  A block has as many rows as a tile of ncols
    columns allows, and at least _MIN_ROWS; the set-up is made per block, so
    its memory stays bounded too (the sign scan is a tile of its own)."""
    height = max(_MIN_ROWS, _TILE_PAIRS // max(ncols, _SIGN_SCAN.size))
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
        yield rows, terms, signs


def _row_tiles(terms, signs, r):
    """Yield (cols, U) over column tiles of one row block at sorted r >= 0."""
    width = _TILE_PAIRS // len(signs)
    for first in range(0, r.size, width):
        cols = slice(first, min(first + width, r.size))
        yield cols, signs * _split_rows(r[cols], *terms)


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
    lam = _checked_lambda(lam)
    for rows, terms, signs in _row_blocks(spec, lam, r.size):
        for cols, u in _row_tiles(terms, signs, r):
            yield rows, cols, u


# ------------------------------------------------ the factored basis
# On a run of Gauss panels of equal width, node j of panel p is
# lambda = a_p + delta_j + eps_pj: a_p the panel's first node, delta_j the
# node offsets all these panels share, and eps_pj = (lambda - a_p) - delta_j the
# few-ulp residue of the node placement (both subtractions exact by Sterbenz's
# lemma).  Each closed-form term of the basis is then
#
#   A_kb(lambda) r^-b e^{rho_k lambda r}
#     = A_kb(lambda) r^-b e^{rho_k a_p r} e^{rho_k delta_j r} (1 + rho_k eps_pj r)
#
# to O((eps r)^2) ~ 1e-25, with rho_0 = i and rho_1 = -e^{-+i pi/6} (terms 0
# and 2 of _eigenfunction_terms at lambda = 1) and A_kb the signed amplitude
# times the D_l polynomial coefficient of r^-b, b = 0..l.  The eps term adds
# the power r^+1.  So on the columns r >= _FACTOR_CUT / min lambda a contraction
# with the basis is, per k, one matrix product over r between the panel
# factors E_k[p, r] = e^{rho_k a_p r} and the shared factors
# D_k[j, r] r^(1-m) = e^{rho_k delta_j r} r^(1-m), m = 0..l+1: it takes
# (panels + 24) n_r exponentials instead of n_lambda n_r.  Without the eps
# term the phase error r eps is coherent along r: against a long-double
# evaluation c(lambda) then errs by 1.3e-14 of max|c|, not 2.5e-15 (l=2 on
# r_max 70.6, lambda_max 16).  Below the cut the powers r^-b are large and
# cancel once combined, which summing each power over r first would not see,
# so those columns stay on the tiles, as do all other panels.

# panels share their node offsets when these agree within this many ulp of
# the panel's largest node
_OFFSET_ULPS = 32
# first factored column: r >= _FACTOR_CUT / (smallest node of the panels)
_FACTOR_CUT = 4.0
# columns of one factored tile; a tile of E has at most
# _BLOCK_BYTES / (16 _FACTOR_COLS) = 128 panels
_FACTOR_COLS = 256


@dataclass(frozen=True)
class _SharedPanels:
    """Gauss panels of a lambda grid with shared node offsets.

    rows indexes their nodes in lambda, panel by panel; first holds a_p,
    offsets delta_j, and eps the residues in the order of rows.  Columns from
    cut on are factored."""

    rows: np.ndarray
    first: np.ndarray
    offsets: np.ndarray
    eps: np.ndarray
    cut: int

    @classmethod
    def find(cls, lam: np.ndarray, r: np.ndarray):
        """The shared panels of lam, read as consecutive panels of GAUSS_ORDER
        nodes, for sorted columns r; None when no two panels share their
        offsets or no column lies beyond the cut (the tiles then do it all)."""
        if lam.size % GAUSS_ORDER:
            return None
        nodes = lam.reshape(-1, GAUSS_ORDER)
        offsets = nodes - nodes[:, :1]
        tol = _OFFSET_ULPS * np.spacing(np.max(nodes, axis=1))
        # runs of panels whose widths agree with their neighbour's, the
        # longest run's middle panel as the reference
        order = np.argsort(offsets[:, -1], kind="stable")
        gaps = np.diff(offsets[order, -1]) > tol[order[1:]]
        run = max(np.split(order, np.flatnonzero(gaps) + 1), key=len)
        ref = offsets[run[len(run) // 2]]
        panels = np.flatnonzero(np.max(np.abs(offsets - ref), axis=1) <= tol)
        if panels.size < 2:
            return None
        first = nodes[panels, 0]
        cut = int(np.searchsorted(r, _FACTOR_CUT / np.min(nodes[panels])))
        if cut == r.size:
            return None
        rows = (panels[:, None] * GAUSS_ORDER + np.arange(GAUSS_ORDER)).ravel()
        return cls(rows, first, ref, (offsets[panels] - ref).ravel(), cut)

    def parts(self):
        """The panels in runs short enough for one tile of E per column tile,
        which also bounds the per-panel sums of a run."""
        height = _BLOCK_BYTES // (16 * _FACTOR_COLS)
        for top in range(0, self.first.size, height):
            panels = slice(top, top + height)
            nodes = slice(top * GAUSS_ORDER, (top + height) * GAUSS_ORDER)
            yield _SharedPanels(
                self.rows[nodes], self.first[panels], self.offsets, self.eps[nodes], self.cut
            )

    def tiles(self, rho, r):
        """Yield (k, cols, E, D): E = e^{rho_k a_p r} and D = e^{rho_k delta_j r}
        on tiles of the columns r, E within _BLOCK_BYTES for a part's panels."""
        for k, rate in enumerate(rho):
            for first in range(0, r.size, _FACTOR_COLS):
                cols = slice(first, first + _FACTOR_COLS)
                rc = r[cols]
                yield k, cols, _exp_outer(rate, self.first, rc), _exp_outer(rate, self.offsets, rc)

    def sums(self, rho, npow: int, r, x):
        """S[k, p, m, j] = sum_r x(r) r^(1-m) e^{rho_k (a_p + delta_j) r}: one
        matrix product over r per (k, m) and tile."""
        out = np.zeros((2, self.first.size, npow, GAUSS_ORDER), np.complex128)
        for k, cols, e, d in self.tiles(rho, r):
            for m, xm in enumerate(_powers(r[cols], npow) * x[cols]):
                out[k, :, m] += e @ (d * xm).T
        return out

    def synthesis(self, rho, z, r):
        """f(r) = 2 Re sum_{k, p, m, j} z[k, p, m, j] r^(1-m) e^{rho_k (a_p + delta_j) r},
        the transpose of sums."""
        acc = np.zeros(r.size, np.complex128)
        for k, cols, e, d in self.tiles(rho, r):
            for m, rm in enumerate(_powers(r[cols], z.shape[2])):
                acc[cols] += rm * np.einsum("wj,jw->w", e.T @ z[k, :, m], d)
        return 2.0 * acc.real

    def locate(self, rows: slice):
        """(panel, node) indices of a slice of self.rows."""
        t = np.arange(self.rows.size)[rows]
        return t // GAUSS_ORDER, t % GAUSS_ORDER


def _exp_outer(rate, a, r):
    """e^{rate a_p r_j}, exponentiated in place."""
    out = rate * np.multiply.outer(a, r)
    return np.exp(out, out=out)


def _pair_rates(spec: ExtensionSpec) -> np.ndarray:
    """rho_k: the rates of closed-form terms 0 and 2 are rho_k lambda."""
    return _eigenfunction_terms(spec, 1.0)[2][::2]


def _powers(r, npow: int):
    """Rows r^(1-m) for m = 0..npow-1."""
    return r ** (1.0 - np.arange(npow))[:, None]


def _amplitudes(terms, signs):
    """A[i, k, b]: the signed coefficient of r^-b e^{rho_k lambda_i r} in row i."""
    return signs[:, :, None] * terms[2][:, :, 0, :]


def _split_basis(lam, r):
    """(direct, shared): the rows of lam left wholly to the tiles, and the
    _SharedPanels (or None) whose columns beyond the cut are factored."""
    shared = _SharedPanels.find(lam, r)
    direct = np.arange(lam.size)
    if shared is not None:
        direct = np.setdiff1d(direct, shared.rows, assume_unique=True)
    return direct, shared


def _basis_matvec(spec: ExtensionSpec, lam, r, x) -> np.ndarray:
    """c = U x for the basis U of _basis_blocks at sorted r >= 0 and real x,
    without forming U: the shared panels' columns beyond the cut by the
    factored sums, everything else by tiles."""
    lam = _checked_lambda(lam)
    direct, shared = _split_basis(lam, r)
    c = np.zeros(lam.size)
    c[direct] = _tile_matvec(spec, lam[direct], r, x)
    if shared is None:
        return c
    rho, npow, cut = _pair_rates(spec), spec.l + 2, shared.cut
    for part in shared.parts():
        sums = part.sums(rho, npow, r[cut:], x[cut:])
        for rows, terms, signs in _row_blocks(spec, lam[part.rows], cut):
            idx = part.rows[rows]
            for cols, u in _row_tiles(terms, signs, r[:cut]):
                c[idx] += u @ x[cols]
            p, j = part.locate(rows)
            s = sums[:, p, :, j]  # (n, 2, npow)
            eps = (part.eps[rows, None] * rho)[:, :, None]
            far = _amplitudes(terms, signs) * (s[:, :, 1:] + eps * s[:, :, :-1])
            c[idx] += 2.0 * np.sum(far, axis=(1, 2)).real
    return c


def _basis_rmatvec(spec: ExtensionSpec, lam, r, y) -> np.ndarray:
    """f = y U for the basis U of _basis_blocks at sorted r >= 0 and real y,
    split between factored sums and tiles as in _basis_matvec."""
    lam = _checked_lambda(lam)
    direct, shared = _split_basis(lam, r)
    f = _tile_rmatvec(spec, lam[direct], r, y[direct])
    if shared is None:
        return f
    rho, npow, cut = _pair_rates(spec), spec.l + 2, shared.cut
    for part in shared.parts():
        # z[k, p, m, j]: the coefficient of r^(1-m) e^{rho_k (a_p + delta_j) r}
        z = np.zeros((2, part.first.size, npow, GAUSS_ORDER), np.complex128)
        for rows, terms, signs in _row_blocks(spec, lam[part.rows], cut):
            idx = part.rows[rows]
            for cols, u in _row_tiles(terms, signs, r[:cut]):
                f[cols] += y[idx] @ u
            p, j = part.locate(rows)
            ay = _amplitudes(terms, signs) * y[idx, None, None]
            z[:, p, 1:, j] += ay
            z[:, p, :-1, j] += (part.eps[rows, None] * rho)[:, :, None] * ay
        f[cut:] += part.synthesis(rho, z, r[cut:])
    return f


def _tile_matvec(spec: ExtensionSpec, lam, r, x) -> np.ndarray:
    """U x over the tiles of _basis_blocks."""
    c = np.zeros(lam.size)
    for rows, cols, u in _basis_blocks(spec, lam, r):
        c[rows] += u @ x[cols]
    return c


def _tile_rmatvec(spec: ExtensionSpec, lam, r, y) -> np.ndarray:
    """y U over the tiles of _basis_blocks."""
    f = np.zeros(r.size)
    for rows, cols, u in _basis_blocks(spec, lam, r):
        f[cols] += y[rows] @ u
    return f


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
