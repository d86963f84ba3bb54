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
not a square root of p/conj(p), with p the resolvent denominator that
resolvent._denominator states for every family.

On a lambda grid and an r grid the continuous basis U[i, j] = u^{lambda_i}(r_j)
comes in memory-bounded tiles (_basis_blocks), and the transform's two
contractions c = U x and f = y U never form it (_basis_matvec,
_basis_rmatvec).  On Gauss panels of equal width whose nodes are exact sums
lambda = a_p + delta_j, as transform.spectral_rule places its uniform panels,
e^{rho lambda r} splits into a factor per panel and a factor per shared node
offset, so beyond r = 4 / lambda each power r^-b of the D_l polynomial is one
matrix product over r.  That cut is taken per run of panels (one tile of
rows below the cut each), so panels at large lambda are factored from small
radii.  That part costs O((n_panels + 24) n_r) exponentials plus the
products, against O(n_lambda n_r) for the tiles, which keep the other panels
and smaller radii; one loop over groups of lambda rows runs both.  Both
evaluate the two exponentials of a closed-form pair, e^{i lambda r} and the
decaying e^{rho_1 lambda r}, from one complex exponential e^{i lambda r / 2}
and one real one.  What a row needs besides r (its closed-form terms, origin
series, switch radius and canonical sign) depends on (spec, lambda) alone, so
it is built for the whole lambda grid and cached per (spec, lambda grid)
across calls (_row_setup): a forward and the inverse on its grid build it
once, and the tiles slice it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ExponentialSum, ExtensionSpec, RadialFunction, _phase
from .errors import DomainError, InternalInconsistency
from .quadrature import GAUSS_ORDER
from .rayleigh import (
    SERIES_ORDER,
    SWITCH_SCALE,
    _BLOCK_BYTES,
    _eval_series,
    _series_coefficients,
    dl_exponential,
    eval_radial,
    exponential_poly,
    t3_termwise,
)
from .resolvent import POLE_SCALE, _denominator, kernel, pole_location

_SQRT2PI = np.sqrt(2.0 * np.pi)
# fixed scan used only to pick the overall sign of an eigenfunction
_SIGN_SCAN = np.linspace(0.25, 6.0, 24)
# tiles of the continuous basis: the fewest lambda rows of a tile (each
# complex temporary stays within rayleigh's _BLOCK_BYTES)
_MIN_ROWS = 16
# rho_1 of the closed-form pair, up to conjugation (see _rho1), and the
# -Re rho_1 that _pair_exponentials takes, which is one ulp below -Re _RHO1
_RHO1 = -_phase(-1 / 6)
_HALF_SQRT3 = np.sqrt(3.0) / 2.0


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
    (n, 4) and (n,).  p is the resolvent denominator on the cut, and the
    phase e^{i phi} = p / |p|.  Terms (0, 1) and (2, 3) of prefactor *
    amplitudes are complex-conjugate pairs with the conjugate rates
    (i lambda, -i lambda) and (rho_1 lambda, conj(rho_1) lambda), which makes
    u real.
    """
    num, den = spec.kappa.num, spec.kappa.den
    family = (spec.xi, spec.l)
    p, scale = _denominator(spec, lam)
    size = abs(p)
    if np.any(size <= 1e-13 * scale):
        raise InternalInconsistency("p(lambda) vanished for real kappa")
    eiphi = p / size
    if family == (1, 1):
        w = 2.0 * num / size
        amps = [1.0 / eiphi, -eiphi, w * _phase(1 / 6), -w * _phase(-1 / 6)]
        pref = 1j / (_SQRT2PI * lam)
    elif family == (1, 2):
        w = 2.0 * lam * den / size
        amps = [
            _phase(1 / 6) / eiphi,
            -_phase(-1 / 6) * eiphi,
            w * _phase(-1 / 6),
            -w * _phase(1 / 6),
        ]
        pref = 1j / (_SQRT2PI * lam**2)
    elif family == (2, 1):
        c3 = -2.0 * (num + _phase(1 / 6) * lam * den) * _phase(1 / 6) / size
        amps = [1.0 / eiphi, eiphi, c3, np.conj(c3)]
        pref = 1.0 / (_SQRT2PI * lam)
    else:
        c3 = -2.0 * (lam**5 * den**5 - _phase(1 / 6) * num**5) / size
        amps = [1.0 / eiphi, -eiphi, c3, -np.conj(c3)]
        pref = 1j / (_SQRT2PI * lam**2)
    rho = _rho1(spec)
    rates = [1j * lam, -1j * lam, rho * lam, rho.conjugate() * lam]
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


def _pair_exponentials(theta, tilt):
    """(e^{i theta}, e^{rho_1 theta}) with rho_1 = -sqrt(3)/2 + tilt i/2 (tilt
    +-1), the exponentials of a closed-form pair at theta = lambda r, from one
    complex exponential h = e^{i theta / 2}: e^{i theta} = h^2 and
    e^{rho_1 theta} = e^{-sqrt(3) theta / 2} h, conjugated for tilt -1."""
    h = np.exp(0.5j * theta)
    decaying = h * np.exp(-_HALF_SQRT3 * theta)
    if tilt < 0:
        np.conjugate(decaying, out=decaying)
    return np.multiply(h, h, out=h), decaying


def _rho1(spec: ExtensionSpec) -> complex:
    """rho_1 = -e^{-i pi/6}, conjugated for xi=1, l=2: the rate of closed-form
    term 2 is rho_1 lambda."""
    return _RHO1.conjugate() if (spec.xi, spec.l) == (1, 2) else _RHO1


def _tilt(spec: ExtensionSpec) -> float:
    """The sign of Im rho_1, which _pair_exponentials takes as its tilt."""
    return float(np.sign(_rho1(spec).imag))


def _split_rows(r, radii, lam, tilt, polys, coefs):
    """Rows of real values at sorted r >= 0 with eval_radial's split: row b
    is the closed form 2 Re sum_k (sum_j polys[b, k, j] r^-j) e^{rho_k lam[b] r}
    above radii[b], with the pair rates rho_k of _pair_exponentials, and the
    origin series with real coefs[b] at or below it."""
    split = np.searchsorted(r, radii, side="right")
    lo, hi = int(split.min()), int(split.max())
    out = np.empty((radii.size, r.size))
    if lo < r.size:
        far = r[lo:]
        inv = 1.0 / far
        e0, e1 = _pair_exponentials(np.multiply.outer(lam, far), tilt)
        for k, e in enumerate((e0, e1)):
            # Horner in 1/r, in place, then into the exponential's own buffer
            q = np.multiply.outer(polys[:, k, -1], inv)
            for j in range(polys.shape[-1] - 2, 0, -1):
                q += polys[:, k, j, None]
                q *= inv
            q += polys[:, k, 0, None]
            e *= q
        e0 += e1
        out[:, lo:] = 2.0 * e0.real
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


# Small on purpose: the reuse that pays is one lambda grid shared by a
# forward and the inverse or apply_function after it, and each entry keeps
# O(n_lambda) arrays alive for the life of the process.
_SETUP_CACHE = 2


@lru_cache(maxsize=_SETUP_CACHE)
def _row_setup(spec: ExtensionSpec, lam_bytes: bytes):
    """(terms, signs) of every row of the float64 lambda grid whose bytes are
    lam_bytes: the closed-form terms and origin series that _split_rows
    evaluates, and the canonical sign of each row (shape (n, 1)).  All of it
    depends on (spec, lambda) alone, so it is cached per (spec, lambda grid)
    across calls, O(n_lambda) in memory, and its arrays are read-only; the
    sign scan runs in chunks of rows whose temporaries each stay within
    _BLOCK_BYTES."""
    lam = np.frombuffer(lam_bytes)
    pref, amps, rates, _ = _eigenfunction_terms(spec, lam)
    a = pref[:, None] * amps
    radii = SWITCH_SCALE / np.max(np.abs(rates), axis=-1)
    tilt = _tilt(spec)
    polys = a[:, ::2, None] * exponential_poly(spec.l, rates[:, ::2])
    coefs = _series_coefficients(spec.l, a, rates, SERIES_ORDER).real
    signs = np.empty((lam.size, 1))
    chunk = _TILE_PAIRS // _SIGN_SCAN.size
    for start in range(0, lam.size, chunk):
        rows = slice(start, start + chunk)
        scan = _split_rows(_SIGN_SCAN, radii[rows], lam[rows], tilt, polys[rows], coefs[rows])
        signs[rows, 0] = _canonical_signs(scan)
    for values in (radii, polys, coefs, signs):
        values.setflags(write=False)
    return (radii, lam, tilt, polys, coefs), signs


def _row_blocks(setup, idx, ncols: int):
    """Yield (rows, terms, signs) over blocks of the rows idx of a _row_setup,
    rows indexing idx: as many rows as a tile of ncols columns allows, at
    least _MIN_ROWS and at most a chunk of the sign scan.  The blocks slice
    the set-up, which is O(n_lambda) and cached per (spec, lambda grid)."""
    (radii, lam, tilt, polys, coefs), signs = setup
    height = max(_MIN_ROWS, _TILE_PAIRS // max(ncols, _SIGN_SCAN.size))
    for start in range(0, idx.size, height):
        rows = slice(start, start + height)
        at = idx[rows]
        yield rows, (radii[at], lam[at], tilt, polys[at], coefs[at]), signs[at]


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
    doubles the real part, both from one complex exponential per (lambda, r)
    pair (_pair_exponentials); the origin series keeps the real part of its
    coefficients.
    """
    lam = _checked_lambda(lam)
    setup = _row_setup(spec, lam.tobytes())
    for rows, terms, signs in _row_blocks(setup, np.arange(lam.size), r.size):
        for cols, u in _row_tiles(terms, signs, r):
            yield rows, cols, u


# ------------------------------------------------ the factored basis
# On a run of Gauss panels of equal width whose nodes are exact sums
# lambda = a_p + delta_j (a_p the panel's first node, delta_j the node offsets
# all these panels share, as transform.spectral_rule places them), each
# closed-form term of the basis is
#
#   A_kb(lambda) r^-b e^{rho_k lambda r} = A_kb(lambda) r^-b e^{rho_k a_p r} e^{rho_k delta_j r}
#
# with rho_0 = i and rho_1 = -e^{-+i pi/6} (_rho1) and A_kb the signed
# amplitude times the D_l polynomial coefficient of r^-b, b = 0..l.  So on the
# columns r >= _FACTOR_CUT / (the panel's smallest node) a contraction with the basis
# is, per (k, b), one matrix product over r between the panel factors
# E_k[p, r] = e^{rho_k a_p r} and the shared factors
# D_k[j, r] r^-b = e^{rho_k delta_j r} r^-b: it takes (panels + 24) n_r
# exponentials instead of n_lambda n_r.  Below the cut the powers r^-b are
# large and cancel once combined, which summing each power over r first would
# not see, so those columns stay on the tiles, as do all other panels.
#
# The cut is taken per run of panels, walking up from the lowest lambda: a run
# starts at a panel and holds as many panels as one tile of its own cut's
# columns allows (_TILE_PAIRS pairs), and every panel of the run takes the
# run's largest cut (its first panel's, on an ascending grid), so each tiled
# run is one rectangle and every factored node has lambda r >= _FACTOR_CUT.
# The factored sums of a part of up to 128 panels start at its smallest cut,
# with E set to zero left of each panel's own cut.
#
# E, D and the tiles take both exponentials of the pair from one complex
# exponential (_pair_exponentials): rho_1 = -sqrt(3)/2 +- i/2 for every
# (l, xi), so e^{rho_1 theta} is a real decay times e^{+-i theta / 2}, whose
# square is e^{i theta}.

# first factored column: r >= _FACTOR_CUT / (smallest node of the run)
_FACTOR_CUT = 4.0
# columns of one factored tile; a tile of E has at most
# _BLOCK_BYTES / (16 _FACTOR_COLS) = 128 panels
_FACTOR_COLS = 256


@dataclass(frozen=True)
class _SharedPanels:
    """Gauss panels of a lambda grid whose nodes are first + offsets exactly.

    rows indexes their nodes in lambda, panel by panel; first holds a_p and
    offsets delta_j.  Panel p is factored on the columns from cuts[p] on, the
    cut of its run."""

    rows: np.ndarray
    first: np.ndarray
    offsets: np.ndarray
    cuts: np.ndarray

    @classmethod
    def find(cls, lam: np.ndarray, r: np.ndarray):
        """The shared panels of lam, read as consecutive panels of GAUSS_ORDER
        nodes, for sorted columns r: the panels whose nodes equal their first
        node plus the most common row of offsets, bit for bit.  None when
        fewer than two panels do or no column lies beyond any cut (the tiles
        then do it all)."""
        if lam.size % GAUSS_ORDER:
            return None
        nodes = lam.reshape(-1, GAUSS_ORDER)
        first = nodes[:, 0]
        kinds, counts = np.unique(nodes - first[:, None], axis=0, return_counts=True)
        offsets = kinds[np.argmax(counts)]
        panels = np.flatnonzero(np.all(first[:, None] + offsets == nodes, axis=1))
        if panels.size < 2:
            return None
        own = np.searchsorted(r, _FACTOR_CUT / np.min(nodes[panels], axis=1))
        cuts, top = np.empty_like(own), 0
        while top < own.size:
            run = slice(top, top + max(1, _TILE_PAIRS // (GAUSS_ORDER * max(own[top], 1))))
            cuts[run] = np.max(own[run])
            top = run.stop
        if np.min(cuts) == r.size:
            return None
        rows = (panels[:, None] * GAUSS_ORDER + np.arange(GAUSS_ORDER)).ravel()
        return cls(rows, first[panels], offsets, cuts)

    def parts(self):
        """The panels in parts short enough for one tile of E per column tile,
        which also bounds the per-panel sums of a part."""
        height = _BLOCK_BYTES // (16 * _FACTOR_COLS)
        for top in range(0, self.first.size, height):
            panels = slice(top, top + height)
            nodes = slice(top * GAUSS_ORDER, (top + height) * GAUSS_ORDER)
            yield _SharedPanels(self.rows[nodes], self.first[panels], self.offsets, self.cuts[panels])

    def runs(self):
        """Yield (at, cut): the positions at in self.rows of each stretch of
        panels with one cut."""
        ends = np.append(np.flatnonzero(np.diff(self.cuts)) + 1, self.cuts.size)
        for start, stop in zip(np.append(0, ends[:-1]), ends):
            yield np.arange(start * GAUSS_ORDER, stop * GAUSS_ORDER), int(self.cuts[start])

    def tiles(self, tilt, r):
        """Yield (cols, E, D) over tiles of the columns r from the smallest cut
        on: E[k] = e^{rho_k a_p r}, zero left of each panel's cut, and
        D[k] = e^{rho_k delta_j r}, E within _BLOCK_BYTES for a part's panels."""
        for start in range(int(np.min(self.cuts)), r.size, _FACTOR_COLS):
            cols = slice(start, min(start + _FACTOR_COLS, r.size))
            rc = r[cols]
            e = _pair_exponentials(np.multiply.outer(self.first, rc), tilt)
            below = self.cuts[:, None] > np.arange(cols.start, cols.stop)
            for ek in e:
                ek[below] = 0.0
            yield cols, e, _pair_exponentials(np.multiply.outer(self.offsets, rc), tilt)

    def sums(self, tilt, npow: int, r, x):
        """S[k, p, b, j] = sum_r x(r) r^-b e^{rho_k (a_p + delta_j) r} over the
        columns from panel p's cut on: one matrix product over r per (k, b)
        and tile."""
        out = np.zeros((2, self.first.size, npow, GAUSS_ORDER), np.complex128)
        for cols, e, d in self.tiles(tilt, r):
            for b, xb in enumerate(_powers(r[cols], npow) * x[cols]):
                for k in range(2):
                    out[k, :, b] += e[k] @ (d[k] * xb).T
        return out

    def synthesis(self, tilt, z, r):
        """f(r) = 2 Re sum_{k, p, b, j} z[k, p, b, j] r^-b e^{rho_k (a_p + delta_j) r}
        on the columns from panel p's cut on, the transpose of sums."""
        acc = np.zeros(r.size, np.complex128)
        for cols, e, d in self.tiles(tilt, r):
            for b, rb in enumerate(_powers(r[cols], z.shape[2])):
                for k in range(2):
                    acc[cols] += rb * np.einsum("wj,jw->w", e[k].T @ z[k, :, b], d[k])
        return 2.0 * acc.real


def _powers(r, npow: int):
    """Rows r^-b for b = 0..npow-1."""
    return r ** -np.arange(npow, dtype=np.float64)[:, None]


def _amplitudes(terms, signs):
    """A[i, k, b]: the signed coefficient of r^-b e^{rho_k lambda_i r} in row i."""
    return signs[:, :, None] * terms[3]


def _row_groups(lam, r):
    """Yield (part, runs): a _SharedPanels part (None for the rows left wholly
    to the tiles) and its runs (idx, cut, at).  The rows idx of lam are tiled
    on the columns r[:cut], and sit at positions at of part.rows, whose sums
    factor the columns beyond each panel's cut."""
    shared = _SharedPanels.find(lam, r)
    direct = np.arange(lam.size)
    if shared is not None:
        direct = np.setdiff1d(direct, shared.rows, assume_unique=True)
    yield None, [(direct, r.size, None)]
    if shared is not None:
        for part in shared.parts():
            yield part, [(part.rows[at], cut, at) for at, cut in part.runs()]


def _basis_matvec(spec: ExtensionSpec, lam, r, x) -> np.ndarray:
    """c = U x for the basis U of _basis_blocks at sorted r >= 0 and real x,
    without forming U: the shared panels' columns beyond their cuts by the
    factored sums, everything else by tiles."""
    lam = _checked_lambda(lam)
    setup = _row_setup(spec, lam.tobytes())
    tilt, c = _tilt(spec), np.zeros(lam.size)
    for part, runs in _row_groups(lam, r):
        if part is not None:
            sums = part.sums(tilt, spec.l + 1, r, x)
        for idx, cut, at in runs:
            for rows, terms, signs in _row_blocks(setup, idx, cut):
                for cols, u in _row_tiles(terms, signs, r[:cut]):
                    c[idx[rows]] += u @ x[cols]
                if part is not None:
                    p, j = np.divmod(at[rows], GAUSS_ORDER)
                    far = _amplitudes(terms, signs) * sums[:, p, :, j]
                    c[idx[rows]] += 2.0 * np.sum(far, axis=(1, 2)).real
    return c


def _basis_rmatvec(spec: ExtensionSpec, lam, r, y) -> np.ndarray:
    """f = y U for the basis U of _basis_blocks at sorted r >= 0 and real y,
    split between factored sums and tiles as in _basis_matvec."""
    lam = _checked_lambda(lam)
    setup = _row_setup(spec, lam.tobytes())
    tilt, f = _tilt(spec), np.zeros(r.size)
    for part, runs in _row_groups(lam, r):
        if part is not None:
            # z[k, p, b, j]: the coefficient of r^-b e^{rho_k (a_p + delta_j) r}
            z = np.zeros((2, part.first.size, spec.l + 1, GAUSS_ORDER), np.complex128)
        for idx, cut, at in runs:
            for rows, terms, signs in _row_blocks(setup, idx, cut):
                for cols, u in _row_tiles(terms, signs, r[:cut]):
                    f[cols] += y[idx[rows]] @ u
                if part is not None:
                    p, j = np.divmod(at[rows], GAUSS_ORDER)
                    z[:, p, :, j] += _amplitudes(terms, signs) * y[idx[rows], None, None]
        if part is not None:
            f += part.synthesis(tilt, z, r)
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
