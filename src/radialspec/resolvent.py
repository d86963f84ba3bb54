"""Resolvent kernel of the sixth-order extension in the sector 0 < arg z < pi/3.

For z in the sector, the six solutions of (T_l^3 - z^6) f = 0 split into
three decaying ones g_k = D_l e^{i e^{i pi k/3} z r} and three growing ones
d_k = D_l e^{-i e^{i pi k/3} z r}.  The kernel is assembled from corrected
boundary solutions h_k = d_k + alpha_k g_k + beta_k g_{k+1} + gamma_k g_{k+2}
whose coefficients are rational in (z, kappa) with a common denominator p(z).

The coefficient tables are shipped in closed form (CLOSED_TABLE) and checked
against an independent linear-system oracle; where the two disagreed the
oracle won, and the superseded printed entries are kept in
PRINTED_TABLE_ERRATA for the record.

The kernel is separable, R(r, s; z) = sum_k c_k g_k(r_>) h_k(r_<), so
apply_resolvent needs no quadrature per output point.  On one composite Gauss
grid over (0, r_max) whose panel edges include every output point, f is
sampled once, each segment between consecutive outputs is summed once, and a
forward recurrence gives the inner integrals of h_k f while a backward one
gives the tails of g_k f (Greengard & Rokhlin, "On the numerical solution of
two-point boundary value problems", CPAM 44, 1991).  The panels are sized
from the frequency |z| + 24 of the integrands, so the cost is
O(n_quad + n_out) with n_quad ~ (|z| + 24) r_max + 24 n_out nodes, against
O(n_out n_quad) for a quadrature per point.

The segment sums are factored per Gauss panel.  A segment is a run of
equal-width panels, so the exponential of node x = mid_p + half t_j towards
its output splits into one factor per panel and one per Gauss offset t_j of
the segment: a call forms 3 (panels + 24 segments) complex exponentials, not
3 n_quad.  The tails contract real rows x^-b f w with the offset factors by
matrix products, in chunks of panels whose gathered factors fill one
_BLOCK_BYTES block, so no complex pass runs over the grid.

Everything is carried in scaled form.  With chi_k the rate of g_k
(Re chi_k < 0), g_k e^{-chi_k r} and h_k e^{chi_k r} are bounded, the
recurrences step by e^{chi_k dr} with |e^{chi_k dr}| <= 1, and kernel forms
d_k(r_<) g_k(r_>) as P_d(r_<) P_g(r_>) e^{chi_k (r_> - r_<)} from the
polynomial factors P of D_l e^{+-chi r}.  No growing exponential is ever
formed, so nothing overflows at large r.

The part of the kernel that depends only on (spec, z) -- the coefficient
tables, the rates chi_k, the polynomial factors of D_l e^{+-chi_k r} and the
weights c_k -- is built once per (spec, z, allow_boundary) into one bounded,
read-only set-up, _kernel_setup, so a grid of kernel values at one z pays for
it once and a scalar call makes one cache lookup.  kernel and apply_resolvent
both read it; it is the one place for further per-(spec, z) data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .boundary import condition_rows
from .core import KAPPA_POWER, ExponentialSum, ExtensionSpec, RadialFunction, _phase
from .errors import (
    DomainError,
    InternalInconsistency,
    InvalidInput,
    PoleError,
    SectorError,
)
from .quadrature import GAUSS_ORDER, _UNBOUNDED_OMEGA, _gauss_legendre, panel_grid, panel_width
from .rayleigh import (
    _BLOCK_BYTES,
    _eval_split,
    _horner_inv,
    derivative,
    eval_radial,
    exponential_poly,
)


# p(z) = az * z^pw + ak * kappa^pw, keyed by (xi, l), with pw = KAPPA_POWER.
P_TERMS = {
    (1, 1): (3.0, 2.0 * _phase(1 / 6)),
    (1, 2): (2.0, 3.0 * _phase(1 / 6)),
    (2, 1): (1.0, 2.0 * _phase(1 / 6)),
    (2, 2): (1.0, 2.0 * _phase(5 / 6)),
}

# Bound-state pole z_p = -c * e^{i pi/6} * kappa exists for kappa < 0.
POLE_SCALE = {(1, 1): 2.0 / 3.0, (1, 2): 3.0 / 2.0, (2, 1): 2.0, (2, 2): 2.0**0.2}

# Numerators (az, ak) with coefficient = (az z^pw + ak kappa^pw) / p,
# listed per k as (alpha, beta, gamma).
CLOSED_TABLE = {
    (1, 1): (
        ((-3.0, 2.0 * _phase(5 / 6)), (0.0, 2.0 * _phase(-5 / 6)), (0.0, 2.0 * _phase(-1 / 6))),
        ((-3.0, 0.0), (0.0, 2.0 * _phase(5 / 6)), (0.0, -2.0j)),
        ((-3.0, -2.0j), (0.0, 2.0j), (0.0, 2.0 * _phase(-5 / 6))),
    ),
    (1, 2): (
        ((2.0 * _phase(-2 / 3), 3.0 * _phase(7 / 6)), (2.0 * _phase(1 / 3), 0.0), (-2.0, 0.0)),
        ((0.0, 3.0 * _phase(7 / 6)), (2.0 * _phase(2 / 3), 0.0), (2.0 * _phase(-2 / 3), 0.0)),
        ((2.0 * _phase(2 / 3), 3.0 * _phase(7 / 6)), (-2.0, 0.0), (2.0 * _phase(-1 / 3), 0.0)),
    ),
    (2, 1): (
        ((1.0, 2.0 * _phase(-1 / 6)), (2.0 * _phase(-2 / 3), 2.0 * _phase(-5 / 6)), (2.0 * _phase(2 / 3), 2.0 * _phase(5 / 6))),
        ((-3.0, 0.0), (2.0 * _phase(1 / 3), 2.0 * _phase(5 / 6)), (2.0 * _phase(-1 / 3), -2.0j)),
        ((1.0, 2.0j), (2.0 * _phase(-2 / 3), -2.0j), (2.0 * _phase(2 / 3), 2.0 * _phase(-5 / 6))),
    ),
    (2, 2): (
        ((-1.0, 2.0 * _phase(1 / 6)), (2.0, 2.0 * _phase(-5 / 6)), (-2.0, 2.0 * _phase(-1 / 6))),
        ((3.0, 0.0), (-2.0, -2.0j), (-2.0, 2.0 * _phase(1 / 6))),
        ((-1.0, -2.0j), (-2.0, 2.0 * _phase(-1 / 6)), (2.0, 2.0j)),
    ),
}

# Printed entries superseded by the linear-system oracle (kept for the record;
# values are the printed (az, ak) numerator pairs over the same p).
PRINTED_TABLE_ERRATA = {
    ((1, 1), 2, "alpha"): (-3.0, -2.0 * _phase(5 / 6)),
    ((1, 2), 0, "alpha"): (-3.0 * _phase(1 / 3), 3.0 * _phase(7 / 6)),
    ((1, 2), 2, "alpha"): (2.0 * _phase(1 / 3), 3.0 * _phase(7 / 6)),
    ((2, 1), 0, "alpha"): (1.0, -2.0 * _phase(-1 / 6)),
    ((2, 1), 1, "beta"): (2.0 * _phase(1 / 3), 2.0 * _phase(-1 / 6)),
}

# A pristine copy of CLOSED_TABLE, which set_coefficient_injection restores.
_CLOSED_TABLE = dict(CLOSED_TABLE)


def set_coefficient_injection(entry):
    """Test hook: negate the CLOSED_TABLE numerator pair of entry =
    ((xi, l), k, "alpha" | "beta" | "gamma"), so that coefficient is exactly
    -value and the oracle-equivalence suite must fire; None restores it."""
    CLOSED_TABLE.update(_CLOSED_TABLE)
    if entry is not None:
        family, k, name = entry
        rows = [list(row) for row in CLOSED_TABLE[family]]
        col = ("alpha", "beta", "gamma").index(name)
        rows[k][col] = tuple(-v for v in rows[k][col])
        CLOSED_TABLE[family] = rows
    _kernel_setup.cache_clear()


def validate_sector(z: complex, allow_boundary: bool = False) -> complex:
    """Check 0 < arg z < pi/3 (closed sector with allow_boundary)."""
    z = complex(z)
    if z == 0:
        raise SectorError("z must be nonzero")
    arg = np.angle(z)
    lo, hi = 0.0, np.pi / 3.0
    pad = 1e-12 if allow_boundary else -1e-15
    if not (lo - pad < arg < hi + pad):
        raise SectorError(f"arg z = {arg:.6f} outside the sector (0, pi/3)")
    return z


def g_rate(z: complex, k: int) -> complex:
    return 1j * _phase(k / 3) * z


def basis_g(l: int, z: complex, k: int, allow_boundary: bool = False) -> RadialFunction:
    """Decaying solution g_k of (T_l - e^{2 pi i k/3} z^2) f = 0."""
    validate_sector(z, allow_boundary)
    if k not in (0, 1, 2):
        raise InvalidInput("k must be 0, 1 or 2")
    return RadialFunction(ExponentialSum([1.0], [g_rate(z, k)]), l)


def basis_d(l: int, z: complex, k: int, allow_boundary: bool = False) -> RadialFunction:
    """Growing partner d_k of g_k (same second-order equation)."""
    validate_sector(z, allow_boundary)
    if k not in (0, 1, 2):
        raise InvalidInput("k must be 0, 1 or 2")
    return RadialFunction(ExponentialSum([1.0], [-g_rate(z, k)]), l)


def wronskian(l: int, z: complex, k: int) -> complex:
    """Closed-form W_k = d_k' g_k - d_k g_k' (r-independent)."""
    if k not in (0, 1, 2):
        raise InvalidInput("k must be 0, 1 or 2")
    if l == 1:
        return (-2j * z**3, 2j * z**3, -2j * z**3)[k]
    if l == 2:
        return (-2j * z**5, 2j * _phase(2 / 3) * z**5, 2j * _phase(1 / 3) * z**5)[k]
    raise InvalidInput(f"l={l} not supported")


def wronskian_numeric(l: int, z: complex, k: int, r: float) -> complex:
    g = basis_g(l, z, k, allow_boundary=True)
    d = basis_d(l, z, k, allow_boundary=True)
    return derivative(d, r, 1) * eval_radial(g, r) - eval_radial(d, r) * derivative(
        g, r, 1
    )


@dataclass(frozen=True)
class CoefficientSet:
    """alpha_k, beta_k, gamma_k (k = 0..2) over the common denominator p."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    p: complex


def _denominator(spec: ExtensionSpec, z: complex):
    """(p, magnitude scale) with the projective kappa folded in."""
    pw = KAPPA_POWER[(spec.xi, spec.l)]
    az, ak = P_TERMS[(spec.xi, spec.l)]
    num, den = spec.kappa.num, spec.kappa.den
    t1 = az * z**pw * den**pw
    t2 = ak * num**pw
    return t1 + t2, abs(t1) + abs(t2)


def pole_location(spec: ExtensionSpec):
    """The denominator zero z_p inside the sector, or None (exists iff kappa < 0)."""
    if spec.kappa.is_infinite or spec.kappa.value >= 0:
        return None
    return -POLE_SCALE[(spec.xi, spec.l)] * _phase(1 / 6) * spec.kappa.value


def _checked_denominator(spec: ExtensionSpec, z: complex):
    p, scale = _denominator(spec, z)
    if abs(p) <= 1e-12 * scale:
        raise PoleError(
            f"z = {z} is at the resolvent pole of {spec}", pole=pole_location(spec)
        )
    return p


def coefficients_closed_form(
    spec: ExtensionSpec, z: complex, allow_boundary: bool = False
) -> CoefficientSet:
    """The (corrected) coefficient tables evaluated at z, with read-only
    alpha, beta and gamma.

    Raises SectorError outside the sector and PoleError at the resolvent pole.
    Not cached: kernel and apply_resolvent read the tables from _kernel_setup.
    """
    validate_sector(z, allow_boundary)
    p = _checked_denominator(spec, z)
    pw = KAPPA_POWER[(spec.xi, spec.l)]
    num, den = spec.kappa.num, spec.kappa.den
    zp, kp = z**pw * den**pw, complex(num**pw)
    out = {"alpha": np.empty(3, complex), "beta": np.empty(3, complex), "gamma": np.empty(3, complex)}
    for k in range(3):
        for name, (az, ak) in zip(("alpha", "beta", "gamma"), CLOSED_TABLE[(spec.xi, spec.l)][k]):
            out[name][k] = (az * zp + ak * kp) / p
    for values in out.values():
        values.setflags(write=False)
    return CoefficientSet(out["alpha"], out["beta"], out["gamma"], p)


def coefficients_oracle(
    spec: ExtensionSpec, z: complex, allow_boundary: bool = False
) -> CoefficientSet:
    """Independent 3x3 linear solve of the boundary conditions for each h_k."""
    validate_sector(z, allow_boundary)
    p = _checked_denominator(spec, z)
    alpha, beta, gamma = np.empty(3, complex), np.empty(3, complex), np.empty(3, complex)
    for k in range(3):
        chis = np.array(
            [-g_rate(z, k), g_rate(z, k), g_rate(z, (k + 1) % 3), g_rate(z, (k + 2) % 3)]
        )
        rows = condition_rows(spec, chis)
        a = np.array([row[1:] for row in rows])
        b = -np.array([row[0] for row in rows])
        if abs(np.linalg.det(a)) <= 1e-13 * np.prod(np.linalg.norm(a, axis=1)):
            raise InternalInconsistency("singular boundary system at generic z")
        alpha[k], beta[k], gamma[k] = np.linalg.solve(a, b)
    return CoefficientSet(alpha, beta, gamma, p)


def h_solution(
    spec: ExtensionSpec, z: complex, k: int, allow_boundary: bool = False
) -> RadialFunction:
    """h_k = d_k + alpha_k g_k + beta_k g_{k+1} + gamma_k g_{k+2}."""
    c = coefficients_closed_form(spec, z, allow_boundary)
    amps = [1.0, c.alpha[k], c.beta[k], c.gamma[k]]
    rates = [-g_rate(z, k), g_rate(z, k), g_rate(z, (k + 1) % 3), g_rate(z, (k + 2) % 3)]
    return RadialFunction(ExponentialSum(amps, rates), spec.l)


@dataclass(frozen=True)
class KernelValue:
    """Resolvent kernel value with its growing/decaying split.

    Complex numbers for scalar (r, s), arrays of their broadcast shape otherwise.
    """

    total: complex
    R0: complex
    R1: complex
    R2: complex
    Rg: complex

    @property
    def cancellation(self):
        """(|R0| + |R1| + |R2| + |Rg|) / |total|, elementwise for arrays.

        The parts are summed in double precision, so the relative error of
        total is about eps times this factor.  It is near 1 where nothing
        cancels, and 9e10 at r = s = 0.1 for l = 2, xi = 1, kappa = 0.3,
        where total keeps about 5 digits.
        """
        return (abs(self.R0) + abs(self.R1) + abs(self.R2) + abs(self.Rg)) / abs(self.total)


# Small on purpose: the reuse that pays is within one grid or apply at one z,
# and the cache keeps its arrays alive for the life of the process.  Typed,
# since a complex and an np.complex128 z round z**pw differently.
@functools.lru_cache(maxsize=64, typed=True)
def _kernel_setup(spec: ExtensionSpec, z, allow_boundary: bool):
    """(rates, polys, amps, ck), read-only: everything kernel and
    apply_resolvent read of (spec, z), one row per term and a unit point
    axis.  rates (6, 1) holds chi_k, the rate of g_k, twice, for
    e^{chi_k r_<} and e^{chi_k (r_> - r_<)}; polys (9, 1, P) holds the
    factors P_g(r_<), P_d(r_<) and P_g(r_>) of D_l e^{+-chi_k x}, each
    Horner column polys[..., j] contiguous; amps[m, k] (3, 3, 1) is
    alpha_k, beta_k, gamma_k of h_k for m = 0, 1, 2; ck (3, 1) is
    c_k = e^{2 pi i k/3} / (3 z^4 W_k).  Raises what
    coefficients_closed_form raises, on every call."""
    c = coefficients_closed_form(spec, z, allow_boundary)
    chi = np.array([g_rate(z, k) for k in range(3)])
    p = exponential_poly(spec.l, np.concatenate((chi, -chi)))
    ck = np.array(
        [_phase(2 * k / 3) / (3.0 * z**4 * wronskian(spec.l, z, k)) for k in range(3)]
    )
    setup = (
        np.concatenate((chi, chi))[:, None],
        np.asfortranarray(p[[0, 1, 2, 3, 4, 5, 0, 1, 2], None]),
        np.stack((c.alpha, c.beta, c.gamma))[:, :, None],
        ck[:, None],
    )
    for values in setup:
        values.setflags(write=False)
    return setup


# rows of (1/r_<, 1/r_>, r_<, r_> - r_<) behind polys' 9 rows and the 6
# exponential arguments of kernel
_SPREAD = np.array([0] * 6 + [1] * 3 + [2] * 3 + [3] * 3)
# row m of g_lo.take(_MIX, 0) holds g_k, g_{k+1}, g_{k+2} (m = 0, 1, 2) at
# r_<, the partners of amps[m, k] in h_k
_MIX = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
# points per tile of a broadcast kernel call: its spread x fills one block
_KERNEL_TILE = _BLOCK_BYTES // (16 * _SPREAD.size)


def _kernel_terms(setup, x):
    """kernel's one arithmetic body: (total, (R0, R1, R2), Rg) at the points
    of x, a (4,) or (4, n) complex array of rows 1/r_<, 1/r_>, r_< and
    r_> - r_< with zero imaginary parts, so that each product with x rounds
    as the product with the real number would."""
    rates, polys, amps, ck = setup
    x = x.take(_SPREAD, 0).reshape(_SPREAD.size, -1)
    # P_g(r_<), P_d(r_<), P_g(r_>) and e^{chi_k r_<}, e^{chi_k (r_> - r_<)}
    q = _horner_inv(polys, x[:9])
    e = np.exp(rates * x[9:])
    # R_k and the k-th term of Rg share the bounded factor
    # c_k P_g(r_>) e^{chi_k (r_> - r_<)}; Rg's g_k(r_>) is that factor times
    # e^{chi_k r_<}
    g_lo = q[:3] * e[:3]
    shared = ck * q[6:] * e[3:]
    # each reduce below adds its three rows in order, (a + b) + c: numpy
    # pairs terms only from eight on
    mix = np.add.reduce(amps * g_lo.take(_MIX, 0), 0)
    parts = shared * q[3:6]
    rg = np.add.reduce(shared * (mix * e[:3]), 0)
    return np.add.reduce(parts, 0) + rg, parts, rg


def kernel(
    spec: ExtensionSpec, z: complex, r, s, allow_boundary: bool = False
) -> KernelValue:
    """R(r, s; z), symmetric in (r, s) and broadcast over them; parts R0..R2
    carry the growing d_k terms, evaluated in scaled form as
    P_d(r_<) P_g(r_>) e^{chi_k (r_> - r_<)} so that nothing overflows.

    Scalar and broadcast calls share one set-up lookup per
    (spec, z, allow_boundary) and one body, _kernel_terms, over a flat point
    axis: of length 1 for scalar (r, s), in tiles of _KERNEL_TILE points
    otherwise.  So a scalar value equals the matching element of a broadcast
    call bit for bit.  Float r and s are checked, ordered and inverted as
    Python floats, which round as float64 arrays do.  On a 2-vCPU VM with
    numpy 2.4 a warm scalar call takes 16-19 us and a 200 x 200 grid 11-12
    ms.
    """
    if isinstance(r, float) and isinstance(s, float):
        # NaN fails every comparison, so this rejects NaN, +-inf and r, s <= 0
        if not (0.0 < r < np.inf and 0.0 < s < np.inf):
            raise DomainError("kernel requires finite r, s > 0")
        lo, hi = (r, s) if r < s else (s, r)
        shape = ()
    else:
        r = np.asarray(r, np.float64)
        s = np.asarray(s, np.float64)
        lo, hi = np.minimum(r, s), np.maximum(r, s)
        # NaN propagates through both, so this rejects NaN, +-inf and r, s <= 0
        if not np.all((lo > 0) & (hi < np.inf)):
            raise DomainError("kernel requires finite r, s > 0")
        shape = lo.shape
        lo, hi = lo.ravel(), hi.ravel()
    x = np.array((1.0 / lo, 1.0 / hi, lo, hi - lo), np.complex128)
    setup = _kernel_setup(spec, z, allow_boundary)
    if not shape:
        total, parts, rg = _kernel_terms(setup, x)
        return KernelValue(total.item(), *parts.ravel().tolist(), rg.item())
    out = np.empty((5, lo.size), np.complex128)
    for first in range(0, lo.size, _KERNEL_TILE):
        tile = slice(first, first + _KERNEL_TILE)
        out[0, tile], out[1:4, tile], out[4, tile] = _kernel_terms(setup, x[:, tile])
    return KernelValue(*out.reshape((5,) + shape))


def _sweep(steps, sums) -> np.ndarray:
    """acc_i = steps_i acc_{i-1} + sums_i from acc_{-1} = 0."""
    out, acc = [], 0j
    for t, v in zip(steps, sums):
        acc = t * acc + v
        out.append(acc)
    return np.array(out, np.complex128)


def _exponentials(chis, d) -> np.ndarray:
    """e^{chi_k d} with k along a new trailing axis: every complex exponential
    of apply_resolvent's segment sums."""
    return np.exp(np.multiply.outer(d, chis))


# panels per chunk of the segment sums: the offset factors gathered for one
# chunk, (panels, GAUSS_ORDER, 3) complex, fill one _BLOCK_BYTES block
_CHUNK_PANELS = max(1, _BLOCK_BYTES // (16 * GAUSS_ORDER * 3))


def _panel_chunks(start: int, stop: int):
    """Slices of at most _CHUNK_PANELS panels that cover [start, stop)."""
    return (slice(i, min(i + _CHUNK_PANELS, stop)) for i in range(start, stop, _CHUNK_PANELS))


def _inner_sums(hs, chis, x, fw, offsets, d):
    """sum_j H_k(x_pj) fw_pj e^{chi_k (q - x_pj)} per panel p, shape
    (panels, k), for the output q that ends p's segment: d = q - mid_p, and
    offsets[p, j, k] = e^{chi_k half t_j} of the segment, taken mirrored
    (the Gauss offsets are symmetric, t_{n-1-j} = -t_j).
    H_k comes from _eval_split, so the origin series serves points near 0."""
    out = _exponentials(chis, d)
    for k, (hk, chi) in enumerate(zip(hs, chis)):
        hf = _eval_split(hk, x.ravel(), 0, chi).reshape(x.shape) * fw
        out[:, k] *= np.einsum("pj,pj->p", hf, offsets[:, ::-1, k])
    return out


def _tail_sums(polys, chis, x, fw, offsets, d):
    """sum_j G_k(x_pj) fw_pj e^{chi_k (x_pj - q)} per panel p, shape
    (panels, k), for the output q that starts p's segment: d = mid_p - q,
    offsets[p, j, k] = e^{chi_k half t_j} of the segment and
    G_k = sum_b polys[k, b] x^-b.  The real rows x^-b fw (real and imaginary
    parts apart for a complex f) meet the offsets in one real matrix
    product per panel, with no complex pass over the nodes."""
    nb = polys.shape[1]
    parts = (fw.real, fw.imag) if np.iscomplexobj(fw) else (fw,)
    rows = np.empty((x.shape[0], len(parts) * nb, x.shape[1]))
    inv = 1.0 / x
    for i, part in enumerate(parts):
        rows[:, i * nb] = part
        for b in range(i * nb + 1, (i + 1) * nb):
            rows[:, b] = rows[:, b - 1] * inv
    y = np.matmul(rows, offsets.view(np.float64)).view(np.complex128)
    if len(parts) == 2:
        y = y[:, :nb] + 1j * y[:, nb:]
    return _exponentials(chis, d) * np.einsum("kb,pbk->pk", polys, y)


def apply_resolvent(
    spec: ExtensionSpec,
    z: complex,
    f,
    r,
    r_max: float = None,
    allow_boundary: bool = False,
):
    """u(r) = integral over (0, r_max) of R(r, s; z) f(s) ds for a callable f,
    vectorized in r; r_max defaults to 40 decay lengths of the slowest g_k.

    One composite Gauss grid covers (0, r_max) with panels whose edges
    include every output point, and f is sampled once on it.  Each segment
    between outputs has max(1, ceil(len / w)) equal panels of the width
    w = panel_width(|z| + _UNBOUNDED_OMEGA): |chi_k| = |z| bounds every rate
    of g_k, d_k and h_k, and f is a callable with no frequency bound of its
    own.  With chi_k the rate of g_k and q_0 < ... < q_{m-1} the distinct
    outputs, u(q_i) = sum_k c_k [G_k(q_i) A_i + H_k(q_i) B_i],
    where G_k = g_k e^{-chi_k r} and H_k = h_k e^{chi_k r} are bounded, and
    A_i = int_0^{q_i} e^{chi_k (q_i - s)} H_k f ds,
    B_i = int_{q_i}^{r_max} e^{chi_k (s - q_i)} G_k f ds
    follow from one sum per segment between outputs by the recurrences
    A_i = e^{chi_k (q_i - q_{i-1})} A_{i-1} + S_i and its mirror image.
    G_k is the polynomial factor P_g of D_l e^{chi_k r} alone: a Horner pass
    in 1/q with no exponential.  chi_k, P_g and c_k come from kernel's
    set-up, whose lookup checks the sector and the pole first.

    The panels of a segment have one width 2 half, so at node
    x = mid_p + half t_j the exponential of a tail factors as
    e^{chi_k (x - q)} = e^{chi_k (mid_p - q)} e^{chi_k half t_j}, and that of
    an inner sum is its mirror image; both factors are bounded by
    e^{|Re chi_k| half}.  The tails contract the real rows x^-b f w against
    the offset factors by matrix products (_tail_sums); the inner sums
    multiply H_k f w, from the closed form or the origin series near 0, by
    them (_inner_sums).

    Memory is O(n_quad) for the grid and f's samples; the sums run in
    chunks of panels, and the closed forms of f (when f evaluates one) and
    H_k run in tiles, so no (n_quad x terms) array is formed.  Peaks under
    tracemalloc: 13 outputs at the default r_max (about 6k nodes) 1.1 MB,
    and 1500 outputs on (1, 1500) with r_max = 2500 (97k nodes) 7.1 MB.
    """
    rates, polys, _, ck = _kernel_setup(spec, z, allow_boundary)
    chis, polys, weights = rates[:3, 0], polys[:3, 0], ck[:, 0]
    scalar = np.isscalar(r)
    rr = np.atleast_1d(np.asarray(r, np.float64))
    if not np.all(np.isfinite(rr) & (rr > 0)):
        raise DomainError("apply_resolvent requires finite r > 0")
    if r_max is None:
        r_max = 40.0 / np.min(-chis.real)
    q, where = np.unique(rr.ravel(), return_inverse=True)
    if q.size == 0:
        return np.zeros(rr.shape, np.complex128)
    if not (np.isfinite(r_max) and r_max > q[-1]):
        raise DomainError("apply_resolvent requires a finite r_max > max(r)")
    hs = [h_solution(spec, z, k, allow_boundary) for k in range(3)]
    m = q.size
    edges = np.concatenate(([0.0], q, [r_max]))
    width = panel_width(abs(z) + _UNBOUNDED_OMEGA)
    npanels = np.maximum(1, np.ceil(np.diff(edges) / width)).astype(np.int64)
    x, w, mid, half = panel_grid(edges[:-1], edges[1:], npanels)
    fw = (w.ravel() * f(x.ravel())).reshape(x.shape)
    # segments 0..m-1 end at an output (inner sums), 1..m start at one
    # (tails): panels [0, first[m]) are inner, [first[1], end) tails
    first = np.cumsum(npanels) - npanels
    seg = np.repeat(np.arange(m + 1), npanels)
    offsets = _exponentials(chis, np.multiply.outer(half, _gauss_legendre(GAUSS_ORDER)[0]))
    inner = np.empty((first[m], 3), np.complex128)
    for p in _panel_chunks(0, first[m]):
        inner[p] = _inner_sums(hs, chis, x[p], fw[p], offsets[seg[p]], edges[seg[p] + 1] - mid[p])
    tails = np.empty((seg.size, 3), np.complex128)  # rows first[1].. are used
    for p in _panel_chunks(first[1], seg.size):
        tails[p] = _tail_sums(polys, chis, x[p], fw[p], offsets[seg[p]], mid[p] - edges[seg[p]])
    s_in = np.add.reduceat(inner, first[:m])
    s_out = np.add.reduceat(tails[first[1] :], first[1:] - first[1])
    u = np.zeros(m, np.complex128)
    for k, (chi, ck, hk) in enumerate(zip(chis, weights, hs)):
        steps = np.concatenate(([1.0], np.exp(chi * np.diff(q)))).tolist()
        a = _sweep(steps, s_in[:, k].tolist())
        b = _sweep(steps[:1] + steps[:0:-1], s_out[::-1, k].tolist())[::-1]
        u += ck * (_horner_inv(polys[k], 1.0 / q) * a + _eval_split(hk, q, 0, chi) * b)
    out = u[where].reshape(rr.shape)
    return out[0] if scalar else out


def cross_relation_residuals(spec: ExtensionSpec, z: complex) -> np.ndarray:
    """The three beta/gamma/Wronskian identities; all should vanish."""
    c = coefficients_closed_form(spec, z)
    w = [wronskian(spec.l, z, k) for k in range(3)]
    pairs = [
        (c.beta[0] / w[0], _phase(2 / 3) * c.gamma[1] / w[1]),
        (c.gamma[0] / w[0], _phase(4 / 3) * c.beta[2] / w[2]),
        (_phase(2 / 3) * c.beta[1] / w[1], _phase(4 / 3) * c.gamma[2] / w[2]),
    ]
    return np.array(
        [abs(a - b) / max(abs(a), abs(b), 1e-300) for a, b in pairs], np.float64
    )
