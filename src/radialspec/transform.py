"""Spectral transform, functional calculus, and the finite-difference oracle.

The operator satisfies a resolution of identity: the rank-one continuous
densities u^lambda(r) u^lambda(s) integrated over lambda > 0, plus (for
kappa < 0) the bound-state projector, reconstruct any function in the
extension's domain.  This module realizes the forward transform
c(lambda) = <u^lambda, f>, its inverse, phi(T) f for scalar maps phi, and a
Parseval defect measurement.

Everything integrates on composite Gauss-Legendre grids: radially a uniform
panel rule, spectrally one panel on (0, lambda_min), a geometric stack above
it (where densities vary fastest) joined to uniform panels narrow enough to
resolve the oscillation e^{i lambda r_max}.  The rule starts at lambda = 0
because c(lambda) need not vanish there: for xi=2, kappa=0 it tends to a
nonzero constant (a zero-energy resonance).

On these grids the continuous part is linear algebra on the basis matrix
U[i, j] = u^{lambda_i}(r_j): forward is c = U (f w) and inverse is
f = (w c) U, computed by spectrum._basis_matvec and _basis_rmatvec without
forming U.  spectral_rule places each node of the uniform panels on the exact
sum of its panel's start a_p and a node offset delta_j shared by all of them,
so e^{rho lambda r} splits into e^{rho a_p r} (one per panel and r) times
e^{rho delta_j r} (24 per r), and each power r^-b of the D_l polynomial is
one matrix product over r.  The radii beyond 4 / lambda, with the cut taken
per run of these panels, cost O((n_panels + 24) n_r) exponentials plus the
products; the other panels and the smaller radii are evaluated in
memory-bounded tiles (spectrum._basis_blocks) at O(n_lambda n_r), with one
complex exponential per (lambda, r) pair; the per-lambda set-up of the basis
rows is cached per (spec, lambda grid) across calls, so a forward and the
inverse on its grid build it once.  inverse checks its SpectralCoefficients
(1-d, one length, real, finite, a discrete part only with a bound state)
before evaluating anything.

forward returns the Parseval defect of f from its one projection, and
remembers it for the last RadialFunction it projected, keyed by the cutoffs
(r_max and lam_max) and f's content; parseval_check on that f and those
cutoffs returns it without projecting f again, so a round trip projects once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .core import ExponentialSum, ExtensionSpec, RadialFunction
from .boundary import condition_rows
from .errors import (
    FunctionDomainError,
    GridError,
    InvalidInput,
)
from .quadrature import panel_grid, panel_rule
from .rayleigh import eval_radial, t3_coefficients
from .spectrum import _basis_matvec, _basis_rmatvec, bound_state

DEFAULT_LAMBDA_MAX = 8.0
# end of the first spectral panel (0, lambda_min) and start of the geometric stack
DEFAULT_LAMBDA_MIN = 1e-3


@dataclass(frozen=True)
class SampledFunction:
    """A function known on a strictly increasing positive grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = _checked_grid(self.grid)
        v = np.asarray(self.values)
        if v.shape != g.shape:
            raise InvalidInput("values must match the grid")
        if not np.all(np.isfinite(v)):
            raise InvalidInput("values must be finite")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def __call__(self, r):
        spline = self.__dict__.get("_spline")
        if spline is None:
            from scipy.interpolate import CubicSpline  # deferred: slow to import

            spline = CubicSpline(self.grid, self.values)
            object.__setattr__(self, "_spline", spline)
        r = np.asarray(r, np.float64)
        out = spline(r)
        # treat the function as compactly supported beyond its grid
        return np.where(r > self.grid[-1], 0.0, out)


def _checked_grid(grid) -> np.ndarray:
    """grid as float64, or InvalidInput unless finite, positive and strictly increasing."""
    g = np.asarray(grid, np.float64)
    if g.ndim != 1 or g.size < 2:
        raise InvalidInput("grid must be 1-d with at least two points")
    if not np.all(np.isfinite(g)):
        raise InvalidInput("grid must be finite")
    if np.any(np.diff(g) <= 0) or g[0] <= 0:
        raise InvalidInput("grid must be strictly increasing and positive")
    return g


def _check_cutoffs(r_max, lam_max):
    """InvalidInput unless 0 < r_max < inf and 4 DEFAULT_LAMBDA_MIN < lam_max < inf.

    spectral_rule's geometric panels run from lambda_min to the join with the
    uniform ones at min(0.5, lam_max / 4), which must lie above lambda_min;
    below lambda_min one more panel reaches down to 0.
    """
    if not (np.isfinite(r_max) and r_max > 0):
        raise InvalidInput(f"r_max must be finite and positive, got {r_max}")
    if not (np.isfinite(lam_max) and lam_max > 4.0 * DEFAULT_LAMBDA_MIN):
        raise InvalidInput(
            f"lam_max must be finite and above 4 lambda_min = {4.0 * DEFAULT_LAMBDA_MIN}, "
            f"got {lam_max}"
        )


@dataclass(frozen=True)
class SpectralCoefficients:
    """Transform data: c(lambda) on a quadrature grid, plus the discrete part.

    forward also sets parseval_defect, the relative defect
    | ||f||^2 - (int c^2 + c_d^2) | / ||f||^2 of the projected f."""

    lam_grid: np.ndarray
    lam_weights: np.ndarray
    c: np.ndarray
    c_discrete: float | None = None
    parseval_defect: float | None = None


def _as_callable(f):
    if isinstance(f, RadialFunction):
        return lambda r: np.real(eval_radial(f, r))
    if isinstance(f, SampledFunction):
        return f
    if callable(f):
        return f
    raise InvalidInput("f must be a RadialFunction, SampledFunction or callable")


def _default_r_max(f):
    if isinstance(f, SampledFunction):
        return float(f.grid[-1])
    if isinstance(f, RadialFunction):
        decay = -np.max(np.real(f.base.rates))
        if decay > 0:
            return max(10.0, 36.0 / float(decay))
    return 60.0


def radial_rule(r_max: float, points_per_unit: float = 8.0):
    """Composite Gauss nodes and weights on (0, r_max)."""
    npanels = max(8, int(np.ceil(r_max * points_per_unit / 8.0)))
    return panel_rule(0.0, r_max, npanels)


def _on_multiples(x, q):
    """x rounded to the nearest multiple of q."""
    return np.round(x / q) * q


def spectral_rule(r_max: float, lam_max: float = DEFAULT_LAMBDA_MAX):
    """Lambda quadrature on (0, lam_max): one panel on (0, DEFAULT_LAMBDA_MIN),
    geometric panels up to the join, oscillation-resolving uniform panels of
    width w above it, and a last panel, about w wide at most, up to lam_max.

    join, w and the node offsets delta_j of a width-w Gauss panel are rounded
    to multiples of q = spacing(lam_max), which are exact doubles up to
    lam_max, so node j of uniform panel p is the exact sum (join + p w) +
    delta_j, within about q / 2 of the panel's Gauss node.
    """
    q = np.spacing(lam_max)
    join = _on_multiples(min(0.5, lam_max / 4.0), q)
    width = _on_multiples(min(2.0 * np.pi / r_max, (lam_max - join) / 4.0), q)
    # the last panel keeps the remainder, more than 1e-9 w: never empty or a sliver
    count = int(np.ceil((lam_max - join) / width - 1e-9)) - 1
    edges = [0.0, *np.geomspace(DEFAULT_LAMBDA_MIN, join, 13)]
    # one Gauss panel each: the geometric stack, a width-w panel at 0 whose
    # nodes are the offsets delta_j, and the last panel
    single = panel_grid(
        [*edges[:-1], 0.0, join + width * count],
        [*edges[1:], width, lam_max],
        np.ones(len(edges) + 1, np.int64),
    )
    nodes, weights = single.nodes, single.weights
    starts = join + width * np.arange(count)
    uniform = starts[:, None] + _on_multiples(nodes[-2], q)
    return (
        np.concatenate((nodes[:-2].ravel(), uniform.ravel(), nodes[-1])),
        np.concatenate((weights[:-2].ravel(), np.tile(weights[-2], count), weights[-1])),
    )


def _project(spec: ExtensionSpec, rn, rw, fw, r_max: float, lam_max: float):
    """Coefficients of the weighted samples fw = f(rn) rw at the sorted radial
    nodes rn, with the Parseval defect of f against them."""
    lam, lw = spectral_rule(r_max, lam_max)
    c = _basis_matvec(spec, lam, rn, np.real(fw))
    b = bound_state(spec)
    cd = None
    if b is not None:
        cd = float(np.real(np.sum(eval_radial(b.v, rn) * fw)))
    norm2 = float(np.sum(np.abs(fw) ** 2 / rw))
    defect = 0.0
    if norm2 != 0.0:
        total = float(np.sum(lw * c**2))
        if cd is not None:
            total += cd**2
        defect = abs(norm2 - total) / norm2
    return SpectralCoefficients(lam, lw, c, cd, defect)


# One entry: (key, Parseval defect) of the last RadialFunction that forward
# projected, replaced as one tuple so that no reader pairs a key with another
# projection's defect.  parseval_check reuses it for the f a round trip has
# just transformed.
_last_defect = [(None, None)]


def _defect_key(spec: ExtensionSpec, f, r_max: float, lam_max: float):
    """The key of a projection of f in _last_defect: the cutoffs and f's
    content.  None unless f is a RadialFunction, whose read-only arrays fix
    what a key describes; samples and callables always project."""
    if not isinstance(f, RadialFunction):
        return None
    base = f.base
    return (spec, r_max, lam_max, f.l, f.scale, base.amplitudes.tobytes(), base.rates.tobytes())


def forward(
    spec: ExtensionSpec,
    f,
    r_max: float = None,
    lam_max: float = DEFAULT_LAMBDA_MAX,
) -> SpectralCoefficients:
    """c(lambda) = <u^lambda, f> on the spectral grid; includes <v, f> if
    bound, and the Parseval defect of f from the same projection."""
    if r_max is None:
        r_max = _default_r_max(f)
    _check_cutoffs(r_max, lam_max)
    rn, rw = radial_rule(r_max)
    fw = np.asarray(_as_callable(f)(rn)) * rw
    coeffs = _project(spec, rn, rw, fw, r_max, lam_max)
    key = _defect_key(spec, f, r_max, lam_max)
    if key is not None:
        _last_defect[0] = (key, coeffs.parseval_defect)
    return coeffs


def _checked_coefficients(coeffs: SpectralCoefficients):
    """(lam_grid, lam_weights, c) of coeffs as float64, or InvalidInput unless
    they are non-empty 1-d arrays of one length, real and finite, and
    c_discrete is None or a finite real number."""
    out = []
    for name in ("lam_grid", "lam_weights", "c"):
        a = np.asarray(getattr(coeffs, name))
        if a.ndim != 1 or a.size == 0 or a.dtype.kind not in "fiu":
            raise InvalidInput(f"{name} must be a non-empty 1-d real array")
        if not np.all(np.isfinite(a)):
            raise InvalidInput(f"{name} must be finite")
        out.append(a.astype(np.float64))
    if not out[0].size == out[1].size == out[2].size:
        raise InvalidInput("lam_grid, lam_weights and c must have one length")
    if coeffs.c_discrete is not None:
        cd = np.asarray(coeffs.c_discrete)
        if cd.ndim or cd.dtype.kind not in "fiu" or not np.isfinite(cd):
            raise InvalidInput("c_discrete must be a finite real number")
    return out


def inverse(spec: ExtensionSpec, coeffs: SpectralCoefficients, r_grid) -> SampledFunction:
    """Reconstruct f(r) = integral c(lambda) u^lambda(r) dlambda + discrete part."""
    lam, lw, c = _checked_coefficients(coeffs)
    b = None
    if coeffs.c_discrete is not None:
        b = bound_state(spec)
        if b is None:
            raise InvalidInput("c_discrete given for an extension without a bound state")
    r_grid = _checked_grid(r_grid)
    acc = _basis_rmatvec(spec, lam, r_grid, lw * c)
    if b is not None:
        acc += coeffs.c_discrete * np.real(eval_radial(b.v, r_grid))
    return SampledFunction(r_grid, acc)


def apply_function(
    spec: ExtensionSpec,
    phi,
    f,
    r_grid=None,
    r_max: float = None,
    lam_max: float = 2.0 * DEFAULT_LAMBDA_MAX,
):
    """phi(T) f through the spectral representation; phi maps the spectrum.

    The spectral cutoff defaults to twice the transform's: growing maps like
    phi(x) = x weight the tail of c(lambda) by lambda^6.
    """
    if r_max is None:
        r_max = _default_r_max(f)
    _check_cutoffs(r_max, lam_max)
    if r_grid is None:
        r_grid = np.linspace(1e-3, r_max, 400)
    r_grid = _checked_grid(r_grid)
    coeffs = forward(spec, f, r_max=r_max, lam_max=lam_max)
    mapped = np.asarray([phi(la**6) for la in coeffs.lam_grid], complex)
    if not np.all(np.isfinite(mapped)):
        raise FunctionDomainError("phi undefined on part of the continuous spectrum")
    cd = coeffs.c_discrete
    if cd is not None:
        b = bound_state(spec)
        try:
            with np.errstate(invalid="ignore"):
                at_bound = complex(phi(b.energy))
        except (ValueError, ZeroDivisionError) as exc:
            raise FunctionDomainError(
                f"phi undefined at the discrete eigenvalue {b.energy}"
            ) from exc
        if not np.isfinite(at_bound):
            raise FunctionDomainError(
                f"phi undefined at the discrete eigenvalue {b.energy}"
            )
        cd = cd * at_bound
    scaled = SpectralCoefficients(
        coeffs.lam_grid, coeffs.lam_weights, np.real(mapped * coeffs.c), None
    )
    out = inverse(spec, scaled, r_grid)
    if cd is not None:
        b = bound_state(spec)
        vals = out.values + np.real(cd * eval_radial(b.v, r_grid))
        out = SampledFunction(out.grid, vals)
    return out


def parseval_check(
    spec: ExtensionSpec,
    f,
    r_max: float = None,
    lam_max: float = DEFAULT_LAMBDA_MAX,
) -> float:
    """Relative defect | ||f||^2 - (int c^2 + c_d^2) | / ||f||^2 on forward's
    grid for these cutoffs: the one forward just computed for this
    RadialFunction, r_max and lam_max, else from a new projection."""
    if r_max is None:
        r_max = _default_r_max(f)
    key = _defect_key(spec, f, r_max, lam_max)
    last_key, defect = _last_defect[0]
    if key is not None and key == last_key:
        return defect
    return forward(spec, f, r_max, lam_max).parseval_defect


@lru_cache(maxsize=None)
def _fd_weights(order: int, npoints: int = 13):
    """Centered finite-difference weights on integer offsets for one derivative."""
    half = npoints // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    vander = np.vander(offsets, npoints, increasing=True).T
    rhs = np.zeros(npoints)
    rhs[order] = factorial(order)
    return np.linalg.solve(vander, rhs)


def fd_apply(l: int, f: SampledFunction, r: float) -> float:
    """T_l^3 f at a grid node by 13-point 8th-order finite differences.

    Pure cross-check oracle: independent of every closed form except the
    frozen variable-coefficient expansion of the operator.
    """
    g, v = f.grid, np.real(f.values)
    h = np.diff(g)
    if np.max(h) - np.min(h) > 1e-8 * np.mean(h):
        raise GridError("fd_apply needs a uniform grid")
    step = float(np.mean(h))
    idx = int(np.argmin(np.abs(g - r)))
    if abs(g[idx] - r) > 1e-8 * step:
        raise GridError("r must coincide with a grid node")
    if idx < 6 or idx > g.size - 7:
        raise GridError("13-point stencil does not fit at this node")
    window = v[idx - 6 : idx + 7]
    out = 0.0
    for order, pw, const in t3_coefficients(l):
        d = float(np.dot(_fd_weights(order), window)) / step**order
        out += const / r**pw * d
    return out


def domain_test_function(
    spec: ExtensionSpec, index: int = 0, base_rate: float = 0.6
) -> RadialFunction:
    """A smooth decaying function in the extension's domain (and T^3-domain).

    Built as the D_l image of an exponential sum with real negative rates
    whose amplitudes span the null space of the boundary conditions applied
    both to f and to T^3 f, so the spectral coefficients decay fast.
    """
    if index < 0:
        raise InvalidInput("index must be nonnegative")
    probe = condition_rows(spec, np.array([-1.0, -2.0]), include_automatic=True)
    nrows = len(probe)
    nexp = 2 * nrows + 2
    rates = -(base_rate + 0.35 * np.arange(nexp) + 0.11 * (index % 5))
    rows_f = condition_rows(spec, rates, include_automatic=True)
    rows_tf = [row * (-(rates**6)) for row in rows_f]
    a = np.vstack(rows_f + rows_tf).real
    # orthonormal null space of a, with the rank cut of scipy.linalg.null_space
    _, sv, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(sv > sv.max() * (np.finfo(sv.dtype).eps * max(a.shape))))
    basis = vh[rank:].T
    if basis.shape[1] == 0:
        raise InvalidInput("no admissible amplitude vector for these rates")
    amps = basis[:, index % basis.shape[1]]
    return RadialFunction(ExponentialSum(amps, rates), spec.l)
