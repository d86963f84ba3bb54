"""Symmetricity boundary form and boundary-condition membership.

The obstruction to symmetricity of the sixth-order operator lives at r = 0
and is captured by a Laurent expansion B = c_m4/r^4 + c_m3/r^3 + ... + c_0
whose coefficients are antisymmetric pairings of the order-5 jets of the two
functions.  A self-adjoint extension is a choice of jet subspace on which all
five coefficients vanish identically; three one-parameter families appear,
indexed here by xi in {1, 2} and parametrized by kappa.

The parameter kappa is normalized so it matches the closed-form spectral
data (resolvent denominators, bound-state energies).  In terms of raw jets
the third boundary condition reads

    xi=1, l=1:  (9/8) kappa u''(0) = u'''(0)
    xi=1, l=2:  (8/5) kappa u''(0) = u'''(0)
    xi=2, l=1:  (9/8) kappa u''(0) = u'''(0)   (plus u4 = 0 instead of u' = 0)
    xi=2, l=2:  -(8/7) kappa^5 u(0) = u^(5)(0)

because kappa parametrizes a Taylor-coefficient ratio of the base function,
not of its image.  Any real rescaling of this kind yields the same family of
symmetric domains, so the symmetricity statement is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .core import KAPPA_POWER, ExtensionSpec, Jet6
from .errors import InvalidInput
from .rayleigh import monomial_coefficient

# Raw-jet ratio factors, keyed by (xi, l), of kappa^KAPPA_POWER.
JET_RATIO_FACTOR = {(1, 1): 9.0 / 8.0, (1, 2): 8.0 / 5.0, (2, 1): 9.0 / 8.0, (2, 2): -8.0 / 7.0}


def omega(ju: Jet6, jv: Jet6, k: int, j: int) -> complex:
    """Antisymmetric jet pairing u^(k)(0) conj(v^(j)(0)) - u^(j)(0) conj(v^(k)(0))."""
    if not (0 <= k <= 5 and 0 <= j <= 5):
        raise InvalidInput("jet orders must lie in 0..5")
    return complex(ju[k] * np.conj(jv[j]) - ju[j] * np.conj(jv[k]))


@dataclass(frozen=True)
class BoundaryFormExpansion:
    """Laurent coefficients of the boundary form, powers r^-4 .. r^0."""

    c_m4: complex
    c_m3: complex
    c_m2: complex
    c_m1: complex
    c_0: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.c_m4, self.c_m3, self.c_m2, self.c_m1, self.c_0])

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.as_array())))


def boundary_form(l: int, ju: Jet6, jv: Jet6) -> BoundaryFormExpansion:
    """Laurent expansion of the symmetricity boundary form for the given jets."""
    w = lambda k, j: omega(ju, jv, k, j)
    if l == 1:
        return BoundaryFormExpansion(
            -36.0 * w(0, 1),
            -24.0 * w(0, 2),
            -12.0 * w(0, 3),
            -6.0 * w(0, 4),
            -1.5 * w(0, 5) - 2.5 * w(1, 4) + 8.0 * w(2, 3),
        )
    if l == 2:
        return BoundaryFormExpansion(
            -36.0 * w(0, 1),
            0.0,
            36.0 * w(1, 2),
            24.0 * w(1, 3) - 6.0 * w(0, 4),
            -3.5 * w(0, 5) + 3.5 * w(1, 4) + 16.0 * w(2, 3),
        )
    raise InvalidInput(f"l={l} not supported")


def _kappa_combination(spec: ExtensionSpec, lo, hi):
    """Normalized residual of the kappa condition, projective in kappa.

    lo and hi are the jet entries (or amplitude rows) entering as
    JET_RATIO_FACTOR * kappa^KAPPA_POWER * lo - hi; kappa = inf degenerates
    to lo = 0.
    """
    family = (spec.xi, spec.l)
    pw = KAPPA_POWER[family]
    a = JET_RATIO_FACTOR[family] * spec.kappa.num**pw
    b = spec.kappa.den**pw
    scale = max(abs(a), abs(b))
    return (a * lo - b * hi) / scale


def membership_residuals(spec: ExtensionSpec, j: Jet6):
    """Residuals of the defining linear conditions for the extension domain."""
    if spec.xi == 1:
        return [j[0], j[1], _kappa_combination(spec, j[2], j[3])]
    if spec.l == 1:
        return [j[0], j[4], _kappa_combination(spec, j[2], j[3])]
    return [j[1], j[3], j[4], _kappa_combination(spec, j[0], j[5])]


def check_membership(spec: ExtensionSpec, j: Jet6, tol: float = 1e-10):
    """(passes, residuals): does the jet satisfy the extension's boundary conditions."""
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    res = membership_residuals(spec, j)
    bound = tol * (1.0 + j.magnitude)
    return all(abs(x) <= bound for x in res), res


def jet_row(chis, l: int, j: int) -> np.ndarray:
    """Row mapping base amplitudes on exponents chis to the jet entry d_j."""
    chis = np.asarray(chis, np.complex128)
    m = j + l
    return chis**m * (monomial_coefficient(l, m) * factorial(j) / factorial(m))


def condition_rows(spec: ExtensionSpec, chis, include_automatic: bool = False):
    """Linear conditions on amplitudes for D_l(sum a_k e^{chi_k r}) to lie in the domain.

    Returns rows of a homogeneous system A a = 0: regularity (sum a_k = 0)
    plus the family's jet conditions.  Jet entries that vanish identically
    for every regular base (d0 for l=1, d1 for l=2) are skipped; with
    include_automatic the conditions that are only automatic for the
    six-fold-symmetric exponent sets (d4 for xi=2) are emitted too.
    """
    chis = np.asarray(chis, np.complex128)
    ones = np.ones(chis.shape, np.complex128)
    u = lambda j: jet_row(chis, spec.l, j)
    rows = [ones]
    if spec.xi == 1:
        rows.append(u(0) if spec.l == 2 else u(1))
        rows.append(_kappa_combination(spec, u(2), u(3)))
    elif spec.l == 1:
        rows.append(u(4))
        rows.append(_kappa_combination(spec, u(2), u(3)))
    else:
        rows.append(u(3))
        rows.append(_kappa_combination(spec, u(0), u(5)))
        if include_automatic:
            rows.append(u(4))
    return rows
