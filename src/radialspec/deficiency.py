"""Deficiency solutions of the sixth-order equation and the indices they span.

A deficiency solution solves T_l^3 q = +/- i rho^6 q, decays exponentially,
is regular at the origin, and satisfies one of the two boundary-condition
families.  Exactly two independent ones exist per sign for l = 1, 2, so the
deficiency indices are (2, 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExponentialSum, RadialFunction, _phase
from .errors import DomainError, InternalInconsistency, InvalidInput, Unsupported
from .rayleigh import eval_radial, t3_termwise

_EPS = 1e-300


@dataclass(frozen=True)
class DeficiencySolution:
    """One solution of T_l^3 q = sign * i * rho^6 q in the adjoint kernel."""

    f: RadialFunction
    sign: int
    rho: float
    xi: int
    l: int


def deficiency_solution(l: int, xi: int, sign: int, rho: float = 1.0) -> DeficiencySolution:
    """Build q^xi_{l,+/-}; sign is +1 or -1, rho the spectral scale."""
    if l == 3:
        raise Unsupported("l=3 has indices (1,1) and is out of scope")
    if l not in (1, 2) or xi not in (1, 2):
        raise InvalidInput("l and xi must be 1 or 2")
    if sign not in (1, -1):
        raise InvalidInput("sign must be +1 or -1")
    if rho <= 0:
        raise DomainError("rho must be positive")
    s = sign
    rates = rho * np.array(
        [_phase(-s * 3 / 4), -_phase(-s * 1 / 12), -_phase(-s * 5 / 12)]
    )
    if xi == 1:
        amps = np.array([1.0, _phase(-s * 2 / 3), _phase(s * 2 / 3)])
    else:
        amps = np.array([_phase(-s * 5 / 6), np.sqrt(3.0), _phase(s * 5 / 6)])
    f = RadialFunction(ExponentialSum(amps, rates), l)
    return DeficiencySolution(f, sign, float(rho), xi, l)


def kernel_residual(q: DeficiencySolution, npoints: int = 40) -> float:
    """Max relative residual of (T_l^3 - sign*i*rho^6) q on a log-spaced grid."""
    r = np.geomspace(0.05 / q.rho, 10.0 / q.rho, npoints)
    lhs = eval_radial(t3_termwise(q.f), r)
    rhs = q.sign * 1j * q.rho**6 * eval_radial(q.f, r)
    scale = q.rho**6 * np.abs(eval_radial(q.f, r)) + _EPS
    return float(np.max(np.abs(lhs - rhs) / scale))


def deficiency_indices(l: int):
    """(2, 2) for l = 1, 2, verified by a linear-independence check of q^1, q^2."""
    if l == 3:
        raise Unsupported("l=3 has indices (1,1) and is out of scope")
    if l not in (1, 2):
        raise InvalidInput("l must be 1 or 2")
    radii = np.array([0.7, 1.9])
    gram = np.empty((2, 2), np.complex128)
    for i, xi in enumerate((1, 2)):
        q = deficiency_solution(l, xi, +1, 1.0)
        gram[i] = eval_radial(q.f, radii)
    norms = np.linalg.norm(gram, axis=1)
    if abs(np.linalg.det(gram)) <= 1e-6 * norms[0] * norms[1]:
        raise InternalInconsistency("deficiency solutions are numerically dependent")
    return (2, 2)
