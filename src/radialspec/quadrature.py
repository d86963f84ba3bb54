"""Panel Gauss-Legendre quadrature for the semi-axis.

Integrands here are smooth, exponentially damped, and possibly oscillatory
(frequency set by the spectral parameter), so fixed-order Gauss panels of
bounded width converge fast; adaptivity is by panel halving plus truncation
doubling, both checked against a stability tolerance.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidInput, QuadratureFailure

GAUSS_ORDER = 24


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_rule(a: float, b: float, npanels: int, order: int = GAUSS_ORDER):
    """Nodes and weights of composite Gauss-Legendre on [a, b]."""
    if not (b > a and npanels >= 1):
        raise InvalidInput("panel_rule needs b > a and npanels >= 1")
    x, w = _gauss_legendre(order)
    edges = np.linspace(a, b, npanels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * x[None, :]).ravel()
    weights = np.broadcast_to(half * w, (npanels, order)).ravel().copy()
    return nodes, weights


def quad_interval(f, a: float, b: float, npanels: int = 4, order: int = GAUSS_ORDER):
    nodes, weights = panel_rule(a, b, npanels, order)
    return np.sum(weights * np.asarray(f(nodes)))


def quad_semiaxis(f, decay_rate: float, tol: float = 1e-10, max_refine: int = 7):
    """Integral of f over (0, inf) for exponentially damped f.

    The truncation radius R satisfies exp(-decay_rate R) < tol/10; panels
    are halved until two successive values agree to tol, and the result is
    additionally required to be stable under R -> 2R.
    """
    if decay_rate <= 0:
        raise InvalidInput("decay_rate must be positive")
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    radius = max(np.log(10.0 / tol) / decay_rate, 1.0)

    def truncated(r_max):
        npanels = max(8, int(np.ceil(r_max)))
        prev = quad_interval(f, 0.0, r_max, npanels)
        for _ in range(max_refine):
            npanels *= 2
            cur = quad_interval(f, 0.0, r_max, npanels)
            if abs(cur - prev) <= tol * (1.0 + abs(cur)):
                return cur
            prev = cur
        raise QuadratureFailure("panel refinement did not converge")

    value = truncated(radius)
    check = truncated(2.0 * radius)
    if abs(check - value) > 10.0 * tol * (1.0 + abs(check)):
        raise QuadratureFailure("integral unstable under truncation doubling")
    return check
