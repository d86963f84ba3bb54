"""Panel Gauss-Legendre quadrature for the semi-axis.

Integrands here are smooth, exponentially damped, and possibly oscillatory
(frequency set by the spectral parameter), so fixed-order Gauss panels of
bounded width converge fast; adaptivity is by panel halving plus truncation
doubling, both checked against a stability tolerance.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, QuadratureFailure

GAUSS_ORDER = 24
# the largest half-panel phase omega_max w / 2 of a panel_width panel, 4 rad
# below where the Gauss-24 error starts to climb
_HALF_PANEL_PHASE = 12.0
# omega_max of an integrand without a frequency bound: 24 nodes per unit of r
_UNBOUNDED_OMEGA = 24.0


def panel_width(omega_max: float) -> float:
    """The widest Gauss-24 panel for integrands of frequency at most
    omega_max: w = 2 _HALF_PANEL_PHASE / omega_max, so no panel sees a
    half-panel phase omega_max w / 2 above _HALF_PANEL_PHASE = 12.  A 24-node
    Gauss panel integrates e^{i omega' x} over [-1, 1] to 1.5e-15 at
    omega' = 8, 2.8e-15 at 12, 2.8e-15 at 16, 3.2e-14 at 20 and 8.1e-11 at
    24.  omega_max = _UNBOUNDED_OMEGA, for integrands of unknown frequency,
    gives 24 nodes per unit of r."""
    return 2.0 * _HALF_PANEL_PHASE / omega_max


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class PanelGrid(NamedTuple):
    """Composite Gauss-Legendre over consecutive segments, one row per panel:
    nodes and weights (panels, order), each panel's midpoint (panels,), and
    each segment's half panel width (segments,)."""

    nodes: np.ndarray
    weights: np.ndarray
    mid: np.ndarray
    half: np.ndarray


def panel_grid(a, b, npanels, order: int = GAUSS_ORDER) -> PanelGrid:
    """Composite Gauss-Legendre on every segment [a_s, b_s], split into
    npanels_s equal panels, in one pass.  The panel edges of a segment are
    those of np.linspace(a_s, b_s, npanels_s + 1), so each segment's nodes and
    weights equal a panel_rule(a_s, b_s, npanels_s) of its own bit for bit."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    n = np.asarray(npanels)
    if not (np.all(b > a) and np.all(n >= 1)):
        raise InvalidInput("a panel rule needs b > a and npanels >= 1")
    x, w = _gauss_legendre(order)
    step = (b - a) / n
    seg = np.repeat(np.arange(n.size), n)
    i = np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n)
    # linspace: edge i is i * step + a, and the last edge is b itself
    s, lo = step[seg], a[seg]
    right = np.where(i + 1 == n[seg], b[seg], (i + 1) * s + lo)
    mid = 0.5 * (i * s + lo + right)
    half = 0.5 * (np.where(n == 1, b, step + a) - a)
    nodes = mid[:, None] + (half[:, None] * x)[seg]
    weights = (half[:, None] * w)[seg]
    return PanelGrid(nodes, weights, mid, half)


def panel_rule(a: float, b: float, npanels: int, order: int = GAUSS_ORDER):
    """Nodes and weights of composite Gauss-Legendre on [a, b]."""
    grid = panel_grid([a], [b], [npanels], order)
    return grid.nodes.ravel(), grid.weights.ravel()


# quad_interval keeps the last _RULE_CACHE rules of at most _CACHED_NODES
# nodes, 256 KB of nodes and weights each: quad_semiaxis asks for the same
# few rules again and again, and larger ones are rebuilt on every call so
# that the cache never holds more than 16 MB
_CACHED_NODES = 1 << 14
_RULE_CACHE = 64


@lru_cache(maxsize=_RULE_CACHE)
def _cached_rule(a: float, b: float, npanels: int, order: int):
    """Read-only panel_rule(a, b, npanels, order)."""
    nodes, weights = panel_rule(a, b, npanels, order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def quad_interval(f, a: float, b: float, npanels: int = 4, order: int = GAUSS_ORDER):
    """Composite Gauss-Legendre sum of f over [a, b].  f receives the nodes
    read-only when the rule is small enough to be cached."""
    rule = _cached_rule if npanels * order <= _CACHED_NODES else panel_rule
    nodes, weights = rule(float(a), float(b), npanels, order)
    return np.sum(weights * np.asarray(f(nodes)))


def quad_semiaxis(f, decay_rate: float, tol: float = 1e-10, max_refine: int = 7):
    """Integral of f over (0, inf) for exponentially damped f.

    The truncation radius R satisfies exp(-decay_rate R) < tol/10; panels
    are halved until two successive values agree to tol, and the result is
    additionally required to be stable under R -> 2R.
    """
    # NaN fails every comparison, so these reject it; an infinite decay passes
    if not decay_rate > 0:
        raise InvalidInput("decay_rate must be positive")
    if not tol > 0:
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
