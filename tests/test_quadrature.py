import numpy as np
import pytest

from radialspec import InvalidInput, QuadratureFailure
from radialspec.quadrature import panel_grid, panel_rule, quad_interval, quad_semiaxis


def test_panel_rule_weights_sum():
    x, w = panel_rule(0.0, 3.0, 6)
    assert abs(np.sum(w) - 3.0) < 1e-13
    assert np.all(np.diff(x) > 0)


def test_panel_rule_polynomial_exact():
    x, w = panel_rule(-1.0, 2.0, 2)
    # order-24 Gauss is exact well past degree 7
    val = np.sum(w * x**7)
    assert abs(val - (2.0**8 - 1.0) / 8.0) < 1e-12


def test_panel_rule_rejects_bad_input():
    with pytest.raises(InvalidInput):
        panel_rule(1.0, 0.0, 4)
    with pytest.raises(InvalidInput):
        panel_rule(0.0, 1.0, 0)


def _linspace_rule(a, b, npanels, order=24):
    """A composite rule on [a, b] from np.linspace edges, one segment per call:
    the per-segment construction that panel_grid replaces, kept as its
    reference."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, npanels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * x[None, :]).ravel()
    return nodes, np.broadcast_to(half * w, (npanels, order)).ravel()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("per_unit", [1, 3.7, 8])
def test_panel_grid_equals_per_segment_rules_bit_for_bit(seed, per_unit):
    # segments between unsorted, clustered outputs up to r_max, as in
    # apply_resolvent: some one panel wide, some much wider
    rng = np.random.default_rng(seed)
    q = np.unique(rng.uniform(0.01, 40.0, 25) * rng.choice([1e-3, 1.0, 5.0], 25))
    edges = np.concatenate(([0.0], q, [q[-1] * 1.7]))
    a, b = edges[:-1], edges[1:]
    npanels = np.maximum(1, np.ceil((b - a) * per_unit)).astype(int)
    assert 1 in npanels and npanels.max() > 10
    grid = panel_grid(a, b, npanels)
    assert grid.nodes.shape == grid.weights.shape == (npanels.sum(), 24)
    assert grid.mid.shape == (npanels.sum(),) and grid.half.shape == a.shape
    for rule in (panel_rule, _linspace_rule):
        nodes, weights = zip(*(rule(*seg) for seg in zip(a, b, npanels)))
        assert np.array_equal(grid.nodes.ravel(), np.concatenate(nodes))
        assert np.array_equal(grid.weights.ravel(), np.concatenate(weights))


def test_panel_grid_rejects_bad_segments():
    with pytest.raises(InvalidInput):
        panel_grid([0.0, 1.0], [1.0, 1.0], [2, 2])
    with pytest.raises(InvalidInput):
        panel_grid([0.0, 1.0], [1.0, 2.0], [2, 0])


def test_quad_interval_oscillatory():
    val = quad_interval(lambda r: np.exp(-r) * np.sin(10 * r), 0.0, 60.0, 40)
    assert abs(val - 10.0 / 101.0) < 1e-12


def test_quad_interval_reuses_a_read_only_rule_bit_for_bit():
    from radialspec.quadrature import _cached_rule

    _cached_rule.cache_clear()
    seen = []

    def f(r):
        seen.append(r)
        return np.exp(-r)

    # an int end point keys the same rule as the float one
    values = [quad_interval(f, 0.0, 7.5, 12), quad_interval(f, 0, 7.5, 12)]
    assert values[0] == values[1]
    info = _cached_rule.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert seen[1] is seen[0]
    nodes, weights = panel_rule(0.0, 7.5, 12)
    assert np.array_equal(seen[0], nodes)
    assert values[0] == np.sum(weights * np.exp(-nodes))
    with pytest.raises(ValueError):
        seen[0][0] = 1.0


def test_quad_interval_cache_is_bounded():
    from radialspec.quadrature import _CACHED_NODES, _cached_rule

    assert 0 < _cached_rule.cache_info().maxsize <= 64
    _cached_rule.cache_clear()
    seen = []
    npanels = _CACHED_NODES // 24 + 1
    quad_interval(lambda r: seen.append(r) or np.exp(-r), 0.0, 50.0, npanels)
    # a rule above _CACHED_NODES nodes is built per call and never kept
    assert _cached_rule.cache_info().currsize == 0
    assert seen[0].size == 24 * npanels and seen[0].flags.writeable


def test_quad_semiaxis_exponential():
    assert abs(quad_semiaxis(lambda r: np.exp(-r), 1.0) - 1.0) < 1e-10


def test_quad_semiaxis_oscillatory():
    val = quad_semiaxis(lambda r: np.exp(-r) * np.sin(10 * r), 1.0)
    assert abs(val - 10.0 / 101.0) < 1e-9


def test_quad_semiaxis_zero():
    assert quad_semiaxis(lambda r: 0.0 * np.asarray(r), 2.0) == 0.0


def test_quad_semiaxis_scaled_decay():
    # slow decay just needs a longer window, not a failure
    val = quad_semiaxis(lambda r: np.exp(-0.05 * r), 0.05)
    assert abs(val - 20.0) < 1e-7 * 20.0


def test_quad_semiaxis_rejects_nondecaying():
    with pytest.raises((QuadratureFailure, InvalidInput)):
        quad_semiaxis(lambda r: np.ones_like(np.asarray(r)), -1.0)
    with pytest.raises(InvalidInput):
        quad_semiaxis(lambda r: np.exp(-np.asarray(r)), np.nan)
    with pytest.raises(InvalidInput):
        quad_semiaxis(lambda r: np.exp(-np.asarray(r)), 1.0, tol=np.nan)
    # an infinite decay rate still integrates, over (0, 1) and (0, 2)
    assert quad_semiaxis(lambda r: np.exp(-50 * np.asarray(r)), np.inf) == pytest.approx(0.02)
