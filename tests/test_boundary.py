import numpy as np
import pytest
from hypothesis import given, strategies as st

from radialspec import (
    InvalidInput,
    Jet6,
    boundary_form,
    check_membership,
    jet_at_origin,
    make_extension_spec,
    omega,
)
from radialspec.verify import random_domain_jet

ALL_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


def jet(*vals):
    return Jet6(np.array(vals, complex))


def test_omega_defining_example():
    ju = jet(0, 0, 1, 0, 0, 0)
    jv = jet(0, 0, 0, 1, 0, 0)
    assert omega(ju, jv, 2, 3) == 1
    assert omega(ju, jv, 3, 2) == -1


def test_omega_vanishes_for_equal_real_jets():
    j = jet(1, 2, 3, 4, 5, 6)
    for k in range(6):
        for m in range(6):
            assert omega(j, j, k, m) == 0


def test_omega_index_range():
    j = jet(0, 0, 0, 0, 0, 0)
    with pytest.raises(InvalidInput):
        omega(j, j, 0, 6)


finite_jets = st.lists(
    st.floats(-10, 10, allow_nan=False), min_size=12, max_size=12
)


@given(finite_jets)
def test_omega_antisymmetry_property(vals):
    ju = jet(*[complex(a, b) for a, b in zip(vals[:6], vals[6:])])
    jv = jet(*vals[6:][::-1])
    for k in range(6):
        for m in range(6):
            assert abs(omega(ju, jv, k, m) + omega(ju, jv, m, k)) < 1e-12


def test_boundary_form_anchor_coefficients():
    assert boundary_form(1, jet(0, 0, 1, 0, 0, 0), jet(0, 0, 0, 1, 0, 0)).c_0 == 8.0
    assert boundary_form(2, jet(1, 0, 0, 0, 0, 0), jet(0, 1, 0, 0, 0, 0)).c_m4 == -36.0
    assert boundary_form(2, jet(1, 0, 0, 0, 0, 0), jet(0, 1, 0, 0, 0, 0)).c_m3 == 0.0


def test_boundary_form_vanishes_for_real_equal_jets():
    j = jet(1, 2, 3, 4, 5, 6)
    for l in (1, 2):
        assert boundary_form(l, j, j).max_abs == 0.0


@pytest.mark.parametrize("l,xi", ALL_PAIRS)
@pytest.mark.parametrize("kappa", [0.0, 1.3, -0.6])
def test_symmetricity_on_domain_jets(l, xi, kappa):
    rng = np.random.default_rng(11)
    spec = make_extension_spec(l, xi, kappa)
    for _ in range(50):
        ju = random_domain_jet(spec, rng)
        jv = random_domain_jet(spec, rng)
        scale = max(ju.magnitude * jv.magnitude, 1e-30)
        assert boundary_form(l, ju, jv).max_abs <= 1e-10 * scale


def test_membership_bc1_example():
    # third condition reads u'''(0) = (9/8) kappa u''(0) in raw-jet form
    kappa = 0.7
    spec = make_extension_spec(1, 1, kappa)
    ok, _ = check_membership(spec, jet(0, 0, 1, 9 / 8 * kappa, 0.3, -0.2))
    assert ok
    ok, res = check_membership(spec, jet(1, 0, 0, 0, 0, 0))
    assert not ok
    assert abs(res[0] - 1.0) < 1e-15


def test_membership_kappa_infinite():
    spec = make_extension_spec(2, 1, "inf")
    ok, _ = check_membership(spec, jet(0, 0, 0, 1.0, 0.4, 0.9))
    assert ok
    ok, _ = check_membership(spec, jet(0, 0, 1.0, 1.0, 0.4, 0.9))
    assert not ok
    spec22 = make_extension_spec(2, 2, "inf")
    ok, _ = check_membership(spec22, jet(0, 0, 0.5, 0, 0, 2.0))
    assert ok
    ok, _ = check_membership(spec22, jet(1.0, 0, 0.5, 0, 0, 2.0))
    assert not ok


def test_membership_deficiency_jets():
    # q^2 for l=2 has d1 = d3 = d4 = 0
    from radialspec import deficiency_solution

    q = deficiency_solution(2, 2, +1, 1.0)
    j = jet_at_origin(q.f)
    assert abs(j[1]) < 1e-12 and abs(j[3]) < 1e-12 and abs(j[4]) < 1e-12


@pytest.mark.parametrize("l,xi", ALL_PAIRS)
def test_single_violation_detected(l, xi):
    rng = np.random.default_rng(23)
    spec = make_extension_spec(l, xi, 0.9)
    idx = {(1, 1): (0, 1, 3), (2, 1): (0, 1, 3), (1, 2): (0, 4, 3), (2, 2): (1, 3, 4, 5)}[
        (l, xi)
    ]
    for i in idx:
        ju = random_domain_jet(spec, rng)
        jv = random_domain_jet(spec, rng)
        bad = np.array(ju.d)
        bad[i] += 1.0
        assert boundary_form(l, Jet6(bad), jv).max_abs > 1e-6


def _boundary_form_by_omega(l, ju, jv):
    """boundary_form with every pairing taken by omega on the jets."""
    from radialspec.boundary import BoundaryFormExpansion

    w = lambda k, j: omega(ju, jv, k, j)
    if l == 1:
        return BoundaryFormExpansion(
            -36.0 * w(0, 1),
            -24.0 * w(0, 2),
            -12.0 * w(0, 3),
            -6.0 * w(0, 4),
            -1.5 * w(0, 5) - 2.5 * w(1, 4) + 8.0 * w(2, 3),
        )
    return BoundaryFormExpansion(
        -36.0 * w(0, 1),
        0.0,
        36.0 * w(1, 2),
        24.0 * w(1, 3) - 6.0 * w(0, 4),
        -3.5 * w(0, 5) + 3.5 * w(1, 4) + 16.0 * w(2, 3),
    )


@pytest.mark.parametrize("l", [1, 2])
def test_boundary_form_equals_the_omega_pairings_bit_for_bit(l):
    rng = np.random.default_rng(l)
    for _ in range(500):
        scale = 10.0 ** rng.uniform(-8.0, 8.0, (2, 6))
        ju, jv = (Jet6((rng.normal(size=6) + 1j * rng.normal(size=6)) * s) for s in scale)
        got = boundary_form(l, ju, jv).as_array()
        want = _boundary_form_by_omega(l, ju, jv).as_array()
        assert got.tobytes() == want.tobytes()
