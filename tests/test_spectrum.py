from math import factorial
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from radialspec import (
    DomainError,
    InternalInconsistency,
    bound_state,
    check_membership,
    continuous_eigenfunction,
    domain_test_function,
    eval_radial,
    forward,
    inverse,
    jet_at_origin,
    make_extension_spec,
    spectral_density,
)
from radialspec.core import ExtensionSpec
from radialspec.quadrature import quad_semiaxis
from radialspec.rayleigh import (
    SERIES_ORDER,
    _series_coefficients,
    exponential_poly,
    monomial_coefficient,
    r_switch,
)
from radialspec import spectrum
from radialspec.spectrum import (
    _basis_blocks,
    _basis_matvec,
    _basis_rmatvec,
    _eigenfunction_terms,
    asymptotic_density,
    eigen_residual_continuous,
    eigen_residual_discrete,
    realness_residual,
    resolvent_difference_density,
)
from radialspec import transform
from radialspec.transform import radial_rule, spectral_rule

ALL_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


def _phase(x):
    return np.exp(1j * np.pi * x)


def test_bound_state_anchor_11():
    b = bound_state(make_extension_spec(1, 1, -1.0))
    assert abs(b.z_p - (2.0 / 3.0) * _phase(1 / 6)) < 1e-14
    assert abs(b.energy + (2.0 / 3.0) ** 6) < 1e-14


def test_bound_state_anchor_22():
    b = bound_state(make_extension_spec(2, 2, -1.0))
    assert abs(b.z_p - 2.0**0.2 * _phase(1 / 6)) < 1e-14
    assert abs(b.energy + 2.0 ** (6.0 / 5.0)) < 1e-12


def test_no_bound_state_for_nonnegative_kappa():
    assert bound_state(make_extension_spec(1, 1, 0.0)) is None
    assert bound_state(make_extension_spec(1, 2, 2.0)) is None
    assert bound_state(make_extension_spec(2, 1, "inf")) is None


@pytest.mark.parametrize("l,xi", ALL_PAIRS)
@pytest.mark.parametrize("kappa", [-1.0, -0.4, -2.3])
def test_bound_state_normalized(l, xi, kappa):
    b = bound_state(make_extension_spec(l, xi, kappa))
    decay = 0.7 * abs(np.real(b.v.base.rates[0]))
    norm2 = quad_semiaxis(lambda r: np.abs(eval_radial(b.v, r)) ** 2, decay)
    assert abs(norm2 - 1.0) < 1e-8


@pytest.mark.parametrize("l,xi", ALL_PAIRS)
def test_bound_state_eigen_and_membership(l, xi):
    spec = make_extension_spec(l, xi, -1.0)
    b = bound_state(spec)
    assert eigen_residual_discrete(b) < 1e-10
    ok, _ = check_membership(spec, jet_at_origin(b.v))
    assert ok


@pytest.mark.parametrize("l,xi", ALL_PAIRS)
@pytest.mark.parametrize("kappa", [0.8, -1.3, 0.0])
@pytest.mark.parametrize("lam", [0.3, 1.1, 3.3])
def test_continuous_real_eigen_membership(l, xi, kappa, lam):
    spec = make_extension_spec(l, xi, kappa)
    e = continuous_eigenfunction(spec, lam)
    assert realness_residual(e) < 1e-12
    assert eigen_residual_continuous(e) < 1e-10
    ok, _ = check_membership(spec, jet_at_origin(e.u))
    assert ok


def test_continuous_rejects_nonpositive_lambda():
    spec = make_extension_spec(1, 1, 0.0)
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            continuous_eigenfunction(spec, lam)


BASIS_CASES = [
    (l, xi, kappa)
    for l, xi in ALL_PAIRS
    for kappa in (0.8, 0.0, -1.3) + (("inf",) if l == 2 else ())
]


@pytest.mark.parametrize("r_max", (10.5, 70.6))
@pytest.mark.parametrize("l,xi,kappa", BASIS_CASES)
def test_basis_blocks_match_eigenfunctions(l, xi, kappa, r_max):
    # the blocked basis equals the per-lambda eigenfunctions on the transform's grids
    spec = make_extension_spec(l, xi, kappa)
    lam = spectral_rule(r_max)[0][::9]
    r = radial_rule(r_max)[0]
    got = np.full((lam.size, r.size), np.nan)
    for rows, cols, u in _basis_blocks(spec, lam, r):
        got[rows, cols] = u
    eigs = [continuous_eigenfunction(spec, la) for la in lam]
    ref = np.array([np.real(eval_radial(e.u, r)) for e in eigs])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # rows whose grid straddles r_switch (series below it, closed form above)
    switch = np.array([r_switch(e.u) for e in eigs])
    assert np.any((r[0] <= switch) & (switch < r[-1]))
    # each eigenfunction is the closed form itself, with no sign of its own
    pref = _eigenfunction_terms(spec, lam)[0]
    assert [e.u.scale for e in eigs] == [complex(p) for p in pref]


def test_basis_blocks_reject_bad_lambda():
    spec = make_extension_spec(1, 1, 0.5)
    r = np.linspace(0.1, 2.0, 5)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            list(_basis_blocks(spec, np.array([0.5, bad]), r))


# the transform's grids in the benchmark: r_max 70.6 (base_rate 0.4, index 1)
# and 10.5 (base_rate 3.0, index 4), at the default lam_max of forward and of
# apply_function
CONTRACTION_GRIDS = [(r_max, lam_max) for r_max in (70.6, 10.5) for lam_max in (8.0, 16.0)]


def _tile_contractions(spec, lam, r, x, y):
    """U x and y U summed tile by tile over _basis_blocks."""
    c, f = np.zeros(lam.size), np.zeros(r.size)
    for rows, cols, u in _basis_blocks(spec, lam, r):
        c[rows] += u @ x[cols]
        f[cols] += y[rows] @ u
    return c, f


@pytest.mark.parametrize("r_max,lam_max", CONTRACTION_GRIDS)
@pytest.mark.parametrize("l,xi,kappa", BASIS_CASES)
def test_factored_contractions_match_tiles(l, xi, kappa, r_max, lam_max):
    # every fourth radial node keeps the far radii, where the factored phase
    # matters, at a quarter of the cost of the tile reference
    spec = make_extension_spec(l, xi, kappa)
    lam, lw = spectral_rule(r_max, lam_max)
    r, rw = radial_rule(r_max)
    r, rw = r[::4], 4.0 * rw[::4]
    x = rw * np.exp(-0.1 * r) * np.cos(0.7 * r)
    y = lw * np.exp(-0.3 * lam) * np.sin(3.0 * lam + 0.2)
    shared = spectrum._SharedPanels.search(lam).cut(r)
    assert shared is not None and np.min(shared.cuts) < r.size
    c_ref, f_ref = _tile_contractions(spec, lam, r, x, y)
    c = _basis_matvec(spec, lam, r, x)
    (f,) = _basis_rmatvec(spec, lam, r, y[None])
    assert np.max(np.abs(c - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))
    assert np.max(np.abs(f - f_ref)) <= 1e-12 * np.max(np.abs(f_ref))


@pytest.mark.parametrize("l,xi,kappa", BASIS_CASES)
def test_rmatvec_rows_match_one_row_at_a_time(l, xi, kappa):
    # _basis_rmatvec contracts all rows of y with each tile and factored part
    # at once (a complex synthesis passes [Re y; Im y]); each row agrees with
    # its own one-row contraction to round-off
    spec = make_extension_spec(l, xi, kappa)
    lam, lw = spectral_rule(70.6, 16.0)
    r = np.linspace(0.05, 70.6, 400)
    y = lw * np.random.default_rng(0).standard_normal((2, lam.size))
    for row, f in zip(y, _basis_rmatvec(spec, lam, r, y)):
        (alone,) = _basis_rmatvec(spec, lam, r, row[None])
        assert np.max(np.abs(f - alone)) <= 1e-15 * np.max(np.abs(alone))


def test_basis_set_up_once_per_lambda_grid(monkeypatch):
    # the (spec, lambda) set-up of the basis rows (terms and series) is
    # made once for the whole lambda grid, not once per block of tile rows,
    # and cached per (spec, lambda grid): a slot-0-sized forward (n_r = 840,
    # many 16-row blocks and several runs of shared panels) builds the terms
    # once, its 500-point inverse on the same grid not at all, and a forward
    # on another r_max (another lambda grid) once more
    calls = []

    def terms(spec, lam):
        calls.append(np.size(lam))
        return eigenfunction_terms(spec, lam)

    eigenfunction_terms = spectrum._eigenfunction_terms
    monkeypatch.setattr(spectrum, "_eigenfunction_terms", terms)
    spec = make_extension_spec(2, 2, 0.0)
    f = domain_test_function(spec, 1, 0.4)
    nodes = []
    monkeypatch.setattr(
        transform, "radial_rule", lambda *args: nodes.append(radial_rule(*args)) or nodes[-1]
    )
    coeffs = forward(spec, f)
    assert [rn.size for rn, _ in nodes] == [840]
    assert calls == [coeffs.lam_grid.size]
    calls.clear()
    inverse(spec, coeffs, np.linspace(0.05, 30.0, 500))
    assert calls == []
    other = forward(spec, f, r_max=40.0)
    assert other.lam_grid.size != coeffs.lam_grid.size
    assert calls == [other.lam_grid.size]


def test_row_setup_cache_is_bounded_and_read_only():
    spec = make_extension_spec(1, 2, -0.8)
    for r_max in (10.5, 20.9, 30.0, 40.0, 70.6):
        lam = spectral_rule(r_max)[0]
        (radii, lam_rows, _, polys, coefs), shared = spectrum._row_setup(spec, lam.tobytes())
        assert np.array_equal(lam_rows, lam)
        held = (radii, lam_rows, polys, coefs, shared.rows, shared.first, shared.offsets)
        for values in held:
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values.flat[0] = 0.0
    info = spectrum._row_setup.cache_info()
    assert info.misses == 5 and 0 < info.currsize <= info.maxsize


# every family at kappa > 0, 0, < 0, inf (l=2 only) and the near-free +-0.01
SIGN_CASES = [
    (l, xi, kappa)
    for l, xi in ALL_PAIRS
    for kappa in (0.8, 0.0, -1.3, 0.01, -0.01) + (("inf",) if l == 2 else ())
]


def _panels_one_ulp_off(lam):
    """lam with one node of every other uniform panel of a spectral rule moved
    up by one ulp, a different node in each: those panels are no longer
    exact sums first + offsets, the others still are."""
    nodes = lam.reshape(-1, 24).copy()
    for n, p in enumerate(range(13, nodes.shape[0] - 1, 2)):
        j = 1 + n % 23
        nodes[p, j] = np.nextafter(nodes[p, j], np.inf)
    return nodes.ravel()


# lambda grids with shared panels, without them, and with half the uniform
# panels one ulp off, and whether search finds shared panels on each
SETUP_GRIDS = (
    (spectral_rule(10.5)[0], True),
    (spectral_rule(70.6, 16.0)[0], True),
    (np.geomspace(1e-3, 12.0, 480), False),
    (_panels_one_ulp_off(spectral_rule(10.5)[0]), True),
)


@pytest.mark.parametrize("l,xi,kappa", SIGN_CASES)
def test_setup_polys_are_the_closed_form_terms(l, xi, kappa):
    # the set-up's closed-form rows are the terms 0 and 2 of
    # _eigenfunction_terms times their D_l polynomials, bit for bit, on every
    # kind of grid
    spec = make_extension_spec(l, xi, kappa)
    for lam, has_shared in SETUP_GRIDS:
        (_, _, _, polys, _), shared = spectrum._row_setup(spec, lam.tobytes())
        assert (shared is not None) == has_shared
        pref, amps, rates, _ = _eigenfunction_terms(spec, lam)
        a = pref[:, None] * amps
        assert polys.tobytes() == (a[:, ::2, None] * exponential_poly(l, rates[:, ::2])).tobytes()


@pytest.mark.parametrize("l,xi,kappa", SIGN_CASES)
def test_basis_rows_have_no_sign_jump(l, xi, kappa):
    # u^lambda is continuous in lambda, so neighbouring rows of the basis
    # correlate positively, |u_i - u_i+1| < |u_i + u_i+1|, on a short r grid
    # (lambda r <= 2) where a row does not yet oscillate; an overall sign
    # chosen per row shows as a pair that breaks this.  Each octave of lambda,
    # with the row below it, gets its own grid, reaching lambda r >= 1 on its
    # rows: one grid for all of lambda would sample the smallest rows where
    # u ~ C(lambda) r^{l+1} alone, and C has zeros (l=1, xi=2, kappa=-0.01 at
    # lambda near 0.0116).  The least cosine of a pair reads 0.92
    spec = make_extension_spec(l, xi, kappa)
    for lam, _ in SETUP_GRIDS[:3]:
        octave = np.floor(np.log2(lam))
        for k in np.unique(octave):
            idx = np.flatnonzero(octave == k)
            rows = np.arange(max(idx[0] - 1, 0), idx[-1] + 1)
            r = np.linspace(0.0, 2.0 / lam[rows[-1]], 33)[1:]
            u = np.full((rows.size, r.size), np.nan)
            for block, cols, values in _basis_blocks(spec, lam[rows], r):
                u[block, cols] = values
            minus = np.linalg.norm(u[1:] - u[:-1], axis=1)
            plus = np.linalg.norm(u[1:] + u[:-1], axis=1)
            assert np.all(minus < plus), lam[rows[1:]][minus >= plus]


@pytest.mark.parametrize("l,xi,kappa", SIGN_CASES + [(1, 1, -0.8)])
def test_taylor_rows_match_the_series_of_the_rates(l, xi, kappa):
    # the set-up's origin series is lambda^m sum_k a_k rho_k^m, the series
    # coefficients of the four unit rates rho_k scaled by lambda^m.  Against
    # _series_coefficients on the rates lambda rho_k it agrees to the
    # round-off of their terms, eps |D_l r^m| / m! lambda^m sum_k |a_k|, and
    # not to each value's own size: at l=1, xi=1, kappa=-0.8 and lambda near
    # 2e-6 the low orders cancel to about 1e-19.  The rates' own rounding,
    # up to eps / 2 each, grows m-fold in their m-th powers, which sets the
    # (10 + m / 2) eps of the comparison; against the exact sum of the same
    # float64 terms the set-up's rows keep within 4 eps
    spec = make_extension_spec(l, xi, kappa)
    lam = spectral_rule(70.6, 16.0)[0]
    (_, _, _, _, coefs), _ = spectrum._row_setup(spec, lam.tobytes())
    pref, amps, rates, _ = _eigenfunction_terms(spec, lam)
    a = pref[:, None] * amps
    m = np.arange(l, SERIES_ORDER + l + 1)
    unit = np.array([abs(monomial_coefficient(l, k)) / factorial(k) for k in m])
    scale = unit * lam[:, None] ** m * np.sum(np.abs(a), axis=1)[:, None]
    eps = np.finfo(float).eps
    generic = _series_coefficients(l, a, rates, SERIES_ORDER).real
    assert np.all(np.abs(coefs - generic) <= (10.0 + m / 2.0) * eps * scale)
    rho = spectrum._unit_rates(spec)
    with mpmath.workdps(40):
        for i in range(0, lam.size, 151):
            for c, k in enumerate(m):
                terms = [mpmath.mpc(ak) * (mpmath.mpf(lam[i]) * mpmath.mpc(rk)) ** int(k) for ak, rk in zip(a[i], rho)]
                exact = mpmath.re(mpmath.fsum(terms)) * monomial_coefficient(l, int(k)) / mpmath.factorial(k)
                assert abs(coefs[i, c] - float(exact)) <= 4.0 * eps * scale[i, c]


@pytest.mark.parametrize("l,xi,kappa", BASIS_CASES)
def test_warm_setup_contracts_like_a_cold_one(l, xi, kappa):
    # a contraction or tile that reads a cached set-up equals one that builds
    # it, bit for bit
    spec = make_extension_spec(l, xi, kappa)
    lam = spectral_rule(20.9)[0]
    r, rw = radial_rule(20.9)
    x = rw * np.exp(-0.2 * r)
    y = np.exp(-0.3 * lam)

    calls = (
        lambda: _basis_matvec(spec, lam, r, x).tobytes(),
        lambda: _basis_rmatvec(spec, lam, r, y[None]).tobytes(),
        lambda: [u.tobytes() for _, _, u in _basis_blocks(spec, lam, r[::5])],
    )
    cold = []
    for call in calls:
        spectrum._row_setup.cache_clear()
        cold.append(call())
    hits = spectrum._row_setup.cache_info().hits
    assert [call() for call in calls] == cold
    assert spectrum._row_setup.cache_info().hits == hits + 3


def test_spectral_rule_places_uniform_panels_exactly():
    # node j of each full-width uniform panel is the exact sum of the panel's
    # first node and one shared offset row; the panels cover (0, lam_max)
    for r_max, lam_max in CONTRACTION_GRIDS + [(400.0, 8.0), (400.0, 16.0)]:
        lam, lw = spectral_rule(r_max, lam_max)
        width = min(2.0 * np.pi / r_max, (lam_max - 0.5) / 4.0)
        # the first panel and 12 geometric ones, the uniform ones, the last
        uniform = lam.reshape(-1, 24)[13:-1]
        assert uniform.shape[0] == int(np.floor((lam_max - 0.5) / width - 1e-9))
        first = uniform[:, 0]
        offsets = uniform[0] - first[0]
        assert np.array_equal(uniform, first[:, None] + offsets)
        assert np.array_equal(uniform - first[:, None], np.broadcast_to(offsets, uniform.shape))
        assert abs(np.sum(lw) - lam_max) <= 1e-14 * lam_max


def test_shared_panels_are_the_uniform_panels():
    # all full-width uniform panels of the spectral rule share their offsets
    # exactly, and each run of them, walked up from the lowest lambda, is
    # factored from the cut of its first panel and ends before the first
    # panel whose own cut is below 7/8 of that; grids without two such
    # panels, or without a radius beyond any cut, stay on the tiles
    for r_max, lam_max in CONTRACTION_GRIDS:
        lam = spectral_rule(r_max, lam_max)[0]
        r = radial_rule(r_max)[0]
        width = min(2.0 * np.pi / r_max, (lam_max - 0.5) / 4.0)
        shared = spectrum._SharedPanels.search(lam).cut(r)
        assert shared.first.size == int(np.floor((lam_max - 0.5) / width - 1e-9))
        exact = (shared.first[:, None] + shared.offsets).ravel()
        assert np.array_equal(lam[shared.rows], exact)
        cuts = shared.cuts
        assert np.all(np.diff(cuts) <= 0) and cuts[-1] < cuts[0]
        # no node is factored below lambda r = 4
        assert np.all(cuts < r.size) and np.all(r[cuts] >= 4.0 / shared.first)
        own = np.searchsorted(r, 4.0 / shared.first)
        top = 0
        while top < cuts.size:
            n = max(1, spectrum._TILE_PAIRS // (24 * own[top]))
            size = 1
            while size < n and top + size < cuts.size and 8 * own[top + size] >= 7 * own[top]:
                size += 1
            run = cuts[top : top + size]
            assert np.all(run == own[top])
            if run.size > 1:
                assert 24 * run.size * run[0] <= spectrum._TILE_PAIRS
            top += size
    r = radial_rule(10.5)[0]
    lam = spectral_rule(10.5)[0]
    assert spectrum._SharedPanels.search(lam[:-1]) is None
    assert spectrum._SharedPanels.search(lam[: 14 * 24]) is None
    assert spectrum._SharedPanels.search(lam).cut(r[r < 4.0 / lam.max()]) is None


@pytest.mark.parametrize("l,xi,kappa", [(1, 1, 0.8), (2, 2, 0.0), (2, 1, -1.3)])
def test_panels_one_ulp_off_stay_on_the_tiles(l, xi, kappa):
    # one node of every other uniform panel moved up by one ulp, a different
    # node in each: those panels are no longer exact sums first + offsets, so
    # search leaves them to the tiles, while the untouched half stays factored
    # and the contractions still agree with the tiles
    spec = make_extension_spec(l, xi, kappa)
    lam, lw = spectral_rule(70.6, 8.0)
    r, rw = radial_rule(70.6)
    r, rw = r[::4], 4.0 * rw[::4]
    nodes = lam.reshape(-1, 24).copy()
    uniform = np.arange(13, nodes.shape[0] - 1)
    moved = uniform[::2]
    for n, p in enumerate(moved):
        j = 1 + n % 23
        nodes[p, j] = np.nextafter(nodes[p, j], np.inf)
    lam = nodes.ravel()
    shared = spectrum._SharedPanels.search(lam).cut(r)
    assert np.array_equal(np.unique(shared.rows // 24), uniform[1::2])
    x = rw * np.exp(-0.1 * r) * np.cos(0.7 * r)
    y = lw * np.exp(-0.3 * lam) * np.sin(3.0 * lam + 0.2)
    c_ref, f_ref = _tile_contractions(spec, lam, r, x, y)
    c = _basis_matvec(spec, lam, r, x)
    (f,) = _basis_rmatvec(spec, lam, r, y[None])
    assert np.max(np.abs(c - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))
    assert np.max(np.abs(f - f_ref)) <= 1e-12 * np.max(np.abs(f_ref))


@pytest.mark.parametrize("tilt", (1.0, -1.0))
def test_pair_exponentials_match_exp(tilt):
    # e^{i theta} as h^2 and e^{rho_1 theta} as e^{-sqrt(3) theta / 2} h from
    # h = e^{i theta / 2}, against numpy's complex exponential of each rate
    theta = np.linspace(0.0, 200.0, 40001)
    rho = (1j, complex(-np.sqrt(3.0) / 2.0, tilt / 2.0))
    bound = 4.0 * np.finfo(float).eps * (1.0 + theta)
    for rate, got in zip(rho, spectrum._pair_exponentials(theta, tilt)):
        ref = np.exp(rate * theta)
        assert np.all(np.abs(got - ref) <= bound * np.abs(ref))


@pytest.mark.parametrize("l,xi,kappa", BASIS_CASES)
def test_pair_rates_are_the_pair_exponentials(l, xi, kappa):
    # _pair_exponentials assumes that closed-form terms 0 and 2 have the rates
    # rho_0 = i and rho_1 = -sqrt(3)/2 +- i/2 at lambda = 1, with the minus
    # sign for l=2, xi=1 only
    spec = make_extension_spec(l, xi, kappa)
    rho = _eigenfunction_terms(spec, 1.0)[2][::2]
    tilt = -1.0 if (l, xi) == (2, 1) else 1.0
    assert spectrum._tilt(spec) == tilt
    want = np.array([1j, complex(-np.sqrt(3.0) / 2.0, tilt / 2.0)])
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(rho) - part(want)) <= 2.0 * np.spacing(np.abs(part(want))))


def _closed_form_longdouble(e, r):
    """u^lambda(r) of a continuous eigenfunction with its rates and the
    exponentials in long double, from its float64 amplitudes."""
    ld = np.longdouble
    lam = ld(e.lam)
    a = e.u.scale * e.u.base.amplitudes[::2]
    half = np.sqrt(ld(3.0)) / 2
    rho2 = -half + 1j * ld(0.5) * np.sign(e.u.base.rates[2].imag)
    rates = np.array([1j * lam, rho2 * lam], np.clongdouble)
    rl = r.astype(ld)
    out = np.zeros(r.size, np.clongdouble)
    for ak, chi in zip(a, rates):
        # D_2 e^{chi r} = (chi^2 - 3 chi / r + 3 / r^2) e^{chi r}
        out += np.clongdouble(ak) * (chi * chi - 3 * chi / rl + 3 / (rl * rl)) * np.exp(chi * rl)
    return 2 * out.real


def _matvec_longdouble(spec, lam, r, x):
    """U x with each row of U in long double, by _closed_form_longdouble."""
    xl = x.astype(np.longdouble)
    return np.array(
        [float(np.sum(_closed_form_longdouble(continuous_eigenfunction(spec, la), r) * xl)) for la in lam]
    )


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is double here")
def test_factored_forward_far_region_long_double():
    # the largest transform input of the benchmark (l=2, xi=2, kappa=0,
    # base_rate 0.4) on apply_function's default lambda grid.  With its radii
    # cut to those beyond every run's cut, each shared row of c comes from the
    # factored sums alone.  This reads 3.4e-15, the tiles 3.8e-15
    spec = make_extension_spec(2, 2, 0.0)
    f = domain_test_function(spec, 1, 0.4)
    lam = spectral_rule(70.6, 16.0)[0]
    r, rw = radial_rule(70.6)
    x = np.real(eval_radial(f, r)) * rw
    shared = spectrum._SharedPanels.search(lam).cut(r)
    far = slice(np.max(shared.cuts), None)
    c = _basis_matvec(spec, lam, r[far], x[far])
    rows = shared.rows[::4]
    ref = _matvec_longdouble(spec, lam[rows], r[far], x[far])
    assert np.max(np.abs(c[rows] - ref)) <= 5e-15 * np.max(np.abs(ref))
    # each run's own cut: x zeroed below it, so that run's rows of c come from
    # the factored sums alone.  The smallest cuts factor nodes down to
    # lambda r = 4 at r about 0.3, where the tiles' own error grows too
    for cut in np.unique(shared.cuts):
        rows = shared.rows[np.repeat(shared.cuts == cut, 24)][::4]
        xc = np.where(np.arange(r.size) >= cut, x, 0.0)
        c = _basis_matvec(spec, lam, r, xc)[rows]
        ref = _matvec_longdouble(spec, lam[rows], r[cut:], xc[cut:])
        tiles = np.zeros(rows.size)
        for block, cols, u in _basis_blocks(spec, lam[rows], r):
            tiles[block] += u @ xc[cols]
        err = np.max(np.abs(c - ref)) / np.max(np.abs(ref))
        tile_err = np.max(np.abs(tiles - ref)) / np.max(np.abs(ref))
        assert err <= max(5e-15, 1.5 * tile_err), (cut, err, tile_err)


@pytest.mark.parametrize(
    "l,xi,num",
    (
        # p(lambda) = 3 lambda + 2 e^{i pi/6} kappa
        (1, 1, -3.0 / (2.0 * np.exp(1j * np.pi / 6))),
        # p(lambda) = 2 lambda + 3 e^{i pi/6} kappa
        (2, 1, -2.0 / (3.0 * np.exp(1j * np.pi / 6))),
        # p(lambda) = lambda + 2 e^{i pi/6} kappa
        (1, 2, -1.0 / (2.0 * np.exp(1j * np.pi / 6))),
        # p(lambda) = lambda^5 + 2 e^{5 i pi/6} kappa^5
        (2, 2, (-1.0 / (2.0 * np.exp(5j * np.pi / 6))) ** 0.2),
    ),
    ids=("l1-xi1", "l2-xi1", "l1-xi2", "l2-xi2"),
)
def test_eigenfunction_terms_vanishing_p_checked_per_row(l, xi, num):
    # a complex kappa whose p(lambda) vanishes at lambda = 1; real kappa never
    # does, so the check is an internal guard
    spec = ExtensionSpec(l, xi, SimpleNamespace(num=num, den=1.0))
    _eigenfunction_terms(spec, np.array([0.5, 2.0]))
    with pytest.raises(InternalInconsistency):
        _eigenfunction_terms(spec, np.array([0.5, 1.0, 2.0]))


def test_continuous_kappa_zero_matches_free_form():
    # kappa = 0 in the first family reduces to the free eigenfunction for l=1
    spec = make_extension_spec(1, 1, 0.0)
    lam = 1.7
    u = continuous_eigenfunction(spec, lam).u
    r = np.linspace(0.2, 8.0, 40)
    got = np.real(eval_radial(u, r))
    ref = np.array([asymptotic_density(1, lam, ri) for ri in r])
    err = min(np.max(np.abs(got - ref)), np.max(np.abs(got + ref)))
    assert err < 1e-12


def test_eigenfunction_is_the_closed_form():
    # continuous_eigenfunction returns the terms of _eigenfunction_terms as
    # they are, bit for bit: no overall sign of its own
    for l, xi in ALL_PAIRS:
        spec = make_extension_spec(l, xi, 0.9)
        for lam in (0.05, 1.3, 7.0):
            e = continuous_eigenfunction(spec, lam)
            pref, amps, rates, p = _eigenfunction_terms(spec, lam)
            assert e.u.scale == pref
            assert e.u.base.amplitudes.tobytes() == amps.tobytes()
            assert e.u.base.rates.tobytes() == rates.tobytes()
            assert e.phase == float(np.angle(p))


@pytest.mark.parametrize("l,xi", ALL_PAIRS)
@pytest.mark.parametrize("kappa", [0.8, -1.3])
def test_density_matches_resolvent_jump(l, xi, kappa):
    spec = make_extension_spec(l, xi, kappa)
    lam, r, s = 1.1, 0.9, 2.4
    direct = spectral_density(spec, lam, r, s)
    jump = resolvent_difference_density(spec, lam, r, s)
    assert abs(jump.imag) < 1e-8 * (1.0 + abs(jump))
    assert abs(direct - jump.real) < 1e-8 * (1.0 + abs(direct))


def test_density_diagonal_nonnegative():
    spec = make_extension_spec(2, 1, -0.5)
    for lam in (0.4, 1.0, 2.7):
        for r in (0.5, 1.5, 3.0):
            assert spectral_density(spec, lam, r, r) >= 0.0


def test_density_symmetric():
    spec = make_extension_spec(1, 2, 0.6)
    a = spectral_density(spec, 0.9, 0.7, 2.1)
    b = spectral_density(spec, 0.9, 2.1, 0.7)
    assert a == b


def test_asymptotic_density_values():
    # for l=1 the free form evaluates to sqrt(2/pi) (cos(x) - sin(x)/x), x = lam r
    lam, r = 2.0, 1.5
    x = lam * r
    ref = np.sqrt(2.0 / np.pi) * (np.cos(x) - np.sin(x) / x)
    assert abs(asymptotic_density(1, lam, r) - ref) < 1e-13
    with pytest.raises(DomainError):
        asymptotic_density(1, 0.0, 1.0)


def test_common_extension_two_descriptions_agree():
    # (l=2, xi=1, kappa=0) and (l=2, xi=2, kappa=inf) describe one extension
    lam = 1.3
    u1 = continuous_eigenfunction(make_extension_spec(2, 1, 0.0), lam).u
    u2 = continuous_eigenfunction(make_extension_spec(2, 2, "inf"), lam).u
    r = np.linspace(0.3, 7.0, 30)
    a, b = np.real(eval_radial(u1, r)), np.real(eval_radial(u2, r))
    assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-10
