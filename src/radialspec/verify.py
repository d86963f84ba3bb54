"""Self-verification suites: every closed form is checked against an
independent computation (symbolic identity, linear-system oracle, finite
differences, or quadrature).  The CLI `verify` command and the acceptance
tests both run these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import resolvent as _resolvent
from .boundary import boundary_form, check_membership, membership_residuals
from .core import (
    ExponentialSum,
    ExtensionSpec,
    Jet6,
    RadialFunction,
    _phase,
    make_extension_spec,
)
from .deficiency import deficiency_indices, deficiency_solution, kernel_residual
from .errors import InvalidInput
from .quadrature import quad_semiaxis
from .rayleigh import derivative, eval_radial, jet_at_origin, verify_rayleigh
from .resolvent import (
    PRINTED_TABLE_ERRATA,
    apply_resolvent,
    coefficients_closed_form,
    coefficients_oracle,
    cross_relation_residuals,
    h_solution,
    kernel,
    wronskian,
    wronskian_numeric,
)
from .spectrum import (
    asymptotic_density,
    bound_state,
    continuous_eigenfunction,
    eigen_residual_continuous,
    eigen_residual_discrete,
    realness_residual,
    resolvent_difference_density,
    spectral_density,
)
from .transform import SampledFunction, domain_test_function, fd_apply

ALL_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))  # (l, xi)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


def _res(suite, name, measured, threshold, detail=""):
    return CheckResult(suite, name, bool(measured <= threshold), float(measured), threshold, detail)


def random_domain_jet(spec: ExtensionSpec, rng) -> Jet6:
    """A random jet satisfying the extension's boundary conditions exactly."""
    c = lambda: complex(rng.normal(), rng.normal())
    num, den = spec.kappa.num, spec.kappa.den
    d = np.zeros(6, complex)
    if (spec.xi, spec.l) != (2, 2):
        factor = {(1, 1): 9 / 8, (1, 2): 8 / 5, (2, 1): 9 / 8}[(spec.xi, spec.l)]
        if den == 0.0:
            d[2], d[3] = 0.0, c()
        else:
            d[2] = c()
            d[3] = factor * (num / den) * d[2]
        if spec.xi == 1:
            d[4], d[5] = c(), c()
        else:
            d[1], d[5] = c(), c()
    else:
        if den == 0.0:
            d[0], d[5] = 0.0, c()
        else:
            d[0] = c()
            d[5] = -(8 / 7) * (num / den) ** 5 * d[0]
        d[2] = c()
    return Jet6(d)


def suite_rayleigh(seed: int = 0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        l = int(rng.integers(1, 3))
        chi = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        r = float(rng.uniform(0.1, 10.0))
        worst = max(worst, verify_rayleigh(l, chi, r))
    return [_res("rayleigh", "identity residual (100 random cases)", worst, 1e-10)]


def suite_boundary_form(seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    for l, xi in ALL_PAIRS:
        for kap in (0.0, 0.9, -1.4) + (("inf",) if l == 2 else ()):
            spec = make_extension_spec(l, xi, kap)
            worst = 0.0
            for _ in range(50):
                ju = random_domain_jet(spec, rng)
                jv = random_domain_jet(spec, rng)
                scale = max(ju.magnitude * jv.magnitude, 1e-300)
                worst = max(worst, boundary_form(l, ju, jv).max_abs / scale)
            out.append(
                _res("boundary_form", f"symmetricity l={l} xi={xi} kappa={kap}", worst, 1e-10)
            )
        spec = make_extension_spec(l, xi, 0.9)
        detected = 0
        trials = 40
        for _ in range(trials):
            ju = random_domain_jet(spec, rng)
            jv = random_domain_jet(spec, rng)
            bad = np.array(ju.d)
            idx = {
                (1, 1): (0, 1, 3),
                (2, 1): (0, 1, 3),
                (1, 2): (0, 4, 3),
                (2, 2): (1, 3, 4, 5),
            }[(l, xi)]
            bad[idx[int(rng.integers(len(idx)))]] += 1.0 + 0.3j
            form = boundary_form(l, Jet6(bad), jv)
            if form.max_abs > 1e-6 * max(jv.magnitude, 1.0):
                detected += 1
        out.append(
            _res(
                "boundary_form",
                f"mutation detection l={l} xi={xi}",
                float(trials - detected),
                0.0,
                f"{detected}/{trials} mutations detected",
            )
        )
    return out


def suite_coefficients(seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    for l, xi in ALL_PAIRS:
        worst = 0.0
        worst_entry = ""
        worst_cross = 0.0
        for _ in range(20):
            kap = float(rng.normal())
            spec = make_extension_spec(l, xi, kap)
            z = (0.5 + rng.random()) * np.exp(1j * rng.uniform(0.05, np.pi / 3 - 0.05))
            cf = coefficients_closed_form(spec, z)
            orc = coefficients_oracle(spec, z)
            for name in ("alpha", "beta", "gamma"):
                a, b = getattr(cf, name), getattr(orc, name)
                rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-12)
                k = int(np.argmax(rel))
                if rel[k] > worst:
                    worst, worst_entry = float(rel[k]), f"{name}[{k}] l={l} xi={xi}"
            worst_cross = max(worst_cross, float(np.max(cross_relation_residuals(spec, z))))
        errata = ", ".join(f"({p[0][1]},{p[0][0]}) k={p[1]} {p[2]}" for p in sorted(PRINTED_TABLE_ERRATA, key=str))
        out.append(
            _res(
                "coefficients",
                f"oracle equivalence l={l} xi={xi}",
                worst,
                1e-9,
                (f"worst entry {worst_entry}; " if worst > 1e-9 else "")
                + f"printed-table errata adopted from oracle: {errata}",
            )
        )
        out.append(_res("coefficients", f"cross relations l={l} xi={xi}", worst_cross, 1e-10))
    return out


def suite_wronskian(seed: int = 0):
    out = []
    for l in (1, 2):
        worst = 0.0
        for z in (1.0 + 0.0j, 0.8 * np.exp(1j * np.pi / 7)):
            for k in range(3):
                w = wronskian(l, z, k)
                for r in (0.5, 1.0, 7.0):
                    wn = wronskian_numeric(l, z, k, r)
                    worst = max(worst, abs(wn - w) / abs(w))
        out.append(_res("wronskian", f"closed form vs numeric l={l}", worst, 1e-10))
    return out


def _kernel_window(spec, z, s, r0):
    grid = r0 + 0.15 * np.arange(-6.0, 7.0)
    return grid, kernel(spec, z, grid, s).total


def suite_kernel(seed: int = 0):
    out = []
    z = 0.9 * np.exp(1j * np.pi / 7)
    for l, xi in ALL_PAIRS:
        spec = make_extension_spec(l, xi, 0.8)
        r, s = 0.7, 1.9
        kv = kernel(spec, z, r, s)
        sym = abs(kv.total - kernel(spec, z, s, r).total) / abs(kv.total)
        out.append(_res("kernel", f"symmetry l={l} xi={xi}", sym, 1e-12))
        split = abs(kv.total - (kv.R0 + kv.R1 + kv.R2 + kv.Rg)) / abs(kv.total)
        out.append(_res("kernel", f"split consistency l={l} xi={xi}", split, 1e-12))

        r0, s0 = 1.1, 2.6
        grid, vals = _kernel_window(spec, z, s0, r0)
        scale = float(np.max(np.abs(z**6 * vals)))
        res = []
        for part in (np.real, np.imag):
            fd = fd_apply(l, SampledFunction(grid, part(vals)), r0)
            res.append(fd - part(z**6 * kernel(spec, z, r0, s0).total))
        fd_res = float(np.hypot(*res)) / scale
        out.append(_res("kernel", f"off-diagonal operator residual l={l} xi={xi}", fd_res, 1e-6))

        # fifth-derivative jump across the diagonal, with the c_k kernel uses
        sj = 1.3
        jump = 0.0
        ck = _resolvent._kernel_setup(spec, z, False)[3]
        for k in range(3):
            hk = h_solution(spec, z, k)
            gk = _resolvent.basis_g(l, z, k)
            jump += ck[k, 0] * (
                eval_radial(hk, sj) * derivative(gk, sj, 5)
                - derivative(hk, sj, 5) * eval_radial(gk, sj)
            )
        out.append(_res("kernel", f"diagonal jump +1 residual l={l} xi={xi}", abs(jump + 1.0), 1e-6))

        f = domain_test_function(spec)
        fc = lambda x: np.real(eval_radial(f, x))
        h = 0.15
        r0 = 1.2
        grid = r0 + h * np.arange(-6.0, 7.0)  # r0 is node 6
        u = apply_resolvent(spec, z, fc, grid)
        fd = fd_apply(l, SampledFunction(grid, np.real(u)), r0)
        target = fd - np.real(z**6 * u[6])
        scale = max(abs(fc(np.array([r0]))[0]), 1e-6)
        out.append(
            _res("kernel", f"apply-then-operate residual l={l} xi={xi}", abs(target - fc(np.array([r0]))[0]) / scale, 1e-5)
        )
    return out


def suite_bound_state(seed: int = 0):
    out = []
    for l, xi in ALL_PAIRS:
        spec = make_extension_spec(l, xi, -1.0)
        b = bound_state(spec)
        p, pscale = _resolvent._denominator(spec, b.z_p)
        out.append(_res("bound_state", f"pole solves p(z)=0 l={l} xi={xi}", abs(p) / pscale, 1e-12))
        decay = -2.0 * float(np.max(np.real(b.v.base.rates)))
        norm2 = quad_semiaxis(lambda r: np.abs(eval_radial(b.v, r)) ** 2, decay, 1e-11)
        out.append(_res("bound_state", f"unit norm l={l} xi={xi}", abs(np.real(norm2) - 1.0), 1e-8))
        out.append(
            _res("bound_state", f"eigen residual l={l} xi={xi}", eigen_residual_discrete(b), 1e-10)
        )
        jet = jet_at_origin(b.v)
        ok, res = check_membership(spec, jet)
        out.append(
            _res("bound_state", f"jet membership l={l} xi={xi}", float(np.max(np.abs(res))) / (1.0 + jet.magnitude), 1e-10)
        )
    return out


def suite_continuous(seed: int = 0):
    out = []
    lams = (0.3, 0.7, 1.1, 1.9, 3.3)
    for l, xi in ALL_PAIRS:
        for kap in (0.8, -1.3):
            spec = make_extension_spec(l, xi, kap)
            worst_id, worst_real, worst_eig, worst_mem = 0.0, 0.0, 0.0, 0.0
            for lam in lams:
                e = continuous_eigenfunction(spec, lam)
                for r, s in ((0.6, 1.7), (1.1, 2.9)):
                    lhs = spectral_density(spec, lam, r, s)
                    rhs = resolvent_difference_density(spec, lam, r, s)
                    worst_id = max(worst_id, abs(lhs - rhs) / (1.0 + abs(lhs)))
                worst_real = max(worst_real, realness_residual(e))
                worst_eig = max(worst_eig, eigen_residual_continuous(e))
                j = jet_at_origin(e.u)
                worst_mem = max(
                    worst_mem,
                    float(np.max(np.abs(membership_residuals(spec, j)))) / (1.0 + j.magnitude),
                )
            tag = f"l={l} xi={xi} kappa={kap}"
            out.append(_res("continuous", f"resolvent-difference identity {tag}", worst_id, 1e-8))
            out.append(_res("continuous", f"realness {tag}", worst_real, 1e-12))
            out.append(_res("continuous", f"eigen residual {tag}", worst_eig, 1e-10))
            out.append(_res("continuous", f"jet membership {tag}", worst_mem, 1e-10))
    return out


def _canonical_signs(vals):
    """+-1 per row of real values: the sign of the first value whose
    magnitude exceeds 5% of the row's largest.  suite_limits compares two
    descriptions of one eigenfunction after putting both in this sign on the
    same grid, since each fixes its overall sign its own way."""
    mags = np.abs(vals)
    first = np.argmax(mags > 0.05 * np.max(mags, axis=-1, keepdims=True), axis=-1)
    lead = np.take_along_axis(vals, first[..., None], axis=-1)[..., 0]
    return np.where(lead < 0, -1.0, 1.0)


def _canonical_values(u, r):
    """Real values of the RadialFunction u at r, in the sign of _canonical_signs."""
    vals = np.real(eval_radial(u, r))
    return vals * _canonical_signs(vals)


def suite_limits(seed: int = 0):
    out = []
    rgrid = np.linspace(0.3, 6.0, 40)

    spec = make_extension_spec(1, 1, 0.0)
    lam = 1.3
    u = _canonical_values(continuous_eigenfunction(spec, lam).u, rgrid)
    free = asymptotic_density(1, lam, rgrid)
    free = free * _canonical_signs(free)
    out.append(
        _res("limits", "l=1 xi=1 kappa=0 equals free form", float(np.max(np.abs(u - free))), 1e-12)
    )

    s_a = make_extension_spec(2, 1, 0.0)
    s_b = make_extension_spec(2, 2, "inf")
    lam = 0.9
    ua = _canonical_values(continuous_eigenfunction(s_a, lam).u, rgrid)
    ub = _canonical_values(continuous_eigenfunction(s_b, lam).u, rgrid)
    out.append(_res("limits", "common extension (l=2, xi=1 kappa=0 vs xi=2 kappa=inf)", float(np.max(np.abs(ua - ub))), 1e-10))
    # the exact limiting closed form of the common extension
    ulim = RadialFunction(
        ExponentialSum(
            [_phase(-1 / 6), -_phase(1 / 6), _phase(1 / 6), -_phase(-1 / 6)],
            [-1j * lam, 1j * lam, -_phase(-1 / 6) * lam, -_phase(1 / 6) * lam],
        ),
        2,
        1j / (np.sqrt(2 * np.pi) * lam**2),
    )
    ul = _canonical_values(ulim, rgrid)
    out.append(_res("limits", "common extension matches limiting form", float(np.max(np.abs(ua - ul))), 1e-10))

    band = np.linspace(1.0, 5.0, 60)

    def dist(spec, lam):
        u = np.real(eval_radial(continuous_eigenfunction(spec, lam).u, band))
        free = asymptotic_density(spec.l, lam, band)
        return min(float(np.max(np.abs(u - free))), float(np.max(np.abs(u + free))))

    d1 = [dist(make_extension_spec(1, 1, 1.0), lam) for lam in (10.0, 18.0, 32.0, 56.0, 100.0)]
    mono1 = float(np.max(np.diff(d1)))
    out.append(_res("limits", "l=1 large-lambda monotone approach to free form", mono1, 0.0, f"distances {['%.2e' % x for x in d1]}"))
    d2 = [dist(make_extension_spec(2, 1, 1.0), lam) for lam in (0.5, 0.28, 0.16, 0.09, 0.05)]
    mono2 = float(np.max(np.diff(d2)))
    out.append(_res("limits", "l=2 small-lambda monotone approach to free form", mono2, 0.0, f"distances {['%.2e' % x for x in d2]}"))
    return out


def suite_orthogonality(seed: int = 0):
    out = []
    for l, xi in ALL_PAIRS:
        spec = make_extension_spec(l, xi, -1.0)
        b = bound_state(spec)
        decay = -float(np.max(np.real(b.v.base.rates)))
        worst = 0.0
        for lam in (0.4, 0.9, 1.5, 2.4, 3.8):
            u = continuous_eigenfunction(spec, lam).u
            ip = quad_semiaxis(
                lambda r: np.real(eval_radial(b.v, r)) * np.real(eval_radial(u, r)),
                decay,
                1e-9,
            )
            worst = max(worst, abs(ip))
        out.append(_res("orthogonality", f"<v, u_lambda> l={l} xi={xi}", worst, 1e-6))
    return out


def suite_deficiency(seed: int = 0):
    out = []
    worst = 0.0
    for l in (1, 2):
        assert deficiency_indices(l) == (2, 2)
        for xi in (1, 2):
            for sign in (1, -1):
                worst = max(worst, kernel_residual(deficiency_solution(l, xi, sign, 1.0)))
    out.append(_res("deficiency", "adjoint kernel residual (all q)", worst, 1e-10))
    return out


SUITES = {
    "rayleigh": suite_rayleigh,
    "boundary_form": suite_boundary_form,
    "coefficients": suite_coefficients,
    "wronskian": suite_wronskian,
    "kernel": suite_kernel,
    "deficiency": suite_deficiency,
    "bound_state": suite_bound_state,
    "continuous": suite_continuous,
    "limits": suite_limits,
    "orthogonality": suite_orthogonality,
}


def run_suites(names=None, seed: int = 0):
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise InvalidInput(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        results.extend(SUITES[name](seed))
    return results
