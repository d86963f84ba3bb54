"""Seeded inputs, operations and correctness checks of the three workloads.

Every workload is a fixed cycle ("round") of operation slots.  A slot pins
what sets an operation's cost and its worst accuracy: the extension family
(l, xi), the class of kappa, the test function's base rate and index; for the
resolvent, the sector angle and modulus of z.  The seed draws the values left
inside each slot: kappa within its class, a small jitter on arg z and |z|, and
the verify suites' own seeds.  Every round therefore covers the whole input
range of its workload, and runs with different seeds do the same amount of work.

Each operation returns a list of checks (name, measured, threshold).  Only the
public API of ``radialspec`` is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import radialspec as rs

# Grid of the CLI ``transform --mode roundtrip`` reconstruction.
ROUNDTRIP_GRID = np.linspace(0.05, 30.0, 500)
# Grid of the CLI ``resolvent`` command (its default --r-min/--r-max/--n-points).
KERNEL_GRID = np.linspace(0.1, 5.0, 20)
APPLY_STEP = 0.15
APPLY_START = 0.3
STENCIL_HALF = 6  # fd_apply uses 13 points

# Acceptance thresholds, as in the test suite and the verify suites.
ROUNDTRIP_TOL = 1e-4  # criterion 8, relative l2 round-trip error
PARSEVAL_TOL = 1e-3  # criterion 8, Parseval defect
PHI_TOL = 1e-3  # phi(T) f against finite differences, relative to max |T^3 f|
APPLY_TOL = 1e-5  # criterion 5, apply-then-operate residual
KERNEL_TOL = 1e-12  # criterion 5, kernel symmetry and split consistency
COEFF_TOL = 1e-9  # criterion 3, closed-form coefficients against the oracle
TABLE_ZERO_FLOOR = 1e-3  # entries below this share of the largest count as zero

# A transform accuracy miss is the documented spectral-cutoff defect only while
# the output still approximates the right function; beyond this relative error
# the result is wrong, not merely truncated.
CUTOFF_DEFECT_CEILING = 0.1


def _kappa(kind, rng) -> object:
    """kappa of a class ("pos", "neg", "zero", "inf") or a pinned number."""
    if isinstance(kind, float):
        return kind
    if kind == "pos":
        return float(rng.uniform(0.4, 1.2))
    if kind == "neg":
        return float(-rng.uniform(0.4, 1.2))
    if kind == "zero":
        return 0.0
    return "inf"


@dataclass
class Op:
    """One generated operation: what to run and the inputs it receives."""

    kind: str
    spec: object
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------- transform

# (kind, l, xi, kappa class, base_rate, index).  A round is a Latin square:
# each slot has its own extension family (l, xi), kappa class and base rate, so
# one round covers all four of each, and three of its four operations are
# round trips.  Slot 0 holds the largest working set (base_rate 0.4, index 1:
# r_max = 36/0.51 = 70.6, against 10.5 in slot 3; index 0, r_max = 90, would
# lengthen the round and so the run) and the small-lambda
# defect of l=2, xi=2, kappa=0; slot 3 the worst known cutoff defect (l=2,
# xi=1, kappa=inf, base_rate 3.0, index 4).  Indices are pinned because they
# move r_max and so the cost; the seed draws kappa in slots 1 and 2.  A traced
# run replays one round.
TRANSFORM_ROUND = (
    ("roundtrip", 2, 2, "zero", 0.4, 1),
    ("roundtrip", 1, 2, "neg", 0.6, 4),
    ("phi", 1, 1, "pos", 1.5, 2),
    ("roundtrip", 2, 1, "inf", 3.0, 4),
)


def gen_transform(rng, rounds: int):
    ops = []
    for _ in range(rounds):
        for kind, l, xi, kclass, base_rate, index in TRANSFORM_ROUND:
            spec = rs.make_extension_spec(l, xi, _kappa(kclass, rng))
            f = rs.domain_test_function(spec, index, base_rate)
            ops.append(Op(kind, spec, {"f": f, "base_rate": base_rate, "index": index}))
    return ops


def _rel_l2(a, b) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def run_transform(op: Op):
    spec, f = op.spec, op.params["f"]
    if op.kind == "roundtrip":
        coeffs = rs.forward(spec, f)
        rec = rs.inverse(spec, coeffs, ROUNDTRIP_GRID)
        defect = rs.parseval_check(spec, f)
        ref = np.real(rs.eval_radial(f, ROUNDTRIP_GRID))
        return [
            ("roundtrip", _rel_l2(rec.values, ref), ROUNDTRIP_TOL),
            ("parseval", float(defect), PARSEVAL_TOL),
        ], {"lam_nodes": int(coeffs.lam_grid.size)}
    out = rs.apply_function(spec, lambda x: x, f)
    ref = np.real(rs.eval_radial(rs.t3_termwise(f), out.grid))
    err = float(np.max(np.abs(out.values - ref)) / max(np.max(np.abs(ref)), 1e-300))
    return [("phi", err, PHI_TOL)], {}


def transform_miss_cause(op: Op, check: str, measured: float):
    """The documented cause of a transform accuracy miss, or None if unexplained."""
    if measured >= CUTOFF_DEFECT_CEILING:
        return None
    spec, base_rate = op.spec, op.params["base_rate"]
    if check == "phi":
        return (
            "spectral cutoff: lambda^6-weighted tail of c(lambda) beyond the "
            f"default lambda_max=16 (base_rate={base_rate})"
        )
    if (spec.l, spec.xi) == (2, 2) and spec.kappa.value == 0.0:
        return (
            "small-lambda end: for l=2, xi=2, kappa=0 c(lambda) keeps its largest "
            "value as lambda -> 0, where the spectral grid starts at lambda_min=1e-3; "
            "the error does not fall when lambda_max grows"
        )
    if base_rate >= 1.5:
        return (
            "spectral cutoff: default lambda_max=8 truncates c(lambda) of a "
            f"fast-decaying input (base_rate={base_rate})"
        )
    return None


# ---------------------------------------------------------------- resolvent

# (kind, l, xi, kappa class or pinned kappa, arg z, |z|, n_out, test-function
# index).  The kinds alternate between a 20x20 split-kernel grid with the table
# check and apply_resolvent; the slots spread arg z over the sector
# (0.1, pi/3 - 0.1) and |z| over [0.6, 1.5].  A round has one kernel slot more than apply slots, so
# the median op time falls inside the kernel ops rather than between the kinds.
# apply_resolvent integrates out to r_max = 40 / min_k(-Re(i e^{i pi k/3} z)),
# so its cost goes as n_out * r_max; the apply slots pair n_out = 13 with
# r_max ~ 235 and n_out = 40 with r_max ~ 77, which keeps their costs alike
# and the tail percentile off the boundary between two cost classes.  The
# apply slot with a bound state pins kappa = -1 with its pole (|z_p| = 2) far
# from z: near the pole the resolvent amplifies f, and the worst residual
# would become a draw of the seed.
RESOLVENT_ROUND = (
    ("kernel", 1, 2, "neg", 0.45, 0.90, None, None),
    ("apply", 1, 1, "pos", 0.15, 1.15, 13, 1),
    ("kernel", 2, 2, "inf", 0.75, 0.70, None, None),
    ("apply", 2, 2, "zero", 0.55, 1.10, 40, 3),
    ("kernel", 1, 1, "zero", 0.30, 1.40, None, None),
    ("apply", 2, 1, -1.0, 0.25, 0.70, 13, 0),
    ("kernel", 2, 1, "pos", 0.65, 1.00, None, None),
    ("apply", 1, 2, "pos", 0.37, 1.45, 40, 2),
    ("kernel", 2, 2, "pos", 0.90, 0.65, None, None),
)
# Jitter on arg z and |z|.  The finite-difference residual moves steeply with
# z, so a wide jitter would make the worst residual a draw of the seed.
ARG_JITTER = 0.02
MOD_JITTER = 0.03
POLE_CLEARANCE = 0.1


def _draw_spec_z(l, xi, kclass, arg0, mod0, rng):
    """(spec, z) with z near (arg0, mod0), redrawn with kappa while z is
    within 10% of the resolvent pole; the jitter alone may not clear it."""
    for _ in range(1000):
        spec = rs.make_extension_spec(l, xi, _kappa(kclass, rng))
        arg = arg0 + rng.uniform(-ARG_JITTER, ARG_JITTER)
        mod = mod0 + rng.uniform(-MOD_JITTER, MOD_JITTER)
        z = mod * complex(math.cos(arg), math.sin(arg))
        pole = rs.pole_location(spec)
        if pole is None or abs(z - pole) > POLE_CLEARANCE * abs(pole):
            return spec, z
    raise ValueError(f"slot ({l}, {xi}, {kclass}, {arg0}, {mod0}) never clears the pole")


def gen_resolvent(rng, rounds: int):
    ops = []
    for _ in range(rounds):
        for kind, l, xi, kclass, arg0, mod0, n_out, index in RESOLVENT_ROUND:
            spec, z = _draw_spec_z(l, xi, kclass, arg0, mod0, rng)
            params = {"z": z}
            if kind == "apply":
                params["f"] = rs.domain_test_function(spec, index)
                params["grid"] = APPLY_START + APPLY_STEP * np.arange(n_out)
            ops.append(Op(kind, spec, params))
    return ops


def _apply_checks(op: Op):
    """(T^3 - z^6) u = f for u = apply_resolvent(f), by 13-point finite
    differences at every node where the stencil fits, relative to max |f| there."""
    spec, z, f, grid = op.spec, op.params["z"], op.params["f"], op.params["grid"]
    fc = lambda s: np.real(rs.eval_radial(f, s))
    u = rs.apply_resolvent(spec, z, fc, grid)
    fv = fc(grid)
    inner = range(STENCIL_HALF, grid.size - STENCIL_HALF)
    scale = max(float(np.max(np.abs(fv[STENCIL_HALF:-STENCIL_HALF]))), 1e-300)
    re_u = rs.SampledFunction(grid, np.real(u))
    im_u = rs.SampledFunction(grid, np.imag(u))
    worst = 0.0
    for j in inner:
        w = z**6 * u[j]
        res_re = rs.fd_apply(spec.l, re_u, grid[j]) - w.real - fv[j]
        res_im = rs.fd_apply(spec.l, im_u, grid[j]) - w.imag
        worst = max(worst, math.hypot(res_re, res_im) / scale)
    return [("apply_then_operate", worst, APPLY_TOL)], {}


def _kernel_checks(op: Op):
    spec, z = op.spec, op.params["z"]
    n = KERNEL_GRID.size
    vals = [[rs.kernel(spec, z, float(r), float(s)) for s in KERNEL_GRID] for r in KERNEL_GRID]
    sym = split = 0.0
    for i in range(n):
        for j in range(n):
            kv = vals[i][j]
            mag = max(abs(kv.total), 1e-300)
            sym = max(sym, abs(kv.total - vals[j][i].total) / mag)
            split = max(split, abs(kv.total - (kv.R0 + kv.R1 + kv.R2 + kv.Rg)) / mag)
    closed = rs.coefficients_closed_form(spec, z)
    oracle = rs.coefficients_oracle(spec, z)
    # Entry-wise relative error.  At kappa = 0 and kappa = inf some closed-form
    # entries are exactly zero while the oracle returns round-off (~1e-16), so
    # the floor scales with the largest entry instead of being 1e-12 absolute.
    oracle_abs = [np.abs(getattr(oracle, name)) for name in ("alpha", "beta", "gamma")]
    floor = TABLE_ZERO_FLOOR * max(float(np.max(b)) for b in oracle_abs)
    table = 0.0
    for name, b_abs in zip(("alpha", "beta", "gamma"), oracle_abs):
        diff = np.abs(getattr(closed, name) - getattr(oracle, name))
        table = max(table, float(np.max(diff / np.maximum(b_abs, floor))))
    return [
        ("kernel_symmetry", sym, KERNEL_TOL),
        ("kernel_split", split, KERNEL_TOL),
        ("coefficient_table", table, COEFF_TOL),
    ], {}


def run_resolvent(op: Op):
    return _apply_checks(op) if op.kind == "apply" else _kernel_checks(op)


# ------------------------------------------------------------------- verify


def gen_verify(rng, rounds: int):
    return [Op("suites", None, {"seed": int(s)}) for s in rng.integers(0, 2**31, rounds)]


def run_verify(op: Op):
    results = rs.run_suites(seed=op.params["seed"])
    return [(f"{r.suite}: {r.name}", r.measured, r.threshold) for r in results], {}


@dataclass(frozen=True)
class Workload:
    generate: object
    run: object
    warmup: object  # one untimed call, so lazy set-up is not in the first op
    round_len: int
    rounds: int  # size of the generated pool, in rounds
    trace_ops: int  # ops a traced run replays: a fixed prefix of the pool
    # Percentile of op_s_tail: the highest with at least 10 samples above it at
    # the usual sample count, or the maximum where a run has too few samples.
    # It is fixed per workload so that runs with one sample more or less still
    # report the same percentile.
    tail_pct: float
    miss_cause: object = None


WORKLOADS = {
    "transform": Workload(
        gen_transform, run_transform, lambda ops: run_transform(ops[3]),
        len(TRANSFORM_ROUND), 8, len(TRANSFORM_ROUND), 100.0, transform_miss_cause,
    ),
    "resolvent": Workload(
        gen_resolvent, run_resolvent, lambda ops: run_resolvent(ops[0]),
        len(RESOLVENT_ROUND), 40, 2 * len(RESOLVENT_ROUND), 75.0,
    ),
    "verify": Workload(
        gen_verify, run_verify,
        lambda ops: rs.run_suites(["wronskian", "deficiency", "limits"]),
        1, 256, 4, 100.0,
    ),
}


def check_passed(measured: float, threshold: float) -> bool:
    return bool(np.isfinite(measured)) and measured <= threshold
