"""Run one workload in this (fresh) interpreter and print its result as JSON.

Started by run.py, once per run, and again with --setup-only for each extra
set-up sample.  The last line of standard output is one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import radialspec as rs  # noqa: E402, F401  (imported here so set-up time counts it)
import workloads as W  # noqa: E402
from run import BLAS_VARS, OUT  # noqa: E402

SUITES = (
    "rayleigh", "boundary_form", "coefficients", "wronskian", "kernel",
    "deficiency", "bound_state", "continuous", "limits", "orthogonality",
)
# Layers reported as calls and self time per op.
CALL_SELF = (
    "spectrum.continuous_eigenfunction",
    "transform.forward",
    "transform.inverse",
    "transform.parseval_check",
    "transform.apply_function",
    "rayleigh.eval_radial",
    "rayleigh.derivative",
    "resolvent.kernel",
    "resolvent.apply_resolvent",
    "resolvent.coefficients_closed_form",
    "resolvent.coefficients_oracle",
    "resolvent.h_solution",
    "quadrature.quad_semiaxis",
    "boundary.condition_rows",
    "boundary.boundary_form",
    "boundary.check_membership",
    "deficiency.deficiency_solution",
    "deficiency.kernel_residual",
    "deficiency.deficiency_indices",
    "spectrum.bound_state",
)


def tail(times, pct: float):
    """Nearest-rank value at percentile `pct`, with the number of samples above it."""
    xs = sorted(times)
    k = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[k - 1], len(xs) - k


def timing_metrics(times, pct: float):
    value, above = tail(times, pct)
    return {
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": value,
        "tail_percentile": pct,
        "tail_samples_above": above,
        "samples": len(times),
    }


def describe(op):
    spec = op.spec
    out = {"kind": op.kind}
    if spec is not None:
        out["spec"] = repr(spec)
    for key, val in op.params.items():
        if isinstance(val, (int, float, str)):
            out[key] = val
        elif isinstance(val, complex):
            out[key] = [val.real, val.imag]
    return out


def run_op(wl, op, index, tracer=None):
    """Run and check one op; the record says whether and why it failed."""
    if tracer is not None:
        tracer.op = index
    t0 = time.perf_counter()
    try:
        checks, counts = wl.run(op)
        error = None
    except Exception as exc:  # a raising op is a counted failure, not a crash
        checks, counts, error = [], {}, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = -1
    misses = []
    for name, measured, threshold in checks:
        if not W.check_passed(measured, threshold):
            cause = wl.miss_cause(op, name, measured) if wl.miss_cause else None
            misses.append({"check": name, "measured": measured, "threshold": threshold,
                           "cause": cause})
    if error is not None:
        misses.append({"check": "raised", "measured": None, "threshold": None,
                       "cause": None, "error": error})
    ratios = [m / t for _, m, t in checks if t > 0 and np.isfinite(m)]
    return {
        "index": index,
        "kind": op.kind,
        "t": elapsed,
        "checks": checks,
        "counts": counts,
        "misses": misses,
        "worst_ratio": max(ratios, default=0.0),
    }


def run_loop(wl, ops, seconds=0.0, tracer=None, indices=None):
    """Closed loop, one client: the next op starts when the previous returns.

    Runs the given op indices, or else whole rounds of ops in order, so every
    slot of the round is equally represented.  Another round starts while it
    would end nearer to `seconds` than stopping now does, judged by the mean
    round so far: a run measures `seconds` to within half a round.
    """
    if indices is not None:
        return [run_op(wl, ops[i % len(ops)], i, tracer) for i in indices]
    records = []
    t0 = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - t0) * (1 + 0.5 / rounds) < seconds:
        for _ in range(wl.round_len):
            i = len(records)
            records.append(run_op(wl, ops[i % len(ops)], i, tracer))
        rounds += 1
    return records


def accuracy(records):
    best = {}
    for rec in records:
        for name, measured, _ in rec["checks"]:
            if name in ("roundtrip", "parseval", "phi"):
                best[name] = max(best.get(name, 0.0), measured)
    failed = sum(1 for r in records if r["misses"])
    return {
        "roundtrip_err_max": best.get("roundtrip", 0.0),
        "parseval_defect_max": best.get("parseval", 0.0),
        "phi_err_max": best.get("phi", 0.0),
        "fail_frac": failed / max(len(records), 1),
    }


def environment():
    aff = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count())
    import scipy

    return {
        "nproc": len(aff),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "numba_present": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def per_layer(tracer, records, setup_stats):
    ids = {r["index"] for r in records}
    n = max(len(records), 1)
    stats = tracer.summary(ids)
    get = lambda name, key: stats.get(name, {}).get(key, 0)
    m = {}
    for fn in CALL_SELF:
        m[f"{fn}.calls"] = (get(fn, "calls") / n, "count/op")
        m[f"{fn}.self_s"] = (get(fn, "self_s") / n, "s/op")
    m["rayleigh.eval_radial.points"] = (get("rayleigh.eval_radial", "size") / n, "count/op")
    m["quadrature.panel_rule.calls"] = (get("quadrature.panel_rule", "calls") / n, "count/op")
    m["quadrature.panel_rule.nodes"] = (get("quadrature.panel_rule", "size") / n, "count/op")
    m["resolvent.apply_resolvent.output_points"] = (
        get("resolvent.apply_resolvent", "size") / n, "count/op")
    fwd = [(lam, r) for op, lam, r in forward_grids(tracer) if op in ids]
    m["transform.forward.lam_nodes"] = (sum(lam for lam, _ in fwd) / n, "count/op")
    m["transform.forward.r_nodes"] = (sum(r for _, r in fwd) / n, "count/op")
    m["transform.forward.node_pairs"] = (sum(lam * r for lam, r in fwd) / n, "count/op")
    m["transform.inverse.node_pairs"] = (get("transform.inverse", "size") / n, "count/op")
    for suite in SUITES:
        m[f"verify.suite.{suite}.s"] = (get(f"verify.suite_{suite}", "total_s") / n, "s/op")
    dtf = setup_stats.get("transform.domain_test_function", {}).get("self_s", 0.0)
    m["transform.domain_test_function.self_s"] = (dtf, "s")
    return m


def forward_grids(tracer):
    """(op, lambda nodes, r nodes) of every traced forward transform."""
    return tracer.pairs("transform.forward", "transform.radial_rule")


def dense_basis(tracer, ids):
    """nlambda * nr * 16 B of the first forward transform of each op."""
    out = {}
    for op, lam, r in forward_grids(tracer):
        if op in ids and op not in out:
            out[op] = {"lam_nodes": lam, "r_nodes": r, "dense_basis_bytes": 16 * lam * r}
    return out


def failures(records, ops):
    out = []
    for rec in records:
        for miss in rec["misses"]:
            out.append({"op": rec["index"], "input": describe(ops[rec["index"] % len(ops)]),
                        **miss})
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = W.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = wl.generate(np.random.default_rng(args.seed), wl.rounds)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_stats = {}
    if tracer is not None:
        setup_stats = tracer.summary({-1})
        tracer.uninstall()
    wl.warmup(ops)

    out = {"setup_s": setup_s, "env": environment()}
    if tracer is None:
        records = run_loop(wl, ops, args.seconds)
    else:
        # A fixed prefix of the ops, untraced and then again traced: the ratio
        # of the two times is the tracing overhead, and the spans of the second
        # pass give the per-layer view of the same work on every commit.
        prefix = range(wl.trace_ops)
        plain = run_loop(wl, ops, indices=prefix)
        tracer.install()
        records = run_loop(wl, ops, tracer=tracer, indices=prefix)
        tracer.uninstall()
        t_plain = sum(r["t"] for r in plain)
        t_traced = sum(r["t"] for r in records)
        layer = per_layer(tracer, records, setup_stats)
        layer["trace.overhead_frac"] = (t_traced / t_plain - 1.0, "ratio")
        out["per_layer"] = layer
        out["dense_basis"] = dense_basis(tracer, set(prefix))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(path)
        out["trace_file"] = str(path)

    out["timing"] = timing_metrics([r["t"] for r in records], wl.tail_pct)
    out["rounds"] = len(records) // wl.round_len
    out["attempted"] = len(records)
    out["failed"] = sum(1 for r in records if r["misses"])
    out["unexplained"] = sum(
        1 for r in records for m in r["misses"] if m["cause"] is None)
    out["accuracy"] = accuracy(records)
    out["accuracy_worst_ratio"] = max(r["worst_ratio"] for r in records)
    out["failures"] = failures(records, ops)
    out["op_times"] = [[r["index"], r["kind"], r["t"]] for r in records]
    out["lam_nodes"] = [r["counts"].get("lam_nodes") for r in records
                        if "lam_nodes" in r["counts"]]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
