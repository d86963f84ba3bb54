"""Benchmark of radialspec: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload transform --seed 1 --seconds 35 --trace 0

Run from the repository root.  Each run starts the workload in a fresh Python
process (worker.py) and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they
are the per-layer ones, from a fixed prefix of the ops run untraced and then
again traced.  The line
before it is a report: the environment, sample counts, the tail percentile
and every failed check with its cause.  Reports and span files are also
written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("transform", "resolvent", "verify")
SETUP_PROBES = 4  # extra fresh interpreters; the workload process is one more
IMPORT_SAMPLES = 3
CHILD_TIMEOUT = 150.0
IMPORTS = {
    "import.radialspec_s": "radialspec",
    "import.scipy_interpolate_s": "scipy.interpolate",
    "import.scipy_linalg_s": "scipy.linalg",
}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """One BLAS thread (at most nproc) and a fixed hash seed: one client in one
    process, so the scheduler of a small shared host is not what is measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def run_child(argv, env) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} did not finish in {CHILD_TIMEOUT:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def run_worker(args, env, extra=()) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    lines = run_child(argv, env).stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def import_times(env) -> dict:
    """Cumulative import time of a few modules, median of fresh `-X importtime` runs."""
    samples = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_SAMPLES):
        err = run_child([sys.executable, "-X", "importtime", "-c", "import radialspec"], env).stderr
        found = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                try:
                    found[parts[2].strip()] = int(parts[1]) * 1e-6
                except ValueError:
                    continue
        for name, module in IMPORTS.items():
            samples[name].append(found.get(module, 0.0))
    return {name: statistics.median(vals) for name, vals in samples.items()}


def cache_sizes() -> dict:
    out = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            out[level.lower()] = int(proc.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            out[level.lower()] = None
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "radialspec" / "__init__.py").is_file():
        print(f"error: no radialspec package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    try:
        if args.trace:
            imports = import_times(env)
            setup = []
        else:
            setup = [run_worker(args, env, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
        res = run_worker(args, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    timing = res["timing"]
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["per_layer"].items()}
        for name, value in imports.items():
            metrics[name] = {"value": value, "unit": "s"}
        for name, value in res["accuracy"].items():
            metrics[name] = {"value": value, "unit": "ratio"}
    else:
        setup.append(res["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": timing["ops_per_s"], "unit": "1/s"},
            "op_s_p50": {"value": timing["op_s_p50"], "unit": "s"},
            "op_s_tail": {"value": timing["op_s_tail"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "accuracy_worst_ratio": {"value": res["accuracy_worst_ratio"], "unit": "ratio"},
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {**res["env"], **cache_sizes()},
        "setup_s_samples": setup,
        "timing": timing,
        "rounds": res["rounds"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "unexplained_misses": res["unexplained"],
        "accuracy": res["accuracy"],
        "accuracy_worst_ratio": res["accuracy_worst_ratio"],
        "op_times": res["op_times"],
        "lam_nodes_per_op": res["lam_nodes"],
        "dense_basis": res.get("dense_basis"),
        "trace_file": res.get("trace_file"),
        "failures": res["failures"],
    }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": res["unexplained"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
