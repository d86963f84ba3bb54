"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts src/ on the path and imports radialspec)
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

import radialspec as rs  # noqa: E402
from radialspec import resolvent as rs_resolvent  # noqa: E402


def _first_kernel_op(seed=5):
    wl = W.WORKLOADS["resolvent"]
    ops = wl.generate(np.random.default_rng(seed), 1)
    return wl, next(op for op in ops if op.kind == "kernel")


def test_injected_sign_flip_is_a_counted_failure():
    wl, op = _first_kernel_op()
    spec = op.spec
    clean = worker.run_op(wl, op, 0)
    assert clean["misses"] == []
    rs_resolvent.set_coefficient_injection(((spec.xi, spec.l), 0, "alpha"))
    try:
        broken = worker.run_op(wl, op, 1)
    finally:
        rs_resolvent.set_coefficient_injection(None)
    checks = {m["check"] for m in broken["misses"]}
    assert "coefficient_table" in checks
    assert all(m["cause"] is None for m in broken["misses"])  # unexplained: correct=false
    assert worker.run_op(wl, op, 2)["misses"] == []


def test_tail_is_the_nearest_rank_percentile():
    times = list(range(40, 0, -1))
    assert worker.tail(times, 75.0) == (30, 10)
    assert worker.tail([3.0, 1.0, 2.0], 100.0) == (3.0, 0)


def test_tracer_records_nested_spans_and_restores_functions():
    original = rs.kernel
    spec = rs.make_extension_spec(1, 1, 0.7)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        rs.kernel(spec, 0.9 * np.exp(0.4j), 0.7, 1.9)
        tracer.op = -1
    finally:
        tracer.uninstall()
    assert rs.kernel is original
    stats = tracer.summary({0})
    assert stats["resolvent.kernel"]["calls"] == 1
    assert stats["resolvent.coefficients_closed_form"]["calls"] == 1
    k = stats["resolvent.kernel"]
    assert 0.0 <= k["self_s"] <= k["total_s"]
    names = [tracer.names[s[0]] for s in tracer.spans]
    child = names.index("resolvent.coefficients_closed_form")
    assert names[tracer.spans[child][3]] == "resolvent.kernel"


def test_known_defect_causes_are_specific():
    wl = W.WORKLOADS["transform"]
    op = W.Op("roundtrip", rs.make_extension_spec(1, 1, 0.5), {"base_rate": 0.6})
    assert wl.miss_cause(op, "roundtrip", 1e-3) is None
    op.params["base_rate"] = 3.0
    assert "lambda_max=8" in wl.miss_cause(op, "roundtrip", 1e-3)
    assert wl.miss_cause(op, "roundtrip", 0.5) is None  # a wrong result, not a cutoff


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generation_is_seeded(name):
    wl = W.WORKLOADS[name]
    a = [worker.describe(op) for op in wl.generate(np.random.default_rng(7), 2)]
    b = [worker.describe(op) for op in wl.generate(np.random.default_rng(7), 2)]
    c = [worker.describe(op) for op in wl.generate(np.random.default_rng(8), 2)]
    assert a == b
    assert a != c
