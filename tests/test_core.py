import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import radialspec
from radialspec import (
    ExponentialSum,
    InvalidInput,
    InvalidSpec,
    Jet6,
    Kappa,
    RadialFunction,
    check_regularity,
    make_extension_spec,
)


def test_make_extension_spec_valid():
    spec = make_extension_spec(1, 1, -1.0)
    assert spec.l == 1 and spec.xi == 1
    assert spec.kappa.value == -1.0
    assert spec.big_l == 2


def test_make_extension_spec_rejects_l3():
    with pytest.raises(InvalidSpec):
        make_extension_spec(3, 1, 0.0)


def test_make_extension_spec_rejects_bad_xi():
    with pytest.raises(InvalidSpec):
        make_extension_spec(1, 3, 0.0)


def test_kappa_inf_only_for_l2():
    spec = make_extension_spec(2, 2, "inf")
    assert spec.kappa.is_infinite
    assert make_extension_spec(2, 1, math.inf).kappa.is_infinite
    with pytest.raises(InvalidSpec):
        make_extension_spec(1, 1, "inf")


def test_kappa_zero_zero_rejected():
    with pytest.raises(InvalidSpec):
        Kappa(0.0, 0.0)


def test_kappa_nonfinite_pair_rejected():
    for num in (math.nan, math.inf):
        with pytest.raises(InvalidSpec):
            Kappa(num, 1.0)
    assert Kappa.of(math.inf) == Kappa(1.0, 0.0)
    assert Kappa.of("-inf") == Kappa(1.0, 0.0)


def test_kappa_of_rejects_a_non_number():
    for value in ("abc", "", None):
        with pytest.raises(InvalidSpec):
            Kappa.of(value)


def test_kappa_canonical_idempotent():
    k = Kappa(3.0, 2.0).canonical()
    assert k.den == 1.0 and k.num == 1.5
    assert k.canonical() == k
    assert Kappa(5.0, 0.0).canonical() == Kappa(1.0, 0.0)


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_kappa_of_roundtrip(x):
    assert Kappa.of(x).value == x
    assert Kappa.of(Kappa.of(x)) == Kappa.of(x).canonical()


def test_regularity_exact_cancellation():
    s = ExponentialSum([1.0, -1.0], [0.3, 0.7])
    assert check_regularity(s)


def test_regularity_single_term():
    assert not check_regularity(ExponentialSum([1.0], [0.3]))


def test_regularity_deficiency_amplitudes():
    a = [1.0, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3)]
    s = ExponentialSum(a, [1j, 2j, 3j])
    assert check_regularity(s)


def test_exponential_sum_merges_duplicates():
    s = ExponentialSum([1.0, 2.0, 3.0], [0.5, 0.5, 1.0])
    assert len(s) == 2
    assert np.isclose(np.sum(s.amplitudes), 6.0)


def test_exponential_sum_rejects_empty_and_mismatch():
    with pytest.raises(InvalidInput):
        ExponentialSum([], [])
    with pytest.raises(InvalidInput):
        ExponentialSum([1.0, 2.0], [0.5])


def test_radial_function_addition_and_scaling():
    f = RadialFunction(ExponentialSum([1.0], [-1.0]), 1, 2.0)
    g = RadialFunction(ExponentialSum([1.0], [-2.0]), 1)
    h = f + g
    assert len(h.base) == 2
    assert (3.0 * f).scale == 6.0
    with pytest.raises(InvalidInput):
        f + RadialFunction(ExponentialSum([1.0], [-1.0]), 2)


def test_jet6_validation():
    j = Jet6(np.arange(6.0))
    assert j[3] == 3.0
    assert j.magnitude == 5.0
    with pytest.raises(InvalidInput):
        Jet6(np.arange(5.0))
    with pytest.raises(InvalidInput):
        Jet6([0, 0, np.nan, 0, 0, 0])


def test_import_loads_no_package_beyond_numpy():
    # scipy is imported only inside the routines that need it, so startup stays cheap
    code = (
        "import sys, numpy; before = set(sys.modules); import radialspec; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'radialspec'}))"
    )
    src = str(Path(radialspec.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _multi_term_pair():
    spec = make_extension_spec(2, 1, 0.7)
    return radialspec.domain_test_function(spec), radialspec.domain_test_function(spec)


def test_multi_term_sums_compare_and_hash_by_value():
    f, g = _multi_term_pair()
    assert f.base is not g.base and len(f.base) > 1
    radialspec.eval_radial(f, [0.01, 3.0])
    assert "_setup" in f.__dict__ and "_setup" not in g.__dict__
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert f.base == g.base and hash(f.base) == hash(g.base)
    assert {f, g} == {f}
    other = ExponentialSum(f.base.amplitudes * 2.0, f.base.rates)
    assert f.base != other and RadialFunction(other, 2) != f
    assert f.base != "base" and f != (f.base, f.l, f.scale)
    # -0.0 equals 0.0, so it hashes the same
    neg = ExponentialSum([1.0, complex(-0.0, -0.0)], [-1.0, complex(-2.0, -0.0)])
    pos = ExponentialSum([1.0, 0.0], [-1.0, -2.0])
    assert neg.amplitudes[1].real.hex() == "-0x0.0p+0"
    assert neg == pos and hash(neg) == hash(pos)


@pytest.mark.parametrize("how", ["deepcopy", "copy", "pickle"])
def test_copy_and_pickle_rebuild_read_only_without_setup(how):
    import copy
    import pickle

    f, _ = _multi_term_pair()
    r = np.array([0.01, 0.5, 3.0])
    want = radialspec.eval_radial(f, r)
    assert "_setup" in f.__dict__
    if how == "pickle":
        g = pickle.loads(pickle.dumps(f))
    else:
        g = getattr(copy, how)(f)
    assert g == f and hash(g) == hash(f)
    assert not (g.base.rates.flags.writeable or g.base.amplitudes.flags.writeable)
    assert "_setup" not in g.__dict__ and "regular_at_origin" not in g.__dict__
    assert radialspec.eval_radial(g, r).tobytes() == want.tobytes()
    assert "_setup" in g.__dict__ and g.__dict__["_setup"] is not f.__dict__["_setup"]


def _records(zero):
    """One of each record under core's value rule, with zero (0.0 or -0.0)
    among its entries, each holding arrays of its own, and each with its
    derived state built where it has any."""
    base = ExponentialSum([1.0, complex(zero, zero)], [-1.0, complex(-2.0, zero)])
    f = RadialFunction(base, 2, complex(1.5, zero))
    radialspec.eval_radial(f, [0.01, 3.0])
    s = radialspec.SampledFunction(np.linspace(0.5, 2.0, 7), np.array([1, zero, 2, 3, 4, 5, 6]))
    s(1.2)
    return [
        base,
        f,
        Jet6([1.0, zero, 2.0, 3.0, 4.0, 5.0]),
        radialspec.OriginSeries(np.array([1.0, zero, 2j]), 2),
        radialspec.CoefficientSet(
            np.array([1.0, zero, 2.0]), np.ones(3), np.array([zero, 1j, 2.0]), 2.0 + 1j
        ),
        s,
    ]


def _array_fields(record):
    from dataclasses import fields

    values = [getattr(record, f.name) for f in fields(record)]
    return [v for v in values if isinstance(v, np.ndarray)]


def test_records_compare_and_hash_by_value():
    for neg, pos, again in zip(_records(-0.0), _records(0.0), _records(0.0)):
        assert pos == again and hash(pos) == hash(again) and {pos, again} == {pos}
        assert neg == pos and hash(neg) == hash(pos), type(pos).__name__
        assert pos != "record" and pos != _array_fields(pos)
    pos = _records(0.0)
    changed = [
        ExponentialSum([1.0, 0.5], [-1.0, -2.0]),
        pos[1].rescaled(2.0),
        Jet6(np.arange(6.0)),
        radialspec.OriginSeries(np.array([1.0, 0.0]), 1),
        radialspec.CoefficientSet(np.zeros(3), np.ones(3), np.zeros(3), 2.0 + 1j),
        radialspec.SampledFunction(pos[5].grid, pos[5].values + 1.0),
    ]
    for a, b in zip(pos, changed):
        assert a != b and type(a) is type(b)


@pytest.mark.parametrize("how", ["deepcopy", "copy", "pickle"])
def test_record_copies_are_rebuilt_read_only_without_derived_state(how):
    import copy
    import pickle
    from dataclasses import fields

    for record in _records(0.0):
        g = pickle.loads(pickle.dumps(record)) if how == "pickle" else getattr(copy, how)(record)
        name = type(record).__name__
        assert g == record and hash(g) == hash(record), name
        # only the fields: no _setup, regular_at_origin or _spline
        assert set(vars(g)) == {f.name for f in fields(g)}, name
        for a in _array_fields(g):
            assert not a.flags.writeable, name
    s = _records(0.0)[5]
    g = pickle.loads(pickle.dumps(s))
    assert np.array_equal(g([0.7, 1.9, 3.0]), s([0.7, 1.9, 3.0]))


def test_record_constructors_neither_freeze_nor_alias_their_input():
    from radialspec import CoefficientSet, OriginSeries

    d = np.arange(6.0) + 0j
    j = Jet6(d)
    assert d.flags.writeable and not np.shares_memory(d, j.d)
    d[0] = 9.0
    assert j[0] == 0.0
    c = np.array([1.0, 2.0, 3.0j])
    series, tables = OriginSeries(c, 2), CoefficientSet(c, c, c, 1.0)
    assert c.flags.writeable
    assert not any(np.shares_memory(c, a) for a in (series.coefficients, tables.alpha))
    # a read-only array that owns its data is kept, so copies share it
    assert OriginSeries(series.coefficients, 2).coefficients is series.coefficients
    # a read-only view is not: the array it views may still change
    view = np.arange(8.0)[::2]
    view.setflags(write=False)
    assert OriginSeries(view, 3).coefficients.base is None


@pytest.mark.parametrize("spline_first", [False, True])
def test_sampled_function_keeps_its_own_samples(spline_first):
    g, v = np.linspace(0.5, 2.0, 7), np.ones(7)
    s = radialspec.SampledFunction(g, v)
    want = s(1.0) if spline_first else 1.0
    assert g.flags.writeable and v.flags.writeable
    assert not (np.shares_memory(g, s.grid) or np.shares_memory(v, s.values))
    v[:] = 0.0
    g[:] = np.linspace(1.0, 4.0, 7)
    assert np.array_equal(s.values, np.ones(7)) and s.grid[0] == 0.5
    assert s(1.0) == pytest.approx(want, abs=1e-15)
    assert not (s.grid.flags.writeable or s.values.flags.writeable)


def test_value_rule_lives_in_core_alone():
    import re

    package = Path(radialspec.__file__).resolve().parent
    pattern = re.compile(r"setflags\(|def (__eq__|__hash__|__reduce__)\b")
    found = [
        f"{path.name}:{n}"
        for path in sorted(package.glob("*.py"))
        if path.name != "core.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == []
