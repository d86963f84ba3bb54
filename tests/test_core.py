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
    assert np.isclose(s.amplitude_sum, 6.0)


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
