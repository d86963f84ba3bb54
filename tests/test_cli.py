import json

import numpy as np
import pytest

from radialspec import resolvent
from radialspec.cli import main, read_csv_function


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eigfun_csv_stdout(capsys):
    code, out, _ = run(
        capsys,
        "eigfun", "--l", "1", "--xi", "1", "--kappa", "0.5",
        "--lambda", "1.0", "--n-points", "5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,u"
    assert len(lines) == 6


def test_eigfun_csv_json_equivalent(capsys):
    args = ("eigfun", "--l", "2", "--xi", "2", "--kappa", "-1.0",
            "--lambda", "0.7", "--n-points", "4")
    _, out_csv, _ = run(capsys, *args, "--format", "csv")
    _, out_json, _ = run(capsys, *args, "--format", "json")
    rows = json.loads(out_json)
    csv_rows = [line.split(",") for line in out_csv.strip().split("\n")[1:]]
    for row, crow in zip(rows, csv_rows):
        assert row["r"] == float(crow[0])
        assert row["u"] == float(crow[1])


def test_eigfun_deterministic(capsys):
    args = ("eigfun", "--l", "1", "--xi", "2", "--kappa", "1.5", "--lambda", "2.0")
    _, a, _ = run(capsys, *args)
    _, b, _ = run(capsys, *args)
    assert a == b


def test_invalid_spec_exit_code(capsys):
    code, _, err = run(capsys, "eigfun", "--l", "3", "--xi", "1",
                       "--kappa", "0", "--lambda", "1.0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ("eigfun", "spectrum"))
def test_nan_kappa_exit_code(capsys, command):
    extra = ("--lambda", "1") if command == "eigfun" else ()
    code, out, err = run(capsys, command, "--l", "1", "--xi", "1", "--kappa", "nan", *extra)
    assert code == 2
    assert "error" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    (
        ("eigfun", "--lambda", "1"),
        ("resolvent", "--z-re", "0.9", "--z-im", "0.4"),
        ("spectrum",),
    ),
)
def test_nonpositive_n_points_exit_code(capsys, argv):
    code, out, err = run(
        capsys, argv[0], "--l", "1", "--xi", "2", "--kappa", "-1", *argv[1:], "--n-points", "-1"
    )
    assert code == 2
    assert "--n-points" in err and out == ""


@pytest.mark.parametrize("value", ("nan", "inf"))
def test_nonfinite_lambda_exit_code(capsys, value):
    code, out, err = run(
        capsys, "eigfun", "--l", "1", "--xi", "1", "--kappa", "0.5", "--lambda", value
    )
    assert code == 2
    assert "lambda must be finite" in err and out == ""


@pytest.mark.parametrize("flag", ("--r-min", "--r-max"))
def test_nonfinite_r_bound_exit_code(capsys, flag):
    code, out, err = run(
        capsys, "eigfun", "--l", "1", "--xi", "1", "--kappa", "0.5", "--lambda", "1", flag, "nan"
    )
    assert code == 2
    assert "must be finite" in err and out == ""


@pytest.mark.parametrize("column", (0, 1))
def test_transform_nonfinite_input_exit_code(capsys, tmp_path, column):
    rows = [[0.5, 1.0], [1.0, 2.0], [1.5, 1.0]]
    rows[1][column] = float("nan")
    path = tmp_path / "f.csv"
    path.write_text("r,f\n" + "\n".join(f"{a},{b}" for a, b in rows) + "\n")
    code, out, err = run(
        capsys, "transform", "--l", "1", "--xi", "1", "--kappa", "0.0", "--input", str(path)
    )
    assert code == 2
    assert "must be finite" in err and out == ""


def test_pole_exit_code(capsys):
    zp = (2.0 / 3.0) * np.exp(1j * np.pi / 6)
    code, _, err = run(
        capsys,
        "resolvent", "--l", "1", "--xi", "1", "--kappa", "-1.0",
        "--z-re", str(zp.real), "--z-im", str(zp.imag), "--n-points", "3",
    )
    assert code == 4
    assert "pole" in err


def test_sector_violation_exit_code(capsys):
    code, _, _ = run(
        capsys,
        "resolvent", "--l", "1", "--xi", "1", "--kappa", "0.0",
        "--z-re", "1.0", "--z-im", "0.0", "--n-points", "3",
    )
    assert code == 2


def test_resolvent_split_columns(capsys):
    code, out, _ = run(
        capsys,
        "resolvent", "--l", "2", "--xi", "1", "--kappa", "0.3",
        "--z-re", "0.9", "--z-im", "0.4", "--n-points", "2", "--split",
    )
    assert code == 0
    header = out.strip().split("\n")[0].split(",")
    assert header[:4] == ["r", "s", "re_R", "im_R"]
    assert "re_Rg" in header and "im_R2" in header


def test_resolvent_rows_match_scalar_kernel(capsys, monkeypatch):
    from radialspec import cli, kernel, make_extension_spec

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(cli, "kernel", counted)
    code, out, _ = run(
        capsys,
        "resolvent", "--l", "2", "--xi", "1", "--kappa", "0.3",
        "--z-re", "0.9", "--z-im", "0.4", "--n-points", "5", "--split",
    )
    assert code == 0
    assert len(calls) == 1
    spec = make_extension_spec(2, 1, 0.3)
    grid = np.linspace(0.1, 5.0, 5)
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 25
    for row, (r, s) in zip(rows, ((r, s) for r in grid for s in grid)):
        kv = kernel(spec, complex(0.9, 0.4), float(r), float(s))
        want = [r, s]
        for part in (kv.total, kv.R0, kv.R1, kv.R2, kv.Rg):
            want.extend((part.real, part.imag))
        assert [float(v) for v in row] == want


def test_verify_only_wronskian(capsys):
    code, out, _ = run(capsys, "verify", "--only", "wronskian")
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l]
    assert all(l.startswith("PASS [wronskian]") for l in lines)


def test_verify_format_json_on_stdout(capsys):
    code, out, _ = run(capsys, "verify", "--only", "wronskian", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows and all(r["suite"] == "wronskian" and r["passed"] for r in rows)


def test_verify_format_csv_on_stdout(capsys):
    code, out, _ = run(capsys, "verify", "--only", "wronskian", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "suite,name,passed,measured,threshold,detail"
    assert len(lines) > 1 and all(l.startswith("wronskian,") for l in lines[1:])


def test_verify_output_file_keeps_text_on_stdout(capsys, tmp_path):
    path = tmp_path / "v.json"
    code, out, _ = run(
        capsys, "verify", "--only", "wronskian", "--format", "json", "--output", str(path)
    )
    assert code == 0
    assert out.startswith("PASS [wronskian]")
    assert len(json.loads(path.read_text())) == len(out.strip().split("\n"))


def test_verify_injected_error_detected(capsys):
    # flip the sign of the (xi, l) = (1, 1), k = 2 alpha coefficient
    resolvent.set_coefficient_injection(((1, 1), 2, "alpha"))
    try:
        code, out, _ = run(capsys, "verify", "--only", "coefficients")
    finally:
        resolvent.set_coefficient_injection(None)
    assert code == 1
    assert "FAIL" in out
    # and with the table restored the suite passes again
    code, _, _ = run(capsys, "verify", "--only", "coefficients")
    assert code == 0


def test_spectrum_with_bound_state(capsys):
    code, out, err = run(
        capsys, "spectrum", "--l", "1", "--xi", "2", "--kappa", "-1.0",
        "--n-points", "3",
    )
    assert code == 0
    assert "z_p = " in err and "energy = -64" in err
    norm = float(err.split("norm = ")[1].split("\n")[0])
    assert abs(norm - 1.0) < 1e-6
    assert out.split("\n")[0] == "r,v" and len(out.strip().split("\n")) == 4


def test_spectrum_json_stdout(capsys):
    code, out, err = run(
        capsys, "spectrum", "--l", "2", "--xi", "2", "--kappa", "-1.0",
        "--n-points", "3", "--format", "json",
    )
    assert code == 0
    assert len(json.loads(out)) == 3 and "energy = " in err


def test_spectrum_without_bound_state(capsys):
    code, out, err = run(
        capsys, "spectrum", "--l", "1", "--xi", "1", "--kappa", "2.0",
        "--n-points", "3",
    )
    assert code == 0
    assert "no bound state" in err
    assert out == "r,v\n"


def test_transform_roundtrip_builtin(capsys):
    code, out, err = run(
        capsys,
        "transform", "--l", "1", "--xi", "1", "--kappa", "0.7",
        "--mode", "roundtrip", "--output", "/dev/null",
    )
    assert code == 0 and out == ""
    err_line = [l for l in err.split("\n") if "roundtrip" in l][0]
    assert float(err_line.split("=")[1]) < 1e-3
    defect_line = [l for l in err.split("\n") if "parseval" in l][0]
    assert float(defect_line.split("=")[1]) < 1e-3


def test_transform_roundtrip_projects_once(capsys, monkeypatch):
    from radialspec import domain_test_function, make_extension_spec, parseval_check, transform

    calls = []
    project = transform._project

    def counted(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(transform, "_project", counted)
    code, _, err = run(
        capsys,
        "transform", "--l", "2", "--xi", "2", "--kappa", "-1.0",
        "--mode", "roundtrip", "--output", "/dev/null",
    )
    assert code == 0
    assert len(calls) == 1
    spec = make_extension_spec(2, 2, -1.0)
    f = domain_test_function(spec, 0)
    coeffs, defect = transform._forward_with_defect(spec, f)
    assert defect == parseval_check(spec, f)
    assert f"parseval defect = {defect:.3e}" in err
    ref = transform.forward(spec, f)
    assert np.array_equal(coeffs.c, ref.c) and coeffs.c_discrete == ref.c_discrete


def test_transform_forward_json_stdout(capsys):
    # the bound state's coefficient is a diagnostic on stderr, so stdout
    # holds the JSON array alone
    code, out, err = run(
        capsys,
        "transform", "--l", "1", "--xi", "2", "--kappa", "-1",
        "--mode", "forward", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows and set(rows[0]) == {"lambda", "c"}
    assert err.startswith("c_discrete = ")


def test_transform_csv_input_roundtrip(tmp_path, capsys):
    # write an eigfun-like CSV, read it back through the transform front end
    g = np.linspace(0.1, 12.0, 120)
    v = np.exp(-g) * g**2
    path = tmp_path / "f.csv"
    path.write_text("r,f\n" + "\n".join(f"{a},{b}" for a, b in zip(g, v)) + "\n")
    f = read_csv_function(str(path))
    assert np.allclose(f.values, v)
    code, _, _ = run(
        capsys,
        "transform", "--l", "1", "--xi", "1", "--kappa", "0.0",
        "--mode", "forward", "--input", str(path), "--output", "/dev/null",
    )
    assert code == 0


def test_transform_bad_input_file(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("r,f\n")
    code, _, err = run(
        capsys,
        "transform", "--l", "1", "--xi", "1", "--kappa", "0.0",
        "--input", str(bad),
    )
    assert code == 2
    assert "error" in err


def test_transform_sqrt_negative_spectrum_exit(capsys):
    code, _, err = run(
        capsys,
        "transform", "--l", "1", "--xi", "1", "--kappa", "-1.0",
        "--mode", "phi", "--phi", "sqrt", "--output", "/dev/null",
    )
    assert code == 5


def test_output_file_write(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, _, _ = run(
        capsys,
        "eigfun", "--l", "1", "--xi", "1", "--kappa", "0.5",
        "--lambda", "1.0", "--n-points", "4", "--output", str(path),
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("r,u\n")
    assert text.endswith("\n") and "\r" not in text
