"""Command-line front end.

Subcommands: eigfun, resolvent, verify, transform, spectrum.  Data goes to
CSV (header row, 17 significant digits, LF) or JSON (array of flat row
objects); diagnostics go to stderr.  verify prints PASS/FAIL lines unless
--format asks for CSV or JSON on stdout, and each suite's wall time to
stderr as it finishes.  Exit codes: 0 success, 1 verification
failure, 2 invalid specification or input, 3 output I/O failure, 4 resolvent
pole, 5 quadrature or function-domain failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .core import make_extension_spec
from .errors import (
    FunctionDomainError,
    InvalidInput,
    PoleError,
    QuadratureFailure,
    RadialSpecError,
)
from .quadrature import quad_semiaxis
from .rayleigh import eval_radial
from .resolvent import kernel, validate_sector
from .spectrum import bound_state, continuous_eigenfunction
from .transform import (
    SampledFunction,
    apply_function,
    domain_test_function,
    forward,
    inverse,
)
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_POLE = 4
EXIT_QUADRATURE = 5


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_rows(path: str, fmt: str, header, rows):
    """Emit rows to path ('-' for stdout) as CSV or JSON."""
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            [dict(zip(header, (float(v) for v in row))) for row in rows], indent=None
        ) + "\n"
    _emit(path, text)


def _emit(path: str, text: str):
    """Write text to path, '-' for stdout."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def read_csv_function(path: str) -> SampledFunction:
    rows = []
    with open(path) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                # the first line is a header unless its first two fields are
                # both numbers, so a row such as 'nan,1' stays data
                if i > 0:
                    raise
    if len(rows) < 2:
        raise ValueError("need at least two data rows")
    g = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    return SampledFunction(g, v)


def _spec_from_args(args):
    return make_extension_spec(args.l, args.xi, args.kappa)


def _r_grid(args):
    if args.n_points < 1:
        raise InvalidInput("--n-points must be at least 1")
    if not (np.isfinite(args.r_min) and np.isfinite(args.r_max)):
        raise InvalidInput("--r-min and --r-max must be finite")
    return np.linspace(args.r_min, args.r_max, args.n_points)


def _add_spec_args(p):
    p.add_argument("--l", type=int, required=True, help="angular momentum (1 or 2)")
    p.add_argument("--xi", type=int, required=True, help="boundary family (1 or 2)")
    p.add_argument(
        "--kappa", required=True, help="extension parameter (real number or 'inf')"
    )


def _add_output_args(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")


def cmd_eigfun(args) -> int:
    spec = _spec_from_args(args)
    r = _r_grid(args)
    e = continuous_eigenfunction(spec, args.lam)
    u = np.real(eval_radial(e.u, r))
    write_rows(args.output, args.format, ("r", "u"), zip(r, u))
    return EXIT_OK


def cmd_resolvent(args) -> int:
    spec = _spec_from_args(args)
    z = complex(args.z_re, args.z_im)
    validate_sector(z, allow_boundary=False)
    r = _r_grid(args)
    header = ["r", "s", "re_R", "im_R"]
    if args.split:
        for part in ("R0", "R1", "R2", "Rg"):
            header.extend((f"re_{part}", f"im_{part}"))
    rr, ss = np.meshgrid(r, r, indexing="ij")
    kv = kernel(spec, z, rr, ss)
    parts = (kv.total, kv.R0, kv.R1, kv.R2, kv.Rg) if args.split else (kv.total,)
    cols = [rr, ss]
    for part in parts:
        cols.extend((part.real, part.imag))
    write_rows(args.output, args.format, header, zip(*(c.ravel() for c in cols)))
    return EXIT_OK


def _format_results(fmt: str, results) -> str:
    """Verify results as PASS/FAIL lines (fmt "text"), CSV or JSON."""
    if fmt == "text":
        lines = []
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            line = f"{status} [{res.suite}] {res.name}: {res.measured:.3e} <= {res.threshold:.1e}"
            if res.detail:
                line += f"  ({res.detail})"
            lines.append(line + "\n")
        return "".join(lines)
    if fmt == "csv":
        lines = [",".join(("suite", "name", "passed", "measured", "threshold", "detail"))]
        for r in results:
            detail = r.detail.replace(",", ";")
            lines.append(
                f"{r.suite},{r.name.replace(',', ';')},{int(r.passed)},{_fmt(r.measured)},{_fmt(r.threshold)},{detail}"
            )
        return "\n".join(lines) + "\n"
    return json.dumps([r.__dict__ for r in results]) + "\n"


def cmd_verify(args) -> int:
    names = args.only.split(",") if args.only else list(SUITES)
    results = []
    for name in names:
        start = time.perf_counter()
        results.extend(run_suites([name], seed=args.seed))
        print(f"time [{name}] {time.perf_counter() - start:.3f} s", file=sys.stderr)
    if args.output == "-":
        _emit("-", _format_results(args.format or "text", results))
    else:
        sys.stdout.write(_format_results("text", results))
        _emit(args.output, _format_results(args.format or "csv", results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def cmd_transform(args) -> int:
    spec = _spec_from_args(args)
    if args.input:
        try:
            f = read_csv_function(args.input)
        except (OSError, ValueError, IndexError) as exc:
            print(f"error: cannot parse {args.input}: {exc}", file=sys.stderr)
            return EXIT_INVALID
    else:
        f = domain_test_function(spec, args.builtin)
    if args.mode == "forward":
        coeffs = forward(spec, f)
        rows = list(zip(coeffs.lam_grid, coeffs.c))
        write_rows(args.output, args.format, ("lambda", "c"), rows)
        if coeffs.c_discrete is not None:
            print(f"c_discrete = {_fmt(coeffs.c_discrete)}", file=sys.stderr)
    elif args.mode == "roundtrip":
        coeffs = forward(spec, f)
        if isinstance(f, SampledFunction):
            grid = f.grid
            ref = np.real(f.values)
        else:
            grid = np.linspace(0.05, 30.0, 500)
            ref = np.real(eval_radial(f, grid))
        rec = inverse(spec, coeffs, grid)
        err = np.linalg.norm(rec.values - ref) / max(np.linalg.norm(ref), 1e-300)
        write_rows(
            args.output,
            args.format,
            ("r", "f", "reconstruction"),
            zip(grid, ref, rec.values),
        )
        print(f"roundtrip relative l2 error = {err:.3e}", file=sys.stderr)
        print(f"parseval defect = {coeffs.parseval_defect:.3e}", file=sys.stderr)
    else:
        if args.phi == "identity":
            phi = lambda x: x
        elif args.phi == "sqrt":
            phi = np.sqrt
        else:
            z = complex(args.z_re, args.z_im)
            validate_sector(z)
            phi = lambda x: 1.0 / (x - z**6)
        out = apply_function(spec, phi, f)
        header, cols = ("r", "phi_T_f"), (out.values,)
        if np.iscomplexobj(out.values):
            header, cols = ("r", "re_phi_T_f", "im_phi_T_f"), (out.values.real, out.values.imag)
        write_rows(args.output, args.format, header, zip(out.grid, *cols))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    spec = _spec_from_args(args)
    r = _r_grid(args)
    b = bound_state(spec)
    if b is None:
        print("no bound state", file=sys.stderr)
        write_rows(args.output, args.format, ("r", "v"), [])
        return EXIT_OK
    decay = -2.0 * float(np.max(np.real(b.v.base.rates)))
    norm2 = quad_semiaxis(lambda r: np.abs(eval_radial(b.v, r)) ** 2, decay, 1e-11)
    print(f"z_p = {_fmt(b.z_p.real)} + {_fmt(b.z_p.imag)}i", file=sys.stderr)
    print(f"energy = {_fmt(b.energy)}", file=sys.stderr)
    print(f"norm = {np.sqrt(float(np.real(norm2))):.8f}", file=sys.stderr)
    v = np.real(eval_radial(b.v, r))
    write_rows(args.output, args.format, ("r", "v"), zip(r, v))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialspec",
        description="Spectral toolkit for self-adjoint extensions of the "
        "sixth-order radial operator on the semi-axis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigfun", help="sample a continuous-spectrum eigenfunction")
    _add_spec_args(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--r-min", type=float, default=0.01)
    p.add_argument("--r-max", type=float, default=10.0)
    p.add_argument("--n-points", type=int, default=200)
    _add_output_args(p)
    p.set_defaults(func=cmd_eigfun)

    p = sub.add_parser("resolvent", help="sample the resolvent kernel on a grid")
    _add_spec_args(p)
    p.add_argument("--z-re", type=float, required=True)
    p.add_argument("--z-im", type=float, required=True)
    p.add_argument("--r-min", type=float, default=0.1)
    p.add_argument("--r-max", type=float, default=5.0)
    p.add_argument("--n-points", type=int, default=20)
    p.add_argument("--split", action="store_true", help="emit the R0/R1/R2/Rg parts")
    _add_output_args(p)
    p.set_defaults(func=cmd_resolvent)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--only", help="comma-separated suite names (%s)" % ", ".join(SUITES))
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p)
    # without --format: PASS/FAIL lines on stdout, CSV with --output
    p.set_defaults(func=cmd_verify, format=None)

    p = sub.add_parser("transform", help="spectral transform and functional calculus")
    _add_spec_args(p)
    p.add_argument("--input", help="CSV file of r,f(r) samples")
    p.add_argument("--builtin", type=int, default=0, help="built-in test function index")
    p.add_argument("--mode", choices=("forward", "roundtrip", "phi"), default="roundtrip")
    p.add_argument("--phi", choices=("identity", "sqrt", "resolvent"), default="identity")
    p.add_argument("--z-re", type=float, default=0.5)
    p.add_argument("--z-im", type=float, default=0.5)
    _add_output_args(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("spectrum", help="bound-state data for the extension")
    _add_spec_args(p)
    p.add_argument("--r-min", type=float, default=0.01)
    p.add_argument("--r-max", type=float, default=10.0)
    p.add_argument("--n-points", type=int, default=100)
    _add_output_args(p)
    p.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PoleError as exc:
        print(f"error: {exc} (pole at {exc.pole})", file=sys.stderr)
        return EXIT_POLE
    except (QuadratureFailure, FunctionDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except RadialSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
