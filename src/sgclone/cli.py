"""Command-line front end: closed-form values, tables and verification suites.

Exit codes: 0 when everything passed, 1 when a verification check failed,
2 on usage errors (including copy counts with M < N).  Data goes to stdout,
diagnostics to stderr.  The literal token ``inf`` selects an unbounded
output count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .cloner import (
    UNBOUNDED,
    cascade,
    optimal_cloner,
    optimal_fidelity,
    optimal_noise_variance,
    squeezed_variant,
)
from .errors import DomainError, SGCloneError
from .quadrature_core import _check_int

if TYPE_CHECKING:
    from .verify import VerificationReport

FORMATS = ("text", "csv", "json")


def _count_token(text: str):
    if text == "inf":
        return UNBOUNDED
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {text!r}")


def _count_str(m) -> str:
    return "inf" if m is UNBOUNDED else str(m)


def _dec(value, digits: int = 12) -> str:
    return format(float(value), f".{digits}g")


def _with_exact(value) -> str:
    text = _dec(value, 6)
    if isinstance(value, Fraction) and value.denominator != 1:
        text += f" (= {value})"
    return text


def _csv_lines(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def emit_table(n_max: int, m_max: int, fmt: str = "csv") -> str:
    """Variance/fidelity grid over all pairs N <= M, one row per pair."""
    _check_int("n_max", n_max, 1)
    _check_int("m_max", m_max, n_max)
    if fmt not in FORMATS:
        raise DomainError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    rows = []
    for n in range(1, n_max + 1):
        for m in range(n, m_max + 1):
            rows.append(
                (n, m, float(optimal_noise_variance(n, m).var_x), float(optimal_fidelity(n, m)))
            )
    if fmt == "json":
        return json.dumps(
            {"rows": [{"n": n, "m": m, "variance": v, "fidelity": f} for n, m, v, f in rows]},
            indent=2,
        )
    if fmt == "csv":
        return _csv_lines(
            ["n", "m", "variance", "fidelity"],
            [[n, m, _dec(v), _dec(f)] for n, m, v, f in rows],
        )
    lines = [f"{'n':>4} {'m':>4} {'variance':>16} {'fidelity':>16}"]
    lines += [f"{n:>4} {m:>4} {_dec(v):>16} {_dec(f):>16}" for n, m, v, f in rows]
    return "\n".join(lines)


def _emit_value(args: argparse.Namespace, fields: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(fields, indent=2))
    elif args.format == "csv":
        print(_csv_lines(list(fields), [[fields[k] for k in fields]]), end="")
    else:
        print(text)


def _run_fidelity(args: argparse.Namespace) -> int:
    value = optimal_fidelity(args.n, args.m).value
    _emit_value(
        args,
        {"n": args.n, "m": _count_str(args.m), "fidelity": float(value)},
        _with_exact(value),
    )
    return 0


def _run_variance(args: argparse.Namespace) -> int:
    if args.r != 0:
        noise = squeezed_variant(args.n, args.m, args.r).noise
        _emit_value(
            args,
            {
                "n": args.n,
                "m": _count_str(args.m),
                "r": args.r,
                "var_x": float(noise.var_x),
                "var_p": float(noise.var_p),
            },
            f"var_x {_dec(noise.var_x, 6)}, var_p {_dec(noise.var_p, 6)}",
        )
        return 0
    value = optimal_noise_variance(args.n, args.m).var_x
    _emit_value(
        args,
        {"n": args.n, "m": _count_str(args.m), "variance": float(value)},
        _with_exact(value),
    )
    return 0


def _run_cascade(args: argparse.Namespace) -> int:
    composed = cascade(optimal_cloner(args.n, args.m), optimal_cloner(args.m, args.l))
    optimal = optimal_noise_variance(args.n, args.l)
    match = composed.noise == optimal
    _emit_value(
        args,
        {
            "n": args.n,
            "m": _count_str(args.m),
            "l": args.l,
            "composed": float(composed.noise.var_x),
            "optimal": float(optimal.var_x),
            "match": match,
        },
        f"composed {_with_exact(composed.noise.var_x)}, "
        f"optimal {_with_exact(optimal.var_x)}, match={'true' if match else 'false'}",
    )
    return 0


def _print_report(report: VerificationReport, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.as_dict(), indent=2))
    elif fmt == "csv":
        rows = [
            [c.name, _dec(c.expected), _dec(c.observed), _dec(c.tolerance),
             "true" if c.passed else "false"]
            for c in report.checks
        ]
        print(_csv_lines(["name", "expected", "observed", "tolerance", "pass"], rows), end="")
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(
                f"{status}  {c.name}: expected={_dec(c.expected)}, "
                f"observed={_dec(c.observed)}, tol={_dec(c.tolerance)}"
            )
        passed = sum(c.passed for c in report.checks)
        print(f"overall: {'PASS' if report.overall else 'FAIL'} ({passed}/{len(report.checks)})")
    return 0 if report.overall else 1


def _run_table(args: argparse.Namespace) -> int:
    rendered = emit_table(args.n_max, args.m_max, args.format)
    sys.stdout.write(rendered if rendered.endswith("\n") else rendered + "\n")
    return 0


# The suite gets exactly the options given, so each default lives in its
# signature; verify is imported here, so closed-form commands never load numpy.
def _run_verify(args: argparse.Namespace) -> int:
    from . import verify

    options = {k: v for k, v in vars(args).items() if k not in ("command", "format", "handler")}
    suite = getattr(verify, args.command.replace("-", "_"))
    return _print_report(suite(**options), args.format)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgclone",
        description="Optimal symmetric Gaussian cloning of coherent states: "
        "closed forms, tables and verification suites.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", parents=[common], help="optimal N->M cloning fidelity")
    p.set_defaults(handler=_run_fidelity)
    p.add_argument("n", type=int)
    p.add_argument("m", type=_count_token)

    p = sub.add_parser("variance", parents=[common], help="optimal N->M cloning noise variance")
    p.set_defaults(handler=_run_variance)
    p.add_argument("n", type=int)
    p.add_argument("m", type=_count_token)
    p.add_argument("--r", type=float, default=0.0,
                   help="squeezing parameter; nonzero prints the anisotropic pair")

    p = sub.add_parser("cascade", parents=[common],
                       help="compose optimal N->M and M->L cloners, compare to optimal N->L")
    p.set_defaults(handler=_run_cascade)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("l", type=int)

    p = sub.add_parser("table", parents=[common], help="variance/fidelity grid over N <= M")
    p.set_defaults(handler=_run_table)
    p.add_argument("n_max", type=int)
    p.add_argument("m_max", type=int)

    p = sub.add_parser("verify-bounds", parents=[common], argument_default=argparse.SUPPRESS,
                       help="exact identities of the closed-form and bound layers")
    p.set_defaults(handler=_run_verify)

    p = sub.add_parser("verify-fock", parents=[common], argument_default=argparse.SUPPRESS,
                       help="truncated-Fock oracle against the closed forms")
    p.set_defaults(handler=_run_verify)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--nodes", type=int)
    p.add_argument("--cutoff", type=int)

    p = sub.add_parser("verify-mc", parents=[common], argument_default=argparse.SUPPRESS,
                       help="seeded Monte Carlo measurement checks")
    p.set_defaults(handler=_run_verify)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SGCloneError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
