"""Command-line front end: closed-form values, tables and verification suites.

Exit codes: 0 when everything passed, 1 when a verification check failed,
2 on usage errors (including copy counts with M < N).  Data goes to stdout,
diagnostics to stderr.  The literal token ``inf`` selects an unbounded
output count.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .cloner import (
    UNBOUNDED,
    cascade,
    optimal_cloner,
    optimal_fidelity,
    optimal_noise_variance,
    squeezed_variant,
)
from .errors import SGCloneError
from .quadrature_core import _check_int

FORMATS = ("text", "csv", "json")
#: Largest N_MAX and M_MAX of ``table``: one row per pair, so about 525,000 rows.
TABLE_LIMIT = 1024


def _count_token(text: str):
    if text == "inf":
        return UNBOUNDED
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {text!r}")


def _dec(value, digits: int = 12) -> str:
    return format(float(value), f".{digits}g")


def _with_exact(value) -> str:
    text = _dec(value, 6)
    if isinstance(value, Fraction) and value.denominator != 1:
        text += f" (= {value})"
    return text


def _render(fmt: str, payload, header: list[str], rows: list[list], text: str) -> str:
    """json of ``payload``, csv of ``header`` and ``rows`` with LF endings, or ``text``."""
    if fmt == "json":  # each format imports its own modules, so a text command loads neither
        import json
        return json.dumps(payload, indent=2)
    if fmt == "csv":
        import csv
        import io
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
        return buffer.getvalue()
    return text


def _table(n_max: int, m_max: int):
    """Variance/fidelity grid over all pairs N <= M, one row per pair, unrendered."""
    _check_int("n_max", n_max, 1, maximum=TABLE_LIMIT)
    _check_int("m_max", m_max, n_max, maximum=TABLE_LIMIT)
    header = ["n", "m", "variance", "fidelity"]
    rows = [
        (n, m, float(optimal_noise_variance(n, m).var_x), float(optimal_fidelity(n, m)))
        for n in range(1, n_max + 1)
        for m in range(n, m_max + 1)
    ]
    cells = [[n, m, _dec(v), _dec(f)] for n, m, v, f in rows]
    text = "\n".join("{:>4} {:>4} {:>16} {:>16}".format(*row) for row in [header, *cells])
    return {"rows": [dict(zip(header, row)) for row in rows]}, header, cells, text


def _value(fields: dict, text: str):
    """A one-record output: ``fields`` as the payload, the csv header and the row."""
    return fields, list(fields), [list(fields.values())], text


def _run_fidelity(args: argparse.Namespace):
    value = optimal_fidelity(args.n, args.m).value
    return _value({"n": args.n, "m": str(args.m), "fidelity": float(value)}, _with_exact(value))


def _run_variance(args: argparse.Namespace):
    if args.r != 0:
        noise = squeezed_variant(args.n, args.m, args.r).noise
        return _value(
            {"n": args.n, "m": str(args.m), "r": args.r,
             "var_x": float(noise.var_x), "var_p": float(noise.var_p)},
            f"var_x {_dec(noise.var_x, 6)}, var_p {_dec(noise.var_p, 6)}",
        )
    value = optimal_noise_variance(args.n, args.m).var_x
    return _value({"n": args.n, "m": str(args.m), "variance": float(value)}, _with_exact(value))


def _run_cascade(args: argparse.Namespace):
    composed = cascade(optimal_cloner(args.n, args.m), optimal_cloner(args.m, args.l))
    optimal = optimal_noise_variance(args.n, args.l)
    match = composed.noise == optimal
    return _value(
        {"n": args.n, "m": str(args.m), "l": str(args.l), "composed": float(composed.noise.var_x),
         "optimal": float(optimal.var_x), "match": match},
        f"composed {_with_exact(composed.noise.var_x)}, "
        f"optimal {_with_exact(optimal.var_x)}, match={'true' if match else 'false'}",
    )


def _run_table(args: argparse.Namespace):
    return _table(args.n_max, args.m_max)


# The suite gets exactly the options given, so each default lives in its
# signature; verify is imported here, so closed-form commands never load numpy.
def _run_verify(args: argparse.Namespace):
    from . import verify

    options = {k: v for k, v in vars(args).items() if k not in ("command", "format", "handler")}
    report = getattr(verify, args.command.replace("-", "_"))(**options)
    rows = [
        [c.name, _dec(c.expected), _dec(c.observed), _dec(c.tolerance),
         "true" if c.passed else "false"]
        for c in report.checks
    ]
    lines = [
        f"{'PASS' if c.passed else 'FAIL'}  {name}: expected={e}, observed={o}, tol={t}"
        for c, (name, e, o, t, _) in zip(report.checks, rows)
    ]
    passed = sum(c.passed for c in report.checks)
    lines.append(f"overall: {'PASS' if report.overall else 'FAIL'} ({passed}/{len(rows)})")
    header = ["name", "expected", "observed", "tolerance", "pass"]
    return report.as_dict(), header, rows, "\n".join(lines)


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
    p.add_argument("l", type=_count_token)

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
    """Run one command: write its output and return its exit code."""
    args = _build_parser().parse_args(argv)
    try:
        payload, header, rows, text = args.handler(args)
    except SGCloneError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    rendered = _render(args.format, payload, header, rows, text)
    sys.stdout.write(rendered if rendered.endswith("\n") else rendered + "\n")
    return 0 if payload.get("overall", True) else 1


if __name__ == "__main__":
    sys.exit(main())
