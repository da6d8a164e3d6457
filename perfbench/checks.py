"""Output checks for the benchmark, computed apart from the program.

Every expected value here comes from the paper's closed forms, evaluated
with ``fractions.Fraction`` and ``math``: noise (M - N)/(M N) and fidelity
M N/(M N + M - N), with 1/N and N/(N + 1) for unbounded M.  Nothing is
compared against a stored copy of an earlier output, and nothing here
imports ``sgclone``.

A check raises :class:`Failure` when an operation did not run as it must
(a traceback, a wrong exit code) and :class:`Mismatch` when it ran but
returned a wrong value.  The benchmark counts the first as a failed
operation and the second as an incorrect result.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

INF = "inf"

#: Seeds that ``verify_mc`` always adds to the one it is given.
MC_SATURATION_SEEDS = (42, 7, 1001)
MC_HETERODYNE_COPIES = (1, 2, 4, 8)
MC_WEIGHT_GRID_POINTS = 61


class Failure(Exception):
    """The operation did not complete as it must."""


class Mismatch(Exception):
    """The operation completed with a wrong output."""


def noise(n: int, m) -> Fraction:
    """Optimal per-quadrature cloning noise (M - N)/(M N); 1/N for M = inf."""
    return Fraction(1, n) if m == INF else Fraction(m - n, m * n)


def fidelity(n: int, m) -> Fraction:
    """Optimal single-clone fidelity M N/(M N + M - N); N/(N + 1) for M = inf."""
    return Fraction(n, n + 1) if m == INF else Fraction(m * n, m * n + m - n)


def _close(what: str, got, want, tol) -> None:
    if not abs(got - want) <= tol:
        raise Mismatch(f"{what}: got {got!r}, want {want!r} within {tol!r}")


def _equal(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


# --- oracle-sweep -----------------------------------------------------------

def check_oracle(case: dict, fid: float, moments, min_eig: float, trace: float) -> None:
    """One single-clone oracle evaluation against the closed forms.

    ``case`` holds n, m, alpha and r (0 for a coherent centre); ``moments``
    is (mean_x, mean_p, var_x, var_p).  A squeezed centre with squeezing r
    carries intrinsic variances e^{+-2r}/2 and matched noise sigma2 e^{+-2r}.
    """
    n, m, alpha, r = case["n"], case["m"], case["alpha"], case["r"]
    _close("fidelity", fid, float(fidelity(n, m)), 1e-4 if r else 1e-5)
    mean_x, mean_p, var_x, var_p = moments
    spread = 0.5 + float(noise(n, m))
    _close("mean_x", mean_x, math.sqrt(2.0) * alpha.real, 1e-6)
    _close("mean_p", mean_p, math.sqrt(2.0) * alpha.imag, 1e-6)
    _close("var_x", var_x, spread * math.exp(2.0 * r), 1e-6)
    _close("var_p", var_p, spread * math.exp(-2.0 * r), 1e-6)
    if not trace >= 1 - 1e-8:
        raise Mismatch(f"trace {trace!r} below 1 - 1e-8")
    if not min_eig >= -1e-10:
        raise Mismatch(f"minimum eigenvalue {min_eig!r} below -1e-10")


# --- fock-suite and mc-suite ------------------------------------------------

def fock_table() -> dict:
    """Expected value, tolerance and kind of every check of ``verify_fock()``."""
    table = {}
    for n, m in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (1, INF)):
        table[f"oracle fidelity ({n},{m})"] = (float(fidelity(n, m)), 1e-5, "close")
        table[f"center invariance ({n},{m})"] = (0.0, 1e-5, "close")
    table["physicality: hermiticity defect"] = (0.0, 1e-12, "close")
    table["physicality: trace >= 1 - eps_trunc"] = (1 - 1e-8, 0.0, "at_least")
    table["physicality: min eigenvalue >= -1e-10"] = (-1e-10, 0.0, "at_least")
    coherent = Fraction(1, 2)
    table["moments: var_x of vacuum + noise 1/2"] = (float(coherent + Fraction(1, 2)), 1e-6, "close")
    table["moments: var_p of vacuum + noise 1/2"] = (float(coherent + Fraction(1, 2)), 1e-6, "close")
    table["moments: mean_x of center 1+1j"] = (math.sqrt(2.0), 1e-6, "close")
    table["moments: mean_p of center 1+1j"] = (math.sqrt(2.0), 1e-6, "close")
    table["moments: var_x of center 1+1j + noise 1"] = (float(coherent + 1), 1e-6, "close")
    for i, tol in enumerate((1e-6, 0.0, 1e-6), start=1):
        table[f"cascade additivity pair {i}"] = (0.0, tol, "close")
    table["convergence under doubled cutoff and grid"] = (0.0, 1e-7, "close")
    table["squeezed variant fidelity (1,2,r=0.5)"] = (float(fidelity(1, 2)), 1e-4, "close")
    table["squeezed variant noise product"] = (float(noise(1, 2) ** 2), 0.0, "close")
    return table


def mc_table(seed: int, samples: int) -> dict:
    """Expected value, tolerance and kind of every check of ``verify_mc``.

    The statistical tolerances are five standard errors.  For a Gaussian
    sample variance v the standard error is v sqrt(2/(samples - 1)); the
    benchmark derives them from the expected variances, and the program's
    tolerances, which use the sample variances, must agree within 2%.
    """
    se = math.sqrt(2.0 / (samples - 1))
    stat = "close_stat"
    table = {}
    for s in (seed,) + tuple(s for s in MC_SATURATION_SEEDS if s != seed):
        var = 0.5 + 0.5  # intrinsic 1/2 plus the 1 -> 2 clone noise 1/2
        table[f"joint measurement var_x (seed {s})"] = (var, 5 * var * se, stat)
        table[f"joint measurement var_p (seed {s})"] = (var, 5 * var * se, stat)
        table[f"joint measurement variance product (seed {s})"] = (
            var * var, 5 * math.hypot(var * var * se, var * var * se), stat)
    table["noiseless clone var_x"] = (0.5, 5 * 0.5 * se, stat)
    table["displaced center var_x at noise 1"] = (1.5, 5 * 1.5 * se, stat)
    for n in MC_HETERODYNE_COPIES:
        table[f"heterodyne estimate var_x (N={n})"] = (1 / n, 5 * se / n, stat)
        table[f"heterodyne estimate var_p (N={n})"] = (1 / n, 5 * se / n, stat)
        table[f"heterodyne estimate unbiased (N={n})"] = (
            math.sqrt(2.0), 5 * math.sqrt(1 / (n * samples)), stat)
    table["weighted bound holds across the ratio grid"] = (
        float(MC_WEIGHT_GRID_POINTS), 0.0, "count")
    table["determinism: identical seed, identical report"] = (1.0, 0.0, "count")
    return table


def check_suite(report: dict, table: dict) -> None:
    """A ``VerificationReport.as_dict()`` against an expected-value table.

    The report must hold exactly the table's checks, each with the table's
    expected value and tolerance, each observed value must meet it, and the
    report must pass overall.
    """
    checks = report["checks"]
    names = [c["name"] for c in checks]
    _equal("check names", sorted(names), sorted(table))
    for c in checks:
        want, tol, kind = table[c["name"]]
        got = c["observed"]
        _close(f"{c['name']}: expected", c["expected"], want, 1e-12 * max(1.0, abs(want)))
        if kind == "close_stat":
            _close(f"{c['name']}: tolerance", c["tolerance"], tol, 0.02 * tol)
            tol = c["tolerance"]
        else:
            _equal(f"{c['name']}: tolerance", c["tolerance"], tol)
        if kind == "at_least":
            if not got >= want:
                raise Mismatch(f"{c['name']}: observed {got!r} below {want!r}")
        else:
            _close(f"{c['name']}: observed", got, want, tol)
        _equal(f"{c['name']}: pass", c["pass"], True)
    _equal("overall", report["overall"], True)


# --- cli-cold ---------------------------------------------------------------

_EXACT = re.compile(r"(-?[0-9.e+-]+)(?: \(= (\d+)/(\d+)\))?")


def _parse_exact(text: str) -> Fraction:
    """'0.769231 (= 10/13)' -> 10/13; a plain decimal stays as printed."""
    match = _EXACT.fullmatch(text.strip())
    if match is None:
        raise Mismatch(f"not a value with an exact form: {text!r}")
    decimal, num, den = match.groups()
    if num is None:
        return Fraction(decimal)
    value = Fraction(int(num), int(den))
    _close(f"decimal of {value}", float(decimal), float(value), 5e-6 * float(value))
    return value


def _parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_value_output(fmt: str, stdout: str, fields: dict, exact_key: str) -> None:
    """Output of ``fidelity``/``variance``: one value in one of three formats."""
    want = fields[exact_key]
    if fmt == "text":
        _equal(exact_key, _parse_exact(stdout), want)
        return
    if fmt == "csv":
        rows = _parse_csv(stdout)
        _equal("csv rows", len(rows), 1)
        got = rows[0]
    else:
        got = {k: str(v) for k, v in json.loads(stdout).items()}
    _equal("fields", sorted(got), sorted(fields))
    for key, value in fields.items():
        if isinstance(value, Fraction):
            _equal(key, float(got[key]), float(value))
        else:
            _equal(key, got[key], str(value))


def _check_squeezed(fmt: str, stdout: str, n, m, r: float) -> None:
    sigma2 = float(noise(n, m))
    want = {"var_x": sigma2 * math.exp(2 * r), "var_p": sigma2 * math.exp(-2 * r)}
    if fmt == "json":
        got = json.loads(stdout)
        _equal("fields", sorted(got), ["m", "n", "r", "var_p", "var_x"])
        _equal("n", got["n"], n)
        _equal("m", got["m"], str(m))
        _equal("r", got["r"], r)
        rel = 1e-12
    else:
        match = re.fullmatch(r"var_x (\S+), var_p (\S+)", stdout.strip())
        if match is None:
            raise Mismatch(f"unexpected variance output {stdout!r}")
        got = {"var_x": float(match.group(1)), "var_p": float(match.group(2))}
        rel = 5e-6
    for key, value in want.items():
        _close(key, got[key], value, rel * value)


def _check_cascade(stdout: str, n: int, m: int, l: int) -> None:
    match = re.fullmatch(r"composed (.+), optimal (.+), match=(true|false)", stdout.strip())
    if match is None:
        raise Mismatch(f"unexpected cascade output {stdout!r}")
    composed = noise(n, m) + noise(m, l)
    _equal("composed", _parse_exact(match.group(1)), composed)
    _equal("optimal", _parse_exact(match.group(2)), noise(n, l))
    _equal("match", match.group(3), "true" if composed == noise(n, l) else "false")


def _check_table(fmt: str, stdout: str, n_max: int, m_max: int) -> None:
    pairs = [(n, m) for n in range(1, n_max + 1) for m in range(n, m_max + 1)]
    if fmt == "json":
        rows = json.loads(stdout)["rows"]
        got = [(r["n"], r["m"], r["variance"], r["fidelity"]) for r in rows]
        want = [(n, m, float(noise(n, m)), float(fidelity(n, m))) for n, m in pairs]
        _equal("table rows", got, want)
        return
    if fmt == "csv":
        rows = [(r["n"], r["m"], r["variance"], r["fidelity"]) for r in _parse_csv(stdout)]
    else:
        lines = stdout.strip("\n").split("\n")
        _equal("table header", lines[0].split(), ["n", "m", "variance", "fidelity"])
        rows = [tuple(line.split()) for line in lines[1:]]
    _equal("table row count", len(rows), len(pairs))
    for (n, m), row in zip(pairs, rows):
        _equal("table row keys", (int(row[0]), int(row[1])), (n, m))
        # Values are printed to 12 significant digits.
        _close(f"variance ({n},{m})", float(row[2]), float(noise(n, m)), 1e-11)
        _close(f"fidelity ({n},{m})", float(row[3]), float(fidelity(n, m)), 1e-11)


def check_cli(spec: dict, returncode: int, stdout: str, stderr: str) -> None:
    """One ``sgclone`` command's exit code, stdout and stderr.

    ``spec`` holds ``argv``, ``fmt`` and ``kind``, plus the copy counts it
    was built from.  Kind ``usage`` must exit 2 with exactly one line on
    stderr, starting ``usage error:``, and nothing on stdout.
    """
    kind = spec["kind"]
    if "Traceback" in stderr:
        raise Failure(f"traceback from {spec['argv']}: {stderr.strip().splitlines()[-1]}")
    if kind == "usage":
        if returncode != 2:
            raise Failure(f"{spec['argv']} exited {returncode}, want 2")
        lines = stderr.strip("\n").split("\n")
        if len(lines) != 1 or not lines[0].startswith("usage error:"):
            raise Failure(f"{spec['argv']} stderr is not one usage error line: {stderr!r}")
        _equal("stdout of a usage error", stdout, "")
        return
    if returncode != 0:
        raise Failure(f"{spec['argv']} exited {returncode}, want 0")
    fmt = spec["fmt"]
    n, m = spec.get("n"), spec.get("m")
    if kind == "fidelity":
        _check_value_output(fmt, stdout, {"n": n, "m": m, "fidelity": fidelity(n, m)}, "fidelity")
    elif kind == "variance":
        _check_value_output(fmt, stdout, {"n": n, "m": m, "variance": noise(n, m)}, "variance")
    elif kind == "squeezed":
        _check_squeezed(fmt, stdout, n, m, spec["r"])
    elif kind == "cascade":
        _check_cascade(stdout, n, m, spec["l"])
    elif kind == "table":
        _check_table(fmt, stdout, n, m)
    elif kind == "verify":
        lines = stdout.strip().split("\n")
        match = re.fullmatch(r"overall: PASS \((\d+)/(\d+)\)", lines[-1])
        if match is None or match.group(1) != match.group(2):
            raise Mismatch(f"verify-bounds did not pass: {lines[-1]!r}")
        _equal("check lines", [line.split()[0] for line in lines[:-1]],
               ["PASS"] * int(match.group(2)))
    else:
        raise ValueError(f"unknown command kind {kind!r}")
