"""Every CLI output format, byte for byte.

The expected stdout of each command is built here from the Fraction closed
forms (noise (M - N)/(M N), fidelity M N/(M N + M - N), 1/N and N/(N + 1)
for unbounded M) and, for ``verify-bounds``, from the report's own dict.
"""

import json
import math
from fractions import Fraction

import pytest

from sgclone import cli, verify
from sgclone.cli import main

INF = "inf"
FORMATS = ("text", "csv", "json")


def noise(n, m):
    return Fraction(1, n) if m == INF else Fraction(m - n, m * n)


def fidelity(n, m):
    return Fraction(n, n + 1) if m == INF else Fraction(m * n, m * n + m - n)


def dec(value, digits=12):
    return format(float(value), f".{digits}g")


def with_exact(value):
    return dec(value, 6) + ("" if value.denominator == 1 else f" (= {value})")


def csv_field(value):
    text = str(value)
    return f'"{text}"' if "," in text else text


def render(fmt, fields, text):
    """The one-record output: json of ``fields``, a header and a row, or ``text``."""
    if fmt == "json":
        return json.dumps(fields, indent=2) + "\n"
    if fmt == "csv":
        return ",".join(fields) + "\n" + ",".join(csv_field(v) for v in fields.values()) + "\n"
    return text + "\n"


def run(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n, m", [(1, 2), (1, INF), (3, 6), (5, 5), (2, 3)])
class TestValueCommands:
    def test_fidelity(self, capsys, fmt, n, m):
        f = fidelity(n, m)
        expected = render(fmt, {"n": n, "m": str(m), "fidelity": float(f)}, with_exact(f))
        assert run(capsys, ["fidelity", str(n), str(m), "--format", fmt]) == expected

    def test_variance(self, capsys, fmt, n, m):
        v = noise(n, m)
        expected = render(fmt, {"n": n, "m": str(m), "variance": float(v)}, with_exact(v))
        assert run(capsys, ["variance", str(n), str(m), "--format", fmt]) == expected


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n, m, r", [(1, 2, 0.5), (2, INF, -0.3), (1, 3, 1.25)])
def test_squeezed_variance(capsys, fmt, n, m, r):
    sigma2 = noise(n, m)
    var_x = Fraction(math.exp(math.log(float(sigma2)) + 2 * r))  # the one-exp squeezed-frame rule
    var_p = sigma2**2 / var_x
    fields = {"n": n, "m": str(m), "r": r, "var_x": float(var_x), "var_p": float(var_p)}
    text = f"var_x {dec(var_x, 6)}, var_p {dec(var_p, 6)}"
    argv = ["variance", str(n), str(m), "--r", str(r), "--format", fmt]
    assert run(capsys, argv) == render(fmt, fields, text)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n, m, l", [(1, 2, 4), (2, 3, 7), (3, 3, 3), (1, 2, INF), (2, 4, INF)])
def test_cascade(capsys, fmt, n, m, l):
    composed, optimal = noise(n, m) + noise(m, l), noise(n, l)
    fields = {"n": n, "m": str(m), "l": str(l), "composed": float(composed),
              "optimal": float(optimal), "match": composed == optimal}
    text = f"composed {with_exact(composed)}, optimal {with_exact(optimal)}, match=true"
    argv = ["cascade", str(n), str(m), str(l), "--format", fmt]
    assert run(capsys, argv) == render(fmt, fields, text)


def table_output(fmt, n_max, m_max):
    """The whole grid as ``cli._render`` returns it: no final newline in json and text."""
    pairs = [(n, m) for n in range(1, n_max + 1) for m in range(n, m_max + 1)]
    if fmt == "json":
        rows = [{"n": n, "m": m, "variance": float(noise(n, m)),
                 "fidelity": float(fidelity(n, m))} for n, m in pairs]
        return json.dumps({"rows": rows}, indent=2)
    if fmt == "csv":
        lines = ["n,m,variance,fidelity"]
        lines += [f"{n},{m},{dec(noise(n, m))},{dec(fidelity(n, m))}" for n, m in pairs]
        return "\n".join(lines) + "\n"
    lines = ["   n    m         variance         fidelity"]
    lines += [f"{n:>4} {m:>4} {dec(noise(n, m)):>16} {dec(fidelity(n, m)):>16}" for n, m in pairs]
    return "\n".join(lines)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n_max, m_max", [(1, 1), (1, 3), (2, 4), (3, 6)])
class TestTable:
    def test_render_returns_the_grid(self, fmt, n_max, m_max):
        assert cli._render(fmt, *cli._table(n_max, m_max)) == table_output(fmt, n_max, m_max)

    def test_command_prints_it_with_one_final_newline(self, capsys, fmt, n_max, m_max):
        out = run(capsys, ["table", str(n_max), str(m_max), "--format", fmt])
        assert out == table_output(fmt, n_max, m_max).rstrip("\n") + "\n"


@pytest.fixture(scope="module")
def bounds_payload(bounds_report):
    return bounds_report.as_dict()


@pytest.mark.parametrize("fmt", FORMATS)
def test_verify_bounds(capsys, monkeypatch, bounds_report, bounds_payload, fmt):
    # the command renders the suite's report; the session's copy stands in for a rerun
    monkeypatch.setattr(verify, "verify_bounds", lambda: bounds_report)
    payload = bounds_payload
    checks = payload["checks"]
    if fmt == "json":
        expected = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        lines = ["name,expected,observed,tolerance,pass"]
        lines += [
            ",".join([csv_field(c["name"]), dec(c["expected"]), dec(c["observed"]),
                      dec(c["tolerance"]), "true" if c["pass"] else "false"])
            for c in checks
        ]
        expected = "\n".join(lines) + "\n"
    else:
        lines = [
            f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}: expected={dec(c['expected'])}, "
            f"observed={dec(c['observed'])}, tol={dec(c['tolerance'])}"
            for c in checks
        ]
        passed = sum(c["pass"] for c in checks)
        lines.append(f"overall: {'PASS' if payload['overall'] else 'FAIL'} ({passed}/{len(checks)})")
        expected = "\n".join(lines) + "\n"
    assert run(capsys, ["verify-bounds", "--format", fmt]) == expected
