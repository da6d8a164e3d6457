"""Self-test of the benchmark's output checks: each must reject a perturbed output.

Usage: python3 perfbench/selftest.py

Every case feeds a check first an output built from the closed forms, which
must pass, and then the same output with one perturbation, which must be
rejected.  Needs only the standard library; sgclone is not imported.
"""

from __future__ import annotations

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from checks import INF, Failure, Mismatch, fidelity, noise  # noqa: E402


def oracle_output(case: dict) -> dict:
    """What a correct oracle evaluation of ``case`` returns."""
    n, m, alpha, r = case["n"], case["m"], case["alpha"], case["r"]
    spread = 0.5 + float(noise(n, m))
    return {
        "fid": float(fidelity(n, m)),
        "moments": (math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag,
                    spread * math.exp(2 * r), spread * math.exp(-2 * r)),
        "min_eig": 0.0,
        "trace": 1.0,
    }


def report_from(table: dict) -> dict:
    """A passing ``VerificationReport.as_dict()`` that meets ``table`` exactly."""
    rows = [{"name": name, "expected": want, "observed": want, "tolerance": tol, "pass": True}
            for name, (want, tol, _) in table.items()]
    return {"checks": rows, "overall": True}


class OracleChecks(unittest.TestCase):
    cases = [
        {"n": 1, "m": 2, "alpha": 1.5 - 0.5j, "r": 0.0},
        {"n": 2, "m": INF, "alpha": 0.3j, "r": 0.0},
        {"n": 1, "m": 5, "alpha": 0.7 + 0.7j, "r": -0.35},
    ]

    def run_check(self, case, out):
        checks.check_oracle(case, out["fid"], out["moments"], out["min_eig"], out["trace"])

    def test_closed_form_output_passes(self):
        for case in self.cases:
            self.run_check(case, oracle_output(case))

    def test_each_perturbation_is_rejected(self):
        for case in self.cases:
            tol = 1e-4 if case["r"] else 1e-5
            perturbations = {
                "fidelity off by twice its tolerance": {"fid": 2 * tol},
                "fidelity off by 2e-5": {"fid": 2e-5},
                "mean_x": {"moments": (2e-6, 0, 0, 0)},
                "mean_p": {"moments": (0, -2e-6, 0, 0)},
                "var_x": {"moments": (0, 0, 2e-6, 0)},
                "var_p": {"moments": (0, 0, 0, 2e-6)},
                "trace": {"trace": -2e-8},
                "min eigenvalue": {"min_eig": -2e-10},
            }
            for label, delta in perturbations.items():
                if label == "fidelity off by 2e-5" and case["r"]:
                    continue  # within the squeezed tolerance of 1e-4
                out = oracle_output(case)
                for key, d in delta.items():
                    out[key] = tuple(a + b for a, b in zip(out[key], d)) if key == "moments" else out[key] + d
                with self.subTest(case=case, perturbation=label), self.assertRaises(Mismatch):
                    self.run_check(case, out)


class SuiteChecks(unittest.TestCase):
    tables = {"fock": checks.fock_table(), "mc": checks.mc_table(12345, 10**6)}

    def test_counts(self):
        self.assertEqual(len(self.tables["fock"]), 26)
        self.assertEqual(len(self.tables["mc"]), 28)

    def test_closed_form_report_passes(self):
        for table in self.tables.values():
            checks.check_suite(report_from(table), table)

    def test_each_perturbation_is_rejected(self):
        def edit(table, name, **changes):
            report = report_from(table)
            for row in report["checks"]:
                if row["name"] == name:
                    row.update(changes)
            return report

        fock, mc = self.tables["fock"], self.tables["mc"]
        fid = "oracle fidelity (1,2)"
        var = "joint measurement var_x (seed 12345)"
        bad = {
            "fidelity off by 2e-5": (fock, edit(fock, fid, observed=fock[fid][0] + 2e-5)),
            "wrong expected value": (fock, edit(fock, fid, expected=0.7, observed=0.7)),
            "loosened tolerance": (fock, edit(fock, fid, tolerance=1e-3)),
            "trace below its floor": (fock, edit(fock, "physicality: trace >= 1 - eps_trunc",
                                                 observed=1 - 2e-8)),
            "a check reported failed": (fock, edit(fock, fid, **{"pass": False})),
            "a check missing": (fock, {"checks": report_from(fock)["checks"][1:], "overall": True}),
            "overall false": (fock, dict(report_from(fock), overall=False)),
            "variance beyond five standard errors": (mc, edit(mc, var, observed=1 + 1.1 * mc[var][1])),
            "statistical tolerance doubled": (mc, edit(mc, var, tolerance=2 * mc[var][1])),
            "grid count short by one": (mc, edit(mc, "weighted bound holds across the ratio grid",
                                                 observed=60.0)),
        }
        for label, (table, report) in bad.items():
            with self.subTest(perturbation=label), self.assertRaises(Mismatch):
                checks.check_suite(report, table)


def cli_output(spec: dict) -> tuple[int, str, str]:
    """What a correct ``sgclone`` run of ``spec`` prints."""
    kind, fmt, n, m = spec["kind"], spec.get("fmt"), spec.get("n"), spec.get("m")
    if kind == "usage":
        return 2, "", "usage error: cloning cannot reduce the copy count: 3 -> 2\n"
    if kind == "fidelity":
        f = fidelity(n, m)
        text = {"text": f"{float(f):.6g} (= {f})\n",
                "csv": f"n,m,fidelity\n{n},{m},{float(f)!r}\n",
                "json": json.dumps({"n": n, "m": str(m), "fidelity": float(f)})}[fmt]
    elif kind == "cascade":
        v = noise(n, spec["l"])
        text = f"composed {float(v):.6g} (= {v}), optimal {float(v):.6g} (= {v}), match=true\n"
    elif kind == "table":
        rows = [(a, b) for a in range(1, n + 1) for b in range(a, m + 1)]
        text = "n,m,variance,fidelity\n" + "".join(
            f"{a},{b},{float(noise(a, b)):.12g},{float(fidelity(a, b)):.12g}\n" for a, b in rows)
    else:
        text = "PASS  anchor: expected=1, observed=1, tol=0\noverall: PASS (1/1)\n"
    return 0, text, ""


class CliChecks(unittest.TestCase):
    specs = [
        {"kind": "fidelity", "fmt": "text", "n": 2, "m": 5},
        {"kind": "fidelity", "fmt": "csv", "n": 1, "m": 3},
        {"kind": "fidelity", "fmt": "json", "n": 3, "m": INF},
        {"kind": "cascade", "fmt": "text", "n": 1, "m": 3, "l": 7},
        {"kind": "table", "fmt": "csv", "n": 2, "m": 3},
        {"kind": "verify", "fmt": "text"},
        {"kind": "usage"},
    ]

    def test_closed_form_output_passes(self):
        for spec in self.specs:
            checks.check_cli(dict(spec, argv=[]), *cli_output(spec))

    def test_each_perturbation_is_rejected(self):
        def bad(spec, rc=None, out=None, err=None):
            good = cli_output(spec)
            return dict(spec, argv=[]), (good[0] if rc is None else rc,
                                         good[1] if out is None else out,
                                         good[2] if err is None else err)

        f, text, csv_text = self.specs[0], cli_output(self.specs[0])[1], cli_output(self.specs[1])[1]
        table = cli_output(self.specs[4])[1]
        cases = {
            "wrong denominator in a fraction": (Mismatch, bad(f, out=text.replace("/13", "/14"))),
            "decimal off in the fourth digit": (Mismatch, bad(f, out=text.replace("0.769231", "0.769331"))),
            "csv value off by 2e-5": (Mismatch, bad(self.specs[1], out=csv_text.replace("0.6", "0.60002"))),
            "json for the wrong m": (Mismatch, bad(self.specs[2], out=json.dumps(
                {"n": 3, "m": "4", "fidelity": 0.75}))),
            "cascade optimal off": (Mismatch, bad(self.specs[3], out="composed 0.857143 (= 6/7), "
                                                  "optimal 0.833333 (= 5/6), match=true\n")),
            "table row missing": (Mismatch, bad(self.specs[4], out=table.rsplit("\n", 2)[0] + "\n")),
            "table value off": (Mismatch, bad(self.specs[4], out=table.replace(",0.6\n", ",0.61\n"))),
            "verify-bounds failing": (Mismatch, bad(self.specs[5], out="FAIL  x\noverall: FAIL (0/1)\n")),
            "exit 1 in place of 2": (Failure, bad(self.specs[6], rc=1)),
            "usage error with a traceback": (Failure, bad(self.specs[6], err="Traceback (most recent "
                                                          "call last):\nOverflowError: x\n")),
            "usage error without its line": (Failure, bad(self.specs[6], err="error: bad\n")),
            "success exits nonzero": (Failure, bad(f, rc=1)),
        }
        for label, (error, (spec, out)) in cases.items():
            with self.subTest(perturbation=label), self.assertRaises(error):
                checks.check_cli(spec, *out)


if __name__ == "__main__":
    unittest.main()
