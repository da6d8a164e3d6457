"""Acceptance suite: every criterion at its stated tolerance, one line each.

Each criterion reads named checks from the ``verify-*`` reports, run once at
their defaults, and pins each check's tolerance and expected value
(for a count check, its total) along with its verdict.  Exact rational
identities that a report holds only as a float are asserted directly.
"""

import functools
import importlib.util
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sgclone import (
    UNBOUNDED,
    NoiseCovariance,
    VerificationReport,
    optimal_fidelity,
    optimal_noise_variance,
    squeezed_variant,
    verify_fock,
    verify_mc,
)
from sgclone.verify import ORACLE_SCENARIOS

#: verify_mc's default sample count; a variance v has standard error v * SE_SCALE.
SE_SCALE = math.sqrt(2.0 / (10**6 - 1))
#: The benchmark's harness, whose output checks pin each suite's check names,
#: expected values and tolerances.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _checks(report):
    return {check.name: check for check in report.checks}


@pytest.fixture(scope="module")
def bounds(bounds_report):
    return _checks(bounds_report)


@pytest.fixture(scope="module")
def fock():
    return _checks(verify_fock())


@pytest.fixture(scope="module")
def mc():
    return _checks(verify_mc())


def assert_check(check, expected, tolerance):
    """The check passed against ``expected``, strictly within a nonzero ``tolerance``."""
    assert check.passed and check.expected == expected and check.tolerance == tolerance, check
    assert check.observed == expected or abs(check.observed - expected) < tolerance, check


def five_se(variance):
    return 5 * (variance * SE_SCALE)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(**reports):
            try:
                fn(**reports)
            except BaseException:
                print(f"criterion {number:2d}: FAIL  {label}")
                raise
            print(f"criterion {number:2d}: PASS  {label}")

        return wrapper

    return decorate


@criterion(1, "closed-form exactness up to N = 64")
def test_criterion_01_closed_form_exactness(bounds):
    assert_check(bounds["noise variance (1,2)"], 0.5, 0.0)
    assert_check(bounds["fidelity (1,2)"], 2 / 3, 0.0)
    assert_check(bounds["fidelity (1,inf)"], 0.5, 0.0)
    assert optimal_noise_variance(1, 2).var_x == Fraction(1, 2)
    assert optimal_fidelity(1, 2).value == Fraction(2, 3)
    assert optimal_fidelity(1, UNBOUNDED).value == Fraction(1, 2)
    for n in range(1, 65):
        assert optimal_noise_variance(n, n) == NoiseCovariance(0, 0)
        assert optimal_fidelity(n, n).value == 1
        unbounded = optimal_noise_variance(n, UNBOUNDED)
        assert unbounded.var_x == unbounded.var_p == Fraction(1, n)
        assert optimal_fidelity(n, UNBOUNDED).value == Fraction(n, n + 1)


@criterion(2, "bound-chain identity over all N <= M <= 64 and M = inf")
def test_criterion_02_bound_chain_identity(bounds):
    assert_check(bounds["bound-chain identity (N<=M<=64, inf)"], 2144.0, 0.0)
    # the report compares var_x; the optimal noise is isotropic on the same pairs
    assert all(
        optimal_noise_variance(n, m).is_isotropic
        for n in range(1, 65)
        for m in [*range(n, 65), UNBOUNDED]
    )


@criterion(3, "optimal-cascade closure over all N <= M <= L <= 32")
def test_criterion_03_cascade_closure(bounds):
    assert_check(bounds["optimal-cascade closure (N<=M<=L<=32)"], 5984.0, 0.0)


@criterion(4, "Fock-oracle fidelity matches the closed form within 1e-5")
def test_criterion_04_fock_oracle_fidelity(fock):
    for n, m in [*ORACLE_SCENARIOS, (1, UNBOUNDED)]:
        label = f"({n},{'inf' if m is UNBOUNDED else m})"
        assert_check(fock[f"oracle fidelity {label}"], float(optimal_fidelity(n, m)), 1e-5)
        assert_check(fock[f"center invariance {label}"], 0.0, 1e-5)


@criterion(5, "cascaded mixtures equal summed-noise mixtures within 1e-6")
def test_criterion_05_cascade_additivity(fock):
    for pair, tolerance in ((1, 1e-6), (2, 0.0), (3, 1e-6)):
        assert_check(fock[f"cascade additivity pair {pair}"], 0.0, tolerance)


@criterion(6, "joint measurement on the 1->2 clones saturates variance 1")
def test_criterion_06_joint_measurement_saturation(mc):
    for seed in (42, 7, 1001):
        var_x = mc[f"joint measurement var_x (seed {seed})"]
        var_p = mc[f"joint measurement var_p (seed {seed})"]
        assert_check(var_x, 1.0, five_se(var_x.observed))
        assert_check(var_p, 1.0, five_se(var_p.observed))
        vx, vp = var_x.observed, var_p.observed
        product_se = math.hypot(vp * (vx * SE_SCALE), vx * (vp * SE_SCALE))
        assert_check(mc[f"joint measurement variance product (seed {seed})"], 1.0,
                     5 * product_se)


@criterion(7, "heterodyne estimate variance scales as 1/N")
def test_criterion_07_estimation_scaling(mc):
    for n in (1, 2, 4, 8):
        for quadrature in ("x", "p"):
            check = mc[f"heterodyne estimate var_{quadrature} (N={n})"]
            assert_check(check, 1 / n, five_se(check.observed))


@criterion(8, "weighted-bound sweep is tight exactly at g_x = g_p")
def test_criterion_08_holevo_sweep(bounds, mc):
    assert_check(bounds["weight sweep: peak sits at g_x = g_p"], 1.0, 0.0)
    assert_check(bounds["weight sweep: symmetric bound peaks at 1"], 1.0, 1e-12)
    assert_check(bounds["weight sweep: bound < 1 off the symmetric point"], 60.0, 0.0)
    assert_check(mc["weighted bound holds across the ratio grid"], 61.0, 0.0)


@criterion(9, "matched squeezed cloner reaches the coherent-state optimum")
def test_criterion_09_squeezed_variant(fock):
    spec = squeezed_variant(1, 2, 0.5)
    assert spec.noise.var_x * spec.noise.var_p == Fraction(1, 4)
    assert_check(fock["squeezed variant noise product"], 0.25, 0.0)
    assert_check(fock["squeezed variant fidelity (1,2,r=0.5)"], 2 / 3, 1e-4)


@criterion(10, "fidelity strictly improves and noise strictly shrinks with k")
def test_criterion_10_monotonicity(bounds):
    assert_check(bounds["monotonicity in k (k<=16)"], 45.0, 0.0)


def test_reports_meet_the_benchmark_tables(fock, mc):
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    checks.check_suite(VerificationReport(list(fock.values())).as_dict(), checks.fock_table())
    checks.check_suite(VerificationReport(list(mc.values())).as_dict(), checks.mc_table(42, 10**6))


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_environment_reports_its_keys():
    code = (f"import json, sys; sys.path.insert(0, {str(PERFBENCH)!r}); import worker; "
            "print(json.dumps(worker.environment()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert {"python", "numpy", "nproc", "cpu", "blas_threads"} <= set(json.loads(proc.stdout))
