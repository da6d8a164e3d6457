"""Named verification suites backing the ``verify-*`` CLI commands.

Each suite returns a :class:`VerificationReport` whose checks carry the
expected value, the observed value and the tolerance used, so failures are
diagnosable from the report alone.  ``verify_bounds`` is exact arithmetic on
the standard library, ``verify_fock`` runs the truncated-Fock oracle against
the closed forms, and ``verify_mc`` the seeded measurement simulations; those
two check the arguments the standard library can decide before loading numpy.
``verify_bounds`` builds each optimal cloner once and ``verify_fock`` each
oracle state once, each into one table that all of the suite's checks read.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import cloner, estimation_bounds, quadrature_core
from .cloner import UNBOUNDED, optimal_cloner, optimal_fidelity, optimal_noise_variance
from .estimation_bounds import (
    MeasurementWeights,
    holevo_rhs,
    simulate_heterodyne_estimate,
    simulate_joint_measurement,
    symmetric_variance_bound,
)
from .quadrature_core import CoherentState, GaussianMixtureState, NoiseCovariance, SqueezedState

if TYPE_CHECKING:
    from .fock_oracle import QuadratureGrid

#: verify_bounds checks every N <= M <= MAX_COUNT, cascades up to CASCADE_MAX
#: copies and monotonicity for k < K_MAX.
MAX_COUNT = 64
CASCADE_MAX = 32
K_MAX = 16
ORACLE_SCENARIOS = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 5))
ORACLE_CENTERS = (0j, 1 + 0j, 1 + 1j, 2 - 1j)
SATURATION_SEEDS = (42, 7, 1001)
HETERODYNE_COPIES = (1, 2, 4, 8)
ADDITIVITY_PAIRS = (
    (NoiseCovariance(0.5, 0.5), NoiseCovariance(0.25, 0.25)),
    (NoiseCovariance(0.5, 0.5), NoiseCovariance(0.0, 0.0)),
    (NoiseCovariance(0.5, 0.5), NoiseCovariance(0.5, 0.5)),
)


class Check(quadrature_core._Value):
    __slots__ = ("name", "expected", "observed", "tolerance", "passed")

    def __init__(self, name: str, expected: float, observed: float, tolerance: float, passed: bool):
        self._set("name", name)
        self._set("expected", expected)
        self._set("observed", observed)
        self._set("tolerance", tolerance)
        self._set("passed", passed)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


class VerificationReport(quadrature_core._Value):
    """The checks of one suite; ``checks`` is a list the suite appends to."""

    __slots__ = ("checks",)

    def __init__(self, checks: list[Check] | None = None):
        self._set("checks", [] if checks is None else checks)

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.checks)

    def as_dict(self) -> dict:
        return {"checks": [c.as_dict() for c in self.checks], "overall": self.overall}


def _close(name: str, expected, observed, tolerance) -> Check:
    expected = float(expected)
    observed = float(observed)
    return Check(name, expected, observed, float(tolerance), abs(observed - expected) <= tolerance)


def _count(name: str, total: int, good: int) -> Check:
    return Check(name, float(total), float(good), 0.0, good == total)


def _at_least(name: str, bound, observed) -> Check:
    return Check(name, float(bound), float(observed), 0.0, observed >= bound)


def verify_bounds() -> VerificationReport:
    """Exact identities of the closed-form and bound layers."""
    report = VerificationReport()
    add = report.checks.append

    anchors = [
        ("noise variance (1,2)", optimal_noise_variance(1, 2).var_x, 0.5),
        ("fidelity (1,2)", optimal_fidelity(1, 2).value, 2 / 3),
        ("noise variance (5,5)", optimal_noise_variance(5, 5).var_x, 0.0),
        ("fidelity (7,7)", optimal_fidelity(7, 7).value, 1.0),
        ("noise variance (1,inf)", optimal_noise_variance(1, UNBOUNDED).var_x, 1.0),
        ("fidelity (1,inf)", optimal_fidelity(1, UNBOUNDED).value, 0.5),
        ("fidelity (3,inf)", optimal_fidelity(3, UNBOUNDED).value, 0.75),
        ("noise variance (2,4)", optimal_noise_variance(2, 4).var_x, 0.25),
    ]
    for name, got, want in anchors:
        add(_close(name, want, got, 0.0))

    pairs = [(n, m) for n in range(1, MAX_COUNT + 1) for m in range(n, MAX_COUNT + 1)]
    pairs += [(n, UNBOUNDED) for n in range(1, MAX_COUNT + 1)]
    specs = {pair: optimal_cloner(*pair) for pair in pairs}
    good = sum(estimation_bounds.cloning_lower_bound(*p) == specs[p].noise.var_x for p in pairs)
    add(_count(f"bound-chain identity (N<=M<={MAX_COUNT}, inf)", len(pairs), good))

    good = sum(cloner.fidelity_from_variance(specs[p].noise) == optimal_fidelity(*p) for p in pairs)
    add(_count(f"fidelity-variance consistency (N<=M<={MAX_COUNT}, inf)", len(pairs), good))

    triples = [
        (n, m, l)
        for n in range(1, CASCADE_MAX + 1)
        for m in range(n, CASCADE_MAX + 1)
        for l in range(m, CASCADE_MAX + 1)
    ]
    good = sum(
        cloner.cascade(specs[n, m], specs[m, l]).noise == specs[n, l].noise for n, m, l in triples
    )
    add(_count(f"optimal-cascade closure (N<=M<=L<={CASCADE_MAX})", len(triples), good))

    # Each step scales (N, M) from k to k + 1; every scaled pair lies inside the table.
    steps = [((k * n, k * m), ((k + 1) * n, (k + 1) * m))
             for n, m in ((1, 2), (1, 3), (2, 3)) for k in range(1, K_MAX)]
    good = sum(specs[b].noise.var_x < specs[a].noise.var_x
               and optimal_fidelity(*b) > optimal_fidelity(*a) for a, b in steps)
    add(_count(f"monotonicity in k (k<={K_MAX})", len(steps), good))

    big = 10**4
    add(
        _at_least(
            "many-input limit f(N,N+1) -> 1",
            1 - 1e-6,
            float(optimal_fidelity(big, big + 1)),
        )
    )

    add(_close("simultaneous-measurement margin at (1,1)", 0.0,
               estimation_bounds.arthurs_kelly_margin(1.0, 1.0), 0.0))
    add(_close("1->2 chain margin at noise 1/2", 0.0,
               estimation_bounds.chain_bound_1to2(0.5, 0.5, 0.5), 0.0))
    add(_close("1->2 chain margin at noise 1", 1.25,
               estimation_bounds.chain_bound_1to2(0.5, 0.5, 1.0), 0.0))
    add(_close("1->2 chain margin at noise 1/4", -0.4375,
               estimation_bounds.chain_bound_1to2(0.5, 0.5, 0.25), 0.0))

    ratios = estimation_bounds._weight_ratios()
    bounds = [symmetric_variance_bound(MeasurementWeights(g, 1.0)) for g in ratios]
    peak = bounds.index(max(bounds))
    add(_close("weight sweep: symmetric bound peaks at 1", 1.0, bounds[peak], 1e-12))
    add(_close("weight sweep: peak sits at g_x = g_p", 1.0, ratios[peak], 0.0))
    add(_count("weight sweep: bound < 1 off the symmetric point", len(bounds) - 1,
               sum(b < 1.0 for k, b in enumerate(bounds) if k != peak)))
    return report


def _oracle_fidelity(
    mixture: GaussianMixtureState, grid: QuadratureGrid | None, cutoff: int | None
):
    """The mixture's rho and its fidelity against the mixture's own center."""
    from .fock_oracle import fidelity_against, mixture_density_matrix, squeezed_fock_vector

    rho = mixture_density_matrix(mixture, cutoff, grid)
    center = mixture.center
    return fidelity_against(squeezed_fock_vector(center.alpha, center.r, rho.cutoff), rho), rho


def verify_fock(
    tolerance: float = 1e-5,
    nodes: int | None = None,
    cutoff: int | None = None,
) -> VerificationReport:
    """Truncated-Fock oracle against the closed-form layer.

    ``tolerance`` gates the oracle-vs-closed-form fidelity checks; the
    physicality, moment, additivity and convergence tolerances are fixed.
    A negative tolerance fails its checks; a NaN or infinite one, which
    no check could fail, is rejected.  By default every mixture is built
    exactly, and the convergence check compares that build with the other
    route, the projector sum on 2 * DEFAULT_NODES per axis at twice the cutoff.
    ``nodes`` builds every mixture as the projector sum on that grid, whose
    error no verdict judges, and the convergence check doubles it.  The
    cascade channel takes no grid: it averages its shifts in closed form.
    """
    tolerance = quadrature_core._as_amplitude(tolerance, "tolerance", real=True).real
    # The convergence check doubles nodes and cutoff: reject a double beyond
    # its limit before the first mixture is built.
    if nodes is not None:
        quadrature_core._check_int("nodes", nodes, 2, maximum=quadrature_core.NODES_LIMIT // 2)
    if cutoff is not None:
        quadrature_core._check_int("cutoff", cutoff, 1, maximum=quadrature_core.CUTOFF_LIMIT // 2)
    from . import fock_oracle

    report = VerificationReport()
    add = report.checks.append
    grid = None if nodes is None else fock_oracle.QuadratureGrid(nodes)

    scenarios = list(ORACLE_SCENARIOS) + [(1, UNBOUNDED)]
    oracle = {
        (n, m, center): _oracle_fidelity(
            cloner.clone_reduced_output(optimal_cloner(n, m), CoherentState(center)), grid, cutoff)
        for n, m in scenarios
        for center in ORACLE_CENTERS
    }
    for n, m in scenarios:
        want = float(optimal_fidelity(n, m))
        fids = [oracle[n, m, center][0] for center in ORACLE_CENTERS]
        add(_close(f"oracle fidelity ({n},{m})", want, max(fids, key=lambda f: abs(f - want)),
                   tolerance))
        add(_close(f"center invariance ({n},{m})", 0.0, max(fids) - min(fids), tolerance))

    rhos = [rho for _, rho in oracle.values()]
    add(_close("physicality: hermiticity defect", 0.0,
               max(rho.hermiticity_defect() for rho in rhos), fock_oracle._HERMITICITY_TOL))
    add(_at_least("physicality: trace >= 1 - eps_trunc", 1 - fock_oracle.DEFAULT_EPS_TRUNC,
                  min([1.0] + [rho.trace() for rho in rhos])))
    add(_at_least("physicality: min eigenvalue >= -1e-10", fock_oracle._EIGENVALUE_FLOOR,
                  min(rho.min_eigenvalue() for rho in rhos)))

    # Vacuum under the optimal 1 -> 2 noise 1/2, and 1+1j under the 1 -> inf noise 1.
    moments = fock_oracle.quadrature_moments(oracle[1, 2, 0j][1])
    add(_close("moments: var_x of vacuum + noise 1/2", 1.0, moments.var_x, 1e-6))
    add(_close("moments: var_p of vacuum + noise 1/2", 1.0, moments.var_p, 1e-6))
    moments = fock_oracle.quadrature_moments(oracle[1, UNBOUNDED, 1 + 1j][1])
    add(_close("moments: mean_x of center 1+1j", math.sqrt(2.0), moments.mean_x, 1e-6))
    add(_close("moments: mean_p of center 1+1j", math.sqrt(2.0), moments.mean_p, 1e-6))
    add(_close("moments: var_x of center 1+1j + noise 1", 1.5, moments.var_x, 1e-6))
    f_base, base_rho = oracle[1, 2, 1 + 0j]
    del oracle, rhos  # the doubled projector sum below is the suite's largest array

    vacuum = CoherentState(0j)
    for i, (first, second) in enumerate(ADDITIVITY_PAIRS, start=1):
        diff = fock_oracle.cascade_density_check(vacuum, first, second, cutoff, grid)
        tol = 0.0 if second.is_zero else 1e-6
        add(_close(f"cascade additivity pair {i}", 0.0, diff, tol))

    ref_mix = cloner.clone_reduced_output(optimal_cloner(1, 2), CoherentState(1 + 0j))
    fine = fock_oracle.QuadratureGrid(2 * (nodes or quadrature_core.DEFAULT_NODES))
    f_fine, _ = _oracle_fidelity(ref_mix, fine, 2 * base_rho.cutoff)
    add(_close("convergence under doubled cutoff and grid", 0.0, abs(f_fine - f_base), 1e-7))

    spec = cloner.squeezed_variant(1, 2, 0.5)
    sq_fid, _ = _oracle_fidelity(cloner.clone_reduced_output(spec, SqueezedState(0j, 0.5)),
                                 grid, cutoff)
    add(_close("squeezed variant fidelity (1,2,r=0.5)", 2 / 3, sq_fid, 1e-4))
    add(_close("squeezed variant noise product", 0.25,
               spec.noise.var_x * spec.noise.var_p, 0.0))
    return report


def verify_mc(samples: int = 10**6, seed: int = 42) -> VerificationReport:
    """Seeded Monte Carlo checks of the measurement simulations.

    Every outcome is drawn from a homodyne pmf of a state the Fock oracle
    builds.  Statistical comparisons use a five-standard-error allowance.
    """
    quadrature_core._check_int("samples", samples, 2, maximum=estimation_bounds.SAMPLES_LIMIT)
    quadrature_core._check_int("seed", seed, 0)
    import numpy as np

    report = VerificationReport()
    add = report.checks.append
    vacuum = CoherentState(0j)

    seeds = (seed,) + tuple(s for s in SATURATION_SEEDS if s != seed)
    for s, shown in zip(seeds, map(quadrature_core._shown, seeds)):
        rep = simulate_joint_measurement(0.5, vacuum, samples, s)
        add(_close(f"joint measurement var_x (seed {shown})", 1.0, rep.var_x_hat, 5 * rep.stderr_x))
        add(_close(f"joint measurement var_p (seed {shown})", 1.0, rep.var_p_hat, 5 * rep.stderr_p))
        prod = rep.var_x_hat * rep.var_p_hat
        prod_se = math.hypot(rep.var_p_hat * rep.stderr_x, rep.var_x_hat * rep.stderr_p)
        add(_close(f"joint measurement variance product (seed {shown})", 1.0, prod, 5 * prod_se))

    # The saturation runs above keep their named seeds, and the first of them
    # has checked ``seed``; every other run gets its own seed, so no two
    # checks read one rescaled draw.
    runs = 3 + len(HETERODYNE_COPIES)
    derived = iter(int(s) for s in np.random.SeedSequence(seed).generate_state(runs))
    rep = simulate_joint_measurement(0.0, vacuum, samples, next(derived))
    add(_close("noiseless clone var_x", 0.5, rep.var_x_hat, 5 * rep.stderr_x))
    rep = simulate_joint_measurement(1.0, CoherentState(2 + 1j), samples, next(derived))
    add(_close("displaced center var_x at noise 1", 1.5, rep.var_x_hat, 5 * rep.stderr_x))

    root2 = math.sqrt(2.0)
    for n in HETERODYNE_COPIES:
        rep = simulate_heterodyne_estimate(1 + 1j, n, samples, next(derived))
        add(_close(f"heterodyne estimate var_x (N={n})", 1 / n, rep.var_x_hat, 5 * rep.stderr_x))
        add(_close(f"heterodyne estimate var_p (N={n})", 1 / n, rep.var_p_hat, 5 * rep.stderr_p))
        # Both means should be sqrt(2); the check reads the one more standard errors off.
        x, p = (rep.mean_x_hat, rep.var_x_hat), (rep.mean_p_hat, rep.var_p_hat)
        x_worse = abs(x[0] - root2) * math.sqrt(p[1]) >= abs(p[0] - root2) * math.sqrt(x[1])
        mean, var = x if x_worse else p
        add(_close(f"heterodyne estimate unbiased (N={n})",
                   root2, mean, 5 * math.sqrt(var / samples)))

    rep = simulate_heterodyne_estimate(0j, 1, samples, next(derived))
    ratios = estimation_bounds._weight_ratios()
    violations = 0
    for g in ratios:
        weights = MeasurementWeights(g, 1.0)
        lhs = g * rep.var_x_hat + rep.var_p_hat
        slack = 5 * (g * rep.stderr_x + rep.stderr_p)
        if lhs < holevo_rhs(weights, 0.5, 0.5) - slack:
            violations += 1
    add(_count("weighted bound holds across the ratio grid", len(ratios), len(ratios) - violations))

    again = simulate_heterodyne_estimate(0j, 1, samples, rep.seed)
    add(_count("determinism: identical seed, identical report", 1, int(again == rep)))
    return report
