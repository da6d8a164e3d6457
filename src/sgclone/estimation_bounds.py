"""Measurement-theoretic variance bounds and seeded Monte Carlo checks.

The bound chain ties cloning to joint x/p estimation: cloning N inputs and
then measuring the clones can never beat the optimal joint measurement on
the inputs themselves.  The optimal joint measurement on N copies reaches
measured-value variance 1/N per quadrature, so the cloning noise must be at
least the gap 1/N - 1/M between the N-copy and M-copy measurement limits --
exactly the optimal cloner's noise variance.

Monte Carlo simulations model measurement outcomes semiclassically: one
Gaussian draw per reported quadrature per sample, with the correct mean and
variance.  The N-copy estimate is one heterodyne of |sqrt(N) alpha>, into
which a beam-splitter network concentrates |alpha>^N.  Only outcome
variances enter the bound chain, so nothing operator-level is needed (the
Fock oracle covers that side); one seeded generator makes runs reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cloner import _check_counts, _Unbounded
from .errors import DomainError
from .quadrature_core import CoherentState, _as_amplitude, _check_int, _check_variance


@dataclass(frozen=True)
class MeasurementWeights:
    """Strictly positive weights (g_x, g_p) for the joint-measurement bound."""

    g_x: float
    g_p: float

    def __post_init__(self):
        for name, g in (("g_x", self.g_x), ("g_p", self.g_p)):
            _check_variance(name, g)
            if not g > 0:
                raise DomainError(f"{name} must be finite and > 0, got {g!r}")


@dataclass(frozen=True)
class VarianceReport:
    """Sample statistics of a simulated measurement run.

    ``stderr_x``/``stderr_p`` are the standard errors of the reported
    sample variances, var * sqrt(2/(samples - 1)) for Gaussian outcomes.
    Identical (scenario, seed, samples) produce an identical report.
    """

    var_x_hat: float
    var_p_hat: float
    stderr_x: float
    stderr_p: float
    mean_x_hat: float
    mean_p_hat: float
    samples: int
    seed: int

    def __post_init__(self):
        _check_int("samples", self.samples, 2)
        _check_int("seed", self.seed, 0)
        for name in ("var_x_hat", "var_p_hat", "stderr_x", "stderr_p"):
            _check_variance(name, getattr(self, name))
        for name in ("mean_x_hat", "mean_p_hat"):
            _as_amplitude(getattr(self, name), name, real=True)


def arthurs_kelly_margin(var_x, var_p):
    """Margin var_x * var_p - 1 of the simultaneous-measurement bound.

    Non-negative for any physically realizable joint measurement of x and p
    on a single copy; a negative margin certifies impossibility.
    """
    _check_variance("var_x", var_x)
    _check_variance("var_p", var_p)
    return var_x * var_p - 1


def holevo_rhs(weights: MeasurementWeights, dx2, dp2):
    """Right-hand side g_x dx2 + g_p dp2 + sqrt(g_x g_p) of the weighted bound.

    ``dx2``/``dp2`` are the intrinsic quadrature variances of the state
    being measured (1/2 each for a coherent state).
    """
    if not isinstance(weights, MeasurementWeights):
        weights = MeasurementWeights(*weights)
    _check_variance("dx2", dx2)
    _check_variance("dp2", dp2)
    if dx2 == 0 or dp2 == 0:
        raise DomainError("intrinsic variances must be positive")
    return weights.g_x * dx2 + weights.g_p * dp2 + math.sqrt(weights.g_x * weights.g_p)


def symmetric_variance_bound(weights: MeasurementWeights, dx2=0.5, dp2=0.5):
    """Lower bound on the common variance of a symmetric joint measurement.

    Dividing the weighted bound by g_x + g_p gives
    (g_x dx2 + g_p dp2 + sqrt(g_x g_p)) / (g_x + g_p); for a coherent state
    this is at most 1 with the maximum attained exactly at g_x = g_p, which
    is why the tightest symmetric bound is variance 1.
    """
    rhs = holevo_rhs(weights, dx2, dp2)
    return rhs / (weights.g_x + weights.g_p)


def weight_ratio_grid(points: int = 61) -> np.ndarray:
    """Log-spaced g_x/g_p ratios spanning [1e-3, 1e3], symmetric about 1.

    ``points`` must be odd so the grid contains the ratio 1.0 exactly.
    """
    _check_int("points", points, 3)
    if points % 2 == 0:
        raise DomainError(f"points must be odd, got {points}")
    half = (points - 1) // 2
    exponents = (np.arange(points) - half) * (3.0 / half)
    return 10.0 ** exponents


def optimal_measurement_variance(n_copies: int) -> Fraction:
    """Minimal isotropic measured-value variance, 1/N, for N copies.

    The single-copy optimum is variance 1 per quadrature; with N
    independent copies the optimal joint measurement repeats it and
    averages, reducing the variance by 1/N.
    """
    _check_counts(n_copies)
    return Fraction(1, n_copies)


def cloning_lower_bound(n_in: int, m_out) -> Fraction:
    """Cloning-noise lower bound 1/N - 1/M from the measurement cascade.

    Equals the optimal noise variance (M - N)/(M N) identically.
    """
    _check_counts(n_in, m_out)
    if isinstance(m_out, _Unbounded):
        return optimal_measurement_variance(n_in)
    return optimal_measurement_variance(n_in) - optimal_measurement_variance(m_out)


def chain_bound_1to2(dx2, dp2, noise_var):
    """Margin (dx2 + noise)(dp2 + noise) - 1 of the cloned-copy bound.

    Measuring x on one clone and p on the other must still respect the
    simultaneous-measurement limit, so the margin is non-negative for any
    realizable 1 -> 2 cloner; for a coherent input that forces
    noise >= 1/2.
    """
    _check_variance("dx2", dx2)
    _check_variance("dp2", dp2)
    _check_variance("cloning noise", noise_var)
    if dx2 * dp2 < 0.25:
        raise DomainError("intrinsic variances violate dx2 * dp2 >= 1/4")
    try:
        return (dx2 + noise_var) * (dp2 + noise_var) - 1
    except OverflowError:  # an exact integer too large to mix with a float
        raise DomainError("chain-bound margin overflows the float range") from None


def _simulate(means, spreads, samples: int, seed: int) -> VarianceReport:
    """Report on ``samples`` outcomes of x ~ N(means[0], spreads[0]^2), then of p likewise.

    The one place outcomes are drawn: each quadrature is one standard normal
    array from the seeded generator, scaled and shifted in place, then
    centred in place so its ddof=1 variance is a dot product.
    """
    _check_int("samples", samples, 2)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    stats = []
    for centre, spread in zip(means, spreads):
        v = rng.standard_normal(samples)
        v *= spread
        v += centre
        mean = float(v.mean())
        v -= mean
        stats += [mean, float(np.dot(v, v)) / (samples - 1)]
    mean_x, var_x, mean_p, var_p = stats
    scale = math.sqrt(2.0 / (samples - 1))
    return VarianceReport(var_x, var_p, var_x * scale, var_p * scale, mean_x, mean_p, samples, seed)


def simulate_joint_measurement(
    noise_var, center: CoherentState, samples: int, seed: int
) -> VarianceReport:
    """Simulate x on one clone and p on the other clone of a 1 -> 2 cloner.

    Each marginal is one Gaussian draw per sample around the center's
    quadrature mean with variance intrinsic + noise, 1/2 + noise_var for a
    coherent input.  The two marginals are drawn independently: only the
    single-clone marginals are modeled; the measured variances need no more.
    """
    _check_variance("cloning noise", noise_var)
    if not isinstance(center, CoherentState):
        raise TypeError("center must be a CoherentState")
    spreads = [math.sqrt(v + float(noise_var)) for v in center.quadrature_variances()]
    return _simulate(center.quadrature_means(), spreads, samples, seed)


def simulate_heterodyne_estimate(alpha, n_copies: int, samples: int, seed: int) -> VarianceReport:
    """Estimate (x, p) from N copies of |alpha> by the concentrated measurement.

    A beam-splitter network concentrates the N copies into |sqrt(N) alpha>
    and N - 1 vacua.  One heterodyne of that mode, divided by sqrt(N), is
    an unbiased estimate with variance 1/N per quadrature, the N-copy
    optimum: one draw per quadrature per sample, whatever N.
    """
    _check_counts(n_copies)
    spread = 1.0 / math.sqrt(n_copies)
    return _simulate(CoherentState(alpha).quadrature_means(), (spread, spread), samples, seed)
