"""Measurement-theoretic variance bounds and seeded Monte Carlo checks.

The bound chain ties cloning to joint x/p estimation: cloning N inputs and
then measuring the clones can never beat the optimal joint measurement on
the inputs themselves.  The optimal joint measurement on N copies reaches
measured-value variance 1/N per quadrature, so the cloning noise must be at
least the gap 1/N - 1/M between the N-copy and M-copy measurement limits --
exactly the optimal cloner's noise variance.

The Monte Carlo simulations draw their outcomes from the Fock oracle, not
from the closed forms: a state's density matrix is built in the number
basis, its homodyne pmfs of x and p are read off it, and each quadrature's
histogram of ``samples`` outcomes is one seeded multinomial over those
bins.  A wrong state, a wrong rotation or a wrong rescale therefore moves
the reported moments, and the five-standard-error gates can fail.  The
N-copy estimate is one heterodyne of |sqrt(N) alpha>, into which a
beam-splitter network concentrates |alpha>^N: a balanced beam splitter
splits that mode into two copies of |sqrt(N/2) alpha>, x is measured on one
and p on the other, and each outcome is rescaled by sqrt(2/N).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .cloner import _check_counts, _Unbounded
from .errors import DomainError
from .quadrature_core import (
    CoherentState, GaussianMixtureState, NoiseCovariance, _Value, _as_amplitude, _check_int,
    _check_type, _check_uncertainty, _check_variance, _finite,
)

if TYPE_CHECKING:
    import numpy as np

#: Largest sample count a simulation draws.  The outcomes are binned counts,
#: so no array grows with it; past it a count is more likely a typo than a run.
SAMPLES_LIMIT = 10**8
#: Largest point count of a weight-ratio grid (an 8 MB array, from a 32 MB list).
RATIO_POINTS_LIMIT = 10**6 + 1


class MeasurementWeights(_Value):
    """Strictly positive weights (g_x, g_p) for the joint-measurement bound."""

    __slots__ = ("g_x", "g_p")

    def __init__(self, g_x: float, g_p: float):
        for name, g in (("g_x", g_x), ("g_p", g_p)):
            _check_variance(name, g)
            if not g > 0:
                raise DomainError(f"{name} must be finite and > 0, got {g!r}")
            self._set(name, g)


class VarianceReport(_Value):
    """Sample statistics of a simulated measurement run.

    ``stderr_x``/``stderr_p`` are the standard errors of the reported
    sample variances, var * sqrt(2/(samples - 1)) for Gaussian outcomes.
    The formula holds for the simulated ones: every outcome is a quadrature
    marginal of a Gaussian state, drawn from its lattice-sampled density,
    whose moments match the continuous Gaussian's to float precision.
    Identical (scenario, seed, samples) produce an identical report.
    """

    __slots__ = ("var_x_hat", "var_p_hat", "stderr_x", "stderr_p", "mean_x_hat", "mean_p_hat",
                 "samples", "seed")

    def __init__(self, var_x_hat: float, var_p_hat: float, stderr_x: float, stderr_p: float,
                 mean_x_hat: float, mean_p_hat: float, samples: int, seed: int):
        _check_int("samples", samples, 2)
        _check_int("seed", seed, 0)
        values = (var_x_hat, var_p_hat, stderr_x, stderr_p, mean_x_hat, mean_p_hat, samples, seed)
        for name, value in zip(self._fields[:4], values):  # the variances and their errors
            _check_variance(name, value)
        for name, value in zip(self._fields[4:6], values[4:]):  # the means
            _as_amplitude(value, name, real=True)
        for name, value in zip(self._fields, values):
            self._set(name, value)


def arthurs_kelly_margin(var_x, var_p):
    """Margin var_x * var_p - 1 of the simultaneous-measurement bound.

    Non-negative for any physically realizable joint measurement of x and p
    on a single copy; a negative margin certifies impossibility.
    """
    _check_variance("var_x", var_x)
    _check_variance("var_p", var_p)
    return _finite("simultaneous-measurement margin", lambda: var_x * var_p - 1)


def holevo_rhs(weights: MeasurementWeights, dx2, dp2):
    """Right-hand side g_x dx2 + g_p dp2 + sqrt(g_x g_p) of the weighted bound.

    ``dx2``/``dp2`` are the intrinsic variances of the state measured, with
    dx2 * dp2 >= 1/4 (1/2 each for a coherent state).
    """
    _check_type("weights", weights, MeasurementWeights)
    return _weighted_bound(weights.g_x, weights.g_p, dx2, dp2)


def _weighted_bound(g_x, g_p, dx2, dp2):
    """g_x dx2 + g_p dp2 + sqrt(g_x) sqrt(g_p), whose last product alone never overflows."""
    _check_uncertainty(dx2, dp2)
    root = math.sqrt(g_x) * math.sqrt(g_p)
    return _finite("weighted bound", lambda: g_x * dx2 + g_p * dp2 + root)


def symmetric_variance_bound(weights: MeasurementWeights, dx2=0.5, dp2=0.5):
    """Lower bound on the common variance of a symmetric joint measurement.

    Dividing the weighted bound by g_x + g_p gives
    (g_x dx2 + g_p dp2 + sqrt(g_x g_p)) / (g_x + g_p); for a coherent state
    this is at most 1 with the maximum attained exactly at g_x = g_p, which
    is why the tightest symmetric bound is variance 1.  The weights are
    scaled to sum to 1 first, so no term overflows where the bound is finite.
    """
    _check_type("weights", weights, MeasurementWeights)
    scale = max(weights.g_x, weights.g_p)
    g_x, g_p = weights.g_x / scale, weights.g_p / scale
    return _weighted_bound(g_x / (g_x + g_p), g_p / (g_x + g_p), dx2, dp2)


def weight_ratio_grid(points: int = 61) -> np.ndarray:
    """Log-spaced g_x/g_p ratios spanning [1e-3, 1e3], symmetric about 1.

    ``points`` must be odd so the grid contains the ratio 1.0 exactly, and
    at most RATIO_POINTS_LIMIT.  The entries are the floats of _weight_ratios.
    """
    import numpy as np

    return np.array(_weight_ratios(points))


def _weight_ratios(points: int = 61) -> list[float]:
    """weight_ratio_grid as a list of floats, built without numpy."""
    _check_int("points", points, 3, maximum=RATIO_POINTS_LIMIT)
    if points % 2 == 0:
        raise DomainError(f"points must be odd, got {points}")
    half = (points - 1) // 2
    step = 3.0 / half
    return [10.0 ** (k * step) for k in range(-half, half + 1)]


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
    _check_uncertainty(dx2, dp2)
    _check_variance("cloning noise", noise_var)
    return _finite("chain-bound margin", lambda: (dx2 + noise_var) * (dp2 + noise_var) - 1)


@lru_cache(maxsize=32)
def _outcome_pmfs(alpha: complex, noise) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin centres and the x and p pmfs of |alpha> under isotropic ``noise``, read off its rho."""
    from . import fock_oracle

    mixture = GaussianMixtureState(CoherentState(alpha), NoiseCovariance(noise, noise))
    pmfs = fock_oracle._homodyne_pmfs(fock_oracle.mixture_density_matrix(mixture))
    for array in pmfs:
        array.setflags(write=False)
    return pmfs


def _counts_moments(centres: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Mean and ddof=1 variance of the outcomes that fall ``counts`` times on each centre."""
    samples = int(counts.sum())
    mean = float(counts @ centres) / samples
    return mean, float(counts @ (centres - mean) ** 2) / (samples - 1)


def _simulate(alpha: complex, noise, scale: float, samples: int, seed: int) -> VarianceReport:
    """Report on ``samples`` outcomes of x, then of p, on |alpha> under ``noise``, times ``scale``.

    The one place outcomes are drawn: each quadrature's histogram is one
    multinomial over the bins of its pmf (_outcome_pmfs), from one seeded
    generator, and its mean and variance are read off the counts.
    """
    _check_int("samples", samples, 2, maximum=SAMPLES_LIMIT)
    _check_int("seed", seed, 0)
    import numpy as np

    centres, *pmfs = _outcome_pmfs(alpha, noise)
    rng = np.random.default_rng(seed)
    (mean_x, var_x), (mean_p, var_p) = [
        _counts_moments(scale * centres, rng.multinomial(samples, pmf / pmf.sum())) for pmf in pmfs]
    se = math.sqrt(2.0 / (samples - 1))
    return VarianceReport(var_x, var_p, var_x * se, var_p * se, mean_x, mean_p, samples, seed)


def simulate_joint_measurement(
    noise_var, center: CoherentState, samples: int, seed: int
) -> VarianceReport:
    """Simulate x on one clone and p on the other clone of a 1 -> 2 cloner.

    Each clone is the center's coherent state under Gaussian noise of
    variance ``noise_var`` per quadrature, its rho built by the Fock oracle;
    x is drawn from one clone's homodyne pmf, p from the other's.  Only the
    single-clone marginals are modeled; the measured variances need no more.
    """
    _check_variance("cloning noise", noise_var)
    _check_type("center", center, CoherentState)
    return _simulate(center.alpha, noise_var, 1.0, samples, seed)


def simulate_heterodyne_estimate(alpha, n_copies: int, samples: int, seed: int) -> VarianceReport:
    """Estimate (x, p) from N copies of |alpha> by the concentrated measurement.

    A beam-splitter network concentrates the N copies into |sqrt(N) alpha>
    and N - 1 vacua, and a balanced beam splitter splits that mode into two
    copies of |sqrt(N/2) alpha>.  x on one and p on the other, each times
    sqrt(2/N), is an unbiased estimate with variance 1/N per quadrature, the
    N-copy optimum: one draw per quadrature per sample, whatever N.
    """
    _check_counts(n_copies)
    alpha = CoherentState(alpha).alpha
    port = _finite("port amplitude sqrt(N/2) alpha", lambda: math.sqrt(n_copies / 2) * alpha)
    return _simulate(port, 0, math.sqrt(2 / n_copies), samples, seed)
