"""Closed-form engine for N -> M symmetric Gaussian cloners.

The optimal cloner adds per-quadrature noise (M - N)/(M N) to each clone,
which caps the single-clone fidelity at M N / (M N + M - N).  Both values
are kept as exact rationals whenever the copy counts are finite; the
unbounded-output limit (noise 1/N, fidelity N/(N + 1)) is an explicit
marker rather than a large integer, so the limits stay exact too.

Cascading two cloners convolves their displacement distributions, hence
noise variances add; composing optimal cloners therefore telescopes,
1/N - 1/M + 1/M - 1/L = 1/N - 1/L, and stays optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    CompositionError,
    ContractViolationError,
    DomainError,
    InvalidClonerError,
)
from .quadrature_core import (
    CenterState,
    CoherentState,
    GaussianMixtureState,
    NoiseCovariance,
    Scalar,
    SqueezedState,
    _as_amplitude,
    _check_int,
    _check_variance,
    add_noise,
)


class _Unbounded:
    """Singleton marker for an unbounded number of output copies."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"

    def __str__(self):
        return "inf"


UNBOUNDED = _Unbounded()

CopyCount = Union[int, _Unbounded]

# Relative slack when deciding whether float noise matches its center; the
# exact construction paths differ by at most a few ulps.
_MATCH_RTOL = 1e-9


# Default of _check_counts' m_out: only the input count is checked.  Not None,
# so that a None passed as an output count is still rejected.
_INPUT_ONLY = object()


def _check_counts(n_in, m_out=_INPUT_ONLY) -> None:
    """The package's one copy-count check: N >= 1 and, if given, M >= N or UNBOUNDED."""
    _check_int("input copy count", n_in, 1, InvalidClonerError)
    if m_out is _INPUT_ONLY or isinstance(m_out, _Unbounded):
        return
    _check_int("output copy count", m_out, 1, InvalidClonerError)
    if m_out < n_in:
        raise InvalidClonerError(f"cloning cannot reduce the copy count: {n_in} -> {m_out}")


@dataclass(frozen=True, order=True)
class Fidelity:
    """Overlap <psi|rho|psi> between the input and one clone, in [0, 1]."""

    value: Scalar

    def __post_init__(self):
        _check_variance("fidelity", self.value)
        if self.value > 1:
            raise DomainError(f"fidelity must lie in [0, 1], got {self.value!r}")

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class ClonerSpec:
    """An N -> M symmetric Gaussian cloner with per-quadrature noise.

    Any non-negative noise is representable (suboptimal cloners are valid
    test subjects for the bound chain); only :func:`optimal_cloner` and
    :func:`squeezed_variant` pin the noise to the optimal value.
    """

    n_in: int
    m_out: CopyCount
    noise: NoiseCovariance

    def __post_init__(self):
        _check_counts(self.n_in, self.m_out)
        if not isinstance(self.noise, NoiseCovariance):
            raise TypeError("noise must be a NoiseCovariance")

    def meets_noise_bound(self) -> bool:
        """True when the noise product is at or above the optimal bound.

        Uses the squeezing-invariant product var_x * var_p so the test
        applies to anisotropic (squeezed-variant) cloners as well.
        """
        bound = optimal_noise_variance(self.n_in, self.m_out).var_x
        return self.noise.var_x * self.noise.var_p >= bound * bound


def optimal_noise_variance(n_in: int, m_out: CopyCount) -> NoiseCovariance:
    """Lowest admissible per-quadrature noise (M - N)/(M N); 1/N for unbounded M."""
    _check_counts(n_in, m_out)
    if isinstance(m_out, _Unbounded):
        var = Fraction(1, n_in)
    else:
        var = Fraction(m_out - n_in, m_out * n_in)
    return NoiseCovariance(var, var)


def optimal_fidelity(n_in: int, m_out: CopyCount) -> Fidelity:
    """Best single-clone fidelity M N / (M N + M - N); N/(N + 1) for unbounded M."""
    _check_counts(n_in, m_out)
    if isinstance(m_out, _Unbounded):
        return Fidelity(Fraction(n_in, n_in + 1))
    return Fidelity(Fraction(m_out * n_in, m_out * n_in + m_out - n_in))


def _fidelity_of_variance(sigma2: Scalar) -> Fidelity:
    if isinstance(sigma2, (int, Fraction)):
        return Fidelity(Fraction(1) / (1 + Fraction(sigma2)))
    return Fidelity(1.0 / (1.0 + sigma2))


def fidelity_from_variance(noise: NoiseCovariance) -> Fidelity:
    """Fidelity 1/(1 + sigma^2) of a coherent state under isotropic noise."""
    if not noise.is_isotropic:
        raise ContractViolationError(
            "anisotropic noise has no coherent-state fidelity; use the squeezed-variant path"
        )
    return _fidelity_of_variance(noise.var_x)


def optimal_cloner(n_in: int, m_out: CopyCount) -> ClonerSpec:
    """The optimal isotropic N -> M cloner."""
    return ClonerSpec(n_in, m_out, optimal_noise_variance(n_in, m_out))


def cascade(first: ClonerSpec, second: ClonerSpec) -> ClonerSpec:
    """Compose two cloners run back to back; displacement noises convolve."""
    if isinstance(first.m_out, _Unbounded) or first.m_out != second.n_in:
        raise CompositionError(
            f"cannot cascade: first cloner yields {first.m_out!r} copies, "
            f"second consumes {second.n_in!r}"
        )
    return ClonerSpec(first.n_in, second.m_out, add_noise(first.noise, second.noise))


def _matched_sigma2(center: CenterState, noise: NoiseCovariance) -> Scalar:
    """Noise variance in the frame where the center has isotropic 1/2 variances.

    Raises ContractViolationError when the noise anisotropy does not match
    the center's squeezing.
    """
    if center.r != 0:  # at r = 0, keep exact noise exact
        sx = noise.var_x * math.exp(-2.0 * center.r)
        sp = noise.var_p * math.exp(2.0 * center.r)
    else:
        sx, sp = noise.var_x, noise.var_p
    if sx == sp:
        return sx
    if math.isclose(sx, sp, rel_tol=_MATCH_RTOL, abs_tol=1e-15):
        return (sx + sp) / 2
    raise ContractViolationError(
        f"noise ({noise.var_x!r}, {noise.var_p!r}) does not match the center state"
    )


def clone_reduced_output(cloner: ClonerSpec, state: CenterState) -> GaussianMixtureState:
    """Single-clone reduced state: the input convolved with the cloner's noise.

    By symmetry every one of the M clones carries this same state.
    """
    if not isinstance(state, (CoherentState, SqueezedState)):
        raise TypeError(f"unsupported input state {type(state).__name__}")
    _matched_sigma2(state, cloner.noise)
    return GaussianMixtureState(center=state, noise=cloner.noise)


def squeezed_variant(n_in: int, m_out: CopyCount, r: float) -> ClonerSpec:
    """Optimal cloner for squeezed states with squeezing parameter r.

    Same map under quadratures rescaled by e^{+-r}: the noise becomes
    var_x = sigma2 e^{2r}, var_p = sigma2 e^{-2r} with the optimal
    isotropic sigma2.  Both entries are exact rationals, var_p being the
    exact quotient sigma2^2 / var_x, so the squeezing-invariant product
    var_x * var_p == sigma2^2 holds identically rather than merely to
    rounding.
    """
    base = optimal_noise_variance(n_in, m_out)
    r = _as_amplitude(r, "squeezing parameter", real=True).real
    if r == 0 or base.var_x == 0:
        return ClonerSpec(n_in, m_out, base)
    try:
        var_x = Fraction(float(base.var_x) * math.exp(2.0 * r))
        var_p = Fraction(base.var_x) ** 2 / var_x
        float(var_p)  # every reader of the noise takes it as a float
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"squeezing r={r} takes the noise out of the float range") from None
    return ClonerSpec(n_in, m_out, NoiseCovariance(var_x, var_p))


def mixture_fidelity(mixture: GaussianMixtureState) -> Fidelity:
    """Fidelity of a Gaussian mixture against its own center state.

    Depends only on the matched noise variance, never on the center
    amplitude: every coherent (or matched squeezed) state is cloned
    equally well.
    """
    return _fidelity_of_variance(_matched_sigma2(mixture.center, mixture.noise))
