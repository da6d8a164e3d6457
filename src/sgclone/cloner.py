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
from fractions import Fraction
from functools import total_ordering
from typing import Union

from .errors import (
    CompositionError,
    ContractViolationError,
    DomainError,
    InvalidClonerError,
)
from .quadrature_core import (
    GaussianMixtureState,
    NoiseCovariance,
    Scalar,
    SqueezedState,
    _Value,
    _as_amplitude,
    _check_int,
    _check_type,
    _check_variance,
    _shown,
    _squeezed,
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


def _check_counts(n_in, m_out=UNBOUNDED) -> None:
    """The package's one copy-count check: N >= 1 and M >= N or UNBOUNDED, the default."""
    _check_int("input copy count", n_in, 1, InvalidClonerError)
    if isinstance(m_out, _Unbounded):
        return
    _check_int("output copy count", m_out, 1, InvalidClonerError)
    if m_out < n_in:
        raise InvalidClonerError(
            f"cloning cannot reduce the copy count: {_shown(n_in)} -> {_shown(m_out)}")


@total_ordering
class Fidelity(_Value):
    """Overlap <psi|rho|psi> between the input and one clone, in [0, 1]."""

    __slots__ = ("value",)

    def __init__(self, value: Scalar):
        _check_variance("fidelity", value)
        if value > 1:
            raise DomainError(f"fidelity must lie in [0, 1], got {_shown(value)}")
        self._set("value", value)

    def __lt__(self, other):
        return self.value < other.value if type(other) is type(self) else NotImplemented

    def __float__(self) -> float:
        return float(self.value)


class ClonerSpec(_Value):
    """An N -> M symmetric Gaussian cloner with per-quadrature noise.

    Any non-negative noise is representable (suboptimal cloners are valid
    test subjects for the bound chain); only :func:`optimal_cloner` and
    :func:`squeezed_variant` pin the noise to the optimal value.
    """

    __slots__ = ("n_in", "m_out", "noise")

    def __init__(self, n_in: int, m_out: CopyCount, noise: NoiseCovariance):
        _check_counts(n_in, m_out)
        _check_type("noise", noise, NoiseCovariance)
        self._set("n_in", n_in)
        self._set("m_out", m_out)
        self._set("noise", noise)

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
    return Fidelity(Fraction(1) / (1 + sigma2))  # exact for an exact sigma2, else a float


def fidelity_from_variance(noise: NoiseCovariance) -> Fidelity:
    """Fidelity 1/(1 + sigma^2) of a coherent state under isotropic noise."""
    _check_type("noise", noise, NoiseCovariance)
    return _fidelity_of_variance(_matched_sigma2(0.0, noise))


def optimal_cloner(n_in: int, m_out: CopyCount) -> ClonerSpec:
    """The optimal isotropic N -> M cloner."""
    return ClonerSpec(n_in, m_out, optimal_noise_variance(n_in, m_out))


def cascade(first: ClonerSpec, second: ClonerSpec) -> ClonerSpec:
    """Compose two cloners run back to back; displacement noises convolve."""
    _check_type("first cloner", first, ClonerSpec)
    _check_type("second cloner", second, ClonerSpec)
    if isinstance(first.m_out, _Unbounded) or first.m_out != second.n_in:
        raise CompositionError(
            f"cannot cascade: first cloner yields {_shown(first.m_out)} copies, "
            f"second consumes {_shown(second.n_in)}"
        )
    return ClonerSpec(first.n_in, second.m_out, add_noise(first.noise, second.noise))


def _matched_sigma2(r: float, noise: NoiseCovariance) -> Scalar:
    """Noise variance in the frame where a center squeezed by r has isotropic 1/2 variances.

    The package's one isotropy decision: raises ContractViolationError when the
    noise anisotropy does not match the squeezing r.
    """
    sx, sp = _squeezed(noise.var_x, noise.var_p, -r)
    if sx == sp:
        return sx
    if math.isclose(sx, sp, rel_tol=_MATCH_RTOL, abs_tol=1e-15):
        return (sx + sp) / 2
    raise ContractViolationError(
        f"noise ({_shown(noise.var_x)}, {_shown(noise.var_p)}) does not match the center state"
    )


def clone_reduced_output(cloner: ClonerSpec, state: SqueezedState) -> GaussianMixtureState:
    """Single-clone reduced state: the input convolved with the cloner's noise.

    By symmetry every one of the M clones carries this same state.
    """
    _check_type("cloner", cloner, ClonerSpec)
    _check_type("state", state, SqueezedState)
    _matched_sigma2(state.r, cloner.noise)
    return GaussianMixtureState(center=state, noise=cloner.noise)


def squeezed_variant(n_in: int, m_out: CopyCount, r: float) -> ClonerSpec:
    """Optimal cloner for squeezed states with squeezing parameter r.

    The same map in the squeezed frame: var_x = sigma2 e^{2r} by ``_squeezed``,
    with the optimal isotropic sigma2.  Both entries are exact rationals, var_p
    the exact quotient sigma2^2 / var_x, so the squeezing-invariant product
    var_x * var_p == sigma2^2 holds identically rather than merely to rounding.
    """
    base = optimal_noise_variance(n_in, m_out)
    r = _as_amplitude(r, "squeezing parameter", real=True).real
    if r == 0 or base.var_x == 0:
        return ClonerSpec(n_in, m_out, base)
    try:
        var_x = Fraction(_squeezed(base.var_x, base.var_p, r)[0])
        var_p = Fraction(base.var_x) ** 2 / var_x
        float(var_p)  # every reader of the noise takes it as a float
    except (OverflowError, ZeroDivisionError, DomainError):
        raise DomainError(f"squeezing r={r} takes the noise out of the float range") from None
    return ClonerSpec(n_in, m_out, NoiseCovariance(var_x, var_p))


def mixture_fidelity(mixture: GaussianMixtureState) -> Fidelity:
    """Fidelity of a Gaussian mixture against its own center state.

    Depends only on the matched noise variance, never on the center
    amplitude: every coherent (or matched squeezed) state is cloned
    equally well.
    """
    _check_type("mixture", mixture, GaussianMixtureState)
    return _fidelity_of_variance(_matched_sigma2(mixture.center.r, mixture.noise))
