"""Quadrature conventions, state descriptors and Gaussian-noise algebra.

Conventions, fixed here once for the whole package:

* hbar = 1, with quadratures x = (a + a^dag)/sqrt(2) and
  p = (a - a^dag)/(i sqrt(2)), so the vacuum (and every coherent state)
  has quadrature variances var_x = var_p = 1/2.
* A complex amplitude encodes quadrature means as beta = (x + i p)/sqrt(2).
  A coherent state |alpha> is therefore centered at x = sqrt(2) Re(alpha),
  p = sqrt(2) Im(alpha), and displacing by beta adds beta to the amplitude.
* Noise covariances are diagonal, (var_x, var_p), in quadrature-squared
  units.  A Gaussian displacement mixture with these variances displaces
  the amplitude by beta with Re(beta) ~ N(0, var_x/2) and
  Im(beta) ~ N(0, var_p/2).
* Squeezing by r maps variances to (var_x e^{2r}, var_p e^{-2r}) (``_squeezed``);
  a state's own variances obey dx2 * dp2 >= 1/4 (``_check_uncertainty``).

Arguments go through one of four checks: ``_check_int`` (counts, cutoffs,
nodes, samples, seeds, grid sizes; a size that allocates also has an upper
limit), ``_as_amplitude`` (amplitudes, squeezing, tolerance), ``_check_variance``
(finite non-negative reals) and ``_check_type`` (objects: states, noises, specs,
grids).  Numeric results go through one guard, ``_finite``.  Each raises
DomainError, not TypeError, and names a bad value through ``_shown``, which
gives an int too long for Python to print by its bit length.

Everything in this module is an immutable value or a pure function.  Every value
class of the package is a slotted ``_Value`` whose own ``__init__`` checks and
stores its fields.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Real
from operator import attrgetter
from typing import Union

from .errors import DomainError

#: Scalars may be exact (int, Fraction) or floating point; exactness is
#: preserved wherever the inputs allow it.
Scalar = Union[int, float, Fraction]

#: Fock-oracle sizes, numpy-free for verify_fock; hermgauss gives NaN weights from 372 nodes.
DEFAULT_NODES = 41
NODES_LIMIT = 370
CUTOFF_LIMIT = 1024


def _check_int(name: str, value, minimum: int, error=DomainError, maximum=math.inf) -> None:
    """An ``int`` (not a bool) in [minimum, maximum], else ``error``."""
    if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= maximum:
        bounds = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise error(f"{name} must be an integer {bounds}, got {_shown(value)}")


def _shown(value) -> str:
    """``repr(value)``; Python prints no int of more than 4300 digits, so such a
    value is described by its size."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def _check_type(name: str, value, kind: type) -> None:
    """An instance of ``kind``, else DomainError."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _as_amplitude(value, name: str = "amplitude", real: bool = False) -> complex:
    """A finite complex number (with no imaginary part if ``real``), else DomainError."""
    try:
        alpha = complex(value)
        if isinstance(value, (bool, str)):  # complex() takes True and "1"
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a number, got {_shown(value)}") from None
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise DomainError(f"{name} must be finite, got {_shown(value)}")
    if real and alpha.imag:
        raise DomainError(f"{name} must be real, got {_shown(value)}")
    return alpha


def _finite(name: str, compute):
    """``compute()``, a value or tuple; a non-finite float or complex in it is a DomainError."""
    try:
        value = compute()
    except OverflowError:  # math.exp, a float power, an int too large for a float
        value = math.inf
    for v in value if isinstance(value, tuple) else (value,):
        if isinstance(v, (float, complex)) and not all(map(math.isfinite, (v.real, v.imag))):
            raise DomainError(f"{name} overflows the float range")
    return value


#: Types accepted without the (slow) ``numbers.Real`` ABC check; bool is
#: its own type, so it still takes the slow path and is rejected there.
_EXACT_REALS = (int, float, Fraction)


def _check_variance(name: str, value) -> None:
    kind = type(value)
    if kind not in _EXACT_REALS and (isinstance(value, bool) or not isinstance(value, Real)):
        raise DomainError(f"{name} must be a real number, got {_shown(value)}")
    # float() and < on a Fraction are Python-level calls; on its integer parts they are not.
    sign, divisor = (value.numerator, value.denominator) if kind is Fraction else (value, 1)
    try:
        finite = math.isfinite(sign / divisor)
    except OverflowError:  # an exact value beyond the float range
        finite = False
    if not finite or sign < 0:
        raise DomainError(f"{name} must be finite and non-negative, got {_shown(value)}")


def _log(value) -> float:
    """log of a positive variance; an exact one that rounds to 0.0 as a float is
    taken as log(numerator) - log(denominator)."""
    v = float(value)
    return math.log(v) if v else math.log(value.numerator) - math.log(value.denominator)


def _squeezed(var_x, var_p, r: float):
    """The squeezed-frame rule ``(var_x e^{2r}, var_p e^{-2r})``, each entry one exp of
    log(value) +- 2r, so it overflows or underflows only where the result does.  At
    r = 0 and for zero noise the inputs come back unchanged, so exact values stay exact."""
    if r == 0 or not (var_x or var_p):
        return var_x, var_p
    e = 2.0 * r
    return _finite("squeezed variance", lambda: (
        math.exp(_log(var_x) + e) if var_x else 0.0, math.exp(_log(var_p) - e) if var_p else 0.0))


def _check_uncertainty(dx2, dp2) -> None:
    """Intrinsic variances with dx2 * dp2 >= 1/4 up to a relative 1e-12, else DomainError;
    a squeezed vacuum's product rounds by at most 1.2e-13 (one ulp of 2|r| < 711)."""
    _check_variance("dx2", dx2)
    _check_variance("dp2", dp2)
    if not dx2 * dp2 >= 0.25 - 0.25e-12:
        raise DomainError("intrinsic variances violate dx2 * dp2 >= 1/4")


class _Value:
    """Immutable value of ``_fields`` (by default the slots of its classes): equal by exact type
    and fields, through one attrgetter key per class; copied and pickled through its constructor."""

    __slots__ = _fields = ()
    _set = object.__setattr__  # bound to the instance: self._set(name, value)

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls._fields + cls.__dict__.get("__slots__", ()))
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        return self._key(self) == other._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SqueezedState(_Value):
    """Quadrature-squeezed state: var_x = e^{2r}/2, var_p = e^{-2r}/2.

    The uncertainty product stays at the minimum 1/4 for every squeezing
    parameter r; r = 0 reduces to coherent-state semantics.
    """

    __slots__ = ("alpha", "r")

    def __init__(self, alpha: complex, r: float):
        self._set("alpha", _as_amplitude(alpha))
        self._set("r", _as_amplitude(r, "squeezing parameter", real=True).real)

    def quadrature_means(self) -> tuple[float, float]:
        return math.sqrt(2.0) * self.alpha.real, math.sqrt(2.0) * self.alpha.imag

    def quadrature_variances(self) -> tuple[float, float]:
        return _squeezed(0.5, 0.5, self.r)


class CoherentState(SqueezedState):
    """Coherent state |alpha>: the squeezed state with r = 0, variances 1/2."""

    __slots__ = ()
    _fields = ("alpha",)

    def __init__(self, alpha: complex):
        super().__init__(alpha, 0.0)


class NoiseCovariance(_Value):
    """Diagonal covariance of a Gaussian displacement distribution."""

    __slots__ = ("var_x", "var_p")

    def __init__(self, var_x: Scalar, var_p: Scalar):
        _check_variance("var_x", var_x)
        _check_variance("var_p", var_p)
        self._set("var_x", var_x)
        self._set("var_p", var_p)

    @property
    def is_isotropic(self) -> bool:
        return self.var_x == self.var_p

    @property
    def is_zero(self) -> bool:
        return self.var_x == 0 and self.var_p == 0


class GaussianMixtureState(_Value):
    """A center state convolved with a Gaussian displacement distribution.

    Zero noise represents the pure center state; total second moments are
    intrinsic plus noise, per quadrature.
    """

    __slots__ = ("center", "noise")

    def __init__(self, center: SqueezedState, noise: NoiseCovariance):
        _check_type("center", center, SqueezedState)
        _check_type("noise", noise, NoiseCovariance)
        self._set("center", center)
        self._set("noise", noise)

    @property
    def is_pure(self) -> bool:
        return self.noise.is_zero

    def quadrature_means(self) -> tuple[float, float]:
        return self.center.quadrature_means()

    def quadrature_variances(self) -> tuple[float, float]:
        (vx, vp), n = self.center.quadrature_variances(), self.noise
        return _finite("mixture variance", lambda: (vx + float(n.var_x), vp + float(n.var_p)))


def displace(state, beta):
    """Displace a state: amplitudes add, any noise is left untouched.

    The global phase of D(beta) is irrelevant at the density-operator
    level, so displacement is plain complex addition on the center.
    """
    beta = _as_amplitude(beta)
    if isinstance(state, GaussianMixtureState):
        return GaussianMixtureState(displace(state.center, beta), state.noise)
    _check_type("state", state, SqueezedState)
    cls, (alpha, *rest) = state.__reduce__()  # the state's own constructor and arguments
    return cls(alpha + beta, *rest)


def overlap_sq(a, b) -> float:
    """Squared overlap |<a|b>|^2 = exp(-|a - b|^2) of two coherent states."""
    # exp(-d^2) is 0.0 in floats from d = 28 on; the cap keeps d^2 finite.
    return math.exp(-min(abs(_as_amplitude(a) - _as_amplitude(b)), 40.0) ** 2)


def add_noise(n1: NoiseCovariance, n2: NoiseCovariance) -> NoiseCovariance:
    """Convolve two displacement distributions: variances add componentwise."""
    _check_type("first noise", n1, NoiseCovariance)
    _check_type("second noise", n2, NoiseCovariance)
    return NoiseCovariance(n1.var_x + n2.var_x, n1.var_p + n2.var_p)
