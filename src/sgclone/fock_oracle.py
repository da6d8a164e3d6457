"""Truncated-Fock-space oracle for Gaussian displacement mixtures.

Everything here rebuilds states and operators numerically, independently of
the closed-form layer: coherent vectors from the number-basis expansion
c_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!), mixtures by Gauss-Hermite
integration over the displacement distribution, moments from ladder
matrices, and squeezing and displacement by the exponential of a Hermitian
generator, exp(-i t H) = V exp(-i t lam) V^dag from one cached eigh of H.

The displacement integral for a mixture with per-quadrature noise
(var_x, var_p) around a center amplitude alpha is

    rho = (1/pi) sum_jk w_j w_k P(alpha + sqrt(var_x) t_j + i sqrt(var_p) t_k)

with (t, w) the Gauss-Hermite nodes and weights and P(.) the coherent
projector.  The integrand is a Gaussian times entire overlap factors, so
the tensor rule converges spectrally; a degenerate axis (variance 0)
collapses to a single node so pure limits are reproduced without
quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError, DomainError, SGCloneError, TruncationError
from .quadrature_core import (
    CenterState,
    CoherentState,
    GaussianMixtureState,
    NoiseCovariance,
    SqueezedState,
    _as_amplitude,
    add_noise,
)

DEFAULT_NODES = 41
DEFAULT_EPS_TRUNC = 1e-8
CUTOFF_MIN = 32
CUTOFF_MAX = 256
#: Declared validity range of the squeeze operator at the default cutoffs.
MAX_SQUEEZING = 1.5

_HERMITICITY_TOL = 1e-12
_UNITARITY_TOL = 1e-8
_SQUEEZE_TAIL_TOL = 1e-5
_CHUNK = 65536
#: The cascade channel runs in a basis this many times the cutoff block, so
#: the truncation edge of its shift operators stays far from that block.
_PADDING = 2


@lru_cache(maxsize=32)
def _hermgauss(n: int):
    t, w = np.polynomial.hermite.hermgauss(n)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@lru_cache(maxsize=32)
def _ladder(dim: int) -> np.ndarray:
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    a.setflags(write=False)
    return a


# Hermitian generators: D(b) = exp(-i b H_x) shifts the amplitude by a real
# b, D(i b) = exp(+i b H_p) by an imaginary i b, and S(r) = exp(-i r H_squeeze).
_GENERATORS = {
    "x": lambda a: 1j * (a.T - a),
    "p": lambda a: a.T + a,
    "squeeze": lambda a: 0.5j * (a.T @ a.T - a @ a),
}


@lru_cache(maxsize=32)
def _spectrum(dim: int, generator: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lam, V) of a named generator: exp(-i t H) = V exp(-i t lam) V^dag."""
    lam, v = np.linalg.eigh(_GENERATORS[generator](_ladder(dim)))
    lam.setflags(write=False)
    v.setflags(write=False)
    return lam, v


def _check_cutoff(cutoff) -> int:
    if isinstance(cutoff, bool) or not isinstance(cutoff, int) or cutoff < 1:
        raise DomainError(f"cutoff must be a positive integer, got {cutoff!r}")
    return cutoff


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Hermite grid matched to the Gaussian displacement weight."""

    nodes_per_axis: int = DEFAULT_NODES

    def __post_init__(self):
        n = self.nodes_per_axis
        if isinstance(n, bool) or not isinstance(n, int) or n < 2:
            raise DomainError(f"nodes_per_axis must be an integer >= 2, got {n!r}")

    def axis_nodes(self, variance) -> tuple[np.ndarray, np.ndarray]:
        """Amplitude offsets and probability weights for one quadrature axis."""
        if variance == 0:
            return np.zeros(1), np.ones(1)
        t, w = _hermgauss(self.nodes_per_axis)
        return math.sqrt(float(variance)) * t, w / math.sqrt(math.pi)


@dataclass(frozen=True, eq=False)
class FockVector:
    """State vector over the number states |0>, ..., |cutoff>."""

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_cutoff(self.cutoff)
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (self.cutoff + 1,):
            raise DimensionError(
                f"expected {self.cutoff + 1} amplitudes, got shape {amp.shape}"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        if self.norm_sq > 1 + 1e-12:
            raise DomainError(f"amplitudes exceed unit norm: {self.norm_sq}")

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, near-unit-trace operator on the truncated number basis."""

    cutoff: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_cutoff(self.cutoff)
        mat = np.array(self.matrix, dtype=complex)
        d = self.cutoff + 1
        if mat.shape != (d, d):
            raise DimensionError(f"expected a {d}x{d} matrix, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.hermiticity_defect() > _HERMITICITY_TOL:
            raise DomainError("matrix is not Hermitian within 1e-12")

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def validate(self, eps_trunc: float = DEFAULT_EPS_TRUNC) -> None:
        """Physicality check: trace within eps_trunc of 1, no negativity."""
        tr = self.trace()
        if not 1 - eps_trunc <= tr <= 1 + 1e-12:
            raise TruncationError(f"trace {tr} outside [1 - {eps_trunc}, 1]")
        if self.min_eigenvalue() < -1e-10:
            raise DomainError(f"negative eigenvalue {self.min_eigenvalue()}")


def default_cutoff(center: CenterState, noise: Optional[NoiseCovariance] = None) -> int:
    """Cutoff rule ceil((|alpha| + 5 sqrt(max var) + 3)^2), clamped to [32, 256].

    Covers the displaced-projector support out to five noise standard
    deviations with Poisson-tail headroom.
    """
    vmax = 0.0 if noise is None else float(max(noise.var_x, noise.var_p))
    n = math.ceil((abs(center.alpha) + 5.0 * math.sqrt(vmax) + 3.0) ** 2)
    return min(CUTOFF_MAX, max(CUTOFF_MIN, n))


def _coherent_batch(alphas: np.ndarray, cutoff: int) -> np.ndarray:
    """Rows of coherent vectors via c_0 = e^{-|a|^2/2}, c_n = c_{n-1} a/sqrt(n)."""
    alphas = np.asarray(alphas, dtype=complex)
    out = np.zeros((alphas.size, cutoff + 1), dtype=complex)
    out[:, 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    for n in range(1, cutoff + 1):
        out[:, n] = out[:, n - 1] * alphas / math.sqrt(n)
    return out


def coherent_fock_vector(alpha, cutoff: int, eps_trunc: float = DEFAULT_EPS_TRUNC) -> FockVector:
    """Truncated number-basis expansion of the coherent state |alpha>."""
    alpha = _as_amplitude(alpha)
    _check_cutoff(cutoff)
    amp = _coherent_batch(np.array([alpha]), cutoff)[0]
    deficit = 1.0 - float(np.vdot(amp, amp).real)
    if deficit > eps_trunc:
        raise TruncationError(
            f"cutoff {cutoff} drops {deficit:.3e} of |alpha|={abs(alpha):.3f} "
            f"(> eps_trunc={eps_trunc:.1e})"
        )
    return FockVector(cutoff, amp)


def squeeze_fock_matrix(r: float, cutoff: int) -> np.ndarray:
    """Squeeze operator exp(r (a^dag^2 - a^2)/2) on the truncated basis.

    Built as V exp(-i r lam) V^dag from the cached spectrum of the
    r-independent generator H = (i/2)(a^dag^2 - a^2).  Applied to vacuum it
    yields var_x = e^{2r}/2, var_p = e^{-2r}/2.  The matrix must be unitary
    to 1e-8 on the lower two thirds of the basis and the squeezed vacuum must
    not leak into the top third; either failure means the cutoff cannot hold
    the requested squeezing.
    """
    r = float(r)
    if not math.isfinite(r):
        raise DomainError(f"squeezing parameter must be finite, got {r!r}")
    _check_cutoff(cutoff)
    if abs(r) > MAX_SQUEEZING:
        raise TruncationError(f"|r| <= {MAX_SQUEEZING} is the declared validity range, got {r}")
    dim = cutoff + 1
    if r == 0:
        return np.eye(dim, dtype=complex)
    lam, v = _spectrum(dim, "squeeze")
    s = (v * np.exp(-1j * r * lam)) @ v.conj().T
    block = 2 * dim // 3
    unitarity = np.max(np.abs((s.conj().T @ s - np.eye(dim))[:block, :block]))
    if unitarity > _UNITARITY_TOL:
        raise TruncationError(f"squeeze matrix not unitary on the lower 2/3: defect {unitarity:.2e}")
    tail = float(np.sum(np.abs(s[block:, 0]) ** 2))
    if tail > _SQUEEZE_TAIL_TOL:
        raise TruncationError(
            f"squeezed vacuum leaks {tail:.2e} into the top third of the basis; "
            f"increase the cutoff for r={r}"
        )
    return s


def _squeezed_frame(alphas: np.ndarray, r: float) -> np.ndarray:
    # D(g) S(r) = S(r) D(g'), with Re g' = Re g e^{-r}, Im g' = Im g e^{r}.
    return alphas.real * math.exp(-r) + 1j * alphas.imag * math.exp(r)


def squeezed_fock_vector(
    alpha, r: float, cutoff: int, eps_trunc: float = DEFAULT_EPS_TRUNC
) -> FockVector:
    """Displaced squeezed state D(alpha) S(r) |0> on the truncated basis."""
    alpha = _as_amplitude(alpha)
    s = squeeze_fock_matrix(r, cutoff)
    tilde = _squeezed_frame(np.array([alpha]), float(r))
    amp = s @ _coherent_batch(tilde, cutoff)[0]
    deficit = 1.0 - float(np.vdot(amp, amp).real)
    if deficit > eps_trunc:
        raise TruncationError(
            f"cutoff {cutoff} drops {deficit:.3e} of the squeezed state (r={r})"
        )
    return FockVector(cutoff, np.asarray(amp))


def _displacement_nodes(
    center_alpha: complex, noise: NoiseCovariance, grid: QuadratureGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Displaced amplitudes and weights of the tensor quadrature rule."""
    bx, ux = grid.axis_nodes(noise.var_x)
    bp, up = grid.axis_nodes(noise.var_p)
    alphas = (center_alpha + (bx[:, None] + 1j * bp[None, :])).ravel()
    weights = np.outer(ux, up).ravel()
    return alphas, weights


def _projector_sum(
    alphas: np.ndarray, weights: np.ndarray, cutoff: int, transform: Optional[np.ndarray] = None
) -> np.ndarray:
    """Weighted sum of coherent projectors, optionally conjugated by a matrix.

    Chunked so arbitrarily long node lists keep a flat memory profile; the
    accumulation order is fixed, keeping results reproducible.
    """
    d = cutoff + 1
    rho = np.zeros((d, d), dtype=complex)
    for start in range(0, alphas.size, _CHUNK):
        vecs = _coherent_batch(alphas[start : start + _CHUNK], cutoff)
        if transform is not None:
            vecs = vecs @ transform.T
        rho += (weights[start : start + _CHUNK, None] * vecs).T @ vecs.conj()
    return rho


def mixture_density_matrix(
    mixture: GaussianMixtureState,
    cutoff: Optional[int] = None,
    grid: Optional[QuadratureGrid] = None,
    eps_trunc: float = DEFAULT_EPS_TRUNC,
) -> DensityMatrix:
    """Density operator of a Gaussian displacement mixture.

    Coherent centers sum displaced coherent projectors over the grid;
    squeezed centers ride on the same machinery with every displaced
    amplitude mapped into the squeezed frame and the squeeze matrix applied
    on top.  Zero noise returns the pure projector without integration.
    """
    if not isinstance(mixture, GaussianMixtureState):
        raise TypeError("expected a GaussianMixtureState")
    center = mixture.center
    if cutoff is None:
        cutoff = default_cutoff(center, mixture.noise)
    else:
        _check_cutoff(cutoff)
    if grid is None:
        grid = QuadratureGrid()

    if mixture.is_pure:
        if isinstance(center, SqueezedState) and center.r != 0:
            vec = squeezed_fock_vector(center.alpha, center.r, cutoff, eps_trunc)
        else:
            vec = coherent_fock_vector(center.alpha, cutoff, eps_trunc)
        return DensityMatrix(cutoff, np.outer(vec.amplitudes, vec.amplitudes.conj()))

    alphas, weights = _displacement_nodes(center.alpha, mixture.noise, grid)
    if isinstance(center, SqueezedState) and center.r != 0:
        transform = squeeze_fock_matrix(center.r, cutoff)
        rho = _projector_sum(_squeezed_frame(alphas, center.r), weights, cutoff, transform)
    else:
        rho = _projector_sum(alphas, weights, cutoff)
    deficit = 1.0 - float(np.trace(rho).real)
    if deficit > eps_trunc:
        raise TruncationError(
            f"cutoff {cutoff} drops {deficit:.3e} of the mixture (> eps_trunc={eps_trunc:.1e})"
        )
    return DensityMatrix(cutoff, rho)


def fidelity_against(state: FockVector, rho: DensityMatrix) -> float:
    """Overlap <state|rho|state>; the value must come out real."""
    if state.cutoff != rho.cutoff:
        raise DimensionError(
            f"cutoff mismatch: state has {state.cutoff}, density matrix has {rho.cutoff}"
        )
    value = complex(np.vdot(state.amplitudes, rho.matrix @ state.amplitudes))
    if abs(value.imag) >= 1e-12:
        raise SGCloneError(f"fidelity has a non-negligible imaginary part: {value.imag:.3e}")
    return float(value.real)


def _shift_channel(rho: np.ndarray, axis: str, variance, grid: QuadratureGrid) -> np.ndarray:
    """Average D(b) rho D(b)^dag over the Gauss-Hermite shifts b of one axis.

    In the eigenbasis of the axis generator every shift is diagonal, so the
    average is the Hadamard product of rho with
    K_mn = sum_j w_j exp(-+i b_j (lam_m - lam_n)), a rank-nodes matrix.
    A zero variance leaves rho untouched.
    """
    if variance == 0:
        return rho
    lam, v = _spectrum(rho.shape[0], axis)
    offsets, weights = grid.axis_nodes(variance)
    sign = -1.0 if axis == "x" else 1.0
    phases = np.exp(sign * 1j * np.outer(lam, offsets))
    kernel = (phases * weights) @ phases.conj().T
    return v @ ((v.conj().T @ rho @ v) * kernel) @ v.conj().T


def _cascaded_density(
    center_alpha: complex,
    noise_first: NoiseCovariance,
    noise_second: NoiseCovariance,
    dim: int,
    grid: QuadratureGrid,
) -> np.ndarray:
    """The first mixture on dim number states, then the second noise as a channel."""
    rho = _projector_sum(*_displacement_nodes(center_alpha, noise_first, grid), dim - 1)
    rho = _shift_channel(rho, "x", noise_second.var_x, grid)
    return _shift_channel(rho, "p", noise_second.var_p, grid)


def cascade_density_check(
    center: CoherentState,
    noise_first: NoiseCovariance,
    noise_second: NoiseCovariance,
    cutoff: Optional[int] = None,
    grid: Optional[QuadratureGrid] = None,
) -> float:
    """Max-abs entrywise gap between a cascaded channel and summed-noise mixing.

    Route one builds the first mixture's rho, then applies the second noise
    as an operator channel on it: the average of D(b) rho D(b)^dag over the
    x-shifts, then over the p-shifts, each shift taken from the spectrum of
    its Hermitian generator.  Route two builds a single mixture with the
    componentwise noise sum.  Both live in a basis of _PADDING * (cutoff + 1)
    states and are compared on the leading (cutoff + 1)^2 block.  Agreement
    certifies that cascaded cloners convolve, i.e. variances add; a channel
    with its axes swapped misses on anisotropic noise.
    """
    if not isinstance(center, CoherentState):
        raise TypeError("center must be a CoherentState")
    total = add_noise(noise_first, noise_second)
    if cutoff is None:
        cutoff = default_cutoff(center, total)
    else:
        _check_cutoff(cutoff)
    if grid is None:
        grid = QuadratureGrid()

    d = cutoff + 1
    dim = _PADDING * d
    rho_cascaded = _cascaded_density(center.alpha, noise_first, noise_second, dim, grid)
    rho_summed = _projector_sum(*_displacement_nodes(center.alpha, total, grid), dim - 1)
    return float(np.max(np.abs(rho_cascaded[:d, :d] - rho_summed[:d, :d])))


class QuadratureMoments(NamedTuple):
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float


def quadrature_moments(rho: DensityMatrix) -> QuadratureMoments:
    """Means and variances of x and p from ladder matrices.

    The operators act on a basis two levels larger than the state so the
    quadratic moments see no truncation edge.
    """
    d = rho.cutoff + 1
    padded = np.zeros((d + 2, d + 2), dtype=complex)
    padded[:d, :d] = rho.matrix
    a = _ladder(d + 2)
    x = (a + a.T) / math.sqrt(2.0)
    p = 1j * (a.T - a) / math.sqrt(2.0)
    mean_x = float(np.trace(padded @ x).real)
    mean_p = float(np.trace(padded @ p).real)
    var_x = float(np.trace(padded @ x @ x).real) - mean_x**2
    var_p = float(np.trace(padded @ p @ p).real) - mean_p**2
    return QuadratureMoments(mean_x, mean_p, var_x, var_p)
