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

Every state comes from one row builder for D(alpha) S(r)|0>: a coherent
center is the squeezed center with r = 0, and a pure state is the
zero-noise mixture, the one-node rule.
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
    _check_int,
    _check_variance,
    add_noise,
)

DEFAULT_NODES = 41
#: Largest norm or trace a state may lose to the cutoff.
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


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Hermite grid matched to the Gaussian displacement weight."""

    nodes_per_axis: int = DEFAULT_NODES

    def __post_init__(self):
        _check_int("nodes_per_axis", self.nodes_per_axis, 2)

    def axis_nodes(self, variance) -> tuple[np.ndarray, np.ndarray]:
        """Amplitude offsets and probability weights for one quadrature axis."""
        _check_variance("variance", variance)
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
        _check_int("cutoff", self.cutoff, 1)
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
        _check_int("cutoff", self.cutoff, 1)
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

    def validate(self) -> None:
        """Physicality check: trace within DEFAULT_EPS_TRUNC of 1, no negativity."""
        tr = self.trace()
        if not 1 - DEFAULT_EPS_TRUNC <= tr <= 1 + 1e-12:
            raise TruncationError(f"trace {tr} outside [1 - {DEFAULT_EPS_TRUNC}, 1]")
        if self.min_eigenvalue() < -1e-10:
            raise DomainError(f"negative eigenvalue {self.min_eigenvalue()}")


def default_cutoff(center: CenterState, noise: Optional[NoiseCovariance] = None) -> int:
    """Cutoff rule ceil((|alpha| + 5 sqrt(max var) + 3)^2), clamped to [32, 256].

    Covers the displaced-projector support out to five noise standard
    deviations with Poisson-tail headroom, and a squeezed center's own
    photon tail with ceil(8 e^{2|r|}), |r| taken at most MAX_SQUEEZING.
    The reach |alpha| + 5 sqrt(max var) is capped at sqrt(CUTOFF_MAX): any more gives CUTOFF_MAX.
    """
    vmax = 0.0 if noise is None else float(max(noise.var_x, noise.var_p))
    reach = math.hypot(center.alpha.real, center.alpha.imag) + 5.0 * math.sqrt(vmax)  # maybe inf
    n = math.ceil((min(reach, math.sqrt(CUTOFF_MAX)) + 3.0) ** 2)
    squeezed = math.ceil(8.0 * math.exp(2.0 * min(abs(center.r), MAX_SQUEEZING)))
    return min(CUTOFF_MAX, max(CUTOFF_MIN, n, squeezed))


def _coherent_batch(alphas: np.ndarray, cutoff: int) -> np.ndarray:
    """Rows of coherent vectors via c_0 = e^{-|a|^2/2}, c_n = c_{n-1} a/sqrt(n)."""
    alphas = np.asarray(alphas, dtype=complex)
    out = np.zeros((alphas.size, cutoff + 1), dtype=complex)
    # exp(-|a|^2/2) is 0.0 in floats from |a| = 39 on; the cap keeps |a|^2 finite.
    out[:, 0] = np.exp(-0.5 * np.minimum(np.abs(alphas), 40.0) ** 2)
    for n in range(1, cutoff + 1):
        out[:, n] = out[:, n - 1] * alphas / math.sqrt(n)
    return out


def _check_truncation(kept: float, cutoff: int, what: str) -> None:
    """Reject a norm or trace that lost more than DEFAULT_EPS_TRUNC to the cutoff."""
    deficit = 1.0 - kept
    if deficit > DEFAULT_EPS_TRUNC:
        raise TruncationError(
            f"cutoff {cutoff} drops {deficit:.3e} of {what} (> eps_trunc={DEFAULT_EPS_TRUNC:.1e})"
        )


def squeeze_fock_matrix(r: float, cutoff: int) -> np.ndarray:
    """Squeeze operator exp(r (a^dag^2 - a^2)/2) on the truncated basis.

    Built as V exp(-i r lam) V^dag from the cached spectrum of the
    r-independent generator H = (i/2)(a^dag^2 - a^2).  Applied to vacuum it
    yields var_x = e^{2r}/2, var_p = e^{-2r}/2.  The matrix must be unitary
    to 1e-8 on the lower two thirds of the basis and the squeezed vacuum must
    not leak into the top third; either failure means the cutoff cannot hold
    the requested squeezing.
    """
    r = _as_amplitude(r, "squeezing parameter", real=True).real
    _check_int("cutoff", cutoff, 1)
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


def _state_rows(alphas: np.ndarray, r: float, cutoff: int) -> np.ndarray:
    """Rows D(alpha) S(r)|0>, one per amplitude; plain coherent rows at r = 0.

    D(g) S(r) = S(r) D(g') with Re g' = Re g e^{-r}, Im g' = Im g e^{r}, so a
    squeezed row is a coherent row in that frame with S(r) applied on top.
    """
    if r == 0:
        return _coherent_batch(alphas, cutoff)
    # Built before the batch, so its d x d temporaries are freed first.
    s = squeeze_fock_matrix(r, cutoff)
    frame = alphas.real * math.exp(-r) + 1j * alphas.imag * math.exp(r)
    return _coherent_batch(frame, cutoff) @ s.T


def squeezed_fock_vector(alpha, r: float, cutoff: int) -> FockVector:
    """Displaced squeezed state D(alpha) S(r) |0> on the truncated basis."""
    alpha = _as_amplitude(alpha)
    r = _as_amplitude(r, "squeezing parameter", real=True).real
    _check_int("cutoff", cutoff, 1)
    amp = _state_rows(np.array([alpha]), r, cutoff)[0]
    _check_truncation(float(np.vdot(amp, amp).real), cutoff, f"D({alpha:.3f}) S({r})|0>")
    return FockVector(cutoff, amp)


def coherent_fock_vector(alpha, cutoff: int) -> FockVector:
    """Truncated number-basis expansion of the coherent state |alpha>."""
    return squeezed_fock_vector(alpha, 0.0, cutoff)


def _projector_sum(
    center: CenterState, noise: NoiseCovariance, grid: QuadratureGrid, cutoff: int
) -> np.ndarray:
    """The center's projector averaged over the grid's displacements of the noise.

    Chunked so arbitrarily long node lists keep a flat memory profile; the
    accumulation order is fixed, keeping results reproducible.
    """
    bx, ux = grid.axis_nodes(noise.var_x)
    bp, up = grid.axis_nodes(noise.var_p)
    alphas = (center.alpha + (bx[:, None] + 1j * bp[None, :])).ravel()
    weights = np.outer(ux, up).ravel()
    d = cutoff + 1
    rho = np.zeros((d, d), dtype=complex)
    for start in range(0, alphas.size, _CHUNK):
        vecs = _state_rows(alphas[start : start + _CHUNK], center.r, cutoff)
        rho += (weights[start : start + _CHUNK, None] * vecs).T @ vecs.conj()
    return rho


def mixture_density_matrix(
    mixture: GaussianMixtureState,
    cutoff: Optional[int] = None,
    grid: Optional[QuadratureGrid] = None,
) -> DensityMatrix:
    """Density operator of a Gaussian displacement mixture.

    Sums the center's displaced projectors over the grid; zero noise is
    the one-node rule, the pure projector.
    """
    if not isinstance(mixture, GaussianMixtureState):
        raise TypeError("expected a GaussianMixtureState")
    cutoff = default_cutoff(mixture.center, mixture.noise) if cutoff is None else cutoff
    _check_int("cutoff", cutoff, 1)
    rho = _projector_sum(mixture.center, mixture.noise, grid or QuadratureGrid(), cutoff)
    _check_truncation(float(np.trace(rho).real), cutoff, "the mixture")
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
    center: CenterState,
    noise_first: NoiseCovariance,
    noise_second: NoiseCovariance,
    dim: int,
    grid: QuadratureGrid,
) -> np.ndarray:
    """The first mixture on dim number states, then the second noise as a channel."""
    rho = _projector_sum(center, noise_first, grid, dim - 1)
    rho = _shift_channel(rho, "x", noise_second.var_x, grid)
    return _shift_channel(rho, "p", noise_second.var_p, grid)


def cascade_density_check(
    center: CenterState,
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
    with its axes swapped misses on anisotropic noise.  Coherent and
    squeezed centers run the same code.  A cutoff whose block drops more
    than DEFAULT_EPS_TRUNC of the summed trace raises TruncationError.
    """
    if not isinstance(center, (CoherentState, SqueezedState)):
        raise TypeError("center must be a CoherentState or SqueezedState")
    total = add_noise(noise_first, noise_second)
    cutoff = default_cutoff(center, total) if cutoff is None else cutoff
    _check_int("cutoff", cutoff, 1)
    grid = grid or QuadratureGrid()

    d = cutoff + 1
    dim = _PADDING * d
    rho_cascaded = _cascaded_density(center, noise_first, noise_second, dim, grid)
    rho_summed = _projector_sum(center, total, grid, dim - 1)[:d, :d]
    _check_truncation(float(np.trace(rho_summed).real), cutoff, "the summed mixture")
    return float(np.max(np.abs(rho_cascaded[:d, :d] - rho_summed)))


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
