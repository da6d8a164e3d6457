"""Truncated-Fock-space oracle for Gaussian displacement mixtures.

Everything here rebuilds states and operators numerically, independently of
the closed-form layer: displaced squeezed vectors D(alpha) S(r)|0> from one
three-term recurrence in the number basis, exact entry by entry, which a lone
column without its z^2 term takes as one running product (_column), mixtures
exactly or as Gauss-Hermite projector sums, moments read off three diagonals
of rho, homodyne pmfs of x and p on a grid of bins (what the Monte Carlo
simulations draw from), and the cascade channel, which averages its Gaussian
shifts in closed form on one cached real eigh of the p-shift generator
H = a^dag + a, D(i b) = V exp(i b lam) V^T, and D(b) = R^dag D(i b) R with R = diag(i^n).

A mixture is the Gaussian state of the centre's mean (m_x, m_p) and the
diagonal covariance V = v + n, centre plus noise.  With S = V + 1/2 per axis,
its Bargmann function <<z| rho |w>> is G00 exp(b.x + x^T A x / 2) in
x = (conj z, w) (Miatto and Quesada, Quantum 4, 366 (2020)), with
A = [[a, c], [c, a]], a = (1/S_p - 1/S_x)/2, c = 1 - (1/S_x + 1/S_p)/2,
b = (beta, conj beta), beta = (m_x/S_x + i m_p/S_p)/sqrt(2) and
G00 = exp(-(m_x^2/S_x + m_p^2/S_p)/2) / sqrt(S_x S_p).  Let u be the lone Fock
column of c_0 exp(beta z + a z^2/2), c_0 = G00^(1/2).  Expanding the cross term
exp(c conj(z) w) = sum_k (c conj(z) w)^k / k!, and z^k sum_j u_j z^j / sqrt(j!)
has the coefficient sqrt(m! / (m-k)!) u_(m-k) at z^m / sqrt(m!), so

    rho = W W^dag,  W[m, k] = sqrt(binom(m, k)) c^(k/2) u_(m-k),

exact on the cutoff block, as k <= min(m, n) there; the roots come from one
table, _pascal_roots.  As v_x v_p = 1/4, c = (V_x n_p + n_x v_p) / (S_x S_p):
in [0, 1), 0 for a pure state, and no difference of near-equal numbers.  The
sum runs over d = cutoff + 1 columns, not hundreds of quadrature nodes.  W's
Toeplitz factor u_(m-k), like the phases of a turn (_turn, _quarter_turn), is
one read-only strided view of a row of 2d - 1 numbers (_toeplitz).

Given a grid, rho is the paper's mixture by definition, the projector sum
(1/pi) sum_jk w_j w_k P(alpha + sqrt(n_x) t_j + i sqrt(n_p) t_k) over the
Gauss-Hermite nodes t and weights w, the route the exact build is checked
against.  The kept nodes of each grid, all but the lightest (_DROPPED_MASS),
are one cached table, _kept_grid, the one reader of numpy's hermgauss.

Both routes put their columns, W's or the nodes' sqrt(w) D(a) S(r)|0> from
_fock_columns, into B = [Re; Im] and read rho off the blocks of the real
B B^T, Hermitian to the bit.  A centre on the real axis has a real W, and a
projector sum that is its own mirror: the column at conj(a) is conj(c), so
rho is Re Re^T + Im Im^T over the nodes with t_p >= 0.  A coherent centre
under isotropic noise is built there, at |alpha|, and turned (_turn).

The default cutoff leaves about _TAIL_EPS = 1e-12 of the trace above it,
four decades under DEFAULT_EPS_TRUNC.  One verdict, _check_truncation, raises
TruncationError on a loss above its limit or NaN: the norm lost by a state
vector, the trace lost by a mixture and each homodyne pmf's miss of
trace(rho), against DEFAULT_EPS_TRUNC, and the leak of the squeeze operator's
S(r)|0> into the top third of its basis, against _SQUEEZE_TAIL_TOL.  A state
vector past |r| = 14.7, where its floats fail, raises DomainError.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError, DomainError, SGCloneError, TruncationError
from .quadrature_core import (
    CUTOFF_LIMIT,
    DEFAULT_NODES,
    NODES_LIMIT,
    GaussianMixtureState,
    NoiseCovariance,
    SqueezedState,
    _Value,
    _as_amplitude,
    _check_int,
    _check_type,
    _finite,
    _shown,
    add_noise,
)

#: Largest norm or trace a state may lose to the cutoff.
DEFAULT_EPS_TRUNC = 1e-8
CUTOFF_MAX = 256

#: Physicality floors: the largest hermiticity defect (also the trace or norm
#: excess over 1) and the lowest eigenvalue a density matrix may carry.
_HERMITICITY_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10
_SQUEEZE_TAIL_TOL = 1e-5
#: Trace a state may hold above its default cutoff.
_TAIL_EPS = 1e-12
#: Largest total weight of the grid nodes a projector sum may skip.
_DROPPED_MASS = 1e-18
#: The cascade channel runs in a basis this many times the cutoff block, so
#: the truncation edge of its shift operators stays far from that block.
_PADDING = 2
#: Bins of a homodyne pmf.
_HOMODYNE_BINS = 512


# Hermitian generators: D(i b) = exp(+i b H_p) shifts the amplitude by an
# imaginary i b, and S(r) = exp(-i r H_squeeze).
_GENERATORS = {
    "p": lambda a: a.T + a,
    "squeeze": lambda a: 0.5j * (a.T @ a.T - a @ a),
}


@lru_cache(maxsize=32)
def _spectrum(dim: int, generator: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lam, V) of a named generator: exp(-i t H) = V exp(-i t lam) V^dag."""
    lam, v = np.linalg.eigh(_GENERATORS[generator](np.diag(np.sqrt(np.arange(1.0, dim)), 1)))
    lam.setflags(write=False)
    v.setflags(write=False)
    return lam, v


def _toeplitz(row: np.ndarray, d: int) -> np.ndarray:
    """The read-only d x d view [..., m, k] = row[..., d - 1 + m - k] of rows of length 2 d - 1."""
    step = row.strides[-1]
    return np.lib.stride_tricks.as_strided(row[..., d - 1:], row.shape[:-1] + (d, d),
                                           row.strides[:-1] + (step, -step), writeable=False)


def _quarter_turn(rho: np.ndarray, k: int) -> np.ndarray:
    """R^k rho R^-k for R = diag(i^n): entry (m, n) times i^(k (m - n)), exact, rho times the
    Toeplitz view of i^(k j) for j = 1 - d ... d - 1."""
    d = rho.shape[0]
    return rho * _toeplitz(np.array([1, 1j, -1, -1j])[(k * np.arange(1 - d, d)) % 4], d)


class QuadratureGrid(_Value):
    """The node count per axis of a tensor Gauss-Hermite grid, 2 to NODES_LIMIT, DEFAULT_NODES
    by default; its nodes and weights are read only by _kept_grid."""

    __slots__ = ("nodes_per_axis",)

    def __init__(self, nodes_per_axis: int = DEFAULT_NODES):
        _check_int("nodes_per_axis", nodes_per_axis, 2, maximum=NODES_LIMIT)
        self._set("nodes_per_axis", nodes_per_axis)


def _frozen_array(name: str, value, shape: tuple) -> np.ndarray:
    """A read-only complex copy of ``value``: finite numbers in ``shape``."""
    try:
        arr = np.asarray(value)
        arr = arr.astype(complex) if arr.dtype.kind in "iufcO" else None  # no bools, no "1"s
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite numbers, got {_shown(value):.60}")
    if arr.shape != shape:
        raise DimensionError(f"expected {name} of shape {shape}, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


class FockVector(_Value):
    """State vector over the number states |0>, ..., |cutoff>; equal only to itself."""

    __slots__ = ("cutoff", "amplitudes")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, cutoff: int, amplitudes: np.ndarray):
        _check_int("cutoff", cutoff, 1)
        self._set("cutoff", cutoff)
        self._set("amplitudes", _frozen_array("amplitudes", amplitudes, (cutoff + 1,)))
        if self.norm_sq > 1 + _HERMITICITY_TOL:
            raise DomainError(f"amplitudes exceed unit norm: {self.norm_sq}")

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


class DensityMatrix(_Value):
    """Hermitian, near-unit-trace operator on the truncated number basis; equal only to itself."""

    __slots__ = ("cutoff", "matrix")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, cutoff: int, matrix: np.ndarray):
        _check_int("cutoff", cutoff, 1)
        self._set("cutoff", cutoff)
        self._set("matrix", _frozen_array("matrix", matrix, (cutoff + 1,) * 2))
        if self.hermiticity_defect() > _HERMITICITY_TOL:
            raise DomainError(f"matrix is not Hermitian within {_HERMITICITY_TOL}")

    def trace(self) -> float:
        with np.errstate(over="ignore"):  # an overflowing trace is rejected by _finite
            return _finite("trace", lambda: float(np.trace(self.matrix).real))

    def hermiticity_defect(self) -> float:
        with np.errstate(over="ignore"):  # an overflowing defect is an infinite one
            return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def default_cutoff(center: SqueezedState, noise: Optional[NoiseCovariance] = None) -> int:
    """Cutoff rule ceil((|alpha| + sqrt(V ln(1/_TAIL_EPS)))^2), at most CUTOFF_MAX.

    V is the larger diagonal entry of the clone's total covariance: the center's e^{+-2r}/2
    plus the noise on that axis.  A thermal state of variance V holds about e^{-n/V} of its
    trace above n; a displacement moves that reach out by |alpha| in sqrt(n).
    """
    _check_type("center", center, SqueezedState)
    noise = NoiseCovariance(0, 0) if noise is None else noise
    _check_type("noise", noise, NoiseCovariance)
    vx, vp = center.quadrature_variances()
    v = max(vx + float(noise.var_x), vp + float(noise.var_p))
    reach = math.hypot(center.alpha.real, center.alpha.imag) + math.sqrt(-v * math.log(_TAIL_EPS))
    return math.ceil(min(reach, math.sqrt(CUTOFF_MAX)) ** 2)


def _fock_columns(alphas, r: float, cutoff: int, scale=1.0) -> np.ndarray:
    """B = [Re c; Im c] for the columns c = D(a) S(r)|0>, each exact, shape (2 (cutoff+1), K).

    c_n = (b c_{n-1} - t sqrt(n-1) c_{n-2}) / sqrt(n) with t = -tanh r, b = a + conj(a) t and
    c_0 = ``scale`` exp(-|a|^2/2 - conj(a)^2 t/2) / sqrt(cosh r), read off the Bargmann
    function c_0 exp(-t z^2/2 + b z) (Yuen, PRA 13, 2226 (1976)).  At r = 0 the t-terms
    vanish: this is the coherent column.  The recurrence steps through three complex rows,
    each written into B as it is made; a lone column (K = 1) takes _column's steps.
    """
    t = -math.tanh(r)
    # Past |r| = 14.7 c_0's exponent at the far cut, of size 1600 / (1 - |t|), rounds by over 1
    if 1.0 - abs(t) < 1600 * 2.0**-52:
        raise DomainError(f"|r| <= 14.7 keeps a Fock column's floats sound, got r = {r:.6g}")
    alphas = np.array(alphas, dtype=complex, ndmin=1)
    radius = np.abs(alphas)
    # Re log c_0 = -(1+t) x^2/2 - (1-t) y^2/2 makes the column 0.0 in floats from
    # |a| = reach on: cutting |a| down to reach there keeps every product finite.
    reach = 40.0 / math.sqrt(1.0 - abs(t))
    far = radius > reach
    for part in (alphas.real, alphas.imag):
        part[far] *= reach / radius[far]
    exponent, b = -0.5 * np.minimum(radius, reach) ** 2, alphas
    if t:
        exponent, b = exponent - 0.5 * t * alphas.conj() ** 2, alphas + t * alphas.conj()
    c0 = scale / math.sqrt(math.cosh(r)) * np.exp(exponent)
    d = cutoff + 1
    block = np.empty((2 * d, alphas.size))
    if alphas.size == 1:
        col = _column(b.item(), t, c0.item(), d)
        block[:d, 0], block[d:, 0] = col.real, col.imag
        return block
    rows = np.empty((3, alphas.size), dtype=complex)
    rows[0] = c0
    # Each row with its float view and its [Re; Im] view, which one copy puts in B.
    cur, new, prev = ((row, row.view(float), row.view(float).reshape(-1, 2).T) for row in rows)
    halves = block.reshape(2, d, -1)
    halves[:, 0] = cur[2]
    for n in range(1, d):
        row, floats, pair = new
        np.multiply(cur[0], b, out=row)
        if t and n > 1:
            floats -= t * math.sqrt(n - 1) * prev[1]
        floats *= 1.0 / math.sqrt(n)
        halves[:, n] = pair
        prev, cur, new = cur, new, prev
    return block


def _column(b: complex, t: float, c0: complex, d: int) -> np.ndarray:
    """c_0 ... c_{d-1} of c0 exp(-t z^2/2 + b z) in the number basis.  At t = 0, one cumprod of
    the running product c_n = c_{n-1} b / sqrt(n); else c_n = (b c_{n-1} - t sqrt(n-1) c_{n-2})
    / sqrt(n), stepped on Python complex numbers: a tenth of the cost of one-element numpy."""
    if not t:
        steps = np.empty(d, dtype=complex)
        steps[0], steps[1:] = c0, b / np.sqrt(np.arange(1.0, d))
        return np.cumprod(steps)
    col = [0j, c0]  # c_{-1} = 0: sqrt(n - 1) zeroes it at n = 1
    for n in range(1, d):
        col.append((col[-1] * b - t * math.sqrt(n - 1) * col[-2]) * (1.0 / math.sqrt(n)))
    return np.array(col[1:])


def _check_truncation(what: str, value: float, limit: float, cutoff: int) -> None:
    """The one verdict on what a cutoff loses: above ``limit``, or NaN, it raises."""
    if not value <= limit:
        raise TruncationError(
            f"cutoff {cutoff} is too small: {what} is {value:.3e}, above its limit {limit:.1e}"
        )


def squeeze_fock_matrix(r: float, cutoff: int) -> np.ndarray:
    """Squeeze operator exp(r (a^dag^2 - a^2)/2) on the truncated basis.

    Built as V exp(-i r lam) V^dag from the cached spectrum of the
    r-independent generator H = (i/2)(a^dag^2 - a^2).  Applied to vacuum it
    yields var_x = e^{2r}/2, var_p = e^{-2r}/2.  _check_truncation judges the
    leak of the squeezed vacuum into the top third of the basis.  No state is
    built with it: it is the route the Fock columns are tested against.
    """
    r = _as_amplitude(r, "squeezing parameter", real=True).real
    _check_int("cutoff", cutoff, 1, maximum=CUTOFF_LIMIT)
    dim = cutoff + 1
    if r == 0:
        return np.eye(dim, dtype=complex)
    lam, v = _spectrum(dim, "squeeze")
    with np.errstate(over="ignore", invalid="ignore"):  # a phase past the float range is NaN,
        s = (v * np.exp(-1j * r * lam)) @ v.conj().T  # which the leak verdict rejects
    _check_truncation(f"the leak of S({r})|0> into the top third",
                      float(np.sum(np.abs(s[2 * dim // 3:, 0]) ** 2)), _SQUEEZE_TAIL_TOL, cutoff)
    return s


def squeezed_fock_vector(alpha, r: float, cutoff: int) -> FockVector:
    """Displaced squeezed state D(alpha) S(r) |0> on the truncated basis, exact entry by entry."""
    alpha = _as_amplitude(alpha)
    r = _as_amplitude(r, "squeezing parameter", real=True).real
    _check_int("cutoff", cutoff, 1, maximum=CUTOFF_LIMIT)
    block, d = _fock_columns(alpha, r, cutoff), cutoff + 1
    amp = block[:d, 0] + 1j * block[d:, 0]
    _check_truncation(f"the norm lost by D({alpha:.3g}) S({r})|0>",
                      1.0 - float(np.vdot(amp, amp).real), DEFAULT_EPS_TRUNC, cutoff)
    return FockVector(cutoff, amp)


def coherent_fock_vector(alpha, cutoff: int) -> FockVector:
    """Truncated number-basis expansion of the coherent state |alpha>."""
    return squeezed_fock_vector(alpha, 0.0, cutoff)


@lru_cache(maxsize=16 * DEFAULT_NODES)  # 4 noisy patterns, folded or not, for 82 node counts
def _kept_grid(nodes: int, noisy_x: bool, noisy_p: bool, folded=False) -> tuple[np.ndarray, ...]:
    """Unit offsets (t_x, t_p) and root weights sqrt(w) of a grid's kept nodes, read-only.

    The one reader of the Gauss-Hermite rule, and its one cache: a noisy axis has numpy's
    nodes t with probability weights w / sqrt(pi), a quiet axis the one node 0 of weight 1.
    A folded grid has the nodes with t_p >= 0, those off the axis weighted for themselves and
    their mirrors (t_x, -t_p).  Kept are all but the lightest nodes, whose weights sum to at
    most _DROPPED_MASS; as |c_m c_n| <= 1 for a unit column, no entry of the sum moves by
    more.  The sort is stable, so the same nodes go for the same weights."""
    quiet = noisy = np.zeros(1), np.ones(1)
    if noisy_x or noisy_p:
        t, w = np.polynomial.hermite.hermgauss(nodes)
        noisy = t, w / math.sqrt(math.pi)
    (tx, ux), (tp, up) = (noisy if axis else quiet for axis in (noisy_x, noisy_p))
    if folded:  # the Gauss-Hermite rule is mirror-symmetric to the bit
        tp, up = tp[tp >= 0], np.where(tp > 0, 2 * up, up)[tp >= 0]
    weights = np.outer(ux, up).ravel()
    order = np.argsort(weights, kind="stable")
    keep = np.ones(weights.size, dtype=bool)
    keep[order[:np.searchsorted(np.cumsum(weights[order]), _DROPPED_MASS, side="right")]] = False
    table = (np.repeat(tx, tp.size)[keep], np.tile(tp, tx.size)[keep], np.sqrt(weights[keep]))
    for column in table:
        column.setflags(write=False)
    return table


_pascal = np.ones((1, 1))


def _pascal_roots(d: int) -> np.ndarray:
    """sqrt(binom(m, k)) for m, k < d, 0 above the diagonal, by Pascal's rule in floats (within
    2.5 ulps of the exact roots at d = 1025).  One table, kept at the largest d up to
    CUTOFF_MAX + 1 asked for and sliced, holds at most 257^2 floats; a larger d builds its own."""
    global _pascal
    if d <= len(_pascal):
        return _pascal[:d, :d]
    table = np.zeros((d, d))
    table[:, 0] = 1.0
    for m in range(1, d):
        table[m, 1:m + 1] = table[m - 1, :m] + table[m - 1, 1:m + 1]
    np.sqrt(table, out=table)
    table.setflags(write=False)
    if d <= CUTOFF_MAX + 1:
        _pascal = table
    return table


def _gaussian_factor(mixture: GaussianMixtureState, alpha: complex, d: int) -> np.ndarray:
    """[Re W; Im W], or W if real, for the exact rho = W W^dag on d levels around ``alpha``
    (the centre's, or its modulus to be turned), as the module docstring derives.  A mean so
    far out that c_0 underflows makes u zero, never NaN, and the trace verdict refuses it."""
    (_, v_p), (big_x, big_p) = mixture.center.quadrature_variances(), mixture.quadrature_variances()
    n_x, n_p = float(mixture.noise.var_x), float(mixture.noise.var_p)
    s_x, s_p, x, y = big_x + 0.5, big_p + 0.5, float(alpha.real), float(alpha.imag)
    c = big_x / s_x * (n_p / s_p) + n_x / s_x * (v_p / s_p)
    c0 = math.exp(-0.5 * (x * (x / s_x) + y * (y / s_p))) * s_x**-0.25 * s_p**-0.25
    u = (_column(complex(x / s_x, y / s_p), 0.5 * (1 / s_x - 1 / s_p), c0, d) if c0
         else np.zeros(d, dtype=complex))
    padded = np.zeros((2 if y else 1, 2 * d - 1))
    padded[:, d - 1:] = (u.real, u.imag) if y else u.real
    # [h, m, k] = u_(m-k), and 0 for k > m: the lower-triangular Toeplitz matrix of u
    return (_toeplitz(padded, d) * (_pascal_roots(d) * c ** (0.5 * np.arange(d)))).reshape(-1, d)


def _turn(rho: np.ndarray, phi: float) -> np.ndarray:
    """rho_mn e^{i phi k}, k = m - n, Hermitian to the bit: rho times the Toeplitz view of
    conj(e^{i phi (d-1)}), ..., 1, ..., e^{i phi (d-1)}, as e^{-i phi k} is conj(e^{i phi k})."""
    turn = np.exp(1j * phi * np.arange(rho.shape[0]))
    return rho * _toeplitz(np.concatenate((turn[:0:-1].conj(), turn)), rho.shape[0])


def mixture_density_matrix(
    mixture: GaussianMixtureState,
    cutoff: Optional[int] = None,
    grid: Optional[QuadratureGrid] = None,
) -> DensityMatrix:
    """Density operator of a Gaussian displacement mixture: the center's projector
    averaged over the displacements of the noise.

    Without a grid it is exact, W W^dag over the d columns of _gaussian_factor; with
    one, the projector sum over its kept nodes.  With B = [Re; Im] of the columns,
    rho is (G_rr + G_ii) + i (G_ir - G_ri) for G = B B^T, written straight into its
    real and imaginary parts; a real W, or a grid folded on its mirror, has the real
    G_rr + G_ii.  A coherent center under isotropic noise is built at |alpha| and turned.
    """
    _check_type("mixture", mixture, GaussianMixtureState)
    center, noise = mixture.center, mixture.noise
    cutoff = default_cutoff(center, noise) if cutoff is None else cutoff
    _check_int("cutoff", cutoff, 1, maximum=CUTOFF_LIMIT)
    alpha, phi = center.alpha, 0.0
    if center.r == 0 and noise.is_isotropic and alpha.imag:
        # |alpha| past the float range is inf in hypot: its column is 0 in floats anyway
        alpha, phi = min(math.hypot(alpha.real, alpha.imag), np.finfo(float).max), np.angle(alpha)
    folded, d = not alpha.imag, cutoff + 1
    if grid is None:
        block = _gaussian_factor(mixture, alpha, d)
    else:
        _check_type("grid", grid, QuadratureGrid)
        tx, tp, roots = _kept_grid(grid.nodes_per_axis, noise.var_x != 0, noise.var_p != 0, folded)
        bx, bp = math.sqrt(float(noise.var_x)) * tx, math.sqrt(float(noise.var_p)) * tp
        block = _fock_columns(alpha + (bx + 1j * bp), center.r, cutoff, roots)
    if folded:  # symmetric products on the contiguous halves Re and Im; a real W has no Im
        re, im = block[:d], block[d:]
        rho = re @ re.T + im @ im.T if im.size else re @ re.T
        rho = _turn(rho, phi) if phi else rho
    else:
        gram = block @ block.T
        rho = np.empty((d, d), dtype=complex)
        np.add(gram[:d, :d], gram[d:, d:], out=rho.real)
        np.subtract(gram[d:, :d], gram[:d, d:], out=rho.imag)
    del block  # the largest array here: free it before DensityMatrix copies rho
    _check_truncation("the trace lost by the mixture", 1.0 - float(np.trace(rho).real),
                      DEFAULT_EPS_TRUNC, cutoff)
    return DensityMatrix(cutoff, rho)


def fidelity_against(state: FockVector, rho: DensityMatrix) -> float:
    """Overlap <state|rho|state>; the value must come out real."""
    _check_type("state", state, FockVector)
    _check_type("rho", rho, DensityMatrix)
    if state.cutoff != rho.cutoff:
        raise DimensionError(
            f"cutoff mismatch: state has {state.cutoff}, density matrix has {rho.cutoff}"
        )
    amps = state.amplitudes
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected by _finite
        value = _finite("fidelity", lambda: complex(np.vdot(amps, rho.matrix @ amps)))
    if abs(value.imag) >= 1e-12:
        raise SGCloneError(f"fidelity has a non-negligible imaginary part: {value.imag:.3e}")
    return float(value.real)


def _shift_channel(rho: np.ndarray, axis: str, variance) -> np.ndarray:
    """Average D(b) rho D(b)^dag over the Gaussian shifts b ~ N(0, variance/2) of one axis.

    In the real eigenbasis of H_p every shift D(i b) is diagonal, so the p
    average is the Hadamard product of rho with the characteristic function
    of b, K_mn = exp(-variance (lam_m - lam_n)^2 / 4), exact: no grid.  The x
    average is the p average of rho turned by R = diag(i^n), turned back, as
    D(b) = R^dag D(i b) R.  A zero variance leaves rho untouched.
    """
    if variance == 0:
        return rho
    lam, v = _spectrum(rho.shape[0], "p")
    with np.errstate(over="ignore"):  # an exponent past the float range makes an entry 0
        kernel = np.exp(-0.25 * float(variance) * np.subtract.outer(lam, lam) ** 2)
    if axis == "x":
        rho = _quarter_turn(rho, 1)
    # V^T M for a C-ordered complex M is one real product on its [Re, Im] columns;
    # M V is (V^T M^T)^T, so each side takes one transposed copy.
    left = (v.T @ rho.view(float)).view(complex)
    inner_t = (v.T @ np.ascontiguousarray(left.T).view(float)).view(complex)
    inner_t *= kernel
    right = (v @ inner_t.view(float)).view(complex)
    out = (v @ np.ascontiguousarray(right.T).view(float)).view(complex)
    return _quarter_turn(out, -1) if axis == "x" else out


def cascade_density_check(
    center: SqueezedState,
    noise_first: NoiseCovariance,
    noise_second: NoiseCovariance,
    cutoff: Optional[int] = None,
    grid: Optional[QuadratureGrid] = None,
) -> float:
    """Max-abs entrywise gap between a cascaded channel and summed-noise mixing.

    Both routes are mixture_density_matrix builds, exact or on ``grid`` if one
    is given, and the summed one is built and judged first.  Route two is the
    single mixture with the componentwise noise sum, at ``cutoff`` or its
    default cutoff; a cutoff whose block drops more
    than DEFAULT_EPS_TRUNC of its trace raises TruncationError there.  Route one
    builds the first mixture at that cutoff (with less noise, it drops less),
    puts it into a basis of _PADDING * (cutoff + 1) states, and applies the
    second noise as an operator channel on it there: the Gaussian average of
    D(b) rho D(b)^dag over the x-shifts, then over the p-shifts, both in closed
    form on the one real spectrum of the p generator (_shift_channel).  The
    padding keeps the truncation edge of the shift operators far from the
    compared block, the (cutoff + 1)^2 one.  Agreement certifies that cascaded
    cloners convolve, i.e. variances add; a channel with its axes swapped misses
    on anisotropic noise.  Coherent and squeezed centers run the same code.
    """
    summed = mixture_density_matrix(
        GaussianMixtureState(center, add_noise(noise_first, noise_second)), cutoff, grid)
    d = summed.cutoff + 1
    rho_cascaded = np.zeros((_PADDING * d,) * 2, dtype=complex)
    rho_cascaded[:d, :d] = mixture_density_matrix(
        GaussianMixtureState(center, noise_first), summed.cutoff, grid).matrix
    rho_cascaded = _shift_channel(rho_cascaded, "x", noise_second.var_x)
    rho_cascaded = _shift_channel(rho_cascaded, "p", noise_second.var_p)
    return float(np.max(np.abs(rho_cascaded[:d, :d] - summed.matrix)))


class QuadratureMoments(NamedTuple):
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float


def quadrature_moments(rho: DensityMatrix) -> QuadratureMoments:
    """Means and variances of x and p, read off three diagonals of rho.

    With <a> = sum_n sqrt(n) rho[n, n-1], <a^2> = sum_n sqrt(n (n-1)) rho[n, n-2]
    and <a^dag a + 1/2> = sum_n (n + 1/2) rho[n, n]: <x> + i <p> = sqrt(2) <a>
    and <x^2>, <p^2> = <a^dag a + 1/2> +- Re <a^2>, with no truncation edge.
    """
    _check_type("rho", rho, DensityMatrix)
    m, n = rho.matrix, np.arange(rho.cutoff + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected by _finite
        a = complex(np.sqrt(n[1:]) @ np.diagonal(m, -1))
        a2 = float((np.sqrt(n[2:] * n[1:-1]) @ np.diagonal(m, -2)).real)
        number = float((n + 0.5) @ np.diagonal(m).real)
    x, p = math.sqrt(2.0) * a.real, math.sqrt(2.0) * a.imag
    return _finite("a quadrature moment", lambda: QuadratureMoments(
        x, p, number + a2 - x**2, number - a2 - p**2))


def _homodyne_pmfs(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin centres t and the probabilities of x and of p in each bin, read off rho.

    The _HOMODYNE_BINS centres span +-(sqrt(2 d + 1) + 6) for a d x d rho, past
    the turning point of every number state it holds.  With psi_n the Hermite
    functions and h the bin width, P_x = h diag(Psi^T Re(rho) Psi): the
    imaginary part of rho is antisymmetric and drops out.  P_p is the same on
    rho rotated by the phases (-i)^n, as <p|n> = (-i)^n psi_n(p).  Summed on
    the lattice, a smooth density's mean and variance match the continuous
    ones to about exp(-2 pi^2 var / h^2), which is 0 in floats here.  A pmf
    that misses trace(rho) by more than DEFAULT_EPS_TRUNC, as for a number
    state above CUTOFF_MAX that the bins cannot resolve, raises TruncationError.
    """
    d = rho.cutoff + 1
    t = np.linspace(-1.0, 1.0, _HOMODYNE_BINS) * (math.sqrt(2 * d + 1) + 6)
    psi = np.empty((d, t.size))
    psi[0] = math.pi**-0.25 * np.exp(-0.5 * t * t)
    psi[1] = math.sqrt(2.0) * t * psi[0]
    for n in range(1, d - 1):
        psi[n + 1] = math.sqrt(2 / (n + 1)) * t * psi[n] - math.sqrt(n / (n + 1)) * psi[n - 1]
    rotated = _quarter_turn(rho.matrix, -1)
    h = t[1] - t[0]
    pmfs = [h * np.einsum("nk,nk->k", psi, m.real @ psi) for m in (rho.matrix, rotated)]
    for quadrature, pmf in zip("xp", pmfs):
        _check_truncation(f"the {quadrature} pmf's miss of trace(rho)",
                          abs(pmf.sum() - rho.trace()), DEFAULT_EPS_TRUNC, rho.cutoff)
    # Rounding leaves entries near -1e-25 where a density vanishes; a pmf has none.
    return t, *(np.maximum(pmf, 0.0) for pmf in pmfs)
