"""Truncated-Fock-space oracle for Gaussian displacement mixtures.

Everything here rebuilds states and operators numerically, independently of
the closed-form layer: displaced squeezed vectors D(alpha) S(r)|0> from one
three-term recurrence in the number basis, exact entry by entry (a coherent
vector is the r = 0 column), mixtures by Gauss-Hermite integration over the
displacement distribution, moments read off three diagonals of rho, homodyne
pmfs of x and p on a grid of bins (what the Monte Carlo simulations draw
from), and the cascade channel, which averages its Gaussian shifts in closed
form on one cached real eigh of the p-shift generator H = a^dag + a,
D(i b) = V exp(i b lam) V^T; a real shift is that one turned by a quarter,
D(b) = R^dag D(i b) R with R = diag(i^n).  The channel takes no grid: the
mixture builder is the one reader of the Gauss-Hermite rule.

The displacement integral for a mixture with per-quadrature noise
(var_x, var_p) around a center amplitude alpha is

    rho = (1/pi) sum_jk w_j w_k P(alpha + sqrt(var_x) t_j + i sqrt(var_p) t_k)

with (t, w) the Gauss-Hermite nodes and weights and P(.) the coherent
projector.  The integrand is a Gaussian times entire overlap factors, so
the tensor rule converges spectrally: the n-node rule misses by about
0.5 f^n, with f the larger over the axes of V / (V + Q), V the noise's
variance and Q the center's variance plus the smaller of it and 1/2.  On
a coherent or stretched axis Q is the center's Husimi variance (1 for a
coherent center); on a squeezed axis it is twice the center's variance,
as the error there falls more slowly than the Husimi width says.  The
default grid, _default_grid, takes the fewest nodes that bring 0.5 f^n
under _GRID_EPS = 1e-16, at most DEFAULT_NODES = 41: 19 for noise 1/6
around a coherent center, 33 for noise 1/2 and all 41 from noise 1 on,
where the 41-node rule misses by about 1e-13.  Where 41 nodes leave 0.5 f^n
above DEFAULT_EPS_TRUNC (a squeezed center under noise not squeezed with
it) it takes the fewest up to NODES_LIMIT = 370 that bring it under.  A
degenerate axis (variance 0) collapses to a single node so pure limits are
reproduced without quadrature error.  The lightest nodes, whose weights sum
to at most _DROPPED_MASS = 1e-18, are skipped: no entry of rho moves by more
(955 of the 1681 nodes of the 41-node grid are kept, 344 of the 361 of the
19-node grid, 495 of the 861 with t_p >= 0 of the folded 41-node grid).  One
cached table per node count, noisy axes and fold, _kept_grid, holds the kept
nodes' unit offsets and root weights; it alone reads numpy's hermgauss, once
per table and only for a noisy axis, and QuadratureGrid is just the count.

The sum is built of real symmetric products: _fock_columns writes the
columns D(alpha_k) S(r)|0>, scaled by sqrt(w), row by row into B = [Re; Im],
and rho is read off the blocks of B B^T, so rho is Hermitian to the bit.  A
center on the real axis is its own mirror, the column at conj(a) being
conj(c), so its rho is the real Re Re^T + Im Im^T over the nodes with
t_p >= 0, half the columns and a quarter of the product; a coherent center
under isotropic noise is built there, at |alpha|, and turned (_turn).
Every column comes from that one builder: a coherent center is the squeezed
center with r = 0, and a pure state is the zero-noise mixture, the one-node rule.

The default cutoff, ceil((|alpha| + sqrt(V ln(1/eps)))^2) with V the larger
variance of the clone's total covariance, leaves about eps = 1e-12 of the
trace above it, four decades under DEFAULT_EPS_TRUNC.  Past |r| = 14.7, where
a column's floats fail, it raises DomainError; below, the verdicts decide.

What the cutoff or the default grid loses is judged in one place,
_check_truncation, which raises TruncationError on a value above its limit
or NaN.  It judges five quantities: the norm lost by a state vector, the
trace lost by a mixture, each homodyne pmf's miss of trace(rho), the default
grid's 0.5 f^n, all against DEFAULT_EPS_TRUNC; and the leak of the squeeze
operator's S(r)|0> into the top third of its basis, against _SQUEEZE_TAIL_TOL.
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
#: Quadrature error the default grid aims at, the rounding floor of a unit trace.
_GRID_EPS = 1e-16
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


def _quarter_turn(rho: np.ndarray, k: int) -> np.ndarray:
    """R^k rho R^-k for R = diag(i^n): entry (m, n) times i^(k (m - n)), exact."""
    n = np.arange(rho.shape[0])
    return rho * np.array([1, 1j, -1, -1j])[(k * (n[:, None] - n)) % 4]


class QuadratureGrid(_Value):
    """The node count per axis of a tensor Gauss-Hermite grid, from 2 to NODES_LIMIT.

    Without an argument it has DEFAULT_NODES per axis, the most that
    _default_grid gives a mixture whose error model reaches 1e-16 there.
    Its nodes and weights are read only by _kept_grid.
    """

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


def _default_grid(center: SqueezedState, noise: NoiseCovariance) -> QuadratureGrid:
    """The grid of the fewest nodes n, at most DEFAULT_NODES, with 0.5 f^n <= _GRID_EPS.

    f is the larger over the axes of V / (V + Q), V the noise's variance and Q the center's
    variance q plus min(q, 1/2); the n-node rule misses rho by about 0.5 f^n.  Past 41 nodes n
    is the fewest up to NODES_LIMIT with 0.5 f^n <= DEFAULT_EPS_TRUNC, which _check_truncation
    judges.  Zero noise (f = 0) is the one-node rule, and noise so large that f rounds to 1 has
    no n: both take DEFAULT_NODES, and the cutoff's verdict judges the latter.
    """
    f = max(float(v) / (float(v) + q + min(q, 0.5))
            for v, q in zip((noise.var_x, noise.var_p), center.quadrature_variances()))
    if not 0 < f < 1:
        return QuadratureGrid()
    fine, coarse = (math.ceil(math.log(2 * eps) / math.log(f))
                    for eps in (_GRID_EPS, DEFAULT_EPS_TRUNC))
    n = min(fine, max(coarse, DEFAULT_NODES), NODES_LIMIT)
    _check_truncation("the quadrature error 0.5 f^n", 0.5 * f**n, DEFAULT_EPS_TRUNC, n,
                      "node count")
    return QuadratureGrid(max(2, n))


def _fock_columns(alphas, r: float, cutoff: int, scale=1.0) -> np.ndarray:
    """B = [Re c; Im c] for the columns c = D(a) S(r)|0>, each exact, shape (2 (cutoff+1), K).

    c_n = (b c_{n-1} - t sqrt(n-1) c_{n-2}) / sqrt(n) with t = -tanh r, b = a + conj(a) t and
    c_0 = ``scale`` exp(-|a|^2/2 - conj(a)^2 t/2) / sqrt(cosh r), read off the Bargmann
    function c_0 exp(-t z^2/2 + b z) (Yuen, PRA 13, 2226 (1976)).  At r = 0 the t-terms
    vanish: this is the coherent column.  The recurrence steps through three complex rows,
    each written into B as it is made; a lone column (K = 1) takes the same steps on
    Python complex numbers, which cost a tenth of one-element numpy calls.
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
        b, col = b.item(), [0j, c0.item()]  # c_{-1} = 0: sqrt(n - 1) zeroes it at n = 1
        for n in range(1, d):
            col.append((col[-1] * b - t * math.sqrt(n - 1) * col[-2]) * (1.0 / math.sqrt(n)))
        block[:d, 0], block[d:, 0] = np.real(col[1:]), np.imag(col[1:])
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


def _check_truncation(what: str, value: float, limit: float, size: int, of="cutoff") -> None:
    """The one verdict on what a cutoff or node count loses: above ``limit``, or NaN, it raises."""
    if not value <= limit:
        raise TruncationError(
            f"{of} {size} is too small: {what} is {value:.3e}, above its limit {limit:.1e}"
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
    ``nodes``-point nodes t with probability weights w / sqrt(pi), computed once per table
    and only when an axis is noisy; a quiet axis has the one node 0 of weight 1.  A folded
    grid has the nodes with t_p >= 0, those off the axis weighted for themselves and their
    mirrors (t_x, -t_p).  Kept are all but the lightest nodes, whose weights sum to at most
    _DROPPED_MASS: every entry of a unit column has |c_m c_n| <= 1, so no entry of the sum
    moves by more.  The sort is stable, so the same nodes go for the same weights.
    """
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


def _turn(rho: np.ndarray, phi: float) -> np.ndarray:
    """rho_mn e^{i phi k}, k = m - n, Hermitian to the bit: e^{-i phi k} is conj(e^{i phi k})."""
    n = np.arange(rho.shape[0])
    k = n[:, None] - n
    turn = np.exp(1j * phi * n)[abs(k)]
    return rho * np.where(k < 0, turn.conj(), turn)


def mixture_density_matrix(
    mixture: GaussianMixtureState,
    cutoff: Optional[int] = None,
    grid: Optional[QuadratureGrid] = None,
) -> DensityMatrix:
    """Density operator of a Gaussian displacement mixture: the center's projector
    averaged over the grid's displacements of the noise.

    Without a grid it takes the one its noise needs, _default_grid; zero noise is
    the one-node rule, the pure projector.  With c_k the kept nodes' columns
    D(a_k) S(r)|0>, scaled by sqrt(w_k), and B = [Re c; Im c] as _fock_columns
    writes it, sum_k w_k c_k c_k^dag is (G_rr + G_ii) + i (G_ir - G_ri) for
    G = B B^T, written straight into the real and imaginary parts of rho.  B is
    one block: the largest grid keeps 9636 nodes.  A center on the real axis sums
    each mirror pair c, conj(c) as 2 Re(c c^dag) on the folded grid, so rho is the
    real G_rr + G_ii.  Isotropic noise turns with a coherent center: that rho is
    built at |alpha| and turned.
    """
    _check_type("mixture", mixture, GaussianMixtureState)
    center, noise = mixture.center, mixture.noise
    cutoff = default_cutoff(center, noise) if cutoff is None else cutoff
    _check_int("cutoff", cutoff, 1, maximum=CUTOFF_LIMIT)
    if grid is None:
        grid = _default_grid(center, noise)
    _check_type("grid", grid, QuadratureGrid)
    alpha, phi = center.alpha, 0.0
    if center.r == 0 and noise.is_isotropic and alpha.imag:
        # |alpha| past the float range is inf in hypot: its column is 0 in floats anyway
        alpha, phi = min(math.hypot(alpha.real, alpha.imag), np.finfo(float).max), np.angle(alpha)
    folded = not alpha.imag
    tx, tp, roots = _kept_grid(grid.nodes_per_axis, noise.var_x != 0, noise.var_p != 0, folded)
    bx, bp = math.sqrt(float(noise.var_x)) * tx, math.sqrt(float(noise.var_p)) * tp
    d = cutoff + 1
    block = _fock_columns(alpha + (bx + 1j * bp), center.r, cutoff, roots)
    if folded:  # symmetric products on the contiguous halves Re and Im
        rho = block[:d] @ block[:d].T + block[d:] @ block[d:].T
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

    Both routes are mixture_density_matrix builds on ``grid``, by default each
    the grid its noise needs (_default_grid), and the summed one is built and
    judged first.  Route two is the single mixture with the componentwise noise
    sum, at ``cutoff`` or its default cutoff; a cutoff whose block drops more
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
