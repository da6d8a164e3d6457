import math

import numpy as np
import pytest

from sgclone import (
    CoherentState,
    DensityMatrix,
    DimensionError,
    DomainError,
    GaussianMixtureState,
    NoiseCovariance,
    QuadratureGrid,
    SqueezedState,
    TruncationError,
    add_noise,
    cascade_density_check,
    coherent_fock_vector,
    default_cutoff,
    fidelity_against,
    mixture_density_matrix,
    quadrature_moments,
    squeeze_fock_matrix,
    squeezed_fock_vector,
    squeezed_variant,
)
from sgclone import fock_oracle

FAST_GRID = QuadratureGrid(21)
#: Displaced centre with anisotropic noise on both stages: neither the
#: centre nor the noise is symmetric under swapping the x and p axes.
ANISOTROPIC_CASCADE = (CoherentState(1 + 1j), NoiseCovariance(0.3, 0.7), NoiseCovariance(0.6, 0.1))
#: Displaced squeezed centre through matched 1 -> 2 -> 4 stages.
SQUEEZED_CASCADE = (
    SqueezedState(1 + 1j, 0.5), squeezed_variant(1, 2, 0.5).noise, squeezed_variant(2, 4, 0.5).noise
)


def make_mixture(alpha, var_x, var_p=None):
    var_p = var_x if var_p is None else var_p
    return GaussianMixtureState(CoherentState(alpha), NoiseCovariance(var_x, var_p))


class TestCoherentFockVector:
    def test_vacuum(self):
        vec = coherent_fock_vector(0, 8)
        assert vec.amplitudes[0] == 1.0
        assert np.all(vec.amplitudes[1:] == 0)

    def test_unit_norm_at_cutoff_32(self):
        assert abs(coherent_fock_vector(1, 32).norm_sq - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1 + 1j, 2 - 1j, 3])
    def test_mean_photon_number(self, alpha):
        n_bar = abs(complex(alpha)) ** 2
        cutoff = math.ceil(n_bar + 10 * math.sqrt(n_bar + 1))
        vec = coherent_fock_vector(alpha, cutoff)
        observed = float(np.arange(cutoff + 1) @ (np.abs(vec.amplitudes) ** 2))
        assert abs(observed - n_bar) < 1e-10

    def test_insufficient_cutoff(self):
        with pytest.raises(TruncationError):
            coherent_fock_vector(4, 8)

    def test_amplitudes_are_immutable(self):
        vec = coherent_fock_vector(1, 16)
        with pytest.raises(ValueError):
            vec.amplitudes[0] = 0


class TestDefaultCutoff:
    def test_clamps_low(self):
        assert default_cutoff(CoherentState(0)) == 32

    def test_grows_with_center_and_noise(self):
        small = default_cutoff(CoherentState(0), NoiseCovariance(0.5, 0.5))
        large = default_cutoff(CoherentState(2 - 1j), NoiseCovariance(1, 1))
        assert 32 <= small < large <= 256

    def test_clamps_high(self):
        assert default_cutoff(CoherentState(12), NoiseCovariance(4, 4)) == 256

    @pytest.mark.parametrize("center, noise", [
        (CoherentState(1e200), NoiseCovariance(0, 0)),
        (CoherentState(complex(1.7e308, 1.7e308)), NoiseCovariance(0, 0)),
        (CoherentState(0), NoiseCovariance(1e308, 0)),
    ])
    def test_float_limit_inputs_get_the_largest_cutoff(self, center, noise):
        assert default_cutoff(center, noise) == fock_oracle.CUTOFF_MAX
        with pytest.raises(TruncationError):
            mixture_density_matrix(GaussianMixtureState(center, noise))

    @pytest.mark.parametrize("r", [0.8, 1.0, 1.2, 1.5, -1.5])
    def test_holds_a_pure_squeezed_center(self, r):
        center = SqueezedState(1 + 1j, r)
        rho = mixture_density_matrix(GaussianMixtureState(center, NoiseCovariance(0, 0)))
        vec = squeezed_fock_vector(center.alpha, r, rho.cutoff)
        assert abs(fidelity_against(vec, rho) - 1) < 1e-5

    def test_squeezing_beyond_the_declared_range_is_a_truncation_error(self):
        with pytest.raises(TruncationError):
            mixture_density_matrix(GaussianMixtureState(SqueezedState(0, 400), NoiseCovariance(0, 0)))


class TestQuadratureGrid:
    @pytest.mark.parametrize("variance", [math.nan, math.inf, -1, "x", None, 1j, True])
    def test_axis_nodes_reject_invalid_variance(self, variance):
        with pytest.raises(DomainError):
            QuadratureGrid(3).axis_nodes(variance)


class TestMixtureDensityMatrix:
    def test_pure_vacuum_projector(self):
        rho = mixture_density_matrix(make_mixture(0, 0), cutoff=8)
        expected = np.zeros((9, 9)); expected[0, 0] = 1
        assert np.array_equal(rho.matrix, expected)

    def test_vacuum_population_at_half_noise(self):
        rho = mixture_density_matrix(make_mixture(0, 0.5))
        assert abs(rho.matrix[0, 0].real - 2 / 3) < 1e-6

    def test_vacuum_population_at_unit_noise(self):
        rho = mixture_density_matrix(make_mixture(0, 1.0))
        assert abs(rho.matrix[0, 0].real - 0.5) < 1e-6

    def test_physicality(self):
        rho = mixture_density_matrix(make_mixture(1 + 1j, 0.5))
        rho.validate()
        assert rho.hermiticity_defect() < 1e-12
        assert rho.min_eigenvalue() > -1e-10

    def test_cutoff_too_small(self):
        with pytest.raises(TruncationError):
            mixture_density_matrix(make_mixture(2 - 1j, 1.0), cutoff=16)


class TestFidelityAgainst:
    def test_projector_of_same_state(self):
        vec = coherent_fock_vector(1 + 1j, 40)
        rho = mixture_density_matrix(make_mixture(1 + 1j, 0), cutoff=40)
        assert fidelity_against(vec, rho) == pytest.approx(1.0, abs=1e-8)

    def test_vacuum_against_half_noise_mixture(self):
        cutoff = default_cutoff(CoherentState(0), NoiseCovariance(0.5, 0.5))
        vec = coherent_fock_vector(0, cutoff)
        rho = mixture_density_matrix(make_mixture(0, 0.5), cutoff=cutoff)
        assert abs(fidelity_against(vec, rho) - 2 / 3) < 1e-6

    def test_vacuum_against_third_noise_mixture(self):
        cutoff = default_cutoff(CoherentState(0), NoiseCovariance(1 / 3, 1 / 3))
        vec = coherent_fock_vector(0, cutoff)
        rho = mixture_density_matrix(make_mixture(0, 1 / 3), cutoff=cutoff)
        assert abs(fidelity_against(vec, rho) - 3 / 4) < 1e-6

    def test_cutoff_mismatch(self):
        with pytest.raises(DimensionError):
            fidelity_against(coherent_fock_vector(0, 16), mixture_density_matrix(make_mixture(0, 0.5)))


class TestQuadratureMoments:
    def test_vacuum(self):
        rho = mixture_density_matrix(make_mixture(0, 0), cutoff=8)
        moments = quadrature_moments(rho)
        assert moments == pytest.approx((0.0, 0.0, 0.5, 0.5), abs=1e-12)

    def test_half_noise_reaches_measurement_variance(self):
        moments = quadrature_moments(mixture_density_matrix(make_mixture(0, 0.5)))
        assert moments.var_x == pytest.approx(1.0, abs=1e-6)
        assert moments.var_p == pytest.approx(1.0, abs=1e-6)

    def test_displaced_unit_noise(self):
        moments = quadrature_moments(mixture_density_matrix(make_mixture(1 + 1j, 1.0)))
        root2 = math.sqrt(2)
        assert moments.mean_x == pytest.approx(root2, abs=1e-6)
        assert moments.mean_p == pytest.approx(root2, abs=1e-6)
        assert moments.var_x == pytest.approx(1.5, abs=1e-6)
        assert moments.var_p == pytest.approx(1.5, abs=1e-6)

    def test_anisotropic_noise(self):
        rho = mixture_density_matrix(make_mixture(0, 0.5, 0.25))
        moments = quadrature_moments(rho)
        assert moments.var_x == pytest.approx(1.0, abs=1e-6)
        assert moments.var_p == pytest.approx(0.75, abs=1e-6)


class TestCascadeDensityCheck:
    def test_half_plus_quarter(self):
        diff = cascade_density_check(
            CoherentState(0), NoiseCovariance(0.5, 0.5), NoiseCovariance(0.25, 0.25),
            grid=FAST_GRID,
        )
        assert diff < 1e-6

    def test_identity_second_stage_is_exact(self):
        diff = cascade_density_check(
            CoherentState(0), NoiseCovariance(0.5, 0.5), NoiseCovariance(0, 0),
            grid=FAST_GRID,
        )
        assert diff == 0.0

    def test_half_plus_half_reaches_measurement_noise(self):
        diff = cascade_density_check(
            CoherentState(0), NoiseCovariance(0.5, 0.5), NoiseCovariance(0.5, 0.5),
            grid=FAST_GRID,
        )
        assert diff < 1e-6

    @pytest.mark.parametrize(
        "first, second",
        [
            (NoiseCovariance(0.5, 0.5), NoiseCovariance(0.25, 0.25)),
            ANISOTROPIC_CASCADE[1:],
        ],
        ids=["isotropic", "anisotropic"],
    )
    def test_displaced_center(self, first, second):
        assert cascade_density_check(CoherentState(1 + 1j), first, second, grid=FAST_GRID) < 1e-6

    @pytest.mark.parametrize("axis, amplitude", [("x", 0.7), ("p", 0.7j)])
    def test_shift_operator_displaces_vacuum(self, axis, amplitude):
        shifted = _shift_operator(82, axis, 0.7)[:41, 0]
        assert np.max(np.abs(shifted - coherent_fock_vector(amplitude, 40).amplitudes)) < 1e-12

    def test_channel_matches_one_shift_per_node(self):
        rho = mixture_density_matrix(make_mixture(1 + 1j, 0.3, 0.7), cutoff=63).matrix
        for axis, variance in (("x", 0.6), ("p", 0.1)):
            expected = _dense_shift_channel(rho, axis, variance, FAST_GRID)
            observed = fock_oracle._shift_channel(rho, axis, variance, FAST_GRID)
            assert np.max(np.abs(observed - expected)) < 1e-12

    @pytest.mark.parametrize("fault", ["swapped axes", "bra shift sign flipped"])
    def test_faulty_channel_fails_on_anisotropic_pair(self, monkeypatch, fault):
        channel = fock_oracle._shift_channel
        if fault == "swapped axes":
            def faulty(rho, axis, variance, grid):
                return channel(rho, {"x": "p", "p": "x"}[axis], variance, grid)
        else:
            def faulty(rho, axis, variance, grid):
                return _dense_shift_channel(rho, axis, variance, grid, adjoint=False)
        monkeypatch.setattr(fock_oracle, "_shift_channel", faulty)
        assert cascade_density_check(*ANISOTROPIC_CASCADE, cutoff=40, grid=FAST_GRID) > 1e-3

    def test_channel_output_is_thermal(self):
        # A vacuum-centred isotropic mixture with noise sigma^2 is thermal, nbar = sigma^2.
        half = NoiseCovariance(0.5, 0.5)
        cutoff = default_cutoff(CoherentState(0), add_noise(half, half))
        d = cutoff + 1
        rho = fock_oracle._cascaded_density(CoherentState(0), half, half, 2 * d, QuadratureGrid())[:d, :d]
        nbar = 1.0
        thermal = np.diag(nbar ** np.arange(d) / (nbar + 1) ** np.arange(1, d + 1))
        assert np.max(np.abs(rho - thermal)) < 1e-10

    def test_squeezed_center(self):
        assert cascade_density_check(*SQUEEZED_CASCADE) < 1e-6

    def test_swapped_axes_fail_on_squeezed_center(self, monkeypatch):
        channel = fock_oracle._shift_channel

        def faulty(rho, axis, variance, grid):
            return channel(rho, {"x": "p", "p": "x"}[axis], variance, grid)

        monkeypatch.setattr(fock_oracle, "_shift_channel", faulty)
        assert cascade_density_check(*SQUEEZED_CASCADE) > 1e-3

    def test_too_small_cutoff_is_a_truncation_error(self):
        # the summed route keeps almost none of |10> at cutoff 4, so the gap is vacuous
        half = NoiseCovariance(0.5, 0.5)
        with pytest.raises(TruncationError):
            mixture_density_matrix(GaussianMixtureState(CoherentState(10), add_noise(half, half)), 4)
        with pytest.raises(TruncationError):
            cascade_density_check(CoherentState(10), half, half, 4, FAST_GRID)

    def test_doubled_padding_does_not_move_the_gap(self, monkeypatch):
        half = NoiseCovariance(0.5, 0.5)
        base = cascade_density_check(CoherentState(0), half, half)
        monkeypatch.setattr(fock_oracle, "_PADDING", 2 * fock_oracle._PADDING)
        assert abs(cascade_density_check(CoherentState(0), half, half) - base) < 1e-12


def _shift_operator(dim, axis, b):
    """D(b) for axis x, D(i b) for axis p, from the generator's spectrum."""
    lam, v = fock_oracle._spectrum(dim, axis)
    sign = -1.0 if axis == "x" else 1.0
    return (v * np.exp(sign * 1j * b * lam)) @ v.conj().T


def _dense_shift_channel(rho, axis, variance, grid, adjoint=True):
    """sum_j w_j D(b_j) rho D(b_j)^dag, one dense shift operator per node.

    ``adjoint=False`` applies D(b_j) on the bra side too, a sign fault.
    """
    offsets, weights = grid.axis_nodes(variance)
    out = np.zeros_like(rho)
    for b, w in zip(offsets, weights):
        shift = _shift_operator(rho.shape[0], axis, b)
        out += w * shift @ rho @ (shift.conj().T if adjoint else shift)
    return out


class TestSqueezing:
    def test_zero_squeezing_is_identity(self):
        assert np.array_equal(squeeze_fock_matrix(0.0, 16), np.eye(17))

    def test_squeezed_vacuum_variances(self):
        s = squeeze_fock_matrix(0.5, 40)
        rho = DensityMatrix(40, np.outer(s[:, 0], s[:, 0].conj()))
        moments = quadrature_moments(rho)
        assert moments.var_x == pytest.approx(math.e / 2, abs=1e-4)
        assert moments.var_p == pytest.approx(math.exp(-1) / 2, abs=1e-4)

    def test_unitary_on_lower_block(self):
        s = squeeze_fock_matrix(0.5, 40)
        block = 2 * 41 // 3
        defect = np.max(np.abs((s.conj().T @ s - np.eye(41))[:block, :block]))
        assert defect < 1e-8

    def test_rejects_r_beyond_declared_range(self):
        with pytest.raises(TruncationError):
            squeeze_fock_matrix(1.6, 128)

    def test_rejects_cutoff_too_small_for_r(self):
        with pytest.raises(TruncationError):
            squeeze_fock_matrix(1.5, 32)

    def test_squeezed_vector_matches_matrix_route(self):
        vec = squeezed_fock_vector(0, 0.5, 40)
        s = squeeze_fock_matrix(0.5, 40)
        assert np.allclose(vec.amplitudes, s[:, 0], atol=1e-12)

    def test_matched_squeezed_cloner_fidelity(self):
        spec = squeezed_variant(1, 2, 0.5)
        center = SqueezedState(0, 0.5)
        cutoff = default_cutoff(center, spec.noise)
        rho = mixture_density_matrix(GaussianMixtureState(center, spec.noise), cutoff=cutoff)
        fid = fidelity_against(squeezed_fock_vector(0, 0.5, cutoff), rho)
        assert abs(fid - 2 / 3) < 1e-4

    def test_displaced_squeezed_center_fidelity_is_translation_invariant(self):
        spec = squeezed_variant(1, 2, 0.5)
        center = SqueezedState(1 - 1j, 0.5)
        cutoff = default_cutoff(center, spec.noise)
        rho = mixture_density_matrix(GaussianMixtureState(center, spec.noise), cutoff=cutoff)
        fid = fidelity_against(squeezed_fock_vector(1 - 1j, 0.5, cutoff), rho)
        assert abs(fid - 2 / 3) < 1e-4


class TestDensityMatrixType:
    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(DomainError):
            DensityMatrix(1, bad)

    def test_validate_flags_negativity(self):
        rho = DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(DomainError):
            rho.validate()

    def test_validate_flags_trace_deficit(self):
        rho = DensityMatrix(1, np.diag([0.9, 0.0]).astype(complex))
        with pytest.raises(TruncationError):
            rho.validate()

    def test_shape_checked(self):
        with pytest.raises(DimensionError):
            DensityMatrix(3, np.eye(3, dtype=complex))


class TestConvergence:
    def test_doubling_changes_nothing_measurable(self):
        mix = make_mixture(1, 0.5)
        base_cut = default_cutoff(mix.center, mix.noise)
        vec = coherent_fock_vector(1, base_cut)
        f_base = fidelity_against(vec, mixture_density_matrix(mix, base_cut, QuadratureGrid(41)))
        vec2 = coherent_fock_vector(1, 2 * base_cut)
        f_fine = fidelity_against(vec2, mixture_density_matrix(mix, 2 * base_cut, QuadratureGrid(82)))
        assert abs(f_base - f_fine) < 1e-7
