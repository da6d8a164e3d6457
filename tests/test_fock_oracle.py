import functools
import math
import warnings

import numpy as np
import pytest

from sgclone import (
    CoherentState,
    DensityMatrix,
    DimensionError,
    DomainError,
    FockVector,
    GaussianMixtureState,
    NoiseCovariance,
    QuadratureGrid,
    SGCloneError,
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
from sgclone.verify import ADDITIVITY_PAIRS

FAST_GRID = QuadratureGrid(21)
#: The default grid's double.
FINE_GRID = QuadratureGrid(82)
#: Displaced centre with anisotropic noise on both stages: neither the
#: centre nor the noise is symmetric under swapping the x and p axes.
ANISOTROPIC_CASCADE = (CoherentState(1 + 1j), NoiseCovariance(0.3, 0.7), NoiseCovariance(0.6, 0.1))
#: Displaced squeezed centre through matched 1 -> 2 -> 4 stages.
SQUEEZED_CASCADE = (
    SqueezedState(1 + 1j, 0.5), squeezed_variant(1, 2, 0.5).noise, squeezed_variant(2, 4, 0.5).noise
)


def axis_rule(nodes, variance):
    """Offsets sqrt(variance) t and probability weights w / sqrt(pi) of numpy's rule on one axis.

    A zero variance is the one node 0 of weight 1.  The test sums read the rule here, not
    through the scaling code they check.
    """
    if variance == 0:
        return np.zeros(1), np.ones(1)
    t, w = np.polynomial.hermite.hermgauss(nodes)
    return math.sqrt(float(variance)) * t, w / math.sqrt(math.pi)


def truncated(quantity):
    """The one verdict's wording, naming what the cutoff lost."""
    return rf"^cutoff \d+ is too small: {quantity} is \S+, above its limit \S+$"


def make_mixture(alpha, var_x, var_p=None):
    var_p = var_x if var_p is None else var_p
    return GaussianMixtureState(CoherentState(alpha), NoiseCovariance(var_x, var_p))


def built_rho(center, noise, grid, cutoff):
    """The matrix mixture_density_matrix builds for ``center`` under ``noise``."""
    return mixture_density_matrix(GaussianMixtureState(center, noise), cutoff, grid).matrix


class TestTruncationVerdict:
    def test_a_loss_at_its_limit_passes(self):
        fock_oracle._check_truncation("the norm lost", 1e-10, 1e-10, 8)

    @pytest.mark.parametrize("value", [2e-10, math.inf, math.nan])
    def test_a_loss_above_its_limit_or_nan_is_a_truncation_error(self, value):
        # a NaN loss says nothing was kept, so it must not pass as a small one
        with pytest.raises(TruncationError, match=truncated("the norm lost")):
            fock_oracle._check_truncation("the norm lost", value, 1e-10, 8)

    def test_a_huge_amplitude_is_named_in_a_short_message(self):
        message = truncated(r"the norm lost by D\(\S+\) S\(0\.0\)\|0>")
        with pytest.raises(TruncationError, match=message) as error:
            coherent_fock_vector(8.988465674311579e+307 + 8.98846567431158e+307j, 32)
        assert len(str(error.value)) <= 150


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
        with pytest.raises(TruncationError, match=truncated(r"the norm lost by D\(4\+0j\) S\(0\.0\)\|0>")):
            coherent_fock_vector(4, 8)

    def test_amplitudes_are_immutable(self):
        vec = coherent_fock_vector(1, 16)
        with pytest.raises(ValueError):
            vec.amplitudes[0] = 0


#: A coherent grid with isotropic and anisotropic noise, pure states included.
COHERENT_GRID = [
    (CoherentState(alpha), NoiseCovariance(*noise))
    for alpha in (0, 1 + 1j, 2 - 1j, 3j)
    for noise in ((0, 0), (1 / 3, 1 / 3), (0.5, 0.5), (1, 1), (2, 2), (0.3, 0.7), (1, 0.25), (0, 1))
]


def tail_losses(center, noise, cutoff, extra=40):
    """losses[c]: the trace a build at cutoff c loses, off the diagonal of one larger build."""
    rho = mixture_density_matrix(GaussianMixtureState(center, noise), cutoff + extra)
    return np.cumsum(np.diagonal(rho.matrix).real[::-1])[::-1][1:]


class TestDefaultCutoff:
    def test_clamps_low(self):
        # the pure vacuum: ceil(ln(1e12) / 2)
        assert default_cutoff(CoherentState(0)) == 14

    def test_grows_with_center_and_noise(self):
        small = default_cutoff(CoherentState(0), NoiseCovariance(0.5, 0.5))
        large = default_cutoff(CoherentState(2 - 1j), NoiseCovariance(1, 1))
        assert small < large <= 256

    @pytest.mark.parametrize("center, noise", COHERENT_GRID)
    def test_loses_at_most_its_tail_eps(self, center, noise):
        cutoff = default_cutoff(center, noise)
        assert tail_losses(center, noise, cutoff)[cutoff] <= fock_oracle._TAIL_EPS

    @pytest.mark.parametrize("center, noise",
                             [(c, n) for c, n in COHERENT_GRID if n.var_x == n.var_p])
    def test_is_near_the_least_cutoff_that_meets_its_tail_eps(self, center, noise):
        cutoff = default_cutoff(center, noise)
        least = int(np.argmax(tail_losses(center, noise, cutoff) <= fock_oracle._TAIL_EPS))
        assert least <= cutoff <= least + 16

    @pytest.mark.parametrize("center, noise", [
        (SqueezedState(2, -0.5), NoiseCovariance(0, 0)),
        (SqueezedState(-2j, 1.2), NoiseCovariance(0.3, 0.3)),
        (SqueezedState(0, 1.2), NoiseCovariance(1, 1)),
        (SqueezedState(0, -1.2), NoiseCovariance(1, 1)),
    ])
    def test_builds_displaced_squeezed_centers(self, center, noise):
        rho = mixture_density_matrix(GaussianMixtureState(center, noise))
        assert rho.cutoff == default_cutoff(center, noise)
        assert rho.trace() >= 1 - fock_oracle.DEFAULT_EPS_TRUNC

    def test_clamps_high(self):
        assert default_cutoff(CoherentState(12), NoiseCovariance(4, 4)) == 256

    def test_a_squeezed_centre_past_the_cap_takes_an_explicit_cutoff(self):
        # The README's example: at the cap of 256 the mixture loses 1.5e-8 of
        # its trace; 272 keeps all but about 4.5e-9.
        mixture = GaussianMixtureState(SqueezedState(3, 1.5), NoiseCovariance(1, 1))
        assert default_cutoff(mixture.center, mixture.noise) == fock_oracle.CUTOFF_MAX == 256
        with pytest.raises(TruncationError, match=truncated("the trace lost by the mixture")):
            mixture_density_matrix(mixture)
        assert abs(1 - mixture_density_matrix(mixture, cutoff=272).trace()) <= 1e-8

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

    def test_squeezing_past_the_float_range_is_a_domain_error(self):
        # e^{800}/2 overflows the center's variance before any cutoff is chosen
        with pytest.raises(DomainError, match="squeezed variance overflows"):
            mixture_density_matrix(GaussianMixtureState(SqueezedState(0, 400), NoiseCovariance(0, 0)))


class TestQuadratureGrid:
    @pytest.mark.parametrize("folded", [False, True])
    def test_the_largest_node_count_has_finite_weights(self, folded):
        table = fock_oracle._kept_grid(fock_oracle.NODES_LIMIT, True, True, folded)
        assert all(np.isfinite(column).all() for column in table)

    def test_node_count_beyond_the_limit_is_a_domain_error(self):
        QuadratureGrid(fock_oracle.NODES_LIMIT)  # its nodes are built only when first used
        with pytest.raises(DomainError, match="nodes_per_axis"):
            QuadratureGrid(fock_oracle.NODES_LIMIT + 1)


@pytest.mark.parametrize("build", [
    lambda cutoff: mixture_density_matrix(make_mixture(0, 0.5), cutoff),
    lambda cutoff: cascade_density_check(CoherentState(0), *[NoiseCovariance(0.5, 0.5)] * 2, cutoff),
    lambda cutoff: squeeze_fock_matrix(0.5, cutoff),
    lambda cutoff: squeezed_fock_vector(1j, 0.5, cutoff),
], ids=["mixture", "cascade", "squeeze", "squeezed-vector"])
def test_cutoff_beyond_the_limit_is_a_domain_error(build):
    with pytest.raises(DomainError, match="cutoff"):
        build(fock_oracle.CUTOFF_LIMIT + 1)


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
        assert 1 - fock_oracle.DEFAULT_EPS_TRUNC <= rho.trace() <= 1 + 1e-12
        assert rho.hermiticity_defect() < 1e-12
        assert rho.min_eigenvalue() > -1e-10

    def test_cutoff_too_small(self):
        with pytest.raises(TruncationError, match=truncated("the trace lost by the mixture")):
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

    def test_an_imaginary_fidelity_is_rejected(self):
        # a hermiticity defect of exactly 1e-12 passes, yet adds 5e-12 i to <u|rho|u>
        rho = DensityMatrix(9, np.eye(10) / 10 + 5e-13j * np.ones((10, 10)))
        uniform = FockVector(9, np.ones(10) / math.sqrt(10))
        with pytest.raises(SGCloneError, match=r"imaginary part: 5\.000e-12$"):
            fidelity_against(uniform, rho)


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


class TestHomodynePmfs:
    @pytest.mark.parametrize("alpha, noise", [(0, 0.5), (0, 0.0), (2 + 1j, 1.0)])
    def test_moments_match_the_diagonals_of_rho(self, alpha, noise):
        # the three clone states verify_mc draws from
        rho = mixture_density_matrix(make_mixture(alpha, noise))
        t, p_x, p_p = fock_oracle._homodyne_pmfs(rho)
        means = [p @ t / p.sum() for p in (p_x, p_p)]
        variances = [p @ (t - m) ** 2 / p.sum() for p, m in zip((p_x, p_p), means)]
        assert (*means, *variances) == pytest.approx(quadrature_moments(rho), rel=0, abs=1e-12)

    def test_bins_span_the_support_of_the_cutoff(self):
        t, p_x, p_p = fock_oracle._homodyne_pmfs(mixture_density_matrix(make_mixture(0, 0), 100))
        assert t.size == 512
        assert t[-1] == -t[0] == pytest.approx(math.sqrt(203) + 6)
        assert p_x.min() >= 0 and p_p.min() >= 0

    def test_p_is_x_of_the_state_turned_by_a_quarter(self):
        # |i a> has in p the distribution |a> has in x
        _, p_x, _ = fock_oracle._homodyne_pmfs(mixture_density_matrix(make_mixture(1.5, 0.3), 64))
        _, _, p_p = fock_oracle._homodyne_pmfs(mixture_density_matrix(make_mixture(1.5j, 0.3), 64))
        assert p_p == pytest.approx(p_x, rel=0, abs=1e-14)

    def test_bins_too_coarse_for_the_cutoff_are_a_truncation_error(self):
        # 512 bins resolve every number state up to CUTOFF_MAX = 256, not |400>
        def number_state(n):
            matrix = np.zeros((n + 1, n + 1))
            matrix[n, n] = 1.0
            return DensityMatrix(n, matrix)

        assert fock_oracle._homodyne_pmfs(number_state(256))[1].sum() == pytest.approx(1, abs=1e-12)
        with pytest.raises(TruncationError, match=truncated(r"the x pmf's miss of trace\(rho\)")):
            fock_oracle._homodyne_pmfs(number_state(400))


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
            observed = fock_oracle._shift_channel(rho, axis, variance)
            assert np.max(np.abs(observed - expected)) < 1e-12

    @pytest.mark.parametrize("fault", [
        "swapped axes", "bra shift sign flipped", "variance doubled", "variance halved",
    ])
    def test_faulty_channel_fails_on_anisotropic_pair(self, monkeypatch, fault):
        channel = fock_oracle._shift_channel
        if fault == "swapped axes":
            def faulty(rho, axis, variance):
                return channel(rho, {"x": "p", "p": "x"}[axis], variance)
        elif fault == "bra shift sign flipped":
            def faulty(rho, axis, variance):
                return _dense_shift_channel(rho, axis, variance, FAST_GRID, adjoint=False)
        else:
            def faulty(rho, axis, variance):
                return channel(rho, axis, variance * (2 if fault == "variance doubled" else 0.5))
        monkeypatch.setattr(fock_oracle, "_shift_channel", faulty)
        assert cascade_density_check(*ANISOTROPIC_CASCADE, cutoff=40, grid=FAST_GRID) > 1e-3

    @pytest.mark.parametrize("second", [0.5, 3, 4])
    def test_channel_output_is_thermal(self, second):
        # A vacuum-centred isotropic mixture with noise sigma^2 is thermal, nbar = sigma^2.
        half, noise = NoiseCovariance(0.5, 0.5), NoiseCovariance(second, second)
        cutoff = default_cutoff(CoherentState(0), add_noise(half, noise))
        d = cutoff + 1
        rho = built_rho(CoherentState(0), half, QuadratureGrid(), 2 * d - 1)
        rho = fock_oracle._shift_channel(rho, "x", noise.var_x)
        rho = fock_oracle._shift_channel(rho, "p", noise.var_p)[:d, :d]
        nbar = 0.5 + second
        thermal = np.diag(nbar ** np.arange(d) / (nbar + 1) ** np.arange(1, d + 1))
        assert np.max(np.abs(rho - thermal)) < 1e-10

    def test_squeezed_center(self):
        assert cascade_density_check(*SQUEEZED_CASCADE) < 1e-6

    def test_swapped_axes_fail_on_squeezed_center(self, monkeypatch):
        channel = fock_oracle._shift_channel

        def faulty(rho, axis, variance):
            return channel(rho, {"x": "p", "p": "x"}[axis], variance)

        monkeypatch.setattr(fock_oracle, "_shift_channel", faulty)
        assert cascade_density_check(*SQUEEZED_CASCADE) > 1e-3

    def test_too_small_cutoff_is_a_truncation_error(self):
        # the summed route keeps almost none of |10> at cutoff 4, so the gap is vacuous
        half = NoiseCovariance(0.5, 0.5)
        with pytest.raises(TruncationError, match=truncated("the trace lost by the mixture")):
            mixture_density_matrix(GaussianMixtureState(CoherentState(10), add_noise(half, half)), 4)
        with pytest.raises(TruncationError, match=truncated("the trace lost by the mixture")):
            cascade_density_check(CoherentState(10), half, half, 4, FAST_GRID)

    @pytest.mark.parametrize("cutoff, grid", [(None, None), (40, FAST_GRID)])
    def test_both_routes_are_mixture_builds(self, monkeypatch, cutoff, grid):
        calls = []
        build = fock_oracle.mixture_density_matrix

        def recorded(mixture, cutoff=None, grid=None):
            rho = build(mixture, cutoff, grid)
            calls.append((mixture, cutoff, grid, rho.cutoff))
            return rho

        monkeypatch.setattr(fock_oracle, "mixture_density_matrix", recorded)
        center, first, second = ANISOTROPIC_CASCADE
        cascade_density_check(center, first, second, cutoff, grid)
        total = add_noise(first, second)
        summed_cutoff = default_cutoff(center, total) if cutoff is None else cutoff
        # the summed mixture first, as the caller asked; then the first noise at its cutoff
        assert calls == [(GaussianMixtureState(center, total), cutoff, grid, summed_cutoff),
                         (GaussianMixtureState(center, first), summed_cutoff, grid, summed_cutoff)]

    @pytest.mark.parametrize("first, second", [
        pair for pair in ADDITIVITY_PAIRS if not pair[1].is_zero])
    def test_route_one_at_the_summed_noise_fails(self, monkeypatch, first, second):
        # a check that built both routes from one mixture would compare a state with itself
        build = fock_oracle.mixture_density_matrix
        total = add_noise(first, second)

        def faulty(mixture, cutoff=None, grid=None):
            return build(GaussianMixtureState(mixture.center, total), cutoff, grid)

        monkeypatch.setattr(fock_oracle, "mixture_density_matrix", faulty)
        assert cascade_density_check(CoherentState(0j), first, second) > 1e-3

    def test_doubled_padding_does_not_move_the_gap(self, monkeypatch):
        half = NoiseCovariance(0.5, 0.5)
        base = cascade_density_check(CoherentState(0), half, half)
        monkeypatch.setattr(fock_oracle, "_PADDING", 2 * fock_oracle._PADDING)
        assert abs(cascade_density_check(CoherentState(0), half, half) - base) < 1e-12

    @pytest.mark.parametrize("center", [CoherentState(0), SqueezedState(1 - 1j, 0.5)])
    def test_identity_second_stage_is_exact_on_the_default_grids(self, center):
        # both routes are one build: the first noise and the sum take the same grid
        half = NoiseCovariance(0.5, 0.5)
        assert cascade_density_check(center, half, NoiseCovariance(0, 0)) == 0.0

    def test_anisotropic_pair_on_the_default_grids(self):
        assert cascade_density_check(*ANISOTROPIC_CASCADE) < 1e-6

    def test_small_then_large_noise_on_the_default_grids(self):
        # The second noise's shifts spread far wider than the first mixture's grid.
        first, second = NoiseCovariance(0.1, 0.1), NoiseCovariance(4, 4)
        assert cascade_density_check(CoherentState(0), first, second) <= 1e-6

    @pytest.mark.parametrize("center, first, second", [
        ANISOTROPIC_CASCADE,
        SQUEEZED_CASCADE,
        (CoherentState(0), NoiseCovariance(1.0, 1.0), NoiseCovariance(0.5, 0.5)),
    ], ids=["anisotropic", "squeezed", "noisy"])
    def test_first_mixture_at_the_cutoff_matches_its_padded_build(self, center, first, second):
        # Route one drops the first mixture's entries above the cutoff before the
        # channel; what the channel would carry back into the block is negligible.
        cutoff = default_cutoff(center, add_noise(first, second))
        d = cutoff + 1
        grid = QuadratureGrid()
        padded = built_rho(center, first, grid, fock_oracle._PADDING * d - 1)
        at_cutoff = np.zeros_like(padded)
        at_cutoff[:d, :d] = built_rho(center, first, grid, cutoff)
        for axis, variance in (("x", second.var_x), ("p", second.var_p)):
            padded = fock_oracle._shift_channel(padded, axis, variance)
            at_cutoff = fock_oracle._shift_channel(at_cutoff, axis, variance)
        assert np.max(np.abs(padded[:d, :d] - at_cutoff[:d, :d])) <= 1e-12


@functools.lru_cache(maxsize=8)
def _x_spectrum(dim):
    """Eigenpairs of H_x = i(a^dag - a) on dim number states, by a complex eigh."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return np.linalg.eigh(1j * (a.T - a))


def _shift_operator(dim, axis, b):
    """D(b) = exp(-i b H_x) for axis x, and D(i b) = exp(i b H_p) for axis p.

    The x shift comes from its own generator, not from the p spectrum turned
    by a quarter as in the oracle, so the two routes stay independent.
    """
    if axis == "x":
        lam, v = _x_spectrum(dim)
        return (v * np.exp(-1j * b * lam)) @ v.conj().T
    lam, v = fock_oracle._spectrum(dim, "p")
    return (v * np.exp(1j * b * lam)) @ v.T


def _padded_squeezed_vector(alpha, r, cutoff):
    """D(alpha) S(r)|0>, up to a global phase, from S(r) and the two shifts on a
    basis three times as large, cut to the cutoff.

    The real shift is the imaginary one turned by a quarter, D(b) = R^dag D(i b) R
    with R = diag(i^n), so the one real eigh of the p generator serves both.
    """
    dim = 3 * (cutoff + 1)
    lam, v = fock_oracle._spectrum(dim, "p")
    turn = np.array([1, 1j, -1, -1j])[np.arange(dim) % 4]

    def shift(b, vec):  # D(i b) vec
        return v @ (np.exp(1j * b * lam) * (v.T @ vec))

    vec = shift(alpha.imag, squeeze_fock_matrix(r, dim - 1)[:, 0])
    return (turn.conj() * shift(alpha.real, turn * vec))[: cutoff + 1]


def _dense_shift_channel(rho, axis, variance, grid, adjoint=True):
    """sum_j w_j D(b_j) rho D(b_j)^dag, one dense shift operator per node.

    ``adjoint=False`` applies D(b_j) on the bra side too, a sign fault.
    """
    offsets, weights = axis_rule(grid.nodes_per_axis, variance)
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

    def test_rejects_r_its_cutoff_cannot_hold(self):
        with pytest.raises(TruncationError,
                           match=truncated(r"the leak of S\(1\.6\)\|0> into the top third")):
            squeeze_fock_matrix(1.6, 128)

    def test_rejects_cutoff_too_small_for_r(self):
        with pytest.raises(TruncationError,
                           match=truncated(r"the leak of S\(1\.5\)\|0> into the top third")):
            squeeze_fock_matrix(1.5, 32)

    def test_squeezed_vector_matches_matrix_route(self):
        vec = squeezed_fock_vector(0, 0.5, 40)
        # S(r) on a basis three times as large, so its truncation edge is far from the block
        s = squeeze_fock_matrix(0.5, 3 * 41 - 1)
        assert np.max(np.abs(vec.amplitudes - s[:41, 0])) <= 1e-14

    @pytest.mark.parametrize("alpha, r", [(2 - 1j, 1.5), (1 - 2j, -1.2), (0.3 + 0.2j, -0.35)])
    def test_squeezed_vector_at_its_default_cutoff_is_exact(self, alpha, r):
        cutoff = default_cutoff(SqueezedState(alpha, r))
        vec = squeezed_fock_vector(alpha, r, cutoff).amplitudes
        want = _padded_squeezed_vector(alpha, r, cutoff)
        k = np.argmax(np.abs(want))
        phase = vec[k] / want[k] / abs(vec[k] / want[k])
        assert np.max(np.abs(vec - phase * want)) <= 1e-14

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

    def test_shape_checked(self):
        with pytest.raises(DimensionError):
            DensityMatrix(3, np.eye(3, dtype=complex))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FockVector(1, [math.nan, 0]),
            lambda: FockVector(1, [complex(0, math.inf), 0]),
            lambda: FockVector(1, "ab"),
            lambda: FockVector(1, ["1", "0"]),
            lambda: FockVector(1, [True, False]),
            lambda: FockVector(1, None),
            lambda: DensityMatrix(1, [[math.nan, 0], [0, math.nan]]),
            lambda: DensityMatrix(1, [[1, 0], [0, -math.inf]]),
            lambda: DensityMatrix(1, [["1", "0"], ["0", "0"]]),
            lambda: DensityMatrix(1, [[CoherentState(0), 0], [0, 0]]),
        ],
        ids=[
            "vector nan", "vector inf", "vector str", "vector digit strs", "vector bools",
            "vector None", "matrix nan", "matrix inf", "matrix digit strs", "matrix object",
        ],
    )
    def test_rejects_non_finite_or_non_numeric_entries(self, make):
        with pytest.raises(DomainError):
            make()

    def test_vector_above_unit_norm_is_a_domain_error(self):
        with pytest.raises(DomainError, match="amplitudes exceed unit norm"):
            FockVector(1, [1, 1e-5])  # norm 1 + 1e-10
        assert FockVector(1, [1, 1e-7]).norm_sq > 1  # 1 + 1e-14 is rounding, within 1e-12

    def test_overflowing_hermiticity_defect_is_a_domain_error(self):
        with pytest.raises(DomainError):
            DensityMatrix(1, [[0, 1e308], [-1e308, 0]])

    def test_overflowing_trace_is_a_domain_error(self):
        with pytest.raises(DomainError, match="trace overflows the float range"):
            DensityMatrix(1, np.diag([1e308, 1e308])).trace()

    def test_copies_and_freezes_the_caller_array(self):
        mat = np.eye(2) / 2
        rho = DensityMatrix(1, mat)
        mat[0, 0] = 1.0
        assert rho.matrix[0, 0] == 0.5 and not rho.matrix.flags.writeable


def _reference_moments(rho):
    """Means and variances from ladder matrices on a basis two levels larger than rho."""
    d = rho.cutoff + 1
    padded = np.zeros((d + 2, d + 2), dtype=complex)
    padded[:d, :d] = rho.matrix
    a = np.diag(np.sqrt(np.arange(1.0, d + 2)), 1)
    x = (a + a.T) / math.sqrt(2.0)
    p = 1j * (a.T - a) / math.sqrt(2.0)
    means = [float(np.trace(padded @ q).real) for q in (x, p)]
    seconds = [float(np.trace(padded @ q @ q).real) for q in (x, p)]
    return (*means, *(second - mean**2 for second, mean in zip(seconds, means)))


class TestMomentsMatchLadderMatrices:
    @pytest.mark.parametrize("rho", [
        DensityMatrix(1, np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])),
        DensityMatrix(2, np.outer([1, 1j, 1 - 1j], [1, -1j, 1 + 1j]) / 4),
        mixture_density_matrix(make_mixture(0, 0.5)),
        mixture_density_matrix(make_mixture(2 - 1j, 1.359, 0.184)),
        mixture_density_matrix(GaussianMixtureState(
            SqueezedState(1 + 1j, 0.5), squeezed_variant(1, 2, 0.5).noise)),
        mixture_density_matrix(GaussianMixtureState(
            SqueezedState(0.5 - 1j, -0.35), squeezed_variant(2, 3, -0.35).noise)),
    ], ids=["cutoff 1", "cutoff 2", "vacuum", "anisotropic", "squeezed r=0.5", "squeezed r=-0.35"])
    def test_diagonals_give_the_ladder_moments(self, rho):
        got = quadrature_moments(rho)
        assert np.max(np.abs(np.subtract(got, _reference_moments(rho)))) <= 1e-13


class TestConvergence:
    def test_doubling_changes_nothing_measurable(self):
        mix = make_mixture(1, 0.5)
        base_cut = default_cutoff(mix.center, mix.noise)
        vec = coherent_fock_vector(1, base_cut)
        f_base = fidelity_against(vec, mixture_density_matrix(mix, base_cut, QuadratureGrid(41)))
        vec2 = coherent_fock_vector(1, 2 * base_cut)
        f_fine = fidelity_against(vec2, mixture_density_matrix(mix, 2 * base_cut, QuadratureGrid(82)))
        assert abs(f_base - f_fine) < 1e-7


def _reference_projector_sum(center, noise, grid, cutoff):
    """Every node of the tensor grid, summed as one complex product of rows.

    Each row is D(alpha) S(r)|0> = S(r) D(alpha')|0>: the coherent row of the
    squeezed-frame amplitude alpha' from c_n = c_{n-1} alpha'/sqrt(n), times
    S(r)^T, both on a basis three times as large and then cut to the cutoff.
    """
    bx, ux = axis_rule(grid.nodes_per_axis, noise.var_x)
    bp, up = axis_rule(grid.nodes_per_axis, noise.var_p)
    alphas = (center.alpha + (bx[:, None] + 1j * bp[None, :])).ravel()
    w = np.outer(ux, up).ravel()[:, None]
    frame = alphas.real * math.exp(-center.r) + 1j * alphas.imag * math.exp(center.r)
    dim = 3 * (cutoff + 1)
    rows = np.zeros((alphas.size, dim), dtype=complex)
    rows[:, 0] = np.exp(-0.5 * np.abs(frame) ** 2)
    for n in range(1, dim):
        rows[:, n] = rows[:, n - 1] * frame / math.sqrt(n)
    rows = (rows @ squeeze_fock_matrix(center.r, dim - 1).T)[:, : cutoff + 1]
    return (w * rows).T @ rows.conj()


class TestProjectorSum:
    @pytest.mark.parametrize("center, noise, nodes, tolerance", [
        (CoherentState(0j), NoiseCovariance(0.5, 0.5), 41, 1e-15),
        (CoherentState(2 - 1j), NoiseCovariance(1.359, 0.184), 41, 1e-15),
        (SqueezedState(1 + 1j, 0.5), squeezed_variant(1, 2, 0.5).noise, 41, 1e-14),
        (SqueezedState(0.5 - 1j, -0.35), squeezed_variant(2, 3, -0.35).noise, 41, 1e-14),
        (CoherentState(0j), NoiseCovariance(0.5, 0.5), 82, 1e-15),
        (CoherentState(1 + 1j), NoiseCovariance(0.5, 0.5), 41, 1e-15),
        (SqueezedState(1.5, 0.5), squeezed_variant(1, 2, 0.5).noise, 41, 1e-14),
    ], ids=["vacuum", "anisotropic", "squeezed r=0.5", "squeezed r=-0.35", "82 nodes", "turned",
            "real-axis squeezed"])
    def test_matches_the_full_complex_sum(self, center, noise, nodes, tolerance):
        # a squeezed row passes through S(r) on the padded basis, a sum of up to 3 d terms;
        # the off-axis squeezed and anisotropic ids take the complex product; the turned one
        # sums the grid turned with its centre, off this one by about 0.5 (1/3)^41 = 1e-20
        grid = QuadratureGrid(nodes)
        cutoff = default_cutoff(center, noise)
        got = built_rho(center, noise, grid, cutoff)
        want = _reference_projector_sum(center, noise, grid, cutoff)
        assert np.max(np.abs(got - want)) <= tolerance

    @pytest.mark.parametrize("alpha, var_x, var_p", [
        (0, 0, 0), (1 + 1j, 0, 0), (0, 0.5, 0.5), (2 - 1j, 1.359, 0.184), (1j, 0.3, 0), (-1, 0, 0.7),
        pytest.param(1 + 1j, 0.5, 0.5, id="turned 1+1j"), pytest.param(2 - 1j, 1, 1, id="turned 2-1j"),
        pytest.param(-0.3 + 2j, 1 / 6, 1 / 6, id="turned -0.3+2j"),
        pytest.param(1.5, 1, 1, id="real axis 1.5"),
    ])
    def test_coherent_mixture_is_hermitian_to_the_bit(self, alpha, var_x, var_p):
        rho = mixture_density_matrix(make_mixture(alpha, var_x, var_p))
        assert rho.hermiticity_defect() == 0.0

    @pytest.mark.parametrize("center, noise", [
        (SqueezedState(1 + 1j, 0.5), squeezed_variant(1, 2, 0.5).noise),
        (SqueezedState(-2j, 1.2), NoiseCovariance(0.3, 0.3)),
        pytest.param(SqueezedState(1.5, 0.5), squeezed_variant(1, 2, 0.5).noise, id="real axis"),
        pytest.param(SqueezedState(-1, -1.2), NoiseCovariance(0.3, 0.3), id="real axis isotropic"),
    ])
    def test_squeezed_mixture_is_hermitian_to_the_bit(self, center, noise):
        # squeezed columns enter the symmetric products as coherent ones do
        rho = mixture_density_matrix(GaussianMixtureState(center, noise))
        assert rho.hermiticity_defect() == 0.0

    @pytest.mark.parametrize("nodes", [2, 3, 41, 82, 200])
    def test_dropped_weight_is_negligible(self, nodes):
        t, w = axis_rule(nodes, 1.0)
        weights = np.outer(w, w).ravel()
        tx, tp, _ = fock_oracle._kept_grid(nodes, True, True)
        keep = np.zeros(weights.size, dtype=bool)
        keep[np.searchsorted(t, tx) * nodes + np.searchsorted(t, tp)] = True
        assert keep.sum() == tx.size
        dropped = np.sort(weights[~keep])
        assert dropped.sum() <= fock_oracle._DROPPED_MASS == 1e-18
        # As many as the bound allows: the lightest kept node would break it.
        assert dropped.sum() + weights[keep].min() > fock_oracle._DROPPED_MASS

    @pytest.mark.parametrize("nodes, kept", [(41, 955), (82, 2034)])
    def test_kept_node_counts(self, nodes, kept):
        assert fock_oracle._kept_grid(nodes, True, True)[2].size == kept

    def test_the_largest_grid_is_one_block(self):
        # The width of B at NODES_LIMIT; a larger limit needs its memory looked at again.
        assert fock_oracle._kept_grid(fock_oracle.NODES_LIMIT, True, True)[2].size == 9636

    @pytest.mark.parametrize("nodes", [2, 3, 41, 82, 200, fock_oracle.NODES_LIMIT])
    def test_the_rule_is_mirror_symmetric_to_the_bit(self, nodes):
        # what lets a folded node at t_p > 0 stand for its mirror at -t_p
        t, w = axis_rule(nodes, 1.0)
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("nodes", [2, 3, 41, 82, 200])
    def test_folded_grid_keeps_mirror_pairs_together(self, nodes):
        t, w = axis_rule(nodes, 1.0)
        weights = np.outer(w, w)
        tx, tp, roots = fock_oracle._kept_grid(nodes, True, True, True)
        assert np.all(tp >= 0)
        i, j = np.searchsorted(t, tx), np.searchsorted(t, tp)
        # each node at t_p > 0 carries its mirror's weight too, exactly
        folded = np.where(tp > 0, 2, 1) * weights[i, j]
        assert np.array_equal(roots, np.sqrt(folded))
        keep = np.zeros(weights.shape, dtype=bool)
        keep[i, j] = keep[i, nodes - 1 - j] = True
        dropped = weights[~keep].sum()
        assert dropped <= fock_oracle._DROPPED_MASS == 1e-18
        # As many as the bound allows: the lightest kept node, with its mirror, would break it.
        assert dropped + folded.min() > fock_oracle._DROPPED_MASS

    @pytest.mark.parametrize("nodes, folded", [(41, 495), (82, 1017), (fock_oracle.NODES_LIMIT, 4818)])
    def test_folded_node_counts(self, nodes, folded):
        # beside the 955, 2034 and 9636 nodes the unfolded grids keep
        assert fock_oracle._kept_grid(nodes, True, True, True)[2].size == folded
        # with p quiet there is no mirror: the folded grid is the grid
        quiet_p = fock_oracle._kept_grid(nodes, True, False)
        assert all(np.array_equal(a, b)
                   for a, b in zip(quiet_p, fock_oracle._kept_grid(nodes, True, False, True)))

    @pytest.mark.parametrize("center, noise, grid, turned", [
        (CoherentState(0), NoiseCovariance(0.5, 0.5), None, False),
        (CoherentState(1.5), NoiseCovariance(0.5, 0.5), None, False),
        (CoherentState(1 + 1j), NoiseCovariance(0.5, 0.5), None, True),
        (CoherentState(2 - 1j), NoiseCovariance(0.5, 0.5), None, True),
        # None is the exact build; at noise 1 the 41-node sum misses by about 1e-13
        (CoherentState(0), NoiseCovariance(1, 1), FINE_GRID, False),
        (CoherentState(1.5), NoiseCovariance(1, 1), FINE_GRID, False),
        (CoherentState(1 + 1j), NoiseCovariance(1, 1), FINE_GRID, True),
        (CoherentState(2 - 1j), NoiseCovariance(1, 1), FINE_GRID, True),
        (CoherentState(1.3 - 0.8j), NoiseCovariance(0, 0), None, True),
        (SqueezedState(1.5, 0.5), squeezed_variant(1, 2, 0.5).noise, None, False),
        (CoherentState(-0.5 + 1j), NoiseCovariance(1 / 6, 1 / 6), FINE_GRID, True),
    ], ids=["vacuum 1/2", "real 1/2", "1+1j 1/2", "2-1j 1/2", "vacuum 1", "real 1", "1+1j 1",
            "2-1j 1", "pure complex", "real-axis squeezed", "82 nodes"])
    def test_folded_and_turned_builds_match_the_exact_rho(self, monkeypatch, center, noise,
                                                          grid, turned):
        turns = []
        turn = fock_oracle._turn
        monkeypatch.setattr(fock_oracle, "_turn", lambda rho, phi: turns.append(phi) or turn(rho, phi))
        cutoff = default_cutoff(center, noise)
        rho = built_rho(center, noise, grid, cutoff)
        assert np.max(np.abs(rho - _exact_gaussian_rho(center, noise, cutoff))) <= 1e-13
        # a real-axis centre's rho is the real Gram; a turned one turns by the phase of alpha
        assert turns == pytest.approx([np.angle(center.alpha)] * turned, abs=1e-15)
        assert np.all(rho.imag == 0) == (not turned)

    @pytest.mark.parametrize("var_x, var_p", [(0.7, 0.3), (0, 0.3), (0.7, 0), (0, 0)])
    def test_cached_mask_is_kept_nodes_of_the_weights(self, var_x, var_p):
        (tx, ux), (tp, up) = axis_rule(41, float(var_x > 0)), axis_rule(41, float(var_p > 0))
        weights = np.outer(ux, up).ravel()
        light = np.argsort(weights, kind="stable")
        light = light[np.cumsum(weights[light]) <= fock_oracle._DROPPED_MASS]
        keep = np.isin(np.arange(weights.size), light, invert=True)
        want = (np.repeat(tx, tp.size)[keep], np.tile(tp, tx.size)[keep], np.sqrt(weights[keep]))
        cached = fock_oracle._kept_grid(41, var_x > 0, var_p > 0)
        assert all(np.array_equal(got, column) for got, column in zip(cached, want, strict=True))
        assert not any(column.flags.writeable for column in cached)

    @pytest.mark.parametrize("r", [0.5, -0.35])
    def test_squeezed_columns_match_displaced_squeezed_rows(self, r):
        center, noise, grid = SqueezedState(1 - 0.5j, r), NoiseCovariance(0.4, 0.2), QuadratureGrid(3)
        # Doubled, so the edge of the truncated S(r) sits where the state is negligible.
        cutoff = 2 * default_cutoff(center, noise)
        dim = 2 * (cutoff + 1)
        squeezed_vacuum = squeeze_fock_matrix(r, dim - 1)[:, 0]
        bx, ux = axis_rule(grid.nodes_per_axis, noise.var_x)
        bp, up = axis_rule(grid.nodes_per_axis, noise.var_p)
        want = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        for b, u in zip(bx, ux):
            for c, v in zip(bp, up):
                alpha = center.alpha + b + 1j * c
                row = (_shift_operator(dim, "x", alpha.real) @ _shift_operator(dim, "p", alpha.imag)
                       @ squeezed_vacuum)[: cutoff + 1]
                want += u * v * np.outer(row, row.conj())
        got = built_rho(center, noise, grid, cutoff)
        assert np.max(np.abs(got - want)) <= 1e-13


#: Coherent and squeezed centres, isotropic noise from 1e-4 to 1.5, anisotropic noise
#: (one axis zero in two of them) and the squeezed variant's matched noise.
MIXTURE_STATES = [
    (CoherentState(0), NoiseCovariance(1e-4, 1e-4)),
    (CoherentState(1 + 1j), NoiseCovariance(1e-2, 1e-2)),
    (CoherentState(2 - 1j), NoiseCovariance(1 / 6, 1 / 6)),
    (CoherentState(0), NoiseCovariance(0.25, 0.25)),
    (CoherentState(1), NoiseCovariance(0.5, 0.5)),
    (CoherentState(0.5j), NoiseCovariance(1.0, 1.0)),
    (CoherentState(0), NoiseCovariance(1.5, 1.5)),
    (SqueezedState(0.5j, 0.5), NoiseCovariance(1e-3, 1e-3)),
    (SqueezedState(0.5j, 0.5), NoiseCovariance(0.1, 0.1)),
    (SqueezedState(1, -0.8), NoiseCovariance(0.05, 0.05)),
    (SqueezedState(0, 0.3), NoiseCovariance(0.3, 0.3)),
    (SqueezedState(1 - 1j, -0.4), NoiseCovariance(0.6, 0.6)),
    (SqueezedState(0, 1.2), NoiseCovariance(1e-2, 1e-2)),
    (SqueezedState(0, -1.2), NoiseCovariance(0.1, 0.1)),
    (SqueezedState(0.3, 0.9), NoiseCovariance(1.5, 1.5)),
    (SqueezedState(0, 1.2), NoiseCovariance(0, 0.1)),
    (CoherentState(1), NoiseCovariance(0.1, 0.7)),
    (CoherentState(0), NoiseCovariance(1.5, 0.05)),
    (CoherentState(1j), NoiseCovariance(0, 0.5)),
    (SqueezedState(1j, 0.6), NoiseCovariance(0.02, 1.2)),
    (SqueezedState(0, 0.5), squeezed_variant(1, 2, 0.5).noise),
    (SqueezedState(1, -0.8), squeezed_variant(2, 3, -0.8).noise),
    (SqueezedState(0, 1.2), squeezed_variant(3, 5, 1.2).noise),
    (SqueezedState(1j, 0.25), squeezed_variant(1, 9, 0.25).noise),
    (SqueezedState(0, -1.0), squeezed_variant(4, 5, -1.0).noise),
]


#: The sweep the exact build is checked over: centres on and off the axes, squeezed either
#: way, pure and under isotropic noise.
SWEEP = [(SqueezedState(alpha, r), NoiseCovariance(v, v))
         for alpha in (0, 1, 2, -2j, 1 - 2j, 3, 3j)
         for r in (0.5, -0.5, 0.8, -0.8, 1.2, -1.2, 1.5, -1.5) for v in (0, 0.3, 1)]


def sweep_ids(states):
    return [f"{c.alpha:g},r={c.r:g},V={float(n.var_x):g}" for c, n in states]


def unresolved_by_101_nodes(center, noise):
    """Squeezed centres under noise not squeezed with them, where 101 nodes miss by 1e-10 to 2e-4."""
    return (noise.var_x == 1 and abs(center.r) >= 0.8) or (noise.var_x == 0.3 and abs(center.r) == 1.5)


#: Of those, a centre on the real axis and one off both axes: the 370-node sums are the costly ones.
HEAVY = [(c, n) for c, n in SWEEP if unresolved_by_101_nodes(c, n) and c.alpha in (0, 1 - 2j)]


class TestExactBuild:
    @pytest.mark.parametrize("center, noise", SWEEP, ids=sweep_ids(SWEEP))
    def test_matches_the_row_stepped_reference(self, center, noise):
        cutoff = default_cutoff(center, noise)
        want = _exact_gaussian_rho(center, noise, cutoff)
        if 1 - np.trace(want).real > fock_oracle.DEFAULT_EPS_TRUNC:
            # 3 and 3j squeezed by 1.5 along their axis under noise 1 lose 1.5e-8 at the cap
            with pytest.raises(TruncationError, match=truncated("the trace lost by the mixture")):
                mixture_density_matrix(GaussianMixtureState(center, noise))
            return
        rho = mixture_density_matrix(GaussianMixtureState(center, noise))
        # measured 4.4e-16, and 1.4e-15 for a pure state: a lone column in both, stepped on
        # numbers that round apart
        assert np.max(np.abs(rho.matrix - want)) <= (4e-15 if noise.is_zero else 2e-15)

    RESOLVED = [(c, n) for c, n in SWEEP if not unresolved_by_101_nodes(c, n)
                and default_cutoff(c, n) < fock_oracle.CUTOFF_MAX]

    @pytest.mark.parametrize("center, noise", RESOLVED, ids=sweep_ids(RESOLVED))
    def test_matches_the_101_node_sum(self, center, noise):
        cutoff = default_cutoff(center, noise)
        want = built_rho(center, noise, QuadratureGrid(101), cutoff)
        assert np.max(np.abs(built_rho(center, noise, None, cutoff) - want)) <= 1e-13

    @pytest.mark.parametrize("center, noise", HEAVY, ids=sweep_ids(HEAVY))
    def test_matches_the_370_node_sum(self, center, noise):
        # r = +-1.5 under noise 1 is where the 370-node rule itself misses, by 2e-10
        cutoff = default_cutoff(center, noise)
        want = built_rho(center, noise, QuadratureGrid(fock_oracle.NODES_LIMIT), cutoff)
        tolerance = 2.5e-10 if abs(center.r) == 1.5 and noise.var_x == 1 else 2e-15
        assert np.max(np.abs(built_rho(center, noise, None, cutoff) - want)) <= tolerance

    @pytest.mark.parametrize("center, noise", MIXTURE_STATES, ids=[
        f"{c.alpha:g},r={c.r:g},V=({float(n.var_x):.3g},{float(n.var_p):.3g})"
        for c, n in MIXTURE_STATES])
    def test_is_as_close_to_101_nodes_as_the_41_node_sum(self, center, noise):
        cutoff = default_cutoff(center, noise)
        want = built_rho(center, noise, QuadratureGrid(101), cutoff)

        def error(grid):
            return np.max(np.abs(built_rho(center, noise, grid, cutoff) - want))

        assert error(None) <= max(2e-15, error(QuadratureGrid()))

    @pytest.mark.parametrize("alpha", [0, 1 + 1j, 5 - 3j, 10, 10j, 7 + 7j])
    @pytest.mark.parametrize("r", [0.0, 0.5, -0.6, 0.6])
    def test_a_pure_state_is_the_outer_product_of_its_column(self, alpha, r):
        center = SqueezedState(alpha, r)
        cutoff = default_cutoff(center)
        block = fock_oracle._fock_columns([alpha], r, cutoff)
        vec = block[:cutoff + 1, 0] + 1j * block[cutoff + 1:, 0]
        rho = mixture_density_matrix(GaussianMixtureState(center, NoiseCovariance(0, 0)))
        assert np.max(np.abs(rho.matrix - np.outer(vec, vec.conj()))) <= 4e-15

    @pytest.mark.parametrize("r", [0.0, 0.3, -1.5, 14.0, -20.0])
    def test_a_pure_state_has_one_column(self, r):
        # c = (V_x n_p + n_x v_p) / (S_x S_p) is 0, not a rounding below it that c^(k/2) makes NaN
        mixture = GaussianMixtureState(SqueezedState(1 - 1j, r), NoiseCovariance(0, 0))
        block = fock_oracle._gaussian_factor(mixture, mixture.center.alpha, 40)
        assert np.all(np.isfinite(block)) and np.all(block[:, 1:] == 0) and block[0, 0] > 0

    def test_a_squeezed_centre_past_every_grid_model_builds(self):
        # an error model of 0.5 f^n asks for more than NODES_LIMIT nodes here
        center, noise = SqueezedState(0, 1.6), NoiseCovariance(1, 1)
        rho = mixture_density_matrix(GaussianMixtureState(center, noise))
        assert rho.cutoff == fock_oracle.CUTOFF_MAX
        assert 1 - rho.trace() <= 5.5e-10
        want = built_rho(center, noise, QuadratureGrid(fock_oracle.NODES_LIMIT), rho.cutoff)
        assert np.max(np.abs(rho.matrix - want)) <= 5e-9

    def test_the_pascal_roots_are_one_table(self):
        for d in (30, 300, 120):
            roots = fock_oracle._pascal_roots(d)
            assert roots.shape == (d, d) and not roots.flags.writeable
            want = [[math.sqrt(math.comb(m, k)) for k in range(d)] for m in range(d)]
            assert np.allclose(roots, want, rtol=1e-15, atol=0)
        # a block past CUTOFF_MAX + 1 is built for its call alone
        assert len(fock_oracle._pascal) <= fock_oracle.CUTOFF_MAX + 1


#: Bargmann frame: the amplitude pair (conj z, w) of <<z| rho |w>> is L (x, p).
_BARGMANN = np.array([[1, 1], [1j, -1j]]) / math.sqrt(2)


def _exact_gaussian_rho(center, noise, cutoff):
    """rho of the Gaussian state of the mixture's mean and covariance, with no quadrature.

    Its Bargmann function <<z| rho |w>> is G_00 exp(b.x + x^T A x / 2) in x = (conj z, w),
    so rho_mn = G_mn with G_mn = (b_1 G_{m-1,n} + A_11 sqrt(m-1) G_{m-2,n}
    + A_12 sqrt(n) G_{m-1,n-1}) / sqrt(m), and row 0 by the same rule in n (Miatto and
    Quesada, Quantum 4, 366 (2020)).  With S the covariance plus 1/2 and mu the mean of
    (x, p): A = [[0, 1], [1, 0]] - L^T S^-1 L, b = L^T S^-1 mu and
    G_00 = exp(-mu^T S^-1 mu / 2) / sqrt(det S).  Each row after row 0 is one step.
    """
    (vx, vp), mu = center.quadrature_variances(), np.array(center.quadrature_means())
    s_inv = np.diag([1 / (vx + float(noise.var_x) + 0.5), 1 / (vp + float(noise.var_p) + 0.5)])
    a = np.array([[0, 1], [1, 0]]) - _BARGMANN.T @ s_inv @ _BARGMANN
    b = _BARGMANN.T @ s_inv @ mu
    root = np.sqrt(np.arange(cutoff + 1.0))
    g = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    g[0, 0] = math.exp(-0.5 * mu @ s_inv @ mu) * math.sqrt(s_inv[0, 0] * s_inv[1, 1])
    # At the first step the index -1 reads a row or entry still 0, which root[0] = 0 zeroes too.
    for n in range(1, cutoff + 1):
        g[0, n] = (b[1] * g[0, n - 1] + a[1, 1] * root[n - 1] * g[0, n - 2]) / root[n]
    for m in range(1, cutoff + 1):
        row = b[0] * g[m - 1]
        row[1:] += a[0, 1] * root[1:] * g[m - 1, :-1]
        row += a[0, 0] * root[m - 1] * g[m - 2]
        g[m] = row / root[m]
    return g


class TestExactReference:
    @pytest.mark.parametrize("center", [
        CoherentState(0), CoherentState(1 - 1j), SqueezedState(2 - 1j, 1.5),
        SqueezedState(1 - 2j, -1.2), SqueezedState(3j, -0.8),
    ])
    def test_matches_the_outer_product_of_a_pure_column(self, center):
        cutoff = default_cutoff(center)
        block = fock_oracle._fock_columns([center.alpha], center.r, cutoff)
        vec = block[:cutoff + 1, 0] + 1j * block[cutoff + 1:, 0]
        want = _exact_gaussian_rho(center, NoiseCovariance(0, 0), cutoff)
        assert np.max(np.abs(np.outer(vec, vec.conj()) - want)) <= 1e-13

    def test_matches_a_101_node_build(self):
        center, noise = CoherentState(1 + 1j), NoiseCovariance(1, 0.25)
        cutoff = default_cutoff(center, noise)
        rho = built_rho(center, noise, QuadratureGrid(101), cutoff)
        assert np.max(np.abs(rho - _exact_gaussian_rho(center, noise, cutoff))) <= 1e-13

    # Squeezed centres under noise not squeezed with them: 41 nodes miss the first
    # four by 5.1e-3, 2.3e-7, 9.3e-4 and 8.8e-6, and 57 to 365 nodes come within 1e-8.
    @pytest.mark.parametrize("center, noise", [
        (SqueezedState(0, 1.5), NoiseCovariance(1, 1)),
        (SqueezedState(0, 0.5), NoiseCovariance(1, 1)),
        (SqueezedState(0.3, 0.9), NoiseCovariance(1.5, 1.5)),
        (SqueezedState(1j, 0.6), NoiseCovariance(0.02, 1.2)),
        (SqueezedState(0, 1.6), NoiseCovariance(0.3, 0.3)),
    ])
    def test_default_build_matches_it(self, center, noise):
        rho = mixture_density_matrix(GaussianMixtureState(center, noise))
        assert np.max(np.abs(rho.matrix - _exact_gaussian_rho(center, noise, rho.cutoff))) <= 2e-15

    def test_a_mixture_past_the_cutoff_cap_names_the_cutoff(self):
        mixture = GaussianMixtureState(SqueezedState(0, 5), NoiseCovariance(0.5, 0.5))
        with pytest.raises(TruncationError, match=truncated("the trace lost by the mixture")):
            mixture_density_matrix(mixture)


def _divided_columns(alphas, r, cutoff, scale):
    """The recurrence as a complex (cutoff+1, K) array, each row divided by sqrt(n)."""
    t = -math.tanh(r)
    alphas = np.asarray(alphas, dtype=complex)
    exponent, b = -0.5 * np.abs(alphas) ** 2, alphas
    if t:
        exponent, b = exponent - 0.5 * t * alphas.conj() ** 2, alphas + t * alphas.conj()
    out = np.empty((cutoff + 1, alphas.size), dtype=complex)
    out[0] = scale / math.sqrt(math.cosh(r)) * np.exp(exponent)
    for n in range(1, cutoff + 1):
        out[n] = out[n - 1] * b
        if t and n > 1:
            out[n] -= t * math.sqrt(n - 1) * out[n - 2]
        out[n] = out[n] / math.sqrt(n)
    return out


class TestFockColumns:
    @pytest.mark.parametrize("alphas", [[1 - 1j], [1 - 1j, 0.5j, -2.0]], ids=["lone", "block"])
    @pytest.mark.parametrize("cutoff", [1, 40])
    def test_shape_is_the_real_block(self, alphas, cutoff):
        block = fock_oracle._fock_columns(alphas, 0.5, cutoff)
        assert block.shape == (2 * (cutoff + 1), len(alphas))
        assert block.dtype == np.float64

    @pytest.mark.parametrize("r", [0.0, 0.5, -0.5, 1.5, -1.5])
    @pytest.mark.parametrize("cutoff", [1, 2, 40, 255])
    @pytest.mark.parametrize("far", [False, True], ids=["near", "past the far cut"])
    def test_lone_column_matches_the_block_path(self, r, cutoff, far):
        # Python complex products round apart from numpy's loop, by an ulp or so.
        a = 1.3 - 0.7j
        if far:
            a = 1.1 * 40 / math.sqrt(1 - math.tanh(abs(r))) * np.exp(0.3j)
        lone = fock_oracle._fock_columns([a], r, cutoff)
        block = fock_oracle._fock_columns([a, -0.4 + 2j], r, cutoff)
        assert np.all(np.isfinite(lone))
        assert np.max(np.abs(lone[:, 0] - block[:, 0])) <= 2e-15

    @pytest.mark.parametrize("r", [0.0, 0.8, -1.2])
    def test_block_matches_the_division_form(self, r):
        rng = np.random.default_rng(27)
        alphas = 2 * rng.standard_normal(30) + 2j * rng.standard_normal(30)
        scale = rng.uniform(0.1, 1.0, 30)
        want = _divided_columns(alphas, r, 120, scale)
        got = fock_oracle._fock_columns(alphas, r, 120, scale)
        assert np.max(np.abs(got - np.concatenate((want.real, want.imag)))) <= 1e-15

    @pytest.mark.parametrize("center", [CoherentState(2j), SqueezedState(1 - 0.5j, 0.5)])
    def test_zero_noise_mixture_is_the_outer_product_of_its_vector(self, center):
        cutoff = default_cutoff(center)
        rho = mixture_density_matrix(GaussianMixtureState(center, NoiseCovariance(0, 0)), cutoff)
        vec = squeezed_fock_vector(center.alpha, center.r, cutoff).amplitudes
        assert np.max(np.abs(rho.matrix - np.outer(vec, vec.conj()))) <= 1e-15

    @pytest.mark.parametrize("d", [21, 100, 257])
    @pytest.mark.parametrize("phase", [0.0, 0.9, 2.2, -1.3, -math.pi / 2])
    def test_running_product_matches_the_row_stepped_recurrence(self, d, phase):
        # At t = 0 _column is one cumprod of c0, b/sqrt(1), ...; the reference steps row by row.
        alphas = np.geomspace(0.1, 38, 25) * np.exp(1j * phase)
        want = _divided_columns(alphas, 0.0, d - 1, 1.0)
        for j, a in enumerate(alphas):
            got = fock_oracle._column(complex(a), 0.0, complex(want[0, j]), d)
            assert isinstance(got, np.ndarray) and got.shape == (d,)
            assert np.max(np.abs(got - want[:, j])) <= 1e-15, abs(a)

    @pytest.mark.parametrize("t", [0.0, 0.3], ids=["running product", "recurrence"])
    def test_an_underflowed_c0_is_a_zero_column(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            col = fock_oracle._column(38 - 20j, t, 0.0, 257)
        assert isinstance(col, np.ndarray) and col.dtype == complex
        assert col.shape == (257,) and np.all(col == 0)


def _indexed_turn(rho, phi):
    """rho_mn e^{i phi (m - n)} from d x d index arrays, the conjugate below the diagonal."""
    n = np.arange(rho.shape[0])
    k = n[:, None] - n
    turn = np.exp(1j * phi * n)[abs(k)]
    return rho * np.where(k < 0, turn.conj(), turn)


def _indexed_quarter_turn(rho, k):
    """rho_mn i^(k (m - n)) from a d x d index array into the four powers of i."""
    n = np.arange(rho.shape[0])
    return rho * np.array([1, 1j, -1, -1j])[(k * (n[:, None] - n)) % 4]


class TestToeplitzView:
    @pytest.mark.parametrize("shape", [(9,), (1, 9), (2, 9), (3, 2, 41)])
    def test_matches_the_index_construction(self, shape):
        row = np.random.default_rng(37).standard_normal(shape)
        d = (shape[-1] + 1) // 2
        m = np.arange(d)
        view = fock_oracle._toeplitz(row, d)
        assert view.shape == shape[:-1] + (d, d)
        assert np.array_equal(view, row[..., d - 1 + m[:, None] - m])
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[..., 0, 0] = 1.0

    @pytest.mark.parametrize("d", [2, 41, 257])
    @pytest.mark.parametrize("phi", [0.7, -0.7, math.pi])
    def test_turn_is_the_index_formula_to_the_bit(self, d, phi):
        # _turn's rho is a real Gram, and real times complex rounds alike in either operand
        # order; a complex product need not, and numpy swaps the order to reuse a temporary.
        rho = np.random.default_rng(d).standard_normal((d, d))
        assert np.array_equal(fock_oracle._turn(rho, phi), _indexed_turn(rho, phi))

    @pytest.mark.parametrize("d", [2, 41, 257])
    @pytest.mark.parametrize("k", [1, -1])
    def test_quarter_turn_is_the_index_formula_to_the_bit(self, d, k):
        rng = np.random.default_rng(d)
        rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.array_equal(fock_oracle._quarter_turn(rho, k), _indexed_quarter_turn(rho, k))
