import math
from fractions import Fraction

import numpy as np
import pytest

from sgclone import (
    UNBOUNDED,
    CoherentState,
    DomainError,
    MeasurementWeights,
    SqueezedState,
    TruncationError,
    VarianceReport,
    arthurs_kelly_margin,
    chain_bound_1to2,
    cloning_lower_bound,
    holevo_rhs,
    optimal_measurement_variance,
    optimal_noise_variance,
    simulate_heterodyne_estimate,
    simulate_joint_measurement,
    symmetric_variance_bound,
    weight_ratio_grid,
)
from sgclone import DensityMatrix, estimation_bounds, fock_oracle, verify

SAMPLES = 200_000
SEED = 42
NONFINITE = [math.nan, math.inf, -math.inf]


class TestArthursKellyMargin:
    def test_saturated(self):
        assert arthurs_kelly_margin(1.0, 1.0) == 0.0

    def test_loose(self):
        assert arthurs_kelly_margin(2.0, 1.0) == 1.0

    def test_unattainable(self):
        assert arthurs_kelly_margin(0.5, 0.5) == -0.75

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            arthurs_kelly_margin(-1.0, 1.0)

    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize("position", [0, 1])
    def test_nonfinite_variance_rejected(self, bad, position):
        args = [1.0, 1.0]
        args[position] = bad
        with pytest.raises(DomainError):
            arthurs_kelly_margin(*args)


class TestHolevoRhs:
    def test_symmetric_unit_weights(self):
        assert holevo_rhs(MeasurementWeights(1, 1), 0.5, 0.5) == 2.0

    def test_asymmetric(self):
        assert holevo_rhs(MeasurementWeights(4, 1), 0.5, 0.5) == 4.5

    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0, 10.0])
    def test_scales_linearly_on_the_diagonal(self, g):
        assert holevo_rhs(MeasurementWeights(g, g), 0.5, 0.5) == 2 * g

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(DomainError):
            MeasurementWeights(0.0, 1.0)
        with pytest.raises(DomainError):
            MeasurementWeights(1.0, -2.0)
        for bad in ("a", True, None, math.nan, math.inf, 1j):
            with pytest.raises(DomainError):
                MeasurementWeights(bad, 1)
            with pytest.raises(DomainError):
                MeasurementWeights(1, bad)

    def test_rejects_nonpositive_variances(self):
        with pytest.raises(DomainError):
            holevo_rhs(MeasurementWeights(1, 1), 0.0, 0.5)

    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize("position", [0, 1])
    def test_rejects_nonfinite_variances(self, bad, position):
        args = [0.5, 0.5]
        args[position] = bad
        with pytest.raises(DomainError):
            holevo_rhs(MeasurementWeights(1, 1), *args)


class TestWeightGrid:
    def test_default_grid(self):
        grid = weight_ratio_grid()
        assert grid.size == 61
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e3)
        assert grid[30] == 1.0

    def test_needs_odd_points(self):
        with pytest.raises(DomainError):
            weight_ratio_grid(60)
        for bad in ("x", 3.0, 61.0, True, None):
            with pytest.raises(DomainError):
                weight_ratio_grid(bad)

    def test_point_count_beyond_the_limit_is_a_domain_error(self):
        assert weight_ratio_grid(estimation_bounds.RATIO_POINTS_LIMIT).size == 10**6 + 1
        with pytest.raises(DomainError, match="points must be an integer in"):
            weight_ratio_grid(10**12 + 1)

    @pytest.mark.parametrize("points", [3, 5, 61, 10001])
    def test_grid_holds_the_standard_library_ratios(self, points):
        ratios = estimation_bounds._weight_ratios(points)
        assert weight_ratio_grid(points).tolist() == ratios
        assert ratios[points // 2] == 1.0
        # r[k] and r[p-1-k] are 10^e and 10^-e, each rounded once
        assert all(abs(a * b - 1.0) <= 2 * math.ulp(1.0) for a, b in zip(ratios, ratios[::-1]))

    def test_symmetric_bound_peaks_at_equal_weights(self):
        grid = weight_ratio_grid()
        bounds = np.array([symmetric_variance_bound(MeasurementWeights(g, 1.0)) for g in grid])
        assert bounds[30] == pytest.approx(1.0, abs=1e-15)
        assert np.argmax(bounds) == 30
        assert np.all(np.delete(bounds, 30) < 1.0)

    @pytest.mark.parametrize("g", [1e-300, 1.0, 1e200, 1e308])
    def test_symmetric_bound_is_one_at_equal_weights_of_any_size(self, g):
        # g_x g_p and g_x + g_p overflow at 1e200 and 1e308; the bound does not
        assert symmetric_variance_bound(MeasurementWeights(g, g)) == 1.0


class TestMeasurementVariances:
    def test_single_copy(self):
        assert optimal_measurement_variance(1) == 1

    def test_two_copies(self):
        assert optimal_measurement_variance(2) == Fraction(1, 2)

    def test_vanishes_with_many_copies(self):
        assert optimal_measurement_variance(10**9) < 1e-8

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2"])
    def test_rejects_bad_counts(self, bad):
        with pytest.raises(DomainError):
            optimal_measurement_variance(bad)


class TestCloningLowerBound:
    def test_duplication(self):
        assert cloning_lower_bound(1, 2) == Fraction(1, 2)

    def test_identity(self):
        assert cloning_lower_bound(6, 6) == 0

    def test_two_to_five(self):
        assert cloning_lower_bound(2, 5) == Fraction(1, 2) - Fraction(1, 5)
        assert cloning_lower_bound(2, 5) == Fraction(3, 10)

    def test_unbounded(self):
        assert cloning_lower_bound(3, UNBOUNDED) == Fraction(1, 3)

    def test_matches_optimal_noise_exactly(self):
        for n in range(1, 17):
            for m in list(range(n, 17)) + [UNBOUNDED]:
                noise = optimal_noise_variance(n, m)
                assert cloning_lower_bound(n, m) == noise.var_x == noise.var_p

    def test_rejects_reduction(self):
        with pytest.raises(DomainError):
            cloning_lower_bound(4, 2)


class TestChainBound:
    def test_saturated_at_half(self):
        assert chain_bound_1to2(0.5, 0.5, 0.5) == 0.0

    def test_loose_at_one(self):
        assert chain_bound_1to2(0.5, 0.5, 1.0) == 1.25

    def test_impossible_at_quarter(self):
        assert chain_bound_1to2(0.5, 0.5, 0.25) == -0.4375

    def test_uncertainty_precondition(self):
        with pytest.raises(DomainError):
            chain_bound_1to2(0.4, 0.4, 0.5)

    def test_negative_noise_rejected(self):
        with pytest.raises(DomainError):
            chain_bound_1to2(0.5, 0.5, -0.1)

    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nonfinite_input_rejected(self, bad, position):
        args = [0.5, 0.5, 0.5]
        args[position] = bad
        with pytest.raises(DomainError):
            chain_bound_1to2(*args)

    def test_margin_beyond_the_float_range_rejected(self):
        # 2 * 10**308 is an exact int that cannot be mixed with a float
        with pytest.raises(DomainError):
            chain_bound_1to2(10**308, 0.5, 10**308)


class TestUncertaintyRule:
    """holevo_rhs and chain_bound_1to2 take intrinsic variances through one check."""

    def test_every_squeezed_state_is_accepted(self):
        # r = -354.99645 rounds the product furthest from 1/4 (1.1e-13 relative).
        for r in [k / 100 for k in range(-300, 301)] + [-355.0, -354.99645, 354.9, 355.0]:
            dx2, dp2 = SqueezedState(0, r).quadrature_variances()
            assert math.isfinite(holevo_rhs(MeasurementWeights(1, 1), dx2, dp2))
            assert math.isfinite(chain_bound_1to2(dx2, dp2, 0.5))

    @pytest.mark.parametrize("dx2, dp2", [(0.4, 0.4), (0, 0.5), (0.5, 0), (5e-324, 1.7e308)])
    def test_below_the_minimum_uncertainty_is_rejected(self, dx2, dp2):
        with pytest.raises(DomainError, match=r"dx2 \* dp2 >= 1/4"):
            holevo_rhs(MeasurementWeights(1, 1), dx2, dp2)
        with pytest.raises(DomainError, match=r"dx2 \* dp2 >= 1/4"):
            chain_bound_1to2(dx2, dp2, 0.5)


class TestJointMeasurementSimulation:
    def test_deterministic(self):
        a = simulate_joint_measurement(0.5, CoherentState(0), 5000, SEED)
        b = simulate_joint_measurement(0.5, CoherentState(0), 5000, SEED)
        assert a == b

    def test_seed_changes_the_draw(self):
        a = simulate_joint_measurement(0.5, CoherentState(0), 5000, 1)
        b = simulate_joint_measurement(0.5, CoherentState(0), 5000, 2)
        assert a.var_x_hat != b.var_x_hat

    def test_saturates_the_measurement_bound(self):
        rep = simulate_joint_measurement(0.5, CoherentState(0), SAMPLES, SEED)
        assert abs(rep.var_x_hat - 1.0) < 5 * rep.stderr_x
        assert abs(rep.var_p_hat - 1.0) < 5 * rep.stderr_p
        product_se = math.hypot(rep.var_p_hat * rep.stderr_x, rep.var_x_hat * rep.stderr_p)
        assert abs(rep.var_x_hat * rep.var_p_hat - 1.0) < 5 * product_se

    def test_zero_noise_gives_intrinsic_variance(self):
        rep = simulate_joint_measurement(0.0, CoherentState(0), SAMPLES, SEED)
        assert abs(rep.var_x_hat - 0.5) < 5 * rep.stderr_x

    def test_variance_ignores_the_center(self):
        rep = simulate_joint_measurement(1.0, CoherentState(2 + 1j), SAMPLES, SEED)
        assert abs(rep.var_x_hat - 1.5) < 5 * rep.stderr_x
        assert abs(rep.mean_x_hat - 2 * math.sqrt(2)) < 5 * math.sqrt(rep.var_x_hat / SAMPLES)

    @pytest.mark.parametrize("center", [0, 2 + 1j])
    def test_variances_agree_at_any_center(self, center):
        # The cloner's noise does not depend on the input, so neither may the report's variance.
        at_origin = simulate_joint_measurement(0.5, CoherentState(0), 10**5, 3)
        rep = simulate_joint_measurement(0.5, CoherentState(center), 10**5, 4)
        assert abs(rep.var_x_hat - at_origin.var_x_hat) < 5 * math.hypot(rep.stderr_x,
                                                                         at_origin.stderr_x)
        assert abs(rep.var_p_hat - at_origin.var_p_hat) < 5 * math.hypot(rep.stderr_p,
                                                                         at_origin.stderr_p)

    @pytest.mark.parametrize("center", [1e8, 1e16, 1e300])
    def test_center_beyond_every_cutoff_is_a_truncation_error(self, center):
        with pytest.raises(TruncationError):
            simulate_joint_measurement(0.5, CoherentState(center), 10**5, 3)

    def test_stderr_formula(self):
        rep = simulate_joint_measurement(0.5, CoherentState(0), 10_000, SEED)
        assert rep.stderr_x == rep.var_x_hat * math.sqrt(2 / (10_000 - 1))

    def test_rejects_tiny_sample_counts(self):
        with pytest.raises(DomainError):
            simulate_joint_measurement(0.5, CoherentState(0), 1, SEED)

    def test_rejects_negative_noise(self):
        with pytest.raises(DomainError):
            simulate_joint_measurement(-0.5, CoherentState(0), 100, SEED)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, Fraction(10**400), "x"])
    def test_rejects_nonfinite_noise(self, noise):
        with pytest.raises(DomainError):
            simulate_joint_measurement(noise, CoherentState(0), 100, SEED)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError):
            simulate_joint_measurement(0.5, CoherentState(0), 100, seed)

    @pytest.mark.parametrize("samples", [2.5, "10", True, 100.0])
    def test_rejects_non_integer_sample_counts(self, samples):
        with pytest.raises(DomainError):
            simulate_joint_measurement(0.5, CoherentState(0), samples, SEED)


class TestHeterodyneSimulation:
    @pytest.mark.parametrize("n", [1, 4])
    def test_variance_scales_inversely(self, n):
        rep = simulate_heterodyne_estimate(0, n, SAMPLES, SEED)
        assert abs(rep.var_x_hat - 1 / n) < 5 * rep.stderr_x
        assert abs(rep.var_p_hat - 1 / n) < 5 * rep.stderr_p

    def test_unbiased(self):
        rep = simulate_heterodyne_estimate(1 + 1j, 2, SAMPLES, SEED)
        se = math.sqrt(rep.var_x_hat / SAMPLES)
        assert abs(rep.mean_x_hat - math.sqrt(2)) < 5 * se
        assert abs(rep.mean_p_hat - math.sqrt(2)) < 5 * se

    def test_deterministic(self):
        a = simulate_heterodyne_estimate(1j, 3, 5000, 7)
        b = simulate_heterodyne_estimate(1j, 3, 5000, 7)
        assert a == b

    def test_rejects_bad_copy_count(self):
        with pytest.raises(DomainError):
            simulate_heterodyne_estimate(0, 0, 100, SEED)

    def test_copy_count_beyond_the_float_range_is_a_domain_error(self):
        # sqrt(N/2) alpha, the amplitude of each beam-splitter port, has no float value
        with pytest.raises(DomainError, match="port amplitude"):
            simulate_heterodyne_estimate(0, 10**400, 2, 0)

    def test_outcomes_come_from_the_split_concentrated_mode(self):
        # x and p of |sqrt(N/2) alpha> times sqrt(2/N): the same counts at any (alpha, N) pair
        # with one port amplitude
        a = simulate_heterodyne_estimate(2 + 2j, 1, 5000, 9)
        b = simulate_heterodyne_estimate(1 + 1j, 4, 5000, 9)
        assert b.var_x_hat * 4 == pytest.approx(a.var_x_hat, rel=1e-12)
        assert b.mean_p_hat * 2 == pytest.approx(a.mean_p_hat, rel=1e-12)

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError):
            simulate_heterodyne_estimate(0, 1, 100, -1)

    @pytest.mark.parametrize("samples", [1, 2.5, "10", True])
    def test_rejects_bad_sample_counts(self, samples):
        with pytest.raises(DomainError):
            simulate_heterodyne_estimate(0, 1, samples, SEED)

    def test_draws_do_not_grow_with_the_copy_count(self):
        # one draw per quadrature per sample: N = 8 rescales the N = 1 draws
        one = simulate_heterodyne_estimate(0, 1, SAMPLES, SEED)
        eight = simulate_heterodyne_estimate(0, 8, SAMPLES, SEED)
        assert 8 * eight.var_x_hat == pytest.approx(one.var_x_hat, rel=1e-12)
        assert 8 * eight.var_p_hat == pytest.approx(one.var_p_hat, rel=1e-12)


class TestSampleMoments:
    def test_counts_reduction_matches_numpy_moments(self):
        # the counts _simulate draws: one multinomial over the bins of a pmf
        centres = np.linspace(-4.0, 7.0, 512)
        pmf = np.exp(-0.5 * ((centres - 1.5) / 1.3) ** 2)
        counts = np.random.default_rng(SEED).multinomial(10_001, pmf / pmf.sum())
        outcomes = np.repeat(centres, counts)
        mean, var = estimation_bounds._counts_moments(centres, counts)
        assert mean == pytest.approx(outcomes.mean(), rel=1e-12)
        assert var == pytest.approx(outcomes.var(ddof=1), rel=1e-12)

    def test_every_outcome_comes_from_a_multinomial_over_the_oracle_pmf(self):
        centres, p_x, p_p = estimation_bounds._outcome_pmfs(1 + 1j, 0.5)
        rng = np.random.default_rng(SEED)
        want = [estimation_bounds._counts_moments(centres, rng.multinomial(1000, p / p.sum()))
                for p in (p_x, p_p)]
        rep = simulate_joint_measurement(0.5, CoherentState(1 + 1j), 1000, SEED)
        assert [(rep.mean_x_hat, rep.var_x_hat), (rep.mean_p_hat, rep.var_p_hat)] == want


class TestVarianceReport:
    def test_requires_two_samples(self):
        with pytest.raises(DomainError):
            VarianceReport(1.0, 1.0, 0.1, 0.1, 0.0, 0.0, samples=1, seed=0)

    def test_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            VarianceReport(-1.0, 1.0, 0.1, 0.1, 0.0, 0.0, samples=10, seed=0)

    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize("position", [0, 1])
    def test_rejects_nonfinite_variance(self, bad, position):
        variances = [1.0, 1.0]
        variances[position] = bad
        with pytest.raises(DomainError):
            VarianceReport(*variances, 0.1, 0.1, 0.0, 0.0, samples=10, seed=0)

    @pytest.mark.parametrize(
        "samples, seed", [("x", 0), (2.5, 0), (True, 0), (10, None), (10, -1), (10, 1.0), (10, False)]
    )
    def test_rejects_non_integer_samples_and_seed(self, samples, seed):
        with pytest.raises(DomainError):
            VarianceReport(1.0, 1.0, 0.1, 0.1, 0.0, 0.0, samples=samples, seed=seed)

    @pytest.mark.parametrize("field", ["stderr_x", "stderr_p", "mean_x_hat", "mean_p_hat"])
    @pytest.mark.parametrize("bad", ["x", None, 1j, math.nan, math.inf, True])
    def test_rejects_bad_statistics(self, field, bad):
        fields = dict(var_x_hat=1.0, var_p_hat=1.0, stderr_x=0.1, stderr_p=0.1,
                      mean_x_hat=0.0, mean_p_hat=0.0, samples=10, seed=0)
        fields[field] = bad
        with pytest.raises(DomainError):
            VarianceReport(**fields)

    @pytest.mark.parametrize("field", ["stderr_x", "stderr_p"])
    def test_rejects_negative_stderr(self, field):
        fields = dict(stderr_x=0.1, stderr_p=0.1)
        fields[field] = -0.1
        with pytest.raises(DomainError):
            VarianceReport(1.0, 1.0, **fields, mean_x_hat=-1.5, mean_p_hat=2, samples=10, seed=0)


@pytest.fixture
def uncached_pmfs():
    """_outcome_pmfs keeps what the oracle built; a patched oracle needs it empty on both sides."""
    estimation_bounds._outcome_pmfs.cache_clear()
    yield
    estimation_bounds._outcome_pmfs.cache_clear()


class TestInjectedFaults:
    """A wrong simulation must fail the verify_mc check that covers it."""

    SAMPLES = 10**6

    def checks(self):
        return {c.name: c.passed for c in verify.verify_mc(samples=self.SAMPLES).checks}

    @staticmethod
    def heterodyne(scale):
        """The heterodyne estimate with each port outcome times scale(N), not sqrt(2/N)."""
        def estimate(alpha, n_copies, samples, seed):
            port = math.sqrt(n_copies / 2) * alpha
            return estimation_bounds._simulate(port, 0, scale(n_copies), samples, seed)

        return estimate

    def test_estimate_divided_by_n_fails(self, monkeypatch):
        # the concentrated heterodyne outcome, sqrt(2) times a port's, divided by N, not sqrt(N)
        by_n = self.heterodyne(lambda n: math.sqrt(2) / n)
        monkeypatch.setattr(verify, "simulate_heterodyne_estimate", by_n)
        passed = self.checks()
        assert passed["heterodyne estimate var_x (N=1)"]
        assert not passed["heterodyne estimate var_x (N=2)"]

    def test_estimate_without_the_rescale_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "simulate_heterodyne_estimate", self.heterodyne(lambda n: 1.0))
        passed = self.checks()
        for n in (1, 4, 8):
            assert not passed[f"heterodyne estimate var_x (N={n})"]
            assert not passed[f"heterodyne estimate var_p (N={n})"]

    def test_joint_measurement_without_noise_fails(self, monkeypatch):
        def noiseless(noise_var, center, samples, seed):
            return simulate_joint_measurement(0.0, center, samples, seed)

        monkeypatch.setattr(verify, "simulate_joint_measurement", noiseless)
        passed = self.checks()
        assert passed["noiseless clone var_x"]
        assert not passed[f"joint measurement var_x (seed {SEED})"]

    def test_clone_with_ten_percent_more_noise_fails(self, monkeypatch):
        real = estimation_bounds._outcome_pmfs
        monkeypatch.setattr(estimation_bounds, "_outcome_pmfs",
                            lambda alpha, noise: real(alpha, 1.1 * noise))
        passed = self.checks()
        assert passed["noiseless clone var_x"]
        for seed in (SEED, 7, 1001):
            assert not passed[f"joint measurement var_x (seed {seed})"]
            assert not passed[f"joint measurement var_p (seed {seed})"]
        assert not passed["displaced center var_x at noise 1"]

    def test_p_rotation_of_the_wrong_sign_fails(self, monkeypatch, uncached_pmfs):
        # (+i)^n in place of (-i)^n: p is read off the complex conjugate of rho
        real = fock_oracle._homodyne_pmfs

        def turned_back(rho):
            t, p_x, _ = real(rho)
            return t, p_x, real(DensityMatrix(rho.cutoff, rho.matrix.conj()))[2]

        monkeypatch.setattr(fock_oracle, "_homodyne_pmfs", turned_back)
        rep = simulate_heterodyne_estimate(1 + 1j, 1, self.SAMPLES, SEED)
        assert rep.mean_p_hat == pytest.approx(-math.sqrt(2), abs=0.01)
        passed = self.checks()
        for n in (1, 2, 4, 8):
            assert passed[f"heterodyne estimate var_p (N={n})"]
            assert not passed[f"heterodyne estimate unbiased (N={n})"]
