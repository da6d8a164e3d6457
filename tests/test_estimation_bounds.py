import math
from fractions import Fraction

import numpy as np
import pytest

from sgclone import (
    UNBOUNDED,
    CoherentState,
    DomainError,
    MeasurementWeights,
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
from sgclone import estimation_bounds, verify

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

    def test_symmetric_bound_peaks_at_equal_weights(self):
        grid = weight_ratio_grid()
        bounds = np.array([symmetric_variance_bound(MeasurementWeights(g, 1.0)) for g in grid])
        assert bounds[30] == pytest.approx(1.0, abs=1e-15)
        assert np.argmax(bounds) == 30
        assert np.all(np.delete(bounds, 30) < 1.0)


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
    def test_match_numpy_moments(self):
        # the outcomes _simulate draws: x, then p, from one seeded generator
        rng = np.random.default_rng(SEED)
        x = 2.0 * rng.standard_normal(10_001) + 3.0
        p = 0.5 * rng.standard_normal(10_001) - 1.0
        rep = estimation_bounds._simulate((3.0, -1.0), (2.0, 0.5), x.size, SEED)
        for hat, ref in [(rep.var_x_hat, x.var(ddof=1)), (rep.var_p_hat, p.var(ddof=1)),
                         (rep.mean_x_hat, x.mean()), (rep.mean_p_hat, p.mean())]:
            assert hat == pytest.approx(ref, rel=1e-12)


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


class TestInjectedFaults:
    """A wrong simulation must fail the verify_mc check that covers it."""

    SAMPLES = 10**5

    def checks(self):
        return {c.name: c.passed for c in verify.verify_mc(samples=self.SAMPLES).checks}

    def test_estimate_divided_by_n_fails(self, monkeypatch):
        def by_n(alpha, n_copies, samples, seed):
            # the concentrated heterodyne outcome divided by N, not sqrt(N)
            means = [math.sqrt(n_copies) * m / n_copies
                     for m in CoherentState(alpha).quadrature_means()]
            spreads = (1.0 / n_copies, 1.0 / n_copies)
            return estimation_bounds._simulate(means, spreads, samples, seed)

        monkeypatch.setattr(verify, "simulate_heterodyne_estimate", by_n)
        passed = self.checks()
        assert passed["heterodyne estimate var_x (N=1)"]
        assert not passed["heterodyne estimate var_x (N=2)"]

    def test_joint_measurement_without_noise_fails(self, monkeypatch):
        def noiseless(noise_var, center, samples, seed):
            return simulate_joint_measurement(0.0, center, samples, seed)

        monkeypatch.setattr(verify, "simulate_joint_measurement", noiseless)
        passed = self.checks()
        assert passed["noiseless clone var_x"]
        assert not passed[f"joint measurement var_x (seed {SEED})"]
