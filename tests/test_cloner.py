import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sgclone import (
    UNBOUNDED,
    ClonerSpec,
    CoherentState,
    CompositionError,
    ContractViolationError,
    DomainError,
    Fidelity,
    GaussianMixtureState,
    InvalidClonerError,
    NoiseCovariance,
    SqueezedState,
    cascade,
    clone_reduced_output,
    cloning_lower_bound,
    fidelity_from_variance,
    mixture_fidelity,
    optimal_cloner,
    optimal_fidelity,
    optimal_measurement_variance,
    optimal_noise_variance,
    simulate_heterodyne_estimate,
    squeezed_variant,
)
from sgclone.cloner import _check_counts


class TestOptimalNoiseVariance:
    def test_one_to_two(self):
        assert optimal_noise_variance(1, 2).var_x == Fraction(1, 2)

    def test_identity_cloner(self):
        for n in (1, 3, 64):
            assert optimal_noise_variance(n, n) == NoiseCovariance(0, 0)

    def test_unbounded(self):
        assert optimal_noise_variance(1, UNBOUNDED).var_x == 1
        assert optimal_noise_variance(4, UNBOUNDED).var_x == Fraction(1, 4)

    def test_two_to_four(self):
        assert optimal_noise_variance(2, 4).var_x == Fraction(1, 4)

    def test_isotropic(self):
        noise = optimal_noise_variance(3, 7)
        assert noise.var_x == noise.var_p == Fraction(4, 21)

    @pytest.mark.parametrize("n,m", [(2, 1), (5, 4), (0, 1), (-1, 2)])
    def test_invalid_counts(self, n, m):
        with pytest.raises(InvalidClonerError):
            optimal_noise_variance(n, m)


class TestOptimalFidelity:
    def test_one_to_two(self):
        assert optimal_fidelity(1, 2).value == Fraction(2, 3)

    def test_identity_cloner(self):
        assert optimal_fidelity(5, 5).value == 1

    def test_measurement_limit(self):
        assert optimal_fidelity(1, UNBOUNDED).value == Fraction(1, 2)
        assert optimal_fidelity(7, UNBOUNDED).value == Fraction(7, 8)

    def test_many_inputs_approach_perfect(self):
        n = 10**6
        assert optimal_fidelity(n, n + 1).value > 1 - 1e-6

    def test_invalid(self):
        with pytest.raises(InvalidClonerError):
            optimal_fidelity(3, 2)


class TestFidelityFromVariance:
    def test_half(self):
        assert fidelity_from_variance(NoiseCovariance(Fraction(1, 2), Fraction(1, 2))).value \
            == Fraction(2, 3)

    def test_zero(self):
        assert fidelity_from_variance(NoiseCovariance(0, 0)).value == 1

    def test_one(self):
        assert fidelity_from_variance(NoiseCovariance(1, 1)).value == Fraction(1, 2)

    def test_anisotropic_rejected(self):
        with pytest.raises(ContractViolationError):
            fidelity_from_variance(NoiseCovariance(0.5, 0.25))

    def test_consistent_with_optimal_fidelity(self):
        for n in range(1, 20):
            for m in list(range(n, 20)) + [UNBOUNDED]:
                assert fidelity_from_variance(optimal_noise_variance(n, m)) \
                    == optimal_fidelity(n, m)

    def test_decides_isotropy_as_the_coherent_mixture_does(self):
        for noise in (NoiseCovariance(Fraction(1, 3), Fraction(1, 3)), NoiseCovariance(0, 0),
                      NoiseCovariance(2, 2), NoiseCovariance(0.5, 0.5 + 1e-13)):
            mixture = GaussianMixtureState(CoherentState(0), noise)
            assert fidelity_from_variance(noise) == mixture_fidelity(mixture)
        noise = NoiseCovariance(0.5, 0.25)
        with pytest.raises(ContractViolationError):
            fidelity_from_variance(noise)
        with pytest.raises(ContractViolationError):
            mixture_fidelity(GaussianMixtureState(CoherentState(0), noise))


class TestCascade:
    def test_one_two_four(self):
        composed = cascade(optimal_cloner(1, 2), optimal_cloner(2, 4))
        assert composed.n_in == 1 and composed.m_out == 4
        assert composed.noise == optimal_noise_variance(1, 4)
        assert composed.noise.var_x == Fraction(3, 4)

    def test_two_three_six(self):
        composed = cascade(optimal_cloner(2, 3), optimal_cloner(3, 6))
        assert composed.noise.var_x == Fraction(1, 3)
        assert composed.noise == optimal_noise_variance(2, 6)

    def test_identity_is_neutral(self):
        c = optimal_cloner(3, 5)
        assert cascade(optimal_cloner(3, 3), c) == c

    def test_into_unbounded(self):
        composed = cascade(optimal_cloner(1, 2), optimal_cloner(2, UNBOUNDED))
        assert composed.m_out is UNBOUNDED
        assert composed.noise.var_x == 1

    def test_mismatch(self):
        with pytest.raises(CompositionError):
            cascade(optimal_cloner(1, 2), optimal_cloner(3, 4))

    def test_unbounded_first_stage(self):
        first = ClonerSpec(1, UNBOUNDED, NoiseCovariance(1, 1))
        with pytest.raises(CompositionError):
            cascade(first, optimal_cloner(2, 3))

    def test_telescoping_closure_sample(self):
        for n, m, l in [(1, 2, 4), (2, 5, 9), (3, 3, 8), (4, 7, 7), (5, 16, 31)]:
            composed = cascade(optimal_cloner(n, m), optimal_cloner(m, l))
            assert composed.noise == optimal_noise_variance(n, l)


class TestCloneReducedOutput:
    def test_optimal_one_to_two_on_vacuum(self):
        mix = clone_reduced_output(optimal_cloner(1, 2), CoherentState(0))
        assert mix.center == CoherentState(0)
        assert mix.noise == NoiseCovariance(Fraction(1, 2), Fraction(1, 2))

    def test_identity_cloner_is_pure(self):
        mix = clone_reduced_output(optimal_cloner(4, 4), CoherentState(2 - 1j))
        assert mix.is_pure

    def test_unbounded(self):
        mix = clone_reduced_output(optimal_cloner(1, UNBOUNDED), CoherentState(1 + 1j))
        assert mix.center.alpha == 1 + 1j
        assert mix.noise.var_x == 1 and mix.noise.var_p == 1

    def test_coherent_with_anisotropic_noise_rejected(self):
        squeezed_cloner = squeezed_variant(1, 2, 0.5)
        with pytest.raises(ContractViolationError):
            clone_reduced_output(squeezed_cloner, CoherentState(0))

    def test_squeezed_needs_matched_noise(self):
        with pytest.raises(ContractViolationError):
            clone_reduced_output(optimal_cloner(1, 2), SqueezedState(0, 0.5))

    def test_squeezed_matched(self):
        mix = clone_reduced_output(squeezed_variant(1, 2, 0.5), SqueezedState(1j, 0.5))
        assert mix.center.r == 0.5


class TestSqueezedVariant:
    def test_r_zero_is_the_isotropic_optimum(self):
        assert squeezed_variant(2, 4, 0.0) == optimal_cloner(2, 4)

    def test_values_at_half(self):
        noise = squeezed_variant(1, 2, 0.5).noise
        assert noise.var_x == pytest.approx(1.3591409142295225, rel=1e-12)
        assert noise.var_p == pytest.approx(0.18393972058572117, rel=1e-12)

    @pytest.mark.parametrize("r", [0.1, 0.123, 0.3, 0.5, 0.77, 1.0, 1.2, 1.5, -0.4, -1.1])
    @pytest.mark.parametrize("n,m", [(1, 2), (2, 4), (1, 3), (3, 5)])
    def test_product_is_exactly_squeezing_invariant(self, r, n, m):
        noise = squeezed_variant(n, m, r).noise
        base = optimal_noise_variance(n, m).var_x
        assert noise.var_x * noise.var_p == base * base
        assert float(noise.var_x) == pytest.approx(float(base) * math.exp(2 * r), rel=1e-12)
        assert float(noise.var_p) == pytest.approx(float(base) * math.exp(-2 * r), rel=1e-12)

    def test_one_to_two_product_in_floats(self):
        noise = squeezed_variant(1, 2, 0.5).noise
        assert noise.var_x * noise.var_p == 0.25

    def test_unbounded(self):
        noise = squeezed_variant(2, UNBOUNDED, 0.5).noise
        assert noise.var_x * noise.var_p == Fraction(1, 4)

    def test_degenerate_identity_counts(self):
        assert squeezed_variant(3, 3, 0.8) == optimal_cloner(3, 3)

    def test_rejects_nonfinite_r(self):
        with pytest.raises(DomainError):
            squeezed_variant(1, 2, math.inf)

    def test_var_x_leaves_the_float_range_only_where_it_does(self):
        # sigma2 e^{720} is about 4.9e300, though e^{720} alone is not a float.
        sigma2 = optimal_noise_variance(10**6, 10**6 + 1).var_x
        noise = squeezed_variant(10**6, 10**6 + 1, 360).noise
        expected = math.exp(720 - math.log(10**6 * (10**6 + 1)))
        assert float(noise.var_x) == pytest.approx(expected, rel=1e-12)
        assert noise.var_x * noise.var_p == sigma2**2

    def test_var_x_of_a_noise_below_the_float_range(self):
        # sigma2 is about 1e-400, 0.0 as a float; sigma2 e^{800} is about e^{-121}.
        sigma2 = optimal_noise_variance(10**200, 10**200 + 1).var_x
        noise = squeezed_variant(10**200, 10**200 + 1, 400).noise
        expected = math.exp(800 - math.log(10**200) - math.log(10**200 + 1))
        assert float(noise.var_x) == pytest.approx(expected, rel=1e-12)
        assert noise.var_x * noise.var_p == sigma2**2

    @pytest.mark.parametrize("r", [1000.0, -1000.0, -356.0])
    def test_rejects_r_beyond_the_float_range(self, r):
        with pytest.raises(DomainError):
            squeezed_variant(1, 2, r)


class TestMixtureFidelity:
    def test_coherent_center_half_noise(self):
        mix = GaussianMixtureState(CoherentState(0), NoiseCovariance(Fraction(1, 2), Fraction(1, 2)))
        assert mixture_fidelity(mix).value == Fraction(2, 3)

    def test_pure_mixture(self):
        mix = GaussianMixtureState(SqueezedState(2j, 0.7), NoiseCovariance(0, 0))
        assert mixture_fidelity(mix).value == 1

    def test_squeezed_matched(self):
        mix = clone_reduced_output(squeezed_variant(1, 2, 0.5), SqueezedState(0, 0.5))
        assert float(mixture_fidelity(mix)) == pytest.approx(2 / 3, abs=1e-12)

    def test_translation_invariance(self):
        noise = NoiseCovariance(Fraction(1, 3), Fraction(1, 3))
        values = {
            mixture_fidelity(GaussianMixtureState(CoherentState(alpha), noise)).value
            for alpha in (0, 1, 1 + 1j, 2 - 1j, -3j)
        }
        assert values == {Fraction(3, 4)}

    def test_mismatch_rejected(self):
        mix = GaussianMixtureState(SqueezedState(0, 0.5), NoiseCovariance(0.5, 0.5))
        with pytest.raises(ContractViolationError):
            mixture_fidelity(mix)

    def test_matched_noise_near_the_float_range(self):
        # sigma2 = 1e-3 at r = 355: var_p e^{710} is 1e-3 though e^{710} overflows.
        var_x = Fraction(1, 1000) * Fraction(math.exp(355.0)) ** 2
        noise = NoiseCovariance(var_x, Fraction(1, 10**6) / var_x)
        mix = GaussianMixtureState(SqueezedState(0, 355.0), noise)
        assert float(mixture_fidelity(mix)) == pytest.approx(1 / 1.001, rel=1e-9)

    @pytest.mark.parametrize("r", [400.0, -400.0])
    def test_zero_noise_matches_any_squeezing(self, r):
        mix = GaussianMixtureState(SqueezedState(1j, r), NoiseCovariance(0, 0))
        assert mixture_fidelity(mix).value == 1
        assert clone_reduced_output(optimal_cloner(2, 2), SqueezedState(1j, r)).is_pure

    @pytest.mark.parametrize(
        "call",
        [
            lambda: mixture_fidelity(
                GaussianMixtureState(SqueezedState(0, 400), NoiseCovariance(1, 1))),
            lambda: clone_reduced_output(optimal_cloner(1, 2), SqueezedState(0, 400)),
            lambda: clone_reduced_output(optimal_cloner(1, 2), SqueezedState(0, -400)),
        ],
        ids=["mixture_fidelity", "clone_reduced_output", "clone_reduced_output r<0"],
    )
    def test_noise_beyond_the_float_range_is_a_domain_error(self, call):
        with pytest.raises(DomainError, match="overflows the float range"):
            call()


class TestSpecTypes:
    def test_fidelity_bounds(self):
        with pytest.raises(DomainError):
            Fidelity(1.5)
        with pytest.raises(DomainError):
            Fidelity(-0.1)

    @pytest.mark.parametrize("bad", ["x", None, 1j, True, math.nan, math.inf, Fraction(10**400)])
    def test_fidelity_rejects_non_real_values(self, bad):
        with pytest.raises(DomainError):
            Fidelity(bad)

    def test_fidelity_ordering(self):
        assert Fidelity(Fraction(1, 2)) < Fidelity(0.75)

    def test_cloner_spec_counts(self):
        with pytest.raises(InvalidClonerError):
            ClonerSpec(3, 2, NoiseCovariance(1, 1))

    def test_count_check_of_the_input_alone(self):
        _check_counts(3)
        for args in [(0,), (3, None), (3, 2)]:
            with pytest.raises(InvalidClonerError):
                _check_counts(*args)

    def test_suboptimal_cloners_are_representable(self):
        noisy = ClonerSpec(1, 2, NoiseCovariance(2, 2))
        assert noisy.meets_noise_bound()
        impossible = ClonerSpec(1, 2, NoiseCovariance(0.25, 0.25))
        assert not impossible.meets_noise_bound()

    def test_monotonicity_in_k(self):
        for n, m in ((1, 2), (1, 3), (2, 3)):
            for k in range(1, 16):
                assert optimal_noise_variance((k + 1) * n, (k + 1) * m).var_x \
                    < optimal_noise_variance(k * n, k * m).var_x
                assert optimal_fidelity((k + 1) * n, (k + 1) * m) \
                    > optimal_fidelity(k * n, k * m)


counts = st.one_of(
    st.integers(-3, 40),
    st.booleans(),
    st.floats(allow_nan=True),
    st.integers(-3, 40).map(str),
    st.just(UNBOUNDED),
    st.none(),
)


class TestOneCountRule:
    """Every copy-count argument goes through the one shared check, which raises
    InvalidClonerError, a DomainError."""

    @given(counts, counts)
    def test_count_consumers_agree(self, n, m):
        n_valid = type(n) is int and n >= 1
        valid = n_valid and (m is UNBOUNDED or (type(m) is int and m >= n))
        for fn in (optimal_noise_variance, optimal_fidelity, cloning_lower_bound):
            if valid:
                fn(n, m)
            else:
                with pytest.raises(InvalidClonerError):
                    fn(n, m)
        if n_valid:
            assert optimal_measurement_variance(n) == Fraction(1, n)
            simulate_heterodyne_estimate(0, n, 2, 0)
        else:
            with pytest.raises(InvalidClonerError):
                optimal_measurement_variance(n)
            with pytest.raises(InvalidClonerError):
                simulate_heterodyne_estimate(0, n, 2, 0)
