import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sgclone import (
    CoherentState,
    DomainError,
    Fidelity,
    GaussianMixtureState,
    NoiseCovariance,
    QuadratureGrid,
    SqueezedState,
    add_noise,
    coherent_fock_vector,
    displace,
    optimal_fidelity,
    overlap_sq,
    squeeze_fock_matrix,
    squeezed_fock_vector,
    squeezed_variant,
)
from sgclone.quadrature_core import _squeezed

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
amplitudes = st.builds(complex, finite, finite)


def fock_overlap_sq(a, b, cutoff=64):
    """Independent route: |<a|b>|^2 from truncated number-basis vectors."""
    va = coherent_fock_vector(a, cutoff).amplitudes
    vb = coherent_fock_vector(b, cutoff).amplitudes
    return abs(np.vdot(va, vb)) ** 2


class TestDisplace:
    def test_vacuum(self):
        assert displace(CoherentState(0), 1 + 0j).alpha == 1 + 0j

    def test_identity(self):
        assert displace(CoherentState(2 - 1j), 0).alpha == 2 - 1j

    def test_complex_addition(self):
        assert displace(CoherentState(1 + 0j), 1j).alpha == 1 + 1j

    def test_squeezed_keeps_r(self):
        out = displace(SqueezedState(1j, 0.3), 1.0)
        assert out.alpha == 1 + 1j and out.r == 0.3

    def test_mixture_displaces_center_only(self):
        mix = GaussianMixtureState(CoherentState(0), NoiseCovariance(0.5, 0.5))
        out = displace(mix, 2j)
        assert out.center.alpha == 2j
        assert out.noise == mix.noise

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            displace(CoherentState(0), complex("inf"))

    @given(amplitudes, amplitudes, amplitudes)
    def test_composition(self, alpha, beta, gamma):
        twice = displace(displace(CoherentState(alpha), beta), gamma)
        once = displace(CoherentState(alpha), beta + gamma)
        assert twice.alpha == pytest.approx(once.alpha, abs=1e-12)


class TestOverlapSq:
    def test_identical_states(self):
        assert overlap_sq(2 - 1j, 2 - 1j) == 1.0

    def test_unit_separation(self):
        # frozen from the Fock-vector inner product at cutoff 64
        assert overlap_sq(0, 1) == pytest.approx(0.36787944117144233, abs=1e-15)
        assert overlap_sq(0, 1) == pytest.approx(fock_overlap_sq(0, 1), abs=1e-12)

    def test_diagonal_separation(self):
        assert overlap_sq(0, 1 + 1j) == pytest.approx(0.1353352832366127, abs=1e-15)
        assert overlap_sq(0, 1 + 1j) == pytest.approx(fock_overlap_sq(0, 1 + 1j), abs=1e-12)

    def test_strictly_decreasing_in_separation(self):
        values = [overlap_sq(0, t * (1 + 2j)) for t in (0.0, 0.5, 1.0, 1.5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(amplitudes, amplitudes)
    def test_symmetric_and_bounded(self, a, b):
        f = overlap_sq(a, b)
        assert f == overlap_sq(b, a)
        assert 0 <= f <= 1
        if a == b:
            assert f == 1.0
        elif abs(a - b) > 1e-6:
            assert f < 1.0


class TestNoise:
    def test_componentwise_sum_matches_one_to_four(self):
        total = add_noise(NoiseCovariance(0.5, 0.5), NoiseCovariance(0.25, 0.25))
        assert total == NoiseCovariance(0.75, 0.75)

    def test_zero_is_neutral(self):
        n = NoiseCovariance(0.3, 0.7)
        assert add_noise(NoiseCovariance(0, 0), n) == n

    def test_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            NoiseCovariance(-0.1, 0.5)

    def test_rejects_exact_variance_beyond_the_float_range(self):
        with pytest.raises(DomainError):
            NoiseCovariance(Fraction(10**400), 0)

    @pytest.mark.parametrize(
        "value",
        [True, False, "0.5", 0.5j, None, math.nan, math.inf, -math.inf, np.float64("nan"),
         -1, -0.5, np.float64(-1), Fraction(-1, 10**400), pytest.param(10**400, id="10**400"),
         -Fraction(10**400)],
    )
    def test_rejects_every_invalid_variance(self, value):
        with pytest.raises(DomainError):
            NoiseCovariance(0.5, value)

    @pytest.mark.parametrize(
        "value", [0, -0.0, 1e308, Fraction(1, 10**400), Fraction(10**300, 7), np.float64(2), np.int64(3)]
    )
    def test_accepts_every_finite_non_negative_real(self, value):
        assert NoiseCovariance(value, 0.5).var_x == value

    @given(st.tuples(finite, finite), st.tuples(finite, finite))
    def test_commutative(self, a, b):
        na = NoiseCovariance(abs(a[0]), abs(a[1]))
        nb = NoiseCovariance(abs(b[0]), abs(b[1]))
        assert add_noise(na, nb) == add_noise(nb, na)

    @given(st.fractions(0, 10), st.fractions(0, 10), st.fractions(0, 10))
    def test_associative_in_exact_arithmetic(self, a, b, c):
        na, nb, nc = (NoiseCovariance(v, v) for v in (a, b, c))
        assert add_noise(add_noise(na, nb), nc) == add_noise(na, add_noise(nb, nc))


class TestSqueezedFrameRule:
    def test_exact_variances_stay_exact_at_r_zero_and_for_zero_noise(self):
        for args in [(Fraction(1, 3), Fraction(2, 3), 0.0), (0, Fraction(0), 1000.0)]:
            scaled = _squeezed(*args)
            assert scaled == args[:2]
            assert [type(v) for v in scaled] == [type(v) for v in args[:2]]

    def test_each_entry_is_one_exp(self):
        # e^{800} is beyond the float range; 1e-300 e^{800} is not.
        vx, vp = _squeezed(1e-300, Fraction(10**300), 400.0)
        assert vx == math.exp(math.log(1e-300) + 800.0)
        assert vp == math.exp(math.log(1e300) - 800.0)
        assert _squeezed(0, 0.5, -2.0) == (0.0, math.exp(math.log(0.5) + 4.0))

    def test_a_result_beyond_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="squeezed variance overflows the float range"):
            _squeezed(1.0, 1.0, -400.0)


class TestStates:
    def test_coherent_variances_are_half(self):
        assert CoherentState(3 - 2j).quadrature_variances() == (0.5, 0.5)

    def test_coherent_means(self):
        mx, mp = CoherentState(1 + 1j).quadrature_means()
        assert mx == pytest.approx(math.sqrt(2))
        assert mp == pytest.approx(math.sqrt(2))

    @given(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
    def test_squeezed_uncertainty_product(self, r):
        vx, vp = SqueezedState(0, r).quadrature_variances()
        assert vx * vp == pytest.approx(0.25, rel=1e-14)

    def test_squeezed_r_zero_matches_coherent(self):
        assert SqueezedState(1j, 0.0).quadrature_variances() == (0.5, 0.5)

    @pytest.mark.parametrize(
        "state",
        [
            SqueezedState(0, 400),
            SqueezedState(0, -400),
            GaussianMixtureState(SqueezedState(0, 400), NoiseCovariance(1, 1)),
            GaussianMixtureState(SqueezedState(0, 354), NoiseCovariance(1.7e308, 0)),
        ],
        ids=["r=400", "r=-400", "mixture r=400", "mixture sum"],
    )
    def test_variances_beyond_the_float_range_are_a_domain_error(self, state):
        with pytest.raises(DomainError, match="overflows the float range"):
            state.quadrature_variances()

    def test_variances_reach_the_float_range(self):
        # 0.5 e^{710} is finite though e^{710} is not.
        vx, vp = SqueezedState(0, 355.0).quadrature_variances()
        assert vx == pytest.approx((math.exp(355.0) * math.sqrt(0.5)) ** 2, rel=1e-12)
        assert vp == pytest.approx(0.5 * math.exp(-355.0) ** 2, rel=1e-12)

    def test_mixture_moments_are_additive(self):
        mix = GaussianMixtureState(CoherentState(1 + 1j), NoiseCovariance(0.5, 0.25))
        assert mix.quadrature_variances() == (1.0, 0.75)
        assert mix.quadrature_means() == CoherentState(1 + 1j).quadrature_means()

    def test_zero_noise_mixture_is_pure(self):
        assert GaussianMixtureState(CoherentState(0), NoiseCovariance(0, 0)).is_pure

    def test_coherent_is_the_r_zero_squeezed_state(self):
        coherent = CoherentState(1 + 1j)
        assert isinstance(coherent, SqueezedState)
        assert coherent.r == 0.0
        assert coherent.quadrature_variances() == SqueezedState(1 + 1j, 0).quadrature_variances()

    def test_coherent_differs_from_the_unsqueezed_squeezed_state(self):
        assert CoherentState(0) != SqueezedState(0, 0)
        assert SqueezedState(0, 0) != CoherentState(0)

    @given(amplitudes)
    def test_equal_coherent_states_hash_equal(self, alpha):
        assert CoherentState(alpha) == CoherentState(alpha)
        assert hash(CoherentState(alpha)) == hash(CoherentState(alpha))

    def test_reprs(self):
        assert repr(CoherentState(1 + 1j)) == "CoherentState(alpha=(1+1j))"
        assert repr(SqueezedState(1 + 1j, 0.5)) == "SqueezedState(alpha=(1+1j), r=0.5)"

    def test_displace_keeps_the_state_type(self):
        assert type(displace(CoherentState(0), 1j)) is CoherentState
        assert type(displace(SqueezedState(0, 0.5), 1j)) is SqueezedState

    @pytest.mark.parametrize(
        "call",
        [
            lambda: CoherentState("x"),
            lambda: CoherentState("1"),
            lambda: CoherentState(None),
            lambda: CoherentState(True),
            lambda: CoherentState([1]),
            lambda: CoherentState(Fraction(10**400)),
            lambda: SqueezedState(0, "x"),
            lambda: SqueezedState(0, None),
            lambda: SqueezedState(0, False),
            lambda: SqueezedState(0, 0.5j),
            lambda: SqueezedState(0, math.nan),
            lambda: coherent_fock_vector("x", 8),
            lambda: squeezed_fock_vector(0, "x", 8),
            lambda: squeeze_fock_matrix("x", 8),
            lambda: squeezed_variant(1, 2, "x"),
            lambda: displace(CoherentState(0), "x"),
            lambda: overlap_sq("x", 0),
            lambda: overlap_sq(0, None),
        ],
        ids=[
            "coherent str", "coherent digit str", "coherent None", "coherent bool",
            "coherent list", "coherent huge Fraction", "squeezed r str", "squeezed r None",
            "squeezed r bool", "squeezed r complex", "squeezed r nan", "coherent_fock_vector",
            "squeezed_fock_vector r", "squeeze_fock_matrix", "squeezed_variant",
            "displace", "overlap_sq a", "overlap_sq b",
        ],
    )
    def test_non_numeric_scalars_raise_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("call", [
    lambda: QuadratureGrid(10**5000),
    lambda: optimal_fidelity(-10**5000, 2),
    lambda: CoherentState(10**5000),
    lambda: NoiseCovariance(10**5000, 0),
    lambda: optimal_fidelity(10**5000, 10**4999),
], ids=["grid nodes", "copy count", "amplitude", "variance", "copy counts that reduce"])
def test_int_too_long_to_print_is_a_domain_error(call):
    with pytest.raises(DomainError, match="an integer of 16610 bits"):
        call()


def test_fraction_too_long_to_print_is_a_domain_error():
    with pytest.raises(DomainError, match="a Fraction too long to print"):
        Fidelity(Fraction(10**5000 + 1, 10**4999))
