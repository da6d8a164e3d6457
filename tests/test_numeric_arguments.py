"""Every numeric and object parameter of the public API returns or raises SGCloneError.

The first property calls a public callable with each numeric parameter either
at a valid baseline or drawn from ints, bools, floats (nan, +-inf, -0.0 among
them), fractions, a Fraction beyond the float range, strings, None and
complex numbers.  Any exception other than an ``SGCloneError`` (a bare
TypeError, an OverflowError) fails it, and so does a float it returns that is
not finite.
Size-like integers are capped at 64 so that no draw allocates a large array.

The second property does the same for the parameters that take objects
(centre, noise, spec, weights, grid, mixture, state, rho, amplitudes and
matrix), drawn from None, ints, floats, strings, tuples, ndarrays, package
objects of every kind, right or wrong, and Hermitian matrices whose entries
are too large for their moments or fidelity; a float it returns must be finite.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sgclone import (
    UNBOUNDED,
    ClonerSpec,
    CoherentState,
    DensityMatrix,
    Fidelity,
    FockVector,
    GaussianMixtureState,
    MeasurementWeights,
    NoiseCovariance,
    QuadratureGrid,
    SGCloneError,
    SqueezedState,
    VarianceReport,
    add_noise,
    arthurs_kelly_margin,
    cascade,
    cascade_density_check,
    chain_bound_1to2,
    clone_reduced_output,
    cloning_lower_bound,
    coherent_fock_vector,
    default_cutoff,
    displace,
    fidelity_against,
    fidelity_from_variance,
    holevo_rhs,
    mixture_density_matrix,
    mixture_fidelity,
    optimal_cloner,
    optimal_fidelity,
    optimal_measurement_variance,
    optimal_noise_variance,
    overlap_sq,
    quadrature_moments,
    simulate_heterodyne_estimate,
    simulate_joint_measurement,
    squeeze_fock_matrix,
    squeezed_fock_vector,
    squeezed_variant,
    symmetric_variance_bound,
    verify_fock,
    verify_mc,
    weight_ratio_grid,
)
from sgclone import cli

#: Parameter kinds: SIZE a size-like integer (count, cutoff, nodes, samples,
#: points), SEED any other integer, REAL a real or complex scalar
#: (amplitude, squeezing, variance, weight, fidelity, tolerance), and
#: None a parameter held at its baseline.
SIZE, SEED, REAL = "size", "seed", "real"
HALF = NoiseCovariance(0.5, 0.5)
WEIGHTS = MeasurementWeights(1.0, 1.0)
SMALL_GRID = QuadratureGrid(2)

#: (callable, baseline arguments, kind of each argument)
CASES = [
    (CoherentState, (0.5,), (REAL,)),
    (SqueezedState, (0.5, 0.5), (REAL, REAL)),
    (NoiseCovariance, (0.5, 0.5), (REAL, REAL)),
    (displace, (CoherentState(0), 1j), (None, REAL)),
    (overlap_sq, (0.0, 1.0), (REAL, REAL)),
    (Fidelity, (0.5,), (REAL,)),
    (optimal_noise_variance, (1, 2), (SIZE, SIZE)),
    (optimal_fidelity, (1, 2), (SIZE, SIZE)),
    (optimal_cloner, (1, 2), (SIZE, SIZE)),
    (squeezed_variant, (1, 2, 0.5), (SIZE, SIZE, REAL)),
    (ClonerSpec, (1, 2, HALF), (SIZE, SIZE, None)),
    (MeasurementWeights, (1.0, 1.0), (REAL, REAL)),
    (VarianceReport, (1.0, 1.0, 0.1, 0.1, 0.0, 0.0, 10, 42),
     (REAL, REAL, REAL, REAL, REAL, REAL, SIZE, SEED)),
    (arthurs_kelly_margin, (1.0, 1.0), (REAL, REAL)),
    (holevo_rhs, (WEIGHTS, 0.5, 0.5), (None, REAL, REAL)),
    (symmetric_variance_bound, (WEIGHTS, 0.5, 0.5), (None, REAL, REAL)),
    (chain_bound_1to2, (0.5, 0.5, 0.5), (REAL, REAL, REAL)),
    (weight_ratio_grid, (61,), (SIZE,)),
    (optimal_measurement_variance, (1,), (SIZE,)),
    (cloning_lower_bound, (1, 2), (SIZE, SIZE)),
    (simulate_joint_measurement, (0.5, CoherentState(0), 8, 42), (REAL, None, SIZE, SEED)),
    (simulate_heterodyne_estimate, (1j, 2, 8, 42), (REAL, SIZE, SIZE, SEED)),
    (QuadratureGrid, (2,), (SIZE,)),
    (FockVector, (1, [1.0, 0.0]), (SIZE, None)),
    (DensityMatrix, (1, np.eye(2) / 2), (SIZE, None)),
    (squeeze_fock_matrix, (0.5, 32), (REAL, SIZE)),
    (squeezed_fock_vector, (1j, 0.5, 32), (REAL, REAL, SIZE)),
    (coherent_fock_vector, (1j, 32), (REAL, SIZE)),
    (mixture_density_matrix, (GaussianMixtureState(CoherentState(0), HALF), 1, SMALL_GRID),
     (None, SIZE, None)),
    (cascade_density_check, (CoherentState(0), HALF, HALF, 1, SMALL_GRID),
     (None, None, None, SIZE, None)),
    (cli._table, (1, 2), (SIZE, SIZE)),
    # cutoff 1 fails truncation at once, so only a drawn cutoff runs the suite.
    (verify_fock, (1e-5, 2, 1), (REAL, SIZE, SIZE)),
    (verify_mc, (2, 42), (SIZE, SEED)),
]

ODD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, Fraction(10**400)])
OTHERS = st.one_of(
    st.booleans(), st.floats(), ODD_VALUES, st.fractions(), st.text(max_size=3), st.none(),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)
DRAWS = {SIZE: st.integers(-2, 64) | OTHERS, SEED: st.integers() | OTHERS,
         REAL: st.integers() | OTHERS}


def calls(cases):
    """Calls of each case, every marked argument at its baseline or drawn for its kind."""
    return st.one_of([
        st.tuples(st.just(fn), st.tuples(*(
            st.just(value) if kind is None else st.just(value) | DRAWS[kind]
            for value, kind in zip(baseline, kinds)
        )))
        for fn, baseline, kinds in cases
    ])


def returns_finite_or_raises_sgclone_error(fn, args):
    try:
        result = fn(*args)
    except SGCloneError:
        return
    values = result if isinstance(result, tuple) else (result,)
    assert all(math.isfinite(v) for v in values if isinstance(v, float))


@settings(max_examples=400, deadline=None)
@example(call=(arthurs_kelly_margin, (1e308, 1e308)))
@example(call=(holevo_rhs, (WEIGHTS, 1e308, 1e308)))
@example(call=(chain_bound_1to2, (1e308, 1e308, 1e308)))
@example(call=(simulate_joint_measurement, (1e308, CoherentState(0), 8, 42)))
@example(call=(simulate_heterodyne_estimate, (1e308, 1, 8, 42)))
@example(call=(simulate_heterodyne_estimate, (0, 10**400, 2, 0)))
@example(call=(coherent_fock_vector, (8.988465674311579e+307 + 8.98846567431158e+307j, 32)))
@example(call=(squeezed_fock_vector, (1e200, 1.0, 32)))
@example(call=(squeezed_fock_vector, (1.7e308 + 1.7e308j, -1.5, 32)))
@example(call=(squeezed_fock_vector, (0, 20, 32)))  # tanh r rounds to 1
@example(call=(squeezed_fock_vector, (0, 800, 32)))  # cosh r overflows
@example(call=(squeeze_fock_matrix, (1.7976931348623157e308, 32)))  # r lam overflows
@example(call=(default_cutoff, (SqueezedState(0, 400),)))  # e^{2r}/2 overflows
@example(call=(mixture_density_matrix, (GaussianMixtureState(SqueezedState(0, 5), HALF),)))
@example(call=(cascade_density_check, (CoherentState(0), HALF, NoiseCovariance(1e308, 1e308))))
@given(call=calls(CASES))
def test_numeric_arguments_return_or_raise_sgclone_error(call):
    returns_finite_or_raises_sgclone_error(*call)


#: OBJ marks a parameter that takes an object.
OBJ = "object"
MIX = GaussianMixtureState(CoherentState(0), HALF)
SPEC = optimal_cloner(1, 2)
RHO = DensityMatrix(1, np.eye(2) / 2)
VACUUM = coherent_fock_vector(0, 1)

#: (callable, baseline arguments, kind of each argument)
OBJECT_CASES = [
    (GaussianMixtureState, (CoherentState(0), HALF), (OBJ, OBJ)),
    (displace, (CoherentState(0), 1j), (OBJ, None)),
    (add_noise, (HALF, HALF), (OBJ, OBJ)),
    (ClonerSpec, (1, 2, HALF), (None, None, OBJ)),
    (cascade, (SPEC, optimal_cloner(2, 4)), (OBJ, OBJ)),
    (clone_reduced_output, (SPEC, CoherentState(0)), (OBJ, OBJ)),
    (fidelity_from_variance, (HALF,), (OBJ,)),
    (mixture_fidelity, (MIX,), (OBJ,)),
    (holevo_rhs, (WEIGHTS, 0.5, 0.5), (OBJ, None, None)),
    (symmetric_variance_bound, (WEIGHTS,), (OBJ,)),
    (simulate_joint_measurement, (0.5, CoherentState(0), 8, 42), (None, OBJ, None, None)),
    (default_cutoff, (CoherentState(0), HALF), (OBJ, OBJ)),
    (FockVector, (1, [1.0, 0.0]), (None, OBJ)),
    (DensityMatrix, (1, np.eye(2) / 2), (None, OBJ)),
    (mixture_density_matrix, (MIX, 1, SMALL_GRID), (OBJ, None, OBJ)),
    (cascade_density_check, (CoherentState(0), HALF, HALF, 1, SMALL_GRID),
     (OBJ, OBJ, OBJ, None, OBJ)),
    (fidelity_against, (VACUUM, RHO), (OBJ, OBJ)),
    (quadrature_moments, (RHO,), (OBJ,)),
]

HUGE_WEIGHTS = MeasurementWeights(1e308, 1e308)
SPREAD = FockVector(1, [0.6, 0.8])
PACKAGE_OBJECTS = [
    CoherentState(0), SqueezedState(1j, 0.5), HALF, MIX, SPEC, WEIGHTS, HUGE_WEIGHTS, SMALL_GRID,
    RHO, VACUUM, SPREAD, UNBOUNDED, (1.0, 1.0), object(),
]


def huge_rho(entry, diagonal):
    """A Hermitian matrix with every off-diagonal entry, and the diagonal if asked, at ``entry``."""
    return DensityMatrix(1, [[entry * diagonal, entry], [entry, entry * diagonal]])


DRAWS[OBJ] = st.one_of(
    st.none(), st.integers(), st.floats(), st.text(max_size=3), st.sampled_from(PACKAGE_OBJECTS),
    arrays(st.sampled_from([float, complex, bool, "U1"]), st.sampled_from([(2,), (3,), (2, 2)])),
    st.builds(huge_rho, st.floats(1e150, 1e308), st.booleans()),
)


@settings(max_examples=400, deadline=None)
@example(call=(quadrature_moments, (huge_rho(1e200, False),)))
@example(call=(fidelity_against, (SPREAD, huge_rho(1e308, True))))
@example(call=(symmetric_variance_bound, (HUGE_WEIGHTS,)))
@given(call=calls(OBJECT_CASES))
def test_object_arguments_return_or_raise_sgclone_error(call):
    returns_finite_or_raises_sgclone_error(*call)
