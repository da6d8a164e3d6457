"""Every value class of the package behaves as one kind of immutable value.

Each class derives from ``quadrature_core._Value``: equal by exact type and
fields with equal hashes, no assignment or deletion, a copy and a pickle
through its constructor, and the repr a frozen dataclass printed, kept byte
for byte.  ``FockVector`` and ``DensityMatrix`` are equal only to themselves,
and ``Fidelity`` is ordered by its value.
"""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from sgclone import (
    UNBOUNDED, CoherentState, DensityMatrix, Fidelity, FockVector, GaussianMixtureState,
    MeasurementWeights, NoiseCovariance, QuadratureGrid, SqueezedState, VarianceReport,
    optimal_cloner, optimal_fidelity,
)
from sgclone.verify import Check, VerificationReport

#: A builder of one value of each class, and the repr the dataclass printed for it.
VALUES = {
    "SqueezedState": (lambda: SqueezedState(1 + 1j, 0.5), "SqueezedState(alpha=(1+1j), r=0.5)"),
    "CoherentState": (lambda: CoherentState(2 - 1j), "CoherentState(alpha=(2-1j))"),
    "NoiseCovariance": (lambda: NoiseCovariance(Fraction(1, 2), 0.25),
                        "NoiseCovariance(var_x=Fraction(1, 2), var_p=0.25)"),
    "GaussianMixtureState": (
        lambda: GaussianMixtureState(CoherentState(1),
                                     NoiseCovariance(Fraction(1, 2), Fraction(1, 2))),
        "GaussianMixtureState(center=CoherentState(alpha=(1+0j)), "
        "noise=NoiseCovariance(var_x=Fraction(1, 2), var_p=Fraction(1, 2)))"),
    "Fidelity": (lambda: optimal_fidelity(1, 2), "Fidelity(value=Fraction(2, 3))"),
    "ClonerSpec": (lambda: optimal_cloner(1, 2),
                   "ClonerSpec(n_in=1, m_out=2, "
                   "noise=NoiseCovariance(var_x=Fraction(1, 2), var_p=Fraction(1, 2)))"),
    "ClonerSpec unbounded": (lambda: optimal_cloner(1, UNBOUNDED),
                             "ClonerSpec(n_in=1, m_out=UNBOUNDED, "
                             "noise=NoiseCovariance(var_x=Fraction(1, 1), var_p=Fraction(1, 1)))"),
    "MeasurementWeights": (lambda: MeasurementWeights(2.0, 1.0),
                           "MeasurementWeights(g_x=2.0, g_p=1.0)"),
    "VarianceReport": (lambda: VarianceReport(1.0, 0.5, 0.01, 0.02, 0.0, -0.5, 100, 7),
                       "VarianceReport(var_x_hat=1.0, var_p_hat=0.5, stderr_x=0.01, stderr_p=0.02, "
                       "mean_x_hat=0.0, mean_p_hat=-0.5, samples=100, seed=7)"),
    "Check": (lambda: Check("a", 1.0, 1.0, 0.0, True),
              "Check(name='a', expected=1.0, observed=1.0, tolerance=0.0, passed=True)"),
    "VerificationReport": (
        lambda: VerificationReport([Check("a", 1.0, 1.0, 0.0, True)]),
        "VerificationReport(checks=[Check(name='a', expected=1.0, observed=1.0, tolerance=0.0, "
        "passed=True)])"),
    "VerificationReport empty": (VerificationReport, "VerificationReport(checks=[])"),
    "QuadratureGrid": (QuadratureGrid, "QuadratureGrid(nodes_per_axis=41)"),
    "FockVector": (lambda: FockVector(2, np.array([1, 0, 0])),
                   "FockVector(cutoff=2, amplitudes=array([1.+0.j, 0.+0.j, 0.+0.j]))"),
    "DensityMatrix": (lambda: DensityMatrix(1, np.eye(2) / 2),
                      "DensityMatrix(cutoff=1, matrix=array([[0.5+0.j, 0. +0.j],\n"
                      "       [0. +0.j, 0.5+0.j]]))"),
}
#: Classes equal only to themselves, as ``eq=False`` made them.
BY_IDENTITY = {"FockVector", "DensityMatrix"}
#: Classes with a list field, so their values have no hash.
UNHASHABLE = {"VerificationReport", "VerificationReport empty"}
BY_VALUE = sorted(set(VALUES) - BY_IDENTITY)


@pytest.mark.parametrize("label", VALUES)
def test_repr_is_the_dataclass_repr(label):
    make, shown = VALUES[label]
    assert repr(make()) == shown


@pytest.mark.parametrize("label", BY_VALUE)
def test_equal_by_value_with_equal_hashes(label):
    a, b = VALUES[label][0](), VALUES[label][0]()
    assert a is not b and a == b and not a != b
    if label in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("label", BY_VALUE)
def test_equal_only_to_the_exact_type(label):
    value = VALUES[label][0]()
    cls, args = value.__reduce__()
    twin = type(f"Sub{cls.__name__}", (cls,), {"__slots__": ()})(*args)
    assert repr(twin) == f"Sub{repr(value)}"
    assert value != twin and twin != value
    assert value != args and value != None  # noqa: E711


@pytest.mark.parametrize("label", sorted(BY_IDENTITY))
def test_equal_only_to_itself(label):
    a, b = VALUES[label][0](), VALUES[label][0]()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


@pytest.mark.parametrize("label", VALUES)
def test_assignment_and_deletion_raise(label):
    value = VALUES[label][0]()
    for name in (*type(value)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == VALUES[label][1]


@pytest.mark.parametrize("label", VALUES)
def test_copy_and_pickle_round_trip(label):
    value = VALUES[label][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and repr(twin) == VALUES[label][1]
        assert (twin == value) is (label not in BY_IDENTITY)


def test_fidelity_is_ordered_by_value():
    low, high = Fidelity(Fraction(1, 2)), optimal_fidelity(1, 2)
    assert low < high and low <= high and high > low and high >= low
    assert not high < low and not high <= low and not low > high and not low >= high
    assert Fidelity(0.5) <= low and Fidelity(0.5) >= low
    assert sorted([high, low, Fidelity(1)]) == [low, high, Fidelity(1)]
    with pytest.raises(TypeError):
        low < 0.75  # noqa: B015
