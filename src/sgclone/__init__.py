"""Optimal N-to-M symmetric Gaussian cloning of coherent states.

Closed-form optima in exact rational arithmetic, measurement-theoretic
bounds with seeded Monte Carlo checks, and an independent truncated-Fock
numerical oracle.

The closed-form names, the bounds of ``estimation_bounds`` and ``verify_bounds``
use only the standard library.  The Fock oracle, the simulations and the other
two suites import numpy on first use, so closed-form callers never load it.
"""

from importlib import import_module as _import_module

from .cloner import (
    UNBOUNDED,
    ClonerSpec,
    Fidelity,
    cascade,
    clone_reduced_output,
    fidelity_from_variance,
    mixture_fidelity,
    optimal_cloner,
    optimal_fidelity,
    optimal_noise_variance,
    squeezed_variant,
)
from .errors import (
    CompositionError,
    ContractViolationError,
    DimensionError,
    DomainError,
    InvalidClonerError,
    SGCloneError,
    TruncationError,
)
from .quadrature_core import (
    CoherentState,
    GaussianMixtureState,
    NoiseCovariance,
    SqueezedState,
    add_noise,
    displace,
    overlap_sq,
)

__version__ = "0.1.0"

#: Public name -> the submodule that defines it, imported on first use.
_LAZY = {
    **dict.fromkeys(
        (
            "MeasurementWeights",
            "VarianceReport",
            "arthurs_kelly_margin",
            "chain_bound_1to2",
            "cloning_lower_bound",
            "holevo_rhs",
            "optimal_measurement_variance",
            "simulate_heterodyne_estimate",
            "simulate_joint_measurement",
            "symmetric_variance_bound",
            "weight_ratio_grid",
        ),
        "estimation_bounds",
    ),
    **dict.fromkeys(
        (
            "DensityMatrix",
            "FockVector",
            "QuadratureGrid",
            "cascade_density_check",
            "coherent_fock_vector",
            "default_cutoff",
            "fidelity_against",
            "mixture_density_matrix",
            "quadrature_moments",
            "squeeze_fock_matrix",
            "squeezed_fock_vector",
        ),
        "fock_oracle",
    ),
    **dict.fromkeys(("VerificationReport", "verify_bounds", "verify_fock", "verify_mc"), "verify"),
}


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _LAZY.values():
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
