"""The closed-form surface loads no numerics; numeric names load on first use.

``verify-bounds``, the bounds of ``estimation_bounds`` and every ``verify-*``
argument error the standard library can decide run without numpy.  Against a
bare interpreter started the same way (its ``site`` may import part of the
standard library already), these commands add neither ``dataclasses`` nor
``inspect``, and a command adds ``json`` or ``csv`` only for that format.
"""

import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgclone

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every public name ``dir(sgclone)`` listed when the package imported
#: everything eagerly, submodules included.
PUBLIC_NAMES = {
    "ClonerSpec", "CoherentState", "CompositionError", "ContractViolationError", "DensityMatrix",
    "DimensionError", "DomainError", "Fidelity", "FockVector", "GaussianMixtureState",
    "InvalidClonerError", "MeasurementWeights", "NoiseCovariance", "QuadratureGrid",
    "SGCloneError", "SqueezedState", "TruncationError", "UNBOUNDED", "VarianceReport",
    "VerificationReport", "add_noise", "arthurs_kelly_margin", "cascade",
    "cascade_density_check", "chain_bound_1to2", "clone_reduced_output", "cloner",
    "cloning_lower_bound", "coherent_fock_vector", "default_cutoff", "displace", "errors",
    "estimation_bounds", "fidelity_against", "fidelity_from_variance", "fock_oracle",
    "holevo_rhs", "mixture_density_matrix", "mixture_fidelity", "optimal_cloner",
    "optimal_fidelity", "optimal_measurement_variance", "optimal_noise_variance", "overlap_sq",
    "quadrature_core", "quadrature_moments", "simulate_heterodyne_estimate",
    "simulate_joint_measurement", "squeeze_fock_matrix", "squeezed_fock_vector",
    "squeezed_variant", "symmetric_variance_bound", "verify", "verify_bounds", "verify_fock",
    "verify_mc", "weight_ratio_grid",
}

_MODULES = "print(' '.join(sorted(sys.modules)))"
_PROBE = f"""
import sys
import sgclone
import sgclone.cli
code = sgclone.cli.main(sys.argv[1:])
print("exit", code, "numpy" in sys.modules)
{_MODULES}
"""

#: (argv, exit code): the closed-form commands, verify-bounds and the verify-*
#: usage errors, each in a format named by its ``--format`` (text by default).
COLD_COMMANDS = [
    (("fidelity", "1", "2"), 0),
    (("variance", "2", "5", "--r", "0.3", "--format", "json"), 0),
    (("cascade", "1", "2", "4"), 0),
    (("table", "3", "6", "--format", "csv"), 0),
    (("fidelity", "3", "2"), 2),
    (("verify-bounds",), 0),
    (("verify-mc", "--seed", "-1", "--samples", "10"), 2),
    (("verify-mc", "--samples", "1"), 2),
    (("verify-fock", "--tolerance", "nan"), 2),
    (("verify-fock", "--nodes", "186"), 2),
    (("verify-fock", "--cutoff", "513"), 2),
]


@functools.lru_cache(maxsize=None)
def _command(argv: tuple) -> tuple[str, frozenset]:
    """The probe's exit line for ``argv`` and the modules it loaded beyond a bare interpreter."""
    *_, last, modules = _probe(_PROBE, *argv)
    return last, frozenset(modules.split()) - _bare_modules()


@functools.lru_cache(maxsize=None)
def _bare_modules() -> frozenset:
    return frozenset(_probe(f"import sys\n{_MODULES}")[-1].split())


@pytest.mark.parametrize("argv, code", COLD_COMMANDS)
def test_closed_form_commands_do_not_import_numpy(argv, code):
    assert _command(argv)[0] == f"exit {code} False"


@pytest.mark.parametrize("argv", [argv for argv, _ in COLD_COMMANDS])
def test_closed_form_commands_load_no_dataclasses_and_only_their_format(argv):
    added = _command(argv)[1]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    assert "sgclone.cli" in added
    assert not added & {"dataclasses", "inspect"}
    assert added & {"json", "csv"} == ({fmt} & {"json", "csv"})


_BOUNDS = ("[sgclone.cloning_lower_bound(2, 5),"
           " sgclone.symmetric_variance_bound(sgclone.MeasurementWeights(2.0, 1.0)),"
           " sgclone.holevo_rhs(sgclone.MeasurementWeights(1.0, 3.0), 0.5, 0.5),"
           " sgclone.arthurs_kelly_margin(1.5, 1.0)]")


def test_closed_form_bounds_do_not_import_numpy():
    lines = _probe(f"import sys, sgclone\nprint(repr({_BOUNDS}), 'numpy' in sys.modules)")
    assert lines[-1] == f"{eval(_BOUNDS)!r} False"


def _probe(code: str, *argv: str) -> list[str]:
    """The stdout lines of ``code`` run with ``argv`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("name, module", sorted(sgclone._LAZY.items()))
def test_lazy_name_is_the_submodule_attribute(name, module):
    assert getattr(sgclone, name) is getattr(importlib.import_module(f"sgclone.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sgclone.no_such_name


def test_dir_lists_every_public_name():
    assert PUBLIC_NAMES <= set(dir(sgclone))
    assert all(hasattr(sgclone, name) for name in PUBLIC_NAMES)
