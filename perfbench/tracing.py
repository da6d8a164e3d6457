"""Per-layer spans around calls into sgclone's public functions.

The tracer replaces each traced function by a wrapper, as a module
attribute, in every ``sgclone`` module that holds it: ``verify`` and
``cli`` import names from ``fock_oracle`` and ``cloner`` into their own
namespaces, and a wrapper installed only in the defining module would miss
those calls.  ``DensityMatrix.min_eigenvalue`` is wrapped on the class.

A span's self time is its CPU time minus that of the traced spans it
encloses.  Work counts (coherent projectors summed, floating-point
operations, random draws) are computed from each call's arguments.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

_CLONER_FUNCTIONS = (
    "optimal_noise_variance", "optimal_fidelity", "fidelity_from_variance", "optimal_cloner",
    "cascade", "clone_reduced_output", "squeezed_variant", "mixture_fidelity",
)


def _nodes(grid, variance) -> int:
    return 1 if variance == 0 else grid.nodes_per_axis


def _projector_work(fock, bound: dict, mode: str) -> dict:
    """Projectors K and the 8 K d^2 flops of summing them into a d x d matrix."""
    grid = bound["grid"] or fock.QuadratureGrid()
    if mode == "mixture":
        mix = bound["mixture"]
        if mix.noise.var_x == 0 and mix.noise.var_p == 0:
            return {}
        center, total = mix.center, mix.noise
        count = _nodes(grid, total.var_x) * _nodes(grid, total.var_p)
    else:
        center, first, second = bound["center"], bound["noise_first"], bound["noise_second"]
        total = type(first)(first.var_x + second.var_x, first.var_p + second.var_p)
        count = (_nodes(grid, first.var_x) * _nodes(grid, first.var_p)
                 * _nodes(grid, second.var_x) * _nodes(grid, second.var_p)
                 + _nodes(grid, total.var_x) * _nodes(grid, total.var_p))
    cutoff = bound["cutoff"]
    if cutoff is None:
        cutoff = fock.default_cutoff(center, total)
    return {"projectors": count, "flop": 8.0 * count * (cutoff + 1) ** 2}


class Tracer:
    """Call counts, self time, inclusive time and work per traced function."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.work = defaultdict(float)
        self._open = []
        self._undo = []

    def _wrap(self, key: str, fn, work=None):
        signature = inspect.signature(fn) if work else None

        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.process_time() - start
                enclosed = self._open.pop()
                if self._open:
                    self._open[-1] += total
                self.calls[key] += 1
                self.self_s[key] += total - enclosed
                self.total_s[key] += total
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, value in work(bound.arguments).items():
                    self.work[f"{key}.{name}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, fn, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "sgclone" and not name.startswith("sgclone."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def install(self) -> None:
        """Wrap the traced functions of every layer that is importable."""
        fock = importlib.import_module("sgclone.fock_oracle")
        bounds = importlib.import_module("sgclone.estimation_bounds")
        cloner = importlib.import_module("sgclone.cloner")
        verify = importlib.import_module("sgclone.verify")
        targets = [
            (fock.mixture_density_matrix, "fock_oracle.mixture_density_matrix",
             lambda b: _projector_work(fock, b, "mixture")),
            (fock.cascade_density_check, "fock_oracle.cascade_density_check",
             lambda b: _projector_work(fock, b, "cascade")),
            (fock.squeeze_fock_matrix, "fock_oracle.squeeze_fock_matrix", None),
            (fock.coherent_fock_vector, "fock_oracle.state_vectors", None),
            (fock.squeezed_fock_vector, "fock_oracle.state_vectors", None),
            (fock.quadrature_moments, "fock_oracle.quadrature_moments", None),
            (fock.fidelity_against, "fock_oracle.fidelity_against", None),
            (bounds.simulate_joint_measurement, "estimation_bounds.simulate_joint_measurement",
             lambda b: {"draws": 4 * b["samples"]}),
            (bounds.simulate_heterodyne_estimate, "estimation_bounds.simulate_heterodyne_estimate",
             lambda b: {"draws": 2 * b["n_copies"] * b["samples"]}),
            (verify.verify_fock, "verify.verify_fock", None),
            (verify.verify_mc, "verify.verify_mc", None),
            (verify.verify_bounds, "verify.verify_bounds", None),
        ]
        targets += [(getattr(cloner, name), "cloner", None) for name in _CLONER_FUNCTIONS]
        for fn, key, work in targets:
            self._patch(fn, self._wrap(key, fn, work))
        method = fock.DensityMatrix.min_eigenvalue
        fock.DensityMatrix.min_eigenvalue = self._wrap("fock_oracle.min_eigenvalue", method)
        self._undo.append((fock.DensityMatrix, "min_eigenvalue", method))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "work": dict(self.work)}


def merge(into: dict, snap: dict) -> None:
    """Add one tracer snapshot (for example from a child process) into another."""
    for part, values in snap.items():
        bucket = into.setdefault(part, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value


def layer_metrics(snap: dict, rounds: int) -> dict:
    """Per-layer metrics per round of a workload, from a merged snapshot."""
    calls, self_s = snap.get("calls", {}), snap.get("self_s", {})
    total_s, work = snap.get("total_s", {}), snap.get("work", {})

    def per_round(table, key):
        return table.get(key, 0) / rounds

    out = {}
    projector_sums = ("fock_oracle.cascade_density_check", "fock_oracle.mixture_density_matrix")
    for key in projector_sums:
        out[f"{key}.calls"] = per_round(calls, key)
        out[f"{key}.s"] = per_round(self_s, key)
        out[f"{key}.projectors"] = per_round(work, f"{key}.projectors")
    projectors = sum(work.get(f"{key}.projectors", 0) for key in projector_sums)
    busy = sum(self_s.get(key, 0.0) for key in projector_sums)
    out["fock_oracle.projectors_per_s"] = projectors / busy if busy else 0.0
    out["fock_oracle.projector_gflop"] = sum(per_round(work, f"{key}.flop") for key in projector_sums) / 1e9
    out["fock_oracle.squeeze_fock_matrix.calls"] = per_round(calls, "fock_oracle.squeeze_fock_matrix")
    out["fock_oracle.squeeze_fock_matrix.s"] = per_round(self_s, "fock_oracle.squeeze_fock_matrix")
    for fn in ("state_vectors", "quadrature_moments", "min_eigenvalue", "fidelity_against"):
        out[f"fock_oracle.{fn}.s"] = per_round(self_s, f"fock_oracle.{fn}")
    draws = busy = 0.0
    for fn in ("simulate_joint_measurement", "simulate_heterodyne_estimate"):
        key = f"estimation_bounds.{fn}"
        out[f"{key}.s"] = per_round(self_s, key)
        draws += work.get(f"{key}.draws", 0)
        busy += self_s.get(key, 0.0)
    out["estimation_bounds.draws"] = draws / rounds
    out["estimation_bounds.draws_per_s"] = draws / busy if busy else 0.0
    out["cloner.calls"] = per_round(calls, "cloner")
    out["cloner.s"] = per_round(self_s, "cloner")
    out["verify.verify_fock.self_s"] = per_round(self_s, "verify.verify_fock")
    out["verify.verify_mc.self_s"] = per_round(self_s, "verify.verify_mc")
    out["verify.verify_bounds.s"] = per_round(total_s, "verify.verify_bounds")
    return out
