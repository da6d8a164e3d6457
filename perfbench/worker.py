"""One benchmark workload in one fresh process.

Usage: python3 worker.py --workload NAME --seed N
                         (--setup-only | --seconds S --trace 0|1)

Set-up (imports, seeded inputs, warm-up) runs first.  At its end the
worker records the CPU time it has used since it started, ``cpu_ready``,
and the monotonic clock, ``t_ready``, from which the parent takes the
wall-clock set-up time.  With ``--setup-only`` the worker stops there.  Otherwise it runs whole rounds
over the workload's fixed input set until the next round would end after
``--seconds``, checks every output outside the timed region, and prints
one JSON object as its last stdout line.

With ``--trace 1`` half the time runs untraced and half traced, so the
tracer's own overhead is the difference between the two round times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
from checks import INF  # noqa: E402
from tracing import Tracer, layer_metrics, merge  # noqa: E402

CLI_TIMEOUT_S = 60
PROBE_REPEATS = 5


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended.

    The benchmark times with this clock, not the wall clock: on the shared
    2-core machine it was measured on, time stolen by the host moved the
    wall time of one operation by up to 40% between runs.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _count(value):
    """'inf' -> sgclone.UNBOUNDED, integers unchanged."""
    from sgclone import UNBOUNDED

    return UNBOUNDED if value == INF else value


# --- fock-suite: verify_fock() at its defaults --------------------------------

class FockSuite:
    """One operation is ``verify.verify_fock()``; the input set is that call."""

    def __init__(self, seed: int):
        from sgclone import fock_oracle, verify
        from sgclone.quadrature_core import CoherentState, GaussianMixtureState, NoiseCovariance

        self.verify = verify
        self.inputs = [None]
        self.table = checks.fock_table()
        # Warm-up: one small mixture, so the BLAS threads exist before timing.
        fock_oracle.mixture_density_matrix(
            GaussianMixtureState(CoherentState(0j), NoiseCovariance(0.5, 0.5)), 32)

    def run(self, _):
        return self.verify.verify_fock()

    def check(self, _, report) -> None:
        checks.check_suite(report.as_dict(), self.table)


# --- oracle-sweep: single-clone oracle evaluations ---------------------------

#: (N, M) with N <= 4 and N < M <= 8 or M = inf: every pair with clone noise.
ORACLE_PAIRS = [(n, m) for n in range(1, 5) for m in list(range(n + 1, 9)) + [INF]]
COHERENT_RADII = (0.5, 1.5, 2.5)
SQUEEZED_RADIUS = 1.0
SQUEEZINGS = (0.25, 0.35, 0.45, 0.55)
#: The same for every seed, so that set-up time does not depend on it.
WARM_UP_CASE = {"n": 1, "m": 2, "r": 0.35, "alpha": 1 + 0j}


def oracle_cases(seed: int) -> list[dict]:
    """Three coherent and one squeezed centre per (N, M) pair, in seeded order.

    Radii and squeezing magnitudes are fixed, so the cutoffs, and with them
    the work, are the same for every seed; the seed draws the phases of the
    centres, the signs of the squeezing and the order of evaluation.
    """
    rng = random.Random(seed)
    cases = []
    for i, (n, m) in enumerate(ORACLE_PAIRS):
        for radius in COHERENT_RADII:
            phase = rng.uniform(0, 2 * math.pi)
            cases.append({"n": n, "m": m, "r": 0.0,
                          "alpha": radius * complex(math.cos(phase), math.sin(phase))})
        phase = rng.uniform(0, 2 * math.pi)
        r = SQUEEZINGS[i % len(SQUEEZINGS)] * rng.choice((-1, 1))
        cases.append({"n": n, "m": m, "r": r,
                      "alpha": SQUEEZED_RADIUS * complex(math.cos(phase), math.sin(phase))})
    rng.shuffle(cases)
    return cases


class OracleSweep:
    """One operation: mixture, fidelity against the oracle's own state,
    moments and minimum eigenvalue of one cloned state."""

    def __init__(self, seed: int):
        import sgclone
        from sgclone import fock_oracle

        self.sg = sgclone
        self.fock = fock_oracle
        self.inputs = oracle_cases(seed)
        self.run(WARM_UP_CASE)

    def run(self, case):
        sg, fock = self.sg, self.fock
        n, m, alpha, r = case["n"], _count(case["m"]), case["alpha"], case["r"]
        if r:
            spec, state = sg.squeezed_variant(n, m, r), sg.SqueezedState(alpha, r)
        else:
            spec, state = sg.optimal_cloner(n, m), sg.CoherentState(alpha)
        rho = fock.mixture_density_matrix(sg.clone_reduced_output(spec, state))
        if r:
            vec = fock.squeezed_fock_vector(alpha, r, rho.cutoff)
        else:
            vec = fock.coherent_fock_vector(alpha, rho.cutoff)
        return (fock.fidelity_against(vec, rho), tuple(fock.quadrature_moments(rho)),
                rho.min_eigenvalue(), rho)

    def check(self, case, out) -> None:
        fid, moments, min_eig, rho = out
        trace = math.fsum(rho.matrix[i, i].real for i in range(rho.cutoff + 1))
        checks.check_oracle(case, fid, moments, min_eig, trace)


# --- mc-suite: verify_mc over seeds derived from the workload seed -----------

MC_SAMPLES = 10**6
MC_CALLS = 3


class McSuite:
    """One operation is ``verify.verify_mc(samples=10**6, seed=s)``."""

    def __init__(self, seed: int):
        from sgclone import verify

        self.verify = verify
        rng = random.Random(seed)
        # Above the suite's fixed seeds, so every call runs the same checks.
        self.inputs = [rng.randrange(2000, 2**31) for _ in range(MC_CALLS)]
        self.tables = {s: checks.mc_table(s, MC_SAMPLES) for s in self.inputs}
        verify.verify_mc(samples=1000, seed=self.inputs[0])

    def run(self, seed):
        return self.verify.verify_mc(samples=MC_SAMPLES, seed=seed)

    def check(self, seed, report) -> None:
        checks.check_suite(report.as_dict(), self.tables[seed])


# --- cli-cold: one cold `python -m sgclone.cli` process per operation --------

#: Usage errors that today exit 1 with a traceback; counted as failed
#: operations until the program turns them into exit-2 usage errors.
KNOWN_FAILING = (["variance", "1", "2", "--r", "1000"], ["verify-mc", "--seed", "-1", "--samples", "10"])


def cli_commands(seed: int) -> list[dict]:
    """Fourteen commands: every closed-form command and format, verify-bounds,
    two seeded usage errors and the two known-failing ones."""
    rng = random.Random(seed)

    def pair(allow_inf=False):
        n = rng.randint(1, 4)
        m = rng.randint(n, 8)
        return (n, INF) if allow_inf and rng.random() < 0.25 else (n, m)

    specs = []
    for fmt in ("text", "csv", "json"):
        n, m = pair(allow_inf=True)
        specs.append({"kind": "fidelity", "fmt": fmt, "n": n, "m": m,
                      "argv": ["fidelity", str(n), str(m), "--format", fmt]})
    n, m = pair(allow_inf=True)
    specs.append({"kind": "variance", "fmt": "text", "n": n, "m": m,
                  "argv": ["variance", str(n), str(m)]})
    n, m = pair()
    m += 1
    r = round(rng.uniform(-1.0, 1.0), 3) or 0.5
    specs.append({"kind": "squeezed", "fmt": "json", "n": n, "m": m, "r": r,
                  "argv": ["variance", str(n), str(m), "--r", str(r), "--format", "json"]})
    n, m = pair()
    l = rng.randint(m, 9)
    specs.append({"kind": "cascade", "fmt": "text", "n": n, "m": m, "l": l,
                  "argv": ["cascade", str(n), str(m), str(l)]})
    n_max = rng.randint(1, 4)
    m_max = rng.randint(n_max, 8)
    for fmt in ("text", "csv", "json"):
        specs.append({"kind": "table", "fmt": fmt, "n": n_max, "m": m_max,
                      "argv": ["table", str(n_max), str(m_max), "--format", fmt]})
    specs.append({"kind": "verify", "fmt": "text", "argv": ["verify-bounds"]})
    n = rng.randint(2, 8)
    specs.append({"kind": "usage", "argv": ["fidelity", str(n), str(rng.randint(1, n - 1))]})
    n = rng.randint(1, 6)
    specs.append({"kind": "usage", "argv": ["cascade", str(n), str(n + 2), str(n + 1)]})
    specs += [{"kind": "usage", "argv": list(argv)} for argv in KNOWN_FAILING]
    return specs


def strip_probe(stderr: str):
    """Split a probe's stderr into what the command printed and the probe report."""
    lines = stderr.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("perfbench-probe "):
            return "".join(lines[:i] + lines[i + 1:]), json.loads(line[len("perfbench-probe "):])
    raise RuntimeError(f"probe printed no report: {stderr!r}")


class CliCold:
    """One operation is one cold process; traced rounds run it under the probe."""

    def __init__(self, seed: int):
        self.inputs = cli_commands(seed)
        self.env = child_env()
        self.tracer_snapshot = None
        self.run({"argv": ["fidelity", "1", "2"]})

    def run(self, spec):
        if self.tracer_snapshot is None:
            cmd = [sys.executable, "-m", "sgclone.cli", *spec["argv"]]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_probe.py"), "--trace", "--", *spec["argv"]]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)
        stderr = proc.stderr
        if self.tracer_snapshot is not None:
            stderr, report = strip_probe(stderr)
            merge(self.tracer_snapshot, report["trace"])
        return proc.returncode, proc.stdout, stderr

    def check(self, spec, out) -> None:
        checks.check_cli(spec, *out)


WORKLOADS = {"fock-suite": FockSuite, "oracle-sweep": OracleSweep,
             "mc-suite": McSuite, "cli-cold": CliCold}


# --- measurement --------------------------------------------------------------

class Tally:
    """Per-operation and per-round times, CPU and wall clock, and outcomes."""

    def __init__(self):
        self.op_cpu, self.round_cpu = [], []
        self.op_wall, self.round_wall = [], []
        self.attempted = 0
        self.failed = 0
        self.mismatches = []


def run_rounds(workload, seconds: float, tally: Tally) -> int:
    """Whole rounds over the input set until the next one would overrun."""
    start = time.monotonic()
    rounds = 0
    while True:
        round_cpu = round_wall = 0.0
        for item in workload.inputs:
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            try:
                out = workload.run(item)
            except Exception as exc:  # an operation that raises is a failed operation
                out = exc
            cpu, wall = cpu_seconds() - cpu0, time.perf_counter() - wall0
            round_cpu += cpu
            round_wall += wall
            tally.op_cpu.append(cpu)
            tally.op_wall.append(wall)
            tally.attempted += 1
            try:
                if isinstance(out, Exception):
                    raise checks.Failure(f"{type(out).__name__}: {out}")
                workload.check(item, out)
            except checks.Failure as exc:
                tally.failed += 1
                print(f"failed: {exc}", file=sys.stderr)
            except checks.Mismatch as exc:
                tally.mismatches.append(str(exc))
                print(f"incorrect: {exc}", file=sys.stderr)
        tally.round_cpu.append(round_cpu)
        tally.round_wall.append(round_wall)
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return rounds


def cli_probes() -> dict:
    """Cold-start CPU times from fixed probes, median of several each: a bare
    interpreter, and ``sgclone fidelity 1 2`` under the probe."""
    env = child_env()
    bare = []
    for _ in range(PROBE_REPEATS):
        cpu0 = cpu_seconds()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        bare.append(cpu_seconds() - cpu0)
    reports = []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "cli_probe.py"), "--", "fidelity", "1", "2"],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        reports.append(strip_probe(proc.stderr)[1])
    return {
        "cli.import_ms": statistics.median(r["import_ms"] for r in reports),
        "cli.modules_loaded": statistics.median(r["modules_loaded"] for r in reports),
        "cli.main_ms": statistics.median(r["main_ms"] for r in reports),
        "cli.interpreter_ms": statistics.median(bare) * 1e3,
    }


def environment() -> dict:
    """Versions, processors, BLAS threads and revision of this run."""
    import ctypes

    import numpy
    import scipy

    blas = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas[os.path.basename(lib)] = fn()
                break
    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "blas_threads": blas,
            "git_rev": git_revision()}


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip()
    return ref


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    result = {"t_ready": time.monotonic(), "cpu_ready": cpu_seconds()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tally = Tally()
    if args.trace:
        run_rounds(workload, args.seconds / 2, tally)
        untraced = statistics.median(tally.round_cpu)
        tally.round_cpu = []
        tracer = Tracer()
        if args.workload == "cli-cold":
            workload.tracer_snapshot = {}
        else:
            tracer.install()
        rounds = run_rounds(workload, args.seconds / 2, tally)
        tracer.uninstall()
        snapshot = workload.tracer_snapshot if args.workload == "cli-cold" else tracer.snapshot()
        layers = layer_metrics(snapshot, rounds)
        layers.update(cli_probes())
        layers["trace.overhead_s"] = statistics.median(tally.round_cpu) - untraced
        result["layers"] = layers
    else:
        run_rounds(workload, args.seconds, tally)
    self_or_children = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    result.update(vars(tally))
    result["peak_rss_mb"] = resource.getrusage(self_or_children).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
