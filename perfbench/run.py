"""Benchmark of the sgclone package: four workloads, each in fresh processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py                       # every workload, a table
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` the last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Without it, every workload runs one after another and
the results, with the environment, also go to ``.perfbench-results/``.

All times are CPU time (see ``worker.cpu_seconds``); the wall-clock
figures are printed beside them for reference.  ``setup_s`` is the CPU
time of a worker process from its start to its first timed operation.
Each run starts one discarded worker, to warm the file cache and write
bytecode, then ``SETUP_PROBES`` set-up-only workers, then the measuring
workers, and reports the median set-up of all but the first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("fock-suite", "oracle-sweep", "mc-suite", "cli-cold")
SETUP_PROBES = 3
MEASURING_WORKERS = 4
WORKER_TIMEOUT_S = 170
#: One BLAS thread for the workers and every process they start.  At
#: OpenBLAS's default of one thread per core, the oracle evaluations on a
#: 2-core machine ran 2.5 times slower and too unsteady for the bounds
#: (see README.md).
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_worker(args: list[str]) -> dict:
    """Start one worker, wait for it, return its JSON report and start time."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *args], capture_output=True, text=True,
                          cwd=ROOT, env=WORKER_ENV, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_ready"] = report["t_ready"] - started
    return report


def measure(base: list[str], seconds: int, trace: int) -> list[dict]:
    """The measuring workers of one run.

    Untraced, up to ``MEASURING_WORKERS`` workers share the run's time, so
    that no one process's memory layout or core sets the figures; a worker
    whose one round already fills the time is the only one.  The traced
    run is one worker, which splits its time between untraced and traced
    rounds.
    """
    if trace:
        return [run_worker(base + ["--seconds", str(seconds), "--trace", "1"])]
    reports = []
    measured = 0.0
    while len(reports) < MEASURING_WORKERS:
        reports.append(run_worker(base + ["--seconds", str(seconds / MEASURING_WORKERS), "--trace", "0"]))
        measured += sum(reports[-1]["round_wall"])
        if measured * (len(reports) + 1) / len(reports) > seconds:
            break
    return reports


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One measured run of one workload: the result object, and wall-clock
    figures and the environment for reference."""
    base = ["--workload", name, "--seed", str(seed)]
    setups = [run_worker(base + ["--setup-only"]) for _ in range(SETUP_PROBES + 1)][1:]
    reports = measure(base, seconds, trace)
    setups += reports

    def pooled(key):
        return [x for r in reports for x in r[key]]

    if trace:
        values = reports[0]["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s["cpu_ready"] for s in setups),
            "cpu_s": statistics.median(pooled("round_cpu")),
            "op_cpu_p50_ms": statistics.median(pooled("op_cpu")) * 1e3,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        }
        wanted = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in wanted):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": not any(r["mismatches"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    wall = {
        "setup_wall_s": statistics.median(s["wall_ready"] for s in setups),
        "wall_s": statistics.median(pooled("round_wall")),
        "op_wall_p50_ms": statistics.median(pooled("op_wall")) * 1e3,
    }
    return result, {"wall": wall, "env": reports[-1]["env"]}


def print_table(results: dict, info: dict) -> None:
    rows = [(f"{name} [{m['unit']}]", [r["metrics"][name]["value"] for r in results.values()])
            for name, m in next(iter(results.values()))["metrics"].items()]
    rows += [(f"{name} [{unit}, wall clock]", [i["wall"][name] for i in info.values()])
             for name, unit in (("setup_wall_s", "s"), ("wall_s", "s"), ("op_wall_p50_ms", "ms"))]
    rows = [(label, [f"{v:.6g}" for v in values]) for label, values in rows]
    rows += [(key, [str(r[key]) for r in results.values()]) for key in ("attempted", "failed", "correct")]
    width = max(len(label) for label, _ in rows) + 2
    print(f"{'metric':<{width}}" + "".join(f"{w:>14}" for w in results))
    for label, cells in rows:
        print(f"{label:<{width}}" + "".join(f"{c:>14}" for c in cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "sgclone", "__init__.py")):
        print(f"error: no sgclone source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    if args.workload:
        result, info = run_workload(spec, args.workload, args.seed, seconds, args.trace)
        print("env " + json.dumps(info["env"]))
        print(json.dumps(result))
        return 0

    results, info = {}, {}
    for name in WORKLOADS:
        results[name], info[name] = run_workload(spec, name, args.seed, seconds, args.trace)
    print_table(results, info)
    env = info[WORKLOADS[-1]]["env"]
    print("env " + json.dumps(env))
    out_dir = os.path.join(ROOT, ".perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "seconds": seconds, "env": env, "results": results,
                   "wall": {name: i["wall"] for name, i in info.items()}}, f, indent=2)
    print(f"written to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
