"""Benchmark of the transfer-operator pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: chain-observables and
accuracy-ladder (see bench/README.md).  The workload runs in its own process
(bench/worker.py) with PYTHONPATH=src and one BLAS thread; this process
measures set-up, checks every output against the independent oracles
in bench/oracles.py and the properties in bench/checks.py, and prints
one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb, nodes_to_tol); with --trace 1 the per-layer ones, from a
traced run whose spans land in bench/out/<workload>.spans.jsonl.  The
seed chooses which grid points get the oracle check (and the order of
the ladder's cases); the program sees only the configs.  Exits 1 if a
check fails, 2 if the package is not there to run.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
OUT_DIR = os.path.join("bench", "out")
SETUP_PROBES = 7
ORACLE_POINTS = 6
WORKER_TIMEOUT_S = 170

# BLAS thread count, the same on every run and in every process
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402  (after the BLAS thread count is fixed)
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker_cmd(args, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--out-dir", OUT_DIR, *extra]


def measure_setup(args):
    """Median time from spawning a fresh interpreter until it is ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(_worker_cmd(args, "--probe"), env=_child_env(),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc})")
    return statistics.median(times)


def run_worker(args, references):
    cmd = _worker_cmd(args, "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--seed", str(args.seed),
                      "--references", json.dumps(references))
    proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def plain_cli_bytes(spec, name):
    """CSV bytes of a plain `python -m thermo_transfer.cli` run."""
    out = os.path.join(OUT_DIR, name + ".plain.csv")
    subprocess.run([sys.executable, "-m", "thermo_transfer.cli",
                    *spec.cli_args(out)], env=_child_env(),
                   stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S,
                   check=True)
    with open(out, "rb") as fh:
        return fh.read()


def nodes_to_tol(cases, reached):
    # a case that misses its target (a failed check) counts as m_max + 1
    return sum(reached[c.name][0] or c.m_max + 1 for c in cases)


def blas_info():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment():
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(),
            "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"])}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "thermo_transfer", "__init__.py")):
        print("error: run from the repository root; src/thermo_transfer "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import thermo_transfer.models as models

    os.makedirs(OUT_DIR, exist_ok=True)
    print(json.dumps({"environment": environment()}), flush=True)
    spec = workloads.WORKLOADS[args.workload]
    is_config = isinstance(spec, workloads.ConfigWorkload)
    rng = random.Random(args.seed)
    cases = workloads.ladder_cases(args.workload)
    references = {c.name: checks.ladder_reference(c) for c in cases}

    setup_s = None if args.trace else measure_setup(args)
    result = run_worker(args, references if not is_config else {})
    failures = []
    if not result["identical_passes"]:
        failures.append("passes gave different outputs")

    if is_config:
        with open(os.path.join(OUT_DIR, args.workload + ".csv"), "rb") as fh:
            data = fh.read()
        if plain_cli_bytes(spec, args.workload) != data:
            failures.append("CSV differs from a plain `python -m "
                            "thermo_transfer.cli` run of the same config")
        cfg = workloads.read_config(spec.path)
        table = checks.read_csv(data)
        indices = sorted(rng.sample(range(table["beta"].size), ORACLE_POINTS))
        print(json.dumps({"oracle_rows": indices}), flush=True)
        failures += checks.check_table(cfg["model"], table,
                                       workloads.config_beta_grid(cfg),
                                       indices, checks.model_solver(cfg))
        if not args.trace:
            inputs = workloads.ladder_inputs(models, cases)
            reached, _ = workloads.climb(models, inputs, references)
    else:
        reached = {k: tuple(v) for k, v in result["reached"].items()}
    if not is_config or not args.trace:
        failures += checks.check_ladder(cases, reached, references)
        print(json.dumps({"reached": reached}), flush=True)

    for msg in failures:
        print("check failed: " + msg, file=sys.stderr)
    print(json.dumps({"passes": len(result["pass_s"]),
                      "operations_timed": result["operations_timed"],
                      "median_pass_s": statistics.median(result["pass_s"]),
                      "fastest_pass_s": min(result["pass_s"]),
                      "pass_s": result["pass_s"]}), flush=True)
    if args.trace:
        metrics = {k: {"value": v, "unit": tracer.UNITS[k]}
                   for k, v in result["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "nodes_to_tol": {"value": nodes_to_tol(cases, reached),
                             "unit": "count"},
        }
    print(json.dumps({"correct": not failures,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
