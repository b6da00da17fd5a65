"""The workload's own process: timed passes over one workload.

    python3 bench/worker.py --workload NAME --seconds S --trace 0|1
                            --out-dir DIR [--probe] [--references JSON]
                            [--seed N]

Run by bench/run.py in a fresh interpreter with PYTHONPATH=src and the
BLAS thread count fixed, so the process's peak RSS is the workload's.
With --probe it stops once the run is ready (the package imported and
the run configuration built) and prints "ready": run.py times that as
set-up.  Otherwise it runs whole passes until S seconds have been
measured, the first included, since a user of the CLI pays for the
first call's lazy initialisation on every run; with --trace 1 the first half of the
time is untraced and the second half traced.  Every pass also times
each of its operations at its boundary (a beta row at `thermo._sweep_row`, a
ladder rung around its `*_free_energy` call), for `fastest_pass`.  The
last stdout line is a JSON summary.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time

import workloads

MIN_PASSES = 3


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=os.path.join("bench", "out"))
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--references", default="{}")
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args(argv)


def _time_rows(thermo, times):
    """Append (row index, seconds) to `times` for each `_sweep_row` call.

    One clock pair per beta row, at the name `free_energy_sweep` looks
    up; rows of a one-thread sweep run in grid order.  Returns the
    function that takes the timer off again.
    """
    original = thermo._sweep_row

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            times.append((len(times), time.perf_counter() - t0))

    thermo._sweep_row = timed
    return lambda: setattr(thermo, "_sweep_row", original)


def _setup(args, op_times):
    """Import the package and build the run.

    Returns (tt, one_pass, outcome): one_pass() is what gets timed, and
    appends each of its operations' (key, seconds) to `op_times`;
    outcome(its result) gives (operations, failed operations, output
    bytes) outside the timed region.
    """
    import thermo_transfer as tt
    import thermo_transfer.cli  # noqa: F401  (the config workloads' entry)

    spec = workloads.WORKLOADS[args.workload]
    if isinstance(spec, workloads.ConfigWorkload):
        out = os.path.join(args.out_dir, args.workload + ".csv")
        argv = spec.cli_args(out)
        tt.cli.build_config(argv)
        rows = int(workloads.read_config(spec.path)["beta_count"])
        _time_rows(tt.thermo, op_times)

        def one_pass():
            return tt.cli.main(argv)

        def outcome(rc):
            # one operation per beta row; a nonzero exit fails the pass
            with open(out, "rb") as fh:
                return rows, rows if rc else 0, fh.read()

        return tt, one_pass, outcome

    inputs = workloads.ladder_inputs(tt.models, spec)
    references = json.loads(args.references)
    rng = random.Random(args.seed)

    def one_pass():
        order = list(inputs)
        rng.shuffle(order)
        return workloads.climb(tt.models, order, references, op_times)

    def outcome(result):
        reached, rungs = result
        return rungs, 0, json.dumps(reached, sort_keys=True).encode()

    return tt, one_pass, outcome


def _timed_passes(one_pass, seconds, record, op_times):
    """Whole passes for `seconds`: [(pass seconds, {op key: seconds})]."""
    passes = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - begin < seconds:
        op_times.clear()
        t0 = time.perf_counter()
        result = one_pass()
        passes.append((time.perf_counter() - t0, dict(op_times)))
        record(result)
    return passes


def fastest_pass(passes):
    """Time of one pass with each of its operations at its fastest.

    Every pass runs the same operations (keys).  The estimate is the
    sum over operations of each one's fastest time across the passes,
    plus the fastest remainder (pass time not inside any operation).
    A host whose speed wanders over seconds rarely gives a whole pass
    at full speed, but gives each operation its turn at it.
    """
    keys = passes[0][1].keys()
    if any(ops.keys() != keys for _, ops in passes):
        raise ValueError("passes ran different operations")
    rest = min(total - sum(ops.values()) for total, ops in passes)
    return rest + sum(min(ops[k] for _, ops in passes) for k in keys)


def main(argv=None):
    args = _parse(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    op_times = []
    tt, one_pass, outcome = _setup(args, op_times)
    if args.probe:
        print("ready", flush=True)
        return 0

    is_config = isinstance(workloads.WORKLOADS[args.workload],
                           workloads.ConfigWorkload)
    summary = {"attempted": 0, "failed": 0, "digests": set(), "output": None}

    def record(result):
        ops, failed, data = outcome(result)
        summary["attempted"] += ops
        summary["failed"] += failed
        summary["digests"].add(hashlib.sha256(data).hexdigest())
        summary["output"] = data

    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = _timed_passes(one_pass, seconds, record, op_times)
    pass_s = [total for total, _ in passes]
    out = {"pass_s": pass_s, "wall_s": fastest_pass(passes),
           "operations_timed": len(passes[0][1])}
    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
        tr.install(tracer, tt)
        traced_s = [total for total, _ in
                    _timed_passes(one_pass, seconds, record, op_times)]
        tracer.uninstall()
        layers = tr.layer_metrics(tracer.spans, len(traced_s))
        layers["cli.csv_bytes"] = float(len(summary["output"])) if is_config else 0.0
        layers["trace.overhead_s"] = (statistics.median(traced_s)
                                      - statistics.median(pass_s))
        spans_path = os.path.join(args.out_dir, args.workload + ".spans.jsonl")
        tracer.write(spans_path)
        out.update(traced_s=traced_s, layers=layers, spans=spans_path,
                   span_count=len(tracer.spans))

    out.update(attempted=summary["attempted"], failed=summary["failed"],
               identical_passes=len(summary["digests"]) == 1,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if not is_config:
        out["reached"] = json.loads(summary["output"])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
