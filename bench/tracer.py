"""Spans around the package's layers, recorded from outside the program.

`install(tracer)` replaces each layer's public functions with wrappers
at the names their callers look them up under.  `models` and `thermo`
bind their callees with `from ... import`, so the wrappers go on
`thermo_transfer.models.assemble`, `thermo_transfer.thermo.dnls_free_energy`
and so on, not on the defining modules.  A span holds its name, start,
end, thread, parent and a few counts taken from the call's arguments
and result; spans stay in memory until `write`.

Parents are tracked per thread.  A span opened on a pool thread with
no open span of its own takes the current sweep span as its cause, so
the tree stays connected, but self time subtracts only children on the
span's own thread: the overlapping rows of a threaded sweep are never
subtracted from (or double-counted into) the sweep that waits on them.
"""

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int
    info: dict

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cause = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, describe=None, cause=False):
        """Replace owner.attr by a wrapper recording a span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else self._cause
            if cause:
                outer_cause, self._cause = self._cause, sid
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if cause:
                    self._cause = outer_cause
                info = describe(args, result) if describe and result is not None else {}
                span = Span(sid, name, start, end, threading.get_ident(), parent, info)
                with self._lock:
                    self.spans.append(span)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _matrix_order(args, result):
    return {"n": int(result.entries.shape[0])}


def _eig_info(args, result):
    a = args[0]
    n = int(a.order if hasattr(a, "order") else np.shape(a)[0])
    return {"n": n, "iterations": int(result.iterations),
            "residual": float(result.residual)}


def _rule_size(args, result):
    return {"nodes": len(result)}


def install(tracer, tt):
    """Wrap every layer boundary of the thermo_transfer package `tt`."""
    cli, thermo, models, quadrature = tt.cli, tt.thermo, tt.models, tt.quadrature
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "free_energy_sweep", "thermo.sweep", cause=True)
    tracer.wrap(thermo, "_sweep_row", "thermo.row")
    for attr in ("particle_chain_observables", "dnls_observables"):
        tracer.wrap(thermo, attr, "thermo.obs")
    for attr in ("particle_chain_free_energy", "dnls_free_energy",
                 "cylinder_free_energy", "_chain_free_energy_raw",
                 "_dnls_free_energy_raw"):
        tracer.wrap(thermo, attr, "models.fe")
    # direct library callers (the accuracy ladder) go through models
    for attr in ("particle_chain_free_energy", "dnls_free_energy",
                 "cylinder_free_energy"):
        tracer.wrap(models, attr, "models.fe")
    for attr in ("gauss_hermite_rescaled", "golub_welsch"):
        tracer.wrap(models, attr, "quadrature.rule", _rule_size)
    tracer.wrap(models, "tensor_product", "quadrature.tensor", _rule_size)
    tracer.wrap(models, "stieltjes_recurrence", "quadrature.stieltjes")
    tracer.wrap(models, "truncated_gaussian_normalization", "quadrature.norm")
    tracer.wrap(models, "assemble", "nystrom.assemble", _matrix_order)
    tracer.wrap(models, "dominant_eigenvalue", "nystrom.eig", _eig_info)
    tracer.wrap(models, "log_i0", "specfun.log_i0")
    tracer.wrap(quadrature, "erfc", "specfun.erfc")


def self_times(spans):
    """{span id: duration minus its same-thread children's durations}."""
    own = {s.id: s.duration for s in spans}
    thread_of = {s.id: s.thread for s in spans}
    for s in spans:
        if s.parent in own and thread_of[s.parent] == s.thread:
            own[s.parent] -= s.duration
    return own


UNITS = {
    "nystrom.eig_s": "s", "nystrom.eig_calls": "count",
    "nystrom.eig_iters": "count", "nystrom.eig_iters_per_call": "count",
    "nystrom.eig_flops": "flop", "nystrom.eig_residual_max": "ratio",
    "nystrom.assemble_s": "s", "nystrom.assemble_calls": "count",
    "nystrom.kernel_pairs": "count", "nystrom.matrix_bytes": "bytes",
    "quadrature.rule_s": "s", "quadrature.rule_calls": "count",
    "quadrature.max_nodes": "count", "quadrature.stieltjes_s": "s",
    "quadrature.stieltjes_calls": "count", "specfun.log_i0_s": "s",
    "specfun.log_i0_calls": "count", "specfun.erfc_calls": "count",
    "thermo.solves_per_row": "count", "thermo.obs_s": "s",
    "thermo.rows": "count", "thermo.row_ms_p50": "ms",
    "thermo.row_ms_p90": "ms", "thermo.sweep_s": "s",
    "thermo.pool_speedup": "ratio", "models.fe_s": "s",
    "models.overhead_s": "s", "cli.self_s": "s", "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, passes):
    """Per-layer metrics, totals divided by the number of traced passes."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def self_s(*names):
        return sum(own[s.id] for s in group(*names)) / passes

    def total_s(*names):
        return sum(s.duration for s in group(*names)) / passes

    def count(*names):
        return len(group(*names)) / passes

    eig = group("nystrom.eig")
    iters = sum(s.info["iterations"] for s in eig)
    asm = group("nystrom.assemble")
    rules = group("quadrature.rule", "quadrature.tensor")
    rows = group("thermo.row")
    row_ms = np.array([s.duration * 1e3 for s in rows]) if rows else np.zeros(1)
    sweep_wall = sum(s.duration for s in group("thermo.sweep"))
    solves = count("models.fe")
    return {
        "nystrom.eig_s": self_s("nystrom.eig"),
        "nystrom.eig_calls": count("nystrom.eig"),
        "nystrom.eig_iters": iters / passes,
        "nystrom.eig_iters_per_call": iters / len(eig) if eig else 0.0,
        "nystrom.eig_flops": sum(2.0 * s.info["n"] ** 2 * s.info["iterations"]
                                 for s in eig) / passes,
        "nystrom.eig_residual_max": max((s.info["residual"] for s in eig),
                                        default=0.0),
        "nystrom.assemble_s": self_s("nystrom.assemble"),
        "nystrom.assemble_calls": count("nystrom.assemble"),
        "nystrom.kernel_pairs": sum(s.info["n"] * (s.info["n"] + 1) / 2
                                    for s in asm) / passes,
        "nystrom.matrix_bytes": max((8 * s.info["n"] ** 2 for s in asm),
                                    default=0),
        "quadrature.rule_s": self_s("quadrature.rule", "quadrature.tensor",
                                    "quadrature.stieltjes", "quadrature.norm"),
        "quadrature.rule_calls": count("quadrature.rule"),
        "quadrature.max_nodes": max((s.info["nodes"] for s in rules),
                                    default=0),
        "quadrature.stieltjes_s": self_s("quadrature.stieltjes"),
        "quadrature.stieltjes_calls": count("quadrature.stieltjes"),
        "specfun.log_i0_s": self_s("specfun.log_i0"),
        "specfun.log_i0_calls": count("specfun.log_i0"),
        "specfun.erfc_calls": count("specfun.erfc"),
        "thermo.solves_per_row": (solves * passes / len(rows)) if rows else 0.0,
        "thermo.obs_s": total_s("thermo.obs"),
        "thermo.rows": len(rows) / passes,
        "thermo.row_ms_p50": float(np.percentile(row_ms, 50)),
        "thermo.row_ms_p90": float(np.percentile(row_ms, 90)),
        "thermo.sweep_s": sweep_wall / passes,
        "thermo.pool_speedup": (sum(s.duration for s in rows) / sweep_wall
                                if sweep_wall else 0.0),
        "models.fe_s": total_s("models.fe"),
        "models.overhead_s": self_s("models.fe"),
        "cli.self_s": self_s("cli.main"),
    }
