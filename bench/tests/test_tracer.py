"""Spans from the layer wrappers, and per-thread self time."""

import os

import pytest

import thermo_transfer as tt
import thermo_transfer.cli  # noqa: F401
import tracer as tr


def span(sid, start, end, thread, parent=None):
    return tr.Span(sid, "x", start, end, thread, parent, {})


def test_self_time_subtracts_only_same_thread_children():
    spans = [span(1, 0.0, 10.0, 1),
             span(2, 1.0, 4.0, 1, parent=1),
             span(3, 2.0, 9.0, 2, parent=1),   # pool row caused by span 1
             span(4, 3.0, 5.0, 2, parent=3)]
    own = tr.self_times(spans)
    assert own == {1: pytest.approx(7.0), 2: pytest.approx(3.0),
                   3: pytest.approx(5.0), 4: pytest.approx(2.0)}


def test_traced_threaded_observables_sweep(tmp_path):
    originals = (tt.cli.main, tt.thermo._sweep_row, tt.models.assemble,
                 tt.quadrature.erfc)
    tracer = tr.Tracer()
    tr.install(tracer, tt)
    try:
        rc = tt.cli.main(["observables", "--model", "chain", "--beta-start", "1",
                          "--beta-stop", "2", "--beta-count", "4", "--m", "10",
                          "--gamma", "1", "--threads", "2",
                          "--out", os.path.join(tmp_path, "o.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (tt.cli.main, tt.thermo._sweep_row, tt.models.assemble,
            tt.quadrature.erfc) == originals
    m = tr.layer_metrics(tracer.spans, 1)
    assert m["thermo.rows"] == 4 and m["thermo.solves_per_row"] == 15
    assert m["nystrom.eig_calls"] == 60 and m["quadrature.rule_calls"] == 60
    assert m["quadrature.max_nodes"] == 10 and m["nystrom.matrix_bytes"] == 800
    assert m["nystrom.kernel_pairs"] == 60 * 55
    assert m["quadrature.stieltjes_calls"] == 0
    sweep = next(s for s in tracer.spans if s.name == "thermo.sweep")
    rows = [s for s in tracer.spans if s.name == "thermo.row"]
    assert all(r.parent == sweep.id for r in rows)
    assert set(tr.UNITS) >= set(m)
