"""The benchmark's hooks still fit the program.

`bench/tracer.install` wraps the package's functions by module
attribute name and describes their results, and `bench/worker` times
`thermo._sweep_row`; a renamed route or a result its describers cannot
read would only show up in a traced benchmark run.  This runs both on
small sweeps, so tier-1 turns red first.
"""

import os

import pytest

import thermo_transfer as tt
import thermo_transfer.cli  # noqa: F401  (binds tt.cli)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracer
    import worker
    return tracer, worker


def _originals():
    return (tt.cli.main, tt.cli.free_energy_sweep, tt.thermo._sweep_row,
            tt.thermo.particle_chain_observables, tt.thermo._chain_free_energy_raw,
            tt.models.assemble, tt.models.dominant_eigenvalue,
            tt.models.gauss_hermite_rescaled, tt.models.golub_welsch,
            tt.models.stieltjes_recurrence, tt.models.log_i0,
            tt.models.truncated_gaussian_normalization,
            tt.models.cylinder_free_energy, tt.quadrature.erfc)


@pytest.mark.parametrize("model, flags", [
    ("chain", ["--m", "10", "--gamma", "1", "--mu3", "0.2", "--lambda", "0.2"]),
    ("dnls", ["--m", "8", "--mu", "1"]),
])
def test_traced_observables_sweep_is_one_block(bench, tmp_path, model, flags):
    tracer, _ = bench
    before = _originals()
    tr = tracer.Tracer()
    tracer.install(tr, tt)
    try:
        rc = tt.cli.main(["observables", "--model", model, "--beta-start", "1",
                          "--beta-stop", "2", "--beta-count", "4", *flags,
                          "--out", str(tmp_path / "o.csv")])
        # the ladder's direct library calls, through the same wrappers
        tt.models.particle_chain_free_energy(tt.models.ParticleChainParams(1.0), 2.0, 5)
        tt.models.cylinder_free_energy(
            tt.models.CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3), 1.0, 4)
        metrics = tracer.layer_metrics(tr.spans, 1)
    finally:
        tr.uninstall()
    assert rc == 0
    assert _originals() == before
    # the sweep's block, the chain point and one stack holding the
    # cylinder's two ring modes
    assert metrics["thermo.rows"] == 1
    assert metrics["nystrom.eig_calls"] == 1 + 1 + 1
    assert metrics["nystrom.eig_residual_max"] <= 1e-14
    assert set(tracer.UNITS) >= set(metrics)


def test_row_timer_installs_and_comes_off(bench):
    _, worker = bench
    original = tt.thermo._sweep_row
    times = []
    untime = worker._time_rows(tt.thermo, times)
    assert tt.thermo._sweep_row is not original
    spec = tt.thermo.SweepSpec(params=tt.models.ParticleChainParams(1.0),
                               beta_grid=[1.0, 2.0, 3.0], m=6)
    try:
        tt.thermo.free_energy_sweep(spec)
    finally:
        untime()
    assert tt.thermo._sweep_row is original
    assert [k for k, _ in times] == [0]
