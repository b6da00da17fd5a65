"""CLI behaviour: config handling, CSV output, exit codes, selftest wiring.

Everything runs in-process through cli.main/build_config except the
tests that need a fresh interpreter: two smoke tests for the installed
console script and the cold-start check of which modules a run loads.
"""

import argparse
import dataclasses
import errno
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from thermo_transfer import cli, models, nystrom, quadrature, selftest, thermo
from thermo_transfer.cli import (
    RunConfig,
    UsageError,
    build_config,
    parse_config_text,
)
from thermo_transfer.errors import (
    AssemblyError,
    ConvergenceError,
    NumericError,
    ResourceLimitError,
)
from thermo_transfer.models import (
    CylinderParams,
    DnlsParams,
    ParticleChainParams,
    cylinder_free_energy,
    dnls_free_energy,
    particle_chain_free_energy,
    reference_cylinder,
    reference_particle_chain_gamma0,
)


# --- config file parsing -------------------------------------------------------

def test_parse_config_basic():
    text = """
    # a comment
    model = chain
    beta_start = 0.5   # trailing comment
    beta-count = 3
    lambda = 0.2
    log_beta = true
    m_list = 4, 6, 8
    reference = largest-m
    """
    vals = parse_config_text(text)
    assert vals["model"] == "chain"
    assert vals["beta_start"] == 0.5
    assert vals["beta_count"] == 3
    assert vals["lam"] == 0.2
    assert vals["log_beta"] is True
    assert vals["m_list"] == (4, 6, 8)
    assert vals["reference"] == "largest-m"


def test_parse_config_rejects_unknown_key():
    with pytest.raises(UsageError) as exc:
        parse_config_text("rho = 3\n")
    assert "unknown key" in str(exc.value)


def test_parse_config_rejects_bad_value():
    with pytest.raises(UsageError):
        parse_config_text("beta_start = abc\n")
    with pytest.raises(UsageError):
        parse_config_text("log_beta = maybe\n")
    with pytest.raises(UsageError):
        parse_config_text("m_list = 4,x\n")
    with pytest.raises(UsageError):
        parse_config_text("reference = factorised\n")


def test_config_file_unknown_reference_exits_2(tmp_path):
    # a misspelt reference must not fall through to largest-m, which
    # would drop that m's row and still exit 0
    cfg = tmp_path / "conv.cfg"
    out = tmp_path / "conv.csv"
    cfg.write_text("model = dnls\nmu = 1\nbeta_start = 2\nm_list = 4,6,8\n"
                   f"reference = factorised\nout = {out}\n")
    assert cli.main(["convergence", "--config", str(cfg)]) == 2
    assert not out.exists()


def test_parse_config_rejects_missing_equals():
    with pytest.raises(UsageError) as exc:
        parse_config_text("model chain\n")
    assert "line 1" in str(exc.value)


def test_flag_overrides_config_file():
    text = "model = chain\nbeta_start = 1\nbeta_count = 1\nm = 10\nout = a.csv\n"
    cfg = build_config(["free-energy", "--m", "25"], config_file_text=text)
    assert cfg.m == 25           # flag wins
    assert cfg.model == "chain"  # file fills the rest
    assert cfg.out == "a.csv"
    assert cfg.eta == 1.0        # default


def test_cli_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    # building the parser costs several times what parsing with it
    # does, so repeated calls in one process share one parser
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    flags = ["free-energy", "--model", "chain", "--beta-start", "1",
             "--beta-count", "1", "--m", "6", "--out", str(tmp_path / "p.csv")]
    for _ in range(3):
        assert cli.main(flags) == 0
    assert cli.main(flags[:-2]) == 2
    assert build_config(flags).m == 6
    assert len(built) <= 1


def test_a_flag_does_not_reach_the_next_call(tmp_path):
    # the parser is shared between calls: the second run, the config
    # alone, reads the config's gamma = 1 and not the first run's flag
    config = str(_ROOT / "scripts" / "configs" / "chain_observables.cfg")
    outs = [tmp_path / "flag.csv", tmp_path / "config.csv"]
    runs = [["--gamma", "2"], []]
    for out, flags in zip(outs, runs):
        argv = ["observables", "--config", config, *flags, "--out", str(out)]
        assert cli.main(argv) == 0
    assert [build_config(["observables", "--config", config, *flags]).gamma
            for flags in runs] == [2.0, 1.0]
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    names, cols = thermo.free_energy_sweep(thermo.SweepSpec(
        params=p, beta_grid=np.linspace(0.5, 10.0, 96), m=30,
        observables=True)).columns()
    got_names, rows = read_csv(outs[1])
    assert got_names == names
    assert np.array_equal(np.array(rows, dtype=float), np.column_stack(cols))
    assert outs[0].read_bytes() != outs[1].read_bytes()


# --- CSV output ------------------------------------------------------------------

def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# every float setting and its flag
FLOAT_FLAGS = {"beta_start": "--beta-start", "beta_stop": "--beta-stop",
               "eta": "--eta", "mu3": "--mu3", "lam": "--lambda",
               "gamma": "--gamma", "g": "--g", "mu": "--mu", "ax": "--ax",
               "ay": "--ay"}


def test_float_flags_are_every_float_setting():
    assert set(FLOAT_FLAGS) == {f.name for f in dataclasses.fields(RunConfig)
                                if f.type is float}


@pytest.mark.parametrize("name", sorted(FLOAT_FLAGS))
def test_float_flag_takes_any_signed_spelling(name):
    # argparse alone reads -1e-3 or -inf after a flag as an option
    flag = FLOAT_FLAGS[name]
    for text in ("-1e-3", "-2E-1", "-3", "-.5", "-inf", "+1e2", "-1_0.5"):
        for argv in ([flag, text], [f"{flag}={text}"]):
            cfg = build_config(["free-energy", *argv])
            assert getattr(cfg, name) == float(text), argv


def test_negative_scientific_value_runs_as_its_joined_form(tmp_path, capsys):
    outs = []
    for flags in (["--mu", "-1e-3", "--mu3", "-2E-1"],
                  ["--mu=-1e-3", "--mu3=-2E-1"]):
        outs.append(tmp_path / f"{len(outs)}.csv")
        assert cli.main(["free-energy", "--model", "dnls", "--beta-start", "1",
                         "--beta-count", "1", "--m", "8", *flags,
                         "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # a token float() does not read is still no value
    with pytest.raises(SystemExit) as exc:
        build_config(["free-energy", "--mu", "-x"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1", "-1e-3"])
def test_an_abbreviated_flag_is_unrecognized(capsys, value):
    # only full spellings are flags, so every flag that takes a float is
    # one whose signed value the parser joins
    with pytest.raises(SystemExit) as exc:
        build_config(["free-energy", "--gam", value])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gam" in capsys.readouterr().err
    for argv in (["--gamma", "-1e-3"], ["--gamma=-1e-3"]):
        assert build_config(["free-energy", *argv]).gamma == -1e-3


def test_free_energy_csv_values(tmp_path):
    out = tmp_path / "fe.csv"
    rc = cli.main([
        "free-energy", "--model", "chain", "--beta-start", "0.5",
        "--beta-stop", "2.5", "--beta-count", "3", "--m", "12",
        "--gamma", "1.0", "--mu3", "0.2", "--lambda", "0.2",
        "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["beta", "free_energy"]
    assert len(rows) == 3
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    for row, beta in zip(rows, (0.5, 1.5, 2.5)):
        assert row[0] == "%.17g" % beta
        assert row[1] == "%.17g" % particle_chain_free_energy(p, beta, 12)


def test_single_beta_needs_no_stop(tmp_path):
    out = tmp_path / "one.csv"
    rc = cli.main(["free-energy", "--model", "dnls", "--beta-start", "2",
                   "--beta-count", "1", "--m", "8", "--mu", "1",
                   "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 1


def test_log_beta_grid(tmp_path):
    out = tmp_path / "log.csv"
    rc = cli.main(["free-energy", "--model", "chain", "--beta-start", "0.1",
                   "--beta-stop", "10", "--beta-count", "3", "--m", "8",
                   "--log-beta", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    betas = [float(r[0]) for r in rows]
    assert betas == pytest.approx([0.1, 1.0, 10.0], rel=1e-15)


def test_config_file_reproduces_flag_run_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    flags = ["observables", "--model", "dnls", "--beta-start", "0.5",
             "--beta-stop", "4", "--beta-count", "4", "--m", "10",
             "--mu", "1", "--g", "1", "--out", str(out1)]
    assert cli.main(flags) == 0
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("model = dnls\nbeta_start = 0.5\nbeta_stop = 4\n"
                        "beta_count = 4\nm = 10\nmu = 1\ng = 1\n")
    assert cli.main(["observables", "--config", str(cfg_file),
                     "--out", str(out2)]) == 0
    assert out1.read_bytes().partition(b"\n")[2] == out2.read_bytes().partition(b"\n")[2]
    assert out1.read_bytes().partition(b"\n")[0] == b"beta,free_energy,energy,density"


def test_threads_flag_deterministic(tmp_path, monkeypatch, pools_entered):
    # blocks of two rows, so the 6-row grid is three blocks and
    # --threads 4 takes the pool
    monkeypatch.setattr(nystrom, "_BLOCK_ENTRIES", 2 * 14 * 14)
    outs = []
    for i, threads in enumerate(("1", "4")):
        out = tmp_path / f"t{i}.csv"
        rc = cli.main(["free-energy", "--model", "chain", "--beta-start", "0.5",
                       "--beta-stop", "5", "--beta-count", "6", "--m", "14",
                       "--gamma", "0.7", "--threads", threads, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert pools_entered == [4]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("model, flags, header, positive", [
    pytest.param("chain", ["--gamma", "0.5"],
                 ["beta", "free_energy", "stretch_sq", "energy"], "stretch_sq",
                 id="chain"),
    pytest.param("dnls", ["--mu", "1"],
                 ["beta", "free_energy", "energy", "density"], "density",
                 id="dnls"),
])
def test_observables_columns(tmp_path, model, flags, header, positive):
    out = tmp_path / "obs.csv"
    rc = cli.main(["observables", "--model", model, "--beta-start", "1",
                   "--beta-count", "1", "--m", "10", *flags,
                   "--out", str(out)])
    assert rc == 0
    got, rows = read_csv(out)
    assert got == header
    assert float(rows[0][header.index(positive)]) > 0.0


def test_cylinder_takes_its_size_as_m(tmp_path, capsys):
    # one size setting for every model: m points per ring mode; the
    # retired --m0 flag and m0 config key are usage errors
    argv = ["free-energy", "--model", "cylinder", "--beta-start", "1",
            "--beta-count", "1", "--ax", "0.5", "--ay", "0.2", "--ly", "3",
            "--out", str(tmp_path / "x.csv")]
    assert cli.main([*argv, "--m", "8"]) == 0
    _, rows = read_csv(tmp_path / "x.csv")
    p = CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3)
    assert float(rows[0][1]) == cylinder_free_energy(p, 1.0, 8)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--m0", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --m0 8" in capsys.readouterr().err
    cfg = tmp_path / "old.cfg"
    cfg.write_text("m0 = 8\n")
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    assert "unknown key 'm0'" in capsys.readouterr().err


def test_observables_cylinder_rejected(tmp_path, capsys):
    rc = cli.main(["observables", "--model", "cylinder", "--beta-start", "1",
                   "--beta-count", "1", "--m", "4", "--ly", "2",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert ("error: observables are not defined for the cylinder model"
            in capsys.readouterr().err)


# --- convergence subcommand ---------------------------------------------------------

def test_convergence_largest_m_reference(tmp_path):
    out = tmp_path / "conv.csv"
    rc = cli.main(["convergence", "--model", "dnls", "--beta-start", "15",
                   "--beta-count", "1", "--mu", "1",
                   "--m-list", "4,6,8,20", "--reference", "largest-m",
                   "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["m", "rel_error"]
    # the reference size m=20 must not appear as its own (zero) row
    assert [r[0] for r in rows] == ["4", "6", "8"]
    p = DnlsParams(g=1.0, mu_c=1.0)
    ref = dnls_free_energy(p, 15.0, 20)
    for row in rows:
        expect = abs(dnls_free_energy(p, 15.0, int(row[0])) - ref) / abs(ref)
        assert float(row[1]) == pytest.approx(expect, rel=1e-12)


def test_convergence_auto_picks_factorized(tmp_path):
    out = tmp_path / "conv0.csv"
    rc = cli.main(["convergence", "--model", "chain", "--beta-start", "5",
                   "--beta-count", "1", "--mu3", "0.2", "--lambda", "0.2",
                   "--m-list", "5,10,30", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    # factorized reference: every requested m keeps its row
    assert [r[0] for r in rows] == ["5", "10", "30"]
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2)
    ref = reference_particle_chain_gamma0(p, 5.0)
    expect = abs(particle_chain_free_energy(p, 5.0, 30) - ref) / abs(ref)
    assert float(rows[2][1]) == pytest.approx(expect, rel=1e-9, abs=1e-18)


def test_convergence_cylinder_factorized_reference(tmp_path):
    out = tmp_path / "conv_cyl.csv"
    rc = cli.main(["convergence", "--model", "cylinder", "--beta-start", "2",
                   "--beta-count", "1", "--ax", "0", "--ay", "0.2", "--ly", "2",
                   "--m-list", "4,6", "--reference", "factorized",
                   "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["4", "6"]
    p = CylinderParams(eta=1.0, ax=0.0, ay=0.2, ly=2)
    ref = reference_cylinder(p, 2.0)
    for row in rows:
        expect = abs(cylinder_free_energy(p, 2.0, int(row[0])) - ref) / abs(ref)
        assert float(row[1]) == pytest.approx(expect, rel=1e-12)


def test_convergence_factorized_unavailable(tmp_path, capsys):
    rc = cli.main(["convergence", "--model", "chain", "--beta-start", "5",
                   "--beta-count", "1", "--gamma", "1",
                   "--m-list", "5,10", "--reference", "factorized",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "factorized" in capsys.readouterr().err


def test_convergence_needs_two_sizes_for_largest_m(tmp_path):
    rc = cli.main(["convergence", "--model", "dnls", "--beta-start", "1",
                   "--beta-count", "1", "--m-list", "8",
                   "--reference", "largest-m", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("flags, cause", [
    (["--model", "dnls", "--mu", "1", "--beta-start", "1e40", "--m", "20"],
     "at beta=1e+40, m=20: Stieltjes grid at s=-1e+20 has no width"),
    (["--model", "chain", "--eta", "1e-300", "--lambda", "1e-8",
      "--beta-start", "1e-300", "--m", "30"],
     "at beta=1e-300, m=30: precision parameter a must be positive"),
], ids=["dnls-grid", "chain-precision"])
def test_a_failure_below_the_checks_exits_1(tmp_path, capsys, flags, cause):
    # a collapsed DNLS grid (was a ZeroDivisionError) and a computed
    # precision of 0 (was a usage error) at valid params and beta
    rc = cli.main(["free-energy", *flags, "--beta-count", "1",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert f"numeric failure: {cause}" in capsys.readouterr().err


_EDGE_RUNS = """
import json, sys
from thermo_transfer import cli
for flags in json.loads(sys.argv[1]):
    rc = cli.main(["free-energy", *flags, "--beta-count", "1",
                   "--out", sys.argv[2]])
    assert rc == 1, flags
"""


def test_a_failure_below_the_checks_writes_one_stderr_line(tmp_path):
    # valid settings whose s, nodes, kernel, precision or F a double
    # cannot hold: each run's typed error is its one line on stderr, with
    # no numpy warning (shown by default outside pytest) printed before
    # it, and no CSV
    runs = [
        ["--model", "chain", "--eta", "1e-8", "--lambda", "1e-8",
         "--gamma", "1e300", "--beta-start", "1e300", "--m", "30"],
        ["--model", "cylinder", "--eta", "1e8", "--ax", "1e300",
         "--beta-start", "1", "--m", "8"],
        ["--model", "dnls", "--g", "1e-300", "--mu", "1e-300",
         "--beta-start", "1e20", "--m", "20"],
        ["--model", "dnls", "--g", "1e300", "--mu", "-1e300",
         "--beta-start", "1e20", "--m", "20"],
        ["--model", "dnls", "--g", "1e-300", "--mu", "-1e300",
         "--beta-start", "1e-300", "--m", "1"],
        ["--model", "chain", "--mu3", "0.2", "--lambda", "0.2", "--gamma",
         "1", "--beta-start", "1e-160", "--m", "4"],
        ["--model", "chain", "--beta-start", "1e-320", "--m", "4"],
        ["--model", "cylinder", "--ly", "3", "--ax", "0.5", "--ay", "0.2",
         "--beta-start", "1e-320", "--m", "8"],
        ["--model", "dnls", "--mu", "1", "--beta-start", "1e-320",
         "--m", "8"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _EDGE_RUNS, json.dumps(runs),
         str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[:5] == [
        "numeric failure: at beta=1e+300, m=30: precision parameter a "
        "must be positive, got array([inf])",
        "numeric failure: at beta=1.0, m=8: ring mode eta_k=100000000.0: "
        "precision parameter a must be positive, got array([inf])",
        "numeric failure: at beta=1e+20, m=20: s must be finite, got -inf",
        "numeric failure: at beta=1e+20, m=20: quadrature nodes must be "
        "strictly increasing",
        "numeric failure: at beta=1e-300, m=1: i0_scaled expects finite "
        "arguments",
    ]
    # the last four name a node pair or a beta F, whose digits are left
    # to the kernel test and the library
    heads = ["at beta=1e-160, m=4: non-finite kernel value at node pair (0, 0)"]
    heads += [f"at beta=1e-320, m={m}: the free energy per site overflows "
              f"a double (beta F = -" for m in (4, 8, 8)]
    assert len(lines) == 9
    for line, head in zip(lines[5:], heads):
        assert line.startswith(f"numeric failure: {head}")
    assert not (tmp_path / "x.csv").exists()


def test_convergence_rows_do_not_depend_on_the_m_list_order(tmp_path):
    # each order builds its rules after a different history in the
    # rule cache, and the rows must not see it
    ms = list(range(4, 17, 2))
    rows = []
    for order in (ms, ms[::-1]):
        quadrature._stieltjes.cache_clear()
        out = tmp_path / f"conv_{order[0]}.csv"
        rc = cli.main(["convergence", "--model", "dnls", "--beta-start", "15",
                       "--beta-count", "1", "--mu", "1",
                       "--m-list", ",".join(map(str, order)),
                       "--out", str(out)])
        assert rc == 0
        rows.append(sorted(read_csv(out)[1], key=lambda r: int(r[0])))
    assert len(rows[0]) == len(ms) - 1
    assert rows[0] == rows[1]


def test_convergence_largest_m_solves_each_m_once(tmp_path, monkeypatch):
    # the largest m is both a row and the reference; it is solved once
    real = models._dnls_solve
    sizes = []

    def spy(g, mu_c, betas, m):
        sizes.append(m)
        return real(g, mu_c, betas, m)

    monkeypatch.setattr(models, "_dnls_solve", spy)
    rc = cli.main(["convergence", "--model", "dnls", "--beta-start", "15",
                   "--beta-count", "1", "--mu", "1", "--m-list", "4,6,8,10",
                   "--reference", "largest-m", "--out", str(tmp_path / "x.csv")])
    assert rc == 0
    assert sizes == [4, 6, 8, 10]


def test_convergence_numeric_failure_names_beta_and_m(tmp_path, capsys,
                                                      monkeypatch):
    real = CylinderParams.block

    def failing(p, betas, m, observables):
        if m == 3:
            raise ConvergenceError("eigenvalue residual 3.000e-10",
                                   residual=3e-10)
        return real(p, betas, m, observables)

    monkeypatch.setattr(CylinderParams, "block", failing)
    rc = cli.main(["convergence", "--model", "cylinder", "--beta-start", "2",
                   "--beta-count", "1", "--ax", "0.5", "--ay", "0.2",
                   "--ly", "3", "--m-list", "2,3,4",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "numeric failure:" in err and "at beta=2.0, m=3:" in err


def test_convergence_past_the_reference_overflow_is_a_numeric_failure(
        tmp_path, capsys):
    # the gamma = 0 reference's exp(-beta V_loc) overflowed a double here,
    # and the OverflowError escaped cli.main; now the reference holds and
    # the model's own overflow at m = 20 is the typed failure
    rc = cli.main(["convergence", "--model", "chain", "--eta", "0.01",
                   "--mu3", "1", "--lambda", "1", "--beta-start", "700",
                   "--m-list", "10,20", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: at beta=700.0, m=20: "
                          "overflowing kernel value")


@pytest.mark.parametrize("model", ["chain", "cylinder"])
def test_hermite_rule_beyond_numpy_is_a_numeric_failure(tmp_path, capsys,
                                                        model):
    # numpy's hermegauss overflows its weight normalization from m = 371:
    # a numeric failure naming beta and m, with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["free-energy", "--model", model, "--beta-start", "1",
                       "--beta-count", "1", "--m", "380", "--ly", "3",
                       "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: at beta=1.0, m=380: ")
    assert "no 380-point Hermite rule" in err


def test_convergence_rejects_a_repeated_size(tmp_path, capsys):
    # a repeated largest m would leave no row against the largest-m
    # reference; the run stops before it writes anything
    out = tmp_path / "x.csv"
    rc = cli.main(["convergence", "--model", "dnls", "--beta-start", "2",
                   "--mu", "1", "--m-list", "8,8", "--reference", "largest-m",
                   "--out", str(out)])
    assert rc == 2
    assert "--m-list repeats 8" in capsys.readouterr().err
    assert not out.exists()
    cfg = RunConfig(subcommand="convergence", model="chain", beta_start=2.0,
                    m_list=(4, 6, 4, 8), out=str(out))
    with pytest.raises(UsageError, match="repeats 4"):
        cli.run_convergence(cfg)
    assert not out.exists()


@pytest.mark.parametrize("name, value", [("reference", "factorised"),
                                         ("reference", None),
                                         ("model", "heisenberg")])
def test_code_built_config_rejects_an_unknown_choice(tmp_path, name, value):
    # the choices of --model and --reference hold for a RunConfig built
    # in code too, before anything runs
    settings = dict(subcommand="convergence", model="dnls", mu=1.0,
                    beta_start=2.0, m_list=(4, 6, 8),
                    out=str(tmp_path / "x.csv"))
    settings[name] = value
    with pytest.raises(UsageError, match=f"{name} must be one of"):
        RunConfig(**settings)
    assert not (tmp_path / "x.csv").exists()


def test_convergence_rejects_beta_grid(tmp_path):
    rc = cli.main(["convergence", "--model", "dnls", "--beta-start", "1",
                   "--beta-stop", "5", "--beta-count", "4", "--m-list", "4,8",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2


# --- exit codes ------------------------------------------------------------------------

def test_missing_out_is_usage_error(capsys):
    rc = cli.main(["free-energy", "--model", "chain", "--beta-start", "1",
                   "--beta-count", "1", "--m", "5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_m_is_usage_error(tmp_path, capsys):
    for model in ("chain", "cylinder"):
        rc = cli.main(["free-energy", "--model", model, "--beta-start", "1",
                       "--beta-count", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: --m is required\n"


def test_invalid_model_choice_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["free-energy", "--model", "heisenberg"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bounds, log_beta, flag", [
    (["--beta-start", "0", "--beta-stop", "1"], True, "--beta-start"),
    (["--beta-start", "1", "--beta-stop", "0"], True, "--beta-stop"),
    (["--beta-start", "-1", "--beta-stop", "1"], True, "--beta-start"),
    (["--beta-start", "1", "--beta-stop", "inf"], True, "--beta-stop"),
    (["--beta-start", "1", "--beta-stop", "inf"], False, "--beta-stop"),
])
def test_grid_bound_out_of_domain_is_usage_error(tmp_path, capsys, bounds,
                                                 log_beta, flag):
    # numpy's geomspace raised on a zero bound and warned on a negative
    # or infinite one, linspace on an infinite one; the grid now names
    # the bound first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["free-energy", "--model", "chain", *bounds,
                       "--beta-count", "3", "--m", "5",
                       *(["--log-beta"] if log_beta else []),
                       "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be ")
    assert "Traceback" not in err


@pytest.mark.parametrize("subcommand, flags", [
    ("free-energy", ["--beta-count", "2", "--beta-stop", "2", "--m", "5"]),
    ("convergence", ["--beta-count", "1", "--m-list", "4,6",
                     "--reference", "factorized"]),
])
def test_unwritable_out_is_usage_error(tmp_path, capsys, monkeypatch,
                                      subcommand, flags):
    # the output path is checked before anything is solved
    solves = []
    monkeypatch.setattr(models, "_chain_solve",
                        lambda *args: solves.append(args))
    out = tmp_path / "missing" / "x.csv"
    rc = cli.main([subcommand, "--model", "chain", "--beta-start", "1",
                   *flags, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output file: ")
    assert str(out) in err
    assert not out.exists()
    assert solves == []


@pytest.mark.parametrize("subcommand, flags", [
    ("free-energy", ["--beta-count", "2", "--beta-stop", "2", "--m", "5"]),
    ("observables", ["--beta-count", "2", "--beta-stop", "2", "--m", "5"]),
    ("convergence", ["--beta-count", "1", "--m-list", "4,6",
                     "--reference", "factorized"]),
])
@pytest.mark.parametrize("exists", [True, False])
def test_failed_solve_leaves_the_output_path_as_it_was(
        tmp_path, capsys, monkeypatch, subcommand, flags, exists):
    def failing(*args):
        raise ConvergenceError("eigenvalue residual 3.000e-10",
                               residual=3e-10)

    monkeypatch.setattr(models, "_chain_solve", failing)
    out = tmp_path / "x.csv"
    if exists:
        out.write_text("beta,free_energy\n1,2\n")
    rc = cli.main([subcommand, "--model", "chain", "--beta-start", "1",
                   *flags, "--out", str(out)])
    assert rc == 1
    assert "numeric failure" in capsys.readouterr().err
    if exists:
        assert out.read_text() == "beta,free_energy\n1,2\n"
    else:
        assert not out.exists()


def test_failed_run_through_a_dangling_symlink_removes_its_target(
        tmp_path, capsys):
    # the check creates the link's target, so a failed run removes that
    # target and keeps the link as it was
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    try:
        link.symlink_to(target.name)
    except (OSError, NotImplementedError):
        pytest.skip("symlinks are not available here")
    rc = cli.main(["free-energy", "--model", "chain", "--beta-start", "1",
                   "--beta-count", "1", "--out", str(link)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --m is required\n"
    assert not target.exists() and link.is_symlink()
    assert os.readlink(link) == target.name


# --- the output file, overwritten in place ---------------------------------

SMALL_SWEEP = ["free-energy", "--model", "chain", "--beta-start", "1",
               "--beta-stop", "2", "--beta-count", "3", "--m", "5"]


def _fresh_bytes(tmp_path):
    # what the run writes into a path that did not exist
    new = tmp_path / "fresh.csv"
    assert cli.main([*SMALL_SWEEP, "--out", str(new)]) == 0
    return new.read_bytes()


@pytest.mark.parametrize("old", [lambda new: new + b"9,9\n" * 50,
                                 lambda new: new[:7]],
                         ids=["longer", "shorter"])
def test_an_existing_file_ends_as_exactly_the_new_bytes(tmp_path, old):
    new = _fresh_bytes(tmp_path)
    out = tmp_path / "x.csv"
    out.write_bytes(old(new))
    assert cli.main([*SMALL_SWEEP, "--out", str(out)]) == 0
    assert out.read_bytes() == new


def test_out_to_the_null_device_exits_0(capsys):
    # a character device is written and not cut to length
    assert cli.main([*SMALL_SWEEP, "--out", os.devnull]) == 0
    assert capsys.readouterr().out == f"wrote {os.devnull} (3 rows)\n"


def _fail_the_second_write(monkeypatch, first=40):
    # os.write takes the first `first` bytes, then reports a full disk
    real, calls = os.write, []

    def write(fd, data):
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(fd, data[:first])

    monkeypatch.setattr(os, "write", write)


@pytest.mark.parametrize("exists", [True, False])
def test_a_failed_write_leaves_no_stale_tail(tmp_path, capsys, monkeypatch,
                                             exists):
    new = _fresh_bytes(tmp_path)
    out = tmp_path / "x.csv"
    if exists:
        out.write_bytes(b"stale\n" * len(new))
    with monkeypatch.context() as patch:
        _fail_the_second_write(patch)
        rc = cli.main([*SMALL_SWEEP, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output file: [Errno {errno.ENOSPC}] "
        f"{os.strerror(errno.ENOSPC)}\n")
    if exists:
        # cut to the bytes written: new ones, and no old byte after them
        assert out.read_bytes() == new[:40]
    else:
        assert not out.exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors in /proc/self/fd")
def test_a_run_leaves_no_descriptor_open(tmp_path, monkeypatch):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    def failing(*args):
        raise ConvergenceError("eigenvalue residual 3.000e-10",
                               residual=3e-10)

    out = str(tmp_path / "x.csv")
    before = open_fds()
    assert cli.main([*SMALL_SWEEP, "--out", out]) == 0
    assert open_fds() == before
    # a usage error after the check, a failed solve, a failed write
    assert cli.main([*SMALL_SWEEP[:-2], "--out", out]) == 2
    assert open_fds() == before
    with monkeypatch.context() as patch:
        patch.setattr(models, "_chain_solve", failing)
        assert cli.main([*SMALL_SWEEP, "--out", out]) == 1
    assert open_fds() == before
    with monkeypatch.context() as patch:
        _fail_the_second_write(patch)
        assert cli.main([*SMALL_SWEEP, "--out", out]) == 2
    assert open_fds() == before


def test_non_finite_model_field_is_usage_error(tmp_path, capsys):
    # nan once ran into the solve and exited 1 naming a kernel value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["free-energy", "--model", "chain", "--beta-start", "1",
                       "--beta-count", "1", "--m", "5", "--mu3", "nan",
                       "--lambda", "nan", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: mu3 must be finite, got nan\n"


def test_negative_beta_is_domain_error(tmp_path, capsys):
    rc = cli.main(["free-energy", "--model", "chain", "--beta-start", "-1",
                   "--beta-count", "1", "--m", "5",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ConvergenceError, AssemblyError,
                                   ResourceLimitError])
def test_tensor_budget_maps_to_numeric_failure(tmp_path, capsys, monkeypatch,
                                               error):
    # any numeric failure below the sweep exits 1 and names the grid
    # point; it is injected into the cylinder's block solve
    def failing(p, betas, m, observables):
        raise error("eigenvalue residual 3.000e-10", residual=3e-10)

    monkeypatch.setattr(CylinderParams, "block", failing)
    rc = cli.main(["free-energy", "--model", "cylinder", "--beta-start", "1",
                   "--beta-count", "1", "--m", "30", "--ly", "3",
                   "--ax", "0.1", "--ay", "0.1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "numeric failure:" in err and "at beta=1.0, m=30" in err


def test_bad_size_names_the_model_size_flag(tmp_path, capsys):
    # the cylinder's quadrature size is --m, as for every model, and the
    # error says so
    rc = cli.main(["free-energy", "--model", "cylinder", "--beta-start", "1",
                   "--beta-count", "1", "--m", "0", "--ly", "2",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "m must be a positive integer, got 0" in capsys.readouterr().err


def test_dnls_rule_numeric_failure_names_beta(tmp_path, capsys, monkeypatch):
    # a NumericError from the rule builder (injected: valid input a
    # double cannot evaluate) exits 1 and names the first beta whose
    # rule fails, not a usage error
    def builder(s, m):
        raise NumericError(f"injected failure at s={s!r}")

    monkeypatch.setattr(models, "stieltjes_rule", builder)
    rc = cli.main(["free-energy", "--model", "dnls", "--mu", "-3",
                   "--beta-start", "200", "--beta-stop", "400",
                   "--beta-count", "3", "--m", "20",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert (f"numeric failure: at beta=200.0, m=20: "
            f"injected failure at s={3.0 * math.sqrt(200.0)!r}") in err


def test_bad_config_file_path(tmp_path):
    rc = cli.main(["free-energy", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2


# --- selftest wiring ----------------------------------------------------------------------

def test_selftest_subcommand_passes():
    assert cli.main(["selftest"]) == 0


def test_selftest_catches_injected_fault(monkeypatch, capsys):
    # the production DNLS kernel reads e^{-x} I0(x) up to 1% off; F and
    # the energy's I1 term no longer belong to one operator
    real = models.i0_scaled
    monkeypatch.setattr(models, "i0_scaled",
                        lambda x: real(x) * (1.0 + 0.01 * x / (1.0 + x)))
    assert cli.main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "DNLS energy disagrees with d(beta F)/dbeta + mu density" in out


def test_selftest_catches_a_drifted_factored_chain(monkeypatch, capsys):
    # the factored chain stack reads its weights one part in 1e12 off
    # the rule's, which moves the harmonic chain off its closed form;
    # the stack takes its half log-weights from the per-m Hermite table
    def drifted(m):
        nodes, weights, _, x2, dx2 = quadrature._hermite_pieces(m)
        return (nodes, weights, 0.5 * np.log(weights * (1.0 + 1e-12)),
                x2, dx2)

    monkeypatch.setattr(models, "_hermite_pieces", drifted)
    assert cli.main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "harmonic chain disagrees with its closed form" in out


def test_selftest_keeps_the_rules_cached_before_it():
    # the selftest checks a cached DNLS rule against one built past the
    # cache, so a rule a session cached before it is still a hit after it
    rule = quadrature.stieltjes_rule(-1.0, 12)
    assert selftest.run(report=lambda line: None)
    assert quadrature.stieltjes_rule(-1.0, 12) is rule


def test_selftest_reports_all_suites(capsys):
    ok = selftest.run()
    out = capsys.readouterr().out
    assert ok
    for name in ("quadrature", "specfun", "operator", "models", "thermo", "cli"):
        assert name in out


# --- installed entry points ------------------------------------------------------------------

_ROOT = Path(__file__).resolve().parents[1]


def _src_env():
    # the environment of a child interpreter that imports the package
    # from this checkout's src/, ahead of any PYTHONPATH it inherits
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "thermo_transfer.cli", "free-energy",
         "--model", "chain", "--beta-start", "1", "--beta-count", "1",
         "--m", "8", "--out", str(out)],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "wrote" in proc.stdout


_COLD_START = """
import json, sys
from thermo_transfer import cli
from thermo_transfer.models import DnlsParams, dnls_free_energy
configs, out = sys.argv[1], sys.argv[2]
for sub, cfg in [("observables", "chain_observables.cfg"),
                 ("free-energy", "cylinder_free_energy.cfg")]:
    rc = cli.main([sub, "--config", configs + "/" + cfg, "--out", out])
    assert rc == 0, cfg
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
f = dnls_free_energy(DnlsParams(g=1.0, mu_c=1.0), 1.0, 12)
print(json.dumps({"scipy": loaded, "dnls_f": f}))
"""


# every checked-in config and the subcommand it is run with
_CONFIGS = {"chain_observables.cfg": "observables",
            "dnls_observables.cfg": "observables",
            "cylinder_free_energy.cfg": "free-energy"}


def test_every_checked_in_config_runs(tmp_path):
    # every value against tests/data/, the CSV that scripts/make_data.py
    # wrote for the config, within 1e-12 relative: not bit for bit,
    # since another LAPACK or libm may round lambda_1 or a log a few ulps
    # apart.  A random 2-ulp change of every matrix entry moves a value
    # at most 1.8e-13 relative (the chain's F near its sign change, at
    # beta = 3.9), so 1e-12 leaves room for about ten ulps
    configs = _ROOT / "scripts" / "configs"
    assert sorted(p.name for p in configs.iterdir()) == sorted(_CONFIGS)
    for cfg, sub in _CONFIGS.items():
        out = tmp_path / (cfg + ".csv")
        assert cli.main([sub, "--config", str(configs / cfg),
                         "--out", str(out)]) == 0, cfg
        names, rows = read_csv(out)
        count = parse_config_text((configs / cfg).read_text())["beta_count"]
        assert len(rows) == count, cfg
        expect_names, expect_rows = read_csv(
            _ROOT / "tests" / "data" / cfg.replace(".cfg", ".csv"))
        assert names == expect_names, cfg
        got = np.array(rows, dtype=float)
        expect = np.array(expect_rows, dtype=float)
        assert got.shape == expect.shape, cfg
        assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect)), cfg


def test_chain_and_cylinder_configs_run_without_scipy(tmp_path):
    # the chain and cylinder need numpy only; a DNLS call in the same
    # process must still find SciPy when it first needs it
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(_ROOT / "scripts" / "configs"),
         str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["scipy"] == []
    expect = dnls_free_energy(DnlsParams(g=1.0, mu_c=1.0), 1.0, 12)
    assert report["dnls_f"] == pytest.approx(expect, rel=1e-15)


@pytest.mark.skipif(shutil.which("thermo-transfer") is None,
                    reason="console script not on PATH")
def test_console_script(tmp_path):
    out = tmp_path / "c.csv"
    proc = subprocess.run(
        ["thermo-transfer", "free-energy", "--model", "dnls",
         "--beta-start", "2", "--beta-count", "1", "--m", "8",
         "--mu", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
