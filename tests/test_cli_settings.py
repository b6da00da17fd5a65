"""Every CLI setting is one `RunConfig` field: its flag and its config
file entry must convert the same text to the same value, and reject the
same bad text, for every subcommand alike.
"""

import dataclasses

import pytest

from thermo_transfer import cli
from thermo_transfer.cli import RunConfig, UsageError, build_config

# field -> (text, the value it gives, a text it rejects or None); every
# value differs from the field's default
_CASES = {
    "model": ("dnls", "dnls", "heisenberg"),
    "beta_start": ("0.5", 0.5, "abc"),
    "beta_stop": ("7.25", 7.25, "7,25"),
    "beta_count": ("11", 11, "1.5"),
    "log_beta": ("true", True, "maybe"),
    "m": ("20", 20, "2.5"),
    "ly": ("3", 3, "3.0"),
    "eta": ("0.5", 0.5, "x"),
    "mu3": ("0.2", 0.2, "x"),
    "lam": ("0.30000000000000004", 0.30000000000000004, "x"),
    "gamma": ("1e-3", 1e-3, "x"),
    "g": ("2", 2.0, "x"),
    "mu": ("-1.5", -1.5, "x"),
    "ax": ("0.5", 0.5, "x"),
    "ay": ("0.2", 0.2, "x"),
    "out": ("x.csv", "x.csv", None),
    "threads": ("2", 2, "two"),
    "m_list": ("4, 6,8", (4, 6, 8), "4,x"),
    "reference": ("largest-m", "largest-m", "factorised"),
}
_SETTINGS = [f.name for f in dataclasses.fields(RunConfig)
             if f.name != "subcommand"]


def _flag(name):
    return "--lambda" if name == "lam" else "--" + name.replace("_", "-")


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", _SETTINGS)
def test_flag_and_config_entry_agree(name, tmp_path):
    text, value, bad = _CASES[name]
    assert value != getattr(RunConfig(subcommand="free-energy"), name)
    for sub in cli.SUBCOMMANDS:
        by_flag = build_config([sub, _flag(name), text])
        by_file = build_config([sub], config_file_text=f"{name} = {text}\n")
        assert by_flag == by_file
        assert getattr(by_flag, name) == value
    if bad is None:
        return
    with pytest.raises(UsageError) as file_error:
        build_config(["free-energy"], config_file_text=f"{name} = {bad}\n")
    try:
        build_config(["free-energy", _flag(name), bad])
    except UsageError as flag_error:
        assert str(flag_error) == str(file_error.value)
    except SystemExit as exc:
        assert exc.code == 2
    else:
        pytest.fail(f"{_flag(name)} {bad} was accepted")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{name} = {bad}\n")
    assert _exit_code(["free-energy", "--config", str(cfg)]) == 2
    assert _exit_code(["free-energy", _flag(name), bad]) == 2


def test_every_setting_has_a_case():
    assert sorted(_CASES) == sorted(_SETTINGS)


def test_a_bool_flag_alone_means_true():
    assert build_config(["free-energy", "--log-beta"]).log_beta is True
    assert build_config(["free-energy", "--log-beta", "off"],
                        config_file_text="log_beta = on\n").log_beta is False


@pytest.mark.parametrize("extra", [["--m-list", "4,6"], ["--reference", "auto"]],
                         ids=["m-list", "reference"])
def test_free_energy_ignores_settings_it_does_not_read(tmp_path, extra):
    argv = ["free-energy", "--model", "chain", "--beta-start", "0.5",
            "--beta-stop", "2", "--beta-count", "4", "--m", "10",
            "--gamma", "0.5", "--out"]
    plain, with_extra = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + [str(plain)]) == 0
    assert cli.main(argv + [str(with_extra)] + extra) == 0
    assert plain.read_bytes() == with_extra.read_bytes()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_a_thread_count_below_one_is_a_usage_error(tmp_path, capsys, threads):
    # the sweep checks it, so a subcommand that does not read --threads
    # keeps ignoring it
    sweep = ["free-energy", "--model", "chain", "--beta-start", "1",
             "--beta-stop", "2", "--beta-count", "2", "--m", "6",
             "--threads", threads, "--out", str(tmp_path / "a.csv")]
    assert cli.main(sweep) == 2
    assert capsys.readouterr().err == (
        f"error: threads must be a positive integer, got {threads}\n")
    assert cli.main(["convergence", "--model", "chain", "--beta-start", "1",
                     "--m-list", "4,6", "--threads", threads,
                     "--out", str(tmp_path / "b.csv")]) == 0
