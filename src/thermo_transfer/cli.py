"""Command-line front end: free-energy sweeps, convergence studies,
observables, selftest.

    thermo-transfer free-energy  --model chain --beta-start 0.5 --beta-stop 10
                                 --beta-count 96 --m 30 --gamma 1 --mu3 0.2
                                 --lambda 0.2 --out chain.csv
    thermo-transfer convergence  --model dnls --beta-start 15 --beta-count 1
                                 --mu 1 --m-list 4,6,8,10,12,14,16
                                 --reference largest-m --out conv.csv
    thermo-transfer observables  --model dnls --beta-start 0.5 --beta-stop 8
                                 --beta-count 32 --m 16 --mu 1 --out obs.csv
    thermo-transfer selftest

Each field of `RunConfig` is one setting, declared once: its type
converts both its flag's text and its entry in a flat `key = value`
config file (--config).  Every subcommand takes the same flags and keys
and ignores those it does not read; explicit flags win over file
entries.  --m is every model's quadrature size: m points per matrix,
per ring mode for the cylinder (the paper's per-coordinate m0).
Output is CSV with a header row, numbers printed as %.17g so
identical configs give byte-identical files.  --out is opened once,
before any solve, with nothing truncated: a run that fails leaves a
file that was there as it was and removes one it created (through a
dangling symlink, the link's target), and a run
that succeeds overwrites the file in place, then cuts a regular file
to the new length.  The overwrite is not atomic: a reader, or a crash,
mid-write may see new bytes over old ones.  Nothing is fsynced, and an
in-place overwrite does not get the ordering ext4 gives a rewrite of a
truncated file (its replace-via-truncate flush on close).
Exit codes: 0 success, 1 numeric failure, 2 usage or config error.
"""

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from . import selftest as _selftest
from .errors import DomainError, NumericError
from .thermo import MODELS, SweepSpec, free_energy_sweep

__all__ = ["RunConfig", "UsageError", "build_config", "main",
           "run_convergence"]

SUBCOMMANDS = ("free-energy", "convergence", "observables", "selftest")
REFERENCES = ("auto", "factorized", "largest-m")


class UsageError(Exception):
    """Bad flags or config file contents; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Fully merged run configuration (flags over config file over defaults)."""

    subcommand: str
    model: str = None
    beta_start: float = None
    beta_stop: float = None
    beta_count: int = None
    log_beta: bool = False
    m: int = None
    ly: int = 1
    eta: float = 1.0
    mu3: float = 0.0
    lam: float = 0.0
    gamma: float = 0.0
    g: float = 1.0
    mu: float = 0.0
    ax: float = 0.0
    ay: float = 0.0
    out: str = None
    threads: int = None
    m_list: tuple = None
    reference: str = "auto"

    def __post_init__(self):
        # a config built in code is held to the choices of the flags
        for name in _CHOICES:
            _check_choice(name, getattr(self, name))


# every field but the subcommand is a flag and a config key
_SETTINGS = {f.name: f for f in dataclasses.fields(RunConfig)[1:]}
_CHOICES = {"model": tuple(MODELS), "reference": REFERENCES}
# the flag spelling where it differs from the field name; a config file
# takes either
_SPELLING = {"lam": "lambda"}
_KEYS = {s: n for n, s in _SPELLING.items()}
_HELP = {
    "log_beta": "geometric instead of linear beta grid",
    "m": "quadrature points per matrix, per ring mode for the cylinder "
         "(the paper's per-coordinate m0)",
    "ly": "cylinder circumference (default 1)",
    "mu3": "cubic on-site coefficient (chain)",
    "lam": "quartic on-site coefficient (chain)",
    "gamma": "nearest-neighbour coupling (chain)",
    "g": "defocusing coupling (dnls)",
    "mu": "chemical potential (dnls)",
    "out": "output CSV path",
    "threads": "worker threads over blocks of beta rows (default 1); "
               "every shipped config fits in one block",
    "m_list": "comma-separated quadrature sizes (convergence)",
}
# params field -> RunConfig field, where the two names differ
_PARAM_KEYS = {"mu_c": "mu"}


def _check_choice(name, value):
    # a choice setting holds one of its choices, or its default (the
    # model's None: no model given)
    if value not in _CHOICES[name] and value != _SETTINGS[name].default:
        raise UsageError(f"{name} must be one of "
                         f"{', '.join(_CHOICES[name])}, got {value!r}")


def _parse_m_list(text):
    try:
        items = tuple(int(tok) for tok in str(text).replace(";", ",").split(",")
                      if tok.strip())
    except ValueError:
        raise UsageError(f"--m-list expects comma-separated integers, got {text!r}")
    if not items:
        raise UsageError("--m-list is empty")
    return items


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _converter(name):
    """A setting's text -> value, from its field's type."""
    kind = _SETTINGS[name].type
    return {bool: _parse_bool, tuple: _parse_m_list}.get(kind, kind)


def parse_config_text(text):
    """Flat `key = value` file (# comments, blank lines ok) -> field dict."""
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {ln}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        key = _KEYS.get(key, key)
        if key not in _SETTINGS:
            raise UsageError(f"config line {ln}: unknown key {key!r}")
        try:
            value = _converter(key)(val.strip())
        except ValueError:
            raise UsageError(f"config line {ln}: bad value for {key!r}: {val.strip()!r}")
        if key in _CHOICES:
            _check_choice(key, value)
        values[key] = value
    return values


def _flag(name):
    return "--" + _SPELLING.get(name, name).replace("_", "-")


# argparse takes a token such as -1e-3 or -inf for an option, not a
# value, unless it is joined to its flag; a float flag's next token
# that float() reads is joined as --flag=value
_FLOAT_FLAGS = {_flag(n) for n, f in _SETTINGS.items() if f.type is float}


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_float_values(argv):
    joined = []
    for tok in argv:
        if joined and joined[-1] in _FLOAT_FLAGS and _is_float(tok):
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    return joined


@functools.lru_cache(maxsize=None)
def _parser():
    # built once per process: parse_args reads the parser and returns a
    # fresh Namespace, so no value of one call reaches the next.  Full
    # spellings only, each of which _join_float_values knows
    parser = argparse.ArgumentParser(
        prog="thermo-transfer",
        description="Transfer-operator free energies of quasi-1D chains",
        allow_abbrev=False)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None,
                        help="flat `key = value` config file; flags override it")
    for name, f in _SETTINGS.items():
        # a bool flag alone means true
        switch = {"nargs": "?", "const": True} if f.type is bool else {}
        parser.add_argument(_flag(name), dest=name, type=_converter(name),
                            choices=_CHOICES.get(name), help=_HELP.get(name),
                            **switch)
    return parser


def build_config(argv=None, config_file_text=None):
    """Parse argv (and an optional config file) into a RunConfig.

    Precedence: explicit flag > config file entry > RunConfig default.
    """
    args = _parser().parse_args(_join_float_values(
        sys.argv[1:] if argv is None else argv))
    if config_file_text is None and args.config:
        try:
            with open(args.config) as fh:
                config_file_text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
    values = parse_config_text(config_file_text or "")
    values.update((name, getattr(args, name)) for name in _SETTINGS
                  if getattr(args, name) is not None)
    return RunConfig(subcommand=args.subcommand, **values)


def _beta_grid(cfg):
    if cfg.beta_start is None or cfg.beta_count is None:
        raise UsageError("--beta-start and --beta-count are required")
    if cfg.beta_count < 1:
        raise UsageError(f"--beta-count must be >= 1, got {cfg.beta_count}")
    if cfg.beta_count == 1:
        return np.array([cfg.beta_start])
    if cfg.beta_stop is None:
        raise UsageError("--beta-stop is required for beta-count > 1")
    # numpy's grids warn on a bound that is not finite, and geomspace
    # raises or warns on one that is not positive
    need = "positive and finite with --log-beta" if cfg.log_beta else "finite"
    for flag, bound in (("--beta-start", cfg.beta_start),
                        ("--beta-stop", cfg.beta_stop)):
        if not math.isfinite(bound) or (cfg.log_beta and not bound > 0.0):
            raise UsageError(f"{flag} must be {need}, got {bound!r}")
    if cfg.log_beta:
        return np.geomspace(cfg.beta_start, cfg.beta_stop, cfg.beta_count)
    return np.linspace(cfg.beta_start, cfg.beta_stop, cfg.beta_count)


def _model(cfg):
    if cfg.model is None:
        raise UsageError("--model is required")
    return MODELS[cfg.model]


def _params(cfg, model):
    """The model's params object, each field read from the config."""
    return model(**{f.name: getattr(cfg, _PARAM_KEYS.get(f.name, f.name))
                    for f in dataclasses.fields(model)})


# --out is opened for writing, with nothing truncated, in binary mode
# where the platform has one
_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _require_out(path):
    """--out is given and can be written, checked before any solve.

    Opens the file for writing without truncating it, so a solve that
    fails later leaves an existing file as it was, and returns
    (descriptor, the resolved path of the file if the check created it,
    else None): through a dangling symlink, that is the link's target."""
    if not path:
        raise UsageError("--out is required")
    created = None if os.path.exists(path) else os.path.realpath(path)
    try:
        return os.open(path, _OUT_FLAGS, 0o666), created
    except OSError as exc:
        raise UsageError(f"cannot write output file: {exc}")


def _csv_bytes(names, cols):
    # %.17g prints an integer column (m) as 4, 150, ...; a column's
    # tolist() gives Python ints and floats, one format per row
    row = ",".join(["%.17g"] * len(cols))
    lines = [",".join(names)]
    lines += [row % values
              for values in zip(*(np.asarray(c).tolist() for c in cols))]
    return ("\n".join(lines) + "\n").encode()


def _write_all(fd, data):
    # write from the descriptor's start (where the check's open left it),
    # then cut a regular file to the bytes written: on success the old
    # tail goes, on a failed write no old byte follows the new ones
    done = 0
    try:
        while done < len(data):
            done += os.write(fd, data[done:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, done)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.ftruncate(fd, done)
        raise UsageError(f"cannot write output file: {exc}")


def _into_out(path, solve):
    """Check `path`, run solve() -> (names, cols, value), write the CSV
    through the check's descriptor and return value.

    The file is overwritten in place.  If the solve or the write fails,
    a file the check created is removed."""
    fd, created = _require_out(path)
    try:
        try:
            names, cols, value = solve()
            _write_all(fd, _csv_bytes(names, cols))
        finally:
            os.close(fd)
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(created)
        raise
    return value


def _write_csv(path, names, cols):
    """Write a CSV with a header row to path, as --out is written."""
    _into_out(path, lambda: (names, cols, None))


def _run_sweep(cfg, observables):
    """beta sweep -> CSV `beta,free_energy`, then the model's observable
    columns if asked for."""
    def solve():
        model = _model(cfg)
        if cfg.m is None:
            raise UsageError("--m is required")
        spec = SweepSpec(params=_params(cfg, model),
                         beta_grid=_beta_grid(cfg), m=cfg.m,
                         observables=observables)
        result = free_energy_sweep(spec, threads=cfg.threads)
        return (*result.columns(), result)

    return _into_out(cfg.out, solve)


def _factorized_reference(cfg, params, beta, ms):
    """The factorized-limit F the configured strategy asks for, or None
    when the largest m is the reference."""
    f_ref = None if cfg.reference == "largest-m" else params.factorized(beta)
    if f_ref is None and cfg.reference == "factorized":
        needs = ", ".join(f"{m.name} needs {m.reference_zero}=0"
                          for m in MODELS.values() if m.reference_zero)
        raise UsageError(
            f"no factorized reference for these parameters ({needs})")
    if f_ref is None and len(ms) < 2:
        raise UsageError(
            "largest-m reference needs at least two entries in --m-list")
    return f_ref


def run_convergence(cfg):
    """Errors vs quadrature size at a single beta -> CSV `m,rel_error`.

    Each m is a one-point sweep, in --m-list order; a size may appear
    only once.  Against the largest-m reference, the largest m's own
    row (exactly 0) is left out.
    """
    return _into_out(cfg.out, lambda: _convergence_rows(cfg))


def _convergence_rows(cfg):
    # (names, columns, rows) of `run_convergence`'s CSV
    if cfg.beta_count not in (None, 1):
        raise UsageError("convergence runs at a single beta (--beta-count 1)")
    if cfg.beta_start is None:
        raise UsageError("--beta-start is required")
    if not cfg.m_list:
        raise UsageError("--m-list is required for the convergence subcommand")
    beta = cfg.beta_start
    # quadrature sizes come from --m-list here, so --m is not needed
    params = _params(cfg, _model(cfg))
    ms = list(cfg.m_list)
    repeated = sorted({m for m in ms if ms.count(m) > 1})
    if repeated:
        raise UsageError(f"--m-list repeats {', '.join(map(str, repeated))}")
    f_ref = _factorized_reference(cfg, params, beta, ms)
    values = [free_energy_sweep(SweepSpec(params=params, beta_grid=[beta],
                                          m=m)).free_energy[0] for m in ms]
    m_skip = None
    if f_ref is None:
        m_skip = max(ms)
        f_ref = values[ms.index(m_skip)]
    rows = [(m, abs(f - f_ref) / abs(f_ref))
            for m, f in zip(ms, values) if m != m_skip]
    return ["m", "rel_error"], list(zip(*rows)), rows


def main(argv=None):
    try:
        cfg = build_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if cfg.subcommand == "selftest":
            return 0 if _selftest.run() else 1
        if cfg.subcommand == "convergence":
            rows = len(run_convergence(cfg))
        else:
            rows = _run_sweep(cfg, cfg.subcommand == "observables").betas.size
        print(f"wrote {cfg.out} ({rows} rows)")
        return 0
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
