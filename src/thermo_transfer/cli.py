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

Flags may also come from a flat `key = value` config file (--config);
explicit flags win over file entries.  Output is CSV with a header row,
floats printed as %.17g so identical configs give byte-identical files.
Exit codes: 0 success, 1 numeric failure, 2 usage or config error.
"""

import argparse
import dataclasses
import sys
from dataclasses import dataclass

import numpy as np

from . import selftest as _selftest
from .errors import (AssemblyError, ConvergenceError, DomainError,
                     ResourceLimitError)
from .thermo import MODELS, SweepSpec, free_energy_sweep, map_rows

__all__ = ["RunConfig", "UsageError", "build_config", "config_text", "main",
           "run_free_energy", "run_convergence", "run_observables",
           "run_selftest"]

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
    m0: int = None
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


def _parse_reference(text):
    if text not in REFERENCES:
        raise UsageError(
            f"reference must be one of {', '.join(REFERENCES)}, got {text!r}")
    return text


# key -> converter, for config files; keys mirror the long flag names
_CONVERTERS = {
    "model": str, "out": str, "reference": _parse_reference,
    "beta_start": float, "beta_stop": float,
    "eta": float, "mu3": float, "lam": float, "gamma": float,
    "g": float, "mu": float, "ax": float, "ay": float,
    "beta_count": int, "m": int, "m0": int, "ly": int, "threads": int,
    "log_beta": _parse_bool,
    "m_list": _parse_m_list,
}
_ALIASES = {"lambda": "lam"}
# params field -> RunConfig field, where the two names differ
_PARAM_KEYS = {"mu_c": "mu"}


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
        key = _ALIASES.get(key, key)
        if key not in _CONVERTERS:
            raise UsageError(f"config line {ln}: unknown key {key!r}")
        try:
            values[key] = _CONVERTERS[key](val.strip())
        except UsageError:
            raise
        except ValueError:
            raise UsageError(f"config line {ln}: bad value for {key!r}: {val.strip()!r}")
    return values


def config_text(cfg):
    """Serialize a RunConfig back to the flat config format.

    parse -> serialize -> parse is idempotent; floats use %.17g so the
    round trip is exact.
    """
    lines = []
    for f in dataclasses.fields(RunConfig):
        if f.name == "subcommand":
            continue
        v = getattr(cfg, f.name)
        if v is None:
            continue
        if isinstance(v, bool):
            s = "true" if v else "false"
        elif isinstance(v, float):
            s = "%.17g" % v
        elif isinstance(v, tuple):
            s = ",".join(str(int(x)) for x in v)
        else:
            s = str(v)
        lines.append(f"{f.name} = {s}")
    return "\n".join(lines) + "\n"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="thermo-transfer",
        description="Transfer-operator free energies of quasi-1D chains")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="flat `key = value` config file; flags override it")
        if name == "selftest":
            continue
        p.add_argument("--model", choices=tuple(MODELS), default=None)
        p.add_argument("--beta-start", type=float, default=None)
        p.add_argument("--beta-stop", type=float, default=None)
        p.add_argument("--beta-count", type=int, default=None)
        p.add_argument("--log-beta", action="store_const", const=True,
                       default=None, help="geometric instead of linear beta grid")
        p.add_argument("--m", type=int, default=None,
                       help="quadrature points (chain, dnls)")
        p.add_argument("--m0", type=int, default=None,
                       help="per-coordinate quadrature points (cylinder)")
        p.add_argument("--ly", type=int, default=None,
                       help="cylinder circumference (default 1)")
        p.add_argument("--eta", type=float, default=None)
        p.add_argument("--mu3", type=float, default=None,
                       help="cubic on-site coefficient (chain)")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="quartic on-site coefficient (chain)")
        p.add_argument("--gamma", type=float, default=None,
                       help="nearest-neighbour coupling (chain)")
        p.add_argument("--g", type=float, default=None,
                       help="defocusing coupling (dnls)")
        p.add_argument("--mu", type=float, default=None,
                       help="chemical potential (dnls)")
        p.add_argument("--ax", type=float, default=None)
        p.add_argument("--ay", type=float, default=None)
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads over beta rows or m values "
                            "(default 1)")
        if name == "convergence":
            p.add_argument("--m-list", dest="m_list", default=None,
                           help="comma-separated quadrature sizes")
            p.add_argument("--reference", choices=REFERENCES, default=None)
    return parser


def build_config(argv=None, config_file_text=None):
    """Parse argv (and an optional config file) into a RunConfig.

    Precedence: explicit flag > config file entry > RunConfig default.
    """
    args = _build_parser().parse_args(argv)
    file_values = {}
    if config_file_text is None and getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                config_file_text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
    if config_file_text is not None:
        file_values = parse_config_text(config_file_text)

    merged = {"subcommand": args.subcommand}
    for f in dataclasses.fields(RunConfig):
        if f.name == "subcommand":
            continue
        flag = getattr(args, f.name, None)
        if f.name == "m_list" and flag is not None:
            flag = _parse_m_list(flag)
        if flag is not None:
            merged[f.name] = flag
        elif f.name in file_values:
            merged[f.name] = file_values[f.name]
    return RunConfig(**merged)


def _beta_grid(cfg):
    if cfg.beta_start is None or cfg.beta_count is None:
        raise UsageError("--beta-start and --beta-count are required")
    if cfg.beta_count < 1:
        raise UsageError(f"--beta-count must be >= 1, got {cfg.beta_count}")
    if cfg.beta_count == 1:
        return np.array([cfg.beta_start])
    if cfg.beta_stop is None:
        raise UsageError("--beta-stop is required for beta-count > 1")
    if cfg.log_beta:
        return np.geomspace(cfg.beta_start, cfg.beta_stop, cfg.beta_count)
    return np.linspace(cfg.beta_start, cfg.beta_stop, cfg.beta_count)


def _model(cfg):
    if cfg.model is None:
        raise UsageError("--model is required")
    if cfg.model not in MODELS:
        raise UsageError(f"unknown model {cfg.model!r}")
    return MODELS[cfg.model]


def _params(cfg, model):
    """The model's params object, each field read from the config."""
    return model.params(**{
        f.name: getattr(cfg, _PARAM_KEYS.get(f.name, f.name))
        for f in dataclasses.fields(model.params)})


def _require_out(cfg):
    if not cfg.out:
        raise UsageError("--out is required")


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def _write_csv(path, names, cols):
    lines = [",".join(names)]
    for row in zip(*cols):
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_sweep(cfg, model, observables):
    _require_out(cfg)
    size = getattr(cfg, model.size)
    if size is None:
        raise UsageError(f"--{model.size} is required for model {model.name!r}")
    spec = SweepSpec(params=_params(cfg, model), beta_grid=_beta_grid(cfg),
                     m=size, observables=observables)
    result = free_energy_sweep(spec, threads=cfg.threads)
    names, cols = result.columns()
    _write_csv(cfg.out, names, cols)
    return result


def run_free_energy(cfg):
    """beta sweep -> CSV `beta,free_energy`."""
    return _run_sweep(cfg, _model(cfg), observables=())


def run_observables(cfg):
    """beta sweep with observable columns appended."""
    model = _model(cfg)
    if not model.observables:
        raise UsageError(
            f"observables are not defined for the {model.name} model")
    return _run_sweep(cfg, model, model.observables)


def _convergence_reference(cfg, model, params, beta, ms, evaluate):
    """Reference free energy per the configured strategy.

    Returns (F_ref, m_to_skip); m_to_skip is the largest m when it
    doubles as the reference (its own error row would be exactly 0).
    """
    strategy = cfg.reference or "auto"
    if strategy in ("auto", "factorized"):
        f_ref = model.factorized_at(params, beta)
        if f_ref is not None:
            return f_ref, None
        if strategy == "factorized":
            needs = ", ".join(f"{m.name} needs {m.reference_zero}=0"
                              for m in MODELS.values() if m.reference)
            raise UsageError(
                f"no factorized reference for these parameters ({needs})")
    if len(ms) < 2:
        raise UsageError(
            "largest-m reference needs at least two entries in --m-list")
    m_ref = max(ms)
    return evaluate(m_ref), m_ref


def run_convergence(cfg):
    """Errors vs quadrature size at a single beta -> CSV `m,rel_error`."""
    _require_out(cfg)
    if cfg.beta_count not in (None, 1):
        raise UsageError("convergence runs at a single beta (--beta-count 1)")
    if cfg.beta_start is None:
        raise UsageError("--beta-start is required")
    if not cfg.m_list:
        raise UsageError("--m-list is required for the convergence subcommand")
    beta = cfg.beta_start
    model = _model(cfg)
    # quadrature sizes come from --m-list here, so --m/--m0 is not needed
    params = _params(cfg, model)
    evaluate = lambda m: model.free_energy_at(params, beta, m)

    ms = list(cfg.m_list)
    values = map_rows(evaluate, ms, cfg.threads)
    f_ref, m_skip = _convergence_reference(cfg, model, params, beta, ms,
                                           evaluate)
    rows = [(m, abs(f - f_ref) / abs(f_ref))
            for m, f in zip(ms, values) if m != m_skip]
    _write_csv(cfg.out, ["m", "rel_error"],
               [np.array([r[0] for r in rows]),
                np.array([r[1] for r in rows])])
    return rows


def run_selftest():
    """Invariant suites of every module; True when all pass."""
    return _selftest.run()


def main(argv=None):
    try:
        cfg = build_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if cfg.subcommand == "selftest":
            return 0 if run_selftest() else 1
        if cfg.subcommand == "free-energy":
            result = run_free_energy(cfg)
            print(f"wrote {cfg.out} ({result.betas.size} rows)")
        elif cfg.subcommand == "convergence":
            rows = run_convergence(cfg)
            print(f"wrote {cfg.out} ({len(rows)} rows)")
        elif cfg.subcommand == "observables":
            result = run_observables(cfg)
            print(f"wrote {cfg.out} ({result.betas.size} rows)")
        return 0
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssemblyError, ConvergenceError, ResourceLimitError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
