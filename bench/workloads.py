"""What each benchmark workload runs.

One workload replays a checked-in CLI config; the other climbs an m
ladder per case until the free energy meets a stated accuracy against
an independent oracle (time to accuracy).  An operation is one
beta row of a config, or one rung of a ladder.
"""

import os
import time
from dataclasses import dataclass

import numpy as np

CONFIG_DIR = os.path.join("scripts", "configs")


@dataclass(frozen=True)
class ConfigWorkload:
    """One CLI config replayed through `cli.main`, on one thread."""

    config: str
    subcommand: str

    @property
    def path(self):
        return os.path.join(CONFIG_DIR, self.config)

    def cli_args(self, out):
        return [self.subcommand, "--config", self.path,
                "--threads", "1", "--out", out]


@dataclass(frozen=True)
class LadderCase:
    """Climb m = m_start, m_start + 1, ... until |F/F_oracle - 1| <= target."""

    name: str
    model: str
    params: dict
    beta: float
    target: float
    m_start: int
    m_max: int


# The four accuracy cases.  m_max bounds the climb: the cylinder's
# dense matrix at m0 = 13 already holds 2197^2 doubles.
LADDER = (
    LadderCase("chain-b5", "chain",
               dict(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0), 5.0, 1e-10, 2, 60),
    LadderCase("dnls-b15", "dnls", dict(g=1.0, mu_c=1.0), 15.0, 1e-12, 2, 40),
    LadderCase("dnls-b1", "dnls", dict(g=1.0, mu_c=1.0), 1.0, 1e-12, 2, 40),
    LadderCase("cylinder-b1", "cylinder",
               dict(eta=1.0, ax=0.5, ay=0.2, ly=3), 1.0, 1e-5, 2, 13),
)

_FREE_ENERGY = {"chain": ("ParticleChainParams", "particle_chain_free_energy"),
                "dnls": ("DnlsParams", "dnls_free_energy"),
                "cylinder": ("CylinderParams", "cylinder_free_energy")}


def ladder_inputs(models, cases):
    """(case, params object, free-energy function name) per case."""
    return [(c, getattr(models, _FREE_ENERGY[c.model][0])(**c.params),
             _FREE_ENERGY[c.model][1]) for c in cases]


def climb(models, inputs, references, times=None):
    """Climb every case's ladder through the public `*_free_energy`.

    The function is looked up on the `models` module at each call, so
    a wrapper installed there sees every rung.  If `times` is a list,
    each rung's ("case:m", seconds) is appended to it.  Returns
    ({case name: (m reached or None, F there)}, rungs attempted).
    """
    reached = {}
    rungs = 0
    for case, params, fn_name in inputs:
        f_ref = references[case.name]
        reached[case.name] = (None, float("nan"))
        for m in range(case.m_start, case.m_max + 1):
            t0 = time.perf_counter()
            f = getattr(models, fn_name)(params, case.beta, m)
            if times is not None:
                times.append((f"{case.name}:{m}", time.perf_counter() - t0))
            rungs += 1
            if abs(f - f_ref) <= case.target * abs(f_ref):
                reached[case.name] = (m, f)
                break
    return reached, rungs


WORKLOADS = {
    "chain-observables": ConfigWorkload("chain_observables.cfg", "observables"),
    "accuracy-ladder": LADDER,
}

# the ladder cases whose rule sizes make up each workload's nodes_to_tol
MODELS_OF = {"chain-observables": ("chain",),
             "accuracy-ladder": ("chain", "dnls", "cylinder")}


def ladder_cases(workload):
    return tuple(c for c in LADDER if c.model in MODELS_OF[workload])


def read_config(path):
    """Flat `key = value` file -> {key: text}; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    return values


def config_beta_grid(cfg):
    start, stop = float(cfg["beta_start"]), float(cfg["beta_stop"])
    count = int(cfg["beta_count"])
    if cfg.get("log_beta", "false").lower() in ("1", "true", "yes", "on"):
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)
