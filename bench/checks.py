"""Output checks: against the independent oracles, and against properties
every correct result has.  Each check returns a list of failure
messages, empty when the result passes.

Tolerances sit one to two orders of magnitude above the agreement
measured between the program at its shipped rule sizes and the oracles
(chain m = 30: 3e-11 in F, 3e-9 in stretch_sq at beta = 0.5 where the
finite-difference step is coarsest; DNLS m = 20: 1e-15 in F, 3e-12 in
density and energy).  The free-energy check is on beta F, the log of the
per-site partition function, in absolute terms: F itself crosses zero
inside the cylinder's beta range (near beta = 4.2), where a relative
error in F means nothing.  The cylinder's m0 = 8 tensor rule is off by a
beta-independent 3.8e-4 in beta F (the harmonic cylinder is scale
invariant), so its tolerance is 1e-3.
"""

import numpy as np

import oracles

TOLERANCES = {
    "chain": {"beta_f": 1e-9, "stretch_sq": 1e-7, "energy": 1e-8},
    "dnls": {"beta_f": 1e-12, "density": 1e-10, "energy": 1e-10},
    "cylinder": {"beta_f": 1e-3},
}

# roundoff allowance for the monotonicity and concavity checks, relative
# to the largest magnitude in play
_PROPERTY_SLACK = 1e-9


def model_solver(cfg):
    """beta -> {"free_energy": F, observable: value} from the oracle."""
    num = {k: float(v) for k, v in cfg.items() if k not in ("model", "log_beta")}
    model = cfg["model"]
    if model == "chain":
        def solve(beta):
            s = oracles.chain_solution(num.get("eta", 1.0), num.get("mu3", 0.0),
                                       num.get("lambda", num.get("lam", 0.0)),
                                       num.get("gamma", 0.0), beta)
            return {"free_energy": s.free_energy, **s.observables}
    elif model == "dnls":
        def solve(beta):
            s = oracles.dnls_solution(num.get("g", 1.0), num.get("mu", 0.0), beta)
            return {"free_energy": s.free_energy, **s.observables}
    else:
        def solve(beta):
            return {"free_energy": oracles.cylinder_free_energy(
                num.get("eta", 1.0), num.get("ax", 0.0), num.get("ay", 0.0),
                int(num.get("ly", 1)), beta)}
    return solve


def read_csv(data):
    """CSV bytes -> {column: float array}."""
    lines = data.decode().strip().split("\n")
    names = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return {n: rows[:, i] for i, n in enumerate(names)}


def check_grid(table, expected):
    if table["beta"].shape != expected.shape or not np.array_equal(table["beta"], expected):
        return ["beta column differs from the config's grid"]
    return []


def check_oracle(model, table, indices, solve):
    """Compare the rows at `indices` with the oracle."""
    tol = TOLERANCES[model]
    failures = []
    for i in indices:
        beta = float(table["beta"][i])
        ref = solve(beta)
        err = abs(beta * (table["free_energy"][i] - ref["free_energy"]))
        if not err <= tol["beta_f"]:
            failures.append(f"beta={beta!r}: |beta dF| = {err:.3e} > {tol['beta_f']:.0e}")
        for name in table:
            if name in ("beta", "free_energy"):
                continue
            rel = abs(table[name][i] - ref[name]) / abs(ref[name])
            if not rel <= tol[name]:
                failures.append(f"beta={beta!r}: {name} relative error "
                                f"{rel:.3e} > {tol[name]:.0e}")
    return failures


def check_energy_nonincreasing(betas, energy):
    slack = _PROPERTY_SLACK * float(np.max(np.abs(energy)))
    bad = np.flatnonzero(np.diff(energy) > slack)
    return [f"energy rises from beta={betas[i]!r} to beta={betas[i + 1]!r}"
            for i in bad]


def check_beta_f_concave(betas, free_energy):
    slopes = np.diff(betas * free_energy) / np.diff(betas)
    slack = _PROPERTY_SLACK * max(1.0, float(np.max(np.abs(slopes))))
    bad = np.flatnonzero(np.diff(slopes) > slack)
    return [f"beta F not concave around beta={betas[i + 1]!r}" for i in bad]


def check_positive(name, values):
    bad = np.flatnonzero(~(values > 0.0))
    return [f"{name} not positive in row {i}" for i in bad]


def check_table(model, table, expected_grid, indices, solve):
    failures = check_grid(table, expected_grid)
    betas = table["beta"]
    failures += check_beta_f_concave(betas, table["free_energy"])
    if "energy" in table:
        failures += check_energy_nonincreasing(betas, table["energy"])
    for name in ("stretch_sq", "density"):
        if name in table:
            failures += check_positive(name, table[name])
    return failures + check_oracle(model, table, indices, solve)


def ladder_reference(case):
    """The oracle's F for one accuracy-ladder case."""
    p = case.params
    if case.model == "chain":
        return oracles.chain_solution(p["eta"], p["mu3"], p["lam"],
                                      p["gamma"], case.beta).free_energy
    if case.model == "dnls":
        return oracles.dnls_solution(p["g"], p["mu_c"], case.beta).free_energy
    return oracles.cylinder_free_energy(p["eta"], p["ax"], p["ay"], p["ly"],
                                        case.beta)


def check_ladder(cases, reached, references):
    """Every case met its target, at the F the oracle gives."""
    failures = []
    for case in cases:
        m, f = reached.get(case.name, (None, None))
        if m is None:
            failures.append(f"{case.name}: target {case.target:.0e} not met "
                            f"by m = {case.m_max}")
            continue
        ref = references[case.name]
        if not abs(f - ref) <= case.target * abs(ref):
            failures.append(f"{case.name}: F = {f!r} at m = {m} misses the "
                            f"oracle {ref!r} by more than {case.target:.0e}")
    return failures
