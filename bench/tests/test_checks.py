"""Each output check passes the program's real output and rejects a
deliberately perturbed copy of it."""

import numpy as np
import pytest

import checks
import workloads
from thermo_transfer import models, thermo

CFGS = {
    "chain": {"model": "chain", "eta": "1.0", "mu3": "0.2", "lambda": "0.2",
              "gamma": "1.0"},
    "dnls": {"model": "dnls", "g": "1.0", "mu": "1.0"},
    "cylinder": {"model": "cylinder", "eta": "1.0", "ax": "0.5", "ay": "0.2",
                 "ly": "3"},
}
BETAS = {
    "chain": np.array([0.5, 1.0, 2.0, 5.0, 10.0]),
    "dnls": np.array([0.1, 1.0, 5.0, 15.0, 30.0]),
    # 4.1 sits next to the zero of F
    "cylinder": np.array([0.5, 1.0, 2.0, 4.1, 5.0]),
}


def program_table(model):
    betas = BETAS[model]
    if model == "chain":
        p = models.ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
        f = [models.particle_chain_free_energy(p, b, 30) for b in betas]
        obs = np.array([thermo.particle_chain_observables(p, b, 30) for b in betas])
        return {"beta": betas, "free_energy": np.array(f),
                "stretch_sq": obs[:, 0], "energy": obs[:, 1]}
    if model == "dnls":
        p = models.DnlsParams(g=1.0, mu_c=1.0)
        f = [models.dnls_free_energy(p, b, 20) for b in betas]
        obs = np.array([thermo.dnls_observables(p, b, 20) for b in betas])
        return {"beta": betas, "free_energy": np.array(f),
                "energy": obs[:, 1], "density": obs[:, 0]}
    p = models.CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3)
    return {"beta": betas,
            "free_energy": np.array([models.cylinder_free_energy(p, b, 8)
                                     for b in betas])}


@pytest.fixture(scope="module", params=sorted(CFGS))
def case(request):
    model = request.param
    return model, program_table(model), checks.model_solver(CFGS[model])


def run_all(model, table, solve):
    return checks.check_table(model, table, BETAS[model],
                              range(table["beta"].size), solve)


def perturbed(table, column, row, value):
    out = {k: v.copy() for k, v in table.items()}
    out[column][row] = value
    return out


def test_program_output_passes(case):
    model, table, solve = case
    assert run_all(model, table, solve) == []


def test_free_energy_off_by_ten_tolerances_is_rejected(case):
    model, table, solve = case
    i = 2
    beta = table["beta"][i]
    bad = perturbed(table, "free_energy", i, table["free_energy"][i]
                    + 10.0 * checks.TOLERANCES[model]["beta_f"] / beta)
    failures = checks.check_oracle(model, bad, [i], solve)
    assert len(failures) == 1 and "beta dF" in failures[0]


def test_each_observable_off_by_ten_tolerances_is_rejected(case):
    model, table, solve = case
    names = [n for n in table if n not in ("beta", "free_energy")]
    for name in names:
        i = 1
        bad = perturbed(table, name, i, table[name][i]
                        * (1.0 + 10.0 * checks.TOLERANCES[model][name]))
        failures = checks.check_oracle(model, bad, [i], solve)
        assert len(failures) == 1 and name in failures[0]


def test_convex_kink_in_beta_f_is_rejected(case):
    # a concave beta F lies above its chords; put one point just below
    model, table, _ = case
    b, bf = table["beta"], table["beta"] * table["free_energy"]
    i = 2
    chord = bf[i - 1] + (bf[i + 1] - bf[i - 1]) * (b[i] - b[i - 1]) / (b[i + 1] - b[i - 1])
    below = chord - 1e-6 * abs(chord)
    bad = perturbed(table, "free_energy", i, below / b[i])
    assert checks.check_beta_f_concave(bad["beta"], bad["free_energy"])


def test_rising_energy_is_rejected(case):
    model, table, _ = case
    if "energy" not in table:
        pytest.skip("no energy column")
    bad = perturbed(table, "energy", 3, table["energy"][2] + 1e-6)
    assert checks.check_energy_nonincreasing(bad["beta"], bad["energy"])


def test_non_positive_stretch_or_density_is_rejected(case):
    model, table, _ = case
    for name in ("stretch_sq", "density"):
        if name in table:
            bad = perturbed(table, name, 0, -table[name][0])
            assert checks.check_positive(name, bad[name])
            bad = perturbed(table, name, 0, 0.0)
            assert checks.check_positive(name, bad[name])


def test_beta_column_off_the_config_grid_is_rejected(case):
    model, table, _ = case
    bad = perturbed(table, "beta", 1, np.nextafter(table["beta"][1], 0.0))
    assert checks.check_grid(bad, BETAS[model])


def test_cylinder_tolerance_covers_the_m0_8_truncation_error():
    # the harmonic cylinder is scale invariant, so the m0 = 8 error in
    # beta F is the same at every beta; it must sit inside the tolerance
    table = program_table("cylinder")
    solve = checks.model_solver(CFGS["cylinder"])
    errs = [abs(b * (f - solve(b)["free_energy"]))
            for b, f in zip(table["beta"], table["free_energy"])]
    assert max(errs) < checks.TOLERANCES["cylinder"]["beta_f"] / 2
    assert min(errs) > checks.TOLERANCES["cylinder"]["beta_f"] / 10


def ladder_case():
    return workloads.LADDER[2]  # DNLS at beta = 1, cheapest to climb


def test_ladder_reaches_its_target():
    case = ladder_case()
    ref = {case.name: checks.ladder_reference(case)}
    inputs = workloads.ladder_inputs(models, [case])
    reached, rungs = workloads.climb(models, inputs, ref)
    m, _ = reached[case.name]
    assert m is not None and rungs == m - case.m_start + 1
    assert checks.check_ladder([case], reached, ref) == []


def test_ladder_check_rejects_a_miss_and_a_wrong_value():
    case = ladder_case()
    ref = {case.name: checks.ladder_reference(case)}
    f = ref[case.name]
    assert checks.check_ladder([case], {case.name: (None, f)}, ref)
    wrong = f * (1.0 + 10.0 * case.target)
    assert checks.check_ladder([case], {case.name: (7, wrong)}, ref)
