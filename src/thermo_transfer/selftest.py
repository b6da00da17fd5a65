"""Built-in checks behind the `selftest` CLI subcommand.

Each suite runs the routes a sweep runs (rule builders, the eigensolve,
the models' stacked solves, the observables and the CLI's settings) on
small, fast cases and compares them with a closed form or an
independent route: the Hermite and shifted-Hermite recurrences, Bessel
values, the harmonic chain and harmonic cylinder free energies, the
factorized gamma = 0 chain, and finite differences of F.  A fresh
build passes everything in well under a second; any corrupted constant
or broken code path shows up as a named failure.
"""

import math
import time

import numpy as np

from . import models, nystrom, quadrature, specfun, thermo

__all__ = ["run", "SUITES"]


def _close(x, y, tol):
    x, y = float(x), float(y)
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def suite_quadrature():
    fails = []
    r = quadrature.gauss_hermite_rescaled(2, 1.0)
    if not (_close(r.nodes[0], -1.0, 1e-14) and _close(r.nodes[1], 1.0, 1e-14)
            and _close(r.weights[0], 0.5, 1e-14)):
        fails.append("2-point Hermite rule is not {+-1: 0.5}")
    r = quadrature.gauss_hermite_rescaled(8, 5.0)
    if abs(np.dot(r.weights, r.nodes ** 2) - 0.2) > 1e-14:
        fails.append("second moment of N(0, 1/5) not reproduced")
    if abs(r.weights.sum() - 1.0) > 1e-13:
        fails.append("Hermite rule weights do not sum to 1")
    # the unit DNLS rule's mass and mean against their closed forms
    for s in (-3.0, 0.0, 1.0):
        sigma = 0.5 * s * s if s < 0.0 else 0.0
        mass = (math.sqrt(0.5 * math.pi) * math.exp(0.5 * s * s - sigma)
                * math.erfc(s / math.sqrt(2.0)))
        rc = quadrature.stieltjes_recurrence(s, 8)
        if not (_close(rc.beta[0], mass, 1e-13)
                and _close(rc.alpha[0], math.exp(-sigma) / mass - s, 1e-13)):
            fails.append(f"DNLS unit rule mass or mean off at s={s:g}")
        if np.any(quadrature.stieltjes_rule(s, 8).nodes <= 0.0):
            fails.append(f"DNLS unit rule has nodes outside (0, inf) at s={s:g}")
    # far below zero the weight is a Gaussian centred at -s, so the grid,
    # Lanczos and refinement must give the Hermite recurrence shifted by -s
    rc = quadrature.stieltjes_recurrence(-13.0, 12)
    if not (np.allclose(rc.alpha, 13.0, rtol=1e-13, atol=0.0)
            and np.allclose(rc.beta[1:], np.arange(1, 12), rtol=1e-13, atol=0.0)
            and _close(rc.beta[0], math.sqrt(2.0 * math.pi), 1e-13)):
        fails.append("Stieltjes recurrence at s=-13 is not the shifted Hermite one")
    return fails


def suite_specfun():
    fails = []
    if not _close(specfun.i0_scaled(1.0), 1.2660658777520084 * math.exp(-1.0), 1e-13):
        fails.append("e^-1 I0(1) off")
    if not _close(specfun.i1_scaled(1.0), 0.5651591039924851 * math.exp(-1.0), 1e-13):
        fails.append("e^-1 I1(1) off")
    return fails


def suite_operator():
    fails = []
    eig = nystrom.dominant_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]]))
    if not _close(eig.lambda1, 3.0, 1e-13):
        fails.append("lambda_1 of [[2,1],[1,2]] != 3")
    if not np.allclose(eig.vector, math.sqrt(0.5), rtol=0.0, atol=1e-15):
        fails.append("Perron vector of [[2,1],[1,2]] != (1,1)/sqrt 2")
    return fails


def suite_models():
    fails = []
    # the harmonic chain is the one-site ring without ring bonds
    chain = models.ParticleChainParams(eta=1.0, gamma=1.0)
    ring = models.CylinderParams(eta=1.0, ax=1.0, ay=0.0, ly=1)
    for beta in (0.5, 5.0):
        if not _close(models.particle_chain_free_energy(chain, beta, 12),
                      models.reference_cylinder(ring, beta), 1e-13):
            fails.append(f"harmonic chain disagrees with its closed form at beta={beta:g}")
    p0 = models.ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=0.0)
    if not _close(models.particle_chain_free_energy(p0, 5.0, 30),
                  models.reference_particle_chain_gamma0(p0, 5.0), 1e-12):
        fails.append("gamma=0 chain disagrees with factorized reference")
    for ax in (0.0, 0.5):
        cyl = models.CylinderParams(eta=1.0, ax=ax, ay=0.2, ly=3)
        if not _close(models.cylinder_free_energy(cyl, 5.0, 8),
                      models.reference_cylinder(cyl, 5.0), 1e-12):
            fails.append(f"cylinder at ax={ax:g} disagrees with its closed form")
    return fails


def suite_thermo():
    fails = []
    eta, gamma, beta = 1.0, 1.0, 5.0
    stretch, energy = thermo.particle_chain_observables(
        models.ParticleChainParams(eta=eta, gamma=gamma), beta, 12)
    if not _close(energy, 1.0 / beta, 1e-12):
        fails.append("harmonic chain energy violates equipartition 1/beta")
    c = math.sqrt(eta * (eta + 4.0 * gamma))
    if not _close(stretch, (1.0 + eta / c) / (beta * (eta + 2.0 * gamma + c)), 1e-12):
        fails.append("harmonic chain stretch_sq disagrees with dF/dgamma")
    # the DNLS observables against finite differences of the public F
    g, mu, beta, m = 1.0, 1.0, 1.0, 16
    dp = models.DnlsParams(g=g, mu_c=mu)
    density, energy = thermo.dnls_observables(dp, beta, m)
    dfdmu = thermo.fd_derivative(
        lambda x: models.dnls_free_energy(models.DnlsParams(g=g, mu_c=x), beta, m),
        mu, h=0.005)
    dbfdb = thermo.fd_derivative(
        lambda b: b * models.dnls_free_energy(dp, b, m), beta, h=0.005)
    if not _close(density, -dfdmu, 1e-9):
        fails.append("DNLS density disagrees with -dF/dmu")
    if not _close(energy, dbfdb + mu * density, 1e-9):
        fails.append("DNLS energy disagrees with d(beta F)/dbeta + mu density")
    # a cleared rule cache between the solves, so the second rebuilds it
    first = models.dnls_free_energy(dp, 1.0, 10)
    quadrature._stieltjes.cache_clear()
    if models.dnls_free_energy(dp, 1.0, 10) != first:
        fails.append("rebuilt DNLS rule not bit-identical")
    # concavity of beta*F on a coarse grid, all three models; the grid
    # must be evenly spaced for plain second differences to test it
    bs = np.linspace(0.5, 8.5, 5)
    for name, f in (
            ("chain", lambda b: models.particle_chain_free_energy(
                models.ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0), b, 16)),
            ("dnls", lambda b: models.dnls_free_energy(dp, b, 12)),
            ("cylinder", lambda b: models.cylinder_free_energy(
                models.CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3), b, 5))):
        bf = np.array([b * f(b) for b in bs])
        if np.any(np.diff(bf, 2) > 1e-9):
            fails.append(f"beta*F not concave for {name}")
    return fails


def suite_cli():
    from . import cli

    argv = ["free-energy", "--model", "chain", "--beta-start", "1",
            "--beta-stop", "2", "--beta-count", "3", "--m", "8",
            "--out", "x.csv", "--gamma", "0.5", "--lambda", "0.2",
            "--log-beta"]
    text = ("model = chain\nbeta_start = 1\nbeta-stop = 2\nbeta_count = 3\n"
            "m = 8\nout = x.csv\ngamma = 0.5\nlambda = 0.2\nlog_beta = true\n")
    if cli.build_config(argv) != cli.build_config(["free-energy"],
                                                  config_file_text=text):
        return ["flags and config text give different settings"]
    return []


SUITES = [
    ("quadrature", suite_quadrature),
    ("specfun", suite_specfun),
    ("operator", suite_operator),
    ("models", suite_models),
    ("thermo", suite_thermo),
    ("cli", suite_cli),
]


def run(report=print):
    """Run every suite; returns True when all checks hold."""
    all_ok = True
    for name, fn in SUITES:
        t0 = time.perf_counter()
        try:
            fails = fn()
        except Exception as exc:  # a crash counts as a failure too
            fails = [f"suite raised {type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        status = "ok" if not fails else "FAIL"
        report(f"{name:<12s} {status:>4s}  ({dt:6.3f} s)")
        for msg in fails:
            report(f"    - {msg}")
        all_ok = all_ok and not fails
    return all_ok
