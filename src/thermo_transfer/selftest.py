"""Built-in invariant suites behind the `selftest` CLI subcommand.

Each suite re-checks the load-bearing identities of one module with
small, fast cases: known quadrature rules and moments, special-function
reference values, Perron-Frobenius properties of assembled matrices,
factorized reference solutions, and stencil exactness.  A fresh build
passes everything in a few seconds; any corrupted constant or broken
code path shows up as a named failure.
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
    if abs(r.integrate(lambda q: q ** 2) - 0.2) > 1e-14:
        fails.append("second moment of N(0, 1/5) not reproduced")
    if abs(r.weights.sum() - 1.0) > 1e-13:
        fails.append("Hermite rule weights do not sum to 1")
    # the unit DNLS rule at s = 0 is the half-line Gaussian e^{-y^2/2}
    rc = quadrature.stieltjes_recurrence(0.0, 6)
    if not _close(rc.alpha[0], math.sqrt(2.0 / math.pi), 1e-13):
        fails.append("half-line first moment alpha_0 != sqrt(2/pi)")
    half = quadrature.golub_welsch(rc)
    if not _close(half.weights.sum(), math.sqrt(0.5 * math.pi), 1e-13):
        fails.append("half-line weights do not sum to sqrt(pi/2)")
    if np.any(half.nodes <= 0.0):
        fails.append("half-line rule has nodes outside (0, inf)")
    # the Stieltjes builder's Lanczos step on a full-line grid, against
    # the analytic Hermite rule
    a = 2.5
    cut = quadrature._TAIL_SIGMAS / math.sqrt(a)
    x, w = quadrature._composite_legendre(-cut, cut, 24, 16)
    w = w * math.sqrt(a / (2 * math.pi)) * np.exp(-0.5 * a * x * x)
    direct = quadrature.gauss_hermite_rescaled(8, a)
    indirect = quadrature.golub_welsch(quadrature.RecurrenceCoefficients(
        *quadrature._lanczos_recurrence(x, w, 8)))
    if not np.allclose(indirect.nodes, direct.nodes, rtol=0, atol=1e-12):
        fails.append("full-line Stieltjes nodes disagree with Hermite rule")
    if not np.allclose(indirect.weights, direct.weights, rtol=1e-12, atol=1e-15):
        fails.append("full-line Stieltjes weights disagree with Hermite rule")
    t = quadrature.tensor_product(quadrature.gauss_hermite_rescaled(8, 1.0), 3)
    if len(t) != 512 or abs(t.weights.sum() - 1.0) > 1e-12:
        fails.append("8^3 tensor rule size or mass wrong")
    return fails


def suite_specfun():
    fails = []
    if not _close(specfun.erfc(3.0), 2.2090496998585441e-05, 1e-13):
        fails.append("erfc(3) off")
    for x in (0.4, 1.5, 2.8):
        if not _close(specfun.erfc(-x) + specfun.erfc(x), 2.0, 1e-15):
            fails.append(f"erfc reflection broken at x={x}")
    if specfun.log_i0(0.0) != 0.0:
        fails.append("log I0(0) != 0")
    if not _close(specfun.i0_scaled(1.0), 1.2660658777520084 * math.exp(-1.0), 1e-13):
        fails.append("e^-1 I0(1) off")
    v = specfun.log_i0(700.0)
    if not (math.isfinite(v) and _close(v, 700.0 - 0.5 * math.log(2 * math.pi * 700.0)
                                        + math.log(1.0 + 1.0 / 5600.0), 1e-6)):
        fails.append("log I0(700) overflowed or far from asymptotics")
    grid = specfun.i0_scaled(np.linspace(0.1, 60.0, 200))
    if np.any(np.diff(grid) >= 0.0):
        fails.append("e^-x I0(x) not strictly decreasing")
    return fails


def suite_operator():
    fails = []
    eig = nystrom.dominant_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]]))
    if not _close(eig.lambda1, 3.0, 1e-13):
        fails.append("lambda_1 of [[2,1],[1,2]] != 3")
    rule = quadrature.gauss_hermite_rescaled(12, 1.0)
    T = nystrom.assemble(nystrom.LogKernel(lambda q, qp: np.zeros_like(q)), rule)
    if not np.allclose(T.entries, T.entries.T, rtol=0, atol=0):
        fails.append("assembled matrix not exactly symmetric")
    eig = nystrom.dominant_eigenvalue(T)
    if not _close(eig.lambda1, 1.0, 1e-13):
        fails.append("rank-1 matrix dominant eigenvalue != total mass")
    if np.any(eig.vector <= 0.0):
        fails.append("Perron vector not strictly positive")
    if nystrom.fredholm_det(T, 0.0) != 1.0:
        fails.append("det(I - 0*T) != 1")
    p = models.ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    Tc = nystrom.assemble(models.particle_chain_log_kernel(p, 5.0),
                          quadrature.gauss_hermite_rescaled(10, 5.0))
    lam1 = nystrom.dominant_eigenvalue(Tc).lambda1
    if abs(nystrom.fredholm_det(Tc, 1.0 / lam1)) > 1e-12:
        fails.append("Fredholm determinant does not vanish at mu = 1/lambda_1")
    return fails


def suite_models():
    fails = []
    p = models.ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    k = models.particle_chain_log_kernel(p, 5.0)
    if not _close(k(1.0, 0.0), -125.0 / 48.0, 1e-14):
        fails.append("chain kernel hand value at (1,0) off")
    if k(0.7, -0.3) != k(-0.3, 0.7):
        fails.append("chain kernel not symmetric")
    # the factored stack T = d_i K0_ij d_j against log-space assembly of
    # the kernel plus the coupling-matched site shift (a - beta eta)/4 on
    # the rule of precision a = beta sqrt(eta (eta + 4 gamma)), entry by
    # entry within 4 eps max(1, |log T_ij|) relative
    a = 5.0 * math.sqrt(5.0)
    shift = 0.25 * (a - 5.0)
    logspace = nystrom.assemble(
        nystrom.LogKernel(lambda q, qp: k(q, qp) + shift * (q * q + qp * qp)),
        quadrature.gauss_hermite_rescaled(12, a)).entries
    factored = models._chain_solve(1.0, 0.2, 0.2, 1.0, np.array([5.0]), 12)[1]
    bound = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(np.log(logspace)))
    if not np.all(np.abs(factored.entries[0] - logspace) <= bound * logspace):
        fails.append("factored chain stack disagrees with log-space assembly")
    p0 = models.ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=0.0)
    F30 = models.particle_chain_free_energy(p0, 5.0, 30)
    Fref = models.reference_particle_chain_gamma0(p0, 5.0)
    if not _close(F30, Fref, 1e-12):
        fails.append("gamma=0 chain disagrees with factorized reference")
    rule = quadrature.gauss_hermite_rescaled(12, 5.0)
    T0 = nystrom.assemble(models.particle_chain_log_kernel(p0, 5.0), rule)
    w = np.linalg.eigvalsh(T0.entries)
    if abs(w[-2]) > 1e-12 * w[-1]:
        fails.append("gamma=0 chain matrix not numerically rank-1")
    kd = models.dnls_log_kernel(15.0)
    if not _close(kd(0.0, 0.0), math.log(2 * math.pi), 1e-14):
        fails.append("DNLS kernel at the origin != log 2pi")
    if not math.isfinite(float(kd(10.0, 10.0))):
        fails.append("DNLS kernel overflowed at beta rho = 150")
    cp = models.CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3)
    kc = models.cylinder_log_kernel(cp, 5.0)
    if not _close(kc(np.array([1.0, 0.0, 0.0]), np.zeros(3)), -1.75, 1e-14):
        fails.append("cylinder kernel hand value off")
    c0 = models.CylinderParams(eta=1.0, ax=0.0, ay=0.2, ly=3)
    if not _close(models.cylinder_free_energy(c0, 5.0, 6),
                  models.reference_cylinder_ax0(c0, 5.0), 1e-12):
        fails.append("ax=0 cylinder far from ring-determinant reference")
    cy = models.CylinderParams(eta=1.0, ax=0.3, ay=0.0, ly=3)
    p1 = models.ParticleChainParams(eta=1.0, gamma=0.3)
    if not _close(models.cylinder_free_energy(cy, 5.0, 8),
                  models.particle_chain_free_energy(p1, 5.0, 8), 1e-12):
        fails.append("ay=0 cylinder does not reduce to decoupled chains")
    return fails


def suite_thermo():
    fails = []
    d = thermo.fd_derivative(lambda t: t ** 3, 1.0, h=0.05)
    if abs(d - 3.0) > 1e-12:
        fails.append("stencil not exact on t^3")
    if thermo.fd_derivative(lambda t: 4.0, 0.3, h=0.1) != 0.0:
        fails.append("stencil not exactly zero on constants")
    e1 = abs(thermo.fd_derivative(math.exp, 0.0, h=0.2) - 1.0)
    e2 = abs(thermo.fd_derivative(math.exp, 0.0, h=0.1) - 1.0)
    if not (e2 < e1 and math.log2(e1 / e2) > 5.5):
        fails.append("stencil convergence rate below order 6 on e^x")
    p = models.ParticleChainParams(eta=1.0)
    _, energy = thermo.particle_chain_observables(p, 5.0, 8)
    if not _close(energy, 0.2, 1e-12):
        fails.append("harmonic chain energy violates equipartition 1/beta")
    dp = models.DnlsParams(g=1.0, mu_c=1.0)
    if models.dnls_free_energy(dp, 1.0, 10) != models.dnls_free_energy(dp, 1.0, 10):
        fails.append("rebuilt DNLS rule not bit-identical")
    density, _ = thermo.dnls_observables(dp, 1.0, 10)
    if not density > 0.0:
        fails.append("DNLS density not positive")
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

    fails = []
    argv = ["free-energy", "--model", "chain", "--beta-start", "1",
            "--beta-stop", "2", "--beta-count", "3", "--m", "8",
            "--out", "x.csv", "--gamma", "0.5"]
    cfg = cli.build_config(argv)
    text = cli.config_text(cfg)
    cfg2 = cli.build_config(["free-energy"], config_file_text=text)
    if cfg2 != cfg:
        fails.append("config round trip not idempotent")
    if cli.config_text(cfg2) != text:
        fails.append("config serialization not stable")
    return fails


SUITES = [
    ("quadrature", suite_quadrature),
    ("specfun", suite_specfun),
    ("operator", suite_operator),
    ("models", suite_models),
    ("thermo", suite_thermo),
    ("cli", suite_cli),
]


def run(report=print):
    """Run every suite; returns True when all invariants hold."""
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
