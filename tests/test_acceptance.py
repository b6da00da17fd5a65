"""Acceptance gate: the eight headline claims, one test each.

Every test prints a single `[criterion N] PASS/FAIL: ...` line with the
measured numbers before asserting, so a full run doubles as a report.

Criterion 5 is implemented exactly as stated and FAILS by design.  It
measures the ax <-> ay swap mismatch relative to |F|.  The exact
harmonic-cylinder formula at Ly = 3 puts that relative gap at 2.46e-3,
4.77e-3 and 1.99e-2 for beta = 1, 2, 5 (absolute 3.52e-3, 1.76e-3 and
7.05e-4): a real finite-circumference anisotropy that only vanishes with
Ly, not a quadrature error, so no correct program meets the 1e-3 bound.

Criterion 4 passes because the cylinder rule uses one Gauss-Hermite
weight per ring Fourier mode: at ax = 0 the weight absorbs the whole
ring potential, the integrand is constant and the m0 = 8 rule is exact.

The measured swap gap is pinned in tests/test_models.py.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from thermo_transfer.models import (
    CylinderParams,
    DnlsParams,
    ParticleChainParams,
    cylinder_free_energy,
    cylinder_log_kernel,
    dnls_free_energy,
    dnls_log_kernel,
    particle_chain_free_energy,
    particle_chain_log_kernel,
    reference_cylinder,
    reference_particle_chain_gamma0,
)
from thermo_transfer.nystrom import assemble, dominant_eigenvalue, fredholm_det
from thermo_transfer.quadrature import (
    QuadratureRule,
    gauss_hermite_rescaled,
    golub_welsch,
    stieltjes_recurrence,
    tensor_product,
)
from thermo_transfer.thermo import particle_chain_observables


def _report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_dnls_double_precision_at_m16():
    t0 = time.perf_counter()
    p = DnlsParams(g=1.0, mu_c=1.0)
    f16 = dnls_free_energy(p, 15.0, 16)
    f20 = dnls_free_energy(p, 15.0, 20)
    dt = time.perf_counter() - t0
    rel = abs(f16 - f20) / abs(f20)
    ok = rel <= 1e-12 and dt < 1.0
    _report(1, ok, f"|F(16)-F(20)|/|F(20)| = {rel:.3e} (tol 1e-12), "
                   f"runtime {dt:.3f} s (< 1 s)")
    assert rel <= 1e-12
    assert dt < 1.0


def test_criterion_2_chain_factorized_oracle():
    t0 = time.perf_counter()
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=0.0)
    f = particle_chain_free_energy(p, 5.0, 30)
    ref = reference_particle_chain_gamma0(p, 5.0)
    dt = time.perf_counter() - t0
    rel = abs(f - ref) / abs(ref)
    ok = rel <= 1e-12 and dt < 1.0
    _report(2, ok, f"Nystrom m=30 vs adaptive factorized value: "
                   f"rel = {rel:.3e} (tol 1e-12), runtime {dt:.3f} s (< 1 s)")
    assert rel <= 1e-12
    assert dt < 1.0


def _convergence_curve(evaluate, ms, m_ref):
    ref = evaluate(m_ref)
    return np.array([abs(evaluate(m) - ref) / abs(ref) for m in ms])


def _slope_and_band(ms, errs, floor):
    keep = errs > floor
    ms = np.asarray(ms, dtype=float)[keep]
    errs = errs[keep]
    slope = np.polyfit(ms, np.log10(errs), 1)[0]
    worst_ratio = float(np.max(errs[1:] / errs[:-1])) if errs.size > 1 else 0.0
    return slope, worst_ratio, ms.size


def test_criterion_3_exponential_convergence():
    # chain, gamma=1, beta=5
    pc = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    ms_c = list(range(4, 31, 2))
    errs_c = _convergence_curve(
        lambda m: particle_chain_free_energy(pc, 5.0, m), ms_c, 40)
    slope_c, band_c, n_c = _slope_and_band(ms_c, errs_c, 1e-12)

    # DNLS at beta = 15 and beta = 1
    pd = DnlsParams(g=1.0, mu_c=1.0)
    ms_15 = [4, 6, 8, 10, 12, 14]
    errs_15 = _convergence_curve(
        lambda m: dnls_free_energy(pd, 15.0, m), ms_15, 20)
    slope_15, band_15, n_15 = _slope_and_band(ms_15, errs_15, 1e-13)

    ms_1 = [2, 3, 4, 5, 6, 7]
    errs_1 = _convergence_curve(
        lambda m: dnls_free_energy(pd, 1.0, m), ms_1, 20)
    slope_1, band_1, n_1 = _slope_and_band(ms_1, errs_1, 1e-13)

    ok = all(s <= -0.3 for s in (slope_c, slope_15, slope_1)) and \
        all(b <= 2.0 for b in (band_c, band_15, band_1))
    _report(3, ok,
            f"log10-error slopes per point (tol <= -0.3): chain {slope_c:.3f} "
            f"({n_c} pts), dnls(beta=15) {slope_15:.3f} ({n_15} pts), "
            f"dnls(beta=1) {slope_1:.3f} ({n_1} pts); worst step-up ratios "
            f"{band_c:.3f}/{band_15:.3f}/{band_1:.3f} (band <= 2)")
    for slope in (slope_c, slope_15, slope_1):
        assert slope <= -0.3
    for band in (band_c, band_15, band_1):
        assert band <= 2.0


def test_criterion_4_cylinder_determinant_oracle():
    t0 = time.perf_counter()
    p = CylinderParams(eta=1.0, ax=0.0, ay=0.2, ly=3)
    f = cylinder_free_energy(p, 5.0, 8)
    ref = reference_cylinder(p, 5.0)
    dt = time.perf_counter() - t0
    rel = abs(f - ref) / abs(ref)
    ok = rel <= 1e-10 and dt < 10.0
    _report(4, ok, f"tensor m0=8 vs ring determinant: rel = {rel:.3e} "
                   f"(tol 1e-10; per-mode ring weights make the integrand "
                   f"constant), runtime {dt:.2f} s (< 10 s)")
    assert dt < 10.0
    assert rel <= 1e-10


def test_criterion_5_swap_near_symmetry():
    rels = {}
    for beta in (1.0, 2.0, 5.0):
        fa = cylinder_free_energy(
            CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3), beta, 8)
        fb = cylinder_free_energy(
            CylinderParams(eta=1.0, ax=0.2, ay=0.5, ly=3), beta, 8)
        rels[beta] = abs(fa - fb) / abs(fb)
    ok = all(r <= 1e-3 for r in rels.values())
    detail = ", ".join(f"beta={b}: {r:.3e}" for b, r in rels.items())
    _report(5, ok, f"relative |F(ax,ay) - F(ay,ax)| (tol 1e-3): {detail} "
                   f"(converged finite-Ly anisotropy, not quadrature error)")
    for beta, r in rels.items():
        assert r <= 1e-3, f"beta={beta}"


def _assembled_test_grid():
    """One assembled matrix per (model, beta, size) cell of the grid."""
    cells = []
    for beta in (0.5, 5.0):
        for m in (10, 20):
            p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
            rule = gauss_hermite_rescaled(m, beta * p.eta)
            cells.append((f"chain b={beta} m={m}", m,
                          assemble(particle_chain_log_kernel(p, beta), rule)))
    for beta in (1.0, 15.0):
        for m in (10, 16):
            p = DnlsParams(g=1.0, mu_c=1.0)
            # the unit rule of s = -mu sqrt(beta/g), nodes in rho
            s = -p.mu_c * math.sqrt(beta / p.g)
            unit = golub_welsch(stieltjes_recurrence(s, m))
            rule = QuadratureRule(unit.nodes / math.sqrt(beta * p.g),
                                  unit.weights)
            cells.append((f"dnls b={beta} m={m}", m,
                          assemble(dnls_log_kernel(beta), rule)))
    for beta in (1.0, 5.0):
        for m0 in (4, 6):
            p = CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3)
            rule = tensor_product(gauss_hermite_rescaled(m0, beta * p.eta), 3)
            cells.append((f"cylinder b={beta} m0={m0}", m0 ** 3,
                          assemble(cylinder_log_kernel(p, beta), rule)))
    return cells


def test_criterion_6_perron_frobenius_suite():
    worst_res = 0.0
    worst_gap = np.inf
    failures = []
    for label, n, mat in _assembled_test_grid():
        eig = dominant_eigenvalue(mat)
        if not (eig.lambda1 > 0.0 and math.isfinite(eig.lambda1)):
            failures.append(f"{label}: lambda1 = {eig.lambda1!r}")
        if eig.residual > 1e-13:
            failures.append(f"{label}: residual {eig.residual:.2e}")
        if not np.all(eig.vector > 0.0):
            failures.append(f"{label}: eigenvector not strictly positive")
        worst_res = max(worst_res, eig.residual)
        if n <= 20:
            vals = np.linalg.eigvalsh(mat)
            # the second-largest magnitude can sit at either end
            second = max(abs(vals[0]), abs(vals[-2]))
            worst_gap = min(worst_gap, (eig.lambda1 - second) / eig.lambda1)
            if not eig.lambda1 > second:
                failures.append(f"{label}: lambda1 not strictly dominant")
    ok = not failures
    _report(6, ok, f"{len(_assembled_test_grid())} matrices: worst residual "
                   f"{worst_res:.2e} (tol 1e-13), strictly positive vectors, "
                   f"smallest dense relative gap {worst_gap:.3f}"
                   + ("" if ok else "; " + "; ".join(failures)))
    assert not failures


def test_criterion_7_fredholm_root():
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    beta = 5.0
    dets = {}
    ok = True
    for m in (5, 10, 20):
        rule = gauss_hermite_rescaled(m, beta * p.eta)
        mat = assemble(particle_chain_log_kernel(p, beta), rule)
        lam1 = dominant_eigenvalue(mat).lambda1
        d = fredholm_det(mat, 1.0 / lam1)
        tol = 1e-12 * max(1.0, float(np.linalg.norm(mat, 2)))
        dets[m] = (d, tol)
        ok = ok and abs(d) <= tol
    detail = ", ".join(f"m={m}: det = {d:+.3e} (tol {t:.1e})"
                       for m, (d, t) in dets.items())
    _report(7, ok, f"det(I - T/lambda1): {detail}")
    for m, (d, t) in dets.items():
        assert abs(d) <= t, f"m={m}"


def _mean_v_loc_adaptive(p, beta):
    # <V_loc> under e^{-beta V_loc} dq by adaptive quadrature, with the
    # same tail-window policy as the factorized reference
    R = 1.0
    while beta * min(p.v_loc(R), p.v_loc(-R)) < 45.0 and R < 1e6:
        R *= 1.5
    z, _ = quad(lambda q: math.exp(-beta * float(p.v_loc(q))), -R, R,
                epsabs=0.0, epsrel=1e-13, limit=400)
    num, _ = quad(lambda q: float(p.v_loc(q)) * math.exp(-beta * float(p.v_loc(q))),
                  -R, R, epsabs=0.0, epsrel=1e-13, limit=400)
    return num / z


def test_criterion_8_observable_oracle():
    beta = 5.0
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=0.0)
    _, energy = particle_chain_observables(p, beta, 30)
    oracle = 1.0 / (2.0 * beta) + _mean_v_loc_adaptive(p, beta)
    rel = abs(energy - oracle) / abs(oracle)

    ph = ParticleChainParams(eta=1.0, gamma=0.0)
    _, e_h = particle_chain_observables(ph, beta, 30)
    rel_eq = abs(e_h * beta - 1.0)

    ok = rel <= 1e-6 and rel_eq <= 1e-8
    _report(8, ok, f"<e> vs adaptive 1/(2 beta) + <V_loc>: rel = {rel:.3e} "
                   f"(tol 1e-6); equipartition |beta <e> - 1| = {rel_eq:.3e} "
                   f"(tol 1e-8)")
    assert rel <= 1e-6
    assert rel_eq <= 1e-8
