"""Quadrature construction tests.

The main oracle is exact moment data:

* normalized Gaussian with precision a: odd moments vanish and
  E[z^{2n}] = (2n-1)!!/a^n,
* truncated Gaussian c e^{-a(z-b)^2/2} on [0, inf): integration by
  parts gives the closed recursion
      M_0 = 1,
      M_1 = b + c e^{-a b^2/2} / a,
      M_k = b M_{k-1} + (k-1)/a M_{k-2},
  which never touches the code under test.  Its rule is the unit DNLS
  rule of s = -b sqrt(a) in y = z sqrt(a) (`truncated_recurrence`).

An m-point Gauss rule must reproduce moments up to degree 2m-1 at
machine precision and must NOT be exact at degree 2m (sharpness).
"""

import math
import os
import random
import sys
import threading
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermo_transfer import quadrature
from thermo_transfer.errors import (ConvergenceError, DomainError,
                                    ResourceLimitError)
from thermo_transfer.quadrature import (
    QuadratureRule,
    RecurrenceCoefficients,
    gauss_hermite_rescaled,
    golub_welsch,
    stieltjes_recurrence,
    stieltjes_rule,
    tensor_product,
    truncated_gaussian_normalization,
)

mpmath.mp.dps = 40


# --- oracles ----------------------------------------------------------------

def gaussian_moment_oracle(n, a):
    # E[z^n] for N(0, 1/a)
    if n % 2 == 1:
        return 0.0
    return float(mpmath.fac2(n - 1)) / a ** (n // 2)


def truncated_moments_oracle(a, b, c, kmax):
    # moment recursion of c e^{-a(z-b)^2/2} on [0, inf), see module docstring
    m = [0.0] * (kmax + 1)
    m[0] = 1.0
    if kmax >= 1:
        m[1] = b + c * math.exp(-0.5 * a * b * b) / a
    for k in range(2, kmax + 1):
        m[k] = b * m[k - 1] + (k - 1) / a * m[k - 2]
    return m


def truncated_recurrence(a, b, m):
    # the recurrence of the normalized c e^{-a(z-b)^2/2} on [0, inf) from
    # the unit rule of s = -b sqrt(a) in y = z sqrt(a): alpha/sqrt(a),
    # beta_k/a, and beta_0 the unit rule's mass times
    # c e^{sigma(s) - s^2/2}/sqrt(a), which is 1 when that mass is right
    s = -b * math.sqrt(a)
    rc = stieltjes_recurrence(s, m)
    beta = rc.beta / a
    beta[0] = (rc.beta[0] * truncated_gaussian_normalization(a, b)
               * math.exp(0.5 * min(s, 0.0) ** 2 - 0.5 * s * s) / math.sqrt(a))
    return RecurrenceCoefficients(rc.alpha / math.sqrt(a), beta)


def rule_moment(rule, k):
    return float(np.dot(rule.weights, rule.nodes ** k))


# --- rescaled Gauss-Hermite ---------------------------------------------------

def test_hermite_two_point_hand_values():
    # m=2, precision a: nodes +-1/sqrt(a), weights 1/2
    r = gauss_hermite_rescaled(2, 4.0)
    assert r.nodes == pytest.approx([-0.5, 0.5], abs=1e-15)
    assert r.weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_hermite_three_point_hand_values():
    # m=3: nodes 0, +-sqrt(3/a); weights 2/3 center, 1/6 wings
    r = gauss_hermite_rescaled(3, 3.0)
    assert r.nodes == pytest.approx([-1.0, 0.0, 1.0], abs=1e-14)
    assert r.weights == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-15)


@pytest.mark.parametrize("m,a", [(1, 1.0), (4, 0.3), (10, 2.5), (25, 17.0)])
def test_hermite_moments_exact_to_degree(m, a):
    r = gauss_hermite_rescaled(m, a)
    for k in range(2 * m):
        expect = gaussian_moment_oracle(k, a)
        # odd moments vanish only through cancellation of terms of size
        # sum w |z|^k, so that sum is the natural error scale
        scale = max(1.0, abs(expect), rule_moment(r, k) if k % 2 == 0
                    else float(np.dot(r.weights, np.abs(r.nodes) ** k)))
        assert abs(rule_moment(r, k) - expect) <= 5e-14 * scale, f"moment {k}"


def test_hermite_exactness_is_sharp():
    # degree 2m is the first one a true m-point Gauss rule gets wrong
    m, a = 6, 1.0
    r = gauss_hermite_rescaled(m, a)
    expect = gaussian_moment_oracle(2 * m, a)
    assert abs(rule_moment(r, 2 * m) - expect) > 1e-6 * expect


def test_hermite_symmetry():
    r = gauss_hermite_rescaled(9, 0.7)
    assert np.allclose(r.nodes, -r.nodes[::-1], atol=1e-14)
    assert np.allclose(r.weights, r.weights[::-1], rtol=1e-13)


def test_hermite_single_point():
    r = gauss_hermite_rescaled(1, 5.0)
    assert r.nodes == pytest.approx([0.0])
    assert r.weights == pytest.approx([1.0])


def test_sizes_reject_bools():
    # True is an int to Python, so it once ran as m = 1
    with pytest.raises(DomainError, match="m must be a positive integer, got True"):
        gauss_hermite_rescaled(True, 1.0)
    with pytest.raises(DomainError, match="got False"):
        stieltjes_recurrence(0.0, False)


def test_hermite_rejects_bad_arguments():
    with pytest.raises(DomainError):
        gauss_hermite_rescaled(0, 1.0)
    with pytest.raises(DomainError):
        gauss_hermite_rescaled(3.5, 1.0)
    with pytest.raises(DomainError):
        gauss_hermite_rescaled(4, -1.0)
    with pytest.raises(DomainError):
        gauss_hermite_rescaled(4, float("inf"))


# --- Golub-Welsch on hand-checkable recurrences ------------------------------

def test_golub_welsch_chebyshev_recurrence():
    # first kind Chebyshev: alpha_k = 0, beta_0 = pi, beta_1 = 1/2,
    # beta_k = 1/4; nodes must be cos((2i-1)pi/2m), weights pi/m
    m = 7
    alpha = np.zeros(m)
    beta = np.full(m, 0.25)
    beta[0] = math.pi
    beta[1] = 0.5
    r = golub_welsch(RecurrenceCoefficients(alpha, beta))
    expect = np.cos((2 * np.arange(m, 0, -1) - 1) * math.pi / (2 * m))
    assert np.allclose(r.nodes, expect, atol=1e-14)
    assert np.allclose(r.weights, math.pi / m, rtol=1e-13)


def test_golub_welsch_mass_in_weights():
    rc = RecurrenceCoefficients(np.zeros(3), np.array([7.0, 1.0, 2.0]))
    r = golub_welsch(rc)
    assert r.weights.sum() == pytest.approx(7.0, rel=1e-14)


@pytest.mark.parametrize("m", [60, 100, 150])
def test_large_m_tail_weights_survive(m):
    # the Hermite rule (numpy's hermegauss) against Golub-Welsch on the
    # monic Hermite recurrence alpha_k = 0, beta_0 = 1, beta_k = k; also
    # a regression for golub_welsch: the default eigh_tridiagonal driver
    # (stemr) flushes eigenvector components below ~1e-40 to zero,
    # zeroing the extreme weights of rules beyond m ~ 55
    r = gauss_hermite_rescaled(m, 1.0)
    assert np.all(r.weights > 0.0)
    gw = golub_welsch(RecurrenceCoefficients(
        np.zeros(m), np.concatenate(([1.0], np.arange(1.0, m)))))
    assert np.all(gw.weights > 0.0)
    assert np.allclose(r.nodes, gw.nodes, atol=5e-13)
    assert np.max(np.abs(r.weights - gw.weights) / gw.weights) < 1e-8


@pytest.mark.parametrize("m", [2, 13, 40, 80, 150])
def test_golub_welsch_bits_equal_scipy_stev_wrapper(m):
    # golub_welsch calls LAPACK's dstev directly; SciPy's wrapper with
    # the same driver must give the same bits, on the Hermite
    # recurrence and on a Stieltjes one (truncated Gaussian)
    from scipy.linalg import eigh_tridiagonal

    hermite = RecurrenceCoefficients(
        np.zeros(m), np.concatenate(([1.0], np.arange(1.0, m))))
    for rc in (hermite, truncated_recurrence(2.0, 0.5, min(m, 40))):
        vals, vecs = eigh_tridiagonal(rc.alpha, np.sqrt(rc.beta[1:]),
                                      lapack_driver="stev")
        r = golub_welsch(rc)
        assert np.array_equal(r.nodes, vals)
        assert np.array_equal(r.weights, rc.beta[0] * vecs[0, :] ** 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_golub_welsch_non_finite_recurrence_is_a_convergence_error(bad):
    # LAPACK reports nan with info > 0 and leaves inf as nan nodes with
    # info = 0; both are a failed rule, not a rule of nan nodes.  A nan
    # beta_k fails RecurrenceCoefficients' own check before that
    for alpha, beta in (([0.0, bad, 0.0], [1.0, 1.0, 1.0]),
                        ([0.0, 0.0, 0.0], [1.0, 1.0, bad])):
        if np.isnan(beta).any():
            with pytest.raises(DomainError, match="beta_k must be positive"):
                RecurrenceCoefficients(np.array(alpha), np.array(beta))
            continue
        with pytest.raises(ConvergenceError, match="Jacobi eigenproblem"):
            golub_welsch(RecurrenceCoefficients(np.array(alpha), np.array(beta)))


def test_hermite_rule_from_m_371_is_a_resource_limit():
    # numpy's hermegauss overflows its weight normalization from m = 371
    # (zero weights at 371, nan from 372); the rule says so, without a
    # numpy warning, and m = 370 still builds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (gauss_hermite_rescaled(370, 1.0).weights > 0.0).all()
        for m in (371, 380):
            with pytest.raises(ResourceLimitError,
                               match=f"no {m}-point Hermite rule"):
                gauss_hermite_rescaled(m, 1.0)


def test_hermite_rule_arrays_are_read_only():
    # the unit rule is cached per m and shared by every caller, so a
    # returned rule must not be able to write into it
    r = gauss_hermite_rescaled(12, 4.0)
    with pytest.raises(ValueError):
        r.weights[0] = 1.0
    with pytest.raises(ValueError):
        r.nodes[0] = 1.0
    unit = gauss_hermite_rescaled(12, 1.0)
    assert np.array_equal(r.weights, unit.weights)
    assert np.allclose(r.nodes, 0.5 * unit.nodes, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("m", [1, 2, 9, 30, 370])
def test_hermite_pieces_are_read_only_and_fresh_bits(m):
    # the chain's beta-free pieces, cached per m, are what a fresh
    # computation from the unit rule gives, and no caller can write them
    x, w = quadrature._unit_hermite(m)
    pieces = quadrature._hermite_pieces(m)
    fresh = (x, 0.5 * np.log(w), x * x, (x[:, None] - x[None, :]) ** 2)
    assert len(pieces) == len(fresh)
    for got, expect in zip(pieces, fresh):
        assert got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 1.0


# --- truncated Gaussian normalization ----------------------------------------

@pytest.mark.parametrize("a,b", [(1.0, 0.0), (2.0, 1.5), (0.5, -1.0), (15.0, 1.0)])
def test_normalization_against_mpmath_quad(a, b):
    c = truncated_gaussian_normalization(a, b)
    total = float(mpmath.quad(
        lambda z: mpmath.e ** (-0.5 * a * (z - b) ** 2), [0, mpmath.inf]))
    assert c * total == pytest.approx(1.0, rel=1e-13)


def test_normalization_half_gaussian():
    # b = 0 halves the full-line mass: c = 2 sqrt(a/2pi)
    a = 3.0
    assert truncated_gaussian_normalization(a, 0.0) == pytest.approx(
        2.0 * math.sqrt(a / (2 * math.pi)), rel=1e-15)


# --- Stieltjes rule for the truncated Gaussian --------------------------------

@pytest.mark.parametrize("a,b,m,tol", [
    (1.0, 1.0, 8, 1e-13),
    (2.0, 0.0, 10, 1e-13),
    (5.0, 2.0, 12, 1e-13),
    # mode outside the domain, pure tail measure: the recurrence
    # coefficients still stabilize to 1e-14, but reconstructing moments
    # from them is worst conditioned when all the mass leans against the
    # cut at zero (measured 3.5e-12 relative at degree 11)
    (1.0, -1.5, 6, 2e-11),
    (30.0, 1.0, 15, 1e-13),  # the sharp case used by the lattice-field kernel
])
def test_truncated_rule_reproduces_moment_recursion(a, b, m, tol):
    c = truncated_gaussian_normalization(a, b)
    rule = golub_welsch(truncated_recurrence(a, b, m))
    oracle = truncated_moments_oracle(a, b, c, 2 * m - 1)
    for k in range(2 * m):
        scale = max(1.0, abs(oracle[k]))
        assert abs(rule_moment(rule, k) - oracle[k]) <= tol * scale, \
            f"moment {k} off: {rule_moment(rule, k)} vs {oracle[k]}"


def test_truncated_rule_sharpness():
    a, b, m = 2.0, 1.0, 5
    c = truncated_gaussian_normalization(a, b)
    rule = golub_welsch(truncated_recurrence(a, b, m))
    oracle = truncated_moments_oracle(a, b, c, 2 * m)
    err = abs(rule_moment(rule, 2 * m) - oracle[2 * m])
    assert err > 1e-8 * abs(oracle[2 * m])


def test_truncated_rule_nodes_inside_domain():
    rule = golub_welsch(truncated_recurrence(3.0, 0.5, 20))
    assert np.all(rule.nodes > 0.0)
    assert np.all(rule.weights > 0.0)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-13)


def test_full_line_variant_recovers_hermite():
    # the Stieltjes builder's grid and Lanczos step on the full line,
    # with the normalized Gaussian N(b, 1/a), must reproduce the
    # closed-form Hermite recurrence shifted by b: alpha_k = b, beta_k = k/a
    a, b, m = 2.5, 0.7, 12
    cut = quadrature._TAIL_SIGMAS / math.sqrt(a)
    x, w = quadrature._composite_legendre(b - cut, b + cut, 24, 16)
    w = w * math.sqrt(a / (2 * math.pi)) * np.exp(-0.5 * a * (x - b) ** 2)
    rc = RecurrenceCoefficients(*quadrature._lanczos(x, w, m))
    assert np.allclose(rc.alpha, b, atol=5e-14)
    assert rc.beta[0] == pytest.approx(1.0, rel=1e-13)
    assert np.allclose(rc.beta[1:], np.arange(1, m) / a, rtol=1e-12)


def test_stieltjes_rejects_bad_arguments():
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="s must be finite"):
            stieltjes_recurrence(s, 5)
    with pytest.raises(DomainError):
        stieltjes_recurrence(0.0, 0)


@pytest.mark.parametrize("s", [-1e4, -100.0, -3.0, 0.0, 2.0, 100.0, 1e4])
def test_unit_rule_mass_and_mean_at_the_edges_of_s(s):
    # beta_0 is the discrete mass of e^{-y^2/2 - s y - sigma(s)} and
    # alpha_0 its mean; with the density's peak at 1 neither overflows
    # at any s.  Against closed forms at 40 digits: the mass is
    # sqrt(pi/2) e^{s^2/2 - sigma} erfc(s/sqrt 2), and integrating
    # (y + s) times the density gives the mean e^{-sigma}/mass - s
    rc = stieltjes_recurrence(s, 4)
    with mpmath.workdps(40):
        S = mpmath.mpf(s)
        sigma = S * S / 2 if s < 0 else 0
        mass = (mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(S * S / 2 - sigma)
                * mpmath.erfc(S / mpmath.sqrt(2)))
        mean = mpmath.exp(-sigma) / mass - S
    assert rc.beta[0] == pytest.approx(float(mass), rel=1e-14)
    assert rc.alpha[0] == pytest.approx(float(mean), rel=1e-14)


@pytest.mark.parametrize("s", [-100.0, -1e4, -1e6])
def test_grid_far_below_zero_is_a_translate(monkeypatch, s):
    # for s <= -12 the weight is e^{-(y + s)^2/2} on [0, inf), whose mass
    # below 0 is under e^{-72}: the measure is the s = -13 one moved by
    # -s - 13, so alpha_k + s and beta_k keep their values, and the grid
    # spans [-s - 12, -s + 12] in 24 panels whatever |s|.  The spy stops
    # a grid that grows with |s| before it is built (at s = -1e6 a
    # level-32 Lanczos basis on [0, -s + 12] would be about 5 GB)
    real = quadrature._composite_legendre

    def bounded(lo, hi, panels, pts):
        assert panels <= 25, f"{panels} panels at s={s}"
        return real(lo, hi, panels, pts)

    monkeypatch.setattr(quadrature, "_composite_legendre", bounded)
    m = 16
    ref = stieltjes_recurrence(-13.0, m)
    rc = stieltjes_recurrence(s, m)
    # the nodes near -s keep about 16 - log10|s| digits: measured 4.7e-10
    # in alpha_k + s and 6.4e-11 relative in beta_k at s = -1e6
    assert np.max(np.abs((rc.alpha + s) - (ref.alpha - 13.0))) <= 4e-15 * abs(s)
    assert np.allclose(rc.beta, ref.beta, rtol=1e-15 * abs(s), atol=0.0)


def three_term_lanczos(x, w, m):
    # Lanczos as the three-term recurrence r = x q_k - alpha_k q_k
    # - sqrt(beta_k) q_{k-1}, then two full Gram-Schmidt passes
    mass = w.sum()
    alpha, beta = np.zeros(m), np.zeros(m)
    beta[0] = mass
    q = np.sqrt(w) / math.sqrt(mass)
    basis, q_prev, b = [q], np.zeros_like(q), 0.0
    for k in range(m):
        alpha[k] = np.dot(q * x, q)
        if k == m - 1:
            break
        r = x * q - alpha[k] * q - b * q_prev
        B = np.array(basis)
        for _ in range(2):
            r -= B.T @ (B @ r)
        beta[k + 1] = np.dot(r, r)
        b = math.sqrt(beta[k + 1])
        q_prev, q = q, r / b
        basis.append(q)
    return alpha, beta


@pytest.mark.parametrize("a,b,m", [
    (1.0, 1.0, 13), (15.0, 1.0, 20), (100.0, -0.3, 40), (1.0, -1.0, 60),
    (0.1, 1.0, 80),
])
def test_fused_lanczos_step_matches_three_term_reference(a, b, m):
    # one projection on the whole basis per step replaces the three-term
    # subtraction; only the rounding may differ (measured <= 7.5e-16)
    sigma = 1.0 / math.sqrt(a)
    hi = max(b, 0.0) + 12.0 * sigma
    x, wleg = quadrature._composite_legendre(0.0, hi, math.ceil(hi / sigma), 32)
    w = wleg * np.exp(-0.5 * a * (x - b) ** 2)
    alpha, beta = quadrature._lanczos(x, w, m)
    ref_alpha, ref_beta = three_term_lanczos(x, w, m)
    scale = max(1.0, np.max(np.abs(ref_alpha)), np.max(ref_beta))
    assert np.max(np.abs(alpha - ref_alpha)) <= 1e-14 * scale
    assert np.max(np.abs(beta - ref_beta)) <= 1e-14 * scale


@pytest.mark.parametrize("m,first", [(1, 16), (13, 16), (20, 24), (32, 32),
                                     (40, 32)])
def test_refinement_starts_at_a_level_sized_by_m(monkeypatch, m, first):
    # the points per panel of each discretization, in call order
    real = quadrature._composite_legendre
    levels = []

    def spy(lo, hi, panels, pts):
        levels.append(pts)
        return real(lo, hi, panels, pts)

    monkeypatch.setattr(quadrature, "_composite_legendre", spy)
    # an empty cache, so that every level of this call is built
    quadrature._stieltjes.cache_clear()
    stieltjes_recurrence(-math.sqrt(15.0), m)
    schedule = [16, 24, 32, 48, 64, 96, 128]
    start = schedule.index(first)
    assert len(levels) >= 2
    assert levels == schedule[start:start + len(levels)]


def fresh_recurrence(s, m):
    # the coefficients of a call that finds no cached rule
    quadrature._stieltjes.cache_clear()
    return stieltjes_recurrence(s, m)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_memo_does_not_change_the_coefficients(order):
    # stieltjes_recurrence through the cache, with s alternating at
    # every call, against calls that find it empty
    weights = [-math.sqrt(15.0), -1.0, 3.0]
    ms = list(range(1, 41))
    fresh = {(w, m): fresh_recurrence(w, m) for w in weights for m in ms}
    if order == "descending":
        ms.reverse()
    elif order == "shuffled":
        np.random.default_rng(7).shuffle(ms)
    for m in ms:
        for w in weights + weights[::-1]:
            rc = stieltjes_recurrence(w, m)
            assert np.array_equal(rc.alpha, fresh[w, m].alpha)
            assert np.array_equal(rc.beta, fresh[w, m].beta)


def test_lanczos_breakdown_is_raised_where_a_request_reaches_it():
    # unit weights on the support points 0 and 1, twice each (dyadic,
    # so the arithmetic is exact): beta_2 is exactly 0, and only a
    # request for three coefficients meets it
    x, w = np.array([0.0, 0.0, 1.0, 1.0]), np.ones(4)
    alpha, beta = quadrature._lanczos(x, w, 2)
    assert alpha.tolist() == [0.5, 0.5]
    assert beta.tolist() == [4.0, 0.25]
    with pytest.raises(ConvergenceError, match=r"broke down at k=2\)") as info:
        quadrature._lanczos(x, w, 3)
    assert info.value.residual == 0.0
    with pytest.raises(ConvergenceError, match=r"broke down at k=1\)") as info:
        quadrature._lanczos(np.array([0.5, 2.0]), np.array([1.0, 0.0]), 2)
    assert info.value.residual == 0.0


def test_a_repeated_rule_runs_no_lanczos(monkeypatch):
    # finished rules are cached by (float(s), int(m)) after the checks;
    # a spy on _lanczos records the (grid size, m) of each level built
    real = quadrature._lanczos
    runs = []
    monkeypatch.setattr(quadrature, "_lanczos",
                        lambda x, w, m: runs.append((x.size, m)) or real(x, w, m))
    quadrature._stieltjes.cache_clear()
    s = -math.sqrt(15.0)
    rc = stieltjes_recurrence(s, 13)
    # 16 panels at levels 16 and 24, which agree at m = 13
    assert runs == [(16 * 16, 13), (16 * 24, 13)]
    runs.clear()
    assert stieltjes_recurrence(np.float64(s), np.int64(13)) is rc
    assert runs == []
    with pytest.raises(ValueError, match="read-only"):
        rc.alpha[0] = 0.0
    # a bool m is not the size 1, though True == 1 and the two hash alike
    stieltjes_recurrence(s, 1)
    with pytest.raises(DomainError, match="m must be a positive integer"):
        stieltjes_recurrence(s, True)
    assert runs == [(16 * 16, 1), (16 * 24, 1)]


@pytest.mark.parametrize("m", [1, 13])
def test_a_cached_rule_is_golub_welsch_of_its_recurrence(monkeypatch, m):
    # the (s, m) cache holds the Gauss rule: Golub-Welsch runs once on a
    # miss and not on a hit, the arrays are read-only, and a cleared
    # cache rebuilds the same bits
    real = quadrature.golub_welsch
    built = []
    monkeypatch.setattr(quadrature, "golub_welsch",
                        lambda rc: built.append(len(rc)) or real(rc))
    quadrature._stieltjes.cache_clear()
    s = -math.sqrt(15.0)
    rule = stieltjes_rule(s, m)
    rc = stieltjes_recurrence(s, m)
    assert stieltjes_rule(np.float64(s), np.int64(m)) is rule
    assert built == [m]
    expect = real(rc)
    assert rule.nodes.tobytes() == expect.nodes.tobytes()
    assert rule.weights.tobytes() == expect.weights.tobytes()
    for values in (rule.nodes, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
    quadrature._stieltjes.cache_clear()
    again = stieltjes_rule(s, m)
    assert again is not rule and built == [m, m]
    assert again.nodes.tobytes() == rule.nodes.tobytes()
    assert again.weights.tobytes() == rule.weights.tobytes()
    # checked before the cache, as stieltjes_recurrence is
    with pytest.raises(DomainError, match="s must be finite"):
        stieltjes_rule(math.nan, m)
    with pytest.raises(DomainError, match="m must be a positive integer"):
        stieltjes_rule(s, True)


def test_threaded_calls_on_one_weight_give_the_serial_bits():
    # more threads than cores share one weight's cached rules, with
    # thread switches forced often; each thread works through the m
    # values in its own order until a deadline
    s = -math.sqrt(15.0)
    ms = [3, 40, 12, 25, 7, 33, 18, 1, 40, 16, 24, 9]
    serial = {m: fresh_recurrence(s, m) for m in set(ms)}
    rules = {m: stieltjes_rule(s, m) for m in set(ms)}
    threads = (os.cpu_count() or 1) + 2
    deadline = time.monotonic() + 2.0
    failures, calls = [], []

    def work(seed):
        order = list(ms)
        random.Random(seed).shuffle(order)
        try:
            while time.monotonic() < deadline:
                for m in order:
                    rc = stieltjes_recurrence(s, m)
                    rule = stieltjes_rule(s, m)
                    calls.append(m)
                    if not (np.array_equal(rc.alpha, serial[m].alpha)
                            and np.array_equal(rc.beta, serial[m].beta)
                            and np.array_equal(rule.nodes, rules[m].nodes)
                            and np.array_equal(rule.weights,
                                               rules[m].weights)):
                        failures.append(m)
                # a cache cleared under the others' feet makes them
                # build rules concurrently
                quadrature._stieltjes.cache_clear()
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(k,), daemon=True)
                   for k in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in workers)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(calls) >= threads * len(ms)


def test_composite_legendre_matches_linspace_bits():
    rng = np.random.default_rng(20261018)
    los = np.concatenate([np.zeros(40), -rng.uniform(0.0, 5.0, 40),
                          rng.uniform(0.0, 5.0, 40)])
    for lo in los:
        hi = lo + rng.uniform(0.1, 40.0)
        panels = int(rng.integers(8, 200))
        pts = int(rng.choice([16, 24, 32, 48]))
        x0, w0 = quadrature._legendre_panel(pts)
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        x, w = quadrature._composite_legendre(lo, hi, panels, pts)
        assert np.array_equal(x, (mid[:, None] + half[:, None] * x0).ravel())
        assert np.array_equal(w, (half[:, None] * w0).ravel())


@settings(max_examples=25, deadline=None)
@given(a=st.floats(min_value=0.05, max_value=60.0),
       b=st.floats(min_value=-2.0, max_value=6.0),
       m=st.integers(min_value=1, max_value=18))
def test_truncated_rule_wellformed_random(a, b, m):
    rule = golub_welsch(truncated_recurrence(a, b, m))
    assert len(rule) == m
    assert np.all(rule.nodes >= 0.0)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-12)
    # first moment, the cheapest oracle check
    c = truncated_gaussian_normalization(a, b)
    m1 = truncated_moments_oracle(a, b, c, 1)[1]
    if m >= 1:
        assert rule_moment(rule, 1) == pytest.approx(m1, rel=1e-11, abs=1e-13)


# --- tensor products ----------------------------------------------------------

def test_tensor_ordering_rightmost_fastest():
    base = QuadratureRule(np.array([-1.0, 2.0]), np.array([0.25, 0.75]))
    t = tensor_product(base, 2)
    expect_nodes = np.array([
        [-1.0, -1.0],
        [-1.0, 2.0],
        [2.0, -1.0],
        [2.0, 2.0],
    ])
    expect_w = np.array([0.0625, 0.1875, 0.1875, 0.5625])
    assert np.array_equal(t.nodes, expect_nodes)
    assert np.allclose(t.weights, expect_w, rtol=1e-15)
    assert len(t) == 4


def test_tensor_separable_integral_factorizes():
    base = gauss_hermite_rescaled(6, 2.0)
    t = tensor_product(base, 3)
    # integral of q0^2 * q1^4 over the product Gaussian
    vals = t.nodes[:, 0] ** 2 * t.nodes[:, 1] ** 4
    got = float(np.dot(t.weights, vals))
    expect = gaussian_moment_oracle(2, 2.0) * gaussian_moment_oracle(4, 2.0)
    assert got == pytest.approx(expect, rel=1e-13)


def test_tensor_mass():
    base = gauss_hermite_rescaled(4, 1.0)
    t = tensor_product(base, 3)
    assert t.weights.sum() == pytest.approx(1.0, rel=1e-13)


def test_tensor_dimension_one_is_base():
    base = gauss_hermite_rescaled(5, 1.3)
    t = tensor_product(base, 1)
    assert np.array_equal(t.nodes[:, 0], base.nodes)
    assert np.array_equal(t.weights, base.weights)


def test_tensor_per_coordinate_rules():
    first = QuadratureRule(np.array([-1.0, 2.0]), np.array([0.25, 0.75]))
    second = QuadratureRule(np.array([0.0, 1.0, 3.0]), np.array([0.5, 0.3, 0.2]))
    t = tensor_product([first, second], 2)
    assert len(t) == 6 and t.nodes.shape == (6, 2)
    assert np.array_equal(t.nodes[:, 0], np.repeat(first.nodes, 3))
    assert np.array_equal(t.nodes[:, 1], np.tile(second.nodes, 2))
    assert np.allclose(t.weights, np.outer(first.weights, second.weights).ravel(),
                       rtol=1e-15)
    assert t.weights.sum() == pytest.approx(1.0, rel=1e-15)


def test_tensor_rejects_rule_count_mismatch():
    base = gauss_hermite_rescaled(3, 1.0)
    with pytest.raises(DomainError):
        tensor_product([base, base], 3)


def test_tensor_budget_enforced(monkeypatch):
    base = gauss_hermite_rescaled(30, 1.0)
    with pytest.raises(ResourceLimitError) as exc:
        tensor_product(base, 3)
    msg = str(exc.value)
    assert "30^3" in msg and "27000" in msg and "8192" in msg
    # raising the budget lets the same request through
    monkeypatch.setattr(quadrature, "_TENSOR_BUDGET", 27000)
    t = tensor_product(base, 3)
    assert len(t) == 27000


def test_tensor_budget_names_per_coordinate_sizes():
    rules = [gauss_hermite_rescaled(m, 1.0) for m in (30, 30, 20)]
    with pytest.raises(ResourceLimitError) as exc:
        tensor_product(rules, 3)
    assert "30*30*20 = 18000" in str(exc.value)


def test_tensor_rejects_bad_dimension():
    base = gauss_hermite_rescaled(3, 1.0)
    with pytest.raises(DomainError):
        tensor_product(base, 0)


# --- value-object validation ---------------------------------------------------

def test_rule_rejects_nonpositive_weights():
    with pytest.raises(DomainError):
        QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, 0.0]))


def test_rule_rejects_unsorted_nodes():
    with pytest.raises(DomainError):
        QuadratureRule(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        QuadratureRule(np.array([1.0, 1.0]), np.array([0.5, 0.5]))


def test_rule_rejects_shape_mismatch():
    with pytest.raises(DomainError):
        QuadratureRule(np.array([0.0, 1.0]), np.array([1.0]))


def test_recurrence_rejects_nonpositive_beta():
    with pytest.raises(DomainError):
        RecurrenceCoefficients(np.zeros(3), np.array([1.0, -0.1, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rule_rejects_non_finite_nodes_and_weights(bad):
    # every comparison with nan is false, so `weights <= 0` and
    # `nodes[1:] <= nodes[:-1]` once let a nan rule through
    with pytest.raises(DomainError, match="nodes must be finite"):
        QuadratureRule(np.array([0.0, bad]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError, match="nodes must be finite"):
        QuadratureRule(np.array([[0.0, 1.0], [bad, 1.0]]), np.ones((2, 2)))
    with pytest.raises(DomainError, match="weights must be strictly positive"):
        QuadratureRule(np.array([0.0, 1.0]), np.array([1.0, bad]))


def test_recurrence_rejects_nan_beta():
    # a nan beta_0 once gave golub_welsch a rule of nan weights
    for beta in ([np.nan, 1.0], [1.0, np.nan]):
        with pytest.raises(DomainError, match="beta_k must be positive"):
            RecurrenceCoefficients(np.zeros(2), np.array(beta))
    # an infinite mass leaves infinite weights, which the rule rejects
    with pytest.raises(DomainError, match="weights must be strictly positive"):
        golub_welsch(RecurrenceCoefficients(np.zeros(2), np.array([np.inf, 1.0])))


def test_rule_integrate_method():
    r = gauss_hermite_rescaled(12, 1.0)
    # E[cos z] = e^{-1/2} for a standard Gaussian
    assert np.dot(r.weights, np.cos(r.nodes)) == pytest.approx(math.exp(-0.5),
                                                                rel=1e-12)
