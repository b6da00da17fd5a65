"""Discretization-matrix and eigenvalue tests.

Oracles: entrywise recomputation of the assembly formula in plain
(non-log) arithmetic on small rules, np.linalg.eigh / eigvalsh as an
independent dense eigensolver (the library squares the matrix and calls
no LAPACK routine, so eigh's eigenvectors check its Perron vector and
eigvalsh its lambda_1), Rayleigh quotients, and hand-diagonalizable
2x2 / rank-1 / diagonal matrices.
"""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermo_transfer.errors import (AssemblyError, ConvergenceError,
                                    DomainError, NumericError)
from thermo_transfer import nystrom
from thermo_transfer.models import (ParticleChainParams, _chain_solve,
                                    particle_chain_log_kernel)
from thermo_transfer.nystrom import (
    DominantEig,
    LogKernel,
    assemble,
    dominant_eigenvalue,
    fredholm_det,
)
from thermo_transfer.quadrature import QuadratureRule, gauss_hermite_rescaled


def gaussian_coupling(gamma):
    # log k(z, z') = -gamma (z - z')^2 / 2, the plainest positive kernel
    return LogKernel(lambda z, zp: -0.5 * gamma * (z - zp) ** 2)


# --- assembly ----------------------------------------------------------------

def test_assembly_matches_direct_formula():
    rule = gauss_hermite_rescaled(7, 1.0)
    mat = assemble(gaussian_coupling(0.8), rule)
    z, w = rule.nodes, rule.weights
    expect = np.exp(-0.4 * (z[:, None] - z[None, :]) ** 2) * np.sqrt(
        w[:, None] * w[None, :])
    assert type(mat) is np.ndarray and mat.shape == (7, 7)
    assert np.allclose(mat, expect, rtol=1e-14)


def test_assembly_exactly_symmetric():
    # mirrored upper triangle, so equality is exact, not just approximate
    rule = gauss_hermite_rescaled(20, 2.0)
    kern = LogKernel(lambda z, zp: -0.1 * (z ** 3 + zp ** 3) - 0.3 * (z - zp) ** 2)
    T = assemble(kern, rule)
    assert np.array_equal(T, T.T)


def test_assembly_positive_entries():
    rule = gauss_hermite_rescaled(10, 1.0)
    T = assemble(gaussian_coupling(2.0), rule)
    assert np.all(T > 0.0)


def test_assembly_log_space_avoids_underflow():
    # raw exp(-3000) underflows; the log-space route keeps the entry
    # finite because the weights' log cancels part of the exponent only
    # after summation.  With a kernel this deep every entry would be 0
    # in naive arithmetic except the diagonal region.
    rule = gauss_hermite_rescaled(15, 1.0)
    kern = LogKernel(lambda z, zp: -10.0 * (z - zp) ** 2 - 1e-3)
    T = assemble(kern, rule)
    assert np.all(np.isfinite(T))
    assert np.all(T >= 0.0)
    assert T[0, -1] == pytest.approx(
        math.exp(-10.0 * (rule.nodes[0] - rule.nodes[-1]) ** 2 - 1e-3)
        * math.sqrt(rule.weights[0] * rule.weights[-1]), rel=1e-13)


def test_assembly_reports_offending_pair():
    rule = gauss_hermite_rescaled(5, 1.0)

    def poisoned(z, zp):
        out = -0.5 * (z - zp) ** 2
        out = np.where((z == rule.nodes[1]) & (zp == rule.nodes[3]), np.nan, out)
        return out

    with pytest.raises(AssemblyError) as exc:
        assemble(LogKernel(poisoned), rule)
    msg = str(exc.value)
    assert "(1, 3)" in msg
    assert repr(rule.nodes[1]) in msg


# a double well at deep quench: eta = 0.01, mu3 = lam = 1, gamma = 1
DEEP_WELL = ParticleChainParams(eta=0.01, mu3=1.0, lam=1.0, gamma=1.0)


def _deep_well(beta, m):
    return assemble(particle_chain_log_kernel(DEEP_WELL, beta),
                    gauss_hermite_rescaled(m, beta * DEEP_WELL.eta))


def test_assembly_overflow_names_the_node_pair():
    # at beta = 1000 the log entries reach ~1073, finite but beyond the
    # largest double's log: exp would leave inf in the matrix
    with pytest.raises(AssemblyError) as exc:
        _deep_well(1000.0, 30)
    msg = str(exc.value)
    assert "overflowing kernel value at node pair (0, 0)" in msg
    assert exc.value.index is None
    # in a stack, the node pair of the matrix that overflows is named as
    # it would be alone; which matrix it is, is the caller's to name
    shift = np.array([0.0, 800.0])[:, None, None]
    with pytest.raises(AssemblyError) as exc:
        assemble(LogKernel(lambda z, zp: shift - 0.5 * (z - zp) ** 2),
                 gauss_hermite_rescaled(5, np.ones(2)))
    assert str(exc.value).startswith(
        "overflowing kernel value at node pair (0, 0): ")
    assert exc.value.index is None


def test_assembly_rejects_wrong_kernel_shape():
    rule = gauss_hermite_rescaled(4, 1.0)
    with pytest.raises(AssemblyError):
        assemble(LogKernel(lambda z, zp: np.zeros(3)), rule)


# --- dominant eigenvalue -------------------------------------------------------

def test_eigenvalue_2x2_hand_case():
    # [[2, 1], [1, 2]] has eigenvalues 3 and 1, Perron vector (1,1)/sqrt(2)
    T = np.array([[2.0, 1.0], [1.0, 2.0]])
    eig = dominant_eigenvalue(T)
    assert eig.lambda1 == pytest.approx(3.0, rel=1e-14)
    assert np.allclose(np.abs(eig.vector), 1 / math.sqrt(2), rtol=1e-12)
    assert eig.residual <= 1e-14


def test_eigenvalue_rank_one_hand_case():
    # u u^T with u = (1, 2, 2): lambda_1 = |u|^2 = 9, converges in one step
    u = np.array([1.0, 2.0, 2.0])
    eig = dominant_eigenvalue(np.outer(u, u))
    assert eig.lambda1 == pytest.approx(9.0, rel=1e-14)
    assert np.allclose(eig.vector, u / 3.0, rtol=1e-12)


def test_eigenvalue_matches_dense_solver_on_random_spd():
    rng = np.random.default_rng(42)
    B = rng.uniform(0.1, 1.0, size=(20, 20))
    T = B + B.T + 20.0 * np.eye(20)  # positive entries off-diagonal too
    np.fill_diagonal(T, np.diag(T) + 1.0)
    eig = dominant_eigenvalue(T)
    expect = np.linalg.eigh(T)[0][-1]
    assert eig.lambda1 == pytest.approx(expect, rel=1e-13)
    assert eig.residual <= 1e-14


def test_eigenvalue_on_assembled_operator_positive_vector():
    rule = gauss_hermite_rescaled(25, 1.0)
    mat = assemble(gaussian_coupling(1.0), rule)
    eig = dominant_eigenvalue(mat)
    assert 0.0 < eig.lambda1 <= 1.0  # subprobability kernel on a prob. measure
    assert np.all(eig.vector > 0.0)
    assert eig.residual <= 1e-14
    assert eig.iterations < 200


@pytest.mark.parametrize("m", [10, 30, 60])
@pytest.mark.parametrize("eta, mu3, lam, beta", [
    (0.1, 1.0, 1.0, 1.0),    # double well
    (0.01, 1.0, 1.0, 1.0),   # double well, nearly flat at the origin
    (1.0, 0.2, 0.2, 50.0),   # deep quench
    (0.1, 1.0, 1.0, 50.0),   # double well, deep quench
])
def test_eigenvalue_perron_vector_at_domain_edges(eta, mu3, lam, beta, m):
    # these matrices hold exact zeros or Perron-vector tails far below
    # round-off, and the raw top eigenvector of eigh comes back with
    # mixed signs in most of these cases; the returned vector must
    # still have no negative entry
    p = ParticleChainParams(eta=eta, mu3=mu3, lam=lam, gamma=1.0)
    mat = assemble(particle_chain_log_kernel(p, beta),
                   gauss_hermite_rescaled(m, beta * eta))
    eig = dominant_eigenvalue(mat)
    assert np.all(eig.vector >= 0.0)
    expect = np.linalg.eigvalsh(mat)[-1]
    assert eig.lambda1 == pytest.approx(expect, rel=1e-13)
    assert eig.residual <= 1e-14


def test_eigenvalue_of_huge_entries_converges():
    # entries up to 8e230: the eigenvector decomposition once stopped
    # with LAPACK's "did not converge"; squaring scales the matrix by
    # its largest entry first, and the residual is taken relative to
    # lambda_1 so no square of an entry overflows
    mat = _deep_well(500.0, 30)
    eig = dominant_eigenvalue(mat)
    assert eig.residual <= 1e-14
    expect = np.linalg.eigvalsh(mat)[-1]
    assert abs(eig.lambda1 - expect) <= 1e-13 * expect


def test_perron_vector_normalization_is_scale_safe():
    # lambda_1 = 1.9e164: squaring the raw vector would overflow and
    # leave an all-zero "unit" vector that still passes the residual
    # test; the result is a finite unit vector or a ConvergenceError
    mat = _deep_well(500.0, 10)
    try:
        eig = dominant_eigenvalue(mat)
    except ConvergenceError:
        return
    assert np.all(np.isfinite(eig.vector))
    assert np.linalg.norm(eig.vector) == pytest.approx(1.0, rel=1e-14)
    assert eig.residual <= 1e-14


def test_non_finite_vector_fails_the_residual_gate(monkeypatch):
    # a Perron-vector step (the row sums of the squared matrix) that
    # returns nan, inf or zero must not pass as a converged vector of
    # residual 0, nor warn on the way
    real = np.matmul
    T = np.array([[2.0, 1.0], [1.0, 2.0]])
    for spoiled in (np.nan, np.inf, 0.0):
        def matmul(a, b, *args, x=spoiled, **kwargs):
            # the squarings pass out=, which goes on to the real matmul
            out = real(a, b, *args, **kwargs)
            ones = nystrom._squaring_table(2)[0]
            return np.full_like(out, x) if b is ones else out

        monkeypatch.setattr(nystrom.np, "matmul", matmul)
        with pytest.raises(ConvergenceError) as exc:
            dominant_eigenvalue(T)
        assert math.isnan(exc.value.residual)


def test_config_stack_matches_eigh():
    # the chain config's (96, 30, 30) stack: lambda_1 and the Perron
    # vector against the top eigenpair of a full eigendecomposition
    betas = np.linspace(0.5, 10.0, 96)
    _, _, eig, (k0, d) = _chain_solve(1.0, 0.2, 0.2, 1.0, betas, 30)
    vals, vecs = np.linalg.eigh(d[:, :, None] * d[:, None, :] * k0)
    assert np.allclose(eig.lambda1, vals[:, -1], rtol=1e-13, atol=0.0)
    assert np.max(np.abs(eig.vector - np.abs(vecs[:, :, -1]))) <= 1e-13


def test_positive_stack_gives_positive_vectors():
    # every entry of these matrices is positive, so every Perron vector
    # is strictly positive, not merely non-negative
    gammas = np.array([0.1, 0.5, 1.0])[:, None, None]
    rule = gauss_hermite_rescaled(20, np.ones(3))
    mat = assemble(LogKernel(lambda z, zp: -0.5 * gammas * (z - zp) ** 2), rule)
    assert np.all(mat > 0.0)
    eig = dominant_eigenvalue(mat)
    assert eig.vector.shape == (3, 20)
    assert np.all(eig.vector > 0.0)
    assert eig.residual <= 1e-14


def test_eigenvalue_dense_fallback_on_degenerate_gap():
    # lambda_1 = lambda_2, a degenerate gap: the row sums of the squared
    # matrix are a top eigenvector anyway, once lambda_3's part has died
    T = np.diag([2.0, 2.0, 1.0])
    eig = dominant_eigenvalue(T)
    assert eig.lambda1 == pytest.approx(2.0, rel=1e-14)
    assert eig.residual <= 1e-14
    assert eig.iterations == 6


def test_eigenvalue_near_degenerate_gap_falls_back():
    # a relative gap of 1e-13: the residual passes once lambda_2's part
    # of the row sums has died, after 2^45 ~ 3.5e13 powers of T
    T = np.diag([1.0, 1.0 - 1e-13, 0.5])
    eig = dominant_eigenvalue(T)
    assert eig.lambda1 == pytest.approx(1.0, rel=1e-13)
    assert eig.residual <= 1e-14
    assert eig.iterations == 45


# a positive 3x3 matrix whose top two eigenvalues are 8.9e-14 apart,
# relative, with a third well below: its eigensolve needs 43 squarings
SLOW = np.array([[1.0, 4e-14, 1e-20],
                 [4e-14, 1.0 + 4e-14, 1e-20],
                 [1e-20, 1e-20, 0.5]])


def test_each_matrix_stops_squaring_at_its_own_check():
    # a chain-config matrix that passes at the first check, after five
    # squarings, and the slow one: each gives the same bits and count
    # alone as inside a stack, in either order
    betas = np.linspace(0.5, 10.0, 96)[40:41]
    _, _, _, (k0, d) = _chain_solve(1.0, 0.2, 0.2, 1.0, betas, 3)
    fast = d[0, :, None] * d[0, None, :] * k0
    alone = [dominant_eigenvalue(fast), dominant_eigenvalue(SLOW)]
    assert [eig.iterations for eig in alone] == [5, 43]
    for eig, T in zip(alone, (fast, SLOW)):
        assert eig.residual <= 1e-14
        assert eig.lambda1 == pytest.approx(np.linalg.eigvalsh(T)[-1],
                                            rel=1e-14)
    for order in ([0, 1], [1, 0]):
        both = dominant_eigenvalue(np.stack([(fast, SLOW)[k] for k in order]))
        assert both.iterations == 43
        assert both.residual == max(eig.residual for eig in alone)
        for i, k in enumerate(order):
            assert both.lambda1[i] == alone[k].lambda1
            assert np.array_equal(both.vector[i], alone[k].vector)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_stack_with_a_non_finite_or_zero_matrix_fails(bad):
    # no numpy warning on the way (pytest makes one an error): the
    # matrix leaves nan in its residual, which stops the squaring at
    # the first check
    T = np.stack([np.eye(3), np.full((3, 3), bad), 2.0 * np.eye(3)])
    with pytest.raises(ConvergenceError,
                       match="^eigenvalue residual nan above tolerance "
                             "1.0e-14 after 5 squarings$") as exc:
        dominant_eigenvalue(T)
    assert math.isnan(exc.value.residual) and exc.value.index is None


def test_squaring_cap_raises_with_the_residual(monkeypatch):
    # the slow matrix needs 43 squarings; capped at 20 it fails with its
    # own residual, alone or in a stack whose other matrix passed
    monkeypatch.setattr(nystrom, "_MAX_SQUARINGS", 20)
    fast = np.array([[2.0, 1.0], [1.0, 2.0]])
    errors = []
    for T in (SLOW, np.stack([np.pad(fast, (0, 1)), SLOW])):
        with pytest.raises(ConvergenceError) as exc:
            dominant_eigenvalue(T)
        assert str(exc.value).startswith("eigenvalue residual ")
        assert str(exc.value).endswith(" above tolerance 1.0e-14 after "
                                       "20 squarings")
        errors.append(exc.value.residual)
    assert errors[0] == errors[1] and 1e-14 < errors[0] < 1e-10


@pytest.mark.parametrize("shape", [(0, 3, 3), (1, 0, 0), (0, 0), (2, 3),
                                   (3,), (2, 2, 2, 2), (2, 3, 2)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_a_malformed_matrix_is_a_domain_error_naming_its_shape(shape):
    # numpy would fail the first five with its own reduction, reshape,
    # matmul or index errors, none of which says what the caller passed
    with pytest.raises(DomainError, match=re.escape(f"got shape {shape}")):
        dominant_eigenvalue(np.ones(shape))


@pytest.mark.parametrize("T, named", [
    ([[2.0, 1.0], [1.0, 2.0]], "type list"),
    (((2.0, 1.0), (1.0, 2.0)), "type tuple"),
    (None, "type NoneType"),
    (np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex), "dtype complex128"),
    (np.array([[2.0, 1.0], [1.0, 2.0]], dtype=object), "dtype object"),
    (np.array([["2", "1"], ["1", "2"]]), "dtype <U1"),
], ids=["list", "tuple", "none", "complex", "object", "str"])
def test_a_matrix_of_the_wrong_type_is_a_domain_error_naming_it(T, named):
    # a list once failed on its missing .shape, a complex or object array
    # in the scaling divide, each with Python's or numpy's own error
    with pytest.raises(DomainError, match=f"got {re.escape(named)}$"):
        dominant_eigenvalue(T)


@pytest.mark.parametrize("dtype", [bool, np.int64, np.uint8, np.float16,
                                   np.float32])
def test_a_bool_integer_or_narrow_float_matrix_solves_as_float64(dtype):
    T = np.array([[2, 1], [1, 3]]).astype(dtype)
    got, want = dominant_eigenvalue(T), dominant_eigenvalue(T.astype(float))
    assert got.lambda1 == want.lambda1
    assert np.array_equal(got.vector, want.vector)


@pytest.mark.xfail(strict=True, reason=(
    "known defect (ROADMAP Known defects, the Perron vector is unchecked "
    "at near-degenerate spectra): the residual passes at 9.5e-16 after 5 "
    "squarings while the vector is 4.2e-3 off, until the spectral gap of "
    "direction 14 lets the check of direction 13 see it"))
def test_near_degenerate_perron_vector_is_accurate_or_raises():
    # two blocks with lambda_1 = 3 and different Perron vectors, coupled
    # by 1e-13 in every entry between them: the relative gap is 1.3e-13
    # and the second eigenvector is not orthogonal to the ones vector,
    # so the row sums of T^32 still carry it
    T = np.full((4, 4), 1e-13)
    T[:2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    T[2:, 2:] = [[1.0, math.sqrt(2.0)], [math.sqrt(2.0), 2.0]]
    with mpmath.workdps(50):
        vals, vecs = mpmath.eigsy(mpmath.matrix(T.tolist()))
        top = max(range(4), key=lambda k: vals[k])
        oracle = np.array([abs(float(vecs[i, top])) for i in range(4)])
    try:
        eig = dominant_eigenvalue(T)
    except NumericError:
        return
    assert np.max(np.abs(eig.vector - oracle)) <= 1e-8


def test_eigenvalue_result_fields():
    eig = dominant_eigenvalue(np.array([[4.0]]))
    assert isinstance(eig, DominantEig)
    assert eig.lambda1 == pytest.approx(4.0)
    assert eig.iterations >= 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10_000))
def test_eigenvalue_dominates_rayleigh_quotients(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.uniform(0.0, 1.0, size=(n, n))
    T = B + B.T + n * np.eye(n)
    eig = dominant_eigenvalue(T)
    # lambda_1 is the max of the Rayleigh quotient; probe random directions
    for _ in range(5):
        x = rng.normal(size=n)
        q = x @ T @ x / (x @ x)
        assert eig.lambda1 >= q - 1e-10 * abs(eig.lambda1)


# --- Fredholm determinant -------------------------------------------------------

def test_fredholm_det_identity():
    assert fredholm_det(np.eye(3), 0.0) == pytest.approx(1.0)
    assert fredholm_det(np.eye(3), 0.5) == pytest.approx(0.125, rel=1e-14)


def test_fredholm_det_2x2_closed_form():
    # det(I - mu T) = 1 - mu tr T + mu^2 det T
    T = np.array([[2.0, 1.0], [1.0, 2.0]])
    for mu in (0.3, 1.0, -0.7):
        expect = 1.0 - mu * 4.0 + mu * mu * 3.0
        assert fredholm_det(T, mu) == pytest.approx(expect, rel=1e-13)


def test_fredholm_det_vanishes_at_reciprocal_eigenvalue():
    rule = gauss_hermite_rescaled(12, 1.0)
    mat = assemble(gaussian_coupling(0.6), rule)
    lam = dominant_eigenvalue(mat).lambda1
    d = fredholm_det(mat, 1.0 / lam)
    scale = max(1.0, float(np.linalg.norm(mat, 2)))
    assert abs(d) <= 1e-12 * scale


def test_fredholm_det_sign_change_brackets_root():
    rule = gauss_hermite_rescaled(10, 1.0)
    mat = assemble(gaussian_coupling(0.9), rule)
    lam = dominant_eigenvalue(mat).lambda1
    below = fredholm_det(mat, 0.999 / lam)
    above = fredholm_det(mat, 1.001 / lam)
    assert below * above < 0.0


def test_fredholm_det_of_an_assembled_matrix():
    # assemble returns the entries array that fredholm_det takes
    mat = assemble(gaussian_coupling(0.5), gauss_hermite_rescaled(6, 1.0))
    assert fredholm_det(mat, 0.25) == float(np.linalg.det(np.eye(6) - 0.25 * mat))
