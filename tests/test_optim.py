import math

import numpy as np
import pytest

from csl.divergences import d_alpha, q_alpha
from csl.matcore import ContractViolation, RegisterLayout, sample
from csl.optim import (
    dominating_trace_min,
    frank_wolfe_gap,
    imax_sdp,
    maximize_over_pure,
    minimize_convex_over_states,
    minimize_over_states,
    q_alpha_grad,
)


def bell_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return np.outer(v, v.conj())


def test_minimize_over_states_quadratic():
    # min over sigma of ||sigma - target||_F^2 is attained at the target.
    target = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 3)), 0).matrix
    rep = minimize_over_states(lambda s: float(np.abs(s - target).sum() ** 2), 3,
                               restarts=8)
    assert rep.value < 1e-8
    assert np.abs(rep.argopt - target).max() < 1e-3


def test_minimize_recovers_divergence_minimizer():
    # min_sigma D_2(rho || sigma) = 0 at sigma = rho.
    rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2)), 1).matrix
    rep = minimize_over_states(lambda s: d_alpha(rho, s, 2.0), 2, restarts=8,
                               extra_starts=[rho])
    assert rep.value < 1e-9


def test_maximize_over_pure_largest_eigenvalue():
    H = np.diag([0.1, 0.7, 0.3])
    rep = maximize_over_pure(lambda v: float((v.conj() @ H @ v).real), 3)
    assert abs(rep.value - 0.7) < 1e-8
    assert abs(abs(rep.argopt[1]) - 1.0) < 1e-4


def test_imax_product_zero():
    a = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2)), 2).matrix
    b = sample("mixed-hilbert-schmidt", RegisterLayout.of(("B", 2)), 3).matrix
    res = imax_sdp(np.kron(a, b), (2, 2))
    assert abs(res.value_bits) < 1e-6
    assert res.residual > -1e-7
    assert res.converged


def test_imax_bell_two_bits():
    res = imax_sdp(bell_density(), (2, 2))
    assert abs(res.value_bits - 2.0) < 1e-6
    assert res.residual > -1e-7


def test_imax_classical_bit():
    rho = 0.5 * np.diag([1.0, 0, 0, 0]) + 0.5 * np.diag([0, 0, 0, 1.0])
    res = imax_sdp(rho, (2, 2))
    assert abs(res.value_bits - 1.0) < 1e-6


def test_certificate_feasibility():
    for seed in range(5):
        rho = sample("mixed-hilbert-schmidt",
                     RegisterLayout.of(("A", 2), ("B", 3)), seed).matrix
        res = imax_sdp(rho, (2, 3))
        assert res.converged
        assert res.residual > -1e-7
        # certificate actually dominates: rho_A (x) Y - rho is PSD up to tol
        rho_A = np.trace(rho.reshape(2, 3, 2, 3), axis1=1, axis2=3)
        gap = np.kron(rho_A, res.certificate) - rho
        assert np.linalg.eigvalsh((gap + gap.conj().T) / 2).min() > -1e-7


def test_dominating_trace_min_hmin():
    # H_min(A|B) of Bell = -1, so min Tr Y with I (x) Y >= rho is 2.
    res = dominating_trace_min(np.eye(2), bell_density(), (2, 2))
    assert abs(res.value_bits - 1.0) < 1e-6  # log2 Tr Y = 1

    a = np.diag([0.7, 0.3])
    b = np.diag([0.5, 0.5])
    res2 = dominating_trace_min(np.eye(2), np.kron(a, b), (2, 2))
    assert abs(res2.value_bits - math.log2(0.7)) < 1e-6


def test_rank_deficient_inputs():
    rho = sample("rank-limited", RegisterLayout.of(("A", 2), ("B", 2)), 4,
                 rank=2).matrix
    res = imax_sdp(rho, (2, 2))
    assert res.converged
    assert res.residual > -1e-7


def _marginal_A(rho, dA, dB):
    return np.trace(rho.reshape(dA, dB, dA, dB), axis1=1, axis2=3)


def _sdp_cases():
    cases = {}
    for dA, dB in ((2, 3), (3, 2)):
        rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", dA), ("B", dB)),
                     21).matrix
        cases[f"eye-{dA}x{dB}"] = (np.eye(dA), rho, (dA, dB))
        cases[f"rhoA-{dA}x{dB}"] = (_marginal_A(rho, dA, dB), rho, (dA, dB))
    M = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 2)), 22).matrix
    WA = np.kron(np.eye(3)[:, :2], np.eye(2))  # M on span(e0, e1) (x) B, dA = 3
    rho = WA @ M @ WA.conj().T
    cases["rankdef-MA"] = (_marginal_A(rho, 3, 2), rho, (3, 2))
    WB = np.kron(np.eye(2), np.eye(3)[:, :2])  # M on A (x) span(e0, e1), dB = 3
    rho = WB @ M @ WB.conj().T
    cases["rankdef-rhoB-eye"] = (np.eye(2), rho, (2, 3))
    cases["rankdef-rhoB-rhoA"] = (_marginal_A(rho, 2, 3), rho, (2, 3))
    return cases


# log2 min Tr Y recorded with the barrier solver whose Newton system was
# assembled block by block with np.kron.
PINNED_SDP = {
    "eye-2x3": -0.10567436920539969,
    "rhoA-2x3": 0.8797667718518523,
    "eye-3x2": -0.23302387068222571,
    "rhoA-3x2": 1.2654386062833674,
    "rankdef-MA": 1.1377805164275037,
    "rankdef-rhoB-eye": 0.11886313942766003,
    "rankdef-rhoB-rhoA": 1.1377805164275037,
}


@pytest.mark.parametrize("name", sorted(PINNED_SDP))
def test_dominating_trace_min_pinned(name):
    M_A, rho, dims = _sdp_cases()[name]
    res = dominating_trace_min(M_A, rho, dims)
    assert abs(res.value_bits - PINNED_SDP[name]) <= 1e-12
    assert res.converged and res.residual >= -1e-7


def _product(K, sigma, sigma_first):
    return np.kron(sigma, K) if sigma_first else np.kron(K, sigma)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("sigma_first", [False, True])
def test_q_alpha_grad_matches_central_differences(alpha, sigma_first):
    rng = np.random.default_rng(3)
    for dK, dS in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        rho = sample("mixed-hilbert-schmidt", dK * dS, 5).matrix
        K = sample("mixed-hilbert-schmidt", dK, 6).matrix
        sigma = sample("mixed-hilbert-schmidt", dS, 7).matrix
        value, grad = q_alpha_grad(rho, K, sigma, alpha, sigma_first)
        assert abs(value - q_alpha(rho, _product(K, sigma, sigma_first), alpha)) \
            <= 1e-12 * max(1.0, value)
        for _ in range(3):
            H = rng.standard_normal((dS, dS)) + 1j * rng.standard_normal((dS, dS))
            H = (H + H.conj().T) / 2
            h = 1e-6
            fd = (q_alpha(rho, _product(K, sigma + h * H, sigma_first), alpha)
                  - q_alpha(rho, _product(K, sigma - h * H, sigma_first), alpha)) / (2 * h)
            exact = float(np.trace(grad @ H).real)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact)), (dK, dS)


@pytest.mark.parametrize("alpha", [0.75, 2.0])
def test_frank_wolfe_gap_bounds_suboptimality(alpha):
    # f = +-Q_alpha(rho || 1 (x) sigma) is convex; at a deliberately poor
    # sigma the gap must cover f(sigma) - f*.
    rho = sample("mixed-hilbert-schmidt", RegisterLayout.of(("A", 2), ("B", 3)),
                 8).matrix
    sign = 1.0 if alpha > 1 else -1.0

    def fun_grad(s):
        q, g = q_alpha_grad(rho, np.eye(2), s, alpha)
        return sign * q, sign * g

    best = minimize_convex_over_states(fun_grad, 3)
    assert best.gap_estimate <= 1e-9
    for seed in range(5):
        poor = sample("rank-limited", 3, 40 + seed, rank=3).matrix
        poor = 0.9 * poor + 0.1 * np.diag([1.0, 0.0, 0.0])
        f, grad = fun_grad(poor)
        excess = f - best.value
        assert excess > 1e-4
        assert excess <= frank_wolfe_gap(grad, poor) + 1e-12


def test_convex_solver_raises_when_gap_stays_open():
    # A gradient that disagrees with f never closes the gap: no value.
    def inconsistent(s):
        return 0.0, np.diag([1.0, 0.0]).astype(complex)

    with pytest.raises(ContractViolation, match="Frank-Wolfe gap"):
        minimize_convex_over_states(inconsistent, 2)
