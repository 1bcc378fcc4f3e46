"""Oracles shared by the tests: the binary entropy, a Haar sampler, the
dense convex-split mixture tau with its mu quantities, and the residual of an
SDP certificate."""

import math

import numpy as np

from csl.divergences import INF, d_max, q2
from csl.matcore import reduced


def binary_entropy(a: float) -> float:
    """h(a) = -a log a - (1-a) log(1-a), base 2."""
    if a <= 0 or a >= 1:
        return 0.0
    return -a * math.log2(a) - (1 - a) * math.log2(1 - a)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fix."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def sdp_residual(res, rho, dims, M_A=None) -> float:
    """lambda_min(M_A (x) Y - rho) for the witness Y of a certified SDP
    result; M_A is rho_A by default (the I_max SDP)."""
    M_A = reduced(rho, dims, 0) if M_A is None else M_A
    D = np.kron(M_A, res.witness) - rho
    return float(np.linalg.eigvalsh((D + D.conj().T) / 2)[0])


def build_tau(instance) -> np.ndarray:
    """Weighted mixture sum_x p_x rho^{R A_x} (x) sigma^{other slots}, dense,
    on R (x) A_1 (x) ... (x) A_n."""
    dR, dA = instance.dims
    n = instance.n
    shape = (dR,) + (dA,) * n
    tau = np.zeros(shape + shape, dtype=complex)
    for x, p in enumerate(instance.weights):
        term = p * instance.rho_RA
        for _ in range(n - 1):
            term = np.kron(term, instance.sigma_A)
        # Registers are [R, A(rho), A_2..A_n]; send rho's A slot to slot x.
        order = [0] + [0] * n
        rest = iter(range(2, n + 1))
        for j in range(1, n + 1):
            order[j] = 1 if j == x + 1 else next(rest)
        tau += term.reshape(shape + shape).transpose(order + [a + n + 1 for a in order])
    return tau.reshape(dR * dA**n, dR * dA**n)


def mu_quantities(rho_RA, sigma_A, dims) -> tuple[float, float]:
    """mu = Q_2(rho_RA || rho_R (x) sigma) - 1 and mu_max = 2^D_max - 1 against
    the same product, each floored at 0."""
    R = np.asarray(rho_RA, dtype=complex)
    ref = np.kron(reduced(R, dims, 0), np.asarray(sigma_A, dtype=complex))
    q, dm = q2(R, ref), d_max(R, ref)
    return (INF if math.isinf(q) else max(q - 1.0, 0.0),
            INF if math.isinf(dm) else max(2.0**dm - 1.0, 0.0))
