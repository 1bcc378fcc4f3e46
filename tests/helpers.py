"""Oracles shared by the tests: the binary entropy, a Haar sampler, the
dense convex-split mixture tau with its mu quantities, the residual of an
SDP certificate, the multi-start descent as one scipy.optimize.minimize
call per start, the hypothesis-testing divergence by doubling and
bisection, and a patch of one matcore LAPACK function in every module that
calls it."""

import math
import sys

import numpy as np
import scipy.optimize

from csl import matcore, optim
from csl.divergences import INF, d_max, d_min, perpendicular, q2, supp_contained
from csl.matcore import CertificateError, _as_matrix, reduced


def patch_lapack(monkeypatch, name: str, wrap) -> None:
    """Replace matcore's LAPACK function ``name`` (``_eigh``, ``_cholesky``,
    ...) by wrap(original) in every csl module that imported it."""
    original = getattr(matcore, name)
    patched = wrap(original)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("csl.") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, patched)


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


def _forward_difference(x, objective, dim):
    """f and its forward-difference gradient at the Gram parameters x, from
    one objective call on the stack [sigma(x), sigma(x + h_1 e_1), ...]."""
    sign = (x >= 0).astype(float) * 2 - 1
    h = np.where((x + optim._FD_STEP) - x == 0,
                 optim._FD_FALLBACK * sign * np.maximum(1.0, np.abs(x)), optim._FD_STEP)
    X = np.repeat(x[None], len(x) + 1, axis=0)
    X[np.arange(1, len(x) + 1), np.arange(len(x))] = x + h
    f = np.asarray(objective(optim._gram_state(X, dim)), dtype=float)
    f = np.where(np.isfinite(f), f, 1e12)
    return float(f[0]), (f[1:] - f[0]) / ((x + h) - x)


def multistart_oracle(objective, dim, restarts=32, extra_starts=()):
    """optim.minimize_over_states as one scipy.optimize.minimize call per
    start, run after run: (value, state, nfev of each run).  The caps are
    read from optim at call time, so a test that patches them patches both.
    """
    rng = np.random.default_rng(0)
    starts = [optim._state_to_params(np.eye(dim) / dim)]
    for s in extra_starts:
        starts.append(optim._state_to_params(_as_matrix(s)))
    while len(starts) < restarts:
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        M = G.conj().T @ G
        starts.append(optim._state_to_params(M / np.trace(M).real))
    results, nfev = [], []
    for x0 in starts:
        res = scipy.optimize.minimize(_forward_difference, x0, args=(objective, dim),
                                      method="L-BFGS-B", jac=True,
                                      options={"maxiter": optim._MAXITER, "ftol": 1e-14,
                                               "gtol": 1e-10,
                                               "maxfun": optim._MAXFUN // (1 + len(x0))})
        results.append((float(res.fun), res.x))
        nfev.append(res.nfev)
    best_val, best_x = min(results, key=lambda r: r[0])
    if best_val >= 1e12:  # never finite
        return math.inf, np.eye(dim) / dim, nfev
    return best_val, optim._gram_state(best_x, dim), nfev


def bisection_d_min_eps(rho, sigma, eps):
    """D_H^eps by the Neyman-Pearson family, its threshold t doubled from 1
    and then bisected to adjacent floats (at most 200 halvings): (value,
    jump), where jump is the rho-mass between the two projective tests of
    the final bracket (0 when rho and sigma are orthogonal).  The primal,
    its 1e-12 mass check and its 1e-8 gap check are d_min_eps's."""
    R, S = _as_matrix(rho), _as_matrix(sigma)
    if perpendicular(R, S) and not supp_contained(R, S) and math.isinf(d_min(R, S)):
        return INF, 0.0

    def test(t):
        w, V = np.linalg.eigh(t * R - S)
        P = V[:, w > 0]
        r, s = (float(np.einsum("ji,jk,ki->", P.conj(), M, P).real) for M in (R, S))
        return t, r, s, w

    need = 1.0 - eps
    lo, hi = (0.0, 0.0, 0.0, np.zeros(0)), test(1.0)
    while need - hi[1] > 0 and hi[0] < 1e12:
        lo, hi = hi, test(2.0 * hi[0])
    for _ in range(200):
        mid = 0.5 * (lo[0] + hi[0])
        if not lo[0] < mid < hi[0]:
            break
        point = test(mid)
        lo, hi = (point, hi) if need - point[1] > 0 else (lo, point)
    (_, r_lo, s_lo, _), (_, r_hi, s_hi, _) = lo, hi
    lam = 1.0 if r_hi == r_lo else min(max((need - r_lo) / (r_hi - r_lo), 0.0), 1.0)
    mass, value = lam * r_hi + (1 - lam) * r_lo, lam * s_hi + (1 - lam) * s_lo
    if abs(mass - need) > 1e-12:
        raise CertificateError(f"bisection primal has rho-mass {mass:.15g}")
    if value <= 1e-14:
        return INF, r_hi - r_lo
    gap = value - max(t * need - float(np.clip(w, 0.0, None).sum()) for t, _, _, w in (lo, hi))
    if gap > 1e-8:
        raise CertificateError(f"bisection primal/dual gap {gap:.3e} exceeds 1e-8")
    return -math.log2(value), r_hi - r_lo
