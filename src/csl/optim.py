"""Shared optimization engines.

Four workhorses: a certified solver for convex functionals of a density
operator (analytic gradients, Frank-Wolfe gap), multi-start descent over
density operators, a small log-det barrier solver for the max-information
semidefinite program, and multi-start ascent over pure states.  Desk-scale
dimensions (<= 36 total) keep all of these cheap; no external SDP engine is
used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .matcore import (CertificateError, ContractViolation, Spectrum, _as_matrix,
                      reduced, support_cut)


@dataclass
class OptimizerReport:
    value: float
    argopt: np.ndarray
    iterations: int
    converged: bool
    gap_estimate: float


def _gram_state(x: np.ndarray, d: int) -> np.ndarray:
    """Map 2d^2 reals to a density matrix via sigma = G^dag G / Tr."""
    G = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
    M = G.conj().T @ G
    tr = np.trace(M).real
    if tr <= 0:
        return np.eye(d) / d
    return M / tr


def _state_to_params(sigma: np.ndarray) -> np.ndarray:
    d = sigma.shape[0]
    w, V = np.linalg.eigh((sigma + sigma.conj().T) / 2)
    w = np.clip(w, 1e-12, None)
    G = (V * np.sqrt(w)) @ V.conj().T
    return np.concatenate([G.real.reshape(-1), G.imag.reshape(-1)])


def minimize_over_states(
    objective,
    dim: int,
    restarts: int = 32,
    tol: float = 1e-7,
    seed: int = 0,
    extra_starts=(),
) -> OptimizerReport:
    """Multi-start local descent of a state functional over D(dim)."""
    rng = np.random.default_rng(seed)
    d = dim

    def fun(x):
        v = objective(_gram_state(x, d))
        return v if math.isfinite(v) else 1e12

    starts = [_state_to_params(np.eye(d) / d)]
    for s in extra_starts:
        starts.append(_state_to_params(_as_matrix(s)))
    while len(starts) < restarts:
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        M = G.conj().T @ G
        starts.append(_state_to_params(M / np.trace(M).real))

    results = []
    n_it = 0
    for x0 in starts[:max(restarts, len(starts))]:
        res = scipy.optimize.minimize(fun, x0, method="L-BFGS-B",
                                      options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10})
        n_it += res.nit
        results.append((float(res.fun), res.x, bool(res.success)))
    results.sort(key=lambda r: r[0])
    best_val, best_x, best_ok = results[0]
    if best_val >= 1e12:
        return OptimizerReport(math.inf, np.eye(d) / d, n_it, False, math.inf)
    gap = results[1][0] - best_val if len(results) > 1 else 0.0
    sigma = _gram_state(best_x, d)
    return OptimizerReport(best_val, sigma, n_it, best_ok and gap <= tol, max(gap, 0.0))


def maximize_over_pure(
    objective,
    dim: int,
    restarts: int = 32,
    tol: float = 1e-7,
    seed: int = 0,
    extra_starts=(),
) -> OptimizerReport:
    """Multi-start ascent of a pure-state functional over the unit sphere."""
    rng = np.random.default_rng(seed)
    d = dim

    def vec(x):
        v = x[:d] + 1j * x[d:]
        n = np.linalg.norm(v)
        return v / n if n > 0 else np.eye(d, 1).reshape(-1).astype(complex)

    def fun(x):
        v = objective(vec(x))
        return -v if math.isfinite(v) else 1e12

    starts = []
    for s in extra_starts:
        s = np.asarray(s, dtype=complex).reshape(-1)
        starts.append(np.concatenate([s.real, s.imag]))
    while len(starts) < restarts:
        starts.append(rng.standard_normal(2 * d))

    results = []
    n_it = 0
    for x0 in starts:
        res = scipy.optimize.minimize(fun, x0, method="L-BFGS-B",
                                      options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10})
        n_it += res.nit
        results.append((float(res.fun), res.x, bool(res.success)))
    results.sort(key=lambda r: r[0])
    best_val, best_x, best_ok = results[0]
    gap = results[1][0] - best_val if len(results) > 1 else 0.0
    return OptimizerReport(-best_val, vec(best_x), n_it, best_ok and gap <= tol, max(gap, 0.0))


# --- certified convex solver ------------------------------------------------

def q_alpha_grad(rho, K, sigma, alpha: float, sigma_first: bool = False):
    """Q_alpha(rho || K (x) sigma) (or sigma (x) K) and its gradient in sigma.

    K and sigma must be positive definite.  With S = K (x) sigma and
    X = S^e rho S^e, e = (1-alpha)/(2 alpha), dQ = alpha Tr[M dS^e] for
    M = X^(alpha-1) S^e rho + h.c.  The derivative of S^e is the Hadamard
    product with the Daleckii-Krein divided differences of t -> t^e in S's
    eigenbasis (Bhatia, Matrix Analysis, ch. V); the gradient in sigma is
    grad_S weighted by K and traced over K's factor, Tr_K[(K (x) 1) grad_S]
    (mirrored for sigma (x) K).  Returns (Q, G) with dQ = Tr[G dsigma].
    """
    e = (1.0 - alpha) / (2.0 * alpha)
    lk, Uk = np.linalg.eigh(K)
    ls, Us = np.linalg.eigh(sigma)
    dk, ds = len(lk), len(ls)
    if sigma_first:
        lam, U = np.multiply.outer(ls, lk).reshape(-1), np.kron(Us, Uk)
    else:
        lam, U = np.multiply.outer(lk, ls).reshape(-1), np.kron(Uk, Us)
    if lam.min() <= 0:
        raise ContractViolation("q_alpha_grad needs K and sigma positive definite")
    # Everything below lives in S's eigenbasis, where S^e is diagonal.
    le = lam**e
    Rt = U.conj().T @ rho @ U
    w, V = np.linalg.eigh(le[:, None] * Rt * le[None, :])
    w = np.clip(w, 0.0, None)
    p = np.zeros_like(w)
    nz = w > support_cut(w)
    p[nz] = w[nz] ** (alpha - 1.0)
    A = (V * p) @ V.conj().T @ (le[:, None] * Rt)
    # (a^e - b^e)/(a - b) = b^(e-1) expm1(e L)/expm1(L), L = log(a/b): stable
    # at (near-)degenerate pairs, where it tends to e b^(e-1).
    L = np.subtract.outer(np.log(lam), np.log(lam))
    den = np.expm1(L)
    safe = den != 0.0
    ratio = np.where(safe, np.expm1(e * L) / np.where(safe, den, 1.0), e)
    Y = alpha * ratio * lam[None, :] ** (e - 1.0) * (A + A.conj().T)
    # Tr_K[(K (x) 1) U Y U^dag] = Us Tr_K[(diag(lk) (x) 1) Y] Us^dag.
    if sigma_first:
        Gt = np.einsum("iaja,a->ij", Y.reshape(ds, dk, ds, dk), lk)
    else:
        Gt = np.einsum("aiaj,a->ij", Y.reshape(dk, ds, dk, ds), lk)
    G = Us @ Gt @ Us.conj().T
    return float(np.sum(w**alpha)), (G + G.conj().T) / 2


def frank_wolfe_gap(grad: np.ndarray, sigma: np.ndarray) -> float:
    """Tr[G sigma] - lambda_min(G): bounds f(sigma) - min f for convex f."""
    lo = float(np.linalg.eigvalsh(grad)[0])
    return max(float(np.einsum("ij,ji->", grad, sigma).real) - lo, 0.0)


def _traceless_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the traceless Hermitian d x d matrices."""
    basis = _herm_basis(d)[d:]  # off-diagonal pairs
    for k in range(1, d):
        D = np.zeros(d)
        D[:k] = 1.0
        D[k] = -k
        basis.append(np.diag(D / math.sqrt(k * (k + 1))).astype(complex))
    return np.array(basis)


# Largest Frank-Wolfe gap, in the reported value's units, that certifies.
GAP_TOL = 1e-9


def minimize_convex_over_states(fun_grad, dim: int, value_of=None) -> OptimizerReport:
    """Minimize a convex functional over D(dim), certified by the Frank-Wolfe gap.

    ``fun_grad(sigma)`` returns (f, G) with df = Tr[G dsigma].  ``value_of``
    maps f increasingly onto the reported value (identity by default); the
    report's value and gap are in its units, the gap being
    value_of(f) - value_of(f - Tr[G sigma] + lambda_min(G)).  One L-BFGS-B
    run from the maximally mixed state on the Gram parametrization reaches the
    value; Newton steps in the traceless tangent space (Hessian by central
    differences of the gradient) then drive the gap down, since L-BFGS-B's
    line search stalls on round-off in f.  Raises CertificateError when the
    gap stays above GAP_TOL: an unconverged solve never returns a value.
    """
    value_of = value_of if value_of is not None else (lambda f: f)
    d = dim

    def certify(sigma, f, grad):
        v, lower = value_of(f), value_of(f - frank_wolfe_gap(grad, sigma))
        return v, v - lower if math.isfinite(lower) else math.inf

    if d == 1:
        sigma = np.ones((1, 1), dtype=complex)
        return OptimizerReport(value_of(fun_grad(sigma)[0]), sigma, 0, True, 0.0)

    def fg(x):
        Gm = (x[: d * d] + 1j * x[d * d:]).reshape(d, d)
        M = Gm.conj().T @ Gm
        t = np.trace(M).real
        try:
            f, grad = fun_grad(M / t)
        except ContractViolation:  # left the open set of definite states
            return 1e12, np.zeros_like(x)
        C = (grad - np.einsum("ij,ji->", grad, M).real / t * np.eye(d)) / t
        GC = Gm @ C
        return f, 2.0 * np.concatenate([GC.real.reshape(-1), GC.imag.reshape(-1)])

    # Scaled so that L-BFGS-B's first unit-length step cannot reach a
    # singular Gram factor (at norm 1 it does for d = 2).
    x0 = 4.0 * _state_to_params(np.eye(d) / d)
    res = scipy.optimize.minimize(fg, x0, jac=True, method="L-BFGS-B",
                                  options={"maxiter": 500, "ftol": 1e-15,
                                           "gtol": 1e-12})
    sigma = _gram_state(res.x, d)
    f, grad = fun_grad(sigma)
    value, gap = certify(sigma, f, grad)

    E = _traceless_basis(d)

    def tangent(g):
        return np.einsum("kij,ji->k", E, g).real

    # Polish well past GAP_TOL: the value's error is second order in sigma's,
    # the gap first order, so the value then carries ~1e-15 error, not 1e-9.
    steps = 0
    while gap > 1e-3 * GAP_TOL and steps < 10:
        steps += 1
        h = 1e-4 * float(np.linalg.eigvalsh(sigma)[0])
        H = np.column_stack([
            (tangent(fun_grad(sigma + h * Ek)[1]) - tangent(fun_grad(sigma - h * Ek)[1]))
            / (2 * h) for Ek in E])
        step = np.linalg.lstsq((H + H.T) / 2, -tangent(grad), rcond=None)[0]
        D = np.einsum("k,kij->ij", step, E)
        t = 1.0
        while t > 1e-3:
            cand = sigma + t * D
            if np.linalg.eigvalsh(cand)[0] > 0:
                f_c, grad_c = fun_grad(cand)
                v_c, gap_c = certify(cand, f_c, grad_c)
                if gap_c < gap:
                    break
            t *= 0.5
        else:
            break
        sigma, grad, value, gap = cand, grad_c, v_c, gap_c
    if not gap <= GAP_TOL:
        raise CertificateError(
            f"convex solver stopped with Frank-Wolfe gap {gap:.3e} > {GAP_TOL:.1e}")
    return OptimizerReport(value, sigma, res.nit + steps, True, gap)


# --- max-information SDP ----------------------------------------------------

@dataclass
class ImaxResult:
    value_bits: float
    certificate: np.ndarray  # Y with rho_A (x) Y >= rho_AB
    converged: bool
    residual: float  # min eigenvalue of rho_A (x) Y - rho_AB


def _herm_basis(d: int):
    basis = []
    for i in range(d):
        E = np.zeros((d, d), dtype=complex)
        E[i, i] = 1.0
        basis.append(E)
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = E[j, i] = 1 / math.sqrt(2)
            basis.append(E)
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = -1j / math.sqrt(2)
            E[j, i] = 1j / math.sqrt(2)
            basis.append(E)
    return basis


def dominating_trace_min(
    M_A: np.ndarray,
    rho_AB: np.ndarray,
    dims: tuple[int, int],
    tol: float = 1e-7,
) -> ImaxResult:
    """min Tr[Y] over Y >= 0 with M_A (x) Y >= rho_AB, by a log-det barrier.

    Both operators are first compressed onto supp(M_A) (x) supp(rho_B); the
    optimum is supported there, which keeps the barrier nondegenerate.  The
    Newton system is assembled by broadcasts and einsums on the (a, i, a', j)
    block view of the slack M_A (x) Y - rho_AB, with no loop over blocks.
    `converged` means every centering step solved, the final Y is strictly
    feasible for the barrier, and the primal residual is at least -tol.  No
    dual witness is computed, so Tr[Y] is certified from above only.
    """
    dA, dB = dims
    M_A = _as_matrix(M_A)
    rho_AB = _as_matrix(rho_AB)
    if M_A.shape != (dA, dA) or rho_AB.shape != (dA * dB, dA * dB):
        raise ContractViolation("dimension mismatch in dominating_trace_min")

    SA = Spectrum(M_A)
    VA, mA = SA.basis, SA.w[SA.keep]
    VB = Spectrum(reduced(rho_AB, dims, 1)).basis
    rA, rB = VA.shape[1], VB.shape[1]
    W = np.kron(VA, VB)
    rho_c = W.conj().T @ rho_AB @ W  # compressed (rA*rB)

    # Strictly feasible start: Y = 2 t_min I.
    Dm = np.kron(np.diag(1.0 / np.sqrt(mA)), np.eye(rB))
    t_min = float(np.linalg.eigvalsh(Dm @ rho_c @ Dm).max())
    Y = 2.0 * max(t_min, 1e-12) * np.eye(rB, dtype=complex)
    # Columns: row-major vec of an orthonormal Hermitian basis, so that
    # P^H vec(G) are G's coordinates and P @ y is the matrix with coordinates y.
    P = np.column_stack([E.reshape(-1) for E in _herm_basis(rB)])
    n = rA * rB
    diag_m = np.diag(mA)[:, None, :, None]
    mm = np.multiply.outer(mA, mA)

    def slack(Yc):  # diag(m_A) (x) Y - rho_c
        return (diag_m * Yc[None, :, None, :]).reshape(n, n) - rho_c

    def barrier(Yc, mu):
        """Tr Y - mu log det(slack) - mu log det Y; inf outside the open cone."""
        try:
            LK = np.linalg.cholesky(slack(Yc))
            LY = np.linalg.cholesky(Yc)
        except np.linalg.LinAlgError:
            return math.inf
        logdet = 2.0 * float(np.log(LK.diagonal().real).sum()
                             + np.log(LY.diagonal().real).sum())
        return float(np.trace(Yc).real) - mu * logdet

    def grad_hess(Yc, mu):
        K4 = np.linalg.inv(slack(Yc)).reshape(rA, rB, rA, rB)
        Yinv = np.linalg.inv(Yc)
        G = np.eye(rB) - mu * (np.einsum("a,abac->bc", mA, K4) + Yinv)
        g = (P.conj().T @ ((G + G.conj().T) / 2).reshape(-1)).real
        # Hessian of the barrier in superoperator (row-major vec) form:
        # X -> sum m_a m_a' B_aa' X B_a'a  plus  X -> Yinv X Yinv.
        S = (np.einsum("ap,aipj,plak->ikjl", mm, K4, K4)
             + np.einsum("ij,lk->ikjl", Yinv, Yinv))
        H = mu * (P.conj().T @ S.reshape(rB * rB, rB * rB) @ P).real
        return g, (H + H.T) / 2

    nu = rA * rB + rB  # total barrier parameter
    mu = max(2.0 * max(t_min, 1e-12) * rB / nu, 1e-3)
    mu_final = 1e-11
    converged = True
    while True:
        # Damped Newton centering for the current barrier weight.
        f0 = barrier(Y, mu)
        for _ in range(60):
            g, H = grad_hess(Y, mu)
            try:
                dy = np.linalg.solve(H + 1e-14 * np.eye(H.shape[0]), -g)
            except np.linalg.LinAlgError:
                converged = False
                break
            lam2 = float(-g @ dy)
            if lam2 < 2e-10:  # Newton decrement lam^2/2 below 1e-10
                break
            dY = (P @ dy).reshape(rB, rB)
            t = 1.0
            while t > 1e-14:
                f_t = barrier(Y + t * dY, mu)
                if f_t <= f0 + 0.25 * t * float(g @ dy):
                    break
                t *= 0.5
            if t <= 1e-14:
                break
            Y, f0 = Y + t * dY, f_t
        if mu <= mu_final:
            break
        mu = max(mu * 0.1, mu_final)
    Y_c = Y
    tr = float(np.trace(Y_c).real)
    if not math.isfinite(tr) or tr <= 0 or not math.isfinite(barrier(Y_c, mu)):
        converged = False
    Y_full = VB @ Y_c @ VB.conj().T
    full_res = np.kron(M_A, Y_full) - rho_AB
    residual = float(np.linalg.eigvalsh((full_res + full_res.conj().T) / 2).min())
    if residual < -tol:
        converged = False
    return ImaxResult(math.log2(tr), Y_full, converged, residual)


def imax_sdp(rho_ab, dims: tuple[int, int], tol: float = 1e-7) -> ImaxResult:
    """I_max(A:B) as min Tr[Y] with rho_A (x) Y >= rho_AB (Y = t sigma)."""
    rho_AB = _as_matrix(rho_ab)
    return dominating_trace_min(reduced(rho_AB, dims, 0), rho_AB, dims, tol=tol)
