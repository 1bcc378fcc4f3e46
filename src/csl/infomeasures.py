"""Entropies, mutual informations, and the universal-bound machinery.

Built on the divergence family and the shared optimizers: Renyi entropy,
the optimized conditional Renyi entropy, conditional min-entropy, the
alpha-mutual information, the max-information bound, and feasible-point
(one-sided) estimators for smoothed quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import INF, d_alpha, d_max
from .matcore import (
    RANK_TOL,
    ContractViolation,
    DensityOperator,
    _as_matrix,
    eig_hermitian,
    trace_distance,
)
from .optim import (
    _support_basis,
    dominating_trace_min,
    imax_sdp,
    minimize_convex_over_states,
    minimize_over_states,
    q_alpha_grad,
)

C_SMOOTH = 2.0 - math.sqrt(3.0)


@dataclass
class BoundReport:
    name: str
    lhs: float
    rhs: float
    ok: bool
    details: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass
class SmoothedEstimate:
    value_bits: float
    kind: str  # "exact" or "upper-feasible"
    witness: np.ndarray


def _bipartite(rho, dims):
    R = _as_matrix(rho)
    if dims is None:
        if isinstance(rho, DensityOperator) and len(rho.layout.dims) == 2:
            dims = rho.layout.dims
        else:
            raise ContractViolation("dims required for bare matrices")
    dA, dB = dims
    if R.shape[0] != dA * dB:
        raise ContractViolation("dims do not match operator size")
    return R, dA, dB


def _marginals(R, dA, dB):
    T = R.reshape(dA, dB, dA, dB)
    return np.trace(T, axis1=1, axis2=3), np.trace(T, axis1=0, axis2=2)


def renyi_entropy(rho, alpha: float) -> float:
    """H_alpha = (1/(1-alpha)) log Tr rho^alpha, with 0, 1, inf limits."""
    if alpha < 0:
        raise ContractViolation(f"alpha must be >= 0, got {alpha}")
    w = np.clip(np.linalg.eigvalsh(_as_matrix(rho)), 0.0, None)
    cut = RANK_TOL * max(float(w.max(initial=0.0)), 0.0)
    w = w[w > cut]
    if alpha == 0:
        return math.log2(len(w))
    if alpha == 1:
        return float(-np.sum(w * np.log2(w)))
    if math.isinf(alpha):
        return -math.log2(float(w.max()))
    return (1.0 / (1.0 - alpha)) * math.log2(float(np.sum(w**alpha)))


def mutual_info_alpha(rho_ab, alpha: float, dims=None, restarts: int = 16,
                      seed: int = 0, return_report: bool = False):
    """I_alpha(A:B) = min over sigma of D_alpha(rho_AB || rho_A (x) sigma)."""
    R, dA, dB = _bipartite(rho_ab, dims)
    rho_A, rho_B = _marginals(R, dA, dB)
    report = minimize_over_states(
        lambda s: d_alpha(R, np.kron(rho_A, s), alpha),
        dB, restarts=restarts, seed=seed, extra_starts=[rho_B],
    )
    value = max(report.value, 0.0)
    return (value, report) if return_report else value


def h_min_conditional(rho_ab, dims=None, tol: float = 1e-7) -> float:
    """H_min(A|B) = -log min Tr[Y] over Y with I (x) Y >= rho_AB."""
    R, dA, dB = _bipartite(rho_ab, dims)
    res = dominating_trace_min(np.eye(dA), R, (dA, dB), tol=tol)
    if not res.converged:
        raise ContractViolation("conditional min-entropy solver did not converge")
    return -res.value_bits


def conditional_renyi_up(rho_ab, beta: float, dims=None) -> float:
    """Optimized conditional entropy -min over sigma of D_beta(rho || I (x) sigma).

    For finite beta != 1 the minimization is convex in Q_beta (convex for
    beta > 1, concave for beta in [1/2, 1); Frank & Lieb 2013) and is solved
    on supp(rho_B), where the optimum lies by data processing under the
    pinching onto it; the solver certifies the value by its Frank-Wolfe gap.
    """
    if beta < 0.5:
        raise ContractViolation(f"beta must be >= 1/2, got {beta}")
    R, dA, dB = _bipartite(rho_ab, dims)
    rho_A, rho_B = _marginals(R, dA, dB)
    if math.isinf(beta):
        return h_min_conditional(R, (dA, dB))
    if beta == 1:
        return renyi_entropy(R, 1) - renyi_entropy(rho_B, 1)
    # Pure bipartite states: duality with a trivial purifying system gives
    # the closed form -H_{beta/(2 beta - 1)}(A); skip the optimizer.
    if np.linalg.eigvalsh(R).max(initial=0.0) >= 1.0 - 1e-12:
        return -renyi_entropy(rho_A, beta / (2.0 * beta - 1.0))
    VB = _support_basis(rho_B)
    W = np.kron(np.eye(dA), VB)
    Rc = W.conj().T @ R @ W
    sign = 1.0 if beta > 1 else -1.0  # minimize Q (beta > 1) or -Q

    def fun_grad(s):
        q, grad = q_alpha_grad(Rc, np.eye(dA), s, beta)
        return sign * q, sign * grad

    def value_of(f):  # D_beta, increasing in f
        return math.log2(sign * f) / (beta - 1.0) if sign * f > 0 else -math.inf

    return -minimize_convex_over_states(fun_grad, VB.shape[1], value_of).value


def imax_certified(rho_ab, dims) -> float:
    """I_max(A:B) in bits from imax_sdp, raising unless its certificate holds."""
    res = imax_sdp(rho_ab, dims)
    if not res.converged or res.residual < -1e-7:
        raise ContractViolation(
            f"max-information SDP not certified (converged={res.converged}, "
            f"residual {res.residual:.3e})")
    return res.value_bits


def imax_bound_lemma(rho_ab, dims=None) -> BoundReport:
    """I_max(A:B) <= -log lambda_min_nz(rho_A) - H_min(A|B)."""
    R, dA, dB = _bipartite(rho_ab, dims)
    rho_A, _ = _marginals(R, dA, dB)
    imax = imax_certified(R, (dA, dB))
    w = np.clip(np.linalg.eigvalsh(rho_A), 0.0, None)
    lam_min = float(w[w > RANK_TOL * w.max()].min())
    h_min = h_min_conditional(R, (dA, dB))
    rhs = -math.log2(lam_min) - h_min
    return BoundReport(
        "imax-minentropy-bound", imax, rhs, imax <= rhs + 1e-7,
        {"lambda_min": lam_min, "h_min": h_min},
    )


def f_alpha_beta(alpha: float, beta: float, eps: float) -> float:
    """Smoothing overhead (2/(beta-1) + 1/(1-alpha)) log(1/(c eps^2))."""
    if not (0.0 < alpha < 1.0 and beta > 1.0 and 0.0 < eps < 1.0):
        raise ContractViolation("need alpha in (0,1), beta > 1, eps in (0,1)")
    return (2.0 / (beta - 1.0) + 1.0 / (1.0 - alpha)) * math.log2(
        1.0 / (C_SMOOTH * eps * eps)
    )


def universal_rhs(rho_ab, dims, alpha: float, beta: float, eps: float,
                  cache: dict | None = None) -> float:
    """H_alpha(A) - optimized conditional beta-entropy + smoothing overhead."""
    R, dA, dB = _bipartite(rho_ab, dims)
    rho_A, _ = _marginals(R, dA, dB)
    cache = cache if cache is not None else {}
    key = ("h_up", round(beta, 14))
    if key not in cache:
        cache[key] = conditional_renyi_up(R, beta, (dA, dB))
    return renyi_entropy(rho_A, alpha) - cache[key] + f_alpha_beta(alpha, beta, eps)


def imax_smoothed_upper(rho_ab, eps: float, dims=None, alpha: float = 0.5,
                        cache: dict | None = None) -> SmoothedEstimate:
    """Feasible-point upper estimate of the smoothed max-information.

    Witness pool: rho itself plus tail-truncated states over a delta grid;
    every witness is checked inside the trace-distance eps-ball.  One-sided:
    the true smoothed value can only be smaller.
    """
    from .smoothing import apply_truncation, smooth_renyi_entropy_min, truncation_effect

    if not (0.0 < eps < 1.0):
        raise ContractViolation(f"eps must be in (0,1), got {eps}")
    R, dA, dB = _bipartite(rho_ab, dims)
    rho_A, _ = _marginals(R, dA, dB)
    p = np.sort(np.clip(np.linalg.eigvalsh(rho_A), 0.0, None))[::-1]
    cache = cache if cache is not None else {}

    def imax_of(key, state):
        if key not in cache:
            cache[key] = imax_certified(state, (dA, dB))
        return cache[key]

    best_v = imax_of("imax_rho", R)
    best_w = R
    grid = {C_SMOOTH * eps * eps, eps * eps / 2.0, eps / 4.0, eps / 2.0}
    for delta in sorted(d for d in grid if 0.0 < d < min(eps, 0.5)):
        try:
            _, tau = smooth_renyi_entropy_min(p, delta, alpha)
            tr = truncation_effect(rho_A, tau, delta)
        except ContractViolation:
            continue
        omega, _ = apply_truncation(R, tr.effect, (dA, dB))
        if trace_distance(omega, R) > eps + 1e-9:
            continue
        v = imax_of(("imax_w", round(delta, 14), round(alpha, 14)), omega)
        if v < best_v:
            best_v, best_w = v, omega
    return SmoothedEstimate(best_v, "upper-feasible", best_w)


def dmax_smoothed_upper(rho, sigma, eps: float) -> SmoothedEstimate:
    """Feasible-point upper estimate of the smoothed max-relative entropy.

    Witnesses: rho, and spectral caps of sigma^(-1/2) rho sigma^(-1/2) at
    each eigenvalue level (classical truncation relative to sigma), each
    renormalized and kept only if inside the trace-distance eps-ball.
    """
    from .matcore import power_on_support

    R, S = _as_matrix(rho), _as_matrix(sigma)
    best_v = d_max(R, S)
    best_w = R
    Sh = power_on_support(S, 0.5)
    Sm = power_on_support(S, -0.5)
    M = Sm @ R @ Sm
    w, V = eig_hermitian(M)
    for gamma in sorted(set(np.clip(w, 0.0, None))):
        if gamma <= 0:
            continue
        capped = (V * np.minimum(np.clip(w, 0.0, None), gamma)) @ V.conj().T
        cand = Sh @ capped @ Sh
        t = float(np.trace(cand).real)
        if t <= 0:
            continue
        cand = (cand + cand.conj().T) / (2 * t)
        if trace_distance(cand, R) > eps + 1e-9:
            continue
        v = d_max(cand, S)
        if v < best_v:
            best_v, best_w = v, cand
    return SmoothedEstimate(best_v, "upper-feasible", best_w)


def check_rld_bound(rho, sigma, eps: float, beta: float) -> BoundReport:
    """One-sided check of the smoothed max-divergence upper bound.

    Certifies estimate <= D_beta + (1/(beta-1)) log(1/eps^2) when it holds;
    a failure is inconclusive (the estimate is itself an upper bound) and
    is reported as such, never as a refutation.
    """
    if beta <= 1.0:
        raise ContractViolation(f"beta must be > 1, got {beta}")
    est = dmax_smoothed_upper(rho, sigma, eps)
    rhs = d_alpha(rho, sigma, beta) + math.log2(1.0 / (eps * eps)) / (beta - 1.0)
    ok = est.value_bits <= rhs + 1e-8
    return BoundReport(
        "dmax-smoothed-renyi-bound", est.value_bits, rhs, ok,
        {"conclusive": bool(ok), "witness_kind": est.kind},
    )
