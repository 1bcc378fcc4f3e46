"""Entropies, mutual informations, and the universal-bound machinery.

Built on the divergence family and the shared optimizers: Renyi entropy,
the optimized conditional Renyi entropy, conditional min-entropy, the
alpha-mutual information, and feasible-point (one-sided) estimators for
smoothed quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import d_alpha, d_max
from .matcore import (
    RANK_TOL,
    ContractViolation,
    Spectrum,
    _as_matrix,
    _eigh,
    _eigvalsh,
    _herm,
    kron,
    reduced,
    trace_distance,
)
from .optim import (
    QAlphaKernel,
    dominating_trace_min,
    minimize_convex_over_states,
    minimize_over_states,
)

C_SMOOTH = 2.0 - math.sqrt(3.0)


@dataclass
class BoundReport:
    """One checked inequality lhs <= rhs and its verdict."""

    name: str
    lhs: float
    rhs: float
    ok: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _bipartite(rho, dims):
    R = _as_matrix(rho)
    dA, dB = dims
    if R.shape[0] != dA * dB:
        raise ContractViolation("dims do not match operator size")
    return R, dA, dB


def _spectrum_a(R, dims, cache: dict) -> Spectrum:
    """The Spectrum of rho_A, decomposed once per state and kept in its cache."""
    if "rho_A" not in cache:
        cache["rho_A"] = Spectrum(reduced(R, dims, 0))
    return cache["rho_A"]


def _spectrum_renyi(w: np.ndarray, alpha: float) -> float:
    """H_alpha of the spectrum w, for alpha = inf or finite other than 0, 1.

    Finite orders take log sum (w/W)^alpha, W = sum w.  Zero entries are
    dropped; nothing else is cut.
    """
    w = w[w > 0]
    top, W = float(w.max()), float(w.sum())
    if math.isinf(alpha):
        return -math.log2(top)
    # log sum (w/W)^alpha = (alpha-1) log(top/W) + log1p(S/W) with S = sum w
    # expm1((alpha-1) log(w/top)): no O(1) terms cancel near alpha = 1, and
    # S/W stays above top/W - 1 >= 1/d - 1, so nothing underflows at large
    # orders, where sum w^alpha would.
    S = float(np.sum(w * np.expm1((alpha - 1.0) * np.log(w / top))))
    return math.log2(W / top) + math.log1p(S / W) / ((1.0 - alpha) * math.log(2.0))


def renyi_entropy(rho, alpha: float) -> float:
    """H_alpha = (1/(1-alpha)) log Tr rho^alpha, with 0, 1, inf limits.

    rho is an operator or its Spectrum, which is then not decomposed again.
    Evaluated on the spectrum w above the support cut; other orders than 0
    and 1 go to _spectrum_renyi, which is log Tr rho^alpha up to the mass
    the cut drops.
    """
    if not alpha >= 0:  # NaN fails too
        raise ContractViolation(f"alpha must be >= 0, got {alpha}")
    S = Spectrum.of(rho)
    w = S.w[S.keep]
    if alpha == 0:
        return math.log2(len(w))
    if alpha == 1:
        return float(-np.sum(w * np.log2(w)))
    return _spectrum_renyi(w, alpha)


def mutual_info_alpha(rho_ab, alpha: float, dims):
    """I_alpha(A:B) = min over sigma of D_alpha(rho_AB || rho_A (x) sigma).

    For alpha in [1/2, inf).  Returns (value, sigma): the value clipped at
    0 and the minimizing sigma.  At alpha = 1 that is rho_B and the value
    H(A) + H(B) - H(AB).  Other orders run the descent from I/d and rho_B,
    then 14 random states, all 16 in lockstep: one stacked `d_alpha` call
    per round, across all starts, on every point asked for and its
    difference neighbours.  rho_A (x) sigma for the whole stack of states
    is formed by broadcasting, the same products matcore.kron forms for
    each alone.
    """
    if not 0.5 <= alpha < math.inf:  # NaN fails too
        raise ContractViolation(f"alpha must be in [1/2, inf), got {alpha}")
    R, dA, dB = _bipartite(rho_ab, dims)
    rho_A, rho_B = reduced(R, (dA, dB), 0), reduced(R, (dA, dB), 1)
    if alpha == 1:
        value = renyi_entropy(rho_A, 1) + renyi_entropy(rho_B, 1) - renyi_entropy(R, 1)
        return max(value, 0.0), rho_B

    def objective(stack):
        ref = rho_A[None, :, None, :, None] * stack[:, None, :, None, :]
        return d_alpha(R, ref.reshape(len(stack), dA * dB, dA * dB), alpha)

    value, sigma = minimize_over_states(objective, dB, restarts=16, extra_starts=[rho_B])
    return max(value, 0.0), sigma


def h_min_conditional(rho_ab, dims) -> float:
    """H_min(A|B) = -log min Tr[Y] over Y with I (x) Y >= rho_AB.

    Reported from the SDP's dual side, -log Tr[rho Z] for a feasible dual
    point Z: at most the SDP's certified bracket (1e-9 bits) above H_min,
    never below it, which is the sound side wherever H_min is subtracted
    (the chain's rhs = lhs - h_min).  An uncertified SDP raises
    CertificateError.
    """
    R, dA, dB = _bipartite(rho_ab, dims)
    return -dominating_trace_min(np.eye(dA)[None], R[None], (dA, dB))[0].lower


def conditional_renyi_up(rho_ab, beta: float, dims) -> float:
    """Optimized conditional entropy -min over sigma of D_beta(rho || I (x) sigma).

    For finite beta != 1 the minimization is convex in Q_beta (convex for
    beta > 1, concave for beta in [1/2, 1); Frank & Lieb 2013) and is solved
    on supp(rho_B), where the optimum lies by data processing under the
    pinching onto it.  The solve starts at the Petz conditional entropy's
    optimizer (Tr_A rho^beta)^(1/beta)/Tr (Tomamichel, Berta & Hayashi, JMP
    55, 082206, 2014), exact on product states, and certifies the value by
    its Frank-Wolfe gap plus the bound on what the cut on rho's spectrum
    drops (QAlphaKernel.cut_bound).
    """
    return _h_up(rho_ab, beta, dims, {})


def _h_up_setup(R, dA, dB):
    """What H_up_beta(A|B) needs of rho at every finite beta != 1: None for
    a pure rho, else the Spectrum of rho compressed onto 1_A (x) supp(rho_B)."""
    # Pure bipartite states: duality with a trivial purification gives
    # the closed form -H_{beta/(2 beta - 1)}(A), order inf at beta = 1/2;
    # skip the optimizer.
    if _eigvalsh(R).max(initial=0.0) >= 1.0 - 1e-12:
        return None
    W = kron(np.eye(dA), Spectrum(reduced(R, (dA, dB), 1)).basis)
    return Spectrum(W.conj().T @ R @ W)


def _h_up(rho_ab, beta: float, dims, cache: dict) -> float:
    """conditional_renyi_up with its order-free set-up (_h_up_setup) kept in
    ``cache``, which belongs to one rho, next to rho_A's Spectrum."""
    if not beta >= 0.5:  # NaN fails too
        raise ContractViolation(f"beta must be >= 1/2, got {beta}")
    R, dA, dB = _bipartite(rho_ab, dims)
    if math.isinf(beta):
        return h_min_conditional(R, (dA, dB))
    if beta == 1:
        return renyi_entropy(R, 1) - renyi_entropy(reduced(R, (dA, dB), 1), 1)
    if "h_up_setup" not in cache:
        cache["h_up_setup"] = _h_up_setup(R, dA, dB)
    Rc = cache["h_up_setup"]
    if Rc is None:
        return -renyi_entropy(_spectrum_a(R, (dA, dB), cache),
                              math.inf if beta == 0.5 else beta / (2.0 * beta - 1.0))
    rB = len(Rc.w) // dA
    sign = 1.0 if beta > 1 else -1.0  # minimize Q (beta > 1) or -Q
    kernel = QAlphaKernel(beta, [(sign, Rc, np.eye(dA), False)])

    def value_of(f):  # D_beta, increasing in f
        return math.log2(sign * f) / (beta - 1.0) if sign * f > 0 else -math.inf

    # The Petz optimizer (Tr_A Rc^beta)^(1/beta), floored at RANK_TOL to stay
    # positive definite where Rc^beta's small eigenvalues are lost to round-off.
    w, V = _eigh(reduced(Rc.power(beta), (dA, rB), 1))
    w = np.clip(w, 0.0, None) ** (1.0 / beta)
    start = (V * np.maximum(w / w.sum(), RANK_TOL)) @ V.conj().T
    return -minimize_convex_over_states(kernel, rB, value_of, start).value


def f_alpha_beta(alpha: float, beta: float, eps: float) -> float:
    """Smoothing overhead (2/(beta-1) + 1/(1-alpha)) log(1/(c eps^2))."""
    if not (0.0 < alpha < 1.0 and beta > 1.0 and 0.0 < eps < 1.0):
        raise ContractViolation("need alpha in (0,1), beta > 1, eps in (0,1)")
    return (2.0 / (beta - 1.0) + 1.0 / (1.0 - alpha)) * math.log2(
        1.0 / (C_SMOOTH * eps * eps)
    )


def universal_rhs(rho_ab, dims, alpha: float, beta: float, eps: float,
                  cache: dict | None = None) -> float:
    """H_alpha(A) - optimized conditional beta-entropy + smoothing overhead.

    ``cache`` belongs to one rho; it holds rho_A's Spectrum, H_alpha(A)
    per alpha, H_up_beta(A|B) per beta, and the set-up all of its orders
    share.
    """
    R, dA, dB = _bipartite(rho_ab, dims)
    cache = cache if cache is not None else {}
    key_a = ("h_alpha", round(alpha, 14))
    if key_a not in cache:
        cache[key_a] = renyi_entropy(_spectrum_a(R, (dA, dB), cache), alpha)
    key = ("h_up", round(beta, 14))
    if key not in cache:
        cache[key] = _h_up(R, beta, (dA, dB), cache)
    return cache[key_a] - cache[key] + f_alpha_beta(alpha, beta, eps)


def dmax_smoothed_upper(rho, sigma, eps: float) -> tuple[float, np.ndarray]:
    """Feasible-point upper estimate of the smoothed max-relative entropy:
    (value_bits, witness).

    Witnesses: rho, and spectral caps of sigma^(-1/2) rho sigma^(-1/2) at
    each eigenvalue level (classical truncation relative to sigma), each
    renormalized and kept only if inside the trace-distance eps-ball.
    sigma may be its Spectrum, which is then not decomposed again.
    """
    R, S = _as_matrix(rho), Spectrum.of(sigma)
    best_v = d_max(R, S)
    best_w = R
    Sh = S.power(0.5)
    Sm = S.power(-0.5)
    # Entries grow as 1/lambda_min(sigma), and so does their asymmetry, which
    # _herm removes before Spectrum's check.
    M = Spectrum(_herm(Sm @ R @ Sm))
    w, V = M.w, M.V
    for gamma in sorted(set(np.clip(w, 0.0, None))):
        if gamma <= 0:
            continue
        capped = (V * np.minimum(np.clip(w, 0.0, None), gamma)) @ V.conj().T
        cand = Sh @ capped @ Sh
        t = float(np.trace(cand).real)
        if t <= 0:
            continue
        cand = _herm(cand) / t
        if trace_distance(cand, R) > eps + 1e-9:
            continue
        v = d_max(cand, S)
        if v < best_v:
            best_v, best_w = v, cand
    return best_v, best_w


def check_rld_bound(rho, sigma, eps: float, beta: float) -> BoundReport:
    """One-sided check of the smoothed max-divergence upper bound.

    Certifies estimate <= D_beta + (1/(beta-1)) log(1/eps^2) when it holds;
    a failure is inconclusive (the estimate is itself an upper bound) and
    is reported as such, never as a refutation.
    """
    if not beta > 1.0:  # NaN fails too
        raise ContractViolation(f"beta must be > 1, got {beta}")
    if not (0.0 < eps < 1.0):
        raise ContractViolation(f"eps must be in (0,1), got {eps}")
    S = Spectrum(sigma)  # one decomposition for both sides
    est, _ = dmax_smoothed_upper(rho, S, eps)
    rhs = d_alpha(rho, S, beta) + math.log2(1.0 / (eps * eps)) / (beta - 1.0)
    return BoundReport("dmax-smoothed-renyi-bound", est, rhs, est <= rhs + 1e-8)
