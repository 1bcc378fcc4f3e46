"""Sandwiched Renyi divergence family, its named special cases, and the
hypothesis-testing divergence.

All logarithms are base 2 (values in bits).  Infinite divergence is a value
(math.inf), never an exception.  The second argument of the Q/D functionals
may be any PSD operator (conditional entropies pass I (x) sigma), or its
matcore.Spectrum, which is then not decomposed again.  `d_alpha` also takes
a stack of them, shape (m, d, d), or the Spectrum of the stack, and returns
each member's value as alone; one reference and a stack share one support
rule and one `_q`.
"""

from __future__ import annotations

import math

import numpy as np

from .matcore import CertificateError, ContractViolation, Spectrum, _as_matrix, eig_hermitian

INF = math.inf

# Trace mass below this counts as orthogonal / off-support.
_PERP_TOL = 1e-14


def _log2(x: float) -> float:
    return math.log2(x) if x > 0 else -INF


def supp_contained(rho, sigma) -> bool:
    """supp(rho) subseteq supp(sigma), judged via rank_tol spectral cuts."""
    return Spectrum.of(sigma).contains(_as_matrix(rho))


def perpendicular(rho, sigma):
    """Tr[rho sigma] vanishes (per member when sigma is a stack)."""
    R, S = _as_matrix(rho), _as_matrix(sigma)
    return np.trace(R @ S, axis1=-2, axis2=-1).real <= _PERP_TOL


def _q(R: np.ndarray, S: Spectrum, alpha: float):
    """Tr (S^e R S^e)^alpha, e = (1-alpha)/(2 alpha), with no support check.

    For a stack S, one value per member: one ``eigh`` for the stack of
    sandwiched operators.
    """
    Se = S.power((1.0 - alpha) / (2.0 * alpha))
    X = Se @ R @ Se
    X = (X + X.conj().mT) / 2  # exact in theory; kills float asymmetry
    w, _ = eig_hermitian(X)
    w = np.clip(w, 0.0, None)
    return np.sum(w**alpha, axis=-1)


def q_alpha(rho, sigma, alpha: float) -> float:
    """Q_alpha = Tr (sigma^((1-a)/2a) rho sigma^((1-a)/2a))^a.

    Returns inf when alpha > 1 and rho is not supported inside sigma.
    """
    if not (alpha > 0 and alpha != 1):
        raise ContractViolation(f"q_alpha needs alpha in (0,1) or (1,inf), got {alpha}")
    R, S = _as_matrix(rho), Spectrum.of(sigma)
    if alpha > 1 and not S.contains(R):
        return INF
    return float(_q(R, S, alpha))


def _sandwiched(R: np.ndarray, S: Spectrum, alpha: float) -> np.ndarray:
    """D_alpha, alpha in [1/2, 1) or (1, inf), against S or each member of it.

    The support rule: infinite for alpha > 1 whenever rho leaves supp(sigma),
    for alpha < 1 only for orthogonal supports.  `_q` runs once, on the
    finite members.  The result has S's leading shape: 0-d for one operator.
    """
    finite = S.contains(R) if alpha > 1 else ~perpendicular(R, S)
    n = np.count_nonzero(finite)
    if alpha < 1 and n < finite.size:
        finite = finite | S.contains(R)
        n = np.count_nonzero(finite)
    values = np.full(finite.shape, INF)
    if n:
        q = _q(R, S if n == values.size else S[finite], alpha)
        values[finite] = [(1.0 / (alpha - 1.0)) * _log2(v) for v in q.reshape(-1).tolist()]
    return values


def d_alpha_with_branch(rho, sigma, alpha: float) -> tuple[float, str]:
    """Piecewise sandwiched divergence; returns (bits, branch name)."""
    if not alpha >= 0:  # NaN fails too
        raise ContractViolation(f"alpha must be >= 0, got {alpha}")
    if alpha == 0:
        return d_min(rho, sigma), "min"
    if alpha == 1:
        return d_umegaki(rho, sigma), "umegaki"
    if math.isinf(alpha):
        return d_max(rho, sigma), "max"
    R = _as_matrix(rho)
    if alpha < 0.5:
        S = _as_matrix(sigma)
        if perpendicular(R, S):
            return INF, "infinite"
        q = _q(S, Spectrum(R), 1.0 - alpha)
        return (1.0 / (alpha - 1.0)) * _log2(q), "low"
    value = float(_sandwiched(R, Spectrum.of(sigma), alpha))
    return value, "infinite" if value == INF else "sandwiched"


def d_alpha(rho, sigma, alpha: float):
    """D_alpha(rho || sigma) in bits.

    sigma may be a stack of references (m, d, d), or its Spectrum: the
    result is then an array of m values, each bit for bit the value of that
    member alone.  The sandwiched orders (alpha in [1/2, 1) and (1, inf))
    run `_sandwiched` for one reference and for a stack alike: one ``eigh``
    for the references and one for the sandwiched operators, with the
    Hermitian, PSD and support checks per member.  The other orders run
    member by member.
    """
    if 0.5 <= alpha < INF and alpha != 1:
        values = _sandwiched(_as_matrix(rho), Spectrum.of(sigma), alpha)
        return values if values.ndim else float(values)
    if _as_matrix(sigma).ndim == 3:
        return np.array([d_alpha_with_branch(rho, s, alpha)[0] for s in _as_matrix(sigma)])
    return d_alpha_with_branch(rho, sigma, alpha)[0]


def d_min(rho, sigma) -> float:
    """-log Tr[sigma Pi_rho]."""
    R, S = _as_matrix(rho), _as_matrix(sigma)
    t = float(np.trace(S @ Spectrum(R).projector()).real)
    if t <= _PERP_TOL:
        return INF
    return -_log2(t)


def d_umegaki(rho, sigma) -> float:
    """Tr[rho log rho] - Tr[rho log sigma]; inf off support."""
    R, S = _as_matrix(rho), Spectrum.of(sigma)
    if not S.contains(R):
        return INF
    r = Spectrum(R)
    ent = sum(lam * math.log2(lam) for lam in r.w[r.keep])
    cross = sum(float((v.conj() @ R @ v).real) * math.log2(lam)
                for lam, v in zip(S.w[S.keep], S.basis.T))
    return float(ent - cross)


def d_max(rho, sigma) -> float:
    """log of the smallest t with t sigma >= rho."""
    R, S = _as_matrix(rho), Spectrum.of(sigma)
    if not S.contains(R):
        return INF
    Sm = S.power(-0.5)
    # Entries grow as 1/lambda_min(sigma), past the absolute Hermiticity
    # tolerance of eig_hermitian's input check; resymmetrize first.
    X = Sm @ R @ Sm
    w, _ = eig_hermitian((X + X.conj().T) / 2)
    lam = float(max(w.max(initial=0.0), 0.0))
    if lam <= 0:
        return -INF
    return _log2(lam)


def q2(rho, sigma) -> float:
    """Collision functional Q_2 = Tr[rho sigma^(-1/2) rho sigma^(-1/2)]."""
    return q_alpha(rho, sigma, 2.0)


def d2(rho, sigma) -> float:
    """Collision relative entropy log2 Q_2."""
    q = q2(rho, sigma)
    return INF if math.isinf(q) else _log2(q)


# --- hypothesis-testing divergence -----------------------------------------

def _np_test_value(rho: np.ndarray, sigma: np.ndarray, t: float, eps: float):
    """Neyman-Pearson test at threshold t with fractional weights.

    Builds Lambda from the eigenbasis of rho - t sigma: weight 1 on clearly
    positive eigenvectors, fractional weight on near-zero ones (ordered by
    rho-to-sigma ratio) until Tr[rho Lambda] = 1 - eps.  Returns
    (Tr[sigma Lambda], feasible) or (None, False) when 1 - eps is out of
    reach at this threshold.
    """
    d = rho.shape[0]
    M = rho - t * sigma  # large t amplifies float asymmetry; resymmetrize
    w, V = eig_hermitian((M + M.conj().T) / 2)
    scale = max(np.max(np.abs(w)), 1.0)
    ctol = 1e-9 * scale
    r_diag = np.array([float((V[:, j].conj() @ rho @ V[:, j]).real) for j in range(d)])
    s_diag = np.array([float((V[:, j].conj() @ sigma @ V[:, j]).real) for j in range(d)])
    r_diag = np.clip(r_diag, 0.0, None)
    s_diag = np.clip(s_diag, 0.0, None)
    # Greedy by descending eigenvalue, fractional weight on the boundary
    # vector; near-degenerate eigenvalues break ties by rho-per-sigma ratio.
    ratio = r_diag / np.maximum(s_diag, 1e-300)
    coarse = np.where(np.abs(w) > ctol, w, 0.0)
    order = np.lexsort((-ratio, -coarse))
    need = 1.0 - eps
    cost = 0.0
    for j in order:
        if need <= 1e-15:
            break
        if r_diag[j] <= 0:
            continue
        take = min(r_diag[j], need)
        cost += (take / r_diag[j]) * s_diag[j]
        need -= take
    if need > 1e-12:
        return None, False
    return max(cost, 0.0), True


def d_min_eps(rho, sigma, eps: float) -> float:
    """Exact hypothesis-testing divergence via the Neyman-Pearson family.

    The concave dual t(1-eps) - Tr[(t rho - sigma)_+] peaks where its
    supergradient (1-eps) - Tr[rho Pi_+(t rho - sigma)], which falls with t,
    changes sign; that t is bisected to machine precision, and the NP tests
    at threshold 1/t on both ends of the bracket give the primal.
    Self-certified: the achieved Tr[sigma Lambda] is checked against the dual
    to 1e-8.
    """
    if not (0.0 < eps < 1.0):
        raise ContractViolation(f"eps must be in (0,1), got {eps}")
    R, S = _as_matrix(rho), _as_matrix(sigma)
    # Lambda = Pi_rho has full rho-mass and no sigma-mass.
    if perpendicular(R, S) and not supp_contained(R, S) and math.isinf(d_min(R, S)):
        return INF

    def slope(t: float) -> float:
        w, V = np.linalg.eigh(t * R - S)
        P = V[:, w > 0]
        return (1.0 - eps) - float(np.einsum("ji,jk,ki->", P.conj(), R, P).real)

    def dual(t: float) -> float:
        w = np.linalg.eigvalsh(t * R - S)
        return t * (1.0 - eps) - float(np.clip(w, 0.0, None).sum())

    lo, hi = 0.0, 1.0
    while slope(hi) > 0 and hi < 1e12:
        lo, hi = hi, 2.0 * hi
    # Capped for a root at t = 0 (rho's mass on ker sigma reaches 1 - eps),
    # where hi halves toward zero and the answer is inf.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    tests = [_np_test_value(R, S, 1.0 / t, eps) for t in (lo, hi) if t > 0]
    best = min((val for val, ok in tests if ok), default=None)
    if best is None or best <= _PERP_TOL:
        return INF
    gap = best - max(dual(lo), dual(hi))
    if gap > 1e-8:
        raise CertificateError(
            f"hypothesis-testing primal/dual gap {gap:.3e} exceeds 1e-8"
        )
    return -_log2(best)
